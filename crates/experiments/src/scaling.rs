//! Figures 8, 9, 10 (2/4/8-way CMP policy curves), Figure 11 (policy
//! trends under CMP scaling), the beyond-the-paper wide-CMP tier
//! (16/32-way MaxBIPS-exact vs GreedyMaxBIPS), and the hierarchical tier
//! (64/128/256-way HierMaxBIPS vs flat-exact-where-tractable vs greedy).

use gpm_types::{GpmError, Result};
use gpm_workloads::{combos, SpecBenchmark, WorkloadCombo};

use crate::render::pct2;
use crate::{suite_curves, ExperimentContext, PolicyKind, SuiteCurves};

/// The policies compared in the scaling figures.
pub const POLICIES: [PolicyKind; 3] = [
    PolicyKind::ChipWide,
    PolicyKind::MaxBips,
    PolicyKind::Oracle,
];

/// One scaling figure: a set of combo panels at a fixed core count.
#[derive(Debug, Clone)]
pub struct ScalingFigure {
    /// "Figure 8" / "Figure 9" / "Figure 10".
    pub title: String,
    /// One panel per combo, each with ChipWide/MaxBIPS/Oracle + Static.
    pub panels: Vec<SuiteCurves>,
}

fn figure(
    ctx: &ExperimentContext,
    title: &str,
    suite: Vec<WorkloadCombo>,
) -> Result<ScalingFigure> {
    // Combos fan out across the pool; the per-combo sweeps inside
    // `suite_curves` then run inline on their worker (nested regions are
    // serialised), and the store's single-flight cache dedups any
    // benchmark shared between concurrently-captured combos.
    let panels =
        gpm_par::try_parallel_map(&suite, |combo| suite_curves(ctx, combo, &POLICIES, true))?;
    Ok(ScalingFigure {
        title: title.to_owned(),
        panels,
    })
}

/// Figure 8: the four 2-way combinations of Table 2.
///
/// # Errors
///
/// Propagates capture and simulation errors.
pub fn fig8(ctx: &ExperimentContext) -> Result<ScalingFigure> {
    figure(ctx, "Figure 8 (2-way CMP)", combos::two_way_suite())
}

/// Figure 9: the four 4-way combinations of Table 2.
///
/// # Errors
///
/// Propagates capture and simulation errors.
pub fn fig9(ctx: &ExperimentContext) -> Result<ScalingFigure> {
    figure(ctx, "Figure 9 (4-way CMP)", combos::four_way_suite())
}

/// Figure 10: the two 8-way combinations.
///
/// # Errors
///
/// Propagates capture and simulation errors.
pub fn fig10(ctx: &ExperimentContext) -> Result<ScalingFigure> {
    figure(ctx, "Figure 10 (8-way CMP)", combos::eight_way_suite())
}

impl ScalingFigure {
    /// Mean degradation gap of `policy` over the oracle, averaged over all
    /// panels and budgets.
    #[must_use]
    pub fn mean_gap_over_oracle(&self, policy: &str) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for panel in &self.panels {
            let Some(curve) = panel.curve(policy) else {
                continue;
            };
            let Some(oracle) = panel.curve("Oracle") else {
                continue;
            };
            for (p, o) in curve.points.iter().zip(&oracle.points) {
                sum += p.perf_degradation - o.perf_degradation;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Paper-style text rendering: one block per panel.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("{}: performance degradation vs power budget\n", self.title);
        for panel in &self.panels {
            out.push_str(&format!("\n({})\n", panel.combo.replace('|', ", ")));
            let budgets: Vec<f64> = panel
                .dynamic
                .first()
                .map(|c| c.points.iter().map(|p| p.budget).collect())
                .unwrap_or_default();
            let mut header = vec![format!("{:<13}", "policy")];
            header.extend(budgets.iter().map(|b| format!("{:>7.0}%", b * 100.0)));
            out.push_str(&header.join("  "));
            out.push('\n');
            for name in ["ChipWideDVFS", "Static", "MaxBIPS", "Oracle"] {
                let Some(curve) = panel.curve(name) else {
                    continue;
                };
                let mut cells = vec![format!("{:<13}", curve.policy)];
                for p in &curve.points {
                    cells.push(format!("{:>8}", pct2(p.perf_degradation)));
                }
                out.push_str(&cells.join("  "));
                out.push('\n');
            }
        }
        out
    }
}

/// One row of Figure 11: mean degradation over the oracle at one CMP scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11Row {
    /// Core count (1, 2, 4 or 8).
    pub cores: usize,
    /// MaxBIPS's mean gap over the oracle.
    pub maxbips: f64,
    /// Optimistic static's mean gap over the oracle.
    pub static_gap: f64,
    /// Chip-wide DVFS's mean gap over the oracle.
    pub chipwide: f64,
}

/// Figure 11's data.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// One row per CMP scale, smallest first.
    pub rows: Vec<Fig11Row>,
}

/// The single-benchmark "combos" used for the 1-core reference point: the
/// distinct benchmarks of the 2-way suite.
#[must_use]
pub fn single_core_workloads() -> Vec<WorkloadCombo> {
    let benches = [
        SpecBenchmark::Ammp,
        SpecBenchmark::Art,
        SpecBenchmark::Gcc,
        SpecBenchmark::Mesa,
        SpecBenchmark::Crafty,
        SpecBenchmark::Facerec,
        SpecBenchmark::Mcf,
    ];
    benches
        .into_iter()
        .map(|b| WorkloadCombo::new(vec![b]).expect("non-empty"))
        .collect()
}

/// Runs the Figure 11 experiment across 1, 2, 4 and 8 cores.
///
/// # Errors
///
/// Propagates capture and simulation errors.
pub fn fig11(ctx: &ExperimentContext) -> Result<Fig11> {
    let scales: Vec<(usize, Vec<WorkloadCombo>)> = vec![
        (1, single_core_workloads()),
        (2, combos::two_way_suite()),
        (4, combos::four_way_suite()),
        (8, combos::eight_way_suite()),
    ];
    let mut rows = Vec::with_capacity(scales.len());
    for (cores, suite) in scales {
        let fig = figure(ctx, "", suite)?;
        rows.push(Fig11Row {
            cores,
            maxbips: fig.mean_gap_over_oracle("MaxBIPS"),
            static_gap: fig.mean_gap_over_oracle("Static"),
            chipwide: fig.mean_gap_over_oracle("ChipWideDVFS"),
        });
    }
    Ok(Fig11 { rows })
}

impl Fig11 {
    /// Paper-style text rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 11: mean perf degradation over oracle vs CMP scale\n");
        out.push_str(&format!(
            "{:<8}{:>10}{:>10}{:>14}\n",
            "cores", "MaxBIPS", "Static", "ChipWideDVFS"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8}{:>10}{:>10}{:>14}\n",
                r.cores,
                pct2(r.maxbips),
                pct2(r.static_gap),
                pct2(r.chipwide)
            ));
        }
        out
    }
}

/// One budget point of the wide-CMP comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WideRow {
    /// Budget as a fraction of the all-Turbo envelope.
    pub budget: f64,
    /// Performance degradation under the exact MaxBIPS argmax.
    pub exact: f64,
    /// Performance degradation under the O(N·modes) greedy heuristic.
    pub greedy: f64,
}

impl WideRow {
    /// How much throughput the greedy heuristic gives up against the exact
    /// argmax (positive = greedy is worse).
    #[must_use]
    pub fn greedy_gap(&self) -> f64 {
        self.greedy - self.exact
    }
}

/// One wide-CMP panel: exact-vs-greedy curves at one core count.
#[derive(Debug, Clone)]
pub struct WidePanel {
    /// Core count (16 or 32).
    pub cores: usize,
    /// The combo's `a|b|…` label.
    pub combo: String,
    /// One row per budget, lowest budget first.
    pub rows: Vec<WideRow>,
}

/// The wide-CMP scaling experiment: MaxBIPS solved *exactly* by the
/// branch-and-bound (`gpm_core::solver`) against the `GreedyMaxBips`
/// heuristic at core counts where the literal 3^N scan is intractable.
#[derive(Debug, Clone)]
pub struct WideScaling {
    /// One panel per requested core count, narrowest first.
    pub panels: Vec<WidePanel>,
}

/// Builds the wide combo for a supported core count.
///
/// # Errors
///
/// Returns [`GpmError::InvalidConfig`] for counts other than 16, 32, 64,
/// 128 and 256.
pub fn wide_combo(cores: usize) -> Result<WorkloadCombo> {
    match cores {
        16 => Ok(combos::sixteen_way_mixed()),
        32 => Ok(combos::thirty_two_way_mixed()),
        64 => Ok(combos::sixty_four_way_mixed()),
        128 => Ok(combos::one_twenty_eight_way_mixed()),
        256 => Ok(combos::two_fifty_six_way_mixed()),
        _ => Err(GpmError::InvalidConfig {
            parameter: "cores",
            reason: format!("wide-CMP tier supports 16, 32, 64, 128 or 256 cores, got {cores}"),
        }),
    }
}

/// Widest chip the flat exact branch-and-bound is run on in the
/// hierarchical tier. The solver itself supports up to 80 cores; beyond
/// 64 only the hierarchical and greedy controllers are compared.
pub const FLAT_EXACT_LIMIT: usize = 64;

/// Runs the wide-CMP tier at the given core counts (16 and/or 32).
///
/// The optimistic-static bound is deliberately skipped: it is a *trace*
/// search over all 3^N fixed assignments (not a matrix problem), so the
/// branch-and-bound does not apply to it and it remains intractable at
/// these widths.
///
/// # Errors
///
/// Propagates capture and simulation errors; rejects unsupported core
/// counts.
pub fn wide(ctx: &ExperimentContext, core_counts: &[usize]) -> Result<WideScaling> {
    let mut panels = Vec::with_capacity(core_counts.len());
    for &cores in core_counts {
        let combo = wide_combo(cores)?;
        let curves = suite_curves(
            ctx,
            &combo,
            &[PolicyKind::MaxBips, PolicyKind::GreedyMaxBips],
            false,
        )?;
        let exact = curves
            .curve("MaxBIPS")
            .expect("MaxBIPS curve was requested");
        let greedy = curves
            .curve("GreedyMaxBIPS")
            .expect("GreedyMaxBIPS curve was requested");
        let rows = exact
            .points
            .iter()
            .zip(&greedy.points)
            .map(|(e, g)| WideRow {
                budget: e.budget,
                exact: e.perf_degradation,
                greedy: g.perf_degradation,
            })
            .collect();
        panels.push(WidePanel {
            cores,
            combo: curves.combo,
            rows,
        });
    }
    Ok(WideScaling { panels })
}

impl WideScaling {
    /// Paper-style text rendering: one block per core count.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out =
            String::from("Wide-CMP tier: MaxBIPS-exact vs GreedyMaxBIPS perf degradation\n");
        for panel in &self.panels {
            out.push_str(&format!("\n{}-way ({})\n", panel.cores, panel.combo));
            out.push_str(&format!(
                "{:<10}{:>14}{:>16}{:>12}\n",
                "budget", "MaxBIPS-exact", "GreedyMaxBIPS", "greedy gap"
            ));
            for row in &panel.rows {
                out.push_str(&format!(
                    "{:<10}{:>14}{:>16}{:>12}\n",
                    format!("{:.0}%", row.budget * 100.0),
                    pct2(row.exact),
                    pct2(row.greedy),
                    pct2(row.greedy_gap()),
                ));
            }
        }
        out
    }
}

/// One budget point of the hierarchical-tier comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierRow {
    /// Budget as a fraction of the all-Turbo envelope.
    pub budget: f64,
    /// Performance degradation under the flat exact MaxBIPS argmax, when
    /// tractable ([`FLAT_EXACT_LIMIT`]); `None` at 128/256 cores.
    pub exact: Option<f64>,
    /// Performance degradation under the two-level HierMaxBIPS controller.
    pub hier: f64,
    /// Performance degradation under the O(N·modes) greedy heuristic.
    pub greedy: f64,
}

impl HierRow {
    /// How much throughput the hierarchical controller gives up against
    /// the flat exact argmax (positive = hierarchical is worse); `None`
    /// where flat-exact was not run.
    #[must_use]
    pub fn hier_gap(&self) -> Option<f64> {
        self.exact.map(|e| self.hier - e)
    }
}

/// One hierarchical-tier panel: flat-exact (where tractable) vs
/// hierarchical vs greedy at one core count.
#[derive(Debug, Clone)]
pub struct HierPanel {
    /// Core count (64, 128 or 256).
    pub cores: usize,
    /// The combo's `a|b|…` label.
    pub combo: String,
    /// One row per budget, lowest budget first.
    pub rows: Vec<HierRow>,
}

/// The hierarchical scaling experiment: the two-level HierMaxBIPS
/// controller against the flat exact argmax (up to [`FLAT_EXACT_LIMIT`]
/// cores, where the branch-and-bound is still tractable) and the greedy
/// heuristic, at cluster-CMP core counts.
#[derive(Debug, Clone)]
pub struct HierScaling {
    /// One panel per requested core count, narrowest first.
    pub panels: Vec<HierPanel>,
}

/// Runs the hierarchical tier at the given core counts (any of 16–256).
///
/// # Errors
///
/// Propagates capture and simulation errors; rejects unsupported core
/// counts.
pub fn hier(ctx: &ExperimentContext, core_counts: &[usize]) -> Result<HierScaling> {
    let mut panels = Vec::with_capacity(core_counts.len());
    for &cores in core_counts {
        let combo = wide_combo(cores)?;
        let mut policies = vec![PolicyKind::HierMaxBips, PolicyKind::GreedyMaxBips];
        if cores <= FLAT_EXACT_LIMIT {
            policies.insert(0, PolicyKind::MaxBips);
        }
        let curves = suite_curves(ctx, &combo, &policies, false)?;
        let hier = curves
            .curve("HierMaxBIPS")
            .expect("HierMaxBIPS curve was requested");
        let greedy = curves
            .curve("GreedyMaxBIPS")
            .expect("GreedyMaxBIPS curve was requested");
        let exact = curves.curve("MaxBIPS");
        let rows = hier
            .points
            .iter()
            .zip(&greedy.points)
            .enumerate()
            .map(|(i, (h, g))| HierRow {
                budget: h.budget,
                exact: exact.map(|e| e.points[i].perf_degradation),
                hier: h.perf_degradation,
                greedy: g.perf_degradation,
            })
            .collect();
        panels.push(HierPanel {
            cores,
            combo: curves.combo,
            rows,
        });
    }
    Ok(HierScaling { panels })
}

impl HierScaling {
    /// Mean throughput the hierarchical controller gives up against the
    /// flat exact argmax, across all panels and budgets where flat-exact
    /// was run.
    #[must_use]
    pub fn mean_hier_gap(&self) -> f64 {
        let gaps: Vec<f64> = self
            .panels
            .iter()
            .flat_map(|p| p.rows.iter().filter_map(HierRow::hier_gap))
            .collect();
        if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        }
    }

    /// Paper-style text rendering: one block per core count.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Hierarchical tier: flat-exact vs HierMaxBIPS vs GreedyMaxBIPS perf degradation\n",
        );
        for panel in &self.panels {
            out.push_str(&format!("\n{}-way\n", panel.cores));
            out.push_str(&format!(
                "{:<10}{:>14}{:>14}{:>16}\n",
                "budget", "MaxBIPS-exact", "HierMaxBIPS", "GreedyMaxBIPS"
            ));
            for row in &panel.rows {
                out.push_str(&format!(
                    "{:<10}{:>14}{:>14}{:>16}\n",
                    format!("{:.0}%", row.budget * 100.0),
                    row.exact.map_or_else(|| "—".to_owned(), pct2),
                    pct2(row.hier),
                    pct2(row.greedy),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_maxbips_tracks_oracle() {
        let ctx = ExperimentContext::fast();
        let fig = fig8(&ctx).unwrap();
        assert_eq!(fig.panels.len(), 4);
        let gap = fig.mean_gap_over_oracle("MaxBIPS");
        assert!(
            (-0.003..=0.015).contains(&gap),
            "2-way MaxBIPS-oracle gap {gap}"
        );
        assert!(fig.mean_gap_over_oracle("ChipWideDVFS") >= gap - 0.002);
        assert!(fig.render().contains("2-way"));
    }

    #[test]
    fn scaling_trends_match_figure11() {
        let ctx = ExperimentContext::fast();
        // 2- and 4-way scales are enough to check the trends cheaply.
        let two = figure(&ctx, "", combos::two_way_suite()).unwrap();
        let four = figure(&ctx, "", combos::four_way_suite()).unwrap();

        let mb2 = two.mean_gap_over_oracle("MaxBIPS");
        let mb4 = four.mean_gap_over_oracle("MaxBIPS");
        let cw2 = two.mean_gap_over_oracle("ChipWideDVFS");
        let cw4 = four.mean_gap_over_oracle("ChipWideDVFS");

        // MaxBIPS approaches the oracle as cores increase; chip-wide gets
        // relatively worse (both with small tolerances for noise).
        assert!(
            mb4 <= mb2 + 0.004,
            "MaxBIPS gap should shrink: {mb2} -> {mb4}"
        );
        assert!(
            cw4 >= cw2 - 0.004,
            "chip-wide gap should grow: {cw2} -> {cw4}"
        );
        // And at each scale the ordering MaxBIPS < chip-wide holds.
        assert!(mb2 <= cw2 + 0.002);
        assert!(mb4 <= cw4 + 0.002);
    }

    #[test]
    fn wide_16way_exact_beats_or_matches_greedy() {
        let ctx = ExperimentContext::fast();
        let result = wide(&ctx, &[16]).unwrap();
        assert_eq!(result.panels.len(), 1);
        let panel = &result.panels[0];
        assert_eq!(panel.cores, 16);
        assert_eq!(panel.rows.len(), ctx.budgets().len());
        // The exact argmax can only be at least as good as the greedy
        // heuristic at every budget (tiny tolerance for interval-boundary
        // feedback noise in the closed control loop).
        for row in &panel.rows {
            assert!(
                row.greedy_gap() >= -0.01,
                "greedy beat exact at budget {}: {} vs {}",
                row.budget,
                row.greedy,
                row.exact
            );
        }
        assert!(result.render().contains("16-way"));
    }

    #[test]
    fn wide_combo_rejects_unsupported_counts() {
        assert!(wide_combo(16).is_ok());
        assert!(wide_combo(32).is_ok());
        for cores in [64, 128, 256] {
            assert_eq!(
                wide_combo(cores).expect("hier tier count").cores(),
                cores,
                "{cores}-way combo"
            );
        }
        assert!(wide_combo(8).is_err());
        assert!(wide_combo(48).is_err());
    }

    #[test]
    fn hier_16way_tracks_flat_exact() {
        let ctx = ExperimentContext::fast();
        let result = hier(&ctx, &[16]).unwrap();
        assert_eq!(result.panels.len(), 1);
        let panel = &result.panels[0];
        assert_eq!(panel.cores, 16);
        assert_eq!(panel.rows.len(), ctx.budgets().len());
        for row in &panel.rows {
            let gap = row.hier_gap().expect("flat-exact runs at 16 cores");
            // The partitioned controller may give up a little throughput
            // against the flat argmax, but must stay close — and must not
            // somehow beat it by more than feedback noise.
            assert!(
                (-0.01..=0.05).contains(&gap),
                "hier gap {gap} at budget {}",
                row.budget
            );
        }
        assert!(result.render().contains("16-way"));
        assert!(result.mean_hier_gap().abs() <= 0.05);
    }
}

//! The two-level (hierarchical) MaxBIPS controller for wide CMPs.
//!
//! The exact branch-and-bound solver answers the flat MaxBIPS argmax
//! bit-identically up to its 80-core rank-bookkeeping limit, but a single
//! flat solve over hundreds of cores is the wrong shape anyway: "Scaling
//! Turbo Boost to a 1000 cores" argues a flat global manager's decision
//! latency breaks the control loop long before that, and the cluster-
//! sharded simulator gives the chip a natural partition to manage along.
//! [`HierMaxBips`] therefore splits the decision:
//!
//! 1. **Global budget arbiter** — [`cluster_budgets`] water-fills the chip
//!    budget across clusters on the per-core marginal-BIPS-per-watt curves
//!    derived from the Power/BIPS matrices. Every cluster is first floored
//!    at its minimum feasible power (all cores in their cheapest mode);
//!    the remaining watts then pour over the globally ratio-sorted concave
//!    upgrade segments, so the watts go wherever they buy the most
//!    predicted throughput.
//! 2. **Local managers** — each cluster runs the existing exact solver
//!    over its own cores under its allocated budget. The local solves are
//!    independent and parallelise on the `gpm-par` pool.
//! 3. **Promote pass** — per-cluster floors and integer mode steps leave
//!    slack watts behind; a deterministic greedy pass promotes cores
//!    (largest predicted BIPS gain first, lowest core index on ties) while
//!    the chip still fits the budget, recovering most of the partition
//!    loss.
//!
//! When the chip does not fit even the floors the arbiter allocates zero
//! everywhere and every local solve falls back to all-Eff2 — exactly the
//! flat MaxBIPS infeasibility behaviour. At or below one cluster's width
//! the policy *is* flat MaxBIPS (it delegates to the same solver).

use gpm_types::{CoreId, GpmError, ModeCombination, PowerMode, Result, Watts};

use super::{solver, Policy, PolicyContext};
use crate::PowerBipsMatrices;

/// Hierarchical MaxBIPS: a global water-filling budget arbiter over
/// per-cluster exact solves. See the module docs for the algorithm.
///
/// # Examples
///
/// ```
/// use gpm_core::{HierMaxBips, Policy};
///
/// let policy = HierMaxBips::with_cluster_cores(16)?;
/// assert_eq!(policy.name(), "HierMaxBIPS");
/// # Ok::<(), gpm_types::GpmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HierMaxBips {
    cluster_cores: usize,
}

impl HierMaxBips {
    /// Builds the controller with the default cluster width of 8 cores —
    /// the sharded simulator's natural cluster size.
    #[must_use]
    pub fn new() -> Self {
        Self { cluster_cores: 8 }
    }

    /// Builds the controller with `cluster_cores` cores per local manager.
    /// A chip whose core count is not a multiple gets one narrower
    /// trailing cluster.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] when `cluster_cores` is zero or
    /// wider than [`solver::MAX_CORES`].
    pub fn with_cluster_cores(cluster_cores: usize) -> Result<Self> {
        if cluster_cores == 0 || cluster_cores > solver::MAX_CORES {
            return Err(GpmError::InvalidConfig {
                parameter: "cluster_cores",
                reason: format!(
                    "need between 1 and {} cores per cluster, got {cluster_cores}",
                    solver::MAX_CORES
                ),
            });
        }
        Ok(Self { cluster_cores })
    }

    /// Cores per local manager.
    #[must_use]
    pub fn cluster_cores(&self) -> usize {
        self.cluster_cores
    }
}

impl Default for HierMaxBips {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for HierMaxBips {
    fn name(&self) -> &str {
        "HierMaxBIPS"
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> ModeCombination {
        let n = ctx.matrices.cores();
        if n <= self.cluster_cores {
            // One cluster: the hierarchy degenerates to flat exact MaxBIPS.
            return solver::solve(
                ctx.matrices,
                ctx.current_modes,
                ctx.budget,
                ctx.dvfs,
                ctx.explore,
            );
        }

        let budgets = cluster_budgets(ctx.matrices, self.cluster_cores, ctx.budget);

        // Per-cluster sub-problems: (core range, sub-matrices, sub-modes).
        let clusters: Vec<(usize, usize)> = (0..n)
            .step_by(self.cluster_cores)
            .map(|start| (start, (start + self.cluster_cores).min(n)))
            .collect();
        let solves: Vec<ModeCombination> = gpm_par::parallel_map(&clusters, |&(start, end)| {
            let sub = PowerBipsMatrices::from_stacked_rows(
                [
                    &ctx.matrices.power_rows()[start..end],
                    &ctx.matrices.bips_rows()[start..end],
                ]
                .concat(),
            );
            let current = ModeCombination::from_slice(&ctx.current_modes.as_slice()[start..end]);
            solver::solve(
                &sub,
                &current,
                budgets[start / self.cluster_cores],
                ctx.dvfs,
                ctx.explore,
            )
        });

        let mut combo = ModeCombination::new(
            solves
                .iter()
                .flat_map(|c| c.as_slice().iter().copied())
                .collect(),
        );

        // Promote pass: spend the slack the per-cluster floors and integer
        // mode steps stranded. Deterministic: strict-largest predicted
        // BIPS gain wins, lowest core index on ties.
        loop {
            let mut best: Option<(usize, PowerMode, f64)> = None;
            for core in 0..n {
                let id = CoreId::new(core);
                let Some(up) = combo.mode(id).faster() else {
                    continue;
                };
                let gain = ctx.matrices.bips(id, up).value()
                    - ctx.matrices.bips(id, combo.mode(id)).value();
                let mut trial = combo.clone();
                trial.set(id, up);
                if ctx.matrices.chip_power(&trial) > ctx.budget
                    || !best.is_none_or(|(_, _, g)| gain > g)
                {
                    continue;
                }
                best = Some((core, up, gain));
            }
            let Some((core, up, _)) = best else { break };
            combo.set(CoreId::new(core), up);
        }
        combo
    }
}

/// One linear piece of a core's concave power→BIPS upgrade curve.
#[derive(Debug, Clone, Copy)]
struct Segment {
    cluster: usize,
    core: usize,
    seg: usize,
    watts: f64,
    ratio: f64,
}

/// The global budget arbiter: water-fills `budget` across the clusters of
/// `cluster_cores` cores each (the last cluster may be narrower), returning
/// one budget per cluster.
///
/// Every cluster is floored at its minimum feasible power — each core in
/// its cheapest mode — and the remaining watts pour over the chip-wide
/// ratio-sorted concave upgrade segments, best marginal BIPS-per-watt
/// first (ties broken by cluster, then core, then segment index, so the
/// allocation is deterministic). When the budget cannot cover the floors
/// every cluster gets zero watts, which drives every local solve into the
/// all-Eff2 infeasibility fallback — the flat MaxBIPS behaviour.
///
/// The sum of the returned budgets never exceeds `budget` beyond f64
/// rounding; `tests/hier_equivalence.rs` propcheck-pins that invariant.
///
/// # Panics
///
/// Panics if `cluster_cores` is zero.
#[must_use]
pub fn cluster_budgets(
    matrices: &PowerBipsMatrices,
    cluster_cores: usize,
    budget: Watts,
) -> Vec<Watts> {
    assert!(cluster_cores > 0, "need at least one core per cluster");
    let n = matrices.cores();
    let cluster_count = n.div_ceil(cluster_cores);
    if cluster_count == 0 {
        return Vec::new();
    }

    let mut floors = vec![0.0f64; cluster_count];
    let mut segments: Vec<Segment> = Vec::new();
    for core in 0..n {
        let id = CoreId::new(core);
        let cluster = core / cluster_cores;
        // The core's (power, bips) frontier: sort by power, drop points
        // that cost more without predicting more BIPS.
        let mut points: Vec<(f64, f64)> = PowerMode::ALL
            .iter()
            .map(|&m| (matrices.power(id, m).value(), matrices.bips(id, m).value()))
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut frontier: Vec<(f64, f64)> = Vec::with_capacity(points.len());
        for (p, b) in points {
            if frontier.last().is_none_or(|&(_, fb)| b > fb) {
                frontier.push((p, b));
            }
        }
        floors[cluster] += frontier[0].0;
        // Upper concave hull of the upgrade steps: merging any step whose
        // marginal ratio improves on its predecessor's keeps the poured
        // order greedy-optimal.
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(frontier.len() - 1);
        for w in frontier.windows(2) {
            let (dw, db) = (w[1].0 - w[0].0, w[1].1 - w[0].1);
            if dw <= 0.0 {
                continue;
            }
            hull.push((dw, db));
            while hull.len() >= 2 {
                let [a, b] = hull[hull.len() - 2..] else {
                    unreachable!()
                };
                if b.1 / b.0 > a.1 / a.0 {
                    hull.truncate(hull.len() - 2);
                    hull.push((a.0 + b.0, a.1 + b.1));
                } else {
                    break;
                }
            }
        }
        for (seg, (dw, db)) in hull.into_iter().enumerate() {
            segments.push(Segment {
                cluster,
                core,
                seg,
                watts: dw,
                ratio: db / dw,
            });
        }
    }

    let floor_sum: f64 = floors.iter().sum();
    if floor_sum > budget.value() {
        // Infeasible even at minimum power: allocate nothing, so every
        // local solve falls back to all-Eff2 exactly like flat MaxBIPS.
        return vec![Watts::new(0.0); cluster_count];
    }

    segments.sort_by(|a, b| {
        b.ratio
            .total_cmp(&a.ratio)
            .then(a.cluster.cmp(&b.cluster))
            .then(a.core.cmp(&b.core))
            .then(a.seg.cmp(&b.seg))
    });

    let mut allocations = floors;
    let mut remaining = budget.value() - floor_sum;
    for seg in &segments {
        if remaining <= 0.0 {
            break;
        }
        let poured = seg.watts.min(remaining);
        allocations[seg.cluster] += poured;
        remaining -= poured;
    }
    allocations.into_iter().map(Watts::new).collect()
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Fixture;
    use super::*;

    /// A 4-core fixture: two hot-and-fast cores, two cool-and-slow ones.
    fn mixed_fixture() -> Fixture {
        Fixture::new(&[(20.0, 2.0), (10.0, 0.4), (20.0, 2.0), (10.0, 0.4)])
    }

    #[test]
    fn degenerates_to_flat_solver_at_or_below_cluster_width() {
        let f = mixed_fixture();
        let mut hier = HierMaxBips::with_cluster_cores(4).expect("non-zero width");
        let mut flat = super::super::MaxBips::new();
        for budget in [30.0, 45.0, 52.0, 60.0, 200.0] {
            assert_eq!(
                hier.decide(&f.ctx(budget)),
                flat.decide(&f.ctx(budget)),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn matches_flat_exact_when_budget_is_generous() {
        let f = mixed_fixture();
        let mut hier = HierMaxBips::with_cluster_cores(2).expect("non-zero width");
        let combo = hier.decide(&f.ctx(200.0));
        assert!(combo.as_slice().iter().all(|&m| m == PowerMode::Turbo));
    }

    #[test]
    fn respects_budget_and_stays_near_flat_exact() {
        let f = mixed_fixture();
        let mut hier = HierMaxBips::with_cluster_cores(2).expect("non-zero width");
        let mut flat = super::super::MaxBips::new();
        for budget in [40.0, 45.0, 50.0, 55.0, 58.0] {
            let ctx = f.ctx(budget);
            let h = hier.decide(&ctx);
            assert!(
                f.matrices.chip_power(&h) <= Watts::new(budget),
                "budget {budget} violated: {}",
                f.matrices.chip_power(&h).value()
            );
            let fx = flat.decide(&ctx);
            let (hb, fb) = (f.matrices.chip_bips(&h), f.matrices.chip_bips(&fx));
            assert!(
                hb.value() >= 0.9 * fb.value(),
                "budget {budget}: hier {} too far below flat {}",
                hb.value(),
                fb.value()
            );
        }
    }

    #[test]
    fn infeasible_budget_falls_back_to_all_eff2() {
        let f = mixed_fixture();
        let mut hier = HierMaxBips::with_cluster_cores(2).expect("non-zero width");
        let combo = hier.decide(&f.ctx(1.0));
        assert!(combo.as_slice().iter().all(|&m| m == PowerMode::Eff2));
    }

    #[test]
    fn arbiter_never_overallocates() {
        let f = mixed_fixture();
        for budget in [0.5, 37.0, 45.0, 52.0, 60.0, 1000.0] {
            let budgets = cluster_budgets(&f.matrices, 2, Watts::new(budget));
            assert_eq!(budgets.len(), 2);
            let total: f64 = budgets.iter().map(|b| b.value()).sum();
            assert!(
                total <= budget * (1.0 + 1e-9),
                "budget {budget} overallocated to {total}"
            );
        }
    }

    #[test]
    fn arbiter_handles_ragged_last_cluster() {
        // 4 cores in clusters of 3: the trailing cluster has one core.
        let f = mixed_fixture();
        let budgets = cluster_budgets(&f.matrices, 3, Watts::new(60.0));
        assert_eq!(budgets.len(), 2);
        assert!(budgets.iter().all(|b| b.value() > 0.0));
    }

    #[test]
    fn arbiter_prefers_the_better_marginal_cluster() {
        // Cluster 0 holds the fast cores, cluster 1 the slow ones; with
        // watts for roughly one cluster's upgrades, the fast cluster gets
        // the larger share above its floor.
        let f = Fixture::new(&[(20.0, 2.0), (20.0, 2.0), (10.0, 0.4), (10.0, 0.4)]);
        let floors: Vec<f64> = (0..2)
            .map(|k| {
                (0..2)
                    .map(|i| {
                        PowerMode::ALL
                            .iter()
                            .map(|&m| f.matrices.power(CoreId::new(2 * k + i), m).value())
                            .fold(f64::INFINITY, f64::min)
                    })
                    .sum()
            })
            .collect();
        let budgets = cluster_budgets(
            &f.matrices,
            2,
            Watts::new(floors.iter().sum::<f64>() + 10.0),
        );
        let surplus0 = budgets[0].value() - floors[0];
        let surplus1 = budgets[1].value() - floors[1];
        assert!(
            surplus0 > surplus1,
            "fast cluster should win the marginal watts: {surplus0} vs {surplus1}"
        );
    }

    #[test]
    fn zero_cluster_width_rejected() {
        assert!(HierMaxBips::with_cluster_cores(0).is_err());
        assert_eq!(HierMaxBips::default().cluster_cores(), 8);
    }
}

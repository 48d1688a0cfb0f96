//! Chaos tier for the fleet decision service: seeded fault schedules
//! against a cold-started [`FleetEngine`], reporting how fast the service
//! returns to steady state after each fault class.
//!
//! Unlike the saturating-load tier (`fleet`), chaos runs start with a
//! *cold* cache: faults during the population window interact with the
//! memoization layer (a timed-out solve leaves its key unpopulated, a
//! flapped node leaves a hole in the phase rotation), which is exactly the
//! regime a restarted or degraded service operates in. For each fault
//! class present in the spec — and for the spec as a whole when it mixes
//! classes — the tier runs the same workload under only that class's
//! clauses and reports:
//!
//! * **recovery** — ticks from the last faulted tick until the first
//!   fully steady tick (no solves, no fallbacks, no drops, no clamps:
//!   every decision a cache/dedup hit);
//! * **worst rack overshoot** — the peak single-tick estimated rack-power
//!   excursion above the rack budget;
//! * **longest violation run** — the longest streak of consecutive
//!   rack-budget violation ticks.
//!
//! A built-in `budget-step` class is always appended: it injects no
//! telemetry faults but steps the rack budget down to 75% mid-run and
//! back up, exercising emergency shedding and the rack watchdog the same
//! way a cooling failure would.

use gpm_core::{FleetConfig, FleetEngine, FleetStats};
use gpm_faults::{FleetFaultPlan, FleetFaultSession};
use gpm_types::{GpmError, Result, Watts};

use gpm_core::fleet_load::{PhaseTables, PHASES};

/// Rack budget headroom above the fault-free steady-state draw.
const RACK_HEADROOM: f64 = 1.05;
/// Fraction the built-in `budget-step` class steps the rack budget to.
const STEP_FRACTION: f64 = 0.75;

/// Per-fault-class outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Fault-class label (`flap`, `skew`, `corrupt`, `timeout`,
    /// `combined`, `budget-step`).
    pub class: String,
    /// Ticks from the last faulted tick to the first fully steady tick;
    /// `None` when steady state was not reached inside the run (or the
    /// fault window never closes).
    pub recovery_ticks: Option<u64>,
    /// Peak single-tick estimated rack overshoot, in watts.
    pub worst_overshoot_watts: f64,
    /// Longest streak of consecutive rack-violation ticks.
    pub longest_violation_run: u64,
    /// Engine accounting over the whole run.
    pub stats: FleetStats,
}

/// Result of one chaos tier invocation: one [`ClassReport`] per fault
/// class in the spec (plus `combined` when classes mix, plus the
/// built-in `budget-step`).
#[derive(Debug, Clone)]
pub struct FleetChaos {
    /// Nodes driven per tick.
    pub nodes: usize,
    /// Ticks driven (cold start, no warm epoch).
    pub ticks: usize,
    /// The fault spec the run was invoked with.
    pub spec: String,
    /// Fault-free steady-state rack power the budgets were derived from.
    pub steady_watts: f64,
    /// Per-class outcomes.
    pub classes: Vec<ClassReport>,
}

/// Sums the estimated rack power of one tick's decisions using the same
/// matrices the nodes reported — the fault-free steady-state draw the
/// rack budget is derived from.
fn steady_rack_watts(tables: &PhaseTables, nodes: usize) -> Result<f64> {
    let mut engine = FleetEngine::new(FleetConfig {
        queue_capacity: nodes,
        ..FleetConfig::default()
    })?;
    // One full rotation populates the cache; the next tick is steady.
    let mut last = Vec::new();
    for tick in 0..=PHASES as u64 {
        for node in 0..nodes as u64 {
            engine.submit(tables.telemetry(node, tick));
        }
        last = engine.run_tick(tick);
    }
    Ok(last
        .iter()
        .map(|d| {
            tables
                .telemetry(d.node, d.tick)
                .matrices
                .chip_power(&d.modes)
                .value()
        })
        .sum())
}

/// Whether a per-tick stats delta shows a fully steady service: every
/// decision a hit, nothing dropped, rejected, degraded or clamped.
fn tick_is_steady(delta: &FleetStats) -> bool {
    delta.unique_solves == 0
        && delta.fallback_decisions == 0
        && delta.dropped_stale == 0
        && delta.dropped_dark == 0
        && delta.rejected_invalid == 0
        && delta.solver_timeouts == 0
        && delta.shed_clamps == 0
        && delta.watchdog_clamp_ticks == 0
        && delta.rack_violation_ticks == 0
        && delta.decisions_total > 0
}

/// Drives one cold-start chaos run and measures recovery relative to
/// `last_fault_tick` (the last tick any clause can fire, `None` = the
/// schedule never ends). `budget_step` optionally carries
/// `(step_tick, restore_tick, stepped_budget)` for the built-in class.
fn run_class(
    tables: &PhaseTables,
    nodes: usize,
    ticks: usize,
    plan: Option<FleetFaultPlan>,
    last_fault_tick: Option<u64>,
    rack_budget: f64,
    budget_step: Option<(u64, u64, f64)>,
) -> Result<(Option<u64>, FleetStats)> {
    let mut engine = FleetEngine::new(FleetConfig {
        queue_capacity: nodes,
        faults: plan,
        degraded: true,
        rack_budget: Some(Watts::new(rack_budget)),
        ..FleetConfig::default()
    })?;
    let mut prev = engine.stats();
    let mut recovery = None;
    for tick in 0..ticks as u64 {
        if let Some((step, restore, stepped)) = budget_step {
            if tick == step {
                engine.set_rack_budget(Some(Watts::new(stepped)))?;
            } else if tick == restore {
                engine.set_rack_budget(Some(Watts::new(rack_budget)))?;
            }
        }
        for node in 0..nodes as u64 {
            engine.submit(tables.telemetry(node, tick));
        }
        engine.run_tick(tick);
        let now = engine.stats();
        let delta = crate::fleet::delta(now, prev);
        prev = now;
        if recovery.is_none() {
            if let Some(last) = last_fault_tick {
                if tick > last && tick_is_steady(&delta) {
                    recovery = Some(tick - last);
                }
            }
        }
    }
    Ok((recovery, engine.stats()))
}

/// Runs the chaos tier: `nodes` simulated CMP nodes, `ticks` cold-start
/// ticks, faults from `spec` (the fleet grammar; see
/// [`FleetFaultPlan::parse`]), optionally reseeded with `seed`.
///
/// # Errors
///
/// Rejects degenerate sizes and malformed specs; propagates engine-config
/// errors.
pub fn run(nodes: usize, ticks: usize, spec: &str, seed: Option<u64>) -> Result<FleetChaos> {
    if nodes == 0 || ticks == 0 {
        return Err(GpmError::InvalidConfig {
            parameter: "fleet_chaos.size",
            reason: "the chaos tier needs at least one node and one tick".into(),
        });
    }
    let mut plan = FleetFaultPlan::parse(spec)?;
    if let Some(seed) = seed {
        plan = plan.seeded(seed);
    }

    let tables = PhaseTables::build();
    let steady_watts = steady_rack_watts(&tables, nodes)?;
    let rack_budget = steady_watts * RACK_HEADROOM;

    // Partition the spec's clauses by class, preserving clause order.
    let mut classes: Vec<(String, FleetFaultPlan)> = Vec::new();
    for clause in &plan.clauses {
        let label = clause.kind.label().to_owned();
        match classes.iter_mut().find(|(l, _)| *l == label) {
            Some((_, class_plan)) => class_plan.clauses.push(clause.clone()),
            None => classes.push((
                label,
                FleetFaultPlan {
                    clauses: vec![clause.clone()],
                    seed: plan.seed,
                },
            )),
        }
    }
    if classes.len() > 1 {
        classes.push(("combined".to_owned(), plan.clone()));
    }

    let mut reports = Vec::with_capacity(classes.len() + 1);
    for (label, class_plan) in classes {
        let last_fault = FleetFaultSession::new(&class_plan)?.last_fault_tick();
        let (recovery, stats) = run_class(
            &tables,
            nodes,
            ticks,
            Some(class_plan),
            last_fault,
            rack_budget,
            None,
        )?;
        reports.push(ClassReport {
            class: label,
            recovery_ticks: recovery,
            worst_overshoot_watts: stats.worst_rack_overshoot_watts,
            longest_violation_run: stats.longest_rack_violation_run,
            stats,
        });
    }

    // Built-in budget-step class: no telemetry faults, a mid-run rack
    // budget step down and back up.
    let step = (ticks as u64 / 3).max(1);
    let restore = (2 * ticks as u64 / 3).max(step + 1);
    let (recovery, stats) = run_class(
        &tables,
        nodes,
        ticks,
        None,
        Some(restore), // the step schedule's last perturbed tick
        rack_budget,
        Some((step, restore, steady_watts * STEP_FRACTION)),
    )?;
    reports.push(ClassReport {
        class: "budget-step".to_owned(),
        recovery_ticks: recovery,
        worst_overshoot_watts: stats.worst_rack_overshoot_watts,
        longest_violation_run: stats.longest_rack_violation_run,
        stats,
    });

    Ok(FleetChaos {
        nodes,
        ticks,
        spec: spec.to_owned(),
        steady_watts,
        classes: reports,
    })
}

impl FleetChaos {
    /// Paper-style text rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fleet chaos: {} nodes x {} ticks (cold start), spec `{}`\n\
             rack budget {:.0} W ({:.0}% of the {:.0} W fault-free steady draw)\n\
             {:<12} {:>9} {:>15} {:>9} {:>10} {:>7} {:>8} {:>9}\n",
            self.nodes,
            self.ticks,
            self.spec,
            self.steady_watts * RACK_HEADROOM,
            RACK_HEADROOM * 100.0,
            self.steady_watts,
            "class",
            "recovery",
            "worst overshoot",
            "viol run",
            "fallbacks",
            "drops",
            "invalid",
            "timeouts",
        );
        for report in &self.classes {
            let s = &report.stats;
            let recovery = report
                .recovery_ticks
                .map_or_else(|| "never".to_owned(), |t| format!("{t}t"));
            out.push_str(&format!(
                "{:<12} {:>9} {:>13.1} W {:>9} {:>10} {:>7} {:>8} {:>9}\n",
                report.class,
                recovery,
                report.worst_overshoot_watts,
                report.longest_violation_run,
                s.fallback_decisions,
                s.dropped_stale + s.dropped_dark,
                s.rejected_invalid,
                s.solver_timeouts,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_input() {
        assert!(run(0, 8, "flap:period=2", None).is_err());
        assert!(run(8, 0, "flap:period=2", None).is_err());
        assert!(run(8, 8, "nosuchkind", None).is_err());
    }

    #[test]
    fn windowed_faults_recover_and_budget_step_sheds() {
        let out = run(32, 12, "flap@0+1:period=2,down=1,from=2,to=5", None).unwrap();
        assert_eq!(out.classes.len(), 2, "flap + built-in budget-step");

        let flap = &out.classes[0];
        assert_eq!(flap.class, "flap");
        assert!(flap.stats.flap_drops > 0, "{:?}", flap.stats);
        assert!(flap.stats.fallback_decisions > 0);
        let recovery = flap.recovery_ticks.expect("windowed fault recovers");
        // The cache is phase-shared across nodes, so the service is
        // steady within one full rotation of the phase cycle.
        assert!(recovery <= PHASES as u64 + 1, "recovery {recovery}");
        assert_eq!(flap.worst_overshoot_watts, 0.0, "fallbacks are power-safe");

        let step = &out.classes[1];
        assert_eq!(step.class, "budget-step");
        assert!(step.stats.shed_clamps > 0, "{:?}", step.stats);
        assert!(step.worst_overshoot_watts > 0.0);
        assert!(step.longest_violation_run >= 1);
        assert!(
            step.recovery_ticks.is_some(),
            "service recovers after restore"
        );
    }

    #[test]
    fn mixed_spec_adds_a_combined_class() {
        let out = run(
            16,
            10,
            "corrupt@3:rate=1.0,from=1,to=3;timeout:rate=0.5,from=1,to=3",
            Some(11),
        )
        .unwrap();
        let labels: Vec<&str> = out.classes.iter().map(|c| c.class.as_str()).collect();
        assert_eq!(
            labels,
            vec!["corrupt", "timeout", "combined", "budget-step"]
        );
        let corrupt = &out.classes[0];
        assert!(corrupt.stats.corrupted_reports > 0);
        assert!(corrupt.stats.rejected_invalid > 0);
        let text = out.render();
        assert!(text.contains("combined"), "{text}");
        assert!(text.contains("budget-step"), "{text}");
    }

    #[test]
    fn open_ended_schedules_report_no_recovery() {
        let out = run(16, 6, "skew@0:ticks=9", None).unwrap();
        let skew = &out.classes[0];
        assert_eq!(skew.class, "skew");
        assert_eq!(skew.recovery_ticks, None, "window never closes");
        assert!(skew.stats.dropped_dark > 0, "{:?}", skew.stats);
        assert!(out.render().contains("never"));
    }
}

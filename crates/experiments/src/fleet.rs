//! Saturating-load fleet experiment: thousands of CMP nodes replaying
//! phase-structured telemetry against one [`FleetEngine`].
//!
//! The load models a rack of heterogeneous nodes running phase-repeating
//! workloads: nodes belong to [`FAMILIES`] workload families (8-, 16- and
//! 32-way chips in rotation), each family cycles through [`PHASES`]
//! distinct prediction matrices, and nodes within a family are offset in
//! phase — so every tick presents the engine with the full
//! `FAMILIES × PHASES` key population, replicated across the fleet. After
//! a warm epoch (one full phase rotation, excluded from measurement) the
//! engine is in steady state: every within-tick group leader hits the
//! cross-tick cache and every follower is a dedup hit, which is exactly
//! the regime a long-running rack service operates in. The measured epoch
//! reports sustained decisions/sec and the combined hit rate.

use std::time::Instant;

use gpm_core::fleet_load::PhaseTables;
use gpm_core::{FleetConfig, FleetEngine, FleetStats};
use gpm_faults::{FleetFaultKind, FleetFaultPlan, IntervalWindow, NodeSet};
use gpm_types::{GpmError, Result, Watts};
use serde::Serialize;

pub use gpm_core::fleet_load::{FAMILIES, PHASES};

/// Result of one saturating-load run (measured epoch only).
#[derive(Debug, Clone, Serialize)]
pub struct FleetLoad {
    /// Nodes driven per tick.
    pub nodes: usize,
    /// Measured ticks (after the warm epoch).
    pub ticks: usize,
    /// Decisions emitted during the measured epoch.
    pub decisions: u64,
    /// Wall seconds the measured epoch took (ingest + decide).
    pub elapsed_seconds: f64,
    /// Sustained decisions per second.
    pub decisions_per_sec: f64,
    /// Engine accounting over the measured epoch.
    pub stats: FleetStats,
}

/// Subtracts warm-epoch accounting so the result covers only the
/// measured epoch. Running maxima (`longest_rack_violation_run`,
/// `worst_rack_overshoot_watts`) are not differences and keep their
/// whole-run values.
pub(crate) fn delta(after: FleetStats, before: FleetStats) -> FleetStats {
    FleetStats {
        decisions_total: after.decisions_total - before.decisions_total,
        cache_hits: after.cache_hits - before.cache_hits,
        dedup_hits: after.dedup_hits - before.dedup_hits,
        unique_solves: after.unique_solves - before.unique_solves,
        dropped_stale: after.dropped_stale - before.dropped_stale,
        dropped_dark: after.dropped_dark - before.dropped_dark,
        rejected_backpressure: after.rejected_backpressure - before.rejected_backpressure,
        rejected_invalid: after.rejected_invalid - before.rejected_invalid,
        fallback_decisions: after.fallback_decisions - before.fallback_decisions,
        solver_timeouts: after.solver_timeouts - before.solver_timeouts,
        flap_drops: after.flap_drops - before.flap_drops,
        skew_delayed: after.skew_delayed - before.skew_delayed,
        corrupted_reports: after.corrupted_reports - before.corrupted_reports,
        shed_clamps: after.shed_clamps - before.shed_clamps,
        rack_violation_ticks: after.rack_violation_ticks - before.rack_violation_ticks,
        watchdog_clamp_ticks: after.watchdog_clamp_ticks - before.watchdog_clamp_ticks,
        longest_rack_violation_run: after.longest_rack_violation_run,
        worst_rack_overshoot_watts: after.worst_rack_overshoot_watts,
        solver_us_spent: after.solver_us_spent - before.solver_us_spent,
        solver_us_saved: after.solver_us_saved - before.solver_us_saved,
    }
}

/// Drives `nodes` simulated CMP nodes for `ticks` measured ticks (plus a
/// [`PHASES`]-tick warm epoch) and reports sustained throughput.
///
/// # Errors
///
/// Rejects zero `nodes` or `ticks`, and propagates engine-config errors.
pub fn run(nodes: usize, ticks: usize) -> Result<FleetLoad> {
    run_inner(nodes, ticks, false)
}

/// [`run`] with the chaos layer armed but never firing: a fault plan
/// whose only clause targets a node id outside the fleet, degraded mode
/// on and a rack budget far above the fleet's draw. The engine executes
/// the full fault-tolerant tick protocol (fault session probes, freshness
/// triage, rack accounting) while every decision stays bit-identical to
/// the disarmed run — the ratio of the two sustained throughputs is the
/// fault-free overhead of the hardening.
///
/// # Errors
///
/// Rejects zero `nodes` or `ticks`, and propagates engine-config errors.
pub fn run_armed(nodes: usize, ticks: usize) -> Result<FleetLoad> {
    run_inner(nodes, ticks, true)
}

fn run_inner(nodes: usize, ticks: usize, armed: bool) -> Result<FleetLoad> {
    if nodes == 0 {
        return Err(GpmError::InvalidConfig {
            parameter: "fleet.nodes",
            reason: "the fleet needs at least one node".into(),
        });
    }
    if ticks == 0 {
        return Err(GpmError::InvalidConfig {
            parameter: "fleet.ticks",
            reason: "the run needs at least one measured tick".into(),
        });
    }
    let tables = PhaseTables::build();
    let mut config = FleetConfig {
        queue_capacity: nodes,
        ..FleetConfig::default()
    };
    if armed {
        config.faults = Some(FleetFaultPlan::none().with(
            FleetFaultKind::NodeFlap { period: 2, down: 1 },
            NodeSet::Nodes(vec![u64::MAX]),
            IntervalWindow::ALWAYS,
        ));
        config.degraded = true;
        config.rack_budget = Some(Watts::new(1.0e12));
    }
    let mut engine = FleetEngine::new(config)?;

    let drive = |engine: &mut FleetEngine, tick: u64| -> u64 {
        for node in 0..nodes as u64 {
            let accepted = engine.submit(tables.telemetry(node, tick));
            debug_assert!(accepted, "queue sized to the fleet");
        }
        engine.run_tick(tick).len() as u64
    };

    // Warm epoch: one full phase rotation populates the cache.
    for tick in 0..PHASES as u64 {
        drive(&mut engine, tick);
    }
    let warm = engine.stats();

    let start = Instant::now();
    let mut decisions = 0u64;
    for tick in 0..ticks as u64 {
        decisions += drive(&mut engine, PHASES as u64 + tick);
    }
    let elapsed_seconds = start.elapsed().as_secs_f64();

    Ok(FleetLoad {
        nodes,
        ticks,
        decisions,
        elapsed_seconds,
        decisions_per_sec: if elapsed_seconds > 0.0 {
            decisions as f64 / elapsed_seconds
        } else {
            0.0
        },
        stats: delta(engine.stats(), warm),
    })
}

impl FleetLoad {
    /// Combined cache + dedup hit rate over the measured epoch.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }

    /// Machine-readable rendering for `gpm figure fleet --json`: the run
    /// shape, the sustained rate, the combined hit rate and the full
    /// [`FleetStats`] accounting, so scripts can diff the in-process tier
    /// against `gpm loadgen` reports.
    #[must_use]
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct Report {
            nodes: usize,
            ticks: usize,
            decisions: u64,
            elapsed_seconds: f64,
            decisions_per_sec: f64,
            hit_rate: f64,
            stats: FleetStats,
        }
        serde_json::to_string(&Report {
            nodes: self.nodes,
            ticks: self.ticks,
            decisions: self.decisions,
            elapsed_seconds: self.elapsed_seconds,
            decisions_per_sec: self.decisions_per_sec,
            hit_rate: self.hit_rate(),
            stats: self.stats,
        })
        .expect("FleetLoad serializes")
    }

    /// Paper-style text rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let s = &self.stats;
        let pct = |n: u64| {
            if s.decisions_total == 0 {
                0.0
            } else {
                100.0 * n as f64 / s.decisions_total as f64
            }
        };
        format!(
            "Fleet decision engine: {} nodes x {} ticks \
             ({FAMILIES} families x {PHASES} phases, 8/16/32-way)\n\
             decisions       {:>12}   sustained {:.0} decisions/s\n\
             hit rate        {:>11.1}%   (cache {:.1}%, dedup {:.1}%)\n\
             unique solves   {:>12}   solver us spent {:.0}, saved {:.0}\n\
             dropped stale   {:>12}   rejected (backpressure) {}\n",
            self.nodes,
            self.ticks,
            s.decisions_total,
            self.decisions_per_sec,
            100.0 * s.hit_rate(),
            pct(s.cache_hits),
            pct(s.dedup_hits),
            s.unique_solves,
            s.solver_us_spent,
            s.solver_us_saved,
            s.dropped_stale,
            s.rejected_backpressure,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_sizes() {
        assert!(run(0, 2).is_err());
        assert!(run(2, 0).is_err());
    }

    #[test]
    fn steady_state_is_all_hits() {
        let load = run(96, 3).expect("fleet run succeeds");
        assert_eq!(load.decisions, 96 * 3);
        assert_eq!(load.stats.decisions_total, 96 * 3);
        // The warm epoch saw every (family, phase) key, so the measured
        // epoch never solves: the issue's ≥50% bar holds with margin.
        assert_eq!(load.stats.unique_solves, 0);
        assert!((load.hit_rate() - 1.0).abs() < 1e-12);
        assert!(load.stats.solver_us_saved > 0.0);
        assert_eq!(load.stats.dropped_stale, 0);
        assert_eq!(load.stats.rejected_backpressure, 0);
        let text = load.render();
        assert!(text.contains("96 nodes x 3 ticks"));
        assert!(text.contains("hit rate"));
    }

    #[test]
    fn armed_run_matches_disarmed_accounting() {
        let armed = run_armed(96, 3).expect("armed fleet run succeeds");
        // A never-firing plan leaves the steady state untouched: same
        // all-hit accounting as the disarmed run, nothing degraded.
        assert_eq!(armed.stats.decisions_total, 96 * 3);
        assert_eq!(armed.stats.unique_solves, 0);
        assert!((armed.hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(armed.stats.fallback_decisions, 0);
        assert_eq!(armed.stats.flap_drops, 0);
        assert_eq!(armed.stats.shed_clamps, 0);
        assert_eq!(armed.stats.rack_violation_ticks, 0);
    }

    #[test]
    fn json_rendering_carries_the_accounting() {
        let load = run(96, 2).expect("fleet run succeeds");
        let text = load.to_json();
        assert!(text.contains("\"decisions_per_sec\""));
        assert!(text.contains("\"hit_rate\""));
        assert!(text.contains("\"cache_hits\""));
    }
}

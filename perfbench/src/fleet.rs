//! The `gpm serve` tick pipeline with an in-memory byte buffer in place
//! of the socket: telemetry is encoded to wire frames, read back with
//! [`FrameReader`], routed through a one-shard [`ShardedEngine`] (the
//! inline backend `gpm serve --shards 1` runs), decided by `run_tick`,
//! and the decisions are encoded and decoded again as the client would.
//! Each tick a seeded tenth of the nodes report with a rescaled budget:
//! under exact keying each such report is a cache miss and a real
//! solve, so solver, cache writes and evictions run beside the hits.

use gpm_core::fleet_load::PhaseTables;
use gpm_core::{solver, FleetConfig, FleetStats, NodeDecision, NodeTelemetry, SubmitOutcome};
use gpm_net::wire::{encode_decision, encode_telemetry, encode_tick_done, encode_tick_end};
use gpm_net::{Frame, FrameReader, ShardedEngine};
use gpm_types::Watts;

use crate::gen;
use crate::span::{SpanSummary, Tracer};
use crate::{Metric, Workload, DIGEST_OPS};

/// Nodes reporting every tick.
pub const NODES: u64 = 10_000;

/// Warm-up ticks run during set-up: two full phase rotations, which also
/// lets the churned reports' solves overflow the decision cache before
/// timing starts.
pub const WARM_TICKS: u64 = 8;

/// Every `CHECK_EVERY`-th decision (at a tick-dependent offset) is
/// compared with a fresh solve.
pub const CHECK_EVERY: u64 = 97;

/// The `fleet_churn` workload.
pub struct Fleet {
    seed: u64,
    config: FleetConfig,
    tables: PhaseTables,
    /// Node ids in the seeded order they report in every tick.
    order: Vec<u64>,
    engine: ShardedEngine,
    reports: Vec<NodeTelemetry>,
    wire_in: Vec<u8>,
    decoded: Vec<NodeTelemetry>,
    rejected: u64,
    decisions: Vec<NodeDecision>,
    wire_out: Vec<u8>,
    returned: Vec<NodeDecision>,
    wire_error: Option<String>,
    stats: FleetStats,
    digest: u64,
    mark: Mark,
}

/// Counters at the start of the per-layer window, plus what it has
/// seen since.
#[derive(Default)]
struct Mark {
    stats: FleetStats,
    ticks: u64,
    bytes: u64,
}

impl Fleet {
    /// A fresh engine and the seeded generator.
    ///
    /// # Panics
    ///
    /// Panics if the default fleet configuration is rejected, which
    /// would be a bug in the engine's validation.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let config = FleetConfig::default();
        let engine = ShardedEngine::homogeneous(&config, 1).expect("default fleet config is valid");
        Self {
            seed,
            config,
            tables: PhaseTables::build(),
            order: gen::permutation(seed, NODES as usize)
                .into_iter()
                .map(|node| node as u64)
                .collect(),
            engine,
            reports: Vec::with_capacity(NODES as usize),
            wire_in: Vec::new(),
            decoded: Vec::with_capacity(NODES as usize),
            rejected: 0,
            decisions: Vec::new(),
            wire_out: Vec::new(),
            returned: Vec::with_capacity(NODES as usize),
            wire_error: None,
            stats: FleetStats::default(),
            digest: gen::DIGEST_START,
            mark: Mark::default(),
        }
    }

    /// The report `node` sends at `tick`: its phase problem, with the
    /// budget scaled by the seeded churn factor when it churns.
    #[must_use]
    pub fn report(&self, node: u64, tick: u64) -> NodeTelemetry {
        let mut report = self.tables.telemetry(node, tick);
        if let Some(factor) = gen::churn_factor(self.seed, tick, node) {
            report.budget = Watts::new(report.budget.value() * factor);
        }
        report
    }

    /// The last op's decisions as the engine returned them and as the
    /// client decoded them (tests corrupt them to check that
    /// [`Workload::verify`] notices).
    pub fn outputs_mut(&mut self) -> (&mut Vec<NodeDecision>, &mut Vec<NodeDecision>) {
        (&mut self.decisions, &mut self.returned)
    }
}

/// Reads telemetry frames up to the tick's `TickEnd`.
fn read_telemetry(bytes: &[u8], out: &mut Vec<NodeTelemetry>) -> Result<(), String> {
    let mut reader = FrameReader::new(bytes);
    loop {
        match reader.read().map_err(|e| e.to_string())? {
            Some(Frame::Telemetry(report)) => out.push(report),
            Some(Frame::TickEnd { .. }) => return Ok(()),
            other => return Err(format!("unexpected frame from the client: {other:?}")),
        }
    }
}

/// Reads decision frames up to the tick's `TickDone`, checking its
/// counts.
fn read_decisions(bytes: &[u8], out: &mut Vec<NodeDecision>) -> Result<(), String> {
    let mut reader = FrameReader::new(bytes);
    loop {
        match reader.read().map_err(|e| e.to_string())? {
            Some(Frame::Decision(decision)) => out.push(decision),
            Some(Frame::TickDone {
                decisions,
                rejected,
                ..
            }) => {
                if decisions != out.len() as u64 || rejected != 0 {
                    return Err(format!(
                        "tick-done reports {decisions} decisions and {rejected} rejections; \
                         {} decisions were streamed",
                        out.len()
                    ));
                }
                return Ok(());
            }
            other => return Err(format!("unexpected frame from the server: {other:?}")),
        }
    }
}

fn modes_word(decision: &NodeDecision) -> u64 {
    decision
        .modes
        .as_slice()
        .iter()
        .fold(gen::DIGEST_START, |h, &m| gen::fold(h, m as u64))
}

impl Workload for Fleet {
    fn prepare(&mut self, op: u64) {
        let mut reports = std::mem::take(&mut self.reports);
        reports.clear();
        reports.extend(self.order.iter().map(|&node| self.report(node, op)));
        self.reports = reports;
    }

    fn execute(&mut self, op: u64, tr: &mut Tracer) {
        let tick = op;
        tr.span("net.wire.encode_telemetry", |_| {
            self.wire_in.clear();
            for report in &self.reports {
                encode_telemetry(report, &mut self.wire_in);
            }
            encode_tick_end(tick, &mut self.wire_in);
        });
        self.wire_error = None;
        self.decoded.clear();
        if let Err(err) = tr.span("net.wire.decode", |_| {
            read_telemetry(&self.wire_in, &mut self.decoded)
        }) {
            self.wire_error = Some(err);
        }
        self.rejected = tr.span("net.shard.try_submit", |_| {
            let mut rejected = 0;
            for report in self.decoded.drain(..) {
                if self.engine.try_submit(report) != SubmitOutcome::Accepted {
                    rejected += 1;
                }
            }
            rejected
        });
        self.decisions = tr.span_cpu("core.fleet.run_tick", |_| self.engine.run_tick(tick));
        tr.span("net.wire.encode_decision", |_| {
            self.wire_out.clear();
            for decision in &self.decisions {
                encode_decision(decision, &mut self.wire_out);
            }
            let count = self.decisions.len() as u64;
            encode_tick_done(tick, count, self.rejected, &mut self.wire_out);
        });
        self.returned.clear();
        if let Err(err) = tr.span("net.wire.decode", |_| {
            read_decisions(&self.wire_out, &mut self.returned)
        }) {
            self.wire_error.get_or_insert(err);
        }
    }

    fn verify(&mut self, op: u64) -> Result<u64, String> {
        let tick = op;
        let before = self.stats;
        self.stats = self.engine.stats();
        self.mark.ticks += 1;
        self.mark.bytes += (self.wire_in.len() + self.wire_out.len()) as u64;
        if let Some(err) = &self.wire_error {
            return Err(format!("wire: {err}"));
        }
        check_counts(
            &before,
            &self.stats,
            self.reports.len() as u64,
            self.rejected,
            self.engine.router_rejected(),
        )?;
        if self.returned.len() != self.reports.len() {
            return Err(format!(
                "{} decisions for {} reports",
                self.returned.len(),
                self.reports.len()
            ));
        }
        if self.returned != self.decisions {
            return Err("decoded decisions differ from the engine's".into());
        }
        let mut tick_digest = gen::DIGEST_START;
        for (report, decision) in self.reports.iter().zip(&self.returned) {
            if decision.node != report.node
                || decision.tick != tick
                || decision.degraded
                || decision.modes.len() != report.matrices.cores()
            {
                return Err(format!(
                    "decision {decision:?} does not answer node {} at tick {tick}",
                    report.node
                ));
            }
            tick_digest = gen::fold(gen::fold(tick_digest, decision.node), modes_word(decision));
        }
        for i in (op % CHECK_EVERY..NODES).step_by(CHECK_EVERY as usize) {
            let report = &self.reports[i as usize];
            if report.matrices.cores() > self.config.flat_core_limit {
                continue;
            }
            let fresh = solver::solve(
                &report.matrices,
                &report.current,
                report.budget,
                &self.config.dvfs,
                self.config.explore,
            );
            if fresh != self.returned[i as usize].modes {
                return Err(format!(
                    "node {} decision differs from a fresh solve",
                    report.node
                ));
            }
        }
        if (WARM_TICKS..WARM_TICKS + DIGEST_OPS).contains(&op) {
            self.digest = gen::fold(self.digest, tick_digest);
        }
        Ok(self.returned.len() as u64)
    }

    fn mark(&mut self) {
        self.mark = Mark {
            stats: self.stats,
            ticks: 0,
            bytes: 0,
        };
    }

    fn layer_metrics(&self, spans: &SpanSummary) -> Vec<Metric> {
        // Counters cover every tick since the mark; spans only the traced
        // ones.
        let ticks = self.mark.ticks.max(1) as f64;
        let d = delta(&self.mark.stats, &self.stats);
        let tick_span = spans.get("core.fleet.run_tick");
        let reports = tick_span.count.max(1) as f64 * NODES as f64;
        let per = |name: &str, n: f64| spans.get(name).self_ns as f64 / n;
        vec![
            Metric::new(
                "net.wire.encode_telemetry_ns",
                "ns",
                per("net.wire.encode_telemetry", reports),
            ),
            Metric::new(
                "net.wire.decode_ns",
                "ns",
                per("net.wire.decode", 2.0 * reports),
            ),
            Metric::new(
                "net.wire.encode_decision_ns",
                "ns",
                per("net.wire.encode_decision", reports),
            ),
            Metric::new(
                "net.wire.bytes_per_tick",
                "count",
                self.mark.bytes as f64 / ticks,
            ),
            Metric::new(
                "net.shard.try_submit_ns",
                "ns",
                per("net.shard.try_submit", reports),
            ),
            Metric::new(
                "core.fleet.run_tick_ms",
                "ms",
                tick_span.total_ns as f64 / 1e6 / tick_span.count.max(1) as f64,
            ),
            Metric::new(
                "core.fleet.hit_ratio",
                "ratio",
                ratio(
                    (d.cache_hits + d.dedup_hits) as f64,
                    d.decisions_total as f64,
                ),
            ),
            Metric::new(
                "core.fleet.unique_solves_per_tick",
                "count",
                d.unique_solves as f64 / ticks,
            ),
            Metric::new(
                "core.solver.us_per_solve",
                "us",
                ratio(d.solver_us_spent, d.unique_solves as f64),
            ),
            Metric::new(
                "par.busy_ratio",
                "ratio",
                ratio(
                    tick_span.cpu_ns as f64,
                    tick_span.total_ns as f64 * gpm_par::max_threads() as f64,
                ),
            ),
        ]
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Counter increments from `before` to `after`.
fn delta(before: &FleetStats, after: &FleetStats) -> FleetStats {
    FleetStats {
        decisions_total: after.decisions_total - before.decisions_total,
        cache_hits: after.cache_hits - before.cache_hits,
        dedup_hits: after.dedup_hits - before.dedup_hits,
        unique_solves: after.unique_solves - before.unique_solves,
        solver_us_spent: after.solver_us_spent - before.solver_us_spent,
        ..FleetStats::default()
    }
}

/// The engine's accounting for one tick: every report submitted was
/// accepted and decided exactly once, and the decision count splits
/// exactly into cache hits, dedup hits and solves.
///
/// # Errors
///
/// Names the first counter that is off.
pub fn check_counts(
    before: &FleetStats,
    after: &FleetStats,
    submitted: u64,
    submit_rejected: u64,
    router_rejected: u64,
) -> Result<(), String> {
    let decided = after.decisions_total - before.decisions_total;
    if decided != submitted {
        return Err(format!(
            "{decided} decisions counted for {submitted} reports"
        ));
    }
    if after.decisions_total != after.cache_hits + after.dedup_hits + after.unique_solves {
        return Err(format!(
            "decisions_total {} != cache_hits {} + dedup_hits {} + unique_solves {}",
            after.decisions_total, after.cache_hits, after.dedup_hits, after.unique_solves
        ));
    }
    if submit_rejected != 0 || router_rejected != 0 {
        return Err(format!(
            "{submit_rejected} submissions rejected ({router_rejected} by the router)"
        ));
    }
    let dropped = |s: &FleetStats| {
        s.rejected_backpressure + s.rejected_invalid + s.dropped_stale + s.dropped_dark
    };
    if dropped(after) != dropped(before) {
        return Err(format!(
            "{} reports rejected or dropped this tick",
            dropped(after) - dropped(before)
        ));
    }
    Ok(())
}

//! Benchmark of the gpm serve pipeline (in memory) and the simulator
//! path, timed from outside around calls into each layer's public
//! functions.
//!
//! A run sets its workload up [`SETUP_REPEATS`] times (reporting the
//! median), then runs ops for the requested seconds. Each op is three
//! steps: untimed input generation ([`Workload::prepare`]), the timed
//! call chain ([`Workload::execute`]) and an untimed output check
//! ([`Workload::verify`]); an op whose check fails is counted as failed
//! and left out of every timing. A traced run records spans on every
//! second block of ops, so the tracing overhead and the share of the
//! untraced op that the spans' self times account for are measured in
//! the same process under the same host conditions.

pub mod chip;
pub mod fleet;
pub mod gen;
pub mod span;
pub mod sys;

use std::fmt::Write as _;
use std::time::Instant;

use span::{SpanSummary, Tracer};

/// Times a workload's set-up is repeated; the median is reported.
pub const SETUP_REPEATS: usize = 5;

/// Ops in a block: the period of the fleet's phases and of the capture's
/// pair cycle, so any block covers each phase or pair once. Runs end,
/// and traced runs alternate, on whole blocks.
pub const BLOCK: u64 = 4;

/// Untraced ops a timed run holds at least, so that p90 has ten
/// samples beyond it; a run goes past its seconds to reach them.
pub const MIN_OPS: u64 = 100;

/// Measured seconds after which a run stops even short of [`MIN_OPS`],
/// so that it ends within its time limit.
pub const MAX_SECONDS: f64 = 140.0;

/// Measured ops whose outputs fold into a run's digest. Fixed, so runs
/// of one seed compare however many ops their time allowed.
pub const DIGEST_OPS: u64 = 16;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    #[must_use]
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("net.wire.encode_telemetry_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.wire.encode_decision_ns", "ns"),
    ("net.wire.bytes_per_tick", "count"),
    ("net.shard.try_submit_ns", "ns"),
    ("core.fleet.run_tick_ms", "ms"),
    ("core.fleet.hit_ratio", "ratio"),
    ("core.fleet.unique_solves_per_tick", "count"),
    ("core.solver.us_per_solve", "us"),
    ("cmp.full_sim.flat8_ms_per_sim_us", "ms/us"),
    ("cmp.full_sim.sharded64_ms_per_sim_us", "ms/us"),
    ("cmp.l2_misses", "count"),
    ("cmp.interconnect_utilization", "ratio"),
    ("trace.capture_ms_per_benchmark", "ms"),
    ("trace.sim_instructions_per_op", "count"),
    ("par.busy_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.span_coverage_ratio", "ratio"),
];

/// Every end-to-end metric, with its unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_ns_per_item", "ns"),
    ("peak_rss_mb", "MiB"),
];

/// A benchmark workload: one op is prepared, executed under the timer,
/// then verified.
pub trait Workload {
    /// Untimed: generates the inputs of op `op`.
    fn prepare(&mut self, op: u64);
    /// Timed: runs op `op` on the prepared inputs, recording spans
    /// around each call into the program.
    fn execute(&mut self, op: u64, tracer: &mut Tracer);
    /// Untimed: checks op `op`'s outputs, returning the items (decisions
    /// or simulated instructions) it produced.
    ///
    /// # Errors
    ///
    /// Describes the first output that is wrong.
    fn verify(&mut self, op: u64) -> Result<u64, String>;
    /// Starts the window the per-layer counters are taken over.
    fn mark(&mut self);
    /// Per-layer metrics over the ops since [`Workload::mark`].
    fn layer_metrics(&self, spans: &SpanSummary) -> Vec<Metric>;
    /// Digest of the outputs of the first [`DIGEST_OPS`] measured ops.
    fn digest(&self) -> u64;
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["fleet_churn", "chip_path"];

/// Builds workload `name` for `seed` and runs its warm-up ops, the
/// benchmark's set-up. Returns the workload and its first measured op.
///
/// # Errors
///
/// Unknown names, program errors during set-up and failed warm-up ops.
pub fn setup(name: &str, seed: u64) -> Result<(Box<dyn Workload>, u64), String> {
    let (mut workload, warm_ops): (Box<dyn Workload>, u64) = match name {
        "fleet_churn" => (Box::new(fleet::Fleet::new(seed)), fleet::WARM_TICKS),
        "chip_path" => (Box::new(chip::ChipPath::new(seed)), 1),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut tracer = Tracer::new();
    for op in 0..warm_ops {
        workload.prepare(op);
        workload.execute(op, &mut tracer);
        workload
            .verify(op)
            .map_err(|err| format!("warm-up op {op} failed: {err}"))?;
    }
    Ok((workload, warm_ops))
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds; a traced run alternates traced and untraced
    /// blocks within them.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Stop each phase after this many ops (quick mode), whatever the
    /// time.
    pub max_ops: Option<u64>,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Ops run (all phases).
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// The first failure, if any.
    pub first_failure: Option<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Output digest of the first [`DIGEST_OPS`] measured ops.
    pub digest: u64,
    /// Rendered spans of the traced phase (empty when untraced).
    pub spans_tsv: String,
    /// Human-readable summary.
    pub summary: String,
}

impl RunReport {
    /// The one-line JSON result the benchmark prints last.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// A finite JSON number with every digit Rust prints for the `f64`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

/// Per-op samples of one phase (ops that passed their check only).
#[derive(Debug, Default)]
struct Phase {
    wall_ns: Vec<u64>,
    cpu_ns: Vec<u64>,
    items: Vec<u64>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

/// Runs whole blocks of [`BLOCK`] ops until `seconds` have passed and
/// [`MIN_OPS`] untraced ops have run (or `max_ops` ops in quick mode).
/// With `trace`, every second block records spans, so traced and
/// untraced ops share the host's conditions; the phases come back as
/// `[untraced, traced]`.
fn run_ops(
    workload: &mut dyn Workload,
    mut op: u64,
    tracer: &mut Tracer,
    seconds: f64,
    max_ops: Option<u64>,
    trace: bool,
) -> [Phase; 2] {
    let mut phases = [Phase::default(), Phase::default()];
    let start = Instant::now();
    for ran in 1.. {
        let traced = trace && ((ran - 1) / BLOCK) % 2 == 1;
        let phase = &mut phases[usize::from(traced)];
        workload.prepare(op);
        tracer.set_enabled(traced);
        tracer.set_op(op);
        let cpu0 = sys::process_cpu_ns();
        let t0 = Instant::now();
        tracer.span("op", |tr| workload.execute(op, tr));
        let wall = t0.elapsed().as_nanos() as u64;
        let cpu = sys::process_cpu_ns() - cpu0;
        phase.attempted += 1;
        match workload.verify(op) {
            Ok(items) => {
                phase.wall_ns.push(wall);
                phase.cpu_ns.push(cpu);
                phase.items.push(items);
            }
            Err(err) => {
                phase.failed += 1;
                phase.first_failure.get_or_insert(format!("op {op}: {err}"));
            }
        }
        op += 1;
        let done = match max_ops {
            Some(max) => ran >= max,
            None if ran % BLOCK != 0 => false,
            None => {
                let elapsed = start.elapsed().as_secs_f64();
                (elapsed >= seconds && phases[0].attempted >= MIN_OPS) || elapsed >= MAX_SECONDS
            }
        };
        if done {
            break;
        }
    }
    phases
}

/// Linear-interpolated percentile `q` (0..=1) of `values`.
#[must_use]
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ms(wall_ns: &[u64]) -> Vec<f64> {
    wall_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
}

/// Runs one workload as `config` asks: [`SETUP_REPEATS`] set-ups, then
/// [`measure`].
///
/// # Errors
///
/// Set-up failures.
pub fn run(config: &RunConfig) -> Result<RunReport, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous instance first, so set-ups do not overlap in
        // memory.
        drop(built.take());
        let start = Instant::now();
        built = Some(setup(&config.workload, config.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (workload, first_op) = built.expect("at least one set-up ran");
    Ok(measure(workload, first_op, &setup_s, config))
}

/// Runs the measured ops of a set-up workload, starting at op
/// `next_op`: all untraced, or alternately untraced and traced.
pub fn measure(
    mut workload: Box<dyn Workload>,
    next_op: u64,
    setup_s: &[f64],
    config: &RunConfig,
) -> RunReport {
    let threads = gpm_par::max_threads();
    if config.trace {
        workload.mark();
    }
    let mut tracer = Tracer::new();
    let [plain, traced] = run_ops(
        workload.as_mut(),
        next_op,
        &mut tracer,
        config.seconds,
        config.max_ops,
        config.trace,
    );
    let plain_ms = ms(&plain.wall_ns);
    let plain_p50 = percentile(&plain_ms, 0.5);
    let mut summary = format!(
        "workload {} seed {} threads {threads}: {} untraced ops, p50 {plain_p50:.3} ms, setup {setup_s:?} s\n",
        config.workload, config.seed, plain.attempted
    );

    let (metrics, attempted, failed, first_failure, spans_tsv) = if config.trace {
        let spans = tracer.summary();
        let traced_p50 = percentile(&ms(&traced.wall_ns), 0.5);
        let layer_ms: Vec<f64> = spans
            .layer_ns_per_op
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        let layer_p50 = percentile(&layer_ms, 0.5);
        let mut metrics = workload.layer_metrics(&spans);
        metrics.push(Metric::new(
            "bench.trace_overhead_ratio",
            "ratio",
            traced_p50 / plain_p50,
        ));
        metrics.push(Metric::new(
            "bench.span_coverage_ratio",
            "ratio",
            layer_p50 / plain_p50,
        ));
        let metrics = complete_per_layer(metrics);
        let _ = writeln!(
            summary,
            "traced: {} ops, p50 {traced_p50:.3} ms (overhead x{:.4}); span self times per op p50 {layer_p50:.3} ms = {:.1}% of the untraced p50",
            traced.attempted,
            traced_p50 / plain_p50,
            100.0 * layer_p50 / plain_p50
        );
        let ops = traced.wall_ns.len().max(1) as f64;
        for (name, totals) in &spans.by_name {
            let _ = writeln!(
                summary,
                "  span {name:<32} self {:>12.4} ms/op  total {:>12.4} ms/op  calls {}",
                totals.self_ns as f64 / 1e6 / ops,
                totals.total_ns as f64 / 1e6 / ops,
                totals.count
            );
        }
        (
            metrics,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            plain.first_failure.or(traced.first_failure),
            span::render_spans(tracer.spans()),
        )
    } else {
        // Per-op rates, so a burst of host stalls moves the medians only
        // if it covers half the ops.
        let per_op = |num: &[u64], den: &[u64], scale: f64| -> Vec<f64> {
            num.iter()
                .zip(den)
                .map(|(&n, &d)| scale * n as f64 / d.max(1) as f64)
                .collect()
        };
        let items_per_s = per_op(&plain.items, &plain.wall_ns, 1e9);
        let cpu_per_item = per_op(&plain.cpu_ns, &plain.items, 1.0);
        let metrics = vec![
            Metric::new("setup_s", "s", percentile(setup_s, 0.5)),
            Metric::new("items_per_s", "1/s", percentile(&items_per_s, 0.5)),
            Metric::new("op_p50_ms", "ms", plain_p50),
            Metric::new("op_p90_ms", "ms", percentile(&plain_ms, 0.9)),
            Metric::new("cpu_ns_per_item", "ns", percentile(&cpu_per_item, 0.5)),
            Metric::new("peak_rss_mb", "MiB", sys::peak_rss_mb()),
        ];
        (
            metrics,
            plain.attempted,
            plain.failed,
            plain.first_failure,
            String::new(),
        )
    };
    let digest = workload.digest();
    let _ = writeln!(summary, "digest {digest:#018x}");
    RunReport {
        attempted,
        failed,
        first_failure,
        metrics,
        digest,
        spans_tsv,
        summary,
    }
}

/// Orders `measured` as [`PER_LAYER`] lists them, filling the layers the
/// workload never called with 0.
fn complete_per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, unit, value)
        })
        .collect()
}

//! The simulator path: the paper's cold-start trace capture, then
//! full-CMP runs of an 8-way and a 64-way chip, in one op.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpm_cmp::{ClusterTopology, FullCmpOutcome, FullCmpSim, InterconnectConfig};
use gpm_microarch::CoreConfig;
use gpm_power::{DvfsParams, PowerModel};
use gpm_trace::{BenchmarkTraces, CaptureConfig, CaptureEngine, TraceStore};
use gpm_types::{Micros, ModeCombination, PowerMode};
use gpm_workloads::{combos, WorkloadCombo};

use crate::gen;
use crate::span::{SpanSummary, Tracer};
use crate::{Metric, Workload};

/// Simulated µs the 64-way chip advances per op; the 8-way chip
/// advances 8× as long, so both simulate equal core-µs.
pub const WIDE_SIM_US: f64 = 10.0;

/// Cores per cluster of the 64-way chip (8 clusters of 8).
pub const CLUSTER_CORES: usize = 8;

/// One op in every `REFERENCE_EVERY` is checked against a reference run
/// outside the timer.
pub const REFERENCE_EVERY: u64 = 16;

/// Instruction cap of each capture: each benchmark's region is this
/// long in every mode, so the sampled region outweighs the discarded
/// warm-up, and a hundred ops fit in a run on one thread.
pub const CAPTURE_LIMIT: u64 = 500_000;

/// Core `i` runs in mode `i mod 3`.
fn rotating_modes(cores: usize) -> ModeCombination {
    ModeCombination::new((0..cores).map(|i| PowerMode::ALL[i % 3]).collect())
}

fn flat_sim(combo: &WorkloadCombo) -> Result<FullCmpSim, String> {
    FullCmpSim::new(
        combo,
        &rotating_modes(combo.cores()),
        &CoreConfig::power4(),
        PowerModel::power4_calibrated(),
        DvfsParams::paper(),
    )
    .map_err(|e| e.to_string())
}

fn sharded_sim(
    combo: &WorkloadCombo,
    cluster_cores: usize,
    interconnect: InterconnectConfig,
) -> Result<FullCmpSim, String> {
    let topology =
        ClusterTopology::for_cores(combo.cores(), cluster_cores).map_err(|e| e.to_string())?;
    FullCmpSim::with_topology(
        combo,
        &rotating_modes(combo.cores()),
        &CoreConfig::power4(),
        PowerModel::power4_calibrated(),
        DvfsParams::paper(),
        topology,
        interconnect,
    )
    .map_err(|e| e.to_string())
}

/// Digest of everything a full-CMP run reports.
fn outcome_digest(outcome: &FullCmpOutcome) -> u64 {
    let mut h = gen::DIGEST_START;
    for core in &outcome.per_core {
        h = gen::fold(h, core.mode as u64);
        h = gen::fold(h, core.instructions);
        h = gen::fold(h, core.l2_misses);
        h = gen::fold(h, core.power.value().to_bits());
        h = gen::fold(h, core.bips.value().to_bits());
    }
    h = gen::fold(h, outcome.chip_bips().value().to_bits());
    h = gen::fold(h, outcome.l2_utilization.to_bits());
    gen::fold(h, outcome.interconnect_utilization.to_bits())
}

/// Shape and range checks every full-CMP outcome must pass.
fn check_outcome(outcome: &FullCmpOutcome, cores: usize) -> Result<(), String> {
    if outcome.per_core.len() != cores {
        return Err(format!(
            "{} per-core outcomes for {cores} cores",
            outcome.per_core.len()
        ));
    }
    for (i, core) in outcome.per_core.iter().enumerate() {
        if core.mode != PowerMode::ALL[i % 3] || core.instructions == 0 {
            return Err(format!(
                "core {i}: mode {:?}, {} instructions",
                core.mode, core.instructions
            ));
        }
    }
    let bips = outcome.chip_bips().value();
    let unit = 0.0..=1.0;
    let in_range = bips.is_finite()
        && bips > 0.0
        && unit.contains(&outcome.l2_utilization)
        && unit.contains(&outcome.interconnect_utilization);
    if !in_range {
        return Err(format!(
            "chip BIPS {bips}, L2 utilisation {}, interconnect utilisation {}",
            outcome.l2_utilization, outcome.interconnect_utilization
        ));
    }
    Ok(())
}

/// The full-CMP half of `chip_path`: each op builds both chips fresh
/// (untimed) and runs them (timed), so every op simulates the same
/// region and must report the same outcome.
pub struct FullCmp {
    seed: u64,
    flat_combo: WorkloadCombo,
    wide_combo: WorkloadCombo,
    sims: Option<(FullCmpSim, FullCmpSim)>,
    outcomes: Option<(FullCmpOutcome, FullCmpOutcome)>,
    expected: Option<(u64, u64)>,
}

impl FullCmp {
    /// The two chips of the workload; each op builds them afresh.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            flat_combo: combos::eight_way_mixed(),
            wide_combo: combos::sixty_four_way_mixed(),
            sims: None,
            outcomes: None,
            expected: None,
        }
    }
}

impl Workload for FullCmp {
    fn prepare(&mut self, _op: u64) {
        let flat = flat_sim(&self.flat_combo).expect("8-way chip builds");
        let wide = sharded_sim(
            &self.wide_combo,
            CLUSTER_CORES,
            InterconnectConfig::default(),
        )
        .expect("64-way chip builds");
        self.sims = Some((flat, wide));
        self.outcomes = None;
    }

    fn execute(&mut self, op: u64, tr: &mut Tracer) {
        let (flat, wide) = self.sims.as_mut().expect("prepared");
        let mut run_flat = |tr: &mut Tracer| {
            tr.span_cpu("cmp.full_sim.flat8", |_| {
                flat.run(Micros::new(8.0 * WIDE_SIM_US))
            })
        };
        let mut run_wide = |tr: &mut Tracer| {
            tr.span_cpu("cmp.full_sim.sharded64", |_| {
                wide.run(Micros::new(WIDE_SIM_US))
            })
        };
        let (a, b) = if gen::wide_chip_first(self.seed, op) {
            let b = run_wide(tr);
            (run_flat(tr), b)
        } else {
            let a = run_flat(tr);
            (a, run_wide(tr))
        };
        self.outcomes = Some((a, b));
    }

    fn verify(&mut self, op: u64) -> Result<u64, String> {
        let (flat, wide) = self.outcomes.as_ref().ok_or("op produced no outcome")?;
        check_outcome(flat, self.flat_combo.cores())?;
        check_outcome(wide, self.wide_combo.cores())?;
        let digests = (outcome_digest(flat), outcome_digest(wide));
        match self.expected {
            None => self.expected = Some(digests),
            Some(expected) if expected != digests => {
                return Err(format!(
                    "outcome digests {digests:x?} differ from the first op's {expected:x?}"
                ));
            }
            Some(_) => {}
        }
        if op.is_multiple_of(REFERENCE_EVERY) {
            // One cluster with a free interconnect is documented to be
            // bit-identical to the flat drive.
            let mut reference = sharded_sim(&self.flat_combo, 8, InterconnectConfig::zero())?;
            let again = reference.run(Micros::new(8.0 * WIDE_SIM_US));
            if outcome_digest(&again) != digests.0 {
                return Err("8-way flat outcome differs from its one-cluster reference".into());
            }
        }
        let instructions =
            |o: &FullCmpOutcome| o.per_core.iter().map(|c| c.instructions).sum::<u64>();
        Ok(instructions(flat) + instructions(wide))
    }

    fn mark(&mut self) {}

    fn layer_metrics(&self, spans: &SpanSummary) -> Vec<Metric> {
        let flat = spans.get("cmp.full_sim.flat8");
        let ops = flat.count.max(1) as f64;
        let wide = spans.get("cmp.full_sim.sharded64");
        let (l2_misses, icn) = self.outcomes.as_ref().map_or((0, 0.0), |(f, w)| {
            let misses = |o: &FullCmpOutcome| o.per_core.iter().map(|c| c.l2_misses).sum::<u64>();
            (misses(f) + misses(w), w.interconnect_utilization)
        });
        vec![
            Metric::new(
                "cmp.full_sim.flat8_ms_per_sim_us",
                "ms/us",
                flat.total_ns as f64 / 1e6 / (ops * 8.0 * WIDE_SIM_US),
            ),
            Metric::new(
                "cmp.full_sim.sharded64_ms_per_sim_us",
                "ms/us",
                wide.total_ns as f64 / 1e6 / (ops * WIDE_SIM_US),
            ),
            Metric::new("cmp.l2_misses", "count", l2_misses as f64),
            Metric::new("cmp.interconnect_utilization", "ratio", icn),
        ]
    }

    fn digest(&self) -> u64 {
        self.expected
            .map_or(gen::DIGEST_START, |(a, b)| gen::fold(a, b))
    }
}

/// Digest of a benchmark's captured traces (every sample of every mode).
fn traces_digest(traces: &BenchmarkTraces) -> u64 {
    let mut h = gen::fold(gen::DIGEST_START, traces.total_instructions());
    for mode in PowerMode::ALL {
        for sample in traces.trace(mode).samples() {
            h = gen::fold(h, sample.instructions_end);
            h = gen::fold(h, sample.power_w.to_bits());
            h = gen::fold(h, sample.bips.to_bits());
        }
    }
    h
}

/// Simulated instructions a capture covers: every mode of every
/// benchmark.
fn captured_instructions(traces: &[Arc<BenchmarkTraces>]) -> u64 {
    traces
        .iter()
        .flat_map(|t| PowerMode::ALL.map(|m| t.trace(m).total_instructions()))
        .sum()
}

/// One pair's traces, or why capturing them failed.
type Captured = Result<Vec<Arc<BenchmarkTraces>>, String>;

/// Cold-captures `pair` on a fresh store.
fn capture(pair: &WorkloadCombo, engine: CaptureEngine) -> Captured {
    let mut config = CaptureConfig::fast(CAPTURE_LIMIT);
    config.engine = engine;
    TraceStore::new(config)
        .combo(pair)
        .map_err(|e| e.to_string())
}

/// The capture half of `chip_path`: each op cold-captures the next pair
/// of the 2-way suite, in a seeded cycle, on a fresh store. The instruction cap gives
/// every benchmark the same region, so pairs cost about the same.
pub struct Capture {
    pairs: Vec<WorkloadCombo>,
    order: Vec<usize>,
    result: Option<(usize, Captured)>,
    /// Digest and instruction count of each pair's first capture.
    seen: BTreeMap<usize, (u64, u64)>,
}

impl Capture {
    /// The suite and its seeded cycle.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let pairs = combos::two_way_suite();
        let order = gen::permutation(seed, pairs.len());
        Self {
            pairs,
            order,
            result: None,
            seen: BTreeMap::new(),
        }
    }

    /// The pair op `op` captures.
    fn pair_of(&self, op: u64) -> usize {
        self.order[(op % self.order.len() as u64) as usize]
    }

    /// Checks one pair's capture against its shape and its first
    /// capture, returning the instructions it simulated.
    fn check_pair(
        &mut self,
        op: u64,
        index: usize,
        traces: &[Arc<BenchmarkTraces>],
    ) -> Result<u64, String> {
        let pair = &self.pairs[index];
        if traces.len() != pair.cores() {
            return Err(format!(
                "{} traces for {} benchmarks",
                traces.len(),
                pair.cores()
            ));
        }
        let mut digest = gen::DIGEST_START;
        for (bench, trace) in pair.benchmarks().iter().zip(traces) {
            if trace.name() != bench.name() {
                return Err(format!(
                    "trace {} returned for {}",
                    trace.name(),
                    bench.name()
                ));
            }
            for mode in PowerMode::ALL {
                if trace.trace(mode).samples().is_empty() {
                    return Err(format!("{} captured no {mode:?} samples", bench.name()));
                }
            }
            digest = gen::fold(digest, traces_digest(trace));
        }
        let instructions = captured_instructions(traces);
        let first = *self.seen.entry(index).or_insert((digest, instructions));
        if first != (digest, instructions) {
            return Err(format!(
                "{} capture differs from its first capture",
                pair.label()
            ));
        }
        // One op in every REFERENCE_EVERY, at an offset that walks the
        // pair cycle, so every pair gets checked.
        if op % REFERENCE_EVERY == (op / REFERENCE_EVERY) % self.order.len() as u64 {
            let reference = capture(pair, CaptureEngine::Scalar)?;
            if reference
                .iter()
                .zip(traces)
                .any(|(r, t)| traces_digest(r) != traces_digest(t))
            {
                return Err(format!(
                    "{} lane-batched capture differs from the scalar engine",
                    pair.label()
                ));
            }
        }
        Ok(instructions)
    }
}

impl Workload for Capture {
    fn prepare(&mut self, _op: u64) {
        self.result = None;
    }

    fn execute(&mut self, op: u64, tr: &mut Tracer) {
        let index = self.pair_of(op);
        let pair = &self.pairs[index];
        let result = tr.span_cpu("trace.capture", |_| capture(pair, CaptureEngine::default()));
        self.result = Some((index, result));
    }

    fn verify(&mut self, op: u64) -> Result<u64, String> {
        let (index, result) = self.result.take().ok_or("op captured nothing")?;
        if index != self.pair_of(op) {
            return Err(format!("op {op} captured pair {index}"));
        }
        self.check_pair(op, index, &result?)
    }

    fn mark(&mut self) {}

    fn layer_metrics(&self, spans: &SpanSummary) -> Vec<Metric> {
        let capture = spans.get("trace.capture");
        let ops = capture.count.max(1) as f64;
        vec![
            Metric::new(
                "trace.capture_ms_per_benchmark",
                "ms",
                capture.total_ns as f64 / 1e6 / (2.0 * ops),
            ),
            Metric::new(
                "trace.sim_instructions_per_op",
                "count",
                self.seen.values().map(|&(_, n)| n as f64).sum::<f64>()
                    / self.seen.len().max(1) as f64,
            ),
        ]
    }

    fn digest(&self) -> u64 {
        self.seen.values().fold(gen::DIGEST_START, |h, &(d, n)| {
            gen::fold(gen::fold(h, d), n)
        })
    }
}

/// `chip_path`: each op cold-captures the next suite pair, then runs both
/// full-CMP chips. Its items are the instructions both halves simulate.
pub struct ChipPath {
    capture: Capture,
    fullcmp: FullCmp,
}

impl ChipPath {
    /// Both halves, seeded alike.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            capture: Capture::new(seed),
            fullcmp: FullCmp::new(seed),
        }
    }
}

impl Workload for ChipPath {
    fn prepare(&mut self, op: u64) {
        self.capture.prepare(op);
        self.fullcmp.prepare(op);
    }

    fn execute(&mut self, op: u64, tr: &mut Tracer) {
        self.capture.execute(op, tr);
        self.fullcmp.execute(op, tr);
    }

    fn verify(&mut self, op: u64) -> Result<u64, String> {
        Ok(self.capture.verify(op)? + self.fullcmp.verify(op)?)
    }

    fn mark(&mut self) {}

    fn layer_metrics(&self, spans: &SpanSummary) -> Vec<Metric> {
        let pooled = [
            "trace.capture",
            "cmp.full_sim.flat8",
            "cmp.full_sim.sharded64",
        ]
        .map(|name| spans.get(name));
        let cpu_ns: u64 = pooled.iter().map(|s| s.cpu_ns).sum();
        let total_ns: u64 = pooled.iter().map(|s| s.total_ns).sum();
        let mut metrics = self.capture.layer_metrics(spans);
        metrics.extend(self.fullcmp.layer_metrics(spans));
        metrics.push(Metric::new(
            "par.busy_ratio",
            "ratio",
            cpu_ns as f64 / (total_ns as f64 * gpm_par::max_threads() as f64),
        ));
        metrics
    }

    fn digest(&self) -> u64 {
        gen::fold(self.capture.digest(), self.fullcmp.digest())
    }
}

//! Equivalence guarantees for the batched hot path.
//!
//! The instruction-stepping overhaul (batched op delivery, monomorphized
//! memory path, shared replay tape, integer-domain stream thresholds) is a
//! pure performance change: every observable output must be bit-identical
//! to the original one-op-at-a-time implementation. Two guards pin that:
//!
//! 1. Golden trace hashes: the serialized per-mode traces of all 12
//!    benchmarks must hash to the values recorded from the pre-overhaul
//!    seed. Any change to stream generation, core timing, or capture
//!    orchestration that alters a single byte of a trace fails here.
//! 2. Delivery-shape independence: a source that trickles ops one per
//!    `fill_ops` call must produce exactly the same interval statistics as
//!    the same stream delivering full batches, at every DVFS frequency.
//! 3. Engine independence: the lane-batched kernel (`LaneBatch`) and the
//!    scalar `CoreModel` path must agree byte-for-byte — via the same
//!    golden hashes for full captures, via direct `IntervalStats` equality
//!    for mixed-mode lane batches, and via a property test over random
//!    quantum boundaries on batches that mix generator lanes with lanes
//!    replaying shared tapes.

use std::collections::HashMap;

use gpm::microarch::{
    CoreConfig, CoreModel, InstructionSource, IntervalStats, LaneBatch, MicroOp, PrivateMemory,
};
use gpm::power::DvfsParams;
use gpm::trace::{capture_benchmark, CaptureConfig, CaptureEngine};
use gpm::types::{Hertz, PowerMode};
use gpm::workloads::{SharedTape, SpecBenchmark};
use proptest::prelude::*;

/// FNV-1a 64 over the serialized trace; mirrors nothing in the library so
/// the goldens cannot drift with it.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes of `serde_json::to_string` of each mode's `ModeTrace`, captured
/// with `CaptureConfig::fast(150_000)` on the pre-overhaul seed commit, in
/// `[Turbo, Eff1, Eff2]` order.
const GOLDEN_TRACE_HASHES: [(&str, [u64; 3]); 12] = [
    (
        "ammp",
        [0x3a232217da26e227, 0x7e019957e8b35a9e, 0xa857993fbc249621],
    ),
    (
        "art",
        [0xdedf91776c8153c0, 0x81d0cf8ff4c40877, 0x4cff9f55148bb156],
    ),
    (
        "crafty",
        [0xe5c0d5bab18d6743, 0x6cad2a69eb32d5bd, 0x97dcde493e3fd8cc],
    ),
    (
        "facerec",
        [0x4c5de16e52b21f9c, 0x16d30c3f702e93b5, 0xb1c467cf1845fc8a],
    ),
    (
        "gap",
        [0xbee3b8981392d791, 0x1e7169e360cc0070, 0xdebcdb3efbafe0ee],
    ),
    (
        "gcc",
        [0x9a34329c4a2fe94f, 0x69e287579d2f7de3, 0xe412a5afef9ca496],
    ),
    (
        "mcf",
        [0xbbaaa0e4d4d26687, 0x2bec97d0856511a8, 0x56ec6445adcd707c],
    ),
    (
        "mesa",
        [0x5cdfd79a5874135f, 0x0f0ce17d6bb875ac, 0x6cfdecc1683b5a79],
    ),
    (
        "perlbmk",
        [0xc5f790bb26a996c0, 0x020a8ec7f0e9a190, 0x7d865245f273b872],
    ),
    (
        "sixtrack",
        [0x5a533812acb1d4c0, 0xb15da354a481b7e5, 0xadc08ed8c3454f41],
    ),
    (
        "vortex",
        [0x4d4c17d030bd0b46, 0x7b75a3dcf4d6ae4c, 0x15dcdee0dadb7bb3],
    ),
    (
        "wupwise",
        [0x9b3ec8ba9293870b, 0x45e126fe14557e58, 0x4ab78149b730cc57],
    ),
];

#[test]
fn captured_traces_match_pre_overhaul_goldens() {
    let config = CaptureConfig::fast(150_000);
    for (name, golden) in GOLDEN_TRACE_HASHES {
        let bench = SpecBenchmark::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .expect("golden table names a known benchmark");
        let traces = capture_benchmark(bench, &config).expect("capture");
        for (mode, expected) in [PowerMode::Turbo, PowerMode::Eff1, PowerMode::Eff2]
            .into_iter()
            .zip(golden)
        {
            let json = serde_json::to_string(traces.trace(mode)).expect("serialize");
            assert_eq!(
                fnv1a(json.as_bytes()),
                expected,
                "trace bytes changed for {name} at {mode}",
            );
        }
    }
}

/// Delivers exactly one op per `fill_ops` call — the least batched source
/// the contract permits.
struct OneAtATime<S>(S);

impl<S: InstructionSource> InstructionSource for OneAtATime<S> {
    fn next_op(&mut self) -> MicroOp {
        self.0.next_op()
    }

    fn fill_ops(&mut self, buf: &mut [MicroOp]) -> usize {
        buf[0] = self.0.next_op();
        1
    }
}

/// The scalar capture engine must reproduce the same goldens the default
/// lane-batched engine is checked against above — pinning the two engines
/// to each other *and* to the pre-overhaul bytes, for all 12 benchmarks ×
/// 3 modes.
#[test]
fn scalar_engine_matches_lane_batched_goldens() {
    let mut config = CaptureConfig::fast(150_000);
    config.engine = CaptureEngine::Scalar;
    for (name, golden) in GOLDEN_TRACE_HASHES {
        let bench = SpecBenchmark::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .expect("golden table names a known benchmark");
        let traces = capture_benchmark(bench, &config).expect("capture");
        for (mode, expected) in [PowerMode::Turbo, PowerMode::Eff1, PowerMode::Eff2]
            .into_iter()
            .zip(golden)
        {
            let json = serde_json::to_string(traces.trace(mode)).expect("serialize");
            assert_eq!(
                fnv1a(json.as_bytes()),
                expected,
                "scalar-engine trace bytes diverged for {name} at {mode}",
            );
        }
    }
}

/// One lane of a comparison: benchmark, clock, segment lengths in cycles,
/// and whether the batch lane replays a tape instead of the generator.
type LanePlan = (SpecBenchmark, Hertz, Vec<u64>, bool);

/// Steps `segments` of cycles on a scalar core (always fed the generator)
/// and on one lane of a batch (fed the generator or a tape, per the plan;
/// taped lanes of one benchmark co-replay one shared tape), returning both
/// interval-stat sequences for comparison.
fn run_both_paths(
    config: &CoreConfig,
    plan: &[LanePlan],
) -> (Vec<Vec<IntervalStats>>, Vec<Vec<IntervalStats>>) {
    let scalar: Vec<Vec<IntervalStats>> = plan
        .iter()
        .map(|(bench, freq, segments, _)| {
            let mut core = CoreModel::new(config, *freq).expect("valid config");
            let mut stream = bench.stream();
            segments
                .iter()
                .map(|&cycles| core.run_cycles(&mut stream, cycles))
                .collect()
        })
        .collect();

    let freqs: Vec<Hertz> = plan.iter().map(|(_, f, _, _)| *f).collect();
    let mut batch = LaneBatch::new(config, &freqs).expect("valid config");
    // Mixed delivery: a tape reader lends blocks, a generator fills the
    // core's buffer, and the kernel picks each lane's turn budget from that.
    let mut tapes = HashMap::new();
    let mut sources: Vec<Box<dyn InstructionSource>> = plan
        .iter()
        .map(|&(bench, _, _, taped)| -> Box<dyn InstructionSource> {
            if taped {
                let tape = tapes
                    .entry(bench.name())
                    .or_insert_with(|| SharedTape::new(bench.stream()));
                Box::new(tape.reader())
            } else {
                Box::new(bench.stream())
            }
        })
        .collect();
    let mut memories: Vec<PrivateMemory> = plan
        .iter()
        .map(|_| PrivateMemory::new(config).expect("valid config"))
        .collect();
    let first: Vec<u64> = plan.iter().map(|(_, _, s, _)| s[0]).collect();
    let mut done = vec![0usize; plan.len()];
    let mut batched: Vec<Vec<IntervalStats>> = vec![Vec::new(); plan.len()];
    batch.step_lanes(&mut sources, &mut memories, &first, |lane, stats| {
        batched[lane].push(*stats);
        done[lane] += 1;
        plan[lane].2.get(done[lane]).copied()
    });
    (scalar, batched)
}

/// A mixed-mode 8-lane batch — different benchmarks at different DVFS
/// frequencies, uneven segment schedules — must match eight independent
/// scalar cores segment-for-segment.
#[test]
fn mixed_mode_eight_lane_batch_matches_scalar_cores() {
    let dvfs = DvfsParams::paper();
    let plan: Vec<LanePlan> = SpecBenchmark::ALL
        .into_iter()
        .take(8)
        .enumerate()
        .map(|(i, bench)| {
            let mode = PowerMode::ALL[i % PowerMode::ALL.len()];
            let segments = (0..3)
                .map(|k| 20_000 + 7_000 * ((i + k) % 3) as u64)
                .collect();
            (bench, dvfs.frequency(mode), segments, false)
        })
        .collect();
    let (scalar, batched) = run_both_paths(&CoreConfig::power4(), &plan);
    for (lane, (bench, _, _, _)) in plan.iter().enumerate() {
        assert_eq!(
            scalar[lane],
            batched[lane],
            "lane {lane} ({}) diverged from its scalar twin",
            bench.name(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary quantum boundaries — including zero-cycle segments — must
    /// never open a gap between the scalar and lane-batched paths: the
    /// per-segment `IntervalStats` are identical wherever the cuts land,
    /// whether a lane generates its ops (one turn straight through its
    /// segments) or replays a shared tape (chunked turns that cross
    /// segment boundaries), in any mix.
    #[test]
    fn random_quantum_boundaries_match_scalar(
        lanes in prop::collection::vec(
            (
                0usize..SpecBenchmark::ALL.len(),
                0usize..PowerMode::ALL.len(),
                prop::collection::vec(0u64..30_000, 1..5),
                any::<bool>(),
            ),
            1..5,
        ),
    ) {
        let dvfs = DvfsParams::paper();
        let plan: Vec<LanePlan> = lanes
            .into_iter()
            .map(|(b, m, segments, taped)| {
                (
                    SpecBenchmark::ALL[b],
                    dvfs.frequency(PowerMode::ALL[m]),
                    segments,
                    taped,
                )
            })
            .collect();
        let (scalar, batched) = run_both_paths(&CoreConfig::power4(), &plan);
        prop_assert_eq!(scalar, batched);
    }
}

#[test]
fn batched_delivery_matches_one_op_stepping() {
    let dvfs = DvfsParams::paper();
    for bench in SpecBenchmark::ALL {
        for mode in PowerMode::ALL {
            let freq = dvfs.frequency(mode);

            let mut batched_core = CoreModel::new(&CoreConfig::power4(), freq).unwrap();
            let mut batched = bench.stream();
            let batched_stats = batched_core.run_cycles(&mut batched, 200_000);

            let mut one_core = CoreModel::new(&CoreConfig::power4(), freq).unwrap();
            let mut one = OneAtATime(bench.stream());
            let one_stats = one_core.run_cycles(&mut one, 200_000);

            assert_eq!(
                batched_stats,
                one_stats,
                "delivery batching changed stats for {} at {mode}",
                bench.name(),
            );
        }
    }
}

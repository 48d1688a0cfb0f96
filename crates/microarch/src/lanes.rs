//! Lane batching: N cores (or N candidate power modes of one core) stepped
//! in lockstep by a single kernel.
//!
//! # Why lanes
//!
//! The scalar path simulates each core (or each candidate power mode) as a
//! complete, separate run: N runs re-stream the op sequence N times. A
//! [`LaneBatch`] holds N independent cores — N [`Engine`]s, the same state
//! type a [`CoreModel`](crate::CoreModel) holds one of — and
//! [`step_lanes`](LaneBatch::step_lanes) advances them round-robin, one turn
//! per live lane. A lane's turn budget follows from how its source delivers
//! ops:
//!
//! * A source that lends blocks of a recording
//!   ([`borrow_ops`](InstructionSource::borrow_ops), e.g. a shared tape in
//!   mode capture) gets [`CHUNK_OPS`] retired ops per turn. Lanes replaying
//!   the same tape then keep their read positions within one chunk of each
//!   other, so the tape window is streamed through host caches once per
//!   batch instead of once per lane, while each lane's simulated cache tags
//!   and predictor tables stay hot for thousands of consecutive ops.
//! * A generator source (e.g. each core's own stream in the full-CMP
//!   simulator) has nothing to share, so its lane runs straight through its
//!   segments in one turn, keeping that lane's state hot instead of cycling
//!   N lanes' state through the host cache.
//!
//! # Determinism
//!
//! No data flows between lanes inside the kernel: each lane owns its
//! engine, source, memory subsystem and clock, and steps through the same
//! [`Engine::run_burst`] a standalone core runs. A lane's op sequence, cycle
//! arithmetic and memory-subsystem call sequence are therefore bit-identical
//! to a standalone [`CoreModel`](crate::CoreModel) fed the same source, for
//! any turn schedule — pinned by the batch-vs-scalar equivalence tests and
//! the golden trace/CMP hashes.

use gpm_types::{GpmError, Hertz, Result};

use crate::core_model::{Engine, Segment};
use crate::{CoreConfig, InstructionSource, IntervalStats, MemorySubsystem};

/// Retired ops a lane that replays a lent recording advances per turn
/// before the kernel switches to the next lane.
///
/// Small enough that co-replaying lanes stay within one hot tape window of
/// each other, large enough that a lane's simulated cache tags and
/// predictor tables stay resident in host caches for many consecutive ops
/// before the next lane evicts them. The budget is counted in *ops*, not
/// cycles, because that is what bounds the drift between lanes' tape read
/// positions: lanes turned by cycles drift apart by their cumulative IPC
/// difference, so the shared window grows with run length and falls out of
/// host cache. Purely a scheduling choice — any value produces
/// bit-identical results, because no data flows between lanes.
const CHUNK_OPS: u64 = 8_192;

/// N cores' complete stepping state, advanced in lockstep by
/// [`step_lanes`](Self::step_lanes).
///
/// All lanes share one [`CoreConfig`] (geometry, latencies) but each lane
/// has its own clock frequency — the lane↔mode mapping of a 3-mode capture
/// batch — and fully private microarchitectural state.
///
/// # Examples
///
/// ```
/// use gpm_microarch::{CoreConfig, InstructionSource, LaneBatch, MicroOp, PrivateMemory};
/// use gpm_types::Hertz;
///
/// struct Ones;
/// impl InstructionSource for Ones {
///     fn next_op(&mut self) -> MicroOp {
///         MicroOp::int_alu(None)
///     }
/// }
///
/// let config = CoreConfig::power4();
/// let freqs = [Hertz::from_ghz(1.0), Hertz::from_ghz(0.85)];
/// let mut batch = LaneBatch::new(&config, &freqs)?;
/// let mut sources = [Ones, Ones];
/// let mut memories = [PrivateMemory::new(&config)?, PrivateMemory::new(&config)?];
/// let mut stats = vec![Default::default(); 2];
/// batch.step_lanes(&mut sources, &mut memories, &[10_000; 2], |lane, s| {
///     stats[lane] = *s;
///     None // one segment per lane, then stop
/// });
/// assert!(stats[0].ipc() > 1.8);
/// # Ok::<(), gpm_types::GpmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LaneBatch {
    engines: Vec<Engine>,
    /// Kernel scratch, kept across calls to avoid reallocation: each lane's
    /// open segment, `None` once the lane has retired.
    segments: Vec<Option<Segment>>,
}

impl LaneBatch {
    /// Builds a batch of `freqs.len()` lanes sharing `config`, lane `i`
    /// clocked at `freqs[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] if `config` fails
    /// [`CoreConfig::validate`], `freqs` is empty, or any frequency is not
    /// positive.
    pub fn new(config: &CoreConfig, freqs: &[Hertz]) -> Result<Self> {
        if freqs.is_empty() {
            return Err(GpmError::InvalidConfig {
                parameter: "lanes",
                reason: "a lane batch needs at least one lane".into(),
            });
        }
        let engines = freqs
            .iter()
            .map(|&freq| Engine::new(config, freq))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            segments: vec![None; engines.len()],
            engines,
        })
    }

    /// Number of lanes in the batch.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.engines.len()
    }

    /// The clock frequency of lane `lane`.
    #[must_use]
    pub fn frequency(&self, lane: usize) -> Hertz {
        self.engines[lane].frequency()
    }

    /// Total core cycles elapsed on lane `lane` since construction.
    #[must_use]
    pub fn now_cycles(&self, lane: usize) -> u64 {
        self.engines[lane].now_cycles()
    }

    /// Stalls lane `lane` for exactly `cycles` cycles: the clock advances,
    /// no instructions dispatch, and the cycles count as idle (not busy).
    ///
    /// This is the stall-credit entry point of the two-phase full-CMP
    /// protocol: queueing and miss delays discovered during the serial L2
    /// replay of one quantum are charged to the core at the start of its
    /// next quantum. The credit is indistinguishable from a long in-order
    /// memory stall — the dispatch window reopens afterwards.
    pub fn apply_stall_cycles(&mut self, lane: usize, cycles: u64) {
        self.engines[lane].apply_stall_cycles(cycles);
    }

    /// Drops instructions fetched from the lanes' sources but not yet
    /// executed, on every lane. Callers that swap instruction sources on a
    /// live batch (e.g. capture restarting streams after warm-up) must
    /// discard the stale tails; see
    /// [`CoreModel::discard_pending_ops`](crate::CoreModel::discard_pending_ops).
    pub fn discard_pending_ops(&mut self) {
        for engine in &mut self.engines {
            engine.discard_pending_ops();
        }
    }

    /// Advances all lanes in lockstep, one turn per live lane per round.
    ///
    /// Lane `i` steps ops against `sources[i]`/`memories[i]` until its
    /// clock reaches `targets[i]` cycles past its current time (the same
    /// "last op may overshoot" boundary as
    /// [`CoreModel::run_cycles`](crate::CoreModel::run_cycles)). At each
    /// boundary the lane's segment statistics are handed to `on_segment`;
    /// returning `Some(next_target)` immediately opens the next segment
    /// (the lane never pauses, so lockstep is preserved across segment
    /// boundaries), returning `None` retires the lane. The call returns
    /// when every lane has retired. A turn lasts 8,192 retired ops
    /// (`CHUNK_OPS`) for a lane whose source lends blocks, and until the
    /// lane retires otherwise.
    ///
    /// A target of 0 yields an immediate, empty segment — callers encoding
    /// "this quantum is fully stalled" get a default `IntervalStats` with
    /// zero cycles, exactly as the scalar path produces. `on_segment` must
    /// eventually return `None` (or a non-zero target) per lane, or the
    /// kernel spins on zero-length segments forever.
    ///
    /// # Panics
    ///
    /// Panics if `sources`, `memories` and `targets` are not all exactly
    /// [`lanes`](Self::lanes) long, or if a source violates the
    /// [`InstructionSource::fill_ops`] contract.
    pub fn step_lanes<S, M, F>(
        &mut self,
        sources: &mut [S],
        memories: &mut [M],
        targets: &[u64],
        mut on_segment: F,
    ) where
        S: InstructionSource,
        M: MemorySubsystem,
        F: FnMut(usize, &IntervalStats) -> Option<u64>,
    {
        let n = self.engines.len();
        assert!(
            sources.len() == n && memories.len() == n && targets.len() == n,
            "step_lanes needs exactly one source, memory and target per lane \
             ({n} lanes; got {} sources, {} memories, {} targets)",
            sources.len(),
            memories.len(),
            targets.len(),
        );

        for ((slot, engine), &target) in self.segments.iter_mut().zip(&self.engines).zip(targets) {
            *slot = Some(engine.open(target));
        }
        let mut alive = n;

        while alive > 0 {
            let lanes = self.engines.iter_mut().zip(&mut self.segments);
            'lane: for (lane, ((engine, slot), (source, memory))) in lanes
                .zip(sources.iter_mut().zip(memories.iter_mut()))
                .enumerate()
            {
                let Some(segment) = slot else { continue };
                let mut budget = if source.borrow_ops(1).is_some() {
                    CHUNK_OPS
                } else {
                    u64::MAX
                };
                loop {
                    // Segment boundaries are pure bookkeeping: finalize,
                    // hand off, and (maybe) open the next segment without
                    // the lane missing a round.
                    while engine.now_cycles() >= segment.end_cycle {
                        match on_segment(lane, &engine.close(segment)) {
                            Some(next) => *segment = engine.open(next),
                            None => {
                                *slot = None;
                                alive -= 1;
                                continue 'lane;
                            }
                        }
                    }
                    if budget == 0 {
                        break;
                    }
                    budget -= engine.run_burst(
                        source,
                        memory,
                        &mut segment.stats,
                        segment.end_cycle,
                        budget,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreModel, MicroOp, PrivateMemory};

    /// Deterministic mixed-op stream, seeded per lane.
    struct Mix {
        x: u64,
    }

    impl InstructionSource for Mix {
        fn next_op(&mut self) -> MicroOp {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let dep = if self.x & 4 == 0 {
                Some(1 + (self.x >> 3) as u32 % 8)
            } else {
                None
            };
            match self.x % 5 {
                0 => MicroOp::int_alu(dep),
                1 => MicroOp::fp_alu(dep),
                2 => MicroOp::load(self.x % (8 * 1024 * 1024), dep),
                3 => MicroOp::store(self.x % (8 * 1024 * 1024), dep),
                _ => MicroOp::branch(0x40 + self.x % 64, self.x & 2 == 0),
            }
        }
    }

    fn freqs(n: usize) -> Vec<Hertz> {
        (0..n)
            .map(|i| Hertz::from_ghz(1.0 - 0.05 * i as f64))
            .collect()
    }

    #[test]
    fn lanes_match_scalar_cores_over_multiple_segments() {
        let config = CoreConfig::power4();
        let lane_freqs = freqs(4);
        let mut batch = LaneBatch::new(&config, &lane_freqs).unwrap();
        let mut sources: Vec<_> = (0..4).map(|i| Mix { x: 1 + i as u64 }).collect();
        let mut memories: Vec<_> = (0..4)
            .map(|_| PrivateMemory::new(&config).unwrap())
            .collect();

        // Three segments of 20k cycles per lane via the callback.
        let mut batched: Vec<Vec<IntervalStats>> = vec![Vec::new(); 4];
        batch.step_lanes(&mut sources, &mut memories, &[20_000; 4], |lane, s| {
            batched[lane].push(*s);
            if batched[lane].len() < 3 {
                Some(20_000)
            } else {
                None
            }
        });

        for lane in 0..4 {
            let mut core = CoreModel::new(&config, lane_freqs[lane]).unwrap();
            let mut source = Mix { x: 1 + lane as u64 };
            for (seg, expected) in batched[lane].iter().enumerate() {
                let scalar = core.run_cycles(&mut source, 20_000);
                assert_eq!(
                    *expected, scalar,
                    "lane {lane} segment {seg} diverged from scalar"
                );
            }
            assert_eq!(batch.now_cycles(lane), core.now_cycles());
        }
    }

    #[test]
    fn stall_and_zero_target_match_scalar_semantics() {
        let config = CoreConfig::power4();
        let mut batch = LaneBatch::new(&config, &freqs(2)).unwrap();
        let mut sources = [Mix { x: 11 }, Mix { x: 22 }];
        let mut memories = [
            PrivateMemory::new(&config).unwrap(),
            PrivateMemory::new(&config).unwrap(),
        ];

        batch.apply_stall_cycles(0, 5_000);
        assert_eq!(batch.now_cycles(0), 5_000);

        // Lane 0 fully stalled this quantum (target 0), lane 1 runs.
        let mut seen = [IntervalStats::default(); 2];
        batch.step_lanes(&mut sources, &mut memories, &[0, 10_000], |lane, s| {
            seen[lane] = *s;
            None
        });
        assert_eq!(seen[0], IntervalStats::default());
        assert!(seen[1].instructions > 0);
        assert_eq!(batch.now_cycles(0), 5_000, "stalled lane did not step");
    }

    #[test]
    fn discard_pending_ops_restarts_from_new_sources() {
        struct Only(fn(Option<u32>) -> MicroOp);
        impl InstructionSource for Only {
            fn next_op(&mut self) -> MicroOp {
                (self.0)(None)
            }
        }
        let config = CoreConfig::power4();
        let mut batch = LaneBatch::new(&config, &freqs(2)).unwrap();
        let mut ints = [Only(MicroOp::int_alu), Only(MicroOp::int_alu)];
        let mut memories = [
            PrivateMemory::new(&config).unwrap(),
            PrivateMemory::new(&config).unwrap(),
        ];
        batch.step_lanes(&mut ints, &mut memories, &[1_000; 2], |_, _| None);
        batch.discard_pending_ops();
        let mut fps = [Only(MicroOp::fp_alu), Only(MicroOp::fp_alu)];
        let mut seen = [IntervalStats::default(); 2];
        batch.step_lanes(&mut fps, &mut memories, &[1_000; 2], |lane, s| {
            seen[lane] = *s;
            None
        });
        for s in seen {
            assert!(s.fp_ops > 0);
            assert_eq!(s.int_ops, 0, "stale buffered ops must not execute");
        }
    }

    #[test]
    fn new_rejects_degenerate_configs_without_panicking() {
        let mut bad = CoreConfig::power4();
        bad.predictor.bimodal_entries = 1000;
        assert!(matches!(
            LaneBatch::new(&bad, &freqs(2)),
            Err(GpmError::InvalidConfig {
                parameter: "predictor",
                ..
            })
        ));
        assert!(LaneBatch::new(&CoreConfig::power4(), &[]).is_err());
        assert!(LaneBatch::new(&CoreConfig::power4(), &[Hertz::new(0.0)]).is_err());
    }
}

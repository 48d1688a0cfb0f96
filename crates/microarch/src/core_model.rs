//! The out-of-order core timing model: a dataflow scoreboard with dispatch
//! bandwidth, a ROB window, functional-unit contention, branch misprediction
//! refills and a real cache hierarchy.
//!
//! # Hot-path structure
//!
//! [`CoreModel`] is the only way to step a core: an engine (caches,
//! predictor, prefetcher, scoreboard, op delivery buffer) plus the memory
//! subsystem below its L1s — a [`PrivateMemory`] for trace capture, a
//! recording [`DeferredL2`](crate::DeferredL2) for each full-CMP core.
//! Every experiment in the workspace funnels through its per-instruction
//! loop, so this module is written for raw simulation throughput while
//! keeping results bit-identical across delivery strategies:
//!
//! * **Batched instruction delivery** — ops are pulled from the
//!   [`InstructionSource`] in blocks (via
//!   [`fill_ops`](InstructionSource::fill_ops)) into a reusable buffer, so a
//!   boxed/dynamic source pays one virtual call per block instead of one per
//!   op; a memory-backed source lends its storage instead
//!   ([`borrow_ops`](InstructionSource::borrow_ops)) and is stepped without a
//!   copy. Unconsumed buffered ops carry over between `run_*` calls; callers
//!   that swap sources mid-run must call [`CoreModel::discard_pending_ops`].
//! * **Monomorphized memory path** — [`CoreModel`] is generic over its
//!   `M: MemorySubsystem`, so the private-L2 common case
//!   ([`PrivateMemory`]) and the full-CMP recording L2
//!   ([`DeferredL2`](crate::DeferredL2)) inline completely.
//! * **No per-op division or float math** — the ROB ring is walked with a
//!   wrapping cursor instead of `%`, functional-unit arbitration is an O(1)
//!   scan specialised for the paper's 1- and 2-unit classes, and ns→cycles
//!   conversions are served from a tiny exact-result memo (the private
//!   memory system only ever produces two distinct latencies).

use gpm_types::{GpmError, Hertz, Result};

use crate::{
    AccessOutcome, BranchPredictor, CoreConfig, InstructionSource, IntervalStats, MicroOp, OpKind,
    SetAssocCache, StreamPrefetcher,
};

/// Number of micro-ops fetched from an [`InstructionSource`] per refill of
/// the core's delivery buffer, and the most a borrowed block may hold.
const OP_BATCH: usize = 256;

/// The level of the hierarchy *below* the core's private L1s.
///
/// The single-core case uses [`PrivateMemory`] (an L2 plus fixed-latency
/// DRAM). The full-CMP validation simulator substitutes a shared L2 with bus
/// contention. Latencies are exchanged in nanoseconds because the L2 and
/// memory live in asynchronous clock domains: their delay is constant in
/// wall-clock time regardless of the core's DVFS state.
pub trait MemorySubsystem {
    /// Performs an access that missed in the core's L1, at absolute wall
    /// time `now_ns`. Returns `(latency_ns, l2_hit)`.
    fn access(&mut self, addr: u64, now_ns: f64) -> (f64, bool);

    /// Like [`access`](Self::access), but carrying the request kind.
    ///
    /// The core always calls this entry point; the default forwards to
    /// `access`, so ordinary memory systems ignore the kind. Recording
    /// subsystems ([`DeferredL2`](crate::DeferredL2)) override it to log
    /// the kind alongside the address and timestamp.
    fn access_kind(&mut self, addr: u64, now_ns: f64, kind: AccessKind) -> (f64, bool) {
        let _ = kind;
        self.access(addr, now_ns)
    }
}

/// What an L2 request was issued for. Recorded in deferred-request logs so
/// replay and diagnostics can distinguish traffic classes; timing treats
/// all kinds identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1I miss).
    Fetch,
    /// Demand load or store (L1D miss).
    Data,
    /// Hardware stream-prefetcher fill.
    Prefetch,
}

/// A private L2 backed by fixed-latency DRAM — the memory system of the
/// paper's single-threaded Turandot runs.
#[derive(Debug, Clone)]
pub struct PrivateMemory {
    l2: SetAssocCache,
    l2_latency_ns: f64,
    memory_latency_ns: f64,
}

impl PrivateMemory {
    /// Builds the L2 + DRAM combination from a core configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] if the L2 geometry is invalid.
    pub fn new(config: &CoreConfig) -> Result<Self> {
        Ok(Self {
            l2: SetAssocCache::new(config.l2)?,
            l2_latency_ns: config.memory.l2_latency_ns,
            memory_latency_ns: config.memory.memory_latency_ns,
        })
    }
}

impl MemorySubsystem for PrivateMemory {
    #[inline]
    fn access(&mut self, addr: u64, _now_ns: f64) -> (f64, bool) {
        match self.l2.access(addr) {
            AccessOutcome::Hit => (self.l2_latency_ns, true),
            AccessOutcome::Miss => (self.l2_latency_ns + self.memory_latency_ns, false),
        }
    }
}

/// Functional-unit classes tracked by the scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuClass {
    Lsu,
    Fxu,
    Fpu,
    Bru,
}

/// One core at a concrete clock frequency: its caches, branch predictor,
/// prefetcher, scoreboard, ns→cycles memo and op delivery buffer — every
/// piece of state stepping reads or writes except the memory below the L1s.
///
/// [`CoreModel`] owns one next to its memory subsystem; keeping the memory
/// outside lets stepping borrow the engine and the memory at the same time.
#[derive(Debug, Clone)]
struct Engine {
    // Static configuration (latencies in core cycles).
    dispatch_width: u32,
    rob_size: usize,
    fxu_latency: u64,
    fpu_latency: u64,
    mispredict_penalty: u64,
    l1_latency: u64,
    load_use_penalty: u64,
    l1i_block_shift: u32,
    l1d_block_shift: u32,
    /// Functional-unit pool boundaries into `fu_free`: class `c` (in
    /// [`FuClass`] order LSU, FXU, FPU, BRU) occupies
    /// `fu_free[fu_offsets[c]..fu_offsets[c + 1]]`.
    fu_offsets: [usize; 5],
    freq: Hertz,
    ns_per_cycle: f64,

    // Microarchitectural structures.
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    predictor: BranchPredictor,
    prefetcher: Option<StreamPrefetcher>,

    // Scoreboard state.
    cur_cycle: u64,
    dispatched_in_cycle: u32,
    last_busy_cycle: u64,
    busy_cycles: u64,
    completion_ring: Vec<u64>,
    op_index: u64,
    /// `op_index % rob_size`, maintained incrementally (no per-op `%`).
    rob_slot: usize,
    /// Per-unit next-free cycles, flat across classes.
    fu_free: Vec<u64>,
    last_fetch_block: u64,

    /// Exact-result memo for ns→cycles conversions: the private memory
    /// system produces only two distinct latencies, so this two-entry
    /// MRU cache hits almost always. Results are computed by
    /// [`Hertz::cycles_for_ns`] on miss, so cached conversions are
    /// bit-identical to uncached ones.
    ns_cache: [(f64, u64); 2],

    // Batched instruction delivery: ops fetched ahead of execution.
    op_buf: Vec<MicroOp>,
    op_buf_pos: usize,
    op_buf_len: usize,
}

impl Engine {
    /// Builds a cold core at clock frequency `freq`.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] if `config` fails
    /// [`CoreConfig::validate`] or `freq` is not positive.
    fn new(config: &CoreConfig, freq: Hertz) -> Result<Self> {
        config.validate()?;
        if freq.value() <= 0.0 || freq.value().is_nan() {
            return Err(GpmError::InvalidConfig {
                parameter: "frequency",
                reason: format!("must be positive, got {}", freq.value()),
            });
        }
        let prefetcher = if config.prefetch_streams > 0 {
            Some(StreamPrefetcher::new(
                config.prefetch_streams,
                config.l1d.block_bytes,
            )?)
        } else {
            None
        };
        let (lsu, fxu, fpu, bru) = (
            config.lsu_count,
            config.fxu_count,
            config.fpu_count,
            config.bru_count,
        );
        let units = lsu + fxu + fpu + bru;
        Ok(Self {
            dispatch_width: config.dispatch_width,
            rob_size: config.rob_size,
            fxu_latency: config.fxu_latency,
            fpu_latency: config.fpu_latency,
            mispredict_penalty: config.mispredict_penalty,
            l1_latency: config.l1_latency,
            load_use_penalty: config.load_use_penalty,
            l1i_block_shift: config.l1i.block_bytes.trailing_zeros(),
            l1d_block_shift: config.l1d.block_bytes.trailing_zeros(),
            fu_offsets: [0, lsu, lsu + fxu, lsu + fxu + fpu, units],
            freq,
            ns_per_cycle: 1.0e9 / freq.value(),
            l1i: SetAssocCache::new(config.l1i)?,
            l1d: SetAssocCache::new(config.l1d)?,
            predictor: BranchPredictor::new(config.predictor)?,
            prefetcher,
            cur_cycle: 0,
            dispatched_in_cycle: 0,
            last_busy_cycle: u64::MAX,
            busy_cycles: 0,
            completion_ring: vec![0; config.rob_size],
            op_index: 0,
            rob_slot: 0,
            fu_free: vec![0; units],
            last_fetch_block: u64::MAX,
            ns_cache: [(f64::NAN, 0); 2],
            op_buf: vec![MicroOp::int_alu(None); OP_BATCH],
            op_buf_pos: 0,
            op_buf_len: 0,
        })
    }

    /// Steps ops from `source` against `memory` until the clock has
    /// advanced `cycles` cycles (the last op may overshoot) or `op_budget`
    /// ops have retired, whichever comes first, and returns the statistics
    /// of exactly this interval.
    ///
    /// The delivery style is probed once per call (the
    /// [`InstructionSource`] contract requires a consistent answer): a
    /// source that lends blocks is stepped straight out of its storage, any
    /// other through the engine's delivery buffer. Results never depend on
    /// the delivery style or on where a run is cut into intervals.
    ///
    /// # Panics
    ///
    /// Panics if the source violates the [`InstructionSource::fill_ops`]
    /// contract.
    fn run<S, M>(
        &mut self,
        source: &mut S,
        memory: &mut M,
        cycles: u64,
        op_budget: u64,
    ) -> IntervalStats
    where
        S: InstructionSource,
        M: MemorySubsystem,
    {
        let start_cycle = self.cur_cycle;
        let busy_start = self.busy_cycles;
        let stop_cycle = start_cycle.saturating_add(cycles);
        let mut stats = IntervalStats::default();
        let mut left = op_budget;
        if source.borrow_ops(1).is_some() {
            while self.cur_cycle < stop_cycle && left > 0 {
                let Some(block) = source.borrow_ops(left.min(OP_BATCH as u64) as usize) else {
                    debug_assert!(false, "source stopped serving borrowed blocks mid-run");
                    break;
                };
                let mut used = 0;
                while used < block.len() && self.cur_cycle < stop_cycle {
                    self.step_op(block[used], memory, &mut stats);
                    used += 1;
                }
                source.consume_ops(used);
                left -= used as u64;
            }
        } else {
            while self.cur_cycle < stop_cycle && left > 0 {
                if self.op_buf_pos == self.op_buf_len {
                    self.op_buf_len = source.fill_ops(&mut self.op_buf);
                    assert!(
                        self.op_buf_len > 0 && self.op_buf_len <= OP_BATCH,
                        "InstructionSource::fill_ops must deliver 1..=buf.len() ops"
                    );
                    self.op_buf_pos = 0;
                }
                let op = self.op_buf[self.op_buf_pos];
                self.op_buf_pos += 1;
                self.step_op(op, memory, &mut stats);
                left -= 1;
            }
        }
        stats.cycles = self.cur_cycle - start_cycle;
        stats.busy_cycles = self.busy_cycles - busy_start;
        stats
    }

    /// Advances the scoreboard by one micro-op.
    ///
    /// Force-inlined into the two delivery loops of [`run`](Self::run), so
    /// each loop keeps the hot fields in registers instead of paying a call
    /// per op.
    #[inline(always)]
    fn step_op<M: MemorySubsystem>(
        &mut self,
        op: MicroOp,
        memory: &mut M,
        stats: &mut IntervalStats,
    ) {
        // --- Instruction fetch: one L1I access per new code block. ---
        let code_addr = u64::from(op.code_addr());
        let fetch_block = code_addr >> self.l1i_block_shift;
        if fetch_block != self.last_fetch_block {
            self.last_fetch_block = fetch_block;
            stats.l1i_accesses += 1;
            if self.l1i.access(code_addr).is_miss() {
                stats.l1i_misses += 1;
                let now_ns = self.cur_cycle as f64 * self.ns_per_cycle;
                let (lat_ns, l2_hit) = memory.access_kind(code_addr, now_ns, AccessKind::Fetch);
                stats.l2_accesses += 1;
                if !l2_hit {
                    stats.l2_misses += 1;
                }
                // An I-miss stalls the front end outright.
                self.cur_cycle += self.ns_to_cycles(lat_ns);
                self.dispatched_in_cycle = 0;
            }
        }

        // --- ROB window: wait for the oldest in-flight op to complete. ---
        let slot = self.rob_slot;
        let oldest = self.completion_ring[slot];
        if oldest > self.cur_cycle {
            self.cur_cycle = oldest;
            self.dispatched_in_cycle = 0;
        }

        // --- Dispatch bandwidth. ---
        if self.dispatched_in_cycle >= self.dispatch_width {
            self.cur_cycle += 1;
            self.dispatched_in_cycle = 0;
        }
        self.dispatched_in_cycle += 1;
        if self.cur_cycle != self.last_busy_cycle {
            self.last_busy_cycle = self.cur_cycle;
            self.busy_cycles += 1;
        }

        // --- Operand readiness from the producer's completion time. ---
        //
        // Dependency presence is close to a coin flip in the synthetic
        // streams, so this is computed branch-free (`&` instead of `&&`,
        // selects instead of an `if let` body) to spare the host branch
        // predictor: a dep of 0 stands in for "none" and resolves to the
        // already-read oldest slot.
        let mut ready = self.cur_cycle;
        let dep = op.dep().map_or(0, usize::from);
        let valid = (dep > 0) & (dep as u64 <= self.op_index) & (dep <= self.rob_size);
        let dep = if valid { dep } else { 0 };
        // (op_index - dep) % rob_size, via the wrapping cursor.
        let producer = if slot >= dep {
            slot - dep
        } else {
            slot + self.rob_size - dep
        };
        let produced = self.completion_ring[producer];
        ready = ready.max(if valid { produced } else { 0 });

        // --- Execute. ---
        stats.instructions += 1;
        let (class, latency, mispredicted) = match op.kind() {
            OpKind::IntAlu => {
                stats.int_ops += 1;
                (FuClass::Fxu, self.fxu_latency, false)
            }
            OpKind::FpAlu => {
                stats.fp_ops += 1;
                (FuClass::Fpu, self.fpu_latency, false)
            }
            OpKind::Load { addr } => {
                stats.loads += 1;
                let lat = self.data_access(addr, ready, memory, stats);
                (FuClass::Lsu, lat + self.load_use_penalty, false)
            }
            OpKind::Store { addr } => {
                stats.stores += 1;
                // Stores update the hierarchy but retire through the store
                // queue without stalling consumers.
                let _ = self.data_access(addr, ready, memory, stats);
                (FuClass::Lsu, 1, false)
            }
            OpKind::Branch { pc, taken } => {
                stats.branches += 1;
                let miss = self.predictor.predict_and_update(pc, taken);
                if miss {
                    stats.mispredictions += 1;
                }
                if taken {
                    // POWER4 dispatch groups end at taken branches: the
                    // redirected fetch stream starts a new group next cycle.
                    self.dispatched_in_cycle = self.dispatch_width;
                }
                (FuClass::Bru, 1, miss)
            }
        };

        // --- Functional-unit arbitration (pick the earliest-free unit). ---
        let class = class as usize;
        let pool = &mut self.fu_free[self.fu_offsets[class]..self.fu_offsets[class + 1]];
        let issue = take_earliest_unit(pool, ready);
        let completion = issue + latency;
        self.completion_ring[slot] = completion;
        self.op_index += 1;
        self.rob_slot += 1;
        if self.rob_slot == self.rob_size {
            self.rob_slot = 0;
        }

        // --- Misprediction: the front end restarts after resolution. ---
        if mispredicted {
            let restart = completion + self.mispredict_penalty;
            if restart > self.cur_cycle {
                self.cur_cycle = restart;
                self.dispatched_in_cycle = 0;
            }
        }
    }

    /// L1D access, falling through to the memory subsystem on a miss.
    /// Returns the total load-to-use latency in core cycles.
    fn data_access<M: MemorySubsystem>(
        &mut self,
        addr: u64,
        at_cycle: u64,
        memory: &mut M,
        stats: &mut IntervalStats,
    ) -> u64 {
        stats.l1d_accesses += 1;
        let mut latency = self.l1_latency;
        if self.l1d.access(addr).is_miss() {
            stats.l1d_misses += 1;
            let now_ns = at_cycle as f64 * self.ns_per_cycle;
            let (lat_ns, l2_hit) = memory.access_kind(addr, now_ns, AccessKind::Data);
            stats.l2_accesses += 1;
            if !l2_hit {
                stats.l2_misses += 1;
            }
            latency += self.ns_to_cycles(lat_ns);

            // Ascending-stream hardware prefetch: fill the predicted next
            // blocks in the background (consumes L2 bandwidth, hides the
            // following demand misses, charges nothing to this load).
            if let Some(prefetcher) = self.prefetcher.as_mut() {
                if let Some((pf_start, count)) = prefetcher.on_miss(addr) {
                    let block_bytes = 1u64 << self.l1d_block_shift;
                    for k in 0..u64::from(count) {
                        let pf_addr = pf_start + k * block_bytes;
                        if self.l1d.contains(pf_addr) {
                            continue;
                        }
                        let (_, pf_l2_hit) =
                            memory.access_kind(pf_addr, now_ns, AccessKind::Prefetch);
                        stats.l2_accesses += 1;
                        if !pf_l2_hit {
                            stats.l2_misses += 1;
                        }
                        let _ = self.l1d.install(pf_addr);
                        stats.prefetches += 1;
                    }
                }
            }
        }
        latency
    }

    /// Converts a wall-clock latency to core cycles through the memo cache.
    ///
    /// The cached result is exactly what [`Hertz::cycles_for_ns`] returns
    /// for the same input, so hits and misses are indistinguishable in the
    /// produced timing.
    #[inline]
    fn ns_to_cycles(&mut self, ns: f64) -> u64 {
        if ns == self.ns_cache[0].0 {
            return self.ns_cache[0].1;
        }
        if ns == self.ns_cache[1].0 {
            self.ns_cache.swap(0, 1);
            return self.ns_cache[0].1;
        }
        let cycles = self.freq.cycles_for_ns(ns);
        self.ns_cache[1] = self.ns_cache[0];
        self.ns_cache[0] = (ns, cycles);
        cycles
    }
}

/// One core of the CMP at a concrete clock frequency, with the memory
/// subsystem below its L1s: a private L2 and memory by default, or any other
/// [`MemorySubsystem`] via [`with_memory`](CoreModel::with_memory).
///
/// The model keeps all microarchitectural state (cache contents, predictor
/// tables, in-flight completion times) across [`run_cycles`] calls, so a
/// benchmark can be simulated as a sequence of `delta_sim_time` intervals
/// exactly as the paper's toolchain does.
///
/// [`run_cycles`]: CoreModel::run_cycles
#[derive(Debug, Clone)]
pub struct CoreModel<M: MemorySubsystem = PrivateMemory> {
    engine: Engine,
    memory: M,
}

impl CoreModel {
    /// Builds a core at clock frequency `freq` (the DVFS-scaled frequency of
    /// its current power mode) with a private L2 and memory.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] if `config` fails
    /// [`CoreConfig::validate`] or `freq` is not positive.
    pub fn new(config: &CoreConfig, freq: Hertz) -> Result<Self> {
        Ok(Self {
            engine: Engine::new(config, freq)?,
            memory: PrivateMemory::new(config)?,
        })
    }
}

impl<M: MemorySubsystem> CoreModel<M> {
    /// Builds a core at clock frequency `freq` whose L1 misses go to
    /// `memory` — e.g. a full-CMP core recording its L2 requests into a
    /// [`DeferredL2`](crate::DeferredL2).
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] if `config` fails
    /// [`CoreConfig::validate`] or `freq` is not positive.
    pub fn with_memory(config: &CoreConfig, freq: Hertz, memory: M) -> Result<Self> {
        Ok(Self {
            engine: Engine::new(config, freq)?,
            memory,
        })
    }

    /// The memory subsystem below the core's L1s.
    #[must_use]
    pub fn memory(&self) -> &M {
        &self.memory
    }

    /// Mutable access to the memory subsystem below the core's L1s.
    pub fn memory_mut(&mut self) -> &mut M {
        &mut self.memory
    }

    /// The clock frequency this core instance runs at.
    #[must_use]
    pub fn frequency(&self) -> Hertz {
        self.engine.freq
    }

    /// Total core cycles elapsed since construction.
    #[must_use]
    pub fn now_cycles(&self) -> u64 {
        self.engine.cur_cycle
    }

    /// Absolute wall time in nanoseconds since construction.
    #[must_use]
    pub fn now_ns(&self) -> f64 {
        self.engine.cur_cycle as f64 * self.engine.ns_per_cycle
    }

    /// Drops any instructions that were fetched from a source but not yet
    /// executed.
    ///
    /// The core prefetches ops in blocks of `OP_BATCH`; callers that swap
    /// instruction sources on a live core (e.g. trace capture restarting a
    /// stream after cache warm-up) must discard the stale tail so the next
    /// run starts at the new source's first op.
    pub fn discard_pending_ops(&mut self) {
        self.engine.op_buf_pos = 0;
        self.engine.op_buf_len = 0;
    }

    /// Stalls the core for exactly `cycles` cycles: the clock advances, no
    /// instructions dispatch, and the cycles count as idle (not busy).
    ///
    /// This is the stall-credit entry point of the two-phase full-CMP
    /// protocol: queueing and miss delays discovered during the serial L2
    /// replay of one quantum are charged to the core at the start of its
    /// next quantum. The credit is indistinguishable from a long in-order
    /// memory stall — the dispatch window reopens afterwards.
    pub fn apply_stall_cycles(&mut self, cycles: u64) {
        self.engine.cur_cycle += cycles;
        self.engine.dispatched_in_cycle = 0;
    }

    /// Runs the core against `source` for (at least) `target_cycles` core
    /// cycles, returning the statistics of exactly this interval. A target
    /// of 0 steps nothing and returns empty statistics.
    pub fn run_cycles(
        &mut self,
        source: &mut impl InstructionSource,
        target_cycles: u64,
    ) -> IntervalStats {
        self.engine
            .run(source, &mut self.memory, target_cycles, u64::MAX)
    }

    /// Runs until `count` further instructions have been dispatched.
    pub fn run_instructions(
        &mut self,
        source: &mut impl InstructionSource,
        count: u64,
    ) -> IntervalStats {
        self.engine.run(source, &mut self.memory, u64::MAX, count)
    }
}

/// Picks the earliest-free unit (lowest index on ties, matching
/// `min_by_key`), issues at `max(ready, unit_free)`, and occupies the unit
/// for one cycle (fully pipelined, initiation interval 1). Returns the
/// issue cycle.
///
/// The paper's configuration has 1 or 2 units per class, so those arities
/// are branchless; larger pools fall back to a linear first-minimum scan.
#[inline]
fn take_earliest_unit(units: &mut [u64], ready: u64) -> u64 {
    let chosen = match units {
        [_] => 0,
        [a, b] => usize::from(*b < *a),
        _ => {
            let mut best = 0;
            let mut best_t = units[0];
            for (i, &t) in units.iter().enumerate().skip(1) {
                if t < best_t {
                    best_t = t;
                    best = i;
                }
            }
            best
        }
    };
    let issue = ready.max(units[chosen]);
    units[chosen] = issue + 1;
    issue
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_types::Hertz;

    /// A configurable synthetic stream for targeted timing tests.
    struct TestStream {
        ops: Vec<MicroOp>,
        next: usize,
    }

    impl TestStream {
        fn cycle(ops: Vec<MicroOp>) -> Self {
            Self { ops, next: 0 }
        }
    }

    impl InstructionSource for TestStream {
        fn next_op(&mut self) -> MicroOp {
            let op = self.ops[self.next % self.ops.len()];
            self.next += 1;
            op
        }
    }

    fn core_at(ghz: f64) -> CoreModel {
        CoreModel::new(&CoreConfig::power4(), Hertz::from_ghz(ghz)).unwrap()
    }

    #[test]
    fn independent_int_ops_are_fxu_bound() {
        // 2 FXUs → IPC saturates at 2 for a pure integer stream.
        let mut core = core_at(1.0);
        let mut s = TestStream::cycle(vec![MicroOp::int_alu(None)]);
        let stats = core.run_cycles(&mut s, 100_000);
        let ipc = stats.ipc();
        assert!((1.8..=2.05).contains(&ipc), "expected ~2 IPC, got {ipc}");
    }

    #[test]
    fn mixed_stream_exceeds_fxu_limit() {
        // Int + FP + mem mix spreads over 6 units; dispatch width 5 caps it.
        let ops = vec![
            MicroOp::int_alu(None),
            MicroOp::int_alu(None),
            MicroOp::fp_alu(None),
            MicroOp::fp_alu(None),
            MicroOp::load(0x100, None), // L1-resident
        ];
        let mut core = core_at(1.0);
        let mut s = TestStream::cycle(ops);
        let stats = core.run_cycles(&mut s, 100_000);
        assert!(stats.ipc() > 3.5, "mixed stream IPC {}", stats.ipc());
    }

    #[test]
    fn dependent_chain_serialises() {
        // Every op depends on the previous one: IPC ≤ 1.
        let mut core = core_at(1.0);
        let mut s = TestStream::cycle(vec![MicroOp::int_alu(Some(1))]);
        let stats = core.run_cycles(&mut s, 50_000);
        assert!(stats.ipc() <= 1.05, "chain IPC {}", stats.ipc());
        assert!(stats.ipc() > 0.9);
    }

    #[test]
    fn fp_chain_pays_fpu_latency() {
        // Dependent FP chain: 1 op per fpu_latency (4) cycles.
        let mut core = core_at(1.0);
        let mut s = TestStream::cycle(vec![MicroOp::fp_alu(Some(1))]);
        let stats = core.run_cycles(&mut s, 80_000);
        let ipc = stats.ipc();
        assert!((0.2..=0.3).contains(&ipc), "FP chain IPC {ipc}");
    }

    #[test]
    fn pointer_chase_pays_memory_latency() {
        // Dependent loads over a 16 MiB working set miss everywhere:
        // ~1 + 9 + 77 = 87 cycles per op at 1 GHz.
        struct Chase {
            addr: u64,
        }
        impl InstructionSource for Chase {
            fn next_op(&mut self) -> MicroOp {
                self.addr = (self.addr.wrapping_mul(6364136223846793005).wrapping_add(1))
                    % (16 * 1024 * 1024);
                MicroOp::load(self.addr, Some(1))
            }
        }
        let mut core = core_at(1.0);
        let stats = core.run_cycles(&mut Chase { addr: 1 }, 500_000);
        let cpi = 1.0 / stats.ipc();
        assert!(
            (60.0..=110.0).contains(&cpi),
            "pointer chase CPI {cpi}, l2 miss rate {}",
            stats.l2_misses as f64 / stats.l2_accesses.max(1) as f64
        );
    }

    #[test]
    fn memory_bound_code_degrades_less_under_dvfs() {
        // The paper's key DVFS asymmetry (Figure 2): CPU-bound work slows
        // down ∝ f, memory-bound work much less.
        fn throughput(ghz: f64, memory_bound: bool) -> f64 {
            struct Stream {
                addr: u64,
                memory_bound: bool,
                i: u64,
            }
            impl InstructionSource for Stream {
                fn next_op(&mut self) -> MicroOp {
                    self.i += 1;
                    if self.memory_bound {
                        self.addr = (self
                            .addr
                            .wrapping_mul(2862933555777941757)
                            .wrapping_add(3037000493))
                            % (32 * 1024 * 1024);
                        MicroOp::load(self.addr, Some(1))
                    } else {
                        MicroOp::int_alu(None)
                    }
                }
            }
            let mut core = CoreModel::new(&CoreConfig::power4(), Hertz::from_ghz(ghz)).unwrap();
            let mut s = Stream {
                addr: 1,
                memory_bound,
                i: 0,
            };
            let stats = core.run_cycles(&mut s, 400_000);
            // Instructions per wall-clock second.
            stats.instructions as f64 / (stats.cycles as f64 / (ghz * 1e9))
        }

        let cpu_slowdown = 1.0 - throughput(0.85, false) / throughput(1.0, false);
        let mem_slowdown = 1.0 - throughput(0.85, true) / throughput(1.0, true);
        assert!(
            (0.12..=0.18).contains(&cpu_slowdown),
            "CPU-bound slowdown should be ~15%, got {cpu_slowdown}"
        );
        assert!(
            mem_slowdown < 0.06,
            "memory-bound slowdown should be small, got {mem_slowdown}"
        );
    }

    #[test]
    fn mispredictions_cost_refill() {
        // Random branches through a real predictor → large CPI penalty.
        struct RandomBranches {
            x: u64,
        }
        impl InstructionSource for RandomBranches {
            fn next_op(&mut self) -> MicroOp {
                self.x ^= self.x << 13;
                self.x ^= self.x >> 7;
                self.x ^= self.x << 17;
                MicroOp::branch(0x40, self.x & 1 == 1)
            }
        }
        let mut core = core_at(1.0);
        let stats = core.run_cycles(&mut RandomBranches { x: 42 }, 100_000);
        assert!(stats.mispredictions > 0);
        let cpi = 1.0 / stats.ipc();
        assert!(cpi > 3.0, "mispredict-heavy stream CPI {cpi}");
    }

    #[test]
    fn predictable_branches_are_cheap() {
        let mut core = core_at(1.0);
        let mut s = TestStream::cycle(vec![
            MicroOp::branch(0x40, true),
            MicroOp::int_alu(None),
            MicroOp::int_alu(None),
        ]);
        let stats = core.run_cycles(&mut s, 100_000);
        assert!(
            stats.mispredictions * 100 < stats.branches,
            "biased branch should be >99% predicted"
        );
        assert!(stats.ipc() > 2.0);
    }

    #[test]
    fn icache_fetch_counted_per_block() {
        // Sequential code: one L1I access per 128-byte block (32 ops at 4 B).
        struct Sequential {
            pc: u32,
        }
        impl InstructionSource for Sequential {
            fn next_op(&mut self) -> MicroOp {
                self.pc += 4;
                MicroOp::int_alu(None).at_code(self.pc)
            }
        }
        let mut core = core_at(1.0);
        // pc runs 4..=12800, touching blocks 0..=100 → 101 distinct blocks.
        let stats = core.run_instructions(&mut Sequential { pc: 0 }, 3200);
        assert_eq!(stats.l1i_accesses, 101);
    }

    #[test]
    fn stats_cycles_match_interval() {
        let mut core = core_at(1.0);
        let mut s = TestStream::cycle(vec![MicroOp::int_alu(None)]);
        let stats = core.run_cycles(&mut s, 12_345);
        assert!(stats.cycles >= 12_345);
        assert!(stats.cycles < 12_345 + 100, "only small overshoot allowed");
    }

    #[test]
    fn state_persists_across_intervals() {
        // Warm caches in interval 1 make interval 2 faster for a small
        // working set. The loads are dependent so the latency is exposed
        // rather than hidden by the ROB window.
        struct Loop {
            i: u64,
        }
        impl InstructionSource for Loop {
            fn next_op(&mut self) -> MicroOp {
                self.i += 1;
                MicroOp::load((self.i * 64) % (16 * 1024), Some(1))
            }
        }
        let mut core = core_at(1.0);
        let mut s = Loop { i: 0 };
        let cold = core.run_cycles(&mut s, 20_000);
        let warm = core.run_cycles(&mut s, 20_000);
        assert!(
            warm.ipc() > cold.ipc(),
            "warm {} should beat cold {}",
            warm.ipc(),
            cold.ipc()
        );
    }

    #[test]
    fn now_ns_tracks_frequency() {
        let mut core = core_at(0.5);
        let mut s = TestStream::cycle(vec![MicroOp::int_alu(None)]);
        let _ = core.run_cycles(&mut s, 1000);
        let ns = core.now_ns();
        // 1000+ cycles at 0.5 GHz = 2000+ ns.
        assert!((2000.0..2300.0).contains(&ns), "{ns}");
    }

    #[test]
    fn stream_prefetcher_hides_sequential_misses() {
        // A pure streaming sweep: with the 8-stream prefetcher the demand
        // miss rate collapses and throughput rises.
        struct Sweep {
            addr: u64,
        }
        impl InstructionSource for Sweep {
            fn next_op(&mut self) -> MicroOp {
                self.addr += 16;
                MicroOp::load(self.addr % (64 * 1024 * 1024), Some(1))
            }
        }
        let run = |streams: usize| {
            let mut config = CoreConfig::power4();
            config.prefetch_streams = streams;
            let mut core = CoreModel::new(&config, Hertz::from_ghz(1.0)).unwrap();
            core.run_cycles(&mut Sweep { addr: 0 }, 300_000)
        };
        let off = run(0);
        let on = run(8);
        assert_eq!(off.prefetches, 0);
        assert!(on.prefetches > 100, "prefetches {}", on.prefetches);
        assert!(
            (on.l1d_misses as f64) < off.l1d_misses as f64 * 0.7,
            "misses {} -> {}",
            off.l1d_misses,
            on.l1d_misses
        );
        assert!(on.ipc() > off.ipc() * 1.2, "{} vs {}", on.ipc(), off.ipc());
    }

    #[test]
    fn prefetcher_is_harmless_on_pointer_chases() {
        let run = |streams: usize| {
            struct Chase {
                addr: u64,
            }
            impl InstructionSource for Chase {
                fn next_op(&mut self) -> MicroOp {
                    self.addr = (self.addr.wrapping_mul(6364136223846793005).wrapping_add(1))
                        % (16 * 1024 * 1024);
                    MicroOp::load(self.addr, Some(1))
                }
            }
            let mut config = CoreConfig::power4();
            config.prefetch_streams = streams;
            let mut core = CoreModel::new(&config, Hertz::from_ghz(1.0)).unwrap();
            core.run_cycles(&mut Chase { addr: 1 }, 300_000)
        };
        let off = run(0);
        let on = run(8);
        // Random chains neither benefit nor regress meaningfully.
        assert!((on.ipc() - off.ipc()).abs() < off.ipc() * 0.05);
    }

    #[test]
    fn store_misses_do_not_stall_consumers() {
        // Stores to a huge region (all misses) with independent int ops:
        // throughput should stay near dispatch-limited because stores retire
        // through the store queue.
        struct Stores {
            i: u64,
        }
        impl InstructionSource for Stores {
            fn next_op(&mut self) -> MicroOp {
                self.i += 1;
                if self.i.is_multiple_of(4) {
                    MicroOp::store((self.i * 131) % (64 * 1024 * 1024), None)
                } else {
                    MicroOp::int_alu(None)
                }
            }
        }
        let mut core = core_at(1.0);
        let stats = core.run_cycles(&mut Stores { i: 0 }, 100_000);
        assert!(
            stats.ipc() > 1.5,
            "stores should not serialise: {}",
            stats.ipc()
        );
    }

    #[test]
    fn buffered_delivery_is_invisible_to_results() {
        // A source that delivers one op per fill_ops call (the old
        // one-virtual-call-per-op regime) must produce the same timing as
        // the default full-batch delivery.
        struct OneAtATime(TestStream);
        impl InstructionSource for OneAtATime {
            fn next_op(&mut self) -> MicroOp {
                self.0.next_op()
            }
            fn fill_ops(&mut self, buf: &mut [MicroOp]) -> usize {
                buf[0] = self.0.next_op();
                1
            }
        }
        let ops = vec![
            MicroOp::int_alu(Some(1)),
            MicroOp::load(0x40, None),
            MicroOp::branch(0x10, true),
            MicroOp::fp_alu(None),
        ];
        let mut batched_core = core_at(1.0);
        let mut one_core = core_at(1.0);
        let mut batched = TestStream::cycle(ops.clone());
        let mut one = OneAtATime(TestStream::cycle(ops));
        for _ in 0..4 {
            let a = batched_core.run_cycles(&mut batched, 10_000);
            let b = one_core.run_cycles(&mut one, 10_000);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn discard_pending_ops_restarts_from_new_source() {
        // After swapping sources mid-run, the next executed op must come
        // from the new source, not the stale buffered tail.
        let mut core = core_at(1.0);
        let mut ints = TestStream::cycle(vec![MicroOp::int_alu(None)]);
        let _ = core.run_cycles(&mut ints, 1_000);
        core.discard_pending_ops();
        let mut fps = TestStream::cycle(vec![MicroOp::fp_alu(None)]);
        let stats = core.run_instructions(&mut fps, 100);
        assert_eq!(stats.fp_ops, 100);
        assert_eq!(stats.int_ops, 0, "stale buffered ops must not execute");
    }

    #[test]
    fn stall_and_zero_target_advance_only_the_clock() {
        let ops = vec![
            MicroOp::int_alu(Some(1)),
            MicroOp::load(0x4_0000, None),
            MicroOp::branch(0x10, true),
        ];
        let mut stalled = core_at(1.0);
        let mut twin = core_at(1.0);
        let mut s = TestStream::cycle(ops.clone());
        let mut t = TestStream::cycle(ops);

        stalled.apply_stall_cycles(5_000);
        assert_eq!(stalled.now_cycles(), 5_000);
        // A fully stalled quantum is a zero target: nothing steps.
        assert_eq!(stalled.run_cycles(&mut s, 0), IntervalStats::default());
        assert_eq!(stalled.now_cycles(), 5_000, "a zero target did not step");

        // The stall shifts the clock and nothing else: the next intervals
        // match a core that never stalled.
        for _ in 0..3 {
            let a = stalled.run_cycles(&mut s, 10_000);
            assert!(a.instructions > 0);
            assert_eq!(a, twin.run_cycles(&mut t, 10_000));
        }
        assert_eq!(stalled.now_cycles(), twin.now_cycles() + 5_000);
    }

    #[test]
    fn with_memory_steps_against_the_given_subsystem() {
        use crate::DeferredL2;
        let config = CoreConfig::power4();
        let mut core =
            CoreModel::with_memory(&config, Hertz::from_ghz(1.0), DeferredL2::new(9.0)).unwrap();
        let mut sweep = TestStream::cycle((0..64).map(|i| MicroOp::load(i << 20, None)).collect());
        let stats = core.run_cycles(&mut sweep, 10_000);
        assert!(stats.l1d_misses > 0);
        assert_eq!(core.memory().log().len() as u64, stats.l2_accesses);
        core.memory_mut().reset();
        assert!(core.memory().log().is_empty());

        let mut bad = config.clone();
        bad.predictor.bimodal_entries = 1000;
        assert!(matches!(
            CoreModel::with_memory(&bad, Hertz::from_ghz(1.0), DeferredL2::new(9.0)),
            Err(GpmError::InvalidConfig {
                parameter: "predictor",
                ..
            })
        ));
        assert!(CoreModel::new(&config, Hertz::new(0.0)).is_err());
    }

    #[test]
    fn earliest_unit_matches_min_by_key_semantics() {
        // First-minimum tie-breaking, all arities.
        let mut two = [5u64, 5];
        assert_eq!(take_earliest_unit(&mut two, 0), 5);
        assert_eq!(two, [6, 5], "tie picks unit 0");
        let mut two = [7u64, 3];
        assert_eq!(take_earliest_unit(&mut two, 0), 3);
        assert_eq!(two, [7, 4]);
        let mut three = [4u64, 2, 2];
        assert_eq!(take_earliest_unit(&mut three, 10), 10);
        assert_eq!(three, [4, 11, 2], "first minimum wins");
        let mut one = [9u64];
        assert_eq!(take_earliest_unit(&mut one, 1), 9);
        assert_eq!(one, [10]);
    }
}

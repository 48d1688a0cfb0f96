//! The deterministic synthetic instruction-stream generator.

use gpm_microarch::{InstructionSource, MicroOp, OpKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{BenchmarkProfile, CodeProfile};

/// Base of the synthetic code address space.
const CODE_BASE: u32 = 0x0040_0000;
/// Separation between the code regions of a program.
const CODE_REGION_STRIDE: u32 = 0x2_0000;
/// Offsets of the three data regions inside a core's address slice,
/// indexed hot/warm/cold.
const REGION_BASES: [u64; 3] = [0x1000_0000, 0x2000_0000, 0x4000_0000];

/// The highest code address a stream with `code`'s layout generates: the
/// last op of the last region's loop body. A [`MicroOp`] holds a 32-bit
/// code address, so profiles whose layout reaches past [`u32::MAX`] fail
/// validation.
pub(crate) fn last_code_address(code: &CodeProfile) -> u64 {
    u64::from(CODE_BASE)
        + u64::from(code.regions.max(1) - 1) * u64::from(CODE_REGION_STRIDE)
        + u64::from(code.loop_body_ops.max(1) - 1) * 4
}

/// Converts a probability threshold to the integer domain of the RNG's
/// 53-bit mantissa draws.
///
/// `rng.gen::<f64>()` is exactly `m * 2⁻⁵³` for the integer
/// `m = next_u64() >> 11`, so `gen::<f64>() < t  ⟺  m < t·2⁵³` in real
/// arithmetic. Both `m as f64` and `t * 2⁵³` are power-of-two scalings and
/// therefore exact in f64, and for integer `m`, `m < T ⟺ m < ⌈T⌉`. The
/// integer compare is thus bit-for-bit the same predicate as the float
/// compare it replaces, without the int→float conversion per draw.
fn threshold_bits(t: f64) -> u64 {
    (t * (1u64 << 53) as f64).ceil() as u64
}

/// One `gen::<f64>()`-equivalent draw, in the integer domain.
/// Consumes exactly one `next_u64`, like `gen::<f64>()`.
#[inline]
fn draw53(rng: &mut SmallRng) -> u64 {
    use rand::RngCore;
    rng.next_u64() >> 11
}

/// A deterministic, infinite micro-op stream realising a
/// [`BenchmarkProfile`].
///
/// The stream is a pure function of `(profile.seed ^ seed_salt)` and the
/// instruction index: simulating it at different DVFS frequencies (or
/// interleaving it with other cores) replays exactly the same instructions,
/// which is what lets per-mode traces be aligned by instruction position the
/// way the paper's trace-based CMP tool requires.
///
/// # Examples
///
/// ```
/// use gpm_microarch::InstructionSource;
/// use gpm_workloads::SpecBenchmark;
///
/// let mut a = SpecBenchmark::Gcc.stream();
/// let mut b = SpecBenchmark::Gcc.stream();
/// for _ in 0..1000 {
///     assert_eq!(a.next_op(), b.next_op(), "streams are deterministic");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    profile: BenchmarkProfile,
    pre: Precomputed,
    rng: SmallRng,
    addr_base: u64,
    instr_index: u64,
    /// Distance back to the most recent load (0 = none yet), saturating
    /// at [`MicroOp::MAX_DEP`].
    ops_since_load: u16,
    // Sequential sweep cursors per data region (spatial locality),
    // indexed hot/warm/cold like [`REGION_BASES`].
    region_ptrs: [u64; 3],
    // Code-layout state.
    region: u32,
    ops_in_region: u64,
    op_in_loop: u32,
    /// `instr_index % phases.period_instructions`, maintained incrementally.
    phase_pos: u64,
    /// `CODE_BASE + region * CODE_REGION_STRIDE`, updated on region change.
    region_code_base: u32,
}

/// Hot-path constants derived from the profile once at construction.
///
/// `next_op` runs once per simulated instruction across every experiment, so
/// everything that is a pure function of the (immutable) profile — mix
/// thresholds, phase-stressed region probabilities, word counts — is folded
/// here. Each value is computed with exactly the arithmetic the generator
/// previously performed per op, so the produced streams are bit-identical.
#[derive(Debug, Clone)]
struct Precomputed {
    // Cumulative mix thresholds in roll order, as [`threshold_bits`]
    // integers compared against [`draw53`] draws.
    t_load: u64,
    t_store: u64,
    t_branch: u64,
    t_fp: u64,
    // Phase structure. The threshold is `⌈memory_duty · period⌉`: for the
    // integer `phase_pos` the compare is identical to the old
    // `(phase_pos as f64) < memory_duty * period as f64`.
    phase_enabled: bool,
    phase_period: u64,
    phase_threshold: u64,
    // Region-select thresholds: (hot, hot + warm), calm and stressed.
    calm_hot: u64,
    calm_hot_warm: u64,
    stress_hot: u64,
    stress_hot_warm: u64,
    // Region geometry, indexed hot/warm/cold.
    region_bytes: [u64; 3],
    region_words: [u64; 3],
    jump_probability: u64,
    pointer_chase: u64,
    dep_probability: u64,
    // Code layout (`.max(1)` folded in).
    regions: u32,
    region_residency_ops: u64,
    loop_body_ops: u32,
    branch_sites: u32,
    branch_random_fraction: u64,
    branch_taken_bias: u64,
}

impl Precomputed {
    fn from_profile(p: &BenchmarkProfile) -> Self {
        let m = p.memory;
        // A memory phase shifts `intensity` probability mass from the
        // hot/warm sets to the cold region, proportionally.
        let pool = m.hot + m.warm;
        let (stress_hot, stress_warm) = if pool > 0.0 {
            let scale = (1.0 - p.phases.intensity / pool).max(0.0);
            (m.hot * scale, m.warm * scale)
        } else {
            (m.hot, m.warm)
        };
        Self {
            t_load: threshold_bits(p.mix.load),
            t_store: threshold_bits(p.mix.load + p.mix.store),
            t_branch: threshold_bits(p.mix.load + p.mix.store + p.mix.branch),
            t_fp: threshold_bits(p.mix.load + p.mix.store + p.mix.branch + p.mix.fp_alu),
            phase_enabled: p.phases.period_instructions != 0,
            phase_period: p.phases.period_instructions,
            phase_threshold: (p.phases.memory_duty * p.phases.period_instructions as f64).ceil()
                as u64,
            calm_hot: threshold_bits(m.hot),
            calm_hot_warm: threshold_bits(m.hot + m.warm),
            stress_hot: threshold_bits(stress_hot),
            stress_hot_warm: threshold_bits(stress_hot + stress_warm),
            region_bytes: [m.hot_bytes, m.warm_bytes, m.cold_bytes],
            region_words: [m.hot_bytes / 8, m.warm_bytes / 8, m.cold_bytes / 8],
            jump_probability: threshold_bits(m.jump_probability),
            pointer_chase: threshold_bits(m.pointer_chase),
            dep_probability: threshold_bits(p.dep_probability),
            regions: p.code.regions.max(1),
            region_residency_ops: p.code.region_residency_ops,
            loop_body_ops: p.code.loop_body_ops.max(1),
            branch_sites: p.branches.sites.max(1),
            branch_random_fraction: threshold_bits(p.branches.random_fraction),
            branch_taken_bias: threshold_bits(p.branches.taken_bias),
        }
    }
}

impl WorkloadStream {
    /// Builds the stream; see
    /// [`BenchmarkProfile::stream_with`](crate::BenchmarkProfile::stream_with).
    ///
    /// # Errors
    ///
    /// Returns [`gpm_types::GpmError::InvalidConfig`] if the profile fails
    /// validation.
    pub fn new(
        profile: BenchmarkProfile,
        addr_base: u64,
        seed_salt: u64,
    ) -> gpm_types::Result<Self> {
        profile.validate()?;
        let rng = SmallRng::seed_from_u64(profile.seed ^ seed_salt);
        let pre = Precomputed::from_profile(&profile);
        Ok(Self {
            profile,
            pre,
            rng,
            addr_base,
            instr_index: 0,
            ops_since_load: 0,
            region_ptrs: [0; 3],
            region: 0,
            ops_in_region: 0,
            op_in_loop: 0,
            phase_pos: 0,
            region_code_base: CODE_BASE,
        })
    }

    /// The profile driving this stream.
    #[must_use]
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Number of micro-ops generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.instr_index
    }

    /// Whether the benchmark's region (its `total_instructions`) has been
    /// fully generated. The stream keeps producing ops past this point (the
    /// CMP simulators stop all cores when the *first* benchmark completes).
    #[must_use]
    pub fn region_complete(&self) -> bool {
        self.instr_index >= self.profile.total_instructions
    }

    /// Is the current instruction inside the memory-stressed phase?
    /// `phase_pos` tracks `instr_index % period` incrementally.
    #[inline]
    fn in_memory_phase(&self) -> bool {
        self.pre.phase_enabled && self.phase_pos < self.pre.phase_threshold
    }

    /// Picks a data address according to the working-set structure, applying
    /// the current phase's stress. `force_jump` (pointer-chasing loads)
    /// bypasses the sequential sweep.
    #[inline]
    fn data_address(&mut self, stressed: bool, force_jump: bool) -> u64 {
        let (hot, hot_warm) = if stressed {
            (self.pre.stress_hot, self.pre.stress_hot_warm)
        } else {
            (self.pre.calm_hot, self.pre.calm_hot_warm)
        };
        // Hot/warm/cold select as index arithmetic: `roll < hot` picked hot,
        // `roll < hot_warm` warm, else cold — so the index is the count of
        // thresholds at or below the roll, with no data-dependent branch.
        let roll = draw53(&mut self.rng);
        let region = usize::from(roll >= hot) + usize::from(roll >= hot_warm);
        let words = self.pre.region_words[region];
        let bytes = self.pre.region_bytes[region];
        let offset = if force_jump || draw53(&mut self.rng) < self.pre.jump_probability {
            // Random jump: a fresh cache line somewhere in the region.
            self.rng.gen_range(0..words) * 8
        } else {
            // Sequential sweep: advance by one to three words, wrapping.
            // The cursor stays `< bytes` and the step is at most 24, so one
            // conditional subtract replaces the `%` for any region of at
            // least 24 bytes; the division only runs for degenerate tiny
            // regions.
            let ptr = &mut self.region_ptrs[region];
            let mut next = *ptr + self.rng.gen_range(1u64..=3) * 8;
            if next >= bytes {
                next -= bytes;
                if next >= bytes {
                    next %= bytes;
                }
            }
            *ptr = next;
            next
        };
        self.addr_base + REGION_BASES[region] + offset
    }

    /// Advances the synthetic code layout and returns this op's code
    /// address. The counters wrap by comparison instead of `%`, and the
    /// region's code base is cached across ops. Validation bounds the
    /// layout by [`last_code_address`], so the sums fit in `u32`.
    #[inline]
    fn code_address(&mut self) -> u32 {
        if self.ops_in_region >= self.pre.region_residency_ops {
            self.ops_in_region = 0;
            self.op_in_loop = 0;
            self.region += 1;
            if self.region == self.pre.regions {
                self.region = 0;
            }
            self.region_code_base = CODE_BASE + self.region * CODE_REGION_STRIDE;
        }
        self.ops_in_region += 1;
        self.op_in_loop += 1;
        if self.op_in_loop == self.pre.loop_body_ops {
            self.op_in_loop = 0;
        }
        self.region_code_base + self.op_in_loop * 4
    }

    /// Rolls a generic dependency on a recent producer. Half of the
    /// dependencies target the most recent load when one is close by —
    /// load-to-use chains dominate real integer code. Distances are clamped
    /// so a dependency never points before the start of the stream.
    #[inline]
    fn generic_dep(&mut self) -> Option<u16> {
        if self.instr_index == 0 || draw53(&mut self.rng) >= self.pre.dep_probability {
            return None;
        }
        if (1..=4).contains(&self.ops_since_load) && self.rng.gen::<bool>() {
            Some(self.ops_since_load)
        } else {
            // Drawn as `u32`, which fixes how the RNG is consumed; the
            // distance is at most 3.
            let max_distance = self.instr_index.min(3) as u32;
            let distance: u32 = self.rng.gen_range(1..=max_distance);
            Some(distance as u16)
        }
    }
}

impl InstructionSource for WorkloadStream {
    fn next_op(&mut self) -> MicroOp {
        let stressed = self.in_memory_phase();
        let code_addr = self.code_address();
        let roll = draw53(&mut self.rng);

        let op = if roll < self.pre.t_load {
            // Pointer-chasing loads depend on the previous load;
            // `ops_since_load` is the dynamic distance back to it (0 = no
            // load seen yet).
            let chase = self.ops_since_load > 0 && draw53(&mut self.rng) < self.pre.pointer_chase;
            let dep = chase.then_some(self.ops_since_load);
            let addr = self.data_address(stressed, chase);
            MicroOp::load(addr, dep)
        } else if roll < self.pre.t_store {
            let addr = self.data_address(stressed, false);
            MicroOp::store(addr, None)
        } else if roll < self.pre.t_branch {
            let site = self.rng.gen_range(0..self.pre.branch_sites);
            let pc = u64::from(self.region_code_base) + 0x1_0000 + u64::from(site) * 32;
            let taken = if draw53(&mut self.rng) < self.pre.branch_random_fraction {
                draw53(&mut self.rng) < self.pre.branch_taken_bias
            } else {
                true // loop-back branch, fully predictable once learned
            };
            MicroOp::branch(pc, taken)
        } else if roll < self.pre.t_fp {
            MicroOp::fp_alu(self.generic_dep())
        } else {
            MicroOp::int_alu(self.generic_dep())
        };

        self.ops_since_load = if matches!(op.kind(), OpKind::Load { .. }) {
            1
        } else if self.ops_since_load > 0 {
            self.ops_since_load.saturating_add(1)
        } else {
            0 // still no load seen
        };
        self.instr_index += 1;
        if self.pre.phase_enabled {
            self.phase_pos += 1;
            if self.phase_pos == self.pre.phase_period {
                self.phase_pos = 0;
            }
        }
        op.at_code(code_addr)
    }

    /// Batched delivery: the whole buffer is filled through the inlined
    /// generator, so a boxed stream pays one virtual call per block.
    fn fill_ops(&mut self, buf: &mut [MicroOp]) -> usize {
        for slot in buf.iter_mut() {
            *slot = self.next_op();
        }
        buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpecBenchmark;

    fn count_kinds(bench: SpecBenchmark, n: usize) -> (f64, f64, f64, f64, f64) {
        let mut s = bench.stream();
        let (mut int_n, mut fp, mut ld, mut st, mut br) = (0, 0, 0, 0, 0);
        for _ in 0..n {
            match s.next_op().kind() {
                OpKind::IntAlu => int_n += 1,
                OpKind::FpAlu => fp += 1,
                OpKind::Load { .. } => ld += 1,
                OpKind::Store { .. } => st += 1,
                OpKind::Branch { .. } => br += 1,
            }
        }
        let n = n as f64;
        (
            int_n as f64 / n,
            fp as f64 / n,
            ld as f64 / n,
            st as f64 / n,
            br as f64 / n,
        )
    }

    #[test]
    fn mix_fractions_are_respected() {
        let p = SpecBenchmark::Gcc.profile();
        let (int_f, fp, ld, st, br) = count_kinds(SpecBenchmark::Gcc, 200_000);
        assert!((int_f - p.mix.int_alu).abs() < 0.01, "int {int_f}");
        assert!((fp - p.mix.fp_alu).abs() < 0.01);
        assert!((ld - p.mix.load).abs() < 0.01);
        assert!((st - p.mix.store).abs() < 0.01);
        assert!((br - p.mix.branch).abs() < 0.01);
    }

    #[test]
    fn determinism_across_instances() {
        let mut a = SpecBenchmark::Art.stream();
        let mut b = SpecBenchmark::Art.stream();
        for _ in 0..10_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn seed_salt_changes_the_stream() {
        let p = SpecBenchmark::Art.profile();
        let mut a = p.stream_with(0, 0).unwrap();
        let mut b = p.stream_with(0, 1).unwrap();
        let differs = (0..1000).any(|_| a.next_op() != b.next_op());
        assert!(differs);
    }

    #[test]
    fn addr_base_offsets_all_data_addresses() {
        let p = SpecBenchmark::Mcf.profile();
        let base = 0x10_0000_0000u64;
        let mut s = p.stream_with(base, 0).unwrap();
        let mut seen_mem = 0;
        for _ in 0..10_000 {
            match s.next_op().kind() {
                OpKind::Load { addr } | OpKind::Store { addr } => {
                    assert!(addr >= base, "address {addr:#x} below base");
                    seen_mem += 1;
                }
                _ => {}
            }
        }
        assert!(seen_mem > 1000);
    }

    #[test]
    fn region_complete_after_total_instructions() {
        let mut p = SpecBenchmark::Mcf.profile();
        p.total_instructions = 100;
        let mut s = p.stream().unwrap();
        assert!(!s.region_complete());
        for _ in 0..100 {
            let _ = s.next_op();
        }
        assert!(s.region_complete());
        assert_eq!(s.generated(), 100);
        // Stream keeps producing beyond the region.
        let _ = s.next_op();
    }

    #[test]
    fn phases_modulate_cold_traffic() {
        // art has strong phases: cold-region access rate must differ between
        // the two phase halves.
        let p = SpecBenchmark::Art.profile();
        let period = p.phases.period_instructions;
        let mut s = p.stream().unwrap();
        let mut cold_in_phase = [0u64; 2];
        let mut mem_in_phase = [0u64; 2];
        for i in 0..period * 2 {
            let pos = i % period;
            let phase_idx = usize::from((pos as f64) < p.phases.memory_duty * period as f64);
            if let OpKind::Load { addr } | OpKind::Store { addr } = s.next_op().kind() {
                mem_in_phase[phase_idx] += 1;
                if addr >= REGION_BASES[2] {
                    cold_in_phase[phase_idx] += 1;
                }
            }
        }
        let rate_stressed = cold_in_phase[1] as f64 / mem_in_phase[1] as f64;
        let rate_calm = cold_in_phase[0] as f64 / mem_in_phase[0] as f64;
        assert!(
            rate_stressed > rate_calm * 1.5,
            "stressed {rate_stressed} vs calm {rate_calm}"
        );
    }

    #[test]
    fn pointer_chase_produces_dependent_loads() {
        let mut s = SpecBenchmark::Mcf.stream();
        let mut chased = 0;
        let mut loads = 0;
        for _ in 0..50_000 {
            let op = s.next_op();
            if let OpKind::Load { .. } = op.kind() {
                loads += 1;
                if op.dep().is_some() {
                    chased += 1;
                }
            }
        }
        let frac = chased as f64 / loads as f64;
        let expected = SpecBenchmark::Mcf.profile().memory.pointer_chase;
        assert!((frac - expected).abs() < 0.05, "chase fraction {frac}");
    }

    #[test]
    fn sixtrack_has_no_chased_loads() {
        let mut s = SpecBenchmark::Sixtrack.stream();
        for _ in 0..20_000 {
            let op = s.next_op();
            if matches!(op.kind(), OpKind::Load { .. }) {
                assert!(op.dep().is_none());
            }
        }
    }

    #[test]
    fn last_code_address_is_the_highest_generated() {
        let mut p = SpecBenchmark::Gcc.profile();
        p.code.regions = 3;
        p.code.loop_body_ops = 5;
        p.code.region_residency_ops = 7;
        let mut s = p.stream().unwrap();
        let highest = (0..1000).map(|_| s.next_op().code_addr()).max();
        assert_eq!(highest.map(u64::from), Some(last_code_address(&p.code)));
    }

    #[test]
    fn long_load_distances_saturate() {
        // Loads one op in 10^5, every one chasing the previous: gaps past
        // `MAX_DEP` occur, and each chased distance is the exact gap up to
        // that limit.
        let mut p = SpecBenchmark::Mcf.profile();
        p.mix.int_alu = 1.0 - 1e-5;
        p.mix.fp_alu = 0.0;
        p.mix.load = 1e-5;
        p.mix.store = 0.0;
        p.mix.branch = 0.0;
        p.memory.pointer_chase = 1.0;
        let mut s = p.stream().unwrap();
        let mut since_load: Option<u64> = None;
        let mut saturated = 0;
        let mut exact = 0;
        for _ in 0..2_000_000 {
            let op = s.next_op();
            since_load = since_load.map(|d| d + 1);
            if matches!(op.kind(), OpKind::Load { .. }) {
                let want = since_load.map(|d| d.min(u64::from(MicroOp::MAX_DEP)));
                assert_eq!(op.dep().map(u64::from), want);
                match want {
                    Some(d) if d == u64::from(MicroOp::MAX_DEP) => saturated += 1,
                    Some(_) => exact += 1,
                    None => {}
                }
                since_load = Some(0);
            }
        }
        assert!(
            saturated > 0 && exact > 0,
            "{saturated} saturated, {exact} exact"
        );
    }

    #[test]
    fn code_addresses_stay_in_region_footprint() {
        let p = SpecBenchmark::Gcc.profile();
        let mut s = p.stream().unwrap();
        for _ in 0..10_000 {
            let op = s.next_op();
            assert!(op.code_addr() >= CODE_BASE);
            assert!(op.code_addr() < CODE_BASE + p.code.regions * CODE_REGION_STRIDE);
        }
    }
}

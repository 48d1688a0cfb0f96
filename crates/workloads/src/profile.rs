//! Benchmark profiles: the parameter sets that make each synthetic stream
//! behave like its SPEC CPU2000 namesake.

use gpm_types::{GpmError, Result};
use serde::{Deserialize, Serialize};

use crate::stream::last_code_address;
use crate::WorkloadStream;

/// SPEC suite of a benchmark (Table 2 annotates each combo with INT/FP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// SPECint2000.
    Int,
    /// SPECfp2000.
    Fp,
}

/// Table 2's "aggregate effect" classification: CPU vs memory utilisation.
///
/// Ordered by CPU-boundedness: `VeryHighCpu > HighCpu > LowCpu >
/// VeryLowCpu` — the implicit priority order of the MaxBIPS policy (and
/// the reverse of pullHipushLo's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum UtilizationClass {
    /// Very low CPU utilisation, very high memory utilisation (art, mcf).
    VeryLowCpu,
    /// Low CPU utilisation, high memory utilisation (ammp).
    LowCpu,
    /// High CPU utilisation, low memory utilisation (gcc, mesa, vortex).
    HighCpu,
    /// Very high CPU utilisation, very low memory utilisation (crafty,
    /// facerec, sixtrack, gap, perlbmk, wupwise).
    VeryHighCpu,
}

impl std::fmt::Display for UtilizationClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            UtilizationClass::VeryLowCpu => "very low CPU, very high memory",
            UtilizationClass::LowCpu => "low CPU, high memory",
            UtilizationClass::HighCpu => "high CPU, low memory",
            UtilizationClass::VeryHighCpu => "very high CPU, very low memory",
        };
        f.write_str(s)
    }
}

/// Dynamic instruction mix; the five fractions must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstructionMix {
    /// Fixed-point ALU fraction.
    pub int_alu: f64,
    /// Floating-point fraction.
    pub fp_alu: f64,
    /// Load fraction.
    pub load: f64,
    /// Store fraction.
    pub store: f64,
    /// Conditional-branch fraction.
    pub branch: f64,
}

impl InstructionMix {
    /// Checks the mix sums to 1 (±1e-6) with no negative entries.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] otherwise.
    pub fn validate(&self) -> Result<()> {
        let parts = [
            self.int_alu,
            self.fp_alu,
            self.load,
            self.store,
            self.branch,
        ];
        if parts.iter().any(|&p| p < 0.0) {
            return Err(GpmError::InvalidConfig {
                parameter: "mix",
                reason: "fractions must be non-negative".into(),
            });
        }
        let sum: f64 = parts.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(GpmError::InvalidConfig {
                parameter: "mix",
                reason: format!("fractions sum to {sum}, expected 1"),
            });
        }
        Ok(())
    }
}

/// Working-set structure of the data accesses.
///
/// Accesses are split between three regions: a *hot* set sized to live in
/// L1D, a *warm* set sized to live in the 2 MB L2, and a *cold* region that
/// misses everywhere. `pointer_chase` is the fraction of loads whose address
/// depends on the previous load — serialised misses with no memory-level
/// parallelism, the signature of mcf.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryProfile {
    /// Probability an access targets the hot (L1-resident) set.
    pub hot: f64,
    /// Probability an access targets the warm (L2-resident) set.
    pub warm: f64,
    /// Hot-set size in bytes (should fit L1D).
    pub hot_bytes: u64,
    /// Warm-set size in bytes (should fit the 2 MB L2 for one core; four
    /// cores' warm sets overflow a shared L2 — the contention effect the
    /// full-CMP validation measures).
    pub warm_bytes: u64,
    /// Cold-region size in bytes (must comfortably exceed L2).
    pub cold_bytes: u64,
    /// Fraction of loads that pointer-chase (depend on the previous load;
    /// chased loads always jump to a random address).
    pub pointer_chase: f64,
    /// Probability a (non-chased) access jumps to a random address within
    /// its region instead of continuing the region's sequential sweep —
    /// the spatial-locality knob. Sequential accesses mostly stay within a
    /// cache line, so a region's distinct-line (miss) rate is roughly
    /// `jump + (1 − jump) · stride/line`.
    pub jump_probability: f64,
}

impl MemoryProfile {
    /// Probability an access targets the cold region.
    #[must_use]
    pub fn cold(&self) -> f64 {
        (1.0 - self.hot - self.warm).max(0.0)
    }
}

/// Branch-behaviour parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BranchProfile {
    /// Number of distinct static branch sites the stream cycles through.
    pub sites: u32,
    /// Fraction of branches with data-dependent (unpredictable) outcomes.
    pub random_fraction: f64,
    /// Taken probability of the unpredictable branches.
    pub taken_bias: f64,
}

/// Static code-footprint parameters driving the L1I model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodeProfile {
    /// Instructions in the current inner loop before wrapping.
    pub loop_body_ops: u32,
    /// Number of distinct loop sites (code regions) the program hops
    /// between.
    pub regions: u32,
    /// Instructions executed in one region before hopping to the next.
    pub region_residency_ops: u64,
}

/// Phase structure: periodic alternation between the profile's base
/// behaviour and a memory-stressed variant, keyed to the instruction index
/// so all DVFS modes see identical per-instruction behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Phase period in instructions (0 disables phases).
    pub period_instructions: u64,
    /// Fraction of each period spent in the memory-stressed phase.
    pub memory_duty: f64,
    /// Absolute probability mass shifted from the hot/warm sets to the cold
    /// region while the stressed phase is active (e.g. 0.12 turns a 3%
    /// cold-traffic benchmark into a 15% one during its memory phase).
    pub intensity: f64,
}

impl PhaseProfile {
    /// A flat profile with no phase behaviour.
    #[must_use]
    pub const fn none() -> Self {
        Self {
            period_instructions: 0,
            memory_duty: 0.0,
            intensity: 0.0,
        }
    }
}

/// Everything needed to synthesise one benchmark's instruction stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkProfile {
    /// Benchmark name (lower case, as the paper writes it).
    pub name: String,
    /// SPEC suite.
    pub suite: Suite,
    /// Dynamic instruction mix.
    pub mix: InstructionMix,
    /// Working-set structure.
    pub memory: MemoryProfile,
    /// Branch behaviour.
    pub branches: BranchProfile,
    /// Code footprint.
    pub code: CodeProfile,
    /// Phase behaviour.
    pub phases: PhaseProfile,
    /// Probability a non-load op depends on the immediately preceding op
    /// (the ILP knob: higher → more serialisation).
    pub dep_probability: f64,
    /// Total dynamic instructions in the simulated region; the CMP runs
    /// terminate when the first benchmark completes.
    pub total_instructions: u64,
    /// Base RNG seed; streams derive per-instance seeds from it.
    pub seed: u64,
}

impl BenchmarkProfile {
    /// Validates all components.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] when any fraction is out of range,
    /// any size is zero, or the code layout reaches past the 32-bit code
    /// addresses a [`MicroOp`](gpm_microarch::MicroOp) holds.
    pub fn validate(&self) -> Result<()> {
        self.mix.validate()?;
        if self.memory.hot + self.memory.warm > 1.0 + 1e-9 {
            return Err(GpmError::InvalidConfig {
                parameter: "memory",
                reason: "hot + warm probabilities exceed 1".into(),
            });
        }
        for (name, v) in [
            ("pointer_chase", self.memory.pointer_chase),
            ("random_fraction", self.branches.random_fraction),
            ("taken_bias", self.branches.taken_bias),
            ("dep_probability", self.dep_probability),
            ("memory_duty", self.phases.memory_duty),
            ("intensity", self.phases.intensity),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(GpmError::InvalidConfig {
                    parameter: "profile",
                    reason: format!("{name} = {v} outside [0, 1]"),
                });
            }
        }
        if self.memory.hot_bytes == 0 || self.memory.warm_bytes == 0 || self.memory.cold_bytes == 0
        {
            return Err(GpmError::InvalidConfig {
                parameter: "memory",
                reason: "region sizes must be non-zero".into(),
            });
        }
        if self.total_instructions == 0 {
            return Err(GpmError::InvalidConfig {
                parameter: "total_instructions",
                reason: "must be non-zero".into(),
            });
        }
        let last_code = last_code_address(&self.code);
        if last_code > u64::from(u32::MAX) {
            return Err(GpmError::InvalidConfig {
                parameter: "code",
                reason: format!("layout reaches code address {last_code:#x}, past 32 bits"),
            });
        }
        Ok(())
    }

    /// Creates the deterministic instruction stream for this profile, with
    /// data addresses offset by `addr_base` (so co-scheduled cores do not
    /// alias in a shared L2) and the RNG seed XORed with `seed_salt`.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] if the profile fails validation.
    pub fn stream_with(&self, addr_base: u64, seed_salt: u64) -> Result<WorkloadStream> {
        WorkloadStream::new(self.clone(), addr_base, seed_salt)
    }

    /// Creates the canonical stream (no address offset, no seed salt).
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] if the profile fails validation.
    pub fn stream(&self) -> Result<WorkloadStream> {
        self.stream_with(0, 0)
    }
}

/// The 12 SPEC CPU2000 benchmarks analysed in the paper (Section 3.2).
///
/// Each variant owns a calibrated [`BenchmarkProfile`]. The aggregate
/// classes follow Table 2:
///
/// * very high CPU / very low memory: `crafty`, `facerec`, `sixtrack`,
///   `gap`, `perlbmk`, `wupwise`
/// * high CPU / low memory: `gcc`, `mesa`, `vortex`
/// * low CPU / high memory: `ammp`
/// * very low CPU / very high memory: `art`, `mcf`
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // the variants are the benchmark names themselves
pub enum SpecBenchmark {
    Ammp,
    Art,
    Crafty,
    Facerec,
    Gap,
    Gcc,
    Mcf,
    Mesa,
    Perlbmk,
    Sixtrack,
    Vortex,
    Wupwise,
}

impl SpecBenchmark {
    /// All 12 benchmarks in alphabetical order.
    pub const ALL: [SpecBenchmark; 12] = [
        SpecBenchmark::Ammp,
        SpecBenchmark::Art,
        SpecBenchmark::Crafty,
        SpecBenchmark::Facerec,
        SpecBenchmark::Gap,
        SpecBenchmark::Gcc,
        SpecBenchmark::Mcf,
        SpecBenchmark::Mesa,
        SpecBenchmark::Perlbmk,
        SpecBenchmark::Sixtrack,
        SpecBenchmark::Vortex,
        SpecBenchmark::Wupwise,
    ];

    /// The benchmark's lower-case name as the paper writes it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpecBenchmark::Ammp => "ammp",
            SpecBenchmark::Art => "art",
            SpecBenchmark::Crafty => "crafty",
            SpecBenchmark::Facerec => "facerec",
            SpecBenchmark::Gap => "gap",
            SpecBenchmark::Gcc => "gcc",
            SpecBenchmark::Mcf => "mcf",
            SpecBenchmark::Mesa => "mesa",
            SpecBenchmark::Perlbmk => "perlbmk",
            SpecBenchmark::Sixtrack => "sixtrack",
            SpecBenchmark::Vortex => "vortex",
            SpecBenchmark::Wupwise => "wupwise",
        }
    }

    /// Looks a benchmark up by name.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::UnknownBenchmark`] for names outside the suite.
    pub fn from_name(name: &str) -> Result<Self> {
        Self::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| GpmError::UnknownBenchmark(name.to_owned()))
    }

    /// The calibrated profile for this benchmark.
    ///
    /// Region length: each profile's `total_instructions` is sized so the
    /// benchmark's native Turbo execution lasts roughly 40–60 ms at 1 GHz —
    /// long enough to cover the paper's Figure 3/6 timelines and several
    /// phase periods.
    #[must_use]
    pub fn profile(self) -> BenchmarkProfile {
        let kib = 1024u64;
        let mib = 1024 * kib;
        match self {
            // --- very low CPU, very high memory utilisation ---
            SpecBenchmark::Mcf => BenchmarkProfile {
                name: "mcf".into(),
                suite: Suite::Int,
                mix: InstructionMix {
                    int_alu: 0.36,
                    fp_alu: 0.0,
                    load: 0.38,
                    store: 0.09,
                    branch: 0.17,
                },
                memory: MemoryProfile {
                    hot: 0.56,
                    warm: 0.32,
                    hot_bytes: 16 * kib,
                    warm_bytes: mib,
                    cold_bytes: 192 * mib,
                    pointer_chase: 0.60,
                    jump_probability: 0.30,
                },
                branches: BranchProfile {
                    sites: 24,
                    random_fraction: 0.15,
                    taken_bias: 0.6,
                },
                code: CodeProfile {
                    loop_body_ops: 120,
                    regions: 6,
                    region_residency_ops: 200_000,
                },
                phases: PhaseProfile {
                    period_instructions: 3_000_000,
                    memory_duty: 0.6,
                    intensity: 0.05,
                },
                dep_probability: 0.45,
                total_instructions: 14_000_000,
                seed: 0x6d63_6601,
            },
            SpecBenchmark::Art => BenchmarkProfile {
                name: "art".into(),
                suite: Suite::Fp,
                mix: InstructionMix {
                    int_alu: 0.22,
                    fp_alu: 0.24,
                    load: 0.34,
                    store: 0.08,
                    branch: 0.12,
                },
                memory: MemoryProfile {
                    hot: 0.62,
                    warm: 0.32,
                    hot_bytes: 16 * kib,
                    warm_bytes: mib,
                    cold_bytes: 64 * mib,
                    pointer_chase: 0.45,
                    jump_probability: 0.30,
                },
                branches: BranchProfile {
                    sites: 10,
                    random_fraction: 0.06,
                    taken_bias: 0.7,
                },
                code: CodeProfile {
                    loop_body_ops: 80,
                    regions: 4,
                    region_residency_ops: 400_000,
                },
                phases: PhaseProfile {
                    period_instructions: 5_000_000,
                    memory_duty: 0.55,
                    intensity: 0.18,
                },
                dep_probability: 0.40,
                total_instructions: 25_000_000,
                seed: 0x6172_7401,
            },
            // --- low CPU, high memory utilisation ---
            SpecBenchmark::Ammp => BenchmarkProfile {
                name: "ammp".into(),
                suite: Suite::Fp,
                mix: InstructionMix {
                    int_alu: 0.20,
                    fp_alu: 0.32,
                    load: 0.30,
                    store: 0.08,
                    branch: 0.10,
                },
                memory: MemoryProfile {
                    hot: 0.70,
                    warm: 0.285,
                    hot_bytes: 16 * kib,
                    warm_bytes: mib,
                    cold_bytes: 48 * mib,
                    pointer_chase: 0.30,
                    jump_probability: 0.25,
                },
                branches: BranchProfile {
                    sites: 12,
                    random_fraction: 0.05,
                    taken_bias: 0.75,
                },
                code: CodeProfile {
                    loop_body_ops: 160,
                    regions: 5,
                    region_residency_ops: 600_000,
                },
                phases: PhaseProfile {
                    period_instructions: 7_000_000,
                    memory_duty: 0.45,
                    intensity: 0.16,
                },
                dep_probability: 0.42,
                total_instructions: 45_000_000,
                seed: 0x616d_6d01,
            },
            // --- high CPU, low memory utilisation ---
            SpecBenchmark::Gcc => BenchmarkProfile {
                name: "gcc".into(),
                suite: Suite::Int,
                mix: InstructionMix {
                    int_alu: 0.42,
                    fp_alu: 0.0,
                    load: 0.28,
                    store: 0.12,
                    branch: 0.18,
                },
                memory: MemoryProfile {
                    hot: 0.85,
                    warm: 0.147,
                    hot_bytes: 24 * kib,
                    warm_bytes: mib,
                    cold_bytes: 32 * mib,
                    pointer_chase: 0.10,
                    jump_probability: 0.30,
                },
                branches: BranchProfile {
                    sites: 64,
                    random_fraction: 0.14,
                    taken_bias: 0.55,
                },
                code: CodeProfile {
                    loop_body_ops: 400,
                    regions: 24,
                    region_residency_ops: 60_000,
                },
                phases: PhaseProfile {
                    period_instructions: 4_000_000,
                    memory_duty: 0.35,
                    intensity: 0.008,
                },
                dep_probability: 0.55,
                total_instructions: 70_000_000,
                seed: 0x6763_6301,
            },
            SpecBenchmark::Mesa => BenchmarkProfile {
                name: "mesa".into(),
                suite: Suite::Fp,
                mix: InstructionMix {
                    int_alu: 0.30,
                    fp_alu: 0.25,
                    load: 0.25,
                    store: 0.10,
                    branch: 0.10,
                },
                memory: MemoryProfile {
                    hot: 0.90,
                    warm: 0.098,
                    hot_bytes: 24 * kib,
                    warm_bytes: 768 * kib,
                    cold_bytes: 16 * mib,
                    pointer_chase: 0.05,
                    jump_probability: 0.20,
                },
                branches: BranchProfile {
                    sites: 20,
                    random_fraction: 0.06,
                    taken_bias: 0.7,
                },
                code: CodeProfile {
                    loop_body_ops: 240,
                    regions: 8,
                    region_residency_ops: 150_000,
                },
                phases: PhaseProfile {
                    period_instructions: 6_000_000,
                    memory_duty: 0.3,
                    intensity: 0.004,
                },
                dep_probability: 0.50,
                total_instructions: 85_000_000,
                seed: 0x6d65_7301,
            },
            SpecBenchmark::Vortex => BenchmarkProfile {
                name: "vortex".into(),
                suite: Suite::Int,
                mix: InstructionMix {
                    int_alu: 0.40,
                    fp_alu: 0.0,
                    load: 0.30,
                    store: 0.14,
                    branch: 0.16,
                },
                memory: MemoryProfile {
                    hot: 0.87,
                    warm: 0.1275,
                    hot_bytes: 24 * kib,
                    warm_bytes: mib,
                    cold_bytes: 24 * mib,
                    pointer_chase: 0.08,
                    jump_probability: 0.25,
                },
                branches: BranchProfile {
                    sites: 48,
                    random_fraction: 0.09,
                    taken_bias: 0.6,
                },
                code: CodeProfile {
                    loop_body_ops: 320,
                    regions: 16,
                    region_residency_ops: 80_000,
                },
                phases: PhaseProfile {
                    period_instructions: 5_000_000,
                    memory_duty: 0.3,
                    intensity: 0.005,
                },
                dep_probability: 0.55,
                total_instructions: 80_000_000,
                seed: 0x766f_7201,
            },
            // --- very high CPU, very low memory utilisation ---
            SpecBenchmark::Crafty => BenchmarkProfile {
                name: "crafty".into(),
                suite: Suite::Int,
                mix: InstructionMix {
                    int_alu: 0.48,
                    fp_alu: 0.0,
                    load: 0.27,
                    store: 0.08,
                    branch: 0.17,
                },
                memory: MemoryProfile {
                    hot: 0.95,
                    warm: 0.049,
                    hot_bytes: 24 * kib,
                    warm_bytes: 512 * kib,
                    cold_bytes: 8 * mib,
                    pointer_chase: 0.02,
                    jump_probability: 0.30,
                },
                branches: BranchProfile {
                    sites: 56,
                    random_fraction: 0.12,
                    taken_bias: 0.5,
                },
                code: CodeProfile {
                    loop_body_ops: 280,
                    regions: 12,
                    region_residency_ops: 100_000,
                },
                phases: PhaseProfile::none(),
                dep_probability: 0.55,
                total_instructions: 95_000_000,
                seed: 0x6372_6101,
            },
            SpecBenchmark::Facerec => BenchmarkProfile {
                name: "facerec".into(),
                suite: Suite::Fp,
                mix: InstructionMix {
                    int_alu: 0.25,
                    fp_alu: 0.33,
                    load: 0.27,
                    store: 0.06,
                    branch: 0.09,
                },
                memory: MemoryProfile {
                    hot: 0.94,
                    warm: 0.0592,
                    hot_bytes: 24 * kib,
                    warm_bytes: 512 * kib,
                    cold_bytes: 8 * mib,
                    pointer_chase: 0.01,
                    jump_probability: 0.15,
                },
                branches: BranchProfile {
                    sites: 14,
                    random_fraction: 0.04,
                    taken_bias: 0.8,
                },
                code: CodeProfile {
                    loop_body_ops: 180,
                    regions: 6,
                    region_residency_ops: 250_000,
                },
                phases: PhaseProfile {
                    period_instructions: 8_000_000,
                    memory_duty: 0.25,
                    intensity: 0.002,
                },
                dep_probability: 0.50,
                total_instructions: 95_000_000,
                seed: 0x6661_6301,
            },
            SpecBenchmark::Sixtrack => BenchmarkProfile {
                name: "sixtrack".into(),
                suite: Suite::Fp,
                mix: InstructionMix {
                    int_alu: 0.22,
                    fp_alu: 0.40,
                    load: 0.24,
                    store: 0.06,
                    branch: 0.08,
                },
                memory: MemoryProfile {
                    hot: 0.96,
                    warm: 0.0396,
                    hot_bytes: 24 * kib,
                    warm_bytes: 256 * kib,
                    cold_bytes: 4 * mib,
                    pointer_chase: 0.0,
                    jump_probability: 0.10,
                },
                branches: BranchProfile {
                    sites: 8,
                    random_fraction: 0.01,
                    taken_bias: 0.9,
                },
                code: CodeProfile {
                    loop_body_ops: 140,
                    regions: 3,
                    region_residency_ops: 500_000,
                },
                phases: PhaseProfile::none(),
                dep_probability: 0.50,
                total_instructions: 115_000_000,
                seed: 0x7369_7801,
            },
            SpecBenchmark::Gap => BenchmarkProfile {
                name: "gap".into(),
                suite: Suite::Int,
                mix: InstructionMix {
                    int_alu: 0.47,
                    fp_alu: 0.0,
                    load: 0.28,
                    store: 0.10,
                    branch: 0.15,
                },
                memory: MemoryProfile {
                    hot: 0.94,
                    warm: 0.0585,
                    hot_bytes: 24 * kib,
                    warm_bytes: 512 * kib,
                    cold_bytes: 8 * mib,
                    pointer_chase: 0.03,
                    jump_probability: 0.25,
                },
                branches: BranchProfile {
                    sites: 32,
                    random_fraction: 0.07,
                    taken_bias: 0.65,
                },
                code: CodeProfile {
                    loop_body_ops: 220,
                    regions: 10,
                    region_residency_ops: 120_000,
                },
                phases: PhaseProfile::none(),
                dep_probability: 0.55,
                total_instructions: 95_000_000,
                seed: 0x6761_7001,
            },
            SpecBenchmark::Perlbmk => BenchmarkProfile {
                name: "perlbmk".into(),
                suite: Suite::Int,
                mix: InstructionMix {
                    int_alu: 0.45,
                    fp_alu: 0.0,
                    load: 0.28,
                    store: 0.11,
                    branch: 0.16,
                },
                memory: MemoryProfile {
                    hot: 0.95,
                    warm: 0.049,
                    hot_bytes: 24 * kib,
                    warm_bytes: 512 * kib,
                    cold_bytes: 8 * mib,
                    pointer_chase: 0.02,
                    jump_probability: 0.25,
                },
                branches: BranchProfile {
                    sites: 40,
                    random_fraction: 0.08,
                    taken_bias: 0.6,
                },
                code: CodeProfile {
                    loop_body_ops: 260,
                    regions: 14,
                    region_residency_ops: 90_000,
                },
                phases: PhaseProfile::none(),
                dep_probability: 0.55,
                total_instructions: 95_000_000,
                seed: 0x7065_7201,
            },
            SpecBenchmark::Wupwise => BenchmarkProfile {
                name: "wupwise".into(),
                suite: Suite::Fp,
                mix: InstructionMix {
                    int_alu: 0.24,
                    fp_alu: 0.36,
                    load: 0.26,
                    store: 0.07,
                    branch: 0.07,
                },
                memory: MemoryProfile {
                    hot: 0.93,
                    warm: 0.068,
                    hot_bytes: 24 * kib,
                    warm_bytes: 512 * kib,
                    cold_bytes: 8 * mib,
                    pointer_chase: 0.0,
                    jump_probability: 0.15,
                },
                branches: BranchProfile {
                    sites: 10,
                    random_fraction: 0.03,
                    taken_bias: 0.85,
                },
                code: CodeProfile {
                    loop_body_ops: 200,
                    regions: 4,
                    region_residency_ops: 400_000,
                },
                phases: PhaseProfile {
                    period_instructions: 10_000_000,
                    memory_duty: 0.2,
                    intensity: 0.004,
                },
                dep_probability: 0.50,
                total_instructions: 100_000_000,
                seed: 0x7775_7001,
            },
        }
    }

    /// Shortcut: builds the canonical stream of this benchmark's profile.
    /// Infallible: the built-in profiles are valid by construction.
    #[must_use]
    pub fn stream(self) -> WorkloadStream {
        self.profile()
            .stream()
            .expect("built-in profiles are valid")
    }

    /// Table 2's utilisation class for this benchmark.
    #[must_use]
    pub fn utilization_class(self) -> UtilizationClass {
        use SpecBenchmark::*;
        match self {
            Art | Mcf => UtilizationClass::VeryLowCpu,
            Ammp => UtilizationClass::LowCpu,
            Gcc | Mesa | Vortex => UtilizationClass::HighCpu,
            Crafty | Facerec | Sixtrack | Gap | Perlbmk | Wupwise => UtilizationClass::VeryHighCpu,
        }
    }
}

impl std::fmt::Display for SpecBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        for b in SpecBenchmark::ALL {
            b.profile()
                .validate()
                .unwrap_or_else(|e| panic!("{b}: {e}"));
        }
    }

    #[test]
    fn names_roundtrip() {
        for b in SpecBenchmark::ALL {
            assert_eq!(SpecBenchmark::from_name(b.name()).unwrap(), b);
        }
        assert!(matches!(
            SpecBenchmark::from_name("quake"),
            Err(GpmError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn suites_match_table2() {
        use SpecBenchmark::*;
        for (b, suite) in [
            (Ammp, Suite::Fp),
            (Art, Suite::Fp),
            (Gcc, Suite::Int),
            (Mesa, Suite::Fp),
            (Crafty, Suite::Int),
            (Facerec, Suite::Fp),
            (Mcf, Suite::Int),
            (Sixtrack, Suite::Fp),
            (Gap, Suite::Int),
            (Perlbmk, Suite::Int),
            (Wupwise, Suite::Fp),
            (Vortex, Suite::Int),
        ] {
            assert_eq!(b.profile().suite, suite, "{b}");
        }
    }

    #[test]
    fn memory_cold_complement() {
        let m = SpecBenchmark::Mcf.profile().memory;
        assert!((m.cold() - (1.0 - m.hot - m.warm)).abs() < 1e-12);
        assert!(m.cold() > 0.08, "mcf misses a lot");
        let s = SpecBenchmark::Sixtrack.profile().memory;
        assert!(s.cold() < 0.01, "sixtrack almost never misses");
    }

    #[test]
    fn mix_validation_rejects_bad_sum() {
        let mut p = SpecBenchmark::Gcc.profile();
        p.mix.int_alu += 0.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let mut p = SpecBenchmark::Gcc.profile();
        p.dep_probability = 1.5;
        assert!(p.validate().is_err());
        let mut p = SpecBenchmark::Gcc.profile();
        p.memory.hot = 0.9;
        p.memory.warm = 0.3;
        assert!(p.validate().is_err());
        let mut p = SpecBenchmark::Gcc.profile();
        p.total_instructions = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_code_layout_past_32_bits() {
        let code_err = |p: &BenchmarkProfile| {
            matches!(
                p.validate(),
                Err(GpmError::InvalidConfig {
                    parameter: "code",
                    ..
                })
            )
        };
        // 0x40_0000 + 32_735 * 0x2_0000 + 32_767 * 4 = 0xffff_fffc.
        let mut p = SpecBenchmark::Gcc.profile();
        p.code.regions = 32_736;
        p.code.loop_body_ops = 32_768;
        assert!(p.validate().is_ok());
        p.code.loop_body_ops = 32_769;
        assert!(code_err(&p));
        p.code.loop_body_ops = 32_768;
        p.code.regions = 32_737;
        assert!(code_err(&p));
        p.code.regions = u32::MAX;
        p.code.loop_body_ops = u32::MAX;
        assert!(code_err(&p));
        assert!(p.stream().is_err());
    }

    #[test]
    fn utilization_classes_match_table2() {
        use SpecBenchmark::*;
        assert_eq!(Mcf.utilization_class(), UtilizationClass::VeryLowCpu);
        assert_eq!(Art.utilization_class(), UtilizationClass::VeryLowCpu);
        assert_eq!(Ammp.utilization_class(), UtilizationClass::LowCpu);
        assert_eq!(Gcc.utilization_class(), UtilizationClass::HighCpu);
        assert_eq!(Sixtrack.utilization_class(), UtilizationClass::VeryHighCpu);
        // Ordered by CPU-boundedness.
        assert!(Sixtrack.utilization_class() > Mcf.utilization_class());
        assert!(Gcc.utilization_class() > Ammp.utilization_class());
        assert!(UtilizationClass::VeryHighCpu
            .to_string()
            .contains("very high CPU"));
    }

    #[test]
    fn seeds_are_distinct() {
        let mut seeds: Vec<u64> = SpecBenchmark::ALL
            .iter()
            .map(|b| b.profile().seed)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12);
    }

    #[test]
    fn memory_bound_benchmarks_are_shorter() {
        // Low-IPC benchmarks get fewer instructions so that wall-clock
        // region lengths stay comparable (the CMP run ends when the first
        // benchmark finishes).
        let mcf = SpecBenchmark::Mcf.profile().total_instructions;
        let six = SpecBenchmark::Sixtrack.profile().total_instructions;
        assert!(mcf * 4 < six);
    }
}

//! Core and memory-hierarchy configuration (Table 1 of the paper).

use gpm_types::{GpmError, Hertz, Result};
use serde::{Deserialize, Serialize};

use crate::{CacheConfig, MicroOp, PredictorConfig};

/// Latencies of the asynchronous (non-core-clock) part of the hierarchy.
///
/// The paper's Table 1 gives L2 and memory latencies in cycles at the nominal
/// clock; we store them in nanoseconds so that they stay constant under DVFS
/// and are re-expressed in core cycles per mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Shared L2 unified cache access latency in nanoseconds (9 cycles at
    /// 1 GHz nominal).
    pub l2_latency_ns: f64,
    /// Main-memory access latency in nanoseconds (77 cycles at 1 GHz
    /// nominal).
    pub memory_latency_ns: f64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self {
            l2_latency_ns: 9.0,
            memory_latency_ns: 77.0,
        }
    }
}

/// Full configuration of one core plus its memory hierarchy, mirroring the
/// paper's Table 1 design parameters.
///
/// Use [`CoreConfig::power4`] for the exact paper configuration; individual
/// fields can be adjusted afterwards for sensitivity studies.
///
/// # Examples
///
/// ```
/// let mut cfg = gpm_microarch::CoreConfig::power4();
/// assert_eq!(cfg.dispatch_width, 5);
/// cfg.rob_size = 128; // ablation: smaller window
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Instructions dispatched per cycle (Table 1: 5).
    pub dispatch_width: u32,
    /// Reorder-buffer window bounding in-flight instructions. Table 1 lists
    /// a 256-entry instruction queue; the window also caps memory-level
    /// parallelism. Must stay below [`MicroOp::MAX_DEP`].
    pub rob_size: usize,
    /// Number of load/store units (Table 1: 2 LSU).
    pub lsu_count: usize,
    /// Number of fixed-point units (Table 1: 2 FXU).
    pub fxu_count: usize,
    /// Number of floating-point units (Table 1: 2 FPU).
    pub fpu_count: usize,
    /// Number of branch units (Table 1: 1 BRU).
    pub bru_count: usize,
    /// Fixed-point operation latency in core cycles.
    pub fxu_latency: u64,
    /// Floating-point operation latency in core cycles (pipelined).
    pub fpu_latency: u64,
    /// Pipeline-refill penalty after a branch misprediction, in core cycles.
    pub mispredict_penalty: u64,
    /// L1 data cache (Table 1: 32 KB, 2-way, 128 B blocks, 1-cycle).
    pub l1d: CacheConfig,
    /// L1 instruction cache (Table 1: 64 KB, 2-way, 128 B blocks, 1-cycle).
    pub l1i: CacheConfig,
    /// Unified L2 (Table 1: 2 MB, 4-way LRU, 128 B blocks, 9-cycle).
    pub l2: CacheConfig,
    /// L1 hit latency in core cycles.
    pub l1_latency: u64,
    /// Extra load-to-use bubble in core cycles beyond the L1 array access:
    /// address generation and forwarding through the deep POWER4-class
    /// pipeline. Consumers of a load observe `l1_latency +
    /// load_use_penalty` (+ the miss latency, if any).
    pub load_use_penalty: u64,
    /// Asynchronous-domain latencies (L2, memory) in nanoseconds.
    pub memory: MemoryConfig,
    /// Branch predictor configuration (Table 1: 16K bimodal + 16K gshare +
    /// 16K selector).
    pub predictor: PredictorConfig,
    /// Hardware stream-prefetcher streams; 0 disables it. The paper's
    /// Table 1 lists no prefetcher, so the default is 0 (the real POWER4
    /// had 8 streams — enable for sensitivity studies).
    pub prefetch_streams: usize,
    /// Nominal (Turbo) clock frequency. 1 GHz matches the paper's
    /// "100K cycles ≈ 100 µs" DVFS-granularity arithmetic.
    pub nominal_frequency: Hertz,
}

impl CoreConfig {
    /// The paper's POWER4-like configuration (Table 1).
    #[must_use]
    pub fn power4() -> Self {
        Self {
            dispatch_width: 5,
            rob_size: 256,
            lsu_count: 2,
            fxu_count: 2,
            fpu_count: 2,
            bru_count: 1,
            fxu_latency: 1,
            fpu_latency: 4,
            mispredict_penalty: 12,
            l1d: CacheConfig::new(32 * 1024, 2, 128),
            l1i: CacheConfig::new(64 * 1024, 2, 128),
            l2: CacheConfig::new(2 * 1024 * 1024, 4, 128),
            l1_latency: 1,
            load_use_penalty: 2,
            memory: MemoryConfig::default(),
            predictor: PredictorConfig::default(),
            prefetch_streams: 0,
            nominal_frequency: Hertz::from_ghz(1.0),
        }
    }

    /// Checks internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] when a parameter is zero or
    /// otherwise unusable.
    pub fn validate(&self) -> Result<()> {
        if self.dispatch_width == 0 {
            return Err(GpmError::InvalidConfig {
                parameter: "dispatch_width",
                reason: "must be at least 1".into(),
            });
        }
        if self.rob_size == 0 {
            return Err(GpmError::InvalidConfig {
                parameter: "rob_size",
                reason: "must be at least 1".into(),
            });
        }
        // A dependency distance saturated at `MAX_DEP` must fall outside
        // the window, as the longer distance it stands for would.
        if self.rob_size >= usize::from(MicroOp::MAX_DEP) {
            return Err(GpmError::InvalidConfig {
                parameter: "rob_size",
                reason: format!(
                    "{} is not below the largest dependency distance {}",
                    self.rob_size,
                    MicroOp::MAX_DEP
                ),
            });
        }
        for (name, count) in [
            ("lsu_count", self.lsu_count),
            ("fxu_count", self.fxu_count),
            ("fpu_count", self.fpu_count),
            ("bru_count", self.bru_count),
        ] {
            if count == 0 {
                return Err(GpmError::InvalidConfig {
                    parameter: name,
                    reason: "functional unit counts must be at least 1".into(),
                });
            }
        }
        if self.nominal_frequency.value() <= 0.0 {
            return Err(GpmError::InvalidConfig {
                parameter: "nominal_frequency",
                reason: "must be positive".into(),
            });
        }
        if self.memory.l2_latency_ns <= 0.0 || self.memory.memory_latency_ns <= 0.0 {
            return Err(GpmError::InvalidConfig {
                parameter: "memory",
                reason: "latencies must be positive".into(),
            });
        }
        for (name, cache) in [("l1d", &self.l1d), ("l1i", &self.l1i), ("l2", &self.l2)] {
            cache.validate().map_err(|reason| GpmError::InvalidConfig {
                parameter: name,
                reason,
            })?;
        }
        self.predictor
            .validate()
            .map_err(|reason| GpmError::InvalidConfig {
                parameter: "predictor",
                reason,
            })?;
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::power4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power4_matches_table1() {
        let c = CoreConfig::power4();
        assert_eq!(c.dispatch_width, 5);
        assert_eq!(c.rob_size, 256);
        assert_eq!(
            (c.lsu_count, c.fxu_count, c.fpu_count, c.bru_count),
            (2, 2, 2, 1)
        );
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l1i.size_bytes, 64 * 1024);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2.ways, 4);
        assert_eq!(c.l1d.block_bytes, 128);
        // 9 / 77 cycles at the 1 GHz nominal clock.
        assert_eq!(c.nominal_frequency.cycles_for_ns(c.memory.l2_latency_ns), 9);
        assert_eq!(
            c.nominal_frequency
                .cycles_for_ns(c.memory.memory_latency_ns),
            77
        );
        c.validate().unwrap();
    }

    #[test]
    fn default_is_power4() {
        assert_eq!(CoreConfig::default(), CoreConfig::power4());
    }

    #[test]
    fn validate_rejects_zero_width() {
        let mut c = CoreConfig::power4();
        c.dispatch_width = 0;
        assert!(matches!(
            c.validate(),
            Err(GpmError::InvalidConfig {
                parameter: "dispatch_width",
                ..
            })
        ));
    }

    #[test]
    fn validate_caps_rob_below_the_distance_limit() {
        let mut c = CoreConfig::power4();
        c.rob_size = usize::from(MicroOp::MAX_DEP) - 1;
        assert!(c.validate().is_ok());
        for rob_size in [usize::from(MicroOp::MAX_DEP), usize::MAX] {
            c.rob_size = rob_size;
            assert!(matches!(
                c.validate(),
                Err(GpmError::InvalidConfig {
                    parameter: "rob_size",
                    ..
                })
            ));
        }
    }

    #[test]
    fn validate_rejects_zero_units() {
        let mut c = CoreConfig::power4();
        c.bru_count = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_memory() {
        let mut c = CoreConfig::power4();
        c.memory.memory_latency_ns = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_predictor() {
        // A degenerate predictor table must surface as a typed
        // configuration error from validation, before any core is built.
        let mut c = CoreConfig::power4();
        c.predictor.bimodal_entries = 1000;
        assert!(matches!(
            c.validate(),
            Err(GpmError::InvalidConfig {
                parameter: "predictor",
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_bad_cache() {
        let mut c = CoreConfig::power4();
        c.l1d.ways = 0;
        assert!(matches!(
            c.validate(),
            Err(GpmError::InvalidConfig {
                parameter: "l1d",
                ..
            })
        ));
    }
}

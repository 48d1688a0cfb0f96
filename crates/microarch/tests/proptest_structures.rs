//! Property tests over the microarchitectural structures: cache residency
//! and LRU behaviour, predictor bounds, and timing-model sanity.

use gpm_microarch::{
    BranchPredictor, CacheConfig, CoreConfig, CoreModel, InstructionSource, MicroOp,
    PredictorConfig, SetAssocCache,
};
use gpm_types::Hertz;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An accessed address is always resident immediately afterwards, and
    /// the miss counter never exceeds the access counter.
    #[test]
    fn cache_access_installs_line(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cache = SetAssocCache::new(CacheConfig::new(4096, 2, 64)).unwrap();
        for &addr in &addrs {
            let _ = cache.access(addr);
            prop_assert!(cache.contains(addr));
        }
        prop_assert!(cache.misses() <= cache.accesses());
        prop_assert_eq!(cache.accesses(), addrs.len() as u64);
        prop_assert!((0.0..=1.0).contains(&cache.miss_rate()));
    }

    /// Within one set, the `ways` most recently touched distinct lines are
    /// all resident (true-LRU guarantee).
    #[test]
    fn lru_keeps_most_recent_ways(tags in prop::collection::vec(0u64..64, 2..100)) {
        // Single-set cache: 2 ways × 64 B.
        let mut cache = SetAssocCache::new(CacheConfig::new(128, 2, 64)).unwrap();
        let mut recent: Vec<u64> = Vec::new();
        for &tag in &tags {
            let addr = tag * 64 * 2; // same set (set bits at zero)... single set anyway
            let _ = cache.access(addr);
            recent.retain(|&t| t != tag);
            recent.push(tag);
            if recent.len() > 2 {
                recent.remove(0);
            }
            for &t in &recent {
                prop_assert!(cache.contains(t * 64 * 2), "tag {t} evicted too early");
            }
        }
    }

    /// Predictor mispredict counts are bounded by prediction counts, and a
    /// perfectly-biased branch converges to ~zero mispredicts.
    #[test]
    fn predictor_bounds(outcomes in prop::collection::vec(any::<bool>(), 1..500)) {
        let mut bp = BranchPredictor::new(PredictorConfig::default()).unwrap();
        for &taken in &outcomes {
            let _ = bp.predict_and_update(0x4000, taken);
        }
        prop_assert!(bp.mispredictions() <= bp.predictions());
        prop_assert_eq!(bp.predictions(), outcomes.len() as u64);
    }

    /// The timing model never commits more instructions per cycle than the
    /// dispatch width allows, never zero for a non-empty run, and IPC stays
    /// within physical limits for any op mix.
    #[test]
    fn core_model_ipc_is_physical(
        kinds in prop::collection::vec(0u8..5, 50..500),
        seed in any::<u64>(),
    ) {
        struct Mix {
            kinds: Vec<u8>,
            i: usize,
            x: u64,
        }
        impl InstructionSource for Mix {
            fn next_op(&mut self) -> MicroOp {
                let k = self.kinds[self.i % self.kinds.len()];
                self.i += 1;
                self.x = self.x.wrapping_mul(6364136223846793005).wrapping_add(1);
                match k {
                    0 => MicroOp::int_alu(None),
                    1 => MicroOp::fp_alu(Some(1)),
                    2 => MicroOp::load(self.x % (1 << 22), None),
                    3 => MicroOp::store(self.x % (1 << 22), None),
                    _ => MicroOp::branch(0x100 + (self.x % 16) * 4, self.x & 2 == 0),
                }
            }
        }
        let config = CoreConfig::power4();
        let mut core = CoreModel::new(&config, Hertz::from_ghz(1.0)).unwrap();
        let mut src = Mix { kinds, i: 0, x: seed | 1 };
        let stats = core.run_cycles(&mut src, 20_000);
        prop_assert!(stats.instructions > 0);
        prop_assert!(stats.cycles >= 20_000);
        prop_assert!(stats.ipc() <= f64::from(config.dispatch_width) + 1e-9);
        prop_assert!(stats.busy_cycles <= stats.cycles);
        prop_assert!(stats.l1d_misses <= stats.l1d_accesses);
        prop_assert!(stats.l2_misses <= stats.l2_accesses);
        prop_assert!(stats.mispredictions <= stats.branches);
    }

    /// Slowing the clock never *increases* wall-clock throughput.
    #[test]
    fn lower_frequency_never_faster(seed in any::<u64>()) {
        struct Rand { x: u64 }
        impl InstructionSource for Rand {
            fn next_op(&mut self) -> MicroOp {
                self.x = self.x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                match self.x % 4 {
                    0 => MicroOp::int_alu(Some(1)),
                    1 => MicroOp::load(self.x % (1 << 24), Some(1)),
                    2 => MicroOp::fp_alu(None),
                    _ => MicroOp::int_alu(None),
                }
            }
        }
        let config = CoreConfig::power4();
        let ips = |ghz: f64| {
            let mut core = CoreModel::new(&config, Hertz::from_ghz(ghz)).unwrap();
            let mut src = Rand { x: seed | 1 };
            let stats = core.run_cycles(&mut src, 300_000);
            stats.instructions as f64 / (stats.cycles as f64 / (ghz * 1e9))
        };
        let fast = ips(1.0);
        let slow = ips(0.85);
        prop_assert!(slow <= fast * 1.02, "slow {slow} vs fast {fast}");
    }
}

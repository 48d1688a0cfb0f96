//! Property tests over the synthetic workload streams.

use gpm_microarch::{InstructionSource, OpKind};
use gpm_workloads::SpecBenchmark;
use proptest::prelude::*;

fn bench_from(idx: usize) -> SpecBenchmark {
    SpecBenchmark::ALL[idx % SpecBenchmark::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Streams are deterministic: two instances with identical parameters
    /// produce identical prefixes of any length.
    #[test]
    fn determinism(idx in 0usize..12, n in 1usize..5000, salt in any::<u64>()) {
        let p = bench_from(idx).profile();
        let mut a = p.stream_with(0, salt).unwrap();
        let mut b = p.stream_with(0, salt).unwrap();
        for _ in 0..n {
            prop_assert_eq!(a.next_op(), b.next_op());
        }
        prop_assert_eq!(a.generated(), n as u64);
    }

    /// Address bases partition cores: streams with different bases never
    /// touch each other's data regions.
    #[test]
    fn address_bases_partition(idx in 0usize..12, core_a in 0u64..4, core_b in 4u64..8) {
        let p = bench_from(idx).profile();
        let stride = 1u64 << 36;
        let collect = |base: u64| {
            let mut s = p.stream_with(base * stride, base).unwrap();
            let mut addrs = Vec::new();
            for _ in 0..2000 {
                if let OpKind::Load { addr } | OpKind::Store { addr } = s.next_op().kind() {
                    addrs.push(addr);
                }
            }
            addrs
        };
        let a = collect(core_a);
        let b = collect(core_b);
        for addr in &a {
            prop_assert!(addr / stride == core_a, "{addr:#x} outside slice {core_a}");
        }
        for addr in &b {
            prop_assert!(addr / stride == core_b);
        }
    }

    /// Dependencies always point backwards to existing ops and stay within
    /// a plausible window.
    #[test]
    fn dependencies_are_well_formed(idx in 0usize..12) {
        let mut s = bench_from(idx).stream();
        for i in 0u64..20_000 {
            let op = s.next_op();
            if let Some(dep) = op.dep() {
                prop_assert!(u64::from(dep) <= i.max(1), "op {i} depends {dep} back");
                prop_assert!(dep > 0);
            }
        }
    }

    /// Instruction mixes stay within ±2% of the profile over long windows,
    /// for every benchmark.
    #[test]
    fn mix_converges(idx in 0usize..12) {
        let bench = bench_from(idx);
        let p = bench.profile();
        let mut s = bench.stream();
        let n = 100_000;
        let (mut loads, mut stores, mut branches) = (0u64, 0u64, 0u64);
        for _ in 0..n {
            match s.next_op().kind() {
                OpKind::Load { .. } => loads += 1,
                OpKind::Store { .. } => stores += 1,
                OpKind::Branch { .. } => branches += 1,
                _ => {}
            }
        }
        let f = |c: u64| c as f64 / n as f64;
        prop_assert!((f(loads) - p.mix.load).abs() < 0.02, "{bench}: loads {}", f(loads));
        prop_assert!((f(stores) - p.mix.store).abs() < 0.02);
        prop_assert!((f(branches) - p.mix.branch).abs() < 0.02);
    }
}

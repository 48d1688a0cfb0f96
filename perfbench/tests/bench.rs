//! The benchmark's own tests: every workload in quick mode, failed-op
//! accounting, seeded generation and agreement with `BENCHMARK.json`.

use gpm_core::FleetStats;
use gpm_perfbench::fleet::{check_counts, Fleet, CHECK_EVERY, NODES, WARM_TICKS};
use gpm_perfbench::span::Tracer;
use gpm_perfbench::{
    gen, measure, run, RunConfig, Workload, BLOCK, END_TO_END, PER_LAYER, WORKLOADS,
};
use gpm_types::PowerMode;

/// Two ops, or two blocks when traced (the second block is the traced
/// one).
fn quick(workload: &str, seed: u64, trace: bool) -> gpm_perfbench::RunReport {
    run(&RunConfig {
        workload: workload.into(),
        seed,
        seconds: 600.0,
        trace,
        max_ops: Some(if trace { 2 * BLOCK } else { 2 }),
    })
    .expect("set-up succeeds")
}

fn names(metrics: &[gpm_perfbench::Metric]) -> Vec<&str> {
    metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_runs_clean_in_quick_mode() {
    for workload in WORKLOADS {
        let plain = quick(workload, 7, false);
        assert_eq!(
            (plain.attempted, plain.failed),
            (2, 0),
            "{workload}: {:?}",
            plain.first_failure
        );
        assert_eq!(
            names(&plain.metrics),
            END_TO_END.map(|(n, _)| n),
            "{workload}"
        );
        assert!(
            plain
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{workload}: {:?}",
            plain.metrics
        );
        let traced = quick(workload, 7, true);
        assert_eq!(
            (traced.attempted, traced.failed),
            (2 * BLOCK, 0),
            "{workload}"
        );
        assert_eq!(
            names(&traced.metrics),
            PER_LAYER.map(|(n, _)| n),
            "{workload}"
        );
        assert!(!traced.spans_tsv.is_empty(), "{workload}");
    }
}

#[test]
fn runs_of_one_seed_report_the_same_digest() {
    for workload in WORKLOADS {
        assert_eq!(
            quick(workload, 3, false).digest,
            quick(workload, 3, false).digest,
            "{workload}"
        );
    }
    assert_ne!(
        quick("fleet_churn", 3, false).digest,
        quick("fleet_churn", 4, false).digest
    );
}

/// Runs the fleet's warm-up ticks and prepares and executes the first
/// measured tick, leaving it ready to verify.
fn fleet_after_one_tick() -> Fleet {
    let mut fleet = Fleet::new(5);
    let mut tracer = Tracer::new();
    for op in 0..=WARM_TICKS {
        fleet.prepare(op);
        fleet.execute(op, &mut tracer);
        if op < WARM_TICKS {
            fleet.verify(op).expect("warm-up tick is clean");
        }
    }
    fleet
}

#[test]
fn a_clean_tick_verifies() {
    let mut fleet = fleet_after_one_tick();
    assert_eq!(fleet.verify(WARM_TICKS), Ok(NODES));
}

/// Moves core 0 of `decision` to another mode.
fn corrupt(decision: &mut gpm_core::NodeDecision) {
    let core = gpm_types::CoreId::new(0);
    let other = if decision.modes.mode(core) == PowerMode::Turbo {
        PowerMode::Eff2
    } else {
        PowerMode::Turbo
    };
    decision.modes.set(core, other);
}

#[test]
fn a_decision_corrupted_on_the_wire_fails_the_op() {
    let mut fleet = fleet_after_one_tick();
    corrupt(&mut fleet.outputs_mut().1[123]);
    let err = fleet.verify(WARM_TICKS).expect_err("corruption is noticed");
    assert!(err.contains("decoded decisions differ"), "{err}");
}

#[test]
fn a_wrong_engine_decision_fails_the_op() {
    let mut fleet = fleet_after_one_tick();
    // An index the fresh-solve check covers at this tick.
    let checked = (WARM_TICKS % CHECK_EVERY + 3 * CHECK_EVERY) as usize;
    let (engine, client) = fleet.outputs_mut();
    corrupt(&mut engine[checked]);
    corrupt(&mut client[checked]);
    let err = fleet
        .verify(WARM_TICKS)
        .expect_err("the wrong decision is noticed");
    assert!(err.contains("fresh solve"), "{err}");
}

#[test]
fn a_missing_decision_fails_the_op() {
    let mut fleet = fleet_after_one_tick();
    fleet.outputs_mut().1.pop();
    let err = fleet.verify(WARM_TICKS).expect_err("a decision is missing");
    assert!(err.contains("decisions"), "{err}");
}

#[test]
fn wrong_counts_fail_the_op() {
    let before = FleetStats::default();
    let good = FleetStats {
        decisions_total: 10,
        cache_hits: 6,
        dedup_hits: 3,
        unique_solves: 1,
        ..FleetStats::default()
    };
    assert_eq!(check_counts(&before, &good, 10, 0, 0), Ok(()));
    let unbalanced = FleetStats {
        unique_solves: 2,
        ..good
    };
    assert!(check_counts(&before, &unbalanced, 10, 0, 0).is_err());
    assert!(check_counts(&before, &good, 11, 0, 0).is_err());
    assert!(check_counts(&before, &good, 10, 1, 0).is_err());
    assert!(check_counts(&before, &good, 10, 0, 1).is_err());
    let dropped = FleetStats {
        rejected_backpressure: 1,
        ..good
    };
    assert!(check_counts(&before, &dropped, 10, 0, 0).is_err());
}

/// Succeeds on even ops, fails on odd ones.
struct HalfBroken;

impl Workload for HalfBroken {
    fn prepare(&mut self, _op: u64) {}
    fn execute(&mut self, _op: u64, tracer: &mut Tracer) {
        tracer.span("half.work", |_| {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
    }
    fn verify(&mut self, op: u64) -> Result<u64, String> {
        if op.is_multiple_of(2) {
            Ok(10)
        } else {
            Err("odd op".into())
        }
    }
    fn mark(&mut self) {}
    fn layer_metrics(
        &self,
        _spans: &gpm_perfbench::span::SpanSummary,
    ) -> Vec<gpm_perfbench::Metric> {
        Vec::new()
    }
    fn digest(&self) -> u64 {
        0
    }
}

#[test]
fn failed_ops_are_counted_and_mark_the_result_incorrect() {
    let config = RunConfig {
        workload: "half_broken".into(),
        seed: 0,
        seconds: 600.0,
        trace: false,
        max_ops: Some(6),
    };
    let report = measure(Box::new(HalfBroken), 0, &[0.5], &config);
    assert_eq!((report.attempted, report.failed), (6, 3));
    assert!(report
        .to_json()
        .starts_with("{\"correct\": false, \"attempted\": 6, \"failed\": 3,"));
}

#[test]
fn generators_are_pure_in_seed_tick_and_node() {
    let picks =
        |seed| -> Vec<Option<f64>> { (0..NODES).map(|n| gen::churn_factor(seed, 9, n)).collect() };
    assert_eq!(picks(1), picks(1));
    assert_ne!(picks(1), picks(2));
    let churned: Vec<f64> = picks(1).into_iter().flatten().collect();
    let share = churned.len() as f64 / NODES as f64;
    assert!((0.09..0.11).contains(&share), "churn share {share}");
    assert!(churned.iter().all(|f| (0.75..0.95).contains(f)));

    // A block covers each fleet phase and each capture pair once.
    assert_eq!(gpm_core::fleet_load::PHASES as u64, BLOCK);
    assert_eq!(gpm_workloads::combos::two_way_suite().len() as u64, BLOCK);

    let order = gen::permutation(8, 4);
    assert_eq!(order, gen::permutation(8, 4));
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2, 3]);
    assert!((0..32).any(|seed| gen::permutation(seed, 4) != order));

    let (a, b) = (Fleet::new(4), Fleet::new(4));
    for (node, tick) in [(0, 0), (17, 3), (9_999, 41)] {
        assert_eq!(a.report(node, tick), b.report(node, tick));
    }
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = serde::json::parse(&text).expect("valid JSON");
    let list = |key: &str| {
        json.field(key)
            .expect(key)
            .as_array()
            .expect("a list")
            .to_vec()
    };
    let text_of = |item: &serde::json::Value, key: &str| {
        item.field(key)
            .expect(key)
            .as_str()
            .expect("a string")
            .to_owned()
    };
    let pairs = |key: &str| -> Vec<(String, String)> {
        list(key)
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect()
    };
    let expect = |metrics: &[(&str, &str)]| -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(pairs("end_to_end"), expect(&END_TO_END));
    assert_eq!(pairs("per_layer"), expect(&PER_LAYER));
    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

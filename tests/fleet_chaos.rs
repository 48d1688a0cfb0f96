//! The fleet engine's fault-tolerance contract:
//!
//! 1. **Fault-free transparency** — with the chaos layer compiled in and
//!    armed (a plan whose clauses never fire, degraded mode on, a
//!    generous rack budget), the engine's decision stream and accounting
//!    are bit-identical to the plain pre-hardening engine, across
//!    `GPM_THREADS ∈ {1, 2, 8}` and across the flat and hierarchical
//!    solve paths.
//! 2. **Recovery** — for randomised *windowed* fault schedules (propcheck
//!    over flap/skew/corrupt/timeout clauses), the service returns to a
//!    fully steady tick (every decision a cache or dedup hit, no
//!    fallbacks, drops or rejections) within one phase rotation plus one
//!    tick of the last faulted tick — and the whole faulted run is
//!    pool-width independent.
//! 3. **Checkpoint/restore** — a run interrupted mid-way, checkpointed
//!    through JSON, restored and resumed is bit-identical (decisions,
//!    cache entries and recency order, integer stats) to a run that never
//!    stopped, for every pool width; restoring under a different
//!    configuration or checkpoint version is refused.

use std::sync::Mutex;

use gpm::core::{
    FleetCheckpoint, FleetConfig, FleetEngine, FleetStats, NodeDecision, NodeTelemetry,
    PowerBipsMatrices,
};
use gpm::faults::{CorruptField, FleetFaultKind, FleetFaultPlan, IntervalWindow, NodeSet};
use gpm::types::{GpmError, ModeCombination, PowerMode, Watts};
use proptest::prelude::*;

/// `gpm::par::set_max_threads` is a process-global override; tests that
/// touch it must not interleave.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    gpm::par::set_max_threads(Some(n));
    let out = f();
    gpm::par::set_max_threads(None);
    out
}

/// Phases each node cycles through (shared key population: node `n` is at
/// phase `(tick + n) % PHASES`, so every phase key is exercised by some
/// node every tick).
const PHASES: u64 = 3;

/// Telemetry for a `cores`-way node at `tick`, with matrices that vary by
/// the node's current phase.
fn telemetry(node: u64, tick: u64, cores: usize) -> NodeTelemetry {
    let phase = (tick + node) % PHASES;
    let power: Vec<[f64; 3]> = (0..cores)
        .map(|i| {
            let t = 12.0 + ((i as u64 * 7 + phase * 5) % 11) as f64 * 1.3;
            [t, t * 0.55, t * 0.3]
        })
        .collect();
    let bips: Vec<[f64; 3]> = (0..cores)
        .map(|i| {
            let t = 0.4 + ((i as u64 * 5 + phase * 3) % 9) as f64 * 0.35;
            [t, t * 0.85, t * 0.7]
        })
        .collect();
    let budget = Watts::new(0.8 * power.iter().map(|row| row[0]).sum::<f64>());
    NodeTelemetry {
        node,
        tick,
        matrices: PowerBipsMatrices::from_rows(power, bips),
        current: ModeCombination::uniform(cores, PowerMode::Turbo),
        budget,
    }
}

/// Drives `nodes` nodes for `ticks` ticks, collecting the full decision
/// stream and per-tick stats snapshots.
fn drive(
    engine: &mut FleetEngine,
    nodes: u64,
    ticks: std::ops::Range<u64>,
    cores: usize,
) -> (Vec<Vec<NodeDecision>>, Vec<FleetStats>) {
    let mut decisions = Vec::new();
    let mut stats = Vec::new();
    for tick in ticks {
        for node in 0..nodes {
            engine.submit(telemetry(node, tick, cores));
        }
        decisions.push(engine.run_tick(tick));
        stats.push(engine.stats());
    }
    (decisions, stats)
}

/// The integer (wall-clock-free) accounting of a stats snapshot.
#[allow(clippy::type_complexity)]
fn integer_stats(s: FleetStats) -> [u64; 16] {
    [
        s.decisions_total,
        s.cache_hits,
        s.dedup_hits,
        s.unique_solves,
        s.dropped_stale,
        s.dropped_dark,
        s.rejected_backpressure,
        s.rejected_invalid,
        s.fallback_decisions,
        s.solver_timeouts,
        s.flap_drops,
        s.skew_delayed,
        s.corrupted_reports,
        s.shed_clamps,
        s.rack_violation_ticks,
        s.watchdog_clamp_ticks,
    ]
}

/// A per-tick stats delta is "steady" when every decision was a hit and
/// nothing was dropped, rejected, degraded or clamped.
fn tick_is_steady(now: FleetStats, before: FleetStats) -> bool {
    now.unique_solves == before.unique_solves
        && now.fallback_decisions == before.fallback_decisions
        && now.dropped_stale == before.dropped_stale
        && now.dropped_dark == before.dropped_dark
        && now.rejected_invalid == before.rejected_invalid
        && now.solver_timeouts == before.solver_timeouts
        && now.decisions_total > before.decisions_total
}

#[test]
fn fault_free_armed_engine_is_bit_identical_to_plain_across_widths() {
    let _guard = THREAD_OVERRIDE.lock().unwrap();
    // Clauses that can never fire: flap/corrupt on a node id that never
    // reports, a timeout window already in the past.
    let plan = FleetFaultPlan::none()
        .with(
            FleetFaultKind::NodeFlap { period: 2, down: 1 },
            NodeSet::Nodes(vec![999_983]),
            IntervalWindow::ALWAYS,
        )
        .with(
            FleetFaultKind::CorruptReport {
                field: CorruptField::Nan,
                rate: 1.0,
            },
            NodeSet::Nodes(vec![999_983]),
            IntervalWindow::ALWAYS,
        );
    // Flat (4-core) and hierarchical (16-core above an 8-core flat limit)
    // solve paths both stay transparent.
    for (cores, flat_core_limit) in [(4usize, 32usize), (16, 8)] {
        let armed_config = FleetConfig {
            flat_core_limit,
            faults: Some(plan.clone()),
            degraded: true,
            rack_budget: Some(Watts::new(1e12)),
            ..FleetConfig::default()
        };
        let plain_config = FleetConfig {
            flat_core_limit,
            ..FleetConfig::default()
        };
        let reference = with_threads(1, || {
            let mut engine = FleetEngine::new(plain_config.clone()).expect("valid config");
            drive(&mut engine, 10, 0..5, cores)
        });
        for width in [1usize, 2, 8] {
            let (decisions, stats) = with_threads(width, || {
                let mut engine = FleetEngine::new(armed_config.clone()).expect("valid config");
                drive(&mut engine, 10, 0..5, cores)
            });
            assert_eq!(
                decisions, reference.0,
                "armed decisions diverged ({cores}-core, {width} threads)"
            );
            let (a, p) = (
                integer_stats(*stats.last().unwrap()),
                integer_stats(*reference.1.last().unwrap()),
            );
            assert_eq!(a, p, "armed stats diverged ({cores}-core, {width} threads)");
        }
    }
}

/// One randomly drawn windowed fault clause. All windows close by
/// `LAST_FAULT_TICK + 1`.
const LAST_FAULT_TICK: u64 = 5;

/// The vendored proptest has no `prop_oneof!`, so variant selection is an
/// index draw mapped in code (same idiom as `tests/fault_invariants.rs`).
fn clause_strategy() -> impl Strategy<Value = (FleetFaultKind, NodeSet, IntervalWindow)> {
    (
        // kind selector, small integer (flap down), big integer (skew
        // ticks / flap period spread), rate
        (0usize..4, 1u64..=3, 1u64..=9, 0.2f64..1.0),
        // corrupt-field selector, node-set selector, anchor node id
        (0usize..3, 0usize..3, 0u64..8),
        // window start, window length
        (0usize..=2, 1usize..=LAST_FAULT_TICK as usize + 1),
    )
        .prop_map(
            |((which, small, big, rate), (fieldsel, nodesel, node), (from, len))| {
                let kind = match which {
                    0 => FleetFaultKind::NodeFlap {
                        period: small + big % 3,
                        down: small,
                    },
                    1 => FleetFaultKind::TickSkew { ticks: big },
                    2 => FleetFaultKind::CorruptReport {
                        field: match fieldsel {
                            0 => CorruptField::Nan,
                            1 => CorruptField::Negative,
                            _ => CorruptField::Shape,
                        },
                        rate,
                    },
                    _ => FleetFaultKind::SolverTimeout { rate },
                };
                let nodes = match nodesel {
                    0 => NodeSet::All,
                    1 => NodeSet::Nodes(vec![node]),
                    _ => NodeSet::Nodes(vec![node, (node + 3) % 8]),
                };
                let window = IntervalWindow {
                    from,
                    to: Some((from + len).min(LAST_FAULT_TICK as usize + 1)),
                };
                (kind, nodes, window)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any windowed fault schedule: the service reaches a fully steady
    /// tick within one phase rotation plus one tick of the last faulted
    /// tick, the accounting identity holds throughout, and the entire
    /// faulted run (decisions + integer stats) is pool-width independent.
    #[test]
    fn windowed_schedules_recover_and_are_pool_width_independent(
        clauses in prop::collection::vec(clause_strategy(), 1..=3),
        seed in 0u64..1_000,
    ) {
        let _guard = THREAD_OVERRIDE.lock().unwrap();
        let mut plan = FleetFaultPlan::none().seeded(seed);
        for (kind, nodes, window) in clauses {
            plan = plan.with(kind, nodes, window);
        }
        let config = FleetConfig {
            faults: Some(plan),
            degraded: true,
            ..FleetConfig::default()
        };
        // Recovery bound: every key a fault could have kept out of the
        // cache is re-solved within one full phase rotation after the
        // last faulted tick, so some tick in the window after that must
        // be fully steady.
        let ticks = LAST_FAULT_TICK + PHASES + 3;
        let reference = with_threads(1, || {
            let mut engine = FleetEngine::new(config.clone()).expect("valid config");
            drive(&mut engine, 8, 0..ticks, 4)
        });
        let (decisions, stats) = &reference;
        for (tick, s) in stats.iter().enumerate() {
            prop_assert_eq!(
                s.decisions_total,
                s.cache_hits + s.dedup_hits + s.unique_solves,
                "identity broken at tick {}", tick
            );
        }
        let steady = (LAST_FAULT_TICK as usize + 1..ticks as usize).any(|t| {
            tick_is_steady(stats[t], stats[t - 1])
        });
        prop_assert!(
            steady,
            "no steady tick within {} ticks of the last fault window",
            PHASES + 2
        );
        for width in [2usize, 8] {
            let wide = with_threads(width, || {
                let mut engine = FleetEngine::new(config.clone()).expect("valid config");
                drive(&mut engine, 8, 0..ticks, 4)
            });
            prop_assert_eq!(&wide.0, decisions, "decisions diverged at width {}", width);
            prop_assert_eq!(
                integer_stats(*wide.1.last().unwrap()),
                integer_stats(*stats.last().unwrap()),
                "stats diverged at width {}", width
            );
        }
    }
}

#[test]
fn checkpoint_restore_is_bit_identical_across_widths() {
    let _guard = THREAD_OVERRIDE.lock().unwrap();
    let plan = FleetFaultPlan::parse(
        "flap@2:period=3,down=1,from=2,to=8;corrupt@5:rate=0.7,from=0,to=9;timeout:rate=0.3,from=4,to=7",
    )
    .expect("spec parses");
    let config = FleetConfig {
        faults: Some(plan),
        degraded: true,
        rack_budget: Some(Watts::new(900.0)),
        ..FleetConfig::default()
    };

    // Reference: an uninterrupted width-1 run.
    let reference = with_threads(1, || {
        let mut engine = FleetEngine::new(config.clone()).expect("valid config");
        let out = drive(&mut engine, 8, 0..12, 4);
        (out.0, engine.stats(), engine.cache().snapshot())
    });

    for width in [1usize, 2, 8] {
        let (decisions, stats, snapshot) = with_threads(width, || {
            let mut first = FleetEngine::new(config.clone()).expect("valid config");
            let (mut decisions, _) = drive(&mut first, 8, 0..6, 4);
            // Round-trip the checkpoint through JSON: the serialized form
            // is the restart contract.
            let json = first.checkpoint().to_json();
            let checkpoint = FleetCheckpoint::from_json(&json).expect("roundtrips");
            assert_eq!(
                FleetCheckpoint::from_json(&checkpoint.to_json()).expect("stable"),
                checkpoint,
                "checkpoint JSON round-trip must be bit-identical"
            );
            let mut resumed = FleetEngine::restore(config.clone(), &checkpoint).expect("restores");
            let (rest, _) = drive(&mut resumed, 8, 6..12, 4);
            decisions.extend(rest);
            (decisions, resumed.stats(), resumed.cache().snapshot())
        });
        assert_eq!(
            decisions, reference.0,
            "decision stream diverged across restore at width {width}"
        );
        assert_eq!(
            integer_stats(stats),
            integer_stats(reference.1),
            "stats diverged across restore at width {width}"
        );
        assert_eq!(
            (&snapshot.problems, &snapshot.answers),
            (&reference.2.problems, &reference.2.answers),
            "cache answers/recency diverged across restore at width {width}"
        );
    }
}

#[test]
fn restore_refuses_foreign_configurations() {
    let config = FleetConfig::default();
    let mut engine = FleetEngine::new(config.clone()).expect("valid config");
    drive(&mut engine, 4, 0..2, 4);
    let checkpoint = engine.checkpoint();
    assert!(FleetEngine::restore(config.clone(), &checkpoint).is_ok());
    // Any decision-relevant knob difference is refused.
    for mutate in [
        |c: &mut FleetConfig| c.flat_core_limit = 2,
        |c: &mut FleetConfig| c.degraded = true,
        |c: &mut FleetConfig| c.rack_budget = Some(Watts::new(100.0)),
        |c: &mut FleetConfig| {
            c.faults = Some(FleetFaultPlan::parse("flap@0:period=2").expect("parses"));
        },
    ] {
        let mut other = config.clone();
        mutate(&mut other);
        assert!(
            FleetEngine::restore(other, &checkpoint).is_err(),
            "a mismatched config must be refused"
        );
    }
}

/// Checkpoint JSON after a few ticks of a degraded-mode engine, its
/// restore config, and `json` read back and restored under it.
fn tamper_fixture() -> (String, impl Fn(&str) -> gpm::types::Result<FleetEngine>) {
    let config = FleetConfig {
        degraded: true,
        ..FleetConfig::default()
    };
    let mut engine = FleetEngine::new(config.clone()).expect("valid config");
    drive(&mut engine, 4, 0..2, 4);
    let json = engine.checkpoint().to_json();
    let restore = move |json: &str| {
        FleetCheckpoint::from_json(json).and_then(|c| FleetEngine::restore(config.clone(), &c))
    };
    (json, restore)
}

/// A cached answer wider than its key's core count is refused on
/// restore; accepted, its first hit would index the key's matrices out of
/// bounds when the degraded path estimates its power.
#[test]
fn restore_refuses_an_answer_wider_than_its_key() {
    let (json, restore) = tamper_fixture();
    assert!(restore(&json).is_ok());
    let combo = "\"combo\":{\"modes\":[";
    assert!(json.contains(combo), "{json}");
    let tampered = json.replacen(combo, &format!("{combo}\"Turbo\","), 1);
    assert!(matches!(
        restore(&tampered),
        Err(GpmError::InvalidConfig { .. })
    ));
}

/// A key word list that is not a problem key's layout is refused on
/// restore; accepted, no lookup could ever match it. An extra leading word
/// equal to the core count keeps a valid length, so the shifted words
/// must fail the mode check instead.
#[test]
fn restore_refuses_a_key_with_an_extra_leading_word() {
    let (json, restore) = tamper_fixture();
    let words = "{\"words\":[4,";
    assert!(json.contains(words), "{json}");
    for extra in ["4,", "0,", "9,"] {
        let tampered = json.replacen(words, &format!("{{\"words\":[{extra}4,"), 1);
        assert!(
            matches!(restore(&tampered), Err(GpmError::InvalidConfig { .. })),
            "extra leading word {extra}"
        );
    }
}

/// FNV-1a 64; mirrors nothing in the library so the golden cannot drift
/// with it.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `json` with the number after every wall-clock-derived field zeroed, so
/// the rest of the serialized checkpoint can be pinned byte for byte.
fn without_wall_clock(json: &str) -> String {
    let mut out = json.to_owned();
    for field in [
        "\"solver_us_spent\":",
        "\"solver_us_saved\":",
        "\"solve_us_total\":",
    ] {
        let mut from = 0;
        while let Some(at) = out[from..].find(field) {
            let start = from + at + field.len();
            let len = out[start..]
                .find([',', '}'])
                .expect("a number is followed by a delimiter");
            out.replace_range(start..start + len, "0");
            from = start;
        }
    }
    out
}

/// The serialized checkpoint format is a restart contract: its JSON after
/// a fixed few ticks (wall-clock fields zeroed) is pinned byte for byte,
/// so no in-memory key detail can leak into it. Pinned at layout
/// version 3: the cache lists each problem key once and every answer with
/// the budget range it is exact for (since version 2), and each node is
/// its last good decision alone, `{node, modes, watts}`, with no retry
/// advice (since version 3, which also dropped the retry constants from
/// a degraded configuration's fingerprint).
#[test]
fn checkpoint_json_matches_golden_digest() {
    let config = FleetConfig {
        degraded: true,
        rack_budget: Some(Watts::new(900.0)),
        ..FleetConfig::default()
    };
    let mut engine = FleetEngine::new(config).expect("valid config");
    drive(&mut engine, 8, 0..4, 4);
    let json = without_wall_clock(&engine.checkpoint().to_json());
    assert!(json.contains("\"words\":["), "keys serialize as word lists");
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x0492_38ae_90ee_ed24,
        "checkpoint JSON drifted"
    );
}

/// The default configuration's fingerprint is pinned too, so a checkpoint
/// of a plain engine keeps restoring across releases. The value is the one
/// the version-1 checkpoint below carries: the fingerprint predates the
/// layout change and must not move with it.
#[test]
fn default_config_fingerprint_matches_golden() {
    let engine = FleetEngine::new(FleetConfig::default()).expect("valid config");
    let json = engine.checkpoint().to_json();
    assert!(
        json.contains("\"config_fingerprint\":7908314972348569418,"),
        "default config fingerprint drifted: {json}"
    );
    assert!(V1_CHECKPOINT.contains("\"config_fingerprint\":7908314972348569418,"));
}

/// A version-1 checkpoint, written by the engine before cached answers
/// carried budget ranges: one one-core node after one tick under the
/// default configuration (wall-clock fields zeroed).
const V1_CHECKPOINT: &str = r#"{"version":1,"config_fingerprint":7908314972348569418,"next_tick":1,"stats":{"decisions_total":1,"cache_hits":0,"dedup_hits":0,"unique_solves":1,"dropped_stale":0,"dropped_dark":0,"rejected_backpressure":0,"rejected_invalid":0,"fallback_decisions":0,"solver_timeouts":0,"flap_drops":0,"skew_delayed":0,"corrupted_reports":0,"shed_clamps":0,"rack_violation_ticks":0,"watchdog_clamp_ticks":0,"longest_rack_violation_run":0,"worst_rack_overshoot_watts":0,"solver_us_spent":0,"solver_us_saved":0},"cache":{"entries":[[{"words":[1,4626322717216342016,4622945017495814144,4619567317775286272,4611686018427387904,4610334938539176755,4608983858650965606,0,4624633867356078080,4647503709213818880,4608533498688228557,4741671816366391296,4576918229304087675]},{"modes":["Eff1"]}]],"counters":{"decisions_total":0,"cache_hits":0,"dedup_hits":0,"solver_us_saved":0},"solve_us_total":0,"solve_count":0},"nodes":[],"rack":{"violation_streak":0,"current_run":0,"clamp_remaining":0,"backoff":0}}"#;

/// A version-2 checkpoint, written by the engine before nodes lost their
/// retry advice: a degraded engine with a one-report queue after one tick,
/// holding node 0's last good decision and node 7's streak of three
/// backpressure rejections (wall-clock fields zeroed).
const V2_CHECKPOINT: &str = r#"{"version":2,"config_fingerprint":9143602958714790200,"next_tick":1,"stats":{"decisions_total":1,"cache_hits":0,"dedup_hits":0,"unique_solves":1,"dropped_stale":0,"dropped_dark":0,"rejected_backpressure":3,"rejected_invalid":0,"fallback_decisions":0,"solver_timeouts":0,"flap_drops":0,"skew_delayed":0,"corrupted_reports":0,"shed_clamps":0,"rack_violation_ticks":0,"watchdog_clamp_ticks":0,"longest_rack_violation_run":0,"worst_rack_overshoot_watts":0,"solver_us_spent":0,"solver_us_saved":0},"cache":{"problems":[{"words":[1,4626322717216342016,4622945017495814144,4619567317775286272,4611686018427387904,4610334938539176755,4608983858650965606,0,4647503709213818880,4608533498688228557,4741671816366391296,4576918229304087675]}],"answers":[{"problem":0,"combo":{"modes":["Eff1"]},"lo":12,"hi":15}],"counters":{"decisions_total":0,"cache_hits":0,"dedup_hits":0,"solver_us_saved":0},"solve_us_total":0,"solve_count":0},"nodes":[{"node":0,"state":{"last_good":{"modes":{"modes":["Eff1"]},"watts":12},"rejections":0,"retry_at":0}},{"node":7,"state":{"last_good":null,"rejections":3,"retry_at":5}}],"rack":{"violation_streak":0,"current_run":0,"clamp_remaining":0,"backoff":0}}"#;

/// Asserts `json`, a checkpoint of layout `version`, is refused with an
/// error that names both its version and the current one.
fn assert_refused_by_name(json: &str, version: u32) {
    match FleetCheckpoint::from_json(json).expect_err("an earlier layout must be refused") {
        GpmError::InvalidConfig { parameter, reason } => {
            assert_eq!(parameter, "fleet.checkpoint");
            assert!(reason.contains(&format!("version {version}")), "{reason}");
            assert!(reason.contains("version 3"), "{reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

/// A checkpoint of an earlier layout is refused by version, with an error
/// that names it, rather than half-parsed or misread.
#[test]
fn version_one_checkpoint_is_refused_by_name() {
    assert_refused_by_name(V1_CHECKPOINT, 1);
    // The current layout still round-trips.
    let engine = FleetEngine::new(FleetConfig::default()).expect("valid config");
    let json = engine.checkpoint().to_json();
    assert!(json.starts_with("{\"version\":3,"), "{json}");
    assert!(FleetCheckpoint::from_json(&json).is_ok());
}

/// The version-2 layout carried per-node retry advice; it is refused by
/// name too, not read with the streak silently dropped.
#[test]
fn version_two_checkpoint_is_refused_by_name() {
    assert_refused_by_name(V2_CHECKPOINT, 2);
}

/// A restored engine answers its next tick from the cache exactly like
/// the original: the same decisions, the same cache and dedup hits and
/// no solve either engine would not also run.
#[test]
fn restored_engine_answers_next_tick_with_the_same_hits() {
    let config = FleetConfig::default();
    let mut original = FleetEngine::new(config.clone()).expect("valid config");
    drive(&mut original, 8, 0..3, 4);
    let json = original.checkpoint().to_json();
    let checkpoint = FleetCheckpoint::from_json(&json).expect("roundtrips");
    let mut restored = FleetEngine::restore(config, &checkpoint).expect("restores");
    let before = original.stats();
    let (want, _) = drive(&mut original, 8, 3..4, 4);
    let (got, _) = drive(&mut restored, 8, 3..4, 4);
    assert_eq!(
        got, want,
        "restored engine decided its next tick differently"
    );
    let (after_original, after_restored) = (original.stats(), restored.stats());
    assert_eq!(
        integer_stats(after_restored),
        integer_stats(after_original),
        "restored engine's next tick took a different path"
    );
    assert_eq!(
        after_restored.cache_hits - before.cache_hits,
        PHASES,
        "every phase key of the next tick is a cross-tick cache hit"
    );
    assert_eq!(after_restored.unique_solves, before.unique_solves);
}

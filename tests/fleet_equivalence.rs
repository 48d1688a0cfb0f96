//! The decision cache's contract: keys are exact (two problems share a
//! key only when every input is bit-identical), so a cached decision path
//! is *bit-identical* to the uncached exact solver — for
//! single solves, for full manager runs, and for the fleet engine's batched
//! tick protocol — and none of it depends on the worker-pool width.
//!
//! Five guards pin the fleet-mode engine:
//!
//! 1. Memoized solves match `solver::solve` exactly (propcheck, repeated
//!    queries audited by `verify_hits`).
//! 2. A `CachedMaxBips` manager run reproduces the plain `MaxBips` run
//!    bit-for-bit, across `GPM_THREADS ∈ {1, 2, 8}`.
//! 3. The fleet engine's per-tick decision stream and cache state are
//!    pool-width independent (flat and hierarchical solve paths alike).
//! 4. LRU eviction and within-tick dedup are deterministic: same access
//!    sequence, same evictions; decisions always return in submission
//!    order with followers bit-identical to their group leader.
//! 5. One budget-free key answers a range of budgets exactly: every hit
//!    inside a stored range equals a fresh solve, the stored ranges do not
//!    depend on the order budgets arrive in, and a problem with a NaN cell
//!    gets no widened range.

use std::sync::{Arc, Mutex};

use gpm::cmp::{SimParams, TraceCmpSim};
use gpm::core::{
    solver, BudgetSchedule, CacheConfig, CachedMaxBips, DecisionCache, FleetConfig, FleetEngine,
    GlobalManager, MaxBips, NodeTelemetry, Policy, PolicyContext, PowerBipsMatrices, ProblemKey,
};
use gpm::power::DvfsParams;
use gpm::trace::{BenchmarkTraces, ModeTrace, TraceSample};
use gpm::types::{Micros, ModeCombination, PowerMode, Watts};
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

fn paper_ctx() -> (DvfsParams, Micros) {
    (DvfsParams::paper(), Micros::new(500.0))
}

/// A cache with exact keying and hit auditing on: every hit re-solves and
/// asserts bit-identity, so any divergence fails inside the call.
fn exact_verifying_cache(capacity: usize) -> DecisionCache {
    DecisionCache::new(CacheConfig {
        capacity,
        verify_hits: true,
    })
    .expect("capacity >= 1")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomised matrices, budgets and starting modes: the memoizing
    /// solve returns exactly what the uncached branch-and-bound returns,
    /// on the cold miss and again on the warm hit.
    #[test]
    fn cached_solve_matches_uncached_solver(
        rows in prop::collection::vec(
            (
                (8.0f64..30.0, 4.0f64..16.0, 2.0f64..9.0),
                (0.1f64..3.0, 0.05f64..2.5, 0.02f64..2.0),
            ),
            1..=8
        ),
        budget_frac in 0.3f64..1.1,
        current_seed in 0usize..6561,
    ) {
        let (dvfs, explore) = paper_ctx();
        let cores = rows.len();
        let power: Vec<[f64; 3]> = rows.iter().map(|&((a, b, c), _)| [a, b, c]).collect();
        let bips: Vec<[f64; 3]> = rows.iter().map(|&(_, (a, b, c))| [a, b, c]).collect();
        let budget = Watts::new(power.iter().map(|r| r[0]).sum::<f64>() * budget_frac);
        let m = PowerBipsMatrices::from_rows(power, bips);
        let current: ModeCombination = (0..cores)
            .map(|c| PowerMode::ALL[current_seed / 3usize.pow(c as u32) % 3])
            .collect();

        let want = solver::solve(&m, &current, budget, &dvfs, explore);
        let mut cache = exact_verifying_cache(64);
        let cold = cache.solve(&m, &current, budget, &dvfs, explore);
        let warm = cache.solve(&m, &current, budget, &dvfs, explore);
        prop_assert_eq!(&cold, &want, "cold miss diverged from the solver");
        prop_assert_eq!(&warm, &want, "warm hit diverged from the solver");
        let c = cache.counters();
        prop_assert_eq!(c.decisions_total, 2);
        prop_assert_eq!(c.cache_hits, 1);
    }
}

/// One core's generated (power, BIPS) cells, Turbo/Eff1/Eff2 each.
type CoreRow = ((f64, f64, f64), (f64, f64, f64));

/// A random `rows`-shaped problem: its matrices, a current mode vector
/// drawn from `seed` and the all-Turbo power the budgets scale against.
fn random_problem(rows: &[CoreRow], seed: u64) -> (PowerBipsMatrices, ModeCombination, f64) {
    let power: Vec<[f64; 3]> = rows.iter().map(|&((a, b, c), _)| [a, b, c]).collect();
    let bips: Vec<[f64; 3]> = rows.iter().map(|&(_, (a, b, c))| [a, b, c]).collect();
    let turbo: f64 = power.iter().map(|r| r[0]).sum();
    let current: ModeCombination = (0..rows.len())
        .map(|c| PowerMode::ALL[(seed >> (2 * c)) as usize % 3])
        .collect();
    (PowerBipsMatrices::from_rows(power, bips), current, turbo)
}

/// The `(lo, hi)` budget range of every ranged answer in `cache`, sorted.
fn stored_ranges(cache: &DecisionCache) -> Vec<(f64, f64)> {
    let mut ranges: Vec<(f64, f64)> = cache
        .snapshot()
        .answers
        .iter()
        .filter_map(|a| Some((a.lo.unwrap_or(f64::NEG_INFINITY), a.hi?)))
        .collect();
    ranges.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranges
}

/// Row generator for the 8–16-core budget-interval properties.
fn wide_rows() -> impl Strategy<Value = Vec<CoreRow>> {
    prop::collection::vec(
        (
            (8.0f64..30.0, 4.0f64..16.0, 2.0f64..9.0),
            (0.1f64..3.0, 0.05f64..2.5, 0.02f64..2.0),
        ),
        8..=16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One budget-free key answers a whole budget sequence — repeats, a
    /// Figure-6-style 90% → 70% drop, random draws, then draws inside
    /// and between the ranges the cache stored — and every answer, hit
    /// or miss, is exactly the uncached solver's (hits are also audited
    /// by `verify_hits`).
    #[test]
    fn budget_interval_hits_match_the_solver(
        rows in wide_rows(),
        fractions in prop::collection::vec(0.2f64..1.1, 1..16),
        picks in prop::collection::vec((0usize..64, 0.0f64..=1.0), 1..16),
        seed in any::<u64>(),
    ) {
        let (dvfs, explore) = paper_ctx();
        let (m, current, turbo) = random_problem(&rows, seed);
        let mut cache = exact_verifying_cache(4096);
        let ask = |cache: &mut DecisionCache, budget: f64| {
            let budget = Watts::new(budget);
            let got = cache.solve(&m, &current, budget, &dvfs, explore);
            let want = solver::solve(&m, &current, budget, &dvfs, explore);
            prop_assert_eq!(got, want, "budget {} diverged", budget.value());
        };
        let drop = [0.9, 0.9, 0.7, 0.7, 0.9, 0.7];
        for &f in fractions.iter().chain(&fractions).chain(&drop) {
            ask(&mut cache, f * turbo);
        }
        for &(pick, u) in &picks {
            let ranges = stored_ranges(&cache);
            let (lo, hi) = ranges[pick % ranges.len()];
            let lo = if lo.is_finite() { lo } else { 0.2 * turbo };
            // Inside a stored range, then between it and the next one.
            ask(&mut cache, lo + u * (hi - lo));
            if let Some(&(next_lo, _)) = ranges.get(pick % ranges.len() + 1) {
                ask(&mut cache, hi + u * (next_lo - hi));
            }
        }
        let c = cache.counters();
        prop_assert!(c.cache_hits > 0, "repeats must hit");
    }

    /// The stored answers and every later answer are independent of the
    /// order budgets arrive in: two caches fed the same budgets in
    /// opposite orders hold the same ranges and answer alike.
    #[test]
    fn budget_order_does_not_change_answers(
        rows in wide_rows(),
        fractions in prop::collection::vec(0.2f64..1.1, 2..16),
        probes in prop::collection::vec(0.15f64..1.15, 1..16),
        seed in any::<u64>(),
    ) {
        let (dvfs, explore) = paper_ctx();
        let (m, current, turbo) = random_problem(&rows, seed);
        let (mut forward, mut backward) = (exact_verifying_cache(4096), exact_verifying_cache(4096));
        for &f in &fractions {
            forward.solve(&m, &current, Watts::new(f * turbo), &dvfs, explore);
        }
        for &f in fractions.iter().rev() {
            backward.solve(&m, &current, Watts::new(f * turbo), &dvfs, explore);
        }
        prop_assert_eq!(stored_ranges(&forward), stored_ranges(&backward));
        let hits_before = (forward.counters().cache_hits, backward.counters().cache_hits);
        for &f in &probes {
            let budget = Watts::new(f * turbo);
            let a = forward.solve(&m, &current, budget, &dvfs, explore);
            let b = backward.solve(&m, &current, budget, &dvfs, explore);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a, solver::solve(&m, &current, budget, &dvfs, explore));
        }
        prop_assert_eq!(
            forward.counters().cache_hits - hits_before.0,
            backward.counters().cache_hits - hits_before.1,
            "the same ranges answer the same probes"
        );
    }
}

/// A NaN cell can make an objective NaN, and then the scan's first strict
/// maximum depends on which candidates remain: `CachedMaxBips` must not
/// widen such a problem's answer to any budget but its own.
#[test]
fn nan_cell_problem_gets_no_widened_range() {
    let (dvfs, explore) = paper_ctx();
    let matrices = PowerBipsMatrices::from_rows(
        vec![[20.0, 12.0, 7.0], [18.0, 11.0, 6.5]],
        vec![[2.0, f64::NAN, 1.4], [1.5, 1.3, 1.1]],
    );
    let current = ModeCombination::uniform(2, PowerMode::Turbo);
    let mut policy = CachedMaxBips::with_config(CacheConfig {
        verify_hits: true,
        ..CacheConfig::default()
    })
    .unwrap();
    for budget in [40.0, 39.0, 35.0, 31.0, 30.0, 40.0] {
        let ctx = PolicyContext {
            current_modes: &current,
            matrices: &matrices,
            future: None,
            budget: Watts::new(budget),
            dvfs: &dvfs,
            explore,
        };
        let got = policy.decide(&ctx);
        let want = solver::solve(&matrices, &current, Watts::new(budget), &dvfs, explore);
        assert_eq!(got, want, "budget {budget}");
    }
    let cache = policy.cache();
    assert_eq!(
        cache.counters().cache_hits,
        1,
        "only the exact repeat of 40 W may hit"
    );
    assert_eq!(cache.len(), 5, "one answer per budget asked");
    let snapshot = cache.snapshot();
    assert!(
        snapshot
            .answers
            .iter()
            .all(|a| a.lo.is_some() && a.lo == a.hi),
        "every answer must hold at its own budget only"
    );
}

/// Synthetic constant-rate trace set (no capture needed): linear BIPS
/// scaling, cubic power scaling across modes.
fn synthetic(name: &str, total: u64, bips: f64, power: f64) -> Arc<BenchmarkTraces> {
    let delta = Micros::new(50.0);
    let delta_s = delta.to_seconds().value();
    let traces = PowerMode::ALL
        .map(|mode| {
            let b = bips * mode.bips_scale_bound();
            let p = power * mode.power_scale();
            let per_delta = b * 1.0e9 * delta_s;
            let samples: Vec<TraceSample> = (1..=400)
                .map(|k| TraceSample {
                    instructions_end: (per_delta * k as f64).round() as u64,
                    power_w: p,
                    bips: b,
                })
                .collect();
            ModeTrace::new(mode, delta, samples)
        })
        .to_vec();
    Arc::new(BenchmarkTraces::new(name, total, traces).unwrap())
}

fn synthetic_suite(cores: usize) -> Vec<Arc<BenchmarkTraces>> {
    (0..cores)
        .map(|i| {
            let bips = 0.4 + (i * 5 % 9) as f64 * 0.3;
            let power = 12.0 + (i * 7 % 11) as f64 * 1.2;
            // ~3 ms of work per core so the run spans several intervals.
            let total = (bips * 1.0e9 * 0.003) as u64;
            synthetic(&format!("core{i}"), total, bips, power)
        })
        .collect()
}

/// An 8-way manager run answered through the decision cache (exact keying,
/// hits audited) is bit-identical to the plain MaxBIPS run, for any pool
/// width — cache on/off and pool width both leave the goldens untouched.
#[test]
fn cached_manager_run_matches_maxbips_across_pool_widths() {
    let _guard = THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let traces = synthetic_suite(8);
    let baseline = with_threads(1, || {
        let sim = TraceCmpSim::new(traces.clone(), SimParams::default()).unwrap();
        GlobalManager::new()
            .run(sim, &mut MaxBips::new(), &BudgetSchedule::constant(0.8))
            .unwrap()
    });
    let mut decisions_at_width_one = 0u64;
    for threads in [1usize, 2, 8] {
        let cached = with_threads(threads, || {
            let sim = TraceCmpSim::new(traces.clone(), SimParams::default()).unwrap();
            let mut policy = CachedMaxBips::with_config(CacheConfig {
                verify_hits: true,
                ..CacheConfig::default()
            })
            .unwrap();
            GlobalManager::new()
                .run(sim, &mut policy, &BudgetSchedule::constant(0.8))
                .unwrap()
        });
        assert_eq!(
            baseline.records, cached.records,
            "cached records diverged under {threads} worker(s)"
        );
        assert_eq!(baseline.per_core_instructions, cached.per_core_instructions);
        assert_eq!(baseline.duration, cached.duration);
        let counters = cached.cache_counters;
        assert!(
            counters.decisions_total > 0,
            "the cached policy must report its decision count"
        );
        if threads == 1 {
            decisions_at_width_one = counters.decisions_total;
        } else {
            assert_eq!(
                counters.decisions_total, decisions_at_width_one,
                "decision count diverged under {threads} worker(s)"
            );
        }
    }
}

/// Builds the telemetry for `node` at `tick`: `families` distinct decision
/// problems (round-robin over nodes), each cycling through 3 phases.
/// `cores` > the flat limit exercises the hierarchical solve path.
fn fleet_telemetry(node: u64, tick: u64, cores: usize, families: u64) -> NodeTelemetry {
    let phase = ((tick + node / families) % 3) as usize;
    let family = (node % families) as usize;
    let power: Vec<[f64; 3]> = (0..cores)
        .map(|i| {
            let t = 12.0 + ((i * 7 + family * 3 + phase * 5) % 11) as f64 * 1.3;
            [t, t * 0.55, t * 0.3]
        })
        .collect();
    let bips: Vec<[f64; 3]> = (0..cores)
        .map(|i| {
            let t = 0.4 + ((i * 5 + family * 2 + phase * 3) % 9) as f64 * 0.35;
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

/// Runs a 3-tick fleet epoch (mixed 8-way flat and 64-way hierarchical
/// nodes) under `threads` workers and returns the full decision stream
/// plus the engine's final cache length and accounting.
fn fleet_epoch(
    threads: usize,
) -> (
    Vec<(u64, u64, ModeCombination)>,
    usize,
    gpm::core::FleetStats,
) {
    with_threads(threads, || {
        let mut engine = FleetEngine::new(FleetConfig {
            queue_capacity: 64,
            ..FleetConfig::default()
        })
        .unwrap();
        let mut stream = Vec::new();
        for tick in 0..3u64 {
            for node in 0..24u64 {
                // Two chip shapes: the flat B&B path (8-way) and the
                // hierarchical path (64-way, above the flat limit).
                let cores = if node % 2 == 0 { 8 } else { 64 };
                assert!(engine.submit(fleet_telemetry(node, tick, cores, 6)));
            }
            for d in engine.run_tick(tick) {
                stream.push((d.node, d.tick, d.modes));
            }
        }
        (stream, engine.cache().len(), engine.stats())
    })
}

/// The fleet engine's decision stream, cache population and accounting are
/// identical under 1, 2 and 8 workers: residual misses fan out over the
/// pool but land in submission order, and inserts replay serially.
#[test]
fn fleet_tick_protocol_is_pool_width_independent() {
    let _guard = THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (one, len_one, stats_one) = fleet_epoch(1);
    assert_eq!(one.len(), 3 * 24, "every submission decided");
    assert_eq!(
        stats_one.decisions_total,
        stats_one.cache_hits + stats_one.dedup_hits + stats_one.unique_solves,
        "fleet accounting must balance"
    );
    for threads in [2usize, 8] {
        let (wide, len_wide, stats_wide) = fleet_epoch(threads);
        assert_eq!(
            one, wide,
            "decision stream diverged under {threads} worker(s)"
        );
        assert_eq!(len_one, len_wide, "cache population diverged");
        assert_eq!(stats_one.decisions_total, stats_wide.decisions_total);
        assert_eq!(stats_one.cache_hits, stats_wide.cache_hits);
        assert_eq!(stats_one.dedup_hits, stats_wide.dedup_hits);
        assert_eq!(stats_one.unique_solves, stats_wide.unique_solves);
    }
}

/// Within one tick, duplicate problems submitted in scrambled order come
/// back in submission order, with every follower bit-identical to its
/// group leader's solve.
#[test]
fn within_tick_dedup_preserves_submission_order() {
    let mut engine = FleetEngine::new(FleetConfig {
        queue_capacity: 16,
        ..FleetConfig::default()
    })
    .unwrap();
    // 9 nodes over 3 families, interleaved so no family is contiguous.
    // Telemetry is keyed off `node % 3` only, so each family's three
    // nodes submit the *same* decision problem within the tick.
    let submission: Vec<u64> = vec![2, 0, 1, 5, 3, 4, 8, 6, 7];
    for &node in &submission {
        let mut t = fleet_telemetry(node % 3, 0, 8, 3);
        t.node = node;
        assert!(engine.submit(t));
    }
    let decisions = engine.run_tick(0);
    let order: Vec<u64> = decisions.iter().map(|d| d.node).collect();
    assert_eq!(order, submission, "decisions must keep submission order");
    let stats = engine.stats();
    assert_eq!(stats.unique_solves, 3, "one solve per distinct family");
    assert_eq!(stats.dedup_hits, 6, "two followers per family");
    // Followers reuse the leader's combination bit-for-bit.
    let (dvfs, explore) = paper_ctx();
    for d in &decisions {
        let t = fleet_telemetry(d.node % 3, 0, 8, 3);
        let fresh = solver::solve(&t.matrices, &t.current, t.budget, &dvfs, explore);
        assert_eq!(
            d.modes, fresh,
            "node {} diverged from a fresh solve",
            d.node
        );
    }
}

/// LRU eviction is a pure function of the access sequence: a capacity-4
/// cache driven twice through the same key pattern reports identical
/// hit/miss accounting, and the evicted victim is always the least
/// recently *used* key, not the least recently inserted.
#[test]
fn lru_eviction_is_deterministic_and_recency_driven() {
    let (dvfs, explore) = paper_ctx();
    let problems: Vec<NodeTelemetry> = (0..5).map(|f| fleet_telemetry(f, 0, 8, 5)).collect();
    let run_pattern = || {
        let mut cache = exact_verifying_cache(4);
        // Fill slots with families 0..4, touch 0 (promoting it), then
        // insert family 4 — evicting family 1, the true LRU.
        for t in &problems[..4] {
            cache.solve(&t.matrices, &t.current, t.budget, &dvfs, explore);
        }
        cache.solve(
            &problems[0].matrices,
            &problems[0].current,
            problems[0].budget,
            &dvfs,
            explore,
        );
        cache.solve(
            &problems[4].matrices,
            &problems[4].current,
            problems[4].budget,
            &dvfs,
            explore,
        );
        assert_eq!(cache.len(), 4, "bounded at capacity");
        // 0 survived its promotion; 1 was evicted.
        let key = |t: &NodeTelemetry| {
            let ctx = PolicyContext {
                current_modes: &t.current,
                matrices: &t.matrices,
                future: None,
                budget: t.budget,
                dvfs: &dvfs,
                explore,
            };
            ProblemKey::new(&ctx, true)
        };
        let (key0, key1) = (key(&problems[0]), key(&problems[1]));
        let hit0 = cache.get(&key0, problems[0].budget).is_some();
        let hit1 = cache.get(&key1, problems[1].budget).is_some();
        assert!(hit0, "promoted key must survive the eviction");
        assert!(!hit1, "least-recently-used key must be the victim");
        cache.counters()
    };
    let first = run_pattern();
    let second = run_pattern();
    assert_eq!(first.decisions_total, second.decisions_total);
    assert_eq!(first.cache_hits, second.cache_hits);
    assert_eq!(first.cache_hits, 1, "only the promoting touch hits");
}

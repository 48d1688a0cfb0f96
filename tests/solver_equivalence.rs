//! The exact solver's contract: `solver::solve` returns the *bit-identical*
//! argmax of the paper's exhaustive 3^N scan — same combination, same
//! first-strict-max tie-breaking — for every matrix, budget and starting
//! assignment. The branch-and-bound is only allowed to be faster, never
//! different.

use std::sync::{Arc, Mutex};

use gpm::cmp::{SimParams, TraceCmpSim};
use gpm::core::{solver, BudgetSchedule, GlobalManager, MaxBips, PowerBipsMatrices};
use gpm::power::DvfsParams;
use gpm::trace::{BenchmarkTraces, ModeTrace, TraceSample};
use gpm::types::{Micros, ModeCombination, ModeOdometer, PowerMode, Watts};
use proptest::prelude::*;

/// Serialises the tests that touch the process-wide thread override (the
/// integration-test harness runs `#[test]` functions concurrently).
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    gpm::par::set_max_threads(Some(n));
    let out = f();
    gpm::par::set_max_threads(None);
    out
}

fn paper_ctx() -> (DvfsParams, Micros) {
    (DvfsParams::paper(), Micros::new(500.0))
}

/// Builds exact cubic/linear matrices from per-core Turbo (power, bips)
/// rows — the same construction the manager's predictor uses.
fn matrices(rows: &[(f64, f64)]) -> PowerBipsMatrices {
    PowerBipsMatrices::from_rows(
        rows.iter()
            .map(|&(p, _)| PowerMode::ALL.map(|m| p * m.power_scale()))
            .collect(),
        rows.iter()
            .map(|&(_, b)| PowerMode::ALL.map(|m| b * m.bips_scale_bound()))
            .collect(),
    )
}

fn assert_solver_matches_scan(m: &PowerBipsMatrices, current: &ModeCombination, budget: Watts) {
    let (dvfs, explore) = paper_ctx();
    let want = solver::exhaustive(m, current, budget, &dvfs, explore);
    let got = solver::solve(m, current, budget, &dvfs, explore);
    assert_eq!(
        got, want,
        "solver diverged from the scan at budget {budget} (current {current})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Randomised matrices, budgets and starting modes, N <= 8: the
    /// branch-and-bound returns the scan's combination exactly.
    #[test]
    fn solver_matches_exhaustive_scan(
        rows in prop::collection::vec((8.0f64..30.0, 0.1f64..3.0), 1..=8),
        budget_frac in 0.3f64..1.1,
        current_seed in 0usize..6561,
    ) {
        let m = matrices(&rows);
        let cores = rows.len();
        let turbo_power: f64 = rows.iter().map(|&(p, _)| p).sum();
        let budget = Watts::new(turbo_power * budget_frac);
        // Derive a starting assignment from the seed in base 3 so that
        // every transition-stall class gets exercised.
        let current: ModeCombination = (0..cores)
            .map(|c| PowerMode::ALL[current_seed / 3usize.pow(c as u32) % 3])
            .collect();
        assert_solver_matches_scan(&m, &current, budget);
    }

    /// Near-duplicate cores force objective plateaus; the first-strict-max
    /// tie-break must still pick the scan's (earliest-enumerated) winner.
    #[test]
    fn solver_breaks_ties_like_the_scan(
        power in 8.0f64..30.0,
        bips in 0.1f64..3.0,
        cores in 2usize..=6,
        budget_frac in 0.3f64..1.05,
    ) {
        let rows = vec![(power, bips); cores];
        let m = matrices(&rows);
        let budget = Watts::new(power * cores as f64 * budget_frac);
        let current = ModeCombination::uniform(cores, PowerMode::Turbo);
        assert_solver_matches_scan(&m, &current, budget);
    }
}

/// Hand-crafted plateau: every core identical *and* zero BIPS spread
/// across modes, so all 3^N combinations under the budget tie exactly.
/// The winner must be the scan's first feasible combination.
#[test]
fn crafted_tie_cases_pick_the_earliest_combo() {
    let (dvfs, explore) = paper_ctx();
    // Zero BIPS spread: BIPS identical in every mode, power still cubic.
    let m = PowerBipsMatrices::from_rows(
        vec![PowerMode::ALL.map(|md| 20.0 * md.power_scale()); 4],
        vec![[1.0, 1.0, 1.0]; 4],
    );
    let current = ModeCombination::uniform(4, PowerMode::Turbo);
    for pct in [30, 50, 70, 85, 100] {
        let budget = Watts::new(80.0 * pct as f64 / 100.0);
        let want = solver::exhaustive(&m, &current, budget, &dvfs, explore);
        let got = solver::solve(&m, &current, budget, &dvfs, explore);
        assert_eq!(got, want, "tie at {pct}% budget");
    }
    // Fully-feasible plateau: everything ties, the scan's first candidate
    // (all-Turbo, rank 0) must win.
    let all_turbo = solver::solve(&m, &current, Watts::new(1000.0), &dvfs, explore);
    assert!(all_turbo
        .as_slice()
        .iter()
        .all(|&md| md == PowerMode::Turbo));
}

/// A budget below even the all-Eff2 floor: the solver must fall back to
/// the minimum-power assignment, exactly like the scan's fallback arm.
#[test]
fn infeasible_budget_returns_all_eff2() {
    let (dvfs, explore) = paper_ctx();
    let m = matrices(&[(25.0, 2.0), (18.0, 1.1), (12.0, 0.4)]);
    let current = ModeCombination::uniform(3, PowerMode::Turbo);
    let budget = Watts::new(0.5); // below any mode's chip power
    let got = solver::solve(&m, &current, budget, &dvfs, explore);
    assert!(got.as_slice().iter().all(|&md| md == PowerMode::Eff2));
    assert_eq!(
        got,
        solver::exhaustive(&m, &current, budget, &dvfs, explore)
    );
}

/// The odometer the scan rides on, seeded by rank as the static oracle
/// seeds it, really enumerates ranks in the scan's order (core 0 = most
/// significant base-3 digit).
#[test]
fn odometer_rank_seeding_matches_enumeration() {
    let total = 3usize.pow(4);
    let mut odo = ModeOdometer::new(4);
    for rank in 0..total {
        let seeded = ModeOdometer::from_rank(4, rank);
        assert_eq!(seeded.current(), odo.current(), "rank {rank}");
        let more = odo.advance();
        assert_eq!(more, rank + 1 < total);
    }
}

/// Synthetic constant-rate trace set, so the 16-core run below needs no
/// capture: linear BIPS scaling, cubic power scaling across modes.
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

/// A full 16-way MaxBIPS run — every decision answered by the
/// branch-and-bound — is bit-identical for any worker-pool width. The
/// solver itself is serial; this pins that nothing on the decision path
/// picked up a pool-width dependence while the capture/step layers fan out.
#[test]
fn sixteen_way_run_is_bit_identical_across_pool_widths() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let traces: Vec<Arc<BenchmarkTraces>> = (0..16)
        .map(|i| {
            let bips = 0.4 + (i * 5 % 9) as f64 * 0.3;
            let power = 12.0 + (i * 7 % 11) as f64 * 1.2;
            // ~3 ms of work per core so the run spans several intervals.
            let total = (bips * 1.0e9 * 0.003) as u64;
            synthetic(&format!("core{i}"), total, bips, power)
        })
        .collect();
    let run_with = |threads: usize| {
        with_threads(threads, || {
            let sim = TraceCmpSim::new(traces.clone(), SimParams::default()).unwrap();
            GlobalManager::new()
                .run(sim, &mut MaxBips::new(), &BudgetSchedule::constant(0.8))
                .unwrap()
        })
    };
    let one = run_with(1);
    for threads in [2, 8] {
        let wide = run_with(threads);
        assert_eq!(one.records, wide.records, "pool width {threads}");
        assert_eq!(one.per_core_instructions, wide.per_core_instructions);
        assert_eq!(one.duration, wide.duration);
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

/// The synthetic fleet's row pattern (`fleet_load::PhaseTables`) for one
/// `(family, phase)` cell: power rows `[t, 0.55t, 0.3t]`, BIPS rows
/// `[t, 0.85t, 0.7t]`.
fn fleet_rows(cores: usize, family: usize, phase: usize) -> PowerBipsMatrices {
    PowerBipsMatrices::from_rows(
        (0..cores)
            .map(|i| {
                let t = 12.0 + ((i * 7 + family * 3 + phase * 5) % 11) as f64 * 1.3;
                [t, t * 0.55, t * 0.3]
            })
            .collect(),
        (0..cores)
            .map(|i| {
                let t = 0.4 + ((i * 5 + family * 2 + phase * 3) % 9) as f64 * 0.35;
                [t, t * 0.85, t * 0.7]
            })
            .collect(),
    )
}

/// Wide chips (12, 16 and 32 cores) are beyond the exhaustive scan, so
/// their answers are pinned by a golden digest instead: the fleet row
/// pattern × a budget sweep from 0.55 to 1.0 of all-Turbo power × uniform
/// Turbo and cycling T/E1/E2 current modes. Any change to the solver
/// that moves a single wide-chip decision changes the digest.
#[test]
fn wide_chip_answers_match_golden_digest() {
    let (dvfs, explore) = paper_ctx();
    let mut repr = Vec::new();
    for cores in [12usize, 16, 32] {
        for (family, phase) in [(0, 0), (1, 2), (5, 3), (17, 1)] {
            let m = fleet_rows(cores, family, phase);
            let all_turbo: f64 = (0..cores)
                .map(|c| {
                    m.power(gpm::types::CoreId::new(c), PowerMode::Turbo)
                        .value()
                })
                .sum();
            let currents = [
                ModeCombination::uniform(cores, PowerMode::Turbo),
                (0..cores).map(|i| PowerMode::ALL[i % 3]).collect(),
            ];
            for current in &currents {
                for step in 0..=9 {
                    let budget = Watts::new(all_turbo * (0.55 + 0.05 * step as f64));
                    let combo = solver::solve(&m, current, budget, &dvfs, explore);
                    repr.extend(combo.as_slice().iter().map(|md| md.index() as u8));
                    repr.push(b'|');
                }
            }
        }
    }
    assert_eq!(
        fnv1a(&repr),
        0xc76b_cab5_0c0e_98c9,
        "wide-chip solver answers drifted"
    );
}

/// Deterministic 9- and 10-core problems (3^10 = 59,049 candidates)
/// checked against the literal scan: past the proptest's 8-core ceiling.
#[test]
fn nine_and_ten_core_cases_match_the_scan() {
    for cores in [9usize, 10] {
        for (family, phase) in [(0, 0), (2, 1), (7, 3)] {
            let m = fleet_rows(cores, family, phase);
            let all_turbo: f64 = (0..cores)
                .map(|c| {
                    m.power(gpm::types::CoreId::new(c), PowerMode::Turbo)
                        .value()
                })
                .sum();
            let currents = [
                ModeCombination::uniform(cores, PowerMode::Turbo),
                (0..cores)
                    .map(|i| PowerMode::ALL[(i + phase) % 3])
                    .collect(),
            ];
            for current in &currents {
                for frac in [0.55, 0.7, 0.85, 0.97] {
                    assert_solver_matches_scan(&m, current, Watts::new(all_turbo * frac));
                }
            }
        }
    }
}

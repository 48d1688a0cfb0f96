//! Exact branch-and-bound replacement for the exhaustive MaxBIPS scan.
//!
//! The paper's MaxBIPS policy (Section 5.2.3) evaluates all 3^N mode
//! combinations per explore interval. That is fine at the paper's 4 cores
//! (81 candidates) and tolerable at 8 (6561), but 3^16 ≈ 43M and
//! 3^32 ≈ 1.8e15 rule the literal scan out for the wide-CMP tier. This
//! module solves the same discrete problem *exactly* — the returned
//! combination is bit-identical to the scan's, including its tie-breaking —
//! in three steps:
//!
//! 1. **Depth-major prediction rows.** Cores are ordered once by
//!    descending BIPS spread (most impactful first), and each core's power
//!    and BIPS row, current mode and rank weight are copied out of
//!    [`PowerBipsMatrices`] into one row per search depth, so the search
//!    indexes by depth and never re-walks the matrices. Transition stalls
//!    come from the 3×3 [`DvfsParams::transition_table`].
//! 2. **Stall-class decomposition.** The transition de-rate factor
//!    `explore / (explore + stall)` depends only on the *chip-wide maximum*
//!    stall, which takes at most a handful of distinct values (four under
//!    [`DvfsParams::paper`]: 0, 6.5, 13 and 19.5 µs) — read off the table
//!    entries of the current modes actually present. For each distinct
//!    value `S` the solver searches the subspace "every core's stall ≤ S
//!    and at least one core's stall = S", within which the objective is
//!    the *separable* sum of per-core BIPS times the constant factor for
//!    `S`. A class whose summed minimum power exceeds the budget is
//!    dropped before any of its bounds are built.
//! 3. **Depth-first branch-and-bound.** Within a class, candidates are
//!    pruned by (a) a min-residual-power feasibility bound and (b) an
//!    upper bound on the remaining BIPS: first an O(1) one — the power
//!    room times the best remaining frontier ratio, capped by the
//!    remaining frontier BIPS — and only when that fails to prune, the
//!    fractional-relaxation (LP) bound of the multiple-choice knapsack
//!    built from each core's concave (power, BIPS) frontier.
//!
//! # Bit-identical tie-breaking
//!
//! The scan keeps the *first* strict maximum in enumeration order, i.e. the
//! argmax with the smallest enumeration rank (core 0 is the most
//! significant base-3 digit). The branch-and-bound does not visit leaves in
//! that order, so it carries each partial assignment's rank explicitly and
//! accepts a leaf only if its objective is strictly larger, or equal with a
//! strictly smaller rank. Every pruning bound is slackened by
//! `BOUND_SLACK` (absolute + relative), which covers the worst-case
//! floating-point discrepancy between the bound's summation order and the
//! leaf's — so a subtree is discarded only when no leaf in it can beat *or
//! tie* the incumbent. Surviving leaves are evaluated through the exact
//! same [`PowerBipsMatrices::chip_power`] /
//! [`PowerBipsMatrices::chip_bips_with_transition`] calls as the scan,
//! making the kept objective values bit-equal by construction.
//!
//! Degenerate inputs (non-finite or negative table entries, non-finite
//! budget, non-positive explore interval) fall back to the literal
//! [`exhaustive`] scan, which is also kept as the reference baseline for
//! the equivalence tests and benchmarks.

use gpm_power::DvfsParams;
use gpm_types::{CoreId, Micros, ModeCombination, ModeOdometer, PowerMode, Watts};

use crate::PowerBipsMatrices;

/// Relative pruning slack. Bounds are computed in a different summation
/// order than leaf objectives, so they disagree by at most a few ULPs per
/// term; 1e-9 is ~1e5× the worst case at 80 cores while still pruning
/// everything that is meaningfully worse than the incumbent.
const BOUND_SLACK: f64 = 1e-9;

/// Widest chip the solver supports: the enumeration-rank bookkeeping
/// needs 3^N < 2^127.
pub const MAX_CORES: usize = 80;

/// `POW3[k]` = 3^k: the enumeration-rank weight of the digit `k` places
/// from the least significant.
const POW3: [u128; MAX_CORES] = {
    let mut table = [1u128; MAX_CORES];
    let mut k = 1;
    while k < MAX_CORES {
        table[k] = table[k - 1] * 3;
        k += 1;
    }
    table
};

/// Search-effort counters for one [`solve_with_stats`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Branch-and-bound tree nodes visited (including leaves).
    pub nodes: u64,
    /// Full assignments evaluated exactly.
    pub leaves: u64,
    /// Distinct stall classes searched.
    pub classes: usize,
}

/// Exact solve: the bit-identical result of [`exhaustive`] without the
/// 3^N scan. See the module docs for the algorithm.
///
/// # Panics
///
/// Panics if `matrices` covers more than [`MAX_CORES`] cores.
#[must_use]
pub fn solve(
    matrices: &PowerBipsMatrices,
    current: &ModeCombination,
    budget: Watts,
    dvfs: &DvfsParams,
    explore: Micros,
) -> ModeCombination {
    solve_with_stats(matrices, current, budget, dvfs, explore).0
}

/// [`solve`], plus counters for the complexity table in DESIGN.md §11.
///
/// # Panics
///
/// Panics if `matrices` covers more than [`MAX_CORES`] cores.
#[must_use]
pub fn solve_with_stats(
    matrices: &PowerBipsMatrices,
    current: &ModeCombination,
    budget: Watts,
    dvfs: &DvfsParams,
    explore: Micros,
) -> (ModeCombination, SolveStats) {
    let n = matrices.cores();
    assert!(n <= MAX_CORES, "solver supports at most {MAX_CORES} cores");
    let table = dvfs.transition_table();
    let stalls: [[f64; PowerMode::COUNT]; PowerMode::COUNT] =
        PowerMode::ALL.map(|from| PowerMode::ALL.map(|to| table.time(from, to).value()));
    // Bit `f` set: some core currently runs in mode `f`.
    let present = current
        .as_slice()
        .iter()
        .fold(0u8, |mask, mode| mask | 1 << mode.index());
    let well_formed = n > 0
        && current.len() == n
        && budget.value().is_finite()
        && explore.value().is_finite()
        && explore.value() > 0.0
        && matrices.cells_valid()
        && (0..PowerMode::COUNT)
            .filter(|&from| present & 1 << from != 0)
            .all(|from| stalls[from].iter().all(|&s| s.is_finite() && s >= 0.0));
    if !well_formed {
        let combo = exhaustive(matrices, current, budget, dvfs, explore);
        return (combo, SolveStats::default());
    }

    let spread = |row: &[f64; PowerMode::COUNT]| {
        row[0].max(row[1]).max(row[2]) - row[0].min(row[1]).min(row[2])
    };
    let bips = matrices.bips_rows();
    let mut order: Vec<(f64, usize)> = bips.iter().map(spread).zip(0..n).collect();
    order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let modes = current.as_slice();
    let rows: Vec<Row> = order
        .iter()
        .map(|&(_, core)| Row {
            power: matrices.power_rows()[core],
            bips: bips[core],
            from: modes[core].index(),
            core,
            weight: POW3[n - 1 - core],
        })
        .collect();

    let row_max = |row: &[f64; PowerMode::COUNT]| row[0].max(row[1]).max(row[2]);
    let max_power_sum: f64 = matrices.power_rows().iter().map(row_max).sum();
    let max_bips_sum: f64 = bips.iter().map(row_max).sum();

    // The stall classes: the distinct table entries out of present modes.
    let mut classes: Vec<f64> = stalls
        .iter()
        .enumerate()
        .filter(|&(from, _)| present & 1 << from != 0)
        .flat_map(|(_, row)| row.iter().copied())
        .collect();
    classes.sort_by(f64::total_cmp);
    classes.dedup();

    let power_slack = BOUND_SLACK * (1.0 + budget.value().abs() + max_power_sum);
    let mut search = Search {
        matrices,
        current,
        dvfs,
        budget,
        explore,
        power_cap: budget.value() + power_slack,
        bips_slack: BOUND_SLACK * (1.0 + max_bips_sum),
        stalls,
        rows,
        factor: 1.0,
        allowed: [0; PowerMode::COUNT],
        hits: [0; PowerMode::COUNT],
        base_p_suffix: vec![0.0; n + 1],
        base_b_suffix: vec![0.0; n + 1],
        reach_suffix: vec![false; n + 1],
        ratio_suffix: vec![0.0; n + 1],
        db_suffix: vec![0.0; n + 1],
        segs: Vec::with_capacity(2 * n),
        scratch: ModeCombination::uniform(n, PowerMode::Turbo),
        best: None,
        stats: SolveStats {
            classes: classes.len(),
            ..SolveStats::default()
        },
    };
    for &stall in &classes {
        search.run_class(stall);
    }

    let combo = search.best.map_or_else(
        || ModeCombination::uniform(n, PowerMode::Eff2),
        |inc| inc.combo,
    );
    (combo, search.stats)
}

/// The literal exhaustive scan over an in-place [`ModeOdometer`]: the
/// reference baseline the solver must match bit-for-bit, and the fallback
/// for degenerate inputs. Allocates only when a candidate becomes the new
/// best.
#[must_use]
pub fn exhaustive(
    matrices: &PowerBipsMatrices,
    current: &ModeCombination,
    budget: Watts,
    dvfs: &DvfsParams,
    explore: Micros,
) -> ModeCombination {
    let cores = matrices.cores();
    let mut best: Option<(f64, ModeCombination)> = None;
    let mut odo = ModeOdometer::new(cores);
    loop {
        let combo = odo.current();
        if matrices.chip_power(combo) > budget {
            if !odo.advance() {
                break;
            }
            continue;
        }
        let bips = matrices
            .chip_bips_with_transition(current, combo, dvfs, explore)
            .value();
        if best.as_ref().is_none_or(|(b, _)| bips > *b) {
            best = Some((bips, combo.clone()));
        }
        if !odo.advance() {
            break;
        }
    }
    best.map_or_else(
        || ModeCombination::uniform(cores, PowerMode::Eff2),
        |(_, combo)| combo,
    )
}

/// One core's prediction row, placed at its search depth.
struct Row {
    power: [f64; PowerMode::COUNT],
    bips: [f64; PowerMode::COUNT],
    /// Index of the core's current mode (the row of the stall table).
    from: usize,
    core: usize,
    /// Enumeration-rank weight of the core's digit: 3^(n-1-core).
    weight: u128,
}

/// One segment of a core's concave (power, BIPS) frontier: spending
/// `dp` extra Watts on this core buys `db` extra BIPS at `ratio = db/dp`.
struct Seg {
    ratio: f64,
    depth: usize,
    dp: f64,
    db: f64,
}

/// The incumbent best feasible assignment: exact objective, enumeration
/// rank (for scan-identical tie-breaking) and the combination itself.
struct Incumbent {
    obj: f64,
    rank: u128,
    combo: ModeCombination,
}

/// The allowed mode of `row` under `allowed` (a bitmask over modes) that
/// comes first in (power ascending, BIPS descending, mode) order: the base
/// point of the core's frontier.
fn base_point(row: &Row, allowed: u8) -> (f64, f64) {
    let mut best: Option<(f64, f64)> = None;
    for m in 0..PowerMode::COUNT {
        if allowed & 1 << m == 0 {
            continue;
        }
        let point = (row.power[m], row.bips[m]);
        let earlier =
            best.is_none_or(|(p, b)| point.0.total_cmp(&p).then(b.total_cmp(&point.1)).is_lt());
        if earlier {
            best = Some(point);
        }
    }
    best.expect("every class admits the zero-stall current mode")
}

struct Search<'a> {
    matrices: &'a PowerBipsMatrices,
    current: &'a ModeCombination,
    dvfs: &'a DvfsParams,
    budget: Watts,
    explore: Micros,
    /// The budget plus the feasibility slack.
    power_cap: f64,
    bips_slack: f64,
    /// `stalls[from][to]`: the transition stall in µs.
    stalls: [[f64; PowerMode::COUNT]; PowerMode::COUNT],
    /// Core rows in branching order (descending BIPS spread).
    rows: Vec<Row>,
    // --- per-class state, rebuilt by `run_class` ---
    factor: f64,
    /// `allowed[from]`: bitmask of the modes whose stall from `from` is
    /// within the class.
    allowed: [u8; PowerMode::COUNT],
    /// `hits[from]`: bitmask of the modes whose stall from `from` is the
    /// class stall.
    hits: [u8; PowerMode::COUNT],
    /// Σ over unassigned cores of their cheapest allowed power.
    base_p_suffix: Vec<f64>,
    /// Σ over unassigned cores of the BIPS at that cheapest point.
    base_b_suffix: Vec<f64>,
    /// Whether any unassigned core can still realise the class stall.
    reach_suffix: Vec<bool>,
    /// Best frontier-segment ratio over unassigned cores.
    ratio_suffix: Vec<f64>,
    /// Σ frontier-segment BIPS over unassigned cores.
    db_suffix: Vec<f64>,
    /// Frontier segments of all cores, sorted by descending ratio.
    segs: Vec<Seg>,
    scratch: ModeCombination,
    best: Option<Incumbent>,
    stats: SolveStats,
}

impl Search<'_> {
    /// Searches the subspace whose chip-wide max stall is exactly `stall`.
    fn run_class(&mut self, stall: f64) {
        let n = self.rows.len();
        for from in 0..PowerMode::COUNT {
            let (mut allowed, mut hits) = (0u8, 0u8);
            for (m, &s) in self.stalls[from].iter().enumerate() {
                allowed |= u8::from(s <= stall) << m;
                hits |= u8::from(s == stall) << m;
            }
            self.allowed[from] = allowed;
            self.hits[from] = hits;
        }

        // Feasibility first: the cheapest completion and whether any core
        // reaches the class stall decide whether the class is searched at
        // all, before its frontier segments are built.
        self.base_p_suffix[n] = 0.0;
        self.base_b_suffix[n] = 0.0;
        self.reach_suffix[n] = false;
        for depth in (0..n).rev() {
            let row = &self.rows[depth];
            let (base_p, base_b) = base_point(row, self.allowed[row.from]);
            self.base_p_suffix[depth] = base_p + self.base_p_suffix[depth + 1];
            self.base_b_suffix[depth] = base_b + self.base_b_suffix[depth + 1];
            self.reach_suffix[depth] = self.reach_suffix[depth + 1] || self.hits[row.from] != 0;
        }
        if self.base_p_suffix[0] > self.power_cap || !self.reach_suffix[0] {
            return;
        }

        self.factor = self.explore.value() / (self.explore.value() + stall);
        self.segs.clear();
        self.ratio_suffix[n] = 0.0;
        self.db_suffix[n] = 0.0;
        for depth in (0..n).rev() {
            let (ratio, db) = self.push_frontier(depth);
            self.ratio_suffix[depth] = ratio.max(self.ratio_suffix[depth + 1]);
            self.db_suffix[depth] = db + self.db_suffix[depth + 1];
        }
        self.segs
            .sort_unstable_by(|a, b| b.ratio.total_cmp(&a.ratio).then(a.depth.cmp(&b.depth)));
        self.dfs(0, 0.0, 0.0, false, 0);
    }

    /// Builds the dominance-filtered concave frontier of the core at
    /// `depth` over its allowed modes, pushes its segments and returns
    /// their best ratio and summed BIPS.
    fn push_frontier(&mut self, depth: usize) -> (f64, f64) {
        let row = &self.rows[depth];
        let allowed = self.allowed[row.from];
        let mut pts: [(f64, f64); PowerMode::COUNT] = [(0.0, 0.0); PowerMode::COUNT];
        let mut len = 0;
        for m in 0..PowerMode::COUNT {
            if allowed & 1 << m != 0 {
                pts[len] = (row.power[m], row.bips[m]);
                len += 1;
            }
        }
        // Insertion sort by (power ascending, BIPS descending); stable, and
        // cheaper than a library sort call on at most three points.
        for i in 1..len {
            let mut j = i;
            while j > 0
                && pts[j]
                    .0
                    .total_cmp(&pts[j - 1].0)
                    .then(pts[j - 1].1.total_cmp(&pts[j].1))
                    .is_lt()
            {
                pts.swap(j, j - 1);
                j -= 1;
            }
        }

        // Dominance filter: keep points with strictly increasing BIPS.
        let mut front: [(f64, f64); PowerMode::COUNT] = [(0.0, 0.0); PowerMode::COUNT];
        let mut flen = 0;
        for &(p, b) in &pts[..len] {
            if flen == 0 || b > front[flen - 1].1 {
                front[flen] = (p, b);
                flen += 1;
            }
        }
        // Concavity: drop the middle point when it lies on or below the
        // chord (its left ratio does not exceed its right ratio).
        if flen == 3 {
            let r1 = (front[1].1 - front[0].1) / (front[1].0 - front[0].0);
            let r2 = (front[2].1 - front[1].1) / (front[2].0 - front[1].0);
            if r2 >= r1 {
                front[1] = front[2];
                flen = 2;
            }
        }
        let (mut best_ratio, mut sum_db) = (0.0f64, 0.0);
        for w in 1..flen {
            let dp = front[w].0 - front[w - 1].0;
            let db = front[w].1 - front[w - 1].1;
            let ratio = db / dp;
            best_ratio = best_ratio.max(ratio);
            sum_db += db;
            self.segs.push(Seg {
                ratio,
                depth,
                dp,
                db,
            });
        }
        (best_ratio, sum_db)
    }

    /// Fractional-relaxation bonus: the most extra BIPS the cores still
    /// unassigned at `depth` can buy with `room` Watts above their base
    /// points, filling frontier segments best-ratio-first with the last one
    /// taken fractionally. An upper bound on every integer completion.
    ///
    /// The walk gives up with +∞ once the bonus reaches `enough`, an
    /// estimate of the amount past which the caller's subtree cannot be
    /// pruned: an infinite bound never prunes, which is always safe.
    fn frac_extra(&self, depth: usize, mut room: f64, enough: f64) -> f64 {
        let mut extra = 0.0;
        for seg in &self.segs {
            if seg.depth < depth {
                continue;
            }
            if seg.dp <= room {
                room -= seg.dp;
                extra += seg.db;
                if extra >= enough {
                    return f64::INFINITY;
                }
            } else {
                extra += seg.db * (room / seg.dp);
                break;
            }
        }
        extra
    }

    fn dfs(&mut self, depth: usize, power: f64, bips: f64, hit: bool, rank: u128) {
        self.stats.nodes += 1;
        let n = self.rows.len();
        if depth == n {
            self.stats.leaves += 1;
            // Exact leaf evaluation through the same matrix methods (and
            // hence the same core-order summations) as the scan. Leaves
            // whose true max stall is below this class are duplicates of an
            // earlier class; re-evaluating them is idempotent under the
            // (obj, rank) order because the objective uses the *actual*
            // stall, not the class constant.
            if self.matrices.chip_power(&self.scratch) > self.budget {
                return;
            }
            let obj = self
                .matrices
                .chip_bips_with_transition(self.current, &self.scratch, self.dvfs, self.explore)
                .value();
            let better = match &self.best {
                None => true,
                Some(inc) => obj > inc.obj || (obj == inc.obj && rank < inc.rank),
            };
            if better {
                self.best = Some(Incumbent {
                    obj,
                    rank,
                    combo: self.scratch.clone(),
                });
            }
            return;
        }
        let Row {
            power: row_power,
            bips: row_bips,
            from,
            core,
            weight,
        } = self.rows[depth];
        let (allowed, hits) = (self.allowed[from], self.hits[from]);
        let base_p = self.base_p_suffix[depth + 1];
        for m in 0..PowerMode::COUNT {
            if allowed & 1 << m == 0 {
                continue;
            }
            let p2 = power + row_power[m];
            if p2 + base_p > self.power_cap {
                continue;
            }
            let b2 = bips + row_bips[m];
            let hit2 = hit || hits & 1 << m != 0;
            if !hit2 && !self.reach_suffix[depth + 1] {
                continue;
            }
            let rank2 = rank + m as u128 * weight;
            if let Some(inc) = &self.best {
                // `rank2` is the smallest rank in this subtree (unassigned
                // digits are Turbo = 0), so an equal-bound subtree with a
                // larger rank cannot supply the scan's winner either.
                let (inc_obj, inc_rank) = (inc.obj, inc.rank);
                let pruned = |extra: f64| {
                    let ub_bips = b2 + self.base_b_suffix[depth + 1] + extra;
                    let ub = ub_bips * self.factor * (1.0 + BOUND_SLACK) + self.bips_slack;
                    ub < inc_obj || (ub == inc_obj && rank2 > inc_rank)
                };
                // O(1) pre-bound first: no completion buys more than the
                // room at the best remaining ratio, nor more than every
                // remaining segment. Only then the LP walk, which stops
                // once the bonus lifts the bound to the incumbent.
                let room = (self.power_cap - p2 - base_p).max(0.0);
                let quick = (room * self.ratio_suffix[depth + 1]).min(self.db_suffix[depth + 1]);
                if pruned(quick) {
                    continue;
                }
                let enough = (inc_obj - self.bips_slack) / (self.factor * (1.0 + BOUND_SLACK))
                    - b2
                    - self.base_b_suffix[depth + 1];
                if pruned(self.frac_extra(depth + 1, room, enough)) {
                    continue;
                }
            }
            self.scratch.set(CoreId::new(core), PowerMode::ALL[m]);
            self.dfs(depth + 1, p2, b2, hit2, rank2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_ctx() -> (DvfsParams, Micros) {
        (DvfsParams::paper(), Micros::new(500.0))
    }

    fn matrices(rows: &[(f64, f64)]) -> PowerBipsMatrices {
        let power = rows
            .iter()
            .map(|&(p, _)| PowerMode::ALL.map(|m| p * m.power_scale()))
            .collect();
        let bips = rows
            .iter()
            .map(|&(_, b)| PowerMode::ALL.map(|m| b * m.bips_scale_bound()))
            .collect();
        PowerBipsMatrices::from_rows(power, bips)
    }

    fn assert_matches_scan(m: &PowerBipsMatrices, current: &ModeCombination, budget: f64) {
        let (dvfs, explore) = paper_ctx();
        let budget = Watts::new(budget);
        let want = exhaustive(m, current, budget, &dvfs, explore);
        let got = solve(m, current, budget, &dvfs, explore);
        assert_eq!(got, want, "budget {budget:?}");
    }

    #[test]
    fn matches_scan_across_budget_sweep() {
        let m = matrices(&[(20.0, 2.0), (10.0, 0.4), (15.0, 1.1), (12.0, 1.7)]);
        let current = ModeCombination::uniform(4, PowerMode::Turbo);
        let all_turbo = 20.0 + 10.0 + 15.0 + 12.0;
        for pct in 0..=110 {
            assert_matches_scan(&m, &current, all_turbo * pct as f64 / 100.0);
        }
    }

    #[test]
    fn matches_scan_from_mixed_current_modes() {
        let m = matrices(&[(20.0, 2.0), (10.0, 0.4), (15.0, 1.1)]);
        for rank in 0..27 {
            let current = ModeCombination::from_rank(3, rank);
            for budget in [10.0, 30.0, 38.0, 45.0, 60.0] {
                assert_matches_scan(&m, &current, budget);
            }
        }
    }

    #[test]
    fn identical_cores_tie_resolves_to_scan_winner() {
        // Four identical cores: huge argmax plateaus at every budget step.
        let m = matrices(&[(10.0, 1.0); 4]);
        let current = ModeCombination::uniform(4, PowerMode::Turbo);
        for pct in 0..=100 {
            assert_matches_scan(&m, &current, 40.0 * pct as f64 / 100.0);
        }
    }

    #[test]
    fn zero_spread_bips_ties_resolve_to_scan_winner() {
        // BIPS identical across modes: the objective only moves through the
        // stall factor and feasibility.
        let power = vec![[20.0, 17.0, 12.0], [10.0, 8.0, 6.0]];
        let bips = vec![[1.5, 1.5, 1.5], [0.7, 0.7, 0.7]];
        let m = PowerBipsMatrices::from_rows(power, bips);
        for rank in 0..9 {
            let current = ModeCombination::from_rank(2, rank);
            for budget in [10.0, 18.0, 20.0, 25.0, 31.0] {
                assert_matches_scan(&m, &current, budget);
            }
        }
    }

    #[test]
    fn infeasible_budget_falls_back_to_all_eff2() {
        let m = matrices(&[(20.0, 2.0), (18.0, 1.0)]);
        let current = ModeCombination::uniform(2, PowerMode::Turbo);
        let (dvfs, explore) = paper_ctx();
        let combo = solve(&m, &current, Watts::new(1.0), &dvfs, explore);
        assert!(combo.as_slice().iter().all(|&m| m == PowerMode::Eff2));
        assert_matches_scan(&m, &current, 1.0);
    }

    #[test]
    fn degenerate_inputs_fall_back_to_scan() {
        let m = PowerBipsMatrices::from_rows(vec![[f64::NAN, 1.0, 0.5]], vec![[1.0, 0.9, 0.8]]);
        let current = ModeCombination::uniform(1, PowerMode::Turbo);
        let (dvfs, explore) = paper_ctx();
        let want = exhaustive(&m, &current, Watts::new(2.0), &dvfs, explore);
        let got = solve(&m, &current, Watts::new(2.0), &dvfs, explore);
        assert_eq!(got, want);
    }

    #[test]
    fn prunes_most_of_the_space_on_hetero_chips() {
        let rows: Vec<(f64, f64)> = (0..16)
            .map(|i| {
                (
                    12.0 + (i * 7 % 11) as f64 * 1.3,
                    0.4 + (i * 5 % 9) as f64 * 0.35,
                )
            })
            .collect();
        let m = matrices(&rows);
        let current = (0..16)
            .map(|i| PowerMode::ALL[i % 3])
            .collect::<ModeCombination>();
        let budget = Watts::new(0.8 * rows.iter().map(|r| r.0).sum::<f64>());
        let (dvfs, explore) = paper_ctx();
        let (_, stats) = solve_with_stats(&m, &current, budget, &dvfs, explore);
        assert!(
            stats.nodes < 200_000,
            "16-way search visited {} nodes",
            stats.nodes
        );
    }
}

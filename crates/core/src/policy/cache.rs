//! Memoized MaxBIPS decisions: a bounded LRU of exact answers, each valid
//! over a range of budgets.
//!
//! The global manager re-solves the mode-assignment argmax every explore
//! interval, but phase behaviour makes most intervals repeats: the same
//! (power, BIPS) prediction matrix recurs whenever a workload revisits a
//! phase, often under a different budget. [`DecisionCache`] canonicalizes
//! each decision problem into a [`QuantizedKey`] (the bit pattern of every
//! solver input) and memoizes the solved [`ModeCombination`]s in a
//! bounded LRU.
//!
//! # Exactness
//!
//! Keys are the raw bit patterns of the inputs, so a hit can only occur
//! for inputs bit-identical to a previous solve, the budget aside (see
//! *Budget intervals* below) — and the branch-and-bound solver is a pure
//! function of those inputs, so the cached answer equals what a fresh
//! solve would return, bit for bit. Misses always run the real solver.
//! [`CacheConfig::verify_hits`] re-solves every hit and asserts equality,
//! an audit of that argument for tests.
//!
//! # Budget intervals
//!
//! The solver rejects a combination `c` only when `chip_power(c) > budget`,
//! so the feasible set only shrinks as the budget drops. If `c*` is the
//! answer at budget `B`, it stays feasible at every budget in
//! `[P(c*), B]`, and everything that beat it was already infeasible at `B`:
//! `c*` is the exact answer on that whole range. When nothing fits at `B`
//! the all-Eff2 fallback is exact on `(−∞, B]`. So an exact key leaves the
//! budget out, and its problem holds every answer seen so far as
//! `(combo, lo, hi)`, sorted by `lo`. Distinct answers cover disjoint
//! ranges, so a lookup at `B` takes the last answer with `lo ≤ B` and hits
//! iff `B ≤ hi`; a miss solves and then records `[P(c*), B]`, or raises
//! `hi` of the answer with the same lower bound (which is the same
//! combination).
//!
//! The argument needs the exact solver and objectives that are never NaN
//! (with a NaN objective the scan's first strict maximum depends on which
//! candidates remain). A key therefore keeps its budget word — and its one
//! answer serves exactly that key — when the answer does not come from
//! [`solver::solve`], or when the budget, the explore interval or the
//! worst transition stall is not finite or the explore interval is not
//! positive. A budget-free problem whose matrix cells are not all finite
//! and non-negative gets answers that hold only at the budget they were
//! solved at; the cells are checked once, when the problem enters the
//! cache, so a lookup never scans them. The two key shapes are `7n + 5`
//! and `7n + 6` words long for `n` cores, so they never collide.
//!
//! # Determinism
//!
//! Lookup order is the only input to the LRU state: recency and the
//! `capacity` bound count *answers*, the recency list is an intrusive
//! doubly-linked list over a slot arena, and eviction picks the list tail —
//! never anything derived from `HashMap` iteration order. Two runs issuing
//! the same request sequence hold identical cache contents.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

use gpm_power::DvfsParams;
use gpm_types::{
    GpmError, Micros, ModeCombination, PowerMode, QuantizedKey, QuantizedKeyBuilder, Result, Watts,
};

use crate::fleet::NodeIdHasher;
use crate::PowerBipsMatrices;

use super::{solver, Policy, PolicyContext};

/// Sentinel index for list and chain ends.
const NIL: usize = usize::MAX;

/// The problem index: fingerprint → newest problem with that fingerprint
/// (problems sharing one chain through [`Problem::next`]). Hashed by one
/// [`NodeIdHasher`] round; a match still compares every word.
type ProblemMap = HashMap<u64, usize, BuildHasherDefault<NodeIdHasher>>;

/// Settings for a [`DecisionCache`]: capacity 4096 and verification off
/// by default. Keys are always exact, so hits are bit-identical to fresh
/// solves.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum number of memoized answers; the least-recently-used answer
    /// is evicted beyond this. Must be at least 1.
    pub capacity: usize,
    /// Audit mode: re-solve every hit and assert the cached combination
    /// matches. Costs a full solve per hit — for tests and audits only.
    pub verify_hits: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            verify_hits: false,
        }
    }
}

/// Counters describing how much solver work a cache (or fleet engine)
/// avoided. Carried on `RunResult` and printed by the CLI summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheCounters {
    /// Mode decisions requested in total.
    pub decisions_total: u64,
    /// Decisions answered from the memoized store.
    pub cache_hits: u64,
    /// Decisions answered by within-tick deduplication (fleet engine only).
    pub dedup_hits: u64,
    /// Estimated solver microseconds avoided (avoided solves × the mean
    /// measured solve time). Wall-clock derived, so informational — it
    /// never feeds back into any decision.
    pub solver_us_saved: f64,
}

impl CacheCounters {
    /// Fraction of decisions answered without running the solver.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.decisions_total == 0 {
            0.0
        } else {
            (self.cache_hits + self.dedup_hits) as f64 / self.decisions_total as f64
        }
    }
}

/// A serializable image of a [`DecisionCache`]: every problem key once,
/// every memoized answer in recency order, plus the accumulated counters
/// and solve-time statistics. Produced by [`DecisionCache::snapshot`];
/// replayed by [`DecisionCache::restore`]. Answers are listed oldest
/// (least recently used) first, so re-inserting them in order reproduces
/// the LRU state — and with it every future eviction — exactly.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheSnapshot {
    /// Every cached problem's key, in order of its first answer below.
    pub problems: Vec<QuantizedKey>,
    /// Memoized answers, least-recently-used first.
    pub answers: Vec<CachedAnswer>,
    /// Accumulated hit/savings counters at snapshot time.
    pub counters: CacheCounters,
    /// Total measured microseconds across fresh solves.
    pub solve_us_total: f64,
    /// Number of fresh solves measured.
    pub solve_count: u64,
}

/// One memoized answer in a [`CacheSnapshot`]: the combination and the
/// budgets `[lo, hi]` it is exact for. An absent bound is unbounded: `lo`
/// for the infeasible fallback, both for a key that carries its budget.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CachedAnswer {
    /// Index of the answer's key in [`CacheSnapshot::problems`].
    pub problem: usize,
    /// The memoized decision.
    pub combo: ModeCombination,
    /// Lowest budget the answer holds at.
    pub lo: Option<f64>,
    /// Highest budget the answer holds at.
    pub hi: Option<f64>,
}

/// One cached problem: its key, stored once, and its answers.
#[derive(Debug)]
struct Problem {
    key: QuantizedKey,
    /// Whether the key carries the budget word, so its one answer serves
    /// every lookup of the key.
    budget_in_key: bool,
    /// Whether answers widen to `[P(c*), B]`: a budget-free key whose
    /// cells are all finite and non-negative. A budget-free answer that
    /// does not widen holds at its own budget only.
    widens: bool,
    /// Answer slots by ascending lower bound.
    answers: Vec<usize>,
    /// The next problem with the same fingerprint, or `NIL`.
    next: usize,
}

/// One memoized answer in the slot arena.
#[derive(Debug)]
struct Slot {
    combo: ModeCombination,
    lo: f64,
    hi: f64,
    problem: usize,
    prev: usize,
    next: usize,
}

/// A bounded LRU memo of solved mode-assignment problems, keyed on the
/// canonical form of every solver input; one budget-free key serves every
/// budget its answers cover.
///
/// # Examples
///
/// ```
/// use gpm_core::{DecisionCache, CacheConfig, PowerBipsMatrices};
/// use gpm_power::DvfsParams;
/// use gpm_types::{Micros, ModeCombination, PowerMode, Watts};
///
/// let mut cache = DecisionCache::new(CacheConfig::default())?;
/// let matrices = PowerBipsMatrices::from_rows(
///     vec![[20.0, 12.0, 7.0], [18.0, 11.0, 6.5]],
///     vec![[2.0, 1.7, 1.4], [1.5, 1.3, 1.1]],
/// );
/// let current = ModeCombination::uniform(2, PowerMode::Turbo);
/// let dvfs = DvfsParams::paper();
/// let explore = Micros::new(500.0);
/// let first = cache.solve(&matrices, &current, Watts::new(33.0), &dvfs, explore);
/// let again = cache.solve(&matrices, &current, Watts::new(33.0), &dvfs, explore);
/// assert_eq!(first, again);
/// // The answer draws 31 W, so it is also the answer at 32 W: no solve.
/// assert_eq!(matrices.chip_power(&first), Watts::new(31.0));
/// let lower = cache.solve(&matrices, &current, Watts::new(32.0), &dvfs, explore);
/// assert_eq!(lower, first);
/// assert_eq!(cache.counters().cache_hits, 2);
/// # Ok::<(), gpm_types::GpmError>(())
/// ```
#[derive(Debug)]
pub struct DecisionCache {
    config: CacheConfig,
    index: ProblemMap,
    problems: Vec<Problem>,
    /// Indices of `problems` entries with no answers left, for reuse.
    free_problems: Vec<usize>,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
    /// [`solve`](Self::solve)'s reusable key buffer.
    scratch: QuantizedKeyBuilder,
    counters: CacheCounters,
    solve_us_total: f64,
    solve_count: u64,
}

impl DecisionCache {
    /// Creates an empty cache. Rejects a zero capacity.
    pub fn new(config: CacheConfig) -> Result<Self> {
        if config.capacity == 0 {
            return Err(GpmError::InvalidConfig {
                parameter: "cache.capacity",
                reason: "decision cache capacity must be at least 1".into(),
            });
        }
        Ok(Self {
            index: ProblemMap::with_capacity_and_hasher(
                config.capacity.min(1 << 16),
                BuildHasherDefault::default(),
            ),
            problems: Vec::new(),
            free_problems: Vec::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            scratch: QuantizedKeyBuilder::default(),
            counters: CacheCounters::default(),
            solve_us_total: 0.0,
            solve_count: 0,
            config,
        })
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of memoized answers currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no answers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The accumulated hit/savings counters.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Mean measured microseconds per fresh solve (0 before the first one).
    #[must_use]
    pub fn mean_solve_micros(&self) -> f64 {
        if self.solve_count == 0 {
            0.0
        } else {
            self.solve_us_total / self.solve_count as f64
        }
    }

    /// Canonicalizes one decision problem, answered by [`solver::solve`],
    /// into its cache key: shape, the full power and BIPS matrices, the
    /// current mode vector, the budget unless the budget-interval rule
    /// applies (see the module docs), the explore length and the DVFS
    /// fingerprint.
    #[must_use]
    pub fn key(
        &self,
        matrices: &PowerBipsMatrices,
        current: &ModeCombination,
        budget: Watts,
        dvfs: &DvfsParams,
        explore: Micros,
    ) -> QuantizedKey {
        let mut b = QuantizedKeyBuilder::with_capacity(7 * matrices.cores() + 6);
        let ctx = PolicyContext {
            current_modes: current,
            matrices,
            future: None,
            budget,
            dvfs,
            explore,
        };
        Self::write_key(&mut b, &ctx, true);
        b.finish()
    }

    /// [`key`](Self::key) into a reusable builder: clears `b` and pushes
    /// the problem's canonical words, reading the matrix rows directly.
    /// `exact` says whether the answer will come from [`solver::solve`];
    /// only then may the key leave the budget out.
    pub fn write_key(b: &mut QuantizedKeyBuilder, ctx: &PolicyContext<'_>, exact: bool) {
        // The largest transition stall is Turbo ↔ Eff2's; if it is finite,
        // so is every other. The cells are checked once per problem, when
        // it enters the cache (`add_problem`), not on every lookup.
        let budget_free = exact
            && ctx.budget.value().is_finite()
            && ctx.explore.value().is_finite()
            && ctx.explore.value() > 0.0
            && ctx
                .dvfs
                .transition_time(PowerMode::Turbo, PowerMode::Eff2)
                .value()
                .is_finite();
        let matrices = ctx.matrices;
        b.clear();
        b.push_word(matrices.cores() as u64);
        for (power, bips) in matrices.power_rows().iter().zip(matrices.bips_rows()) {
            b.push_values(power);
            b.push_values(bips);
        }
        for &mode in ctx.current_modes.as_slice() {
            b.push_word(mode.index() as u64);
        }
        if !budget_free {
            b.push_value(ctx.budget.value());
        }
        b.push_word(ctx.explore.value().to_bits());
        b.push_word(ctx.dvfs.nominal_vdd.value().to_bits());
        b.push_word(ctx.dvfs.nominal_frequency.value().to_bits());
        b.push_word(ctx.dvfs.slew_rate_v_per_us.to_bits());
    }

    /// Raw lookup: the memoized combination for `key` at `budget`
    /// (promoting it to most-recently-used), without touching the
    /// counters. The fleet engine uses this and accounts for hits itself.
    pub fn get(&mut self, key: &QuantizedKey, budget: Watts) -> Option<ModeCombination> {
        let problem = self.find(key.fingerprint(), key.words())?;
        let slot = self.answer(problem, budget)?;
        Some(self.touch(slot))
    }

    /// Raw insert: memoizes `combo`, the solved answer for `key` at
    /// `budget` on `matrices`, evicting the least-recently-used answer at
    /// capacity. Re-inserting an answer the key already holds refreshes
    /// its value, range and recency.
    pub fn insert(
        &mut self,
        key: &QuantizedKey,
        matrices: &PowerBipsMatrices,
        budget: Watts,
        combo: ModeCombination,
    ) {
        let problem = self.problem_for(key);
        self.record(problem, matrices, budget, combo);
    }

    /// The memoizing equivalent of [`solver::solve`]: answers from the
    /// cache when the canonicalized problem was seen before at a budget
    /// its answer covers, otherwise runs the exact branch-and-bound and
    /// memoizes the result.
    pub fn solve(
        &mut self,
        matrices: &PowerBipsMatrices,
        current: &ModeCombination,
        budget: Watts,
        dvfs: &DvfsParams,
        explore: Micros,
    ) -> ModeCombination {
        self.counters.decisions_total += 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        let ctx = PolicyContext {
            current_modes: current,
            matrices,
            future: None,
            budget,
            dvfs,
            explore,
        };
        Self::write_key(&mut scratch, &ctx, true);
        let problem = self.find(scratch.fingerprint(), scratch.words());
        if let Some(slot) = problem.and_then(|p| self.answer(p, budget)) {
            self.scratch = scratch;
            let combo = self.touch(slot);
            self.counters.cache_hits += 1;
            self.counters.solver_us_saved += self.mean_solve_micros();
            if self.config.verify_hits {
                let fresh = solver::solve(matrices, current, budget, dvfs, explore);
                assert_eq!(
                    combo, fresh,
                    "decision cache hit diverged from a fresh solve \
                     of the same inputs"
                );
            }
            return combo;
        }
        let start = Instant::now();
        let combo = solver::solve(matrices, current, budget, dvfs, explore);
        self.solve_us_total += start.elapsed().as_secs_f64() * 1e6;
        self.solve_count += 1;
        let problem = problem.unwrap_or_else(|| self.add_problem(scratch.to_key()));
        self.scratch = scratch;
        self.record(problem, matrices, budget, combo.clone());
        combo
    }

    /// Exports the cache's full state: each problem key once, answers in
    /// recency order (oldest first), plus counters and solve-time
    /// statistics. The walk follows the intrusive list from the LRU tail,
    /// never `HashMap` iteration order, so the snapshot is deterministic.
    #[must_use]
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut position = vec![NIL; self.problems.len()];
        let mut problems = Vec::new();
        let mut answers = Vec::with_capacity(self.slots.len());
        let mut slot = self.tail;
        while slot != NIL {
            let s = &self.slots[slot];
            if position[s.problem] == NIL {
                position[s.problem] = problems.len();
                problems.push(self.problems[s.problem].key.clone());
            }
            answers.push(CachedAnswer {
                problem: position[s.problem],
                combo: s.combo.clone(),
                lo: s.lo.is_finite().then_some(s.lo),
                hi: s.hi.is_finite().then_some(s.hi),
            });
            slot = s.prev;
        }
        CacheSnapshot {
            problems,
            answers,
            counters: self.counters,
            solve_us_total: self.solve_us_total,
            solve_count: self.solve_count,
        }
    }

    /// Rebuilds a cache from a [`snapshot`](Self::snapshot): answers are
    /// re-inserted oldest-first, reproducing the exact LRU recency order,
    /// and the counters and solve statistics are restored verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] if `config` is invalid or an
    /// answer names a problem the snapshot does not list.
    pub fn restore(config: CacheConfig, snapshot: &CacheSnapshot) -> Result<Self> {
        let mut cache = Self::new(config)?;
        for answer in &snapshot.answers {
            let key =
                snapshot
                    .problems
                    .get(answer.problem)
                    .ok_or_else(|| GpmError::InvalidConfig {
                        parameter: "cache.snapshot",
                        reason: format!(
                            "answer names problem {} of {}",
                            answer.problem,
                            snapshot.problems.len()
                        ),
                    })?;
            let problem = cache.problem_for(key);
            cache.place(
                problem,
                answer.lo.unwrap_or(f64::NEG_INFINITY),
                answer.hi.unwrap_or(f64::INFINITY),
                answer.combo.clone(),
            );
        }
        cache.counters = snapshot.counters;
        cache.solve_us_total = snapshot.solve_us_total;
        cache.solve_count = snapshot.solve_count;
        Ok(cache)
    }

    /// The cached problem with these words, if any.
    fn find(&self, fingerprint: u64, words: &[u64]) -> Option<usize> {
        let mut problem = self.index.get(&fingerprint).copied().unwrap_or(NIL);
        while problem != NIL && self.problems[problem].key.words() != words {
            problem = self.problems[problem].next;
        }
        (problem != NIL).then_some(problem)
    }

    /// The cached problem with `key`, indexed first if it is new.
    fn problem_for(&mut self, key: &QuantizedKey) -> usize {
        match self.find(key.fingerprint(), key.words()) {
            Some(problem) => problem,
            None => self.add_problem(key.clone()),
        }
    }

    /// The slot of `problem`'s answer at `budget`, if one covers it.
    fn answer(&self, problem: usize, budget: Watts) -> Option<usize> {
        let problem = &self.problems[problem];
        if problem.budget_in_key {
            return problem.answers.first().copied();
        }
        let budget = budget.value();
        let after = problem
            .answers
            .partition_point(|&slot| self.slots[slot].lo <= budget);
        let slot = problem.answers[after.checked_sub(1)?];
        (budget <= self.slots[slot].hi).then_some(slot)
    }

    /// Promotes `slot` to most-recently-used and returns its combination.
    fn touch(&mut self, slot: usize) -> ModeCombination {
        if self.head != slot {
            self.detach(slot);
            self.attach_front(slot);
        }
        self.slots[slot].combo.clone()
    }

    /// Indexes a new problem with no answers yet.
    fn add_problem(&mut self, key: QuantizedKey) -> usize {
        // A budget-free key is `7n + 5` words for `n` cores, the first `6n`
        // after the shape word being the cells' bit patterns.
        let words = key.words();
        let budget_free = words.first().is_some_and(|&cores| {
            cores
                .checked_mul(7)
                .and_then(|w| w.checked_add(5))
                .is_some_and(|len| len == words.len() as u64)
        });
        let widens = budget_free
            && words[1..=6 * words[0] as usize]
                .iter()
                .map(|&w| f64::from_bits(w))
                .all(|cell| cell >= 0.0 && cell.is_finite());
        let fingerprint = key.fingerprint();
        let problem = Problem {
            key,
            budget_in_key: !budget_free,
            widens,
            answers: Vec::new(),
            next: NIL,
        };
        let index = match self.free_problems.pop() {
            Some(index) => {
                self.problems[index] = problem;
                index
            }
            None => {
                self.problems.push(problem);
                self.problems.len() - 1
            }
        };
        self.problems[index].next = self.index.insert(fingerprint, index).unwrap_or(NIL);
        index
    }

    /// Unindexes a problem whose last answer was evicted.
    fn remove_problem(&mut self, problem: usize) {
        let fingerprint = self.problems[problem].key.fingerprint();
        let next = self.problems[problem].next;
        let head = self.index[&fingerprint];
        if head == problem {
            if next == NIL {
                self.index.remove(&fingerprint);
            } else {
                self.index.insert(fingerprint, next);
            }
        } else {
            let mut prev = head;
            while self.problems[prev].next != problem {
                prev = self.problems[prev].next;
            }
            self.problems[prev].next = next;
        }
        self.problems[problem].key = QuantizedKey::default();
        self.free_problems.push(problem);
    }

    /// Memoizes `combo`, solved for `problem` at `budget`, over the
    /// budgets it is exact for.
    fn record(
        &mut self,
        problem: usize,
        matrices: &PowerBipsMatrices,
        budget: Watts,
        combo: ModeCombination,
    ) {
        let budget = budget.value();
        let (lo, hi) = if self.problems[problem].budget_in_key {
            (f64::NEG_INFINITY, f64::INFINITY)
        } else if self.problems[problem].widens {
            let power = matrices.chip_power(&combo).value();
            // Over budget means nothing fits: the all-Eff2 fallback, which
            // then holds at every lower budget too.
            let lo = if power <= budget {
                power
            } else {
                f64::NEG_INFINITY
            };
            (lo, budget)
        } else {
            (budget, budget)
        };
        self.place(problem, lo, hi, combo);
    }

    /// Stores `combo` as `problem`'s answer on `[lo, hi]`: an answer with
    /// the same lower bound is the same answer, so its range grows;
    /// otherwise a new answer goes in, evicting the least-recently-used
    /// one at capacity.
    fn place(&mut self, problem: usize, lo: f64, hi: f64, combo: ModeCombination) {
        let at = self.lower_bound(problem, lo);
        let existing = self.problems[problem]
            .answers
            .get(at)
            .copied()
            .filter(|&slot| self.problems[problem].budget_in_key || self.slots[slot].lo == lo);
        if let Some(slot) = existing {
            let s = &mut self.slots[slot];
            s.combo = combo;
            s.hi = s.hi.max(hi);
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        let slot = if self.slots.len() == self.config.capacity {
            // Reuse the evicted tail's slot.
            let victim = self.tail;
            self.detach(victim);
            let owner = self.slots[victim].problem;
            self.problems[owner].answers.retain(|&slot| slot != victim);
            if self.problems[owner].answers.is_empty() && owner != problem {
                self.remove_problem(owner);
            }
            self.slots[victim] = Slot {
                combo,
                lo,
                hi,
                problem,
                prev: NIL,
                next: NIL,
            };
            victim
        } else {
            self.slots.push(Slot {
                combo,
                lo,
                hi,
                problem,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        let at = self.lower_bound(problem, lo);
        self.problems[problem].answers.insert(at, slot);
        self.attach_front(slot);
    }

    /// The position of the first of `problem`'s answers with `lo` or
    /// more as its lower bound.
    fn lower_bound(&self, problem: usize, lo: f64) -> usize {
        self.problems[problem]
            .answers
            .partition_point(|&slot| self.slots[slot].lo < lo)
    }

    /// Unlinks `slot` from the recency list.
    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev == NIL {
            if self.head == slot {
                self.head = next;
            }
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            if self.tail == slot {
                self.tail = prev;
            }
        } else {
            self.slots[next].prev = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    /// Links `slot` in as most-recently-used.
    fn attach_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// [`MaxBips`](crate::MaxBips) behind a [`DecisionCache`]: identical
/// decisions, amortized cost on phase repeats.
///
/// # Examples
///
/// ```
/// use gpm_core::{CachedMaxBips, Policy};
///
/// let policy = CachedMaxBips::new();
/// assert_eq!(policy.name(), "CachedMaxBIPS");
/// assert_eq!(policy.cache_counters().unwrap().decisions_total, 0);
/// ```
#[derive(Debug)]
pub struct CachedMaxBips {
    cache: DecisionCache,
}

impl CachedMaxBips {
    /// The policy with the default cache configuration.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cache: DecisionCache::new(CacheConfig::default())
                .expect("default cache config is valid"),
        }
    }

    /// The policy over a custom cache configuration.
    pub fn with_config(config: CacheConfig) -> Result<Self> {
        Ok(Self {
            cache: DecisionCache::new(config)?,
        })
    }

    /// The underlying cache (counters, length).
    #[must_use]
    pub fn cache(&self) -> &DecisionCache {
        &self.cache
    }
}

impl Default for CachedMaxBips {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for CachedMaxBips {
    fn name(&self) -> &str {
        "CachedMaxBIPS"
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> ModeCombination {
        self.cache.solve(
            ctx.matrices,
            ctx.current_modes,
            ctx.budget,
            ctx.dvfs,
            ctx.explore,
        )
    }

    fn cache_counters(&self) -> Option<CacheCounters> {
        Some(self.cache.counters())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Fixture;
    use super::*;
    use gpm_types::PowerMode;

    #[test]
    fn zero_capacity_is_rejected() {
        let err = DecisionCache::new(CacheConfig {
            capacity: 0,
            ..CacheConfig::default()
        })
        .expect_err("capacity 0 must be rejected");
        assert!(matches!(err, GpmError::InvalidConfig { .. }));
    }

    #[test]
    fn hit_returns_the_memoized_solve_bit_identically() {
        let f = Fixture::new(&[(20.0, 2.0), (15.0, 1.5), (12.0, 0.5)]);
        let mut cache = DecisionCache::new(CacheConfig {
            verify_hits: true,
            ..CacheConfig::default()
        })
        .expect("valid config");
        let fresh = solver::solve(
            &f.matrices,
            &f.current,
            Watts::new(40.0),
            &f.dvfs,
            Micros::new(500.0),
        );
        for round in 0..3 {
            let got = cache.solve(
                &f.matrices,
                &f.current,
                Watts::new(40.0),
                &f.dvfs,
                Micros::new(500.0),
            );
            assert_eq!(got, fresh, "round {round}");
        }
        let c = cache.counters();
        assert_eq!(c.decisions_total, 3);
        assert_eq!(c.cache_hits, 2);
        assert_eq!(c.dedup_hits, 0);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// The one-core fixture drawing `watts` at Turbo: distinct `watts`,
    /// distinct problems.
    fn one_core(watts: f64) -> Fixture {
        Fixture::new(&[(watts, 2.0)])
    }

    fn key_of(cache: &DecisionCache, f: &Fixture, budget: f64) -> QuantizedKey {
        cache.key(
            &f.matrices,
            &f.current,
            Watts::new(budget),
            &f.dvfs,
            Micros::new(500.0),
        )
    }

    #[test]
    fn budgets_share_one_key_and_answers_cover_ranges() {
        // Answers on this chip draw: Turbo/Turbo 35 W, Turbo/Eff1
        // 32.86 W, Eff1/Eff1 30.01 W, Turbo/Eff2 29.21 W and Eff2/Eff2
        // 21.49 W.
        let f = Fixture::new(&[(20.0, 2.0), (15.0, 1.5)]);
        let mut cache = DecisionCache::new(CacheConfig {
            verify_hits: true,
            ..CacheConfig::default()
        })
        .expect("valid config");
        assert_eq!(key_of(&cache, &f, 30.0), key_of(&cache, &f, 36.0));
        let sequence = [
            (30.0, false),
            (33.0, false),
            (36.0, false),
            (30.0, true),
            (33.0, true),
            // Inside [29.21, 30]: Turbo/Eff2 without a solve.
            (29.5, true),
            // Between stored ranges: Eff1/Eff1, a new answer.
            (31.0, false),
            // Eff1/Eff1 again: its range grows to 31.5, no new answer.
            (31.5, false),
            (30.5, true),
            (31.3, true),
            // Eff2/Eff2 fits: a fourth answer on [21.49, 24].
            (24.0, false),
            // Nothing fits: the all-Eff2 fallback on (−∞, 20], kept apart
            // from the feasible Eff2/Eff2 answer it equals.
            (20.0, false),
            (15.0, true),
            (21.0, false),
            (20.5, true),
        ];
        let mut hits = 0;
        for (budget, hit) in sequence {
            let before = cache.counters().cache_hits;
            let got = cache.solve(
                &f.matrices,
                &f.current,
                Watts::new(budget),
                &f.dvfs,
                Micros::new(500.0),
            );
            let fresh = solver::solve(
                &f.matrices,
                &f.current,
                Watts::new(budget),
                &f.dvfs,
                Micros::new(500.0),
            );
            assert_eq!(got, fresh, "budget {budget}");
            assert_eq!(
                cache.counters().cache_hits - before,
                u64::from(hit),
                "budget {budget}"
            );
            hits += u64::from(hit);
        }
        assert_eq!(cache.counters().cache_hits, hits);
        assert_eq!(hits, 7);
        assert_eq!(cache.len(), 6, "six distinct answers");
        let snapshot = cache.snapshot();
        assert_eq!(snapshot.problems.len(), 1, "one problem, one key");
        let ranges: Vec<(Option<f64>, Option<f64>)> =
            snapshot.answers.iter().map(|a| (a.lo, a.hi)).collect();
        assert!(ranges.contains(&(None, Some(21.0))), "{ranges:?}");
        assert!(ranges.contains(&(Some(35.0), Some(36.0))), "{ranges:?}");
        assert!(
            ranges.contains(&(Some(21.494_374_999_999_998), Some(24.0))),
            "{ranges:?}"
        );
    }

    #[test]
    fn lru_eviction_order_is_deterministic() {
        let mut cache = DecisionCache::new(CacheConfig {
            capacity: 2,
            ..CacheConfig::default()
        })
        .expect("valid config");
        let turbo = ModeCombination::uniform(1, PowerMode::Turbo);
        let fixtures = [one_core(10.0), one_core(11.0), one_core(12.0)];
        let keys: Vec<QuantizedKey> = fixtures.iter().map(|f| key_of(&cache, f, 40.0)).collect();
        let put = |cache: &mut DecisionCache, i: usize| {
            cache.insert(
                &keys[i],
                &fixtures[i].matrices,
                Watts::new(40.0),
                turbo.clone(),
            );
        };
        let hit =
            |cache: &mut DecisionCache, i: usize| cache.get(&keys[i], Watts::new(40.0)).is_some();
        put(&mut cache, 0);
        put(&mut cache, 1);
        // Touch 0 so 1 becomes least-recently-used; inserting 2 must
        // evict 1, on every run, regardless of hasher seed.
        assert!(hit(&mut cache, 0));
        put(&mut cache, 2);
        assert_eq!(cache.len(), 2);
        assert!(hit(&mut cache, 0));
        assert!(!hit(&mut cache, 1), "LRU answer must be the evictee");
        assert!(hit(&mut cache, 2));
        // And the evicted problem is insertable again (slot reuse is clean).
        put(&mut cache, 1);
        assert!(hit(&mut cache, 1));
        assert!(!hit(&mut cache, 0), "0 was LRU after 2's insert");
        assert_eq!(
            cache.snapshot().problems.len(),
            2,
            "evicted problems unindexed"
        );
    }

    #[test]
    fn reinserting_an_answer_raises_its_range_without_growth() {
        let mut cache = DecisionCache::new(CacheConfig {
            capacity: 2,
            ..CacheConfig::default()
        })
        .expect("valid config");
        let turbo = ModeCombination::uniform(1, PowerMode::Turbo);
        let (a, b, c) = (one_core(20.0), one_core(21.0), one_core(22.0));
        let (ka, kb, kc) = (
            key_of(&cache, &a, 30.0),
            key_of(&cache, &b, 30.0),
            key_of(&cache, &c, 30.0),
        );
        cache.insert(&ka, &a.matrices, Watts::new(30.0), turbo.clone());
        assert!(
            cache.get(&ka, Watts::new(35.0)).is_none(),
            "35 W not seen yet"
        );
        assert!(
            cache.get(&ka, Watts::new(19.0)).is_none(),
            "below the answer's power"
        );
        cache.insert(&kb, &b.matrices, Watts::new(30.0), turbo.clone());
        // Same answer at 35 W: the range becomes [20, 35], still one answer.
        cache.insert(&ka, &a.matrices, Watts::new(35.0), turbo.clone());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&ka, Watts::new(33.0)), Some(turbo.clone()));
        cache.insert(&kc, &c.matrices, Watts::new(30.0), turbo);
        assert!(
            cache.get(&kb, Watts::new(30.0)).is_none(),
            "b was LRU after a's refresh"
        );
    }

    #[test]
    fn keys_keep_the_budget_word_where_the_interval_rule_is_not_exact() {
        let f = Fixture::new(&[(20.0, 2.0), (15.0, 1.5)]);
        let len = |budget: f64, dvfs: &DvfsParams, explore: f64, solver_exact: bool| {
            let mut b = QuantizedKeyBuilder::default();
            let ctx = PolicyContext {
                current_modes: &f.current,
                matrices: &f.matrices,
                future: None,
                budget: Watts::new(budget),
                dvfs,
                explore: Micros::new(explore),
            };
            DecisionCache::write_key(&mut b, &ctx, solver_exact);
            b.words().len()
        };
        let (budget_free, budget_keyed) = (7 * 2 + 5, 7 * 2 + 6);
        let dvfs = &f.dvfs;
        assert_eq!(len(30.0, dvfs, 500.0, true), budget_free);
        // Not the exact solver (the fleet's hierarchical path).
        assert_eq!(len(30.0, dvfs, 500.0, false), budget_keyed);
        // Non-finite budget or explore, non-positive explore.
        assert_eq!(len(f64::NAN, dvfs, 500.0, true), budget_keyed);
        assert_eq!(len(f64::INFINITY, dvfs, 500.0, true), budget_keyed);
        assert_eq!(len(30.0, dvfs, 0.0, true), budget_keyed);
        assert_eq!(len(30.0, dvfs, f64::INFINITY, true), budget_keyed);
        // A stalled regulator: infinite transition times.
        let stuck = DvfsParams {
            slew_rate_v_per_us: 0.0,
            ..DvfsParams::paper()
        };
        assert_eq!(len(30.0, &stuck, 500.0, true), budget_keyed);
    }

    #[test]
    fn invalid_cells_answer_only_at_their_own_budget() {
        let current = ModeCombination::uniform(2, PowerMode::Turbo);
        let (dvfs, explore) = (DvfsParams::paper(), Micros::new(500.0));
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let m = PowerBipsMatrices::from_rows(
                vec![[20.0, 12.0, 7.0], [18.0, 11.0, 6.5]],
                vec![[2.0, bad, 1.4], [1.5, 1.3, 1.1]],
            );
            let mut cache = DecisionCache::new(CacheConfig {
                verify_hits: true,
                ..CacheConfig::default()
            })
            .expect("valid config");
            for budget in [40.0, 39.0, 40.0, 39.5] {
                let got = cache.solve(&m, &current, Watts::new(budget), &dvfs, explore);
                let want = solver::solve(&m, &current, Watts::new(budget), &dvfs, explore);
                assert_eq!(got, want, "cell {bad}, budget {budget}");
            }
            assert_eq!(
                cache.counters().cache_hits,
                1,
                "cell {bad}: only 40 W repeats"
            );
            let snapshot = cache.snapshot();
            assert_eq!(snapshot.problems.len(), 1);
            assert_eq!(snapshot.answers.len(), 3, "cell {bad}");
            assert!(
                snapshot
                    .answers
                    .iter()
                    .all(|a| a.lo.is_some() && a.lo == a.hi),
                "cell {bad}: every answer holds at its own budget only"
            );
        }
    }

    #[test]
    fn a_budget_keyed_answer_serves_only_its_own_key() {
        let f = Fixture::new(&[(20.0, 2.0), (15.0, 1.5)]);
        let mut cache = DecisionCache::new(CacheConfig::default()).expect("valid config");
        let key_at = |budget: f64| {
            let mut b = QuantizedKeyBuilder::default();
            DecisionCache::write_key(&mut b, &f.ctx(budget), false);
            b.finish()
        };
        let (k30, k33) = (key_at(30.0), key_at(33.0));
        assert_ne!(k30, k33);
        let eff2 = ModeCombination::uniform(2, PowerMode::Eff2);
        cache.insert(&k30, &f.matrices, Watts::new(30.0), eff2.clone());
        // The key names its budget; the lookup budget plays no part.
        assert_eq!(cache.get(&k30, Watts::new(30.0)), Some(eff2.clone()));
        assert_eq!(cache.get(&k30, Watts::new(f64::NAN)), Some(eff2));
        assert!(cache.get(&k33, Watts::new(30.0)).is_none());
        let answer = &cache.snapshot().answers[0];
        assert_eq!((answer.lo, answer.hi), (None, None));
    }

    #[test]
    fn snapshot_lists_each_key_once_and_restores_ranges() {
        let (f, g) = (Fixture::new(&[(20.0, 2.0), (15.0, 1.5)]), one_core(20.0));
        let mut cache = DecisionCache::new(CacheConfig::default()).expect("valid config");
        let explore = Micros::new(500.0);
        for budget in [30.0, 33.0] {
            cache.solve(
                &f.matrices,
                &f.current,
                Watts::new(budget),
                &f.dvfs,
                explore,
            );
        }
        cache.solve(&g.matrices, &g.current, Watts::new(25.0), &g.dvfs, explore);
        let snapshot = cache.snapshot();
        assert_eq!(snapshot.problems.len(), 2);
        assert_eq!(snapshot.answers.len(), 3);
        let mut restored =
            DecisionCache::restore(CacheConfig::default(), &snapshot).expect("restores");
        assert_eq!(restored.snapshot(), snapshot);
        restored.solve(&f.matrices, &f.current, Watts::new(29.5), &f.dvfs, explore);
        assert_eq!(
            restored.counters().cache_hits,
            1,
            "the restored range answers"
        );
        let mut broken = snapshot;
        broken.answers[0].problem = 7;
        assert!(matches!(
            DecisionCache::restore(CacheConfig::default(), &broken),
            Err(GpmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn cached_policy_reports_counters() {
        let f = Fixture::new(&[(20.0, 2.0), (15.0, 1.5)]);
        let mut policy = CachedMaxBips::new();
        let first = policy.decide(&f.ctx(30.0));
        let second = policy.decide(&f.ctx(30.0));
        assert_eq!(first, second);
        let counters = policy.cache_counters().expect("cached policy has counters");
        assert_eq!(counters.decisions_total, 2);
        assert_eq!(counters.cache_hits, 1);
    }
}

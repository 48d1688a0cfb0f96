//! Memoized MaxBIPS decisions: a bounded LRU of exact answers, each valid
//! over a range of budgets.
//!
//! The global manager re-solves the mode-assignment argmax every explore
//! interval, but phase behaviour makes most intervals repeats: the same
//! (power, BIPS) prediction matrix recurs whenever a workload revisits a
//! phase, often under a different budget. [`DecisionCache`] identifies
//! each decision problem by a [`ProblemKey`] — the problem's shared
//! [`PowerBipsMatrices`] (a reference-count bump, not a copy), the current
//! [`ModeCombination`], the budget where it matters and the interval
//! parameters — and memoizes the solved combinations in a bounded LRU.
//! The fleet engine's within-tick dedup groups reports by the same key,
//! so there is one definition of "the same problem".
//!
//! # Exactness
//!
//! Two keys are equal only when their matrices hold bit-identical cells
//! ([`PowerBipsMatrices::same_cells`]) and every other input is
//! bit-identical too, the budget aside (see *Budget intervals* below) —
//! and the branch-and-bound solver is a pure function of those inputs, so
//! the cached answer equals what a fresh solve would return, bit for bit.
//! Misses always run the real solver. [`CacheConfig::verify_hits`]
//! re-solves every hit and asserts equality, an audit of that argument for
//! tests.
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
//! candidates remain). A key therefore keeps its budget — and its one
//! answer serves exactly that key — when the answer does not come from
//! [`solver::solve`], or when the budget, the explore interval or the
//! worst transition stall is not finite or the explore interval is not
//! positive. A budget-free problem whose matrix cells are not all finite
//! and non-negative gets answers that hold only at the budget they were
//! solved at; the matrices record that when they are built
//! ([`PowerBipsMatrices::cells_valid`]), so no lookup scans a cell.
//!
//! # Checkpoint form
//!
//! A key's word list exists only as its serialization in a
//! [`CacheSnapshot`], `{"words":[...]}`: the core count `n`; per core the
//! bit patterns of its three power cells, then its three BIPS cells; one
//! word per current mode; the budget's bits when the key keeps them; the
//! explore interval's bits and three DVFS words. That is `7n + 5` words
//! for a budget-free key and `7n + 6` for a budget-keyed one, and
//! [`ProblemKey::from_words`] refuses anything else.
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
use gpm_types::{Fingerprinter, GpmError, Micros, ModeCombination, PowerMode, Result, Watts};

use crate::fleet::NodeIdHasher;
use crate::PowerBipsMatrices;

use super::{solver, Policy, PolicyContext};

/// Sentinel index for list and chain ends.
const NIL: usize = usize::MAX;

/// Words of a key after its modes and optional budget: the explore
/// interval's bits, then `nominal_vdd`, `nominal_frequency` and
/// `slew_rate_v_per_us`.
const PARAMS: usize = 4;

/// The problem index: fingerprint → newest problem with that fingerprint
/// (problems sharing one chain through [`Problem::next`]). Hashed by one
/// [`NodeIdHasher`] round; a match still compares the whole key.
type ProblemMap = HashMap<u64, usize, BuildHasherDefault<NodeIdHasher>>;

/// One decision problem's identity, borrowed from its inputs: the parts a
/// [`ProblemKey`] owns, and their fingerprint. Probing with it builds no
/// key, so the cache and the fleet tick build one only for a problem new
/// to them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProblemRef<'a> {
    matrices: &'a PowerBipsMatrices,
    current: &'a ModeCombination,
    /// The budget's bits, unless the budget-interval rule leaves it out.
    budget: Option<u64>,
    params: [u64; PARAMS],
    fingerprint: u64,
}

impl<'a> ProblemRef<'a> {
    /// The problem `ctx` poses. `exact` says whether the answer comes
    /// from [`solver::solve`]; only then may the budget be left out (see
    /// the module docs).
    pub(crate) fn new(ctx: &PolicyContext<'a>, exact: bool) -> Self {
        // The largest transition stall is Turbo ↔ Eff2's; if it is finite,
        // so is every other.
        let budget_free = exact
            && ctx.budget.value().is_finite()
            && ctx.explore.value().is_finite()
            && ctx.explore.value() > 0.0
            && ctx
                .dvfs
                .transition_time(PowerMode::Turbo, PowerMode::Eff2)
                .value()
                .is_finite();
        let params = [
            ctx.explore.value().to_bits(),
            ctx.dvfs.nominal_vdd.value().to_bits(),
            ctx.dvfs.nominal_frequency.value().to_bits(),
            ctx.dvfs.slew_rate_v_per_us.to_bits(),
        ];
        let budget = (!budget_free).then(|| ctx.budget.value().to_bits());
        Self::from_parts(ctx.matrices, ctx.current_modes, budget, params)
    }

    /// Fingerprints the parts: the matrices' stored fingerprint, then the
    /// mode indices and the budget bits if kept. The parameter words are
    /// compared but not mixed in: one cache or tick sees one explore
    /// length and DVFS setting, so they would separate no problems and
    /// cost every probe four more rounds.
    fn from_parts(
        matrices: &'a PowerBipsMatrices,
        current: &'a ModeCombination,
        budget: Option<u64>,
        params: [u64; PARAMS],
    ) -> Self {
        let mut fingerprint = Fingerprinter::new();
        fingerprint.push(matrices.fingerprint());
        for &mode in current.as_slice() {
            fingerprint.push(mode.index() as u64);
        }
        if let Some(budget) = budget {
            fingerprint.push(budget);
        }
        Self {
            matrices,
            current,
            budget,
            params,
            fingerprint: fingerprint.finish(),
        }
    }

    /// The 64-bit fingerprint the problem is indexed by.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// An owned key for this problem: the matrices are shared, not copied.
    pub(crate) fn to_key(self) -> ProblemKey {
        ProblemKey {
            matrices: self.matrices.clone(),
            current: self.current.clone(),
            budget: self.budget,
            params: self.params,
            fingerprint: self.fingerprint,
        }
    }
}

impl PartialEq for ProblemRef<'_> {
    /// The one problem identity: equal fingerprints, budget and parameter
    /// words and modes, and bit-identical cells — a pointer compare when
    /// both share one matrix block. So `-0.0` and `0.0` cells differ and a
    /// NaN cell matches the same NaN.
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
            && self.budget == other.budget
            && self.params == other.params
            && self.current == other.current
            && self.matrices.same_cells(other.matrices)
    }
}

/// The decision cache's key: one decision problem, owned. It holds the
/// problem's [`PowerBipsMatrices`] (sharing their storage), the current
/// mode vector, the budget's bits unless the budget-interval rule leaves
/// it out, and the explore and DVFS words, plus a fingerprint mixed once
/// when the key is built.
///
/// Keys compare by fingerprint, then by every part, the cells by bit
/// pattern. The key serializes as its checkpoint word list,
/// `{"words":[...]}` (see the module docs); deserializing checks the
/// layout and recomputes the fingerprint.
///
/// # Examples
///
/// ```
/// use gpm_core::{PolicyContext, PowerBipsMatrices, ProblemKey};
/// use gpm_power::DvfsParams;
/// use gpm_types::{Micros, ModeCombination, PowerMode, Watts};
///
/// let matrices = PowerBipsMatrices::from_rows(vec![[20.0, 12.0, 7.0]], vec![[2.0, 1.7, 1.4]]);
/// let current = ModeCombination::uniform(1, PowerMode::Turbo);
/// let dvfs = DvfsParams::paper();
/// let ctx = |budget| PolicyContext {
///     current_modes: &current,
///     matrices: &matrices,
///     future: None,
///     budget: Watts::new(budget),
///     dvfs: &dvfs,
///     explore: Micros::new(500.0),
/// };
/// // The exact solver's key leaves the budget out: 7n + 5 words.
/// let key = ProblemKey::new(&ctx(15.0), true);
/// assert_eq!(key, ProblemKey::new(&ctx(18.0), true));
/// assert_eq!(key.to_words().len(), 12);
/// assert_eq!(ProblemKey::from_words(&key.to_words())?, key);
/// # Ok::<(), gpm_types::GpmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProblemKey {
    matrices: PowerBipsMatrices,
    current: ModeCombination,
    budget: Option<u64>,
    params: [u64; PARAMS],
    fingerprint: u64,
}

impl ProblemKey {
    /// The key of the problem `ctx` poses. `exact` says whether the
    /// answer comes from [`solver::solve`]; only then may the key leave
    /// the budget out (see the module docs).
    #[must_use]
    pub fn new(ctx: &PolicyContext<'_>, exact: bool) -> Self {
        ProblemRef::new(ctx, exact).to_key()
    }

    /// The 64-bit fingerprint computed when the key was built.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The key's parts, borrowed, for comparing with a probe.
    pub(crate) fn parts(&self) -> ProblemRef<'_> {
        ProblemRef {
            matrices: &self.matrices,
            current: &self.current,
            budget: self.budget,
            params: self.params,
            fingerprint: self.fingerprint,
        }
    }

    /// The key's checkpoint form (see the module docs).
    #[must_use]
    pub fn to_words(&self) -> Vec<u64> {
        let cores = self.matrices.cores();
        let mut words = Vec::with_capacity(7 * cores + 6);
        words.push(cores as u64);
        for (power, bips) in self
            .matrices
            .power_rows()
            .iter()
            .zip(self.matrices.bips_rows())
        {
            words.extend(power.iter().chain(bips).map(|cell| cell.to_bits()));
        }
        words.extend(self.current.as_slice().iter().map(|&m| m.index() as u64));
        words.extend(self.budget);
        words.extend(self.params);
        words
    }

    /// Rebuilds a key from its checkpoint form.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] when the core count is zero,
    /// the length is not `7n + 5` or `7n + 6` for `n` cores (or
    /// overflows), or a mode word is not a mode index.
    pub fn from_words(words: &[u64]) -> Result<Self> {
        let invalid = |reason: String| GpmError::InvalidConfig {
            parameter: "cache.snapshot",
            reason,
        };
        let cores = match words.first() {
            Some(&cores) if cores > 0 => cores,
            _ => return Err(invalid("a problem key needs a positive core count".into())),
        };
        let budget_free_len = usize::try_from(cores)
            .ok()
            .and_then(|n| n.checked_mul(7)?.checked_add(5))
            .ok_or_else(|| invalid(format!("a {cores}-core problem key is too long")))?;
        let budget_keyed = match words.len().checked_sub(budget_free_len) {
            Some(0) => false,
            Some(1) => true,
            _ => {
                return Err(invalid(format!(
                    "a {cores}-core problem key has {} words, not {budget_free_len} or {}",
                    words.len(),
                    budget_free_len + 1
                )))
            }
        };
        let n = cores as usize;
        let (cells, rest) = words[1..].split_at(6 * n);
        let (modes, rest) = rest.split_at(n);
        let cell = |bits: &[u64]| [0, 1, 2].map(|i| f64::from_bits(bits[i]));
        let power = cells.chunks_exact(6).map(cell);
        let bips = cells.chunks_exact(6).map(|core| cell(&core[3..]));
        let matrices = PowerBipsMatrices::from_stacked_rows(power.chain(bips).collect::<Vec<_>>());
        let current = modes
            .iter()
            .map(|&word| {
                usize::try_from(word)
                    .ok()
                    .and_then(PowerMode::from_index)
                    .ok_or_else(|| invalid(format!("mode word {word} is not a mode index")))
            })
            .collect::<Result<ModeCombination>>()?;
        let (budget, params) = rest.split_at(usize::from(budget_keyed));
        let params: [u64; PARAMS] = params.try_into().expect("the length was checked");
        Ok(ProblemRef::from_parts(&matrices, &current, budget.first().copied(), params).to_key())
    }
}

impl PartialEq for ProblemKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for ProblemKey {}

impl serde::Serialize for ProblemKey {
    fn to_value(&self) -> serde::json::Value {
        let words = serde::Serialize::to_value(&self.to_words());
        serde::json::Value::Object(vec![("words".to_owned(), words)])
    }
}

impl serde::Deserialize for ProblemKey {
    fn from_value(value: &serde::json::Value) -> std::result::Result<Self, serde::json::Error> {
        let words = <Vec<u64> as serde::Deserialize>::from_value(value.field("words")?)?;
        Self::from_words(&words).map_err(|e| serde::json::Error::msg(e.to_string()))
    }
}

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
    /// Always zero: nothing sets it. The fleet engine counts its
    /// within-tick dedup hits in `FleetStats::dedup_hits`; the field stays
    /// for the serialized layout.
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
    pub problems: Vec<ProblemKey>,
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

/// One cached problem: its key, stored once, and its answers. A freed
/// problem keeps its key until its index is reused.
#[derive(Debug)]
struct Problem {
    key: ProblemKey,
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

/// A bounded LRU memo of solved mode-assignment problems, keyed by
/// [`ProblemKey`]; one budget-free key serves every budget its answers
/// cover.
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

    /// Raw lookup: the memoized combination for `key` at `budget`
    /// (promoting it to most-recently-used), without touching the
    /// counters. The fleet engine uses this and accounts for hits itself.
    pub fn get(&mut self, key: &ProblemKey, budget: Watts) -> Option<ModeCombination> {
        let problem = self.find(&key.parts())?;
        let slot = self.answer(problem, budget)?;
        Some(self.touch(slot))
    }

    /// Raw insert: memoizes `combo`, the solved answer for `key` at
    /// `budget`, evicting the least-recently-used answer at capacity.
    /// Re-inserting an answer the key already holds refreshes its value,
    /// range and recency.
    pub fn insert(&mut self, key: &ProblemKey, budget: Watts, combo: ModeCombination) {
        let problem = self.problem_for(key);
        self.record(problem, budget, combo);
    }

    /// The memoizing equivalent of [`solver::solve`]: answers from the
    /// cache when the same problem was seen before at a budget
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
        if current.len() != matrices.cores() {
            // A key's words carry one width, so a key built from this
            // problem would read back as another: answer it unmemoized.
            return solver::solve(matrices, current, budget, dvfs, explore);
        }
        let ctx = PolicyContext {
            current_modes: current,
            matrices,
            future: None,
            budget,
            dvfs,
            explore,
        };
        let probe = ProblemRef::new(&ctx, true);
        let problem = self.find(&probe);
        if let Some(slot) = problem.and_then(|p| self.answer(p, budget)) {
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
        let problem = problem.unwrap_or_else(|| self.add_problem(probe.to_key()));
        self.record(problem, budget, combo.clone());
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
    /// Returns [`GpmError::InvalidConfig`] if `config` is invalid, an
    /// answer names a problem the snapshot does not list, or an answer's
    /// width is not its key's core count.
    pub fn restore(config: CacheConfig, snapshot: &CacheSnapshot) -> Result<Self> {
        let mut cache = Self::new(config)?;
        for answer in &snapshot.answers {
            let invalid = |reason: String| GpmError::InvalidConfig {
                parameter: "cache.snapshot",
                reason,
            };
            let key = snapshot.problems.get(answer.problem).ok_or_else(|| {
                invalid(format!(
                    "answer names problem {} of {}",
                    answer.problem,
                    snapshot.problems.len()
                ))
            })?;
            if answer.combo.len() != key.matrices.cores() {
                return Err(invalid(format!(
                    "a {}-mode answer to a {}-core problem",
                    answer.combo.len(),
                    key.matrices.cores()
                )));
            }
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

    /// The cached problem `probe` names, if any.
    fn find(&self, probe: &ProblemRef<'_>) -> Option<usize> {
        let mut problem = self.index.get(&probe.fingerprint()).copied().unwrap_or(NIL);
        while problem != NIL && self.problems[problem].key.parts() != *probe {
            problem = self.problems[problem].next;
        }
        (problem != NIL).then_some(problem)
    }

    /// The cached problem with `key`, indexed first if it is new.
    fn problem_for(&mut self, key: &ProblemKey) -> usize {
        match self.find(&key.parts()) {
            Some(problem) => problem,
            None => self.add_problem(key.clone()),
        }
    }

    /// The slot of `problem`'s answer at `budget`, if one covers it.
    fn answer(&self, problem: usize, budget: Watts) -> Option<usize> {
        let problem = &self.problems[problem];
        if problem.key.budget.is_some() {
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
    fn add_problem(&mut self, key: ProblemKey) -> usize {
        let fingerprint = key.fingerprint();
        let problem = Problem {
            key,
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
        self.free_problems.push(problem);
    }

    /// Memoizes `combo`, solved for `problem` at `budget`, over the
    /// budgets it is exact for.
    fn record(&mut self, problem: usize, budget: Watts, combo: ModeCombination) {
        let budget = budget.value();
        let key = &self.problems[problem].key;
        let (lo, hi) = if key.budget.is_some() {
            (f64::NEG_INFINITY, f64::INFINITY)
        } else if key.matrices.cells_valid() {
            // Answers widen to `[P(c*), B]`.
            let power = key.matrices.chip_power(&combo).value();
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
            .filter(|&slot| {
                self.problems[problem].key.budget.is_some() || self.slots[slot].lo == lo
            });
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

    /// The exact solver's key for `f` at `budget`.
    fn key_of(f: &Fixture, budget: f64) -> ProblemKey {
        ProblemKey::new(&f.ctx(budget), true)
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
        assert_eq!(key_of(&f, 30.0), key_of(&f, 36.0));
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
        let keys: Vec<ProblemKey> = fixtures.iter().map(|f| key_of(f, 40.0)).collect();
        let put = |cache: &mut DecisionCache, i: usize| {
            cache.insert(&keys[i], Watts::new(40.0), turbo.clone());
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
        let (ka, kb, kc) = (key_of(&a, 30.0), key_of(&b, 30.0), key_of(&c, 30.0));
        cache.insert(&ka, Watts::new(30.0), turbo.clone());
        assert!(
            cache.get(&ka, Watts::new(35.0)).is_none(),
            "35 W not seen yet"
        );
        assert!(
            cache.get(&ka, Watts::new(19.0)).is_none(),
            "below the answer's power"
        );
        cache.insert(&kb, Watts::new(30.0), turbo.clone());
        // Same answer at 35 W: the range becomes [20, 35], still one answer.
        cache.insert(&ka, Watts::new(35.0), turbo.clone());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&ka, Watts::new(33.0)), Some(turbo.clone()));
        cache.insert(&kc, Watts::new(30.0), turbo);
        assert!(
            cache.get(&kb, Watts::new(30.0)).is_none(),
            "b was LRU after a's refresh"
        );
    }

    #[test]
    fn keys_keep_the_budget_word_where_the_interval_rule_is_not_exact() {
        let f = Fixture::new(&[(20.0, 2.0), (15.0, 1.5)]);
        let len = |budget: f64, dvfs: &DvfsParams, explore: f64, solver_exact: bool| {
            let ctx = PolicyContext {
                current_modes: &f.current,
                matrices: &f.matrices,
                future: None,
                budget: Watts::new(budget),
                dvfs,
                explore: Micros::new(explore),
            };
            ProblemKey::new(&ctx, solver_exact).to_words().len()
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
        let key_at = |budget: f64| ProblemKey::new(&f.ctx(budget), false);
        let (k30, k33) = (key_at(30.0), key_at(33.0));
        assert_ne!(k30, k33);
        let eff2 = ModeCombination::uniform(2, PowerMode::Eff2);
        cache.insert(&k30, Watts::new(30.0), eff2.clone());
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
        // An answer naming no listed problem, or not as wide as its key.
        for width in [None, Some(1), Some(3)] {
            let mut broken = snapshot.clone();
            match width {
                None => broken.answers[0].problem = 7,
                Some(width) => {
                    broken.answers[0].combo = ModeCombination::uniform(width, PowerMode::Eff1)
                }
            }
            assert!(matches!(
                DecisionCache::restore(CacheConfig::default(), &broken),
                Err(GpmError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn keys_compare_every_part_past_a_shared_fingerprint() {
        let f = Fixture::new(&[(20.0, 2.0), (15.0, 1.5)]);
        let key = key_of(&f, 30.0);
        // Shared storage and a separate copy of the same bits are one key.
        let copy = PowerBipsMatrices::from_stacked_rows(f.matrices.stacked_rows());
        let on = |matrices: &PowerBipsMatrices, current: &ModeCombination, exact: bool| {
            let ctx = PolicyContext {
                current_modes: current,
                matrices,
                ..f.ctx(30.0)
            };
            ProblemKey::new(&ctx, exact)
        };
        assert_eq!(key, key.clone());
        assert_eq!(key, on(&copy, &f.current, true));
        // A NaN cell is the same cell as itself, shared or copied.
        let nan =
            |cell: f64| PowerBipsMatrices::from_stacked_rows(vec![[cell, 1.0, 2.0], [1.0; 3]]);
        let one = ModeCombination::uniform(1, PowerMode::Turbo);
        assert_eq!(
            on(&nan(f64::NAN), &one, true),
            on(&nan(f64::NAN), &one, true)
        );
        // Keys differing in one part stay apart even under a forged
        // fingerprint collision: the cells' sign of zero, a mode, the
        // budget (kept, and kept at another value) and the explore words.
        let mut eff1 = f.current.clone();
        eff1.set(gpm_types::CoreId::new(0), PowerMode::Eff1);
        let budget_keyed = on(&f.matrices, &f.current, false);
        let other_budget = ProblemKey::new(&f.ctx(31.0), false);
        let mut longer = f.ctx(30.0);
        longer.explore = Micros::new(600.0);
        for (a, mut b) in [
            (on(&nan(0.0), &one, true), on(&nan(-0.0), &one, true)),
            (key.clone(), on(&f.matrices, &eff1, true)),
            (key.clone(), budget_keyed.clone()),
            (budget_keyed, other_budget),
            (key, ProblemKey::new(&longer, true)),
        ] {
            b.fingerprint = a.fingerprint;
            assert_ne!(a, b);
        }
    }

    #[test]
    fn a_width_mismatch_is_solved_but_not_memoized() {
        let f = one_core(20.0);
        let two_modes = ModeCombination::uniform(2, PowerMode::Turbo);
        let mut cache = DecisionCache::new(CacheConfig::default()).expect("valid config");
        let explore = Micros::new(500.0);
        let combo = cache.solve(&f.matrices, &two_modes, Watts::new(25.0), &f.dvfs, explore);
        assert_eq!(
            combo,
            solver::solve(&f.matrices, &two_modes, Watts::new(25.0), &f.dvfs, explore)
        );
        assert!(cache.is_empty());
        let snapshot = cache.snapshot();
        assert!(snapshot.problems.is_empty() && snapshot.answers.is_empty());
        let restored = DecisionCache::restore(CacheConfig::default(), &snapshot).expect("restores");
        assert!(restored.is_empty());
        assert!(restored.snapshot().problems.is_empty());
    }

    #[test]
    fn keys_serialize_as_words_and_recompute_the_fingerprint() {
        let f = Fixture::new(&[(20.0, 2.0), (15.0, 1.5)]);
        for exact in [true, false] {
            let key = ProblemKey::new(&f.ctx(30.0), exact);
            let value = serde::Serialize::to_value(&key);
            let serde::json::Value::Object(fields) = &value else {
                panic!("a key serializes as an object");
            };
            assert_eq!(fields.len(), 1);
            assert_eq!(fields[0].0, "words");
            let back = <ProblemKey as serde::Deserialize>::from_value(&value).expect("roundtrips");
            assert_eq!(back, key);
            assert_eq!(back.fingerprint(), key.fingerprint());
            assert_eq!(back.to_words(), key.to_words());
        }
    }

    #[test]
    fn malformed_key_words_are_refused() {
        let f = Fixture::new(&[(20.0, 2.0), (15.0, 1.5)]);
        let words = key_of(&f, 30.0).to_words();
        assert_eq!(words.len(), 7 * 2 + 5);
        let refused = |words: &[u64]| {
            matches!(
                ProblemKey::from_words(words),
                Err(GpmError::InvalidConfig { .. })
            )
        };
        assert!(!refused(&words));
        let mut budget_keyed = words.clone();
        budget_keyed.push(30.0f64.to_bits());
        assert!(!refused(&budget_keyed));
        assert!(refused(&[]));
        // Zero cores, an extra leading word, a word short and two over.
        assert!(refused(&[0, 1, 2, 3, 4]));
        assert!(refused(&[&[7], &words[..]].concat()));
        assert!(refused(&words[..words.len() - 1]));
        assert!(refused(&[&budget_keyed[..], &[0]].concat()));
        // A core count whose length overflows.
        assert!(refused(&[u64::MAX, 0, 0, 0, 0, 0]));
        assert!(refused(&[u64::MAX / 7, 0, 0, 0, 0, 0]));
        // A mode word that is not a mode index.
        let mut bad_mode = words.clone();
        bad_mode[1 + 6 * 2] = 3;
        assert!(refused(&bad_mode));
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

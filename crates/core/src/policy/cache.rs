//! Memoized MaxBIPS decisions: a bounded LRU over quantized problem keys.
//!
//! The global manager re-solves the mode-assignment argmax every explore
//! interval, but phase behaviour makes most intervals repeats: the same
//! (power, BIPS) prediction matrix recurs whenever a workload revisits a
//! phase. [`DecisionCache`] canonicalizes each decision problem into a
//! [`QuantizedKey`] (every solver input, quantized per [`CacheConfig`]) and
//! memoizes the solved [`ModeCombination`] in a bounded LRU.
//!
//! # Exactness
//!
//! With all quanta at the default `0.0`, keys are the raw bit patterns of
//! the inputs, so a hit can only occur for inputs bit-identical to a
//! previous solve — and the branch-and-bound solver is a pure function of
//! those inputs, so the cached answer equals what a fresh solve would
//! return, bit for bit. Misses always run the real solver. Positive quanta
//! trade this exactness for hit rate (see `DESIGN.md` §13 for the error
//! bound); [`CacheConfig::verify_hits`] re-solves every hit and asserts
//! equality, as a debug mode for auditing a quantization choice.
//!
//! # Determinism
//!
//! Lookup order is the only input to the LRU state: the recency list is an
//! intrusive doubly-linked list over a slot arena, and eviction picks the
//! list tail — never anything derived from `HashMap` iteration order. Two
//! runs issuing the same key sequence hold identical cache contents.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

use gpm_power::DvfsParams;
use gpm_types::{
    GpmError, Micros, ModeCombination, QuantizedKey, QuantizedKeyBuilder, Result, Watts,
};

use crate::fleet::NodeIdHasher;
use crate::PowerBipsMatrices;

use super::{solver, Policy, PolicyContext};

/// Sentinel slot index for the intrusive LRU list ends.
const NIL: usize = usize::MAX;

/// The key index. A key hashes as its precomputed fingerprint, so one
/// [`NodeIdHasher`] round is the whole hash; lookups still compare every
/// word on a fingerprint match.
type KeyMap = HashMap<QuantizedKey, usize, BuildHasherDefault<NodeIdHasher>>;

/// Tuning knobs for a [`DecisionCache`].
///
/// The defaults (capacity 4096, all quanta `0.0`, verification off) give
/// exact keying: hits are guaranteed bit-identical to fresh solves.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum number of memoized decisions; the least-recently-used entry
    /// is evicted beyond this. Must be at least 1.
    pub capacity: usize,
    /// Quantum (watts) for the power matrix cells and `0.0` = exact bits.
    pub watt_quantum: f64,
    /// Quantum (BIPS) for the BIPS matrix cells; `0.0` = exact bits.
    pub bips_quantum: f64,
    /// Quantum (watts) for the budget; `0.0` = exact bits.
    pub budget_quantum: f64,
    /// Debug mode: re-solve every hit and assert the cached combination
    /// matches. Costs a full solve per hit — for tests and audits only.
    pub verify_hits: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            watt_quantum: 0.0,
            bips_quantum: 0.0,
            budget_quantum: 0.0,
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

/// A serializable image of a [`DecisionCache`]: every memoized entry in
/// recency order plus the accumulated counters and solve-time statistics.
/// Produced by [`DecisionCache::snapshot`]; replayed by
/// [`DecisionCache::restore`]. The entry order is oldest (least recently
/// used) first, so re-inserting in order reproduces the LRU state — and
/// with it every future eviction — exactly.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheSnapshot {
    /// Memoized `(key, decision)` pairs, least-recently-used first.
    pub entries: Vec<(QuantizedKey, ModeCombination)>,
    /// Accumulated hit/savings counters at snapshot time.
    pub counters: CacheCounters,
    /// Total measured microseconds across fresh solves.
    pub solve_us_total: f64,
    /// Number of fresh solves measured.
    pub solve_count: u64,
}

/// One memoized decision in the slot arena.
#[derive(Debug)]
struct Slot {
    key: QuantizedKey,
    combo: ModeCombination,
    prev: usize,
    next: usize,
}

/// A bounded LRU memo of solved mode-assignment problems, keyed on the
/// quantized canonical form of every solver input.
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
/// let first = cache.solve(&matrices, &current, Watts::new(30.0), &dvfs, Micros::new(500.0));
/// let again = cache.solve(&matrices, &current, Watts::new(30.0), &dvfs, Micros::new(500.0));
/// assert_eq!(first, again);
/// assert_eq!(cache.counters().cache_hits, 1);
/// # Ok::<(), gpm_types::GpmError>(())
/// ```
#[derive(Debug)]
pub struct DecisionCache {
    config: CacheConfig,
    map: KeyMap,
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
            map: KeyMap::with_capacity_and_hasher(
                config.capacity.min(1 << 16),
                BuildHasherDefault::default(),
            ),
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

    /// Number of memoized decisions currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no decisions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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

    /// Canonicalizes one decision problem into its cache key: shape, the
    /// full quantized power and BIPS matrices, the current mode vector,
    /// the quantized budget, the explore length and the DVFS fingerprint.
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
        self.write_key(&mut b, matrices, current, budget, dvfs, explore);
        b.finish()
    }

    /// [`key`](Self::key) into a reusable builder: clears `b` and pushes
    /// the problem's canonical words, reading the matrix rows directly.
    pub fn write_key(
        &self,
        b: &mut QuantizedKeyBuilder,
        matrices: &PowerBipsMatrices,
        current: &ModeCombination,
        budget: Watts,
        dvfs: &DvfsParams,
        explore: Micros,
    ) {
        b.clear();
        b.push_word(matrices.cores() as u64);
        for (power, bips) in matrices.power_rows().iter().zip(matrices.bips_rows()) {
            b.push_values(power, self.config.watt_quantum);
            b.push_values(bips, self.config.bips_quantum);
        }
        for &mode in current.as_slice() {
            b.push_word(mode.index() as u64);
        }
        b.push_value(budget.value(), self.config.budget_quantum);
        b.push_word(explore.value().to_bits());
        b.push_word(dvfs.nominal_vdd.value().to_bits());
        b.push_word(dvfs.nominal_frequency.value().to_bits());
        b.push_word(dvfs.slew_rate_v_per_us.to_bits());
    }

    /// Raw lookup: returns the memoized combination for `key` (promoting
    /// it to most-recently-used) without touching the counters. The fleet
    /// engine uses this and accounts for hits itself.
    pub fn get(&mut self, key: &QuantizedKey) -> Option<ModeCombination> {
        let slot = *self.map.get(key)?;
        self.detach(slot);
        self.attach_front(slot);
        Some(self.slots[slot].combo.clone())
    }

    /// Raw insert: memoizes `combo` under `key`, evicting the
    /// least-recently-used entry at capacity. Inserting an existing key
    /// refreshes its value and recency.
    pub fn insert(&mut self, key: QuantizedKey, combo: ModeCombination) {
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].combo = combo;
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        let slot = if self.map.len() == self.config.capacity {
            // Reuse the evicted tail's slot.
            let victim = self.tail;
            self.detach(victim);
            self.map.remove(&self.slots[victim].key);
            self.slots[victim].key = key.clone();
            self.slots[victim].combo = combo;
            victim
        } else {
            self.slots.push(Slot {
                key: key.clone(),
                combo,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, slot);
        self.attach_front(slot);
    }

    /// The memoizing equivalent of [`solver::solve`]: answers from the
    /// cache when the canonicalized problem was seen before, otherwise
    /// runs the exact branch-and-bound and memoizes the result.
    pub fn solve(
        &mut self,
        matrices: &PowerBipsMatrices,
        current: &ModeCombination,
        budget: Watts,
        dvfs: &DvfsParams,
        explore: Micros,
    ) -> ModeCombination {
        self.counters.decisions_total += 1;
        let key = self.key(matrices, current, budget, dvfs, explore);
        if let Some(combo) = self.get(&key) {
            self.counters.cache_hits += 1;
            self.counters.solver_us_saved += self.mean_solve_micros();
            if self.config.verify_hits {
                let fresh = solver::solve(matrices, current, budget, dvfs, explore);
                assert_eq!(
                    combo, fresh,
                    "decision cache hit diverged from a fresh solve; \
                     quantization is too coarse for this workload"
                );
            }
            return combo;
        }
        let start = Instant::now();
        let combo = solver::solve(matrices, current, budget, dvfs, explore);
        self.solve_us_total += start.elapsed().as_secs_f64() * 1e6;
        self.solve_count += 1;
        self.insert(key, combo.clone());
        combo
    }

    /// Exports the cache's full state: entries in recency order (oldest
    /// first) plus counters and solve-time statistics. The walk follows
    /// the intrusive list from the LRU tail, never `HashMap` iteration
    /// order, so the snapshot is deterministic.
    #[must_use]
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut entries = Vec::with_capacity(self.map.len());
        let mut slot = self.tail;
        while slot != NIL {
            entries.push((self.slots[slot].key.clone(), self.slots[slot].combo.clone()));
            slot = self.slots[slot].prev;
        }
        CacheSnapshot {
            entries,
            counters: self.counters,
            solve_us_total: self.solve_us_total,
            solve_count: self.solve_count,
        }
    }

    /// Rebuilds a cache from a [`snapshot`](Self::snapshot): entries are
    /// re-inserted oldest-first, reproducing the exact LRU recency order,
    /// and the counters and solve statistics are restored verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] if `config` is invalid.
    pub fn restore(config: CacheConfig, snapshot: &CacheSnapshot) -> Result<Self> {
        let mut cache = Self::new(config)?;
        for (key, combo) in &snapshot.entries {
            cache.insert(key.clone(), combo.clone());
        }
        cache.counters = snapshot.counters;
        cache.solve_us_total = snapshot.solve_us_total;
        cache.solve_count = snapshot.solve_count;
        Ok(cache)
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
/// decisions (exact keying by default), amortized cost on phase repeats.
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
    /// The policy with the default (exact-keying) cache configuration.
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

    #[test]
    fn distinct_budgets_are_distinct_keys() {
        let f = Fixture::new(&[(20.0, 2.0), (15.0, 1.5)]);
        let mut cache = DecisionCache::new(CacheConfig::default()).expect("valid config");
        for budget in [30.0, 33.0, 36.0, 30.0, 33.0] {
            cache.solve(
                &f.matrices,
                &f.current,
                Watts::new(budget),
                &f.dvfs,
                Micros::new(500.0),
            );
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.counters().cache_hits, 2);
    }

    #[test]
    fn lru_eviction_order_is_deterministic() {
        let f = Fixture::new(&[(20.0, 2.0)]);
        let mut cache = DecisionCache::new(CacheConfig {
            capacity: 2,
            ..CacheConfig::default()
        })
        .expect("valid config");
        let combo = ModeCombination::uniform(1, PowerMode::Turbo);
        let (a, b, c) = (
            key_of(&cache, &f, 10.0),
            key_of(&cache, &f, 20.0),
            key_of(&cache, &f, 30.0),
        );
        cache.insert(a.clone(), combo.clone());
        cache.insert(b.clone(), combo.clone());
        // Touch `a` so `b` becomes least-recently-used; inserting `c` must
        // evict `b`, on every run, regardless of hasher seed.
        assert!(cache.get(&a).is_some());
        cache.insert(c.clone(), combo.clone());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&b).is_none(), "LRU entry must be the evictee");
        assert!(cache.get(&c).is_some());
        // And the evicted key is insertable again (slot reuse is clean).
        cache.insert(b.clone(), combo);
        assert!(cache.get(&b).is_some());
        assert!(cache.get(&a).is_none(), "a was LRU after c's insert");
    }

    #[test]
    fn reinserting_a_key_refreshes_recency_without_growth() {
        let f = Fixture::new(&[(20.0, 2.0)]);
        let mut cache = DecisionCache::new(CacheConfig {
            capacity: 2,
            ..CacheConfig::default()
        })
        .expect("valid config");
        let turbo = ModeCombination::uniform(1, PowerMode::Turbo);
        let eff2 = ModeCombination::uniform(1, PowerMode::Eff2);
        let (a, b, c) = (
            key_of(&cache, &f, 10.0),
            key_of(&cache, &f, 20.0),
            key_of(&cache, &f, 30.0),
        );
        cache.insert(a.clone(), turbo.clone());
        cache.insert(b.clone(), turbo.clone());
        cache.insert(a.clone(), eff2.clone());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&a), Some(eff2));
        cache.insert(c, turbo);
        assert!(cache.get(&b).is_none(), "b was LRU after a's refresh");
    }

    #[test]
    fn coarse_quanta_merge_near_identical_matrices() {
        // Cells sit mid-bucket (multiples of the quantum), so the ±0.004
        // perturbations below stay inside the same buckets per cell.
        let base = |eps: f64| {
            PowerBipsMatrices::from_rows(
                vec![[20.0 + eps, 12.0 + eps, 7.0 + eps], [18.0, 11.0, 6.5]],
                vec![[2.0 + eps, 1.7, 1.4], [1.5, 1.3 + eps, 1.1]],
            )
        };
        let (m1, m2) = (base(0.0), base(0.004));
        let current = ModeCombination::uniform(2, PowerMode::Turbo);
        let dvfs = gpm_power::DvfsParams::paper();
        let mut cache = DecisionCache::new(CacheConfig {
            watt_quantum: 0.1,
            bips_quantum: 0.05,
            budget_quantum: 0.5,
            ..CacheConfig::default()
        })
        .expect("valid config");
        let k1 = cache.key(&m1, &current, Watts::new(30.0), &dvfs, Micros::new(500.0));
        let k2 = cache.key(&m2, &current, Watts::new(30.1), &dvfs, Micros::new(500.0));
        assert_eq!(k1, k2);
        cache.solve(&m1, &current, Watts::new(30.0), &dvfs, Micros::new(500.0));
        cache.solve(&m2, &current, Watts::new(30.1), &dvfs, Micros::new(500.0));
        assert_eq!(cache.counters().cache_hits, 1);
        // Exact keying keeps them distinct.
        let exact = DecisionCache::new(CacheConfig::default()).expect("valid config");
        assert_ne!(
            exact.key(&m1, &current, Watts::new(30.0), &dvfs, Micros::new(500.0)),
            exact.key(&m2, &current, Watts::new(30.1), &dvfs, Micros::new(500.0))
        );
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

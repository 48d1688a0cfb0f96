//! The fleet-mode decision engine: batched, memoized mode decisions for
//! thousands of simulated CMP nodes per tick, hardened for degraded
//! operation.
//!
//! A rack-scale deployment runs one global manager *service* instead of one
//! controller per chip: every tick, each node reports its predictive
//! Power/BIPS matrices and the service returns next-interval mode vectors
//! for all of them. [`FleetEngine`] is that service's decision core:
//!
//! 1. **Ingest + guard rails.** Telemetry enters through a bounded tick
//!    queue ([`FleetEngine::submit`] / [`FleetEngine::try_submit`]).
//!    Reports with non-finite or negative power cells, mismatched matrix
//!    shapes or degenerate budgets are rejected up front (counted in
//!    [`FleetStats::rejected_invalid`]) so they can never poison the cache
//!    key space; queue overflow is rejected and counted as backpressure,
//!    with an exponential per-node retry hint when degraded mode is on. At
//!    tick processing, each report's age is classified with the
//!    `gpm-faults` freshness vocabulary ([`SensorStatus`]): fresh and
//!    tolerably-stale reports are decided, older ones are dropped as stale,
//!    and reports at or beyond [`FleetConfig::dark_after`] ticks are
//!    dropped as *dark* — each with its own counter, so the two failure
//!    classes (late node vs. presumed-dead node) stay distinguishable.
//! 2. **Chaos seam.** With [`FleetConfig::faults`] armed, a stateless
//!    seeded [`FleetFaultSession`] perturbs delivery on the serial intake
//!    path: flapping nodes lose their reports, skewed reports age in
//!    transit, corrupted reports fail validation, and solver invocations
//!    time out — all pure functions of `(seed, tick, node)`, so the fault
//!    schedule is bit-identical for any pool width and across restores.
//! 3. **Within-tick dedup.** Accepted reports are canonicalized to
//!    [`QuantizedKey`]s; identical problems at identical budgets collapse
//!    onto one leader per tick (first occurrence wins), so a
//!    phase-aligned fleet costs one solve for thousands of nodes.
//! 4. **Memoized solve.** Leaders probe the cross-tick [`DecisionCache`]
//!    at their budgets (for a flat-solved node one cached answer serves
//!    every budget in its exact range, so a re-budgeted node usually
//!    hits); residual misses fan out over the `gpm_par` pool — the flat
//!    exact branch-and-bound up to [`FleetConfig::flat_core_limit`] cores,
//!    [`HierMaxBips`] above — and are inserted back serially in miss
//!    order, which keeps the cache's LRU state (and therefore every later
//!    decision) independent of the pool width.
//! 5. **Degraded-mode fallback.** With [`FleetConfig::degraded`] set, a
//!    node whose report was dropped, invalidated or timed out still gets a
//!    decision: its last successfully-issued assignment stepped down one
//!    mode (power-safe: staleness only ever lowers power), or all-Eff2
//!    when no last-good assignment exists.
//!    Fallback decisions are flagged [`NodeDecision::degraded`] and counted
//!    separately — they never enter the cache-accounting identity.
//! 6. **Rack budget + watchdog.** With [`FleetConfig::rack_budget`] set, the
//!    engine estimates total rack power each tick; when the estimate
//!    exceeds the rack budget (e.g. after [`FleetEngine::set_rack_budget`]
//!    steps it down mid-run), emergency shedding clamps nodes to all-Eff2
//!    in deterministic priority order (highest estimated power first, node
//!    id as tie-break) until the estimate fits. A rack-level violation
//!    watchdog mirrors the per-chip one in `manager.rs`: 3 consecutive
//!    violation ticks force a whole-rack Eff2 clamp held 2 ticks, the hold
//!    doubling per trip up to 32.
//!
//! Cache keys are exact bit patterns, so with no chaos/degraded/rack
//! configuration the emitted decisions are bit-identical to solving every
//! accepted report individually — and bit-identical to the engine before
//! the fault-tolerance layer existed.
//!
//! [`FleetFaultSession`]: gpm_faults::FleetFaultSession

use std::collections::HashMap;
use std::time::Instant;

use gpm_faults::{CorruptField, FleetFaultPlan, FleetFaultSession, SensorStatus};
use gpm_power::DvfsParams;
use gpm_types::{
    Fingerprinter, GpmError, Micros, ModeCombination, PowerMode, QuantizedKey, QuantizedKeyBuilder,
    Result, Watts,
};

use crate::policy::{solver, CacheConfig, CacheSnapshot, HierMaxBips, Policy, PolicyContext};
use crate::{DecisionCache, PowerBipsMatrices};

/// Version tag stamped on every [`FleetCheckpoint`]; bumped whenever the
/// snapshot layout changes incompatibly. Version 2 stores the decision
/// cache as problems plus budget-ranged answers.
pub const FLEET_CHECKPOINT_VERSION: u32 = 2;

/// How many modes a degraded-mode fallback steps each core down from the
/// node's last-good assignment (power-safe clamp; saturates at Eff2).
const FALLBACK_STEPS: usize = 1;

/// Retry delay, in ticks, advised after a node's first backpressure
/// rejection in degraded mode.
const RETRY_BASE: u64 = 1;

/// Cap on the backoff exponent: the n-th consecutive rejection advises a
/// `RETRY_BASE << min(n - 1, RETRY_MAX_EXP)` tick delay.
const RETRY_MAX_EXP: u32 = 6;

/// Consecutive estimated rack-violation ticks tolerated before the
/// watchdog clamps the whole rack to Eff2 (the per-chip guard rails' K).
const WATCHDOG_K: usize = 3;

/// How many ticks the first whole-rack watchdog clamp holds.
const CLAMP_HOLD: u64 = 2;

/// Ceiling on the exponential clamp-hold backoff.
const MAX_BACKOFF: u64 = 32;

/// Configuration for a [`FleetEngine`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Cross-tick decision cache settings (capacity, verify mode).
    pub cache: CacheConfig,
    /// Bound on telemetry queued between ticks; submissions beyond it are
    /// rejected (backpressure). Must be at least 1.
    pub queue_capacity: usize,
    /// Maximum telemetry age, in ticks, still decided rather than dropped
    /// (0 = fresh-only).
    pub stale_tolerance: usize,
    /// Age, in ticks, at which a report counts as *dark* (node presumed
    /// unreachable) rather than merely stale. Must exceed
    /// `stale_tolerance`.
    pub dark_after: usize,
    /// Largest core count solved by the flat exact branch-and-bound;
    /// wider nodes use [`HierMaxBips`]. Must be between 1 and
    /// [`solver::MAX_CORES`].
    pub flat_core_limit: usize,
    /// Cluster width for the hierarchical solver on wide nodes.
    pub cluster_cores: usize,
    /// DVFS operating points assumed for every node (homogeneous fleet).
    pub dvfs: DvfsParams,
    /// Explore-interval length assumed for transition de-rating.
    pub explore: Micros,
    /// Fleet chaos plan; `None` (the default) disables the fault seam
    /// entirely.
    pub faults: Option<FleetFaultPlan>,
    /// Degraded-mode fallback: nodes whose reports failed get a one-mode
    /// step-down of their last-good assignment, and rejected submitters
    /// get exponential retry advice. Off (the default) reproduces the
    /// pre-hardening engine exactly — dropped reports yield no decision.
    pub degraded: bool,
    /// Total rack power budget the per-tick estimate must fit under,
    /// enforced by emergency shedding and the rack watchdog. `None` (the
    /// default) disables both. Must be finite and positive.
    pub rack_budget: Option<Watts>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            cache: CacheConfig::default(),
            queue_capacity: 16_384,
            stale_tolerance: 1,
            dark_after: 8,
            flat_core_limit: 32,
            cluster_cores: 8,
            dvfs: DvfsParams::paper(),
            explore: Micros::new(500.0),
            faults: None,
            degraded: false,
            rack_budget: None,
        }
    }
}

/// One node's per-tick report to the fleet engine.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTelemetry {
    /// Stable node identifier, echoed on the decision.
    pub node: u64,
    /// Tick the enclosed observations were taken at.
    pub tick: u64,
    /// The node's predictive Power/BIPS matrices for the next interval.
    pub matrices: PowerBipsMatrices,
    /// Modes the node's cores currently run in.
    pub current: ModeCombination,
    /// The node's chip power budget.
    pub budget: Watts,
}

/// The engine's answer for one report (or, in degraded mode, for a node
/// whose report failed).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDecision {
    /// Node the decision is for.
    pub node: u64,
    /// Tick the decision was made at.
    pub tick: u64,
    /// Mode assignment for the node's next interval.
    pub modes: ModeCombination,
    /// Whether this decision came from the degraded path (last-good
    /// fallback, emergency shed or watchdog clamp) rather than straight
    /// from a solver- or cache-backed answer.
    pub degraded: bool,
}

/// Outcome of one [`FleetEngine::try_submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The report is queued for the next tick.
    Accepted,
    /// The tick queue is full; the node should retry no earlier than
    /// `retry_at` (exponential per-node backoff when degraded mode is on,
    /// the next tick otherwise).
    Rejected {
        /// Earliest tick at which a retry is advised.
        retry_at: u64,
    },
    /// The report failed numeric/shape validation and was discarded.
    Invalid,
}

/// Cumulative fleet-engine accounting.
///
/// Invariant: `decisions_total == cache_hits + dedup_hits + unique_solves`
/// — dropped, rejected and timed-out reports never become solver-path
/// decisions. Degraded-path decisions are counted separately in
/// `fallback_decisions` and do not participate in the identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetStats {
    /// Solver-path decisions emitted in total.
    pub decisions_total: u64,
    /// Tick-group leaders answered by the cross-tick cache.
    pub cache_hits: u64,
    /// Decisions answered by within-tick deduplication (group followers).
    pub dedup_hits: u64,
    /// Decisions that ran the solver.
    pub unique_solves: u64,
    /// Reports dropped as stale (older than the tolerance, younger than
    /// `dark_after`).
    pub dropped_stale: u64,
    /// Reports dropped as dark (age at or beyond `dark_after`, or lost to
    /// a node-flap outage).
    pub dropped_dark: u64,
    /// Submissions rejected by the bounded tick queue.
    pub rejected_backpressure: u64,
    /// Reports rejected by numeric/shape validation (at submit or after
    /// in-flight corruption).
    pub rejected_invalid: u64,
    /// Degraded-path decisions emitted (last-good fallback or all-Eff2).
    pub fallback_decisions: u64,
    /// Solver invocations lost to injected timeouts (one per dedup group).
    pub solver_timeouts: u64,
    /// Reports lost to node-flap outages (also counted in `dropped_dark`).
    pub flap_drops: u64,
    /// Reports whose delivery was delayed by tick skew.
    pub skew_delayed: u64,
    /// Reports mangled by corruption injection (also counted in
    /// `rejected_invalid` when the mangling failed validation).
    pub corrupted_reports: u64,
    /// Node decisions clamped to all-Eff2 by emergency budget shedding.
    pub shed_clamps: u64,
    /// Ticks whose estimated rack power exceeded the rack budget.
    pub rack_violation_ticks: u64,
    /// Ticks spent under an active whole-rack watchdog clamp.
    pub watchdog_clamp_ticks: u64,
    /// Longest run of consecutive rack-violation ticks seen so far.
    pub longest_rack_violation_run: u64,
    /// Worst single-tick estimated rack overshoot, in watts.
    pub worst_rack_overshoot_watts: f64,
    /// Measured microseconds spent in the solver.
    pub solver_us_spent: f64,
    /// Estimated solver microseconds avoided (hits × mean solve time).
    pub solver_us_saved: f64,
}

impl FleetStats {
    /// Fraction of solver-path decisions answered without running the
    /// solver.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.decisions_total == 0 {
            0.0
        } else {
            (self.cache_hits + self.dedup_hits) as f64 / self.decisions_total as f64
        }
    }

    /// Folds another engine's accounting into this one: counters add,
    /// running maxima (`longest_rack_violation_run`,
    /// `worst_rack_overshoot_watts`) take the max. This is how the sharded
    /// service aggregates per-shard engine stats into one fleet-wide view;
    /// the accounting identity (`decisions_total = cache_hits + dedup_hits
    /// + unique_solves`) survives because it holds per shard.
    pub fn merge(&mut self, other: &FleetStats) {
        self.decisions_total += other.decisions_total;
        self.cache_hits += other.cache_hits;
        self.dedup_hits += other.dedup_hits;
        self.unique_solves += other.unique_solves;
        self.dropped_stale += other.dropped_stale;
        self.dropped_dark += other.dropped_dark;
        self.rejected_backpressure += other.rejected_backpressure;
        self.rejected_invalid += other.rejected_invalid;
        self.fallback_decisions += other.fallback_decisions;
        self.solver_timeouts += other.solver_timeouts;
        self.flap_drops += other.flap_drops;
        self.skew_delayed += other.skew_delayed;
        self.corrupted_reports += other.corrupted_reports;
        self.shed_clamps += other.shed_clamps;
        self.rack_violation_ticks += other.rack_violation_ticks;
        self.watchdog_clamp_ticks += other.watchdog_clamp_ticks;
        self.longest_rack_violation_run = self
            .longest_rack_violation_run
            .max(other.longest_rack_violation_run);
        self.worst_rack_overshoot_watts = self
            .worst_rack_overshoot_watts
            .max(other.worst_rack_overshoot_watts);
        self.solver_us_spent += other.solver_us_spent;
        self.solver_us_saved += other.solver_us_saved;
    }
}

/// A node's last successfully-issued assignment, kept for degraded-mode
/// fallback.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct LastGood {
    modes: ModeCombination,
    /// Estimated chip power of that assignment, for rack accounting.
    watts: f64,
}

/// Per-node degraded-operation state.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
struct NodeState {
    last_good: Option<LastGood>,
    /// Consecutive backpressure rejections (drives the retry backoff).
    rejections: u32,
    /// Earliest tick a retry is advised after the last rejection.
    retry_at: u64,
}

/// Live rack-watchdog state.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
struct RackState {
    /// Consecutive violation ticks counted toward the watchdog trigger.
    violation_streak: usize,
    /// Length of the current violation run (for the longest-run metric).
    current_run: u64,
    /// Remaining ticks of an active whole-rack clamp.
    clamp_remaining: u64,
    /// Hold length the next clamp will use (doubles up to the ceiling).
    backoff: u64,
}

/// Hashes `u64` node ids with one [`gpm_types::splitmix64`] round. The node
/// map is only ever *probed* by key — iteration never reaches decisions
/// (the checkpoint sorts by node id) — so a fast deterministic finalizer
/// is safe, and it removes the default hasher's cost from the
/// one-lookup-per-report hot path of the armed engine.
///
/// Decision-cache keys hash through it too: a [`QuantizedKey`] feeds only
/// its precomputed fingerprint, so the cache map and Phase B's dedup
/// index each pay one finalizer round per probe, whatever the key length.
///
/// The same finalizer round is the fleet *shard* function (see
/// [`node_shard`]): the service layer routes node ids to shard-pinned
/// engines with exactly this mixing, so node placement is a pure,
/// documented function of the id alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeIdHasher(u64);

impl std::hash::Hasher for NodeIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = gpm_types::splitmix64(self.0 ^ x);
    }
}

type NodeMap = HashMap<u64, NodeState, std::hash::BuildHasherDefault<NodeIdHasher>>;
type FingerprintMap = HashMap<u64, usize, std::hash::BuildHasherDefault<NodeIdHasher>>;

/// The fleet shard function: which of `shards` shard-pinned engines owns
/// `node`. One splitmix64 finalizer round (the [`NodeIdHasher`] mixing)
/// reduced modulo the shard count — a pure function of the node id, so a
/// node's shard assignment is stable across runs, transports and pool
/// widths, and sequential node ids spread uniformly instead of clumping
/// onto shard `id % shards`.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn node_shard(node: u64, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be at least 1");
    use std::hash::Hasher as _;
    let mut hasher = NodeIdHasher::default();
    hasher.write_u64(node);
    (hasher.finish() % shards as u64) as usize
}

/// One per-node entry in a [`FleetCheckpoint`], ordered by node id.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct NodeSnapshot {
    node: u64,
    state: NodeState,
}

/// A versioned, serializable image of a [`FleetEngine`]'s inter-tick
/// state: the decision cache (entries in recency order), every node's
/// degraded-operation state, the rack-watchdog state, the cumulative
/// stats and the tick cursor.
///
/// Produced by [`FleetEngine::checkpoint`]; an engine rebuilt with
/// [`FleetEngine::restore`] under the same configuration continues
/// bit-identically to one that never stopped. Queued (not yet processed)
/// telemetry is *not* captured — checkpoint between ticks, and nodes
/// re-submit as usual after a restart. The fault session needs no state
/// here: fleet fault draws are pure functions of `(seed, tick, node)`,
/// so a restored engine observes the same fault schedule by
/// construction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetCheckpoint {
    version: u32,
    /// Fingerprint of the decision-relevant configuration; restore
    /// refuses a checkpoint taken under a different configuration.
    config_fingerprint: u64,
    next_tick: u64,
    stats: FleetStats,
    cache: CacheSnapshot,
    nodes: Vec<NodeSnapshot>,
    rack: RackState,
}

impl FleetCheckpoint {
    /// The layout version this checkpoint was written with.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Serializes the checkpoint to JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint state always serializes")
    }

    /// Deserializes a checkpoint from JSON. The version is read first, so
    /// a checkpoint of another layout version is refused by name rather
    /// than as a shape mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] on malformed input or a
    /// version other than [`FLEET_CHECKPOINT_VERSION`].
    pub fn from_json(json: &str) -> Result<Self> {
        let unparseable = |e: serde_json::Error| GpmError::InvalidConfig {
            parameter: "fleet.checkpoint",
            reason: format!("unparseable checkpoint: {e}"),
        };
        let value = serde::json::parse(json).map_err(unparseable)?;
        let version = value.field("version").ok().and_then(|v| v.as_u64());
        if version != Some(u64::from(FLEET_CHECKPOINT_VERSION)) {
            return Err(GpmError::InvalidConfig {
                parameter: "fleet.checkpoint",
                reason: format!(
                    "checkpoint version {} is not supported; this engine reads version {}",
                    version.map_or_else(|| "(missing)".to_owned(), |v| v.to_string()),
                    FLEET_CHECKPOINT_VERSION
                ),
            });
        }
        serde::Deserialize::from_value(&value).map_err(unparseable)
    }
}

/// The batched, memoized decision engine (see the module docs for the
/// tick protocol).
///
/// # Examples
///
/// ```
/// use gpm_core::{FleetConfig, FleetEngine, NodeTelemetry, PowerBipsMatrices};
/// use gpm_types::{ModeCombination, PowerMode, Watts};
///
/// let mut engine = FleetEngine::new(FleetConfig::default())?;
/// for node in 0..4 {
///     engine.submit(NodeTelemetry {
///         node,
///         tick: 0,
///         matrices: PowerBipsMatrices::from_rows(
///             vec![[20.0, 12.0, 7.0], [18.0, 11.0, 6.5]],
///             vec![[2.0, 1.7, 1.4], [1.5, 1.3, 1.1]],
///         ),
///         current: ModeCombination::uniform(2, PowerMode::Turbo),
///         budget: Watts::new(30.0),
///     });
/// }
/// let decisions = engine.run_tick(0);
/// assert_eq!(decisions.len(), 4);
/// // Four identical problems cost one solve.
/// assert_eq!(engine.stats().unique_solves, 1);
/// assert_eq!(engine.stats().dedup_hits, 3);
/// # Ok::<(), gpm_types::GpmError>(())
/// ```
#[derive(Debug)]
pub struct FleetEngine {
    config: FleetConfig,
    cache: DecisionCache,
    queue: Vec<NodeTelemetry>,
    stats: FleetStats,
    session: Option<FleetFaultSession>,
    nodes: NodeMap,
    /// Nodes currently holding a nonzero rejection streak. Zero at steady
    /// state, letting the accept path skip its node-map lookup entirely.
    backoff_nodes: usize,
    rack_state: RackState,
    /// The tick after the last processed one (backoff hints count from
    /// here between ticks).
    next_tick: u64,
    /// Phase B's dedup index, fingerprint → the tick's newest problem
    /// with that fingerprint; cleared every tick, its allocation kept.
    dedup: FingerprintMap,
    /// Phase B's reusable key buffer.
    key_scratch: QuantizedKeyBuilder,
}

impl FleetEngine {
    /// Creates an engine, validating every config bound.
    pub fn new(config: FleetConfig) -> Result<Self> {
        if config.queue_capacity == 0 {
            return Err(GpmError::InvalidConfig {
                parameter: "fleet.queue_capacity",
                reason: "tick queue must hold at least one report".into(),
            });
        }
        if config.flat_core_limit == 0 || config.flat_core_limit > solver::MAX_CORES {
            return Err(GpmError::InvalidConfig {
                parameter: "fleet.flat_core_limit",
                reason: format!(
                    "flat solver limit must be between 1 and {} cores, got {}",
                    solver::MAX_CORES,
                    config.flat_core_limit
                ),
            });
        }
        if config.dark_after <= config.stale_tolerance {
            return Err(GpmError::InvalidConfig {
                parameter: "fleet.dark_after",
                reason: format!(
                    "dark_after ({}) must exceed stale_tolerance ({})",
                    config.dark_after, config.stale_tolerance
                ),
            });
        }
        if let Some(budget) = config.rack_budget {
            check_rack_budget(budget)?;
        }
        // Validates cluster_cores (and pre-flights the wide-node path).
        HierMaxBips::with_cluster_cores(config.cluster_cores)?;
        let cache = DecisionCache::new(config.cache.clone())?;
        let session = match &config.faults {
            Some(plan) => Some(FleetFaultSession::new(plan)?),
            None => None,
        };
        let rack_state = RackState {
            backoff: config.rack_budget.map_or(0, |_| CLAMP_HOLD),
            ..RackState::default()
        };
        Ok(Self {
            cache,
            queue: Vec::new(),
            stats: FleetStats::default(),
            session,
            nodes: NodeMap::default(),
            backoff_nodes: 0,
            rack_state,
            next_tick: 0,
            dedup: FingerprintMap::default(),
            key_scratch: QuantizedKeyBuilder::default(),
            config,
        })
    }

    /// The configuration the engine was built with.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Cumulative accounting across all ticks so far.
    #[must_use]
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// The cross-tick decision cache (length, counters).
    #[must_use]
    pub fn cache(&self) -> &DecisionCache {
        &self.cache
    }

    /// Reports currently queued for the next tick.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The earliest tick `node` is advised to retry at after backpressure
    /// rejections, if it is currently backing off.
    #[must_use]
    pub fn retry_at(&self, node: u64) -> Option<u64> {
        let state = self.nodes.get(&node)?;
        (state.rejections > 0).then_some(state.retry_at)
    }

    /// Replaces the rack budget (or disables rack enforcement with
    /// `None`) mid-run — the emergency-shedding trigger. When only the
    /// budget steps, the watchdog keeps its streak and backoff.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] for a budget that is not finite
    /// and positive, as [`new`](Self::new) does, and leaves the engine
    /// unchanged.
    pub fn set_rack_budget(&mut self, budget: Option<Watts>) -> Result<()> {
        match budget {
            Some(b) => {
                check_rack_budget(b)?;
                if self.rack_state.backoff == 0 {
                    self.rack_state.backoff = CLAMP_HOLD;
                }
            }
            None => self.rack_state = RackState::default(),
        }
        self.config.rack_budget = budget;
        Ok(())
    }

    /// Enqueues one report for the next [`run_tick`](Self::run_tick).
    /// Returns `true` only when the report was accepted; rejections
    /// (backpressure or validation) are counted. See
    /// [`try_submit`](Self::try_submit) for the distinguishing outcome.
    pub fn submit(&mut self, telemetry: NodeTelemetry) -> bool {
        matches!(self.try_submit(telemetry), SubmitOutcome::Accepted)
    }

    /// Enqueues one report, reporting exactly why it was not queued:
    /// validation failure (non-finite/negative power or BIPS cells,
    /// mismatched matrix shapes, degenerate budget) or queue
    /// backpressure, the latter with a per-node exponential-backoff retry
    /// hint when degraded mode is configured.
    pub fn try_submit(&mut self, telemetry: NodeTelemetry) -> SubmitOutcome {
        if !telemetry_valid(&telemetry) {
            self.stats.rejected_invalid += 1;
            return SubmitOutcome::Invalid;
        }
        if self.queue.len() >= self.config.queue_capacity {
            self.stats.rejected_backpressure += 1;
            let retry_at = if self.config.degraded {
                let state = self.nodes.entry(telemetry.node).or_default();
                if state.rejections == 0 {
                    self.backoff_nodes += 1;
                }
                let exp = state.rejections.min(RETRY_MAX_EXP);
                state.rejections = state.rejections.saturating_add(1);
                state.retry_at = self.next_tick + (RETRY_BASE << exp);
                state.retry_at
            } else {
                self.next_tick
            };
            return SubmitOutcome::Rejected { retry_at };
        }
        if self.backoff_nodes > 0 {
            if let Some(state) = self.nodes.get_mut(&telemetry.node) {
                if state.rejections != 0 {
                    state.rejections = 0;
                    state.retry_at = 0;
                    self.backoff_nodes -= 1;
                }
            }
        }
        self.queue.push(telemetry);
        SubmitOutcome::Accepted
    }

    /// Classifies a report's effective age in the `gpm-faults` freshness
    /// vocabulary: within `dark_after` the report is merely stale; at or
    /// beyond it the node is presumed unreachable.
    fn freshness(&self, age: usize) -> SensorStatus {
        if age == 0 {
            SensorStatus::Fresh
        } else if age < self.config.dark_after {
            SensorStatus::Stale { age }
        } else {
            SensorStatus::Dark
        }
    }

    /// Drains the tick queue and decides every accepted report, in
    /// submission order. `now` is the current tick, used for stale-drop.
    /// With degraded mode configured, nodes whose reports failed still
    /// receive (flagged) fallback decisions, interleaved at their
    /// submission positions.
    pub fn run_tick(&mut self, now: u64) -> Vec<NodeDecision> {
        // The drained batch goes back as the next tick's queue (cleared),
        // so the queue's allocation is grown once, not every tick.
        let mut batch = std::mem::take(&mut self.queue);
        let degraded_on = self.config.degraded;
        let track_power = degraded_on || self.config.rack_budget.is_some();

        // Phase A — serial intake: chaos seam, validation, freshness.
        // `Accept` entries index into `accepted`; fallback entries carry
        // whether the (untrusted) report is still usable for its shape.
        enum Triage {
            Accept(usize),
            FallbackShaped,
            FallbackBlind,
            Drop,
        }
        let mut triage: Vec<Triage> = Vec::with_capacity(batch.len());
        let mut accepted: Vec<usize> = Vec::new();
        for (i, report) in batch.iter_mut().enumerate() {
            let failed = |on: bool, shaped: bool| {
                if !on {
                    Triage::Drop
                } else if shaped {
                    Triage::FallbackShaped
                } else {
                    Triage::FallbackBlind
                }
            };
            let mut skew = 0u64;
            if let Some(session) = &self.session {
                if session.node_down(now, report.node) {
                    self.stats.flap_drops += 1;
                    self.stats.dropped_dark += 1;
                    triage.push(failed(degraded_on, false));
                    continue;
                }
                skew = session.tick_skew(report.tick, report.node);
                if skew > 0 {
                    self.stats.skew_delayed += 1;
                }
                if let Some(field) = session.corrupt(report.tick, report.node) {
                    corrupt_report(report, field);
                    self.stats.corrupted_reports += 1;
                    if !telemetry_valid(report) {
                        self.stats.rejected_invalid += 1;
                        triage.push(failed(degraded_on, true));
                        continue;
                    }
                }
            }
            let age = now.saturating_sub(report.tick).saturating_add(skew) as usize;
            match self.freshness(age) {
                SensorStatus::Fresh => {
                    triage.push(Triage::Accept(accepted.len()));
                    accepted.push(i);
                }
                SensorStatus::Stale { age } if age <= self.config.stale_tolerance => {
                    triage.push(Triage::Accept(accepted.len()));
                    accepted.push(i);
                }
                SensorStatus::Stale { .. } => {
                    self.stats.dropped_stale += 1;
                    triage.push(failed(degraded_on, true));
                }
                SensorStatus::Dark => {
                    self.stats.dropped_dark += 1;
                    triage.push(failed(degraded_on, true));
                }
            }
        }

        // Phase B — within-tick dedup on (problem, budget): group by the
        // canonical problem and the budget's bit pattern, first
        // occurrence leads. A report is probed by a fingerprint mixed from
        // its matrices' stored fingerprint, its current modes and — unless
        // the exact budget-interval rule leaves the budget out of the key
        // — its budget bits. Problems sharing a fingerprint chain through
        // `next`, and a match is confirmed against the problem's leader
        // report: bit-identical cells (`same_cells`, one pointer compare
        // when both share a decoder's interned storage), equal modes and,
        // when the key holds it, equal budget bits. That is exactly
        // `write_key` word equality, so only a problem new to the tick
        // writes its key, stored once however many budgets it is asked
        // at. A problem's groups chain through their own `next`. Group
        // order (= first-occurrence order) drives every later cache
        // access, so nothing depends on hash iteration order.
        struct TickProblem {
            key: QuantizedKey,
            /// Index into `batch` of the problem's first report.
            leader: usize,
            /// Whether the key leaves the budget out.
            budget_free: bool,
            /// The head of the problem's group chain: its first group.
            groups: usize,
            /// The previous problem with the same fingerprint, or `NONE`.
            next: usize,
        }
        struct Group {
            problem: usize,
            /// The budget bit pattern the members share.
            budget_word: u64,
            /// Index into `accepted` of the first member.
            leader: usize,
            size: u64,
            /// The next group in the problem's chain, or `NONE`.
            next: usize,
        }
        const NONE: usize = usize::MAX;
        self.dedup.clear();
        let mut problems: Vec<TickProblem> = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(accepted.len());
        for (a, &i) in accepted.iter().enumerate() {
            let report = &batch[i];
            let ctx = PolicyContext {
                current_modes: &report.current,
                matrices: &report.matrices,
                future: None,
                budget: report.budget,
                dvfs: &self.config.dvfs,
                explore: self.config.explore,
            };
            let exact = solved_exactly(&self.config, report);
            let budget_free = DecisionCache::budget_free(&ctx, exact);
            let fingerprint = problem_fingerprint(report, budget_free);
            let mut p = self.dedup.get(&fingerprint).copied().unwrap_or(NONE);
            while p != NONE {
                let problem = &problems[p];
                let leader = (&batch[problem.leader], problem.budget_free);
                if same_problem(leader, (report, budget_free)) {
                    break;
                }
                p = problem.next;
            }
            if p == NONE {
                p = problems.len();
                let next = self.dedup.insert(fingerprint, p).unwrap_or(NONE);
                DecisionCache::write_key(&mut self.key_scratch, &ctx, exact);
                problems.push(TickProblem {
                    key: self.key_scratch.to_key(),
                    leader: i,
                    budget_free,
                    groups: NONE,
                    next,
                });
            }
            let budget_word = report.budget.value().to_bits();
            let mut g = problems[p].groups;
            while g != NONE && groups[g].budget_word != budget_word {
                g = groups[g].next;
            }
            if g == NONE {
                // The problem's first group stays at the head of its chain
                // (its budget is usually the one most reports carry); later
                // groups are linked in behind it.
                g = groups.len();
                let head = problems[p].groups;
                let next = if head == NONE {
                    problems[p].groups = g;
                    NONE
                } else {
                    std::mem::replace(&mut groups[head].next, g)
                };
                groups.push(Group {
                    problem: p,
                    budget_word,
                    leader: a,
                    size: 0,
                    next,
                });
            }
            groups[g].size += 1;
            group_of.push(g);
        }

        // Phase C — leaders probe the cross-tick cache serially, in group
        // order, at their budgets; solver-timeout injection diverts
        // residual-miss groups to the degraded path before they can touch
        // the accounting identity.
        let mut decided: Vec<Option<ModeCombination>> = vec![None; groups.len()];
        let mut timed_out: Vec<bool> = vec![false; groups.len()];
        let mut timed_out_members: u64 = 0;
        let mut avoided_this_tick: u64 = 0;
        let mut misses: Vec<usize> = Vec::new();
        // Power estimate per group, computed once from the leader's
        // matrices: members of a dedup group share one exact key, so their
        // matrices are bit-identical and the leader's estimate IS every
        // member's estimate. Keeps rack accounting O(groups), not
        // O(nodes), per tick.
        let mut group_watts: Vec<f64> = vec![0.0; if track_power { groups.len() } else { 0 }];
        for (g, group) in groups.iter().enumerate() {
            let leader = &batch[accepted[group.leader]];
            if let Some(combo) = self.cache.get(&problems[group.problem].key, leader.budget) {
                self.stats.cache_hits += 1;
                self.stats.dedup_hits += group.size - 1;
                avoided_this_tick += group.size;
                if self.config.cache.verify_hits {
                    let fresh = solve_report(&self.config, leader);
                    assert_eq!(
                        combo, fresh,
                        "fleet cache hit diverged from a fresh solve \
                         of the same report"
                    );
                }
                if track_power {
                    group_watts[g] = leader.matrices.chip_power(&combo).value();
                }
                decided[g] = Some(combo);
            } else {
                let timeout = self
                    .session
                    .as_ref()
                    .is_some_and(|s| s.solver_timeout(now, leader.node));
                if timeout {
                    self.stats.solver_timeouts += 1;
                    timed_out_members += group.size;
                    timed_out[g] = true;
                } else {
                    self.stats.dedup_hits += group.size - 1;
                    avoided_this_tick += group.size - 1;
                    misses.push(g);
                }
            }
        }
        self.stats.decisions_total += accepted.len() as u64 - timed_out_members;

        // Phase D — residual misses fan out over the pool
        // (order-preserving map), then insert serially in miss order:
        // cache state — and with it every later eviction — is identical
        // for any pool width.
        let miss_leaders: Vec<&NodeTelemetry> = misses
            .iter()
            .map(|&g| &batch[accepted[groups[g].leader]])
            .collect();
        let config = &self.config;
        let solved: Vec<(ModeCombination, f64)> = gpm_par::parallel_map(&miss_leaders, |report| {
            let start = Instant::now();
            let combo = solve_report(config, report);
            (combo, start.elapsed().as_secs_f64() * 1e6)
        });
        for ((&g, leader), (combo, micros)) in misses.iter().zip(&miss_leaders).zip(solved) {
            self.stats.unique_solves += 1;
            self.stats.solver_us_spent += micros;
            self.cache.insert(
                &problems[groups[g].problem].key,
                &leader.matrices,
                leader.budget,
                combo.clone(),
            );
            if track_power {
                group_watts[g] = leader.matrices.chip_power(&combo).value();
            }
            decided[g] = Some(combo);
        }
        if self.stats.unique_solves > 0 {
            let mean = self.stats.solver_us_spent / self.stats.unique_solves as f64;
            self.stats.solver_us_saved += avoided_this_tick as f64 * mean;
        }

        // Phase E — assemble the output in submission order: solver-path
        // decisions at their positions, degraded-path fallbacks (flagged)
        // where reports failed. `sources[j]` remembers the backing report
        // of each solver-path decision for rack re-estimation and
        // last-good bookkeeping.
        let mut out: Vec<NodeDecision> = Vec::with_capacity(batch.len());
        let capacity = if track_power { batch.len() } else { 0 };
        let mut estimates: Vec<f64> = Vec::with_capacity(capacity);
        let mut sources: Vec<Option<usize>> = Vec::with_capacity(capacity);
        for (i, disposition) in triage.iter().enumerate() {
            let report = &batch[i];
            match disposition {
                Triage::Accept(a) if !timed_out[group_of[*a]] => {
                    let g = group_of[*a];
                    let modes = decided[g].clone().expect("every live group was decided");
                    if track_power {
                        estimates.push(group_watts[g]);
                        sources.push(Some(i));
                    }
                    out.push(NodeDecision {
                        node: report.node,
                        tick: now,
                        modes,
                        degraded: false,
                    });
                }
                Triage::Accept(_) | Triage::FallbackShaped | Triage::FallbackBlind => {
                    let shape = (!matches!(disposition, Triage::FallbackBlind)).then_some(report);
                    if let Some((modes, watts)) = self.make_fallback(report.node, shape) {
                        self.stats.fallback_decisions += 1;
                        if track_power {
                            estimates.push(watts);
                            sources.push(None);
                        }
                        out.push(NodeDecision {
                            node: report.node,
                            tick: now,
                            modes,
                            degraded: true,
                        });
                    }
                }
                Triage::Drop => {}
            }
        }

        // Phase F — rack budget enforcement: emergency shedding in
        // deterministic priority order, plus the violation watchdog.
        if let Some(budget) = self.config.rack_budget {
            self.enforce_rack(budget.value(), &mut out, &mut estimates, &sources, &batch);
        }

        // Phase G — remember what was actually issued (post-shed) for
        // every solver-backed node, so the next fallback clamps down from
        // reality rather than from a pre-clamp intent.
        if degraded_on {
            for (j, decision) in out.iter().enumerate() {
                if sources[j].is_some() {
                    let state = self.nodes.entry(decision.node).or_default();
                    match &mut state.last_good {
                        // Reuse the standing allocation: at steady state
                        // this is a same-width copy, not an alloc.
                        Some(last) => {
                            last.modes.clone_from(&decision.modes);
                            last.watts = estimates[j];
                        }
                        None => {
                            state.last_good = Some(LastGood {
                                modes: decision.modes.clone(),
                                watts: estimates[j],
                            });
                        }
                    }
                }
            }
        }

        batch.clear();
        self.queue = batch;
        self.next_tick = now + 1;
        out
    }

    /// Builds a degraded-mode fallback decision for `node`: its last-good
    /// assignment stepped down one mode, or all-Eff2 when no
    /// last-good assignment exists and the failed report still shows the
    /// node's shape. Returns `None` when the node's width is unknowable
    /// (no history, no report) or degraded mode is off.
    fn make_fallback(
        &self,
        node: u64,
        shape: Option<&NodeTelemetry>,
    ) -> Option<(ModeCombination, f64)> {
        if !self.config.degraded {
            return None;
        }
        if let Some(last_good) = self.nodes.get(&node).and_then(|s| s.last_good.as_ref()) {
            let modes = step_down(&last_good.modes, FALLBACK_STEPS);
            let watts = last_good.watts * scale_ratio(&modes, &last_good.modes);
            return Some((modes, watts));
        }
        let report = shape?;
        let cores = report.matrices.cores();
        if cores == 0 {
            return None;
        }
        let modes = ModeCombination::uniform(cores, PowerMode::Eff2);
        // A corrupted matrix cannot be trusted for the estimate; the node
        // is already at the floor, so it sheds nothing either way.
        let watts = if report.matrices.cells_valid() {
            report.matrices.chip_power(&modes).value()
        } else {
            0.0
        };
        Some((modes, watts))
    }

    /// Enforcement of the rack `budget` (watts) for one tick: watchdog
    /// clamp when active or triggered, emergency shedding otherwise.
    fn enforce_rack(
        &mut self,
        budget: f64,
        out: &mut [NodeDecision],
        estimates: &mut [f64],
        sources: &[Option<usize>],
        batch: &[NodeTelemetry],
    ) {
        // All-Eff2 floor estimate for output position `j`: solver-backed
        // decisions re-estimate from the node's own matrices; fallback
        // decisions (no trusted matrices) rescale their watts figure by
        // the cubic power-scale ratio.
        let eff2_estimate = |j: usize, modes: &ModeCombination, estimate: f64| -> f64 {
            match sources[j] {
                Some(i) => {
                    let cores = batch[i].matrices.cores();
                    batch[i]
                        .matrices
                        .chip_power(&ModeCombination::uniform(cores, PowerMode::Eff2))
                        .value()
                }
                None => {
                    let floor = ModeCombination::uniform(modes.len(), PowerMode::Eff2);
                    estimate * scale_ratio(&floor, modes)
                }
            }
        };
        let clamp_all = |out: &mut [NodeDecision], estimates: &mut [f64]| {
            for (j, decision) in out.iter_mut().enumerate() {
                let floor = ModeCombination::uniform(decision.modes.len(), PowerMode::Eff2);
                if decision.modes != floor {
                    estimates[j] = eff2_estimate(j, &decision.modes, estimates[j]);
                    decision.modes = floor;
                    decision.degraded = true;
                }
            }
        };

        if self.rack_state.clamp_remaining > 0 {
            // An active whole-rack clamp overrides everything; violation
            // accounting is suspended (the watchdog is already doing all
            // it can), mirroring the per-chip guard rails.
            clamp_all(out, estimates);
            self.stats.watchdog_clamp_ticks += 1;
            self.rack_state.clamp_remaining -= 1;
            return;
        }

        let intent: f64 = estimates.iter().sum();
        let violation = intent > budget;
        if violation {
            self.stats.rack_violation_ticks += 1;
            self.rack_state.current_run += 1;
            self.stats.longest_rack_violation_run = self
                .stats
                .longest_rack_violation_run
                .max(self.rack_state.current_run);
            self.stats.worst_rack_overshoot_watts =
                self.stats.worst_rack_overshoot_watts.max(intent - budget);
            self.rack_state.violation_streak += 1;
        } else {
            self.rack_state.current_run = 0;
            self.rack_state.violation_streak = 0;
        }

        if self.rack_state.violation_streak >= WATCHDOG_K {
            // Trigger: clamp the whole rack now and hold with exponential
            // backoff, exactly like the per-chip watchdog.
            self.rack_state.clamp_remaining = self.rack_state.backoff;
            self.rack_state.backoff = (self.rack_state.backoff * 2).min(MAX_BACKOFF);
            self.rack_state.violation_streak = 0;
            clamp_all(out, estimates);
            self.stats.watchdog_clamp_ticks += 1;
            self.rack_state.clamp_remaining -= 1;
            return;
        }

        if violation {
            // Emergency shedding: clamp the highest-estimated-power nodes
            // to the all-Eff2 floor, node id (then output position) as
            // tie-break, until the estimate fits the budget. The order is
            // a pure function of the estimates, so it is pool-width
            // independent.
            let mut order: Vec<usize> = (0..out.len()).collect();
            order.sort_by(|&a, &b| {
                estimates[b]
                    .total_cmp(&estimates[a])
                    .then(out[a].node.cmp(&out[b].node))
            });
            let mut total = intent;
            for j in order {
                if total <= budget {
                    break;
                }
                let cores = out[j].modes.len();
                let floor = ModeCombination::uniform(cores, PowerMode::Eff2);
                if out[j].modes == floor {
                    continue;
                }
                let new_estimate = eff2_estimate(j, &out[j].modes, estimates[j]);
                total -= estimates[j] - new_estimate;
                estimates[j] = new_estimate;
                out[j].modes = floor;
                out[j].degraded = true;
                self.stats.shed_clamps += 1;
            }
        }
    }

    /// Exports the engine's inter-tick state as a versioned checkpoint.
    /// Queued telemetry is not captured; checkpoint between ticks.
    #[must_use]
    pub fn checkpoint(&self) -> FleetCheckpoint {
        let mut nodes: Vec<NodeSnapshot> = self
            .nodes
            .iter()
            .map(|(&node, state)| NodeSnapshot {
                node,
                state: state.clone(),
            })
            .collect();
        nodes.sort_by_key(|snap| snap.node);
        FleetCheckpoint {
            version: FLEET_CHECKPOINT_VERSION,
            config_fingerprint: config_fingerprint(&self.config),
            next_tick: self.next_tick,
            stats: self.stats,
            cache: self.cache.snapshot(),
            nodes,
            rack: self.rack_state.clone(),
        }
    }

    /// Rebuilds an engine from a checkpoint taken under the same
    /// configuration. The restored engine continues bit-identically to
    /// one that never stopped: the cache holds the same entries in the
    /// same recency order, every node's last-good state and backoff is
    /// back, and the rack watchdog resumes mid-hold.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] if the checkpoint's version or
    /// configuration fingerprint does not match, or if `config` itself is
    /// invalid.
    pub fn restore(config: FleetConfig, checkpoint: &FleetCheckpoint) -> Result<Self> {
        if checkpoint.version != FLEET_CHECKPOINT_VERSION {
            return Err(GpmError::InvalidConfig {
                parameter: "fleet.checkpoint",
                reason: format!(
                    "checkpoint version {} does not match engine version {}",
                    checkpoint.version, FLEET_CHECKPOINT_VERSION
                ),
            });
        }
        if checkpoint.config_fingerprint != config_fingerprint(&config) {
            return Err(GpmError::InvalidConfig {
                parameter: "fleet.checkpoint",
                reason: "checkpoint was taken under a different configuration".into(),
            });
        }
        let mut engine = Self::new(config)?;
        engine.cache = DecisionCache::restore(engine.config.cache.clone(), &checkpoint.cache)?;
        engine.nodes = checkpoint
            .nodes
            .iter()
            .map(|snap| (snap.node, snap.state.clone()))
            .collect();
        engine.backoff_nodes = engine
            .nodes
            .values()
            .filter(|state| state.rejections != 0)
            .count();
        engine.stats = checkpoint.stats;
        engine.rack_state = checkpoint.rack.clone();
        engine.next_tick = checkpoint.next_tick;
        Ok(engine)
    }
}

/// Checks a rack budget: finite and positive.
fn check_rack_budget(budget: Watts) -> Result<()> {
    if budget.value().is_finite() && budget.value() > 0.0 {
        Ok(())
    } else {
        Err(GpmError::InvalidConfig {
            parameter: "fleet.rack.budget",
            reason: format!(
                "rack budget must be finite and positive, got {}",
                budget.value()
            ),
        })
    }
}

/// Whether a report is numerically sound: positive core count, matching
/// mode-vector shape, finite non-negative matrix cells, finite positive
/// budget.
fn telemetry_valid(telemetry: &NodeTelemetry) -> bool {
    telemetry.matrices.cores() > 0
        && telemetry.current.len() == telemetry.matrices.cores()
        && telemetry.budget.value().is_finite()
        && telemetry.budget.value() > 0.0
        && telemetry.matrices.cells_valid()
}

/// Applies one injected corruption to a report in place, modelling
/// in-flight mangling between the node and the service.
fn corrupt_report(report: &mut NodeTelemetry, field: CorruptField) {
    match field {
        CorruptField::Nan | CorruptField::Negative => {
            let mut rows = report.matrices.stacked_rows().to_vec();
            if let Some(row) = rows.first_mut() {
                row[0] = match field {
                    CorruptField::Nan => f64::NAN,
                    _ => -row[0].abs() - 1.0,
                };
            }
            report.matrices = PowerBipsMatrices::from_stacked_rows(rows);
        }
        CorruptField::Shape => {
            let mut modes = report.current.as_slice().to_vec();
            modes.push(PowerMode::Turbo);
            report.current = ModeCombination::new(modes);
        }
    }
}

/// Steps every core's mode down (toward Eff2) `steps` times, saturating
/// at the floor.
fn step_down(modes: &ModeCombination, steps: usize) -> ModeCombination {
    modes
        .as_slice()
        .iter()
        .map(|&mode| {
            let mut m = mode;
            for _ in 0..steps {
                match m.slower() {
                    Some(next) => m = next,
                    None => break,
                }
            }
            m
        })
        .collect()
}

/// Ratio of summed cubic power scales between two mode vectors — the
/// matrix-free power-estimate rescaling used when only a last-good watts
/// figure is available.
fn scale_ratio(new: &ModeCombination, old: &ModeCombination) -> f64 {
    let sum = |c: &ModeCombination| c.as_slice().iter().map(|m| m.power_scale()).sum::<f64>();
    let denominator = sum(old);
    if denominator > 0.0 {
        sum(new) / denominator
    } else {
        1.0
    }
}

/// FNV-1a over the decision-relevant configuration, used to refuse
/// restoring a checkpoint under a different configuration.
///
/// The stream keeps the layout of the engine's earlier, wider
/// configuration, so checkpoints written before its fixed values became
/// constants still restore: the three zero words stand where the cache's
/// key quanta were (exact keying), and the degraded and rack constants
/// stand where their settable fields were.
fn config_fingerprint(config: &FleetConfig) -> u64 {
    fn eat_byte(hash: &mut u64, byte: u8) {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    fn eat(hash: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            eat_byte(hash, byte);
        }
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    eat(&mut hash, config.cache.capacity as u64);
    for _ in 0..3 {
        eat(&mut hash, 0);
    }
    eat(&mut hash, u64::from(config.cache.verify_hits));
    eat(&mut hash, config.queue_capacity as u64);
    eat(&mut hash, config.stale_tolerance as u64);
    eat(&mut hash, config.dark_after as u64);
    eat(&mut hash, config.flat_core_limit as u64);
    eat(&mut hash, config.cluster_cores as u64);
    eat(&mut hash, config.dvfs.nominal_vdd.value().to_bits());
    eat(&mut hash, config.dvfs.nominal_frequency.value().to_bits());
    eat(&mut hash, config.dvfs.slew_rate_v_per_us.to_bits());
    eat(&mut hash, config.explore.value().to_bits());
    match &config.faults {
        Some(plan) => {
            let json = serde_json::to_string(plan).expect("fault plans serialize");
            eat(&mut hash, json.len() as u64);
            for &byte in json.as_bytes() {
                eat_byte(&mut hash, byte);
            }
        }
        None => eat(&mut hash, u64::MAX),
    }
    if config.degraded {
        eat(&mut hash, FALLBACK_STEPS as u64);
        eat(&mut hash, RETRY_BASE);
        eat(&mut hash, u64::from(RETRY_MAX_EXP));
    } else {
        eat(&mut hash, u64::MAX - 1);
    }
    match config.rack_budget {
        Some(budget) => {
            eat(&mut hash, budget.value().to_bits());
            eat(&mut hash, WATCHDOG_K as u64);
            eat(&mut hash, CLAMP_HOLD);
            eat(&mut hash, MAX_BACKOFF);
        }
        None => eat(&mut hash, u64::MAX - 2),
    }
    hash
}

/// Whether `report` is answered by the flat exact solver, which is what
/// lets its cache key leave the budget out.
fn solved_exactly(config: &FleetConfig, report: &NodeTelemetry) -> bool {
    report.matrices.cores() <= config.flat_core_limit
}

/// Phase B's dedup probe for `report`: its matrices' stored fingerprint,
/// its current modes and, unless the key is `budget_free`, its budget
/// bits, mixed by the key fingerprint's [`Fingerprinter`]. Reports with
/// equal `write_key` words always probe equal; the probe reads no cell.
fn problem_fingerprint(report: &NodeTelemetry, budget_free: bool) -> u64 {
    let mut fingerprint = Fingerprinter::new();
    fingerprint.push(report.matrices.fingerprint());
    for &mode in report.current.as_slice() {
        fingerprint.push(mode.index() as u64);
    }
    if !budget_free {
        fingerprint.push(report.budget.value().to_bits());
    }
    fingerprint.finish()
}

/// Whether two reports, each with whether its key is budget-free, pose
/// the same Phase B problem: bit-identical cells, equal modes, and either
/// both keys budget-free or equal budget bits. Exactly `write_key` word
/// equality, without writing either key.
fn same_problem(
    (leader, leader_budget_free): (&NodeTelemetry, bool),
    (report, budget_free): (&NodeTelemetry, bool),
) -> bool {
    leader_budget_free == budget_free
        && leader.matrices.same_cells(&report.matrices)
        && leader.current == report.current
        && (budget_free || leader.budget.value().to_bits() == report.budget.value().to_bits())
}

/// The fleet's solver dispatch: flat exact branch-and-bound up to the
/// configured width, the two-level hierarchical policy above it.
fn solve_report(config: &FleetConfig, report: &NodeTelemetry) -> ModeCombination {
    if solved_exactly(config, report) {
        solver::solve(
            &report.matrices,
            &report.current,
            report.budget,
            &config.dvfs,
            config.explore,
        )
    } else {
        let mut hier = HierMaxBips::with_cluster_cores(config.cluster_cores)
            .expect("cluster width validated at engine construction");
        hier.decide(&PolicyContext {
            current_modes: &report.current,
            matrices: &report.matrices,
            future: None,
            budget: report.budget,
            dvfs: &config.dvfs,
            explore: config.explore,
        })
    }
}

#[cfg(test)]
mod tests {
    use gpm_types::PowerMode;
    use proptest::prelude::*;

    use super::*;

    /// Telemetry for a `cores`-way node whose matrix rows vary with
    /// `phase`, so distinct phases are distinct cache keys.
    fn telemetry(node: u64, tick: u64, cores: usize, phase: u64) -> NodeTelemetry {
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

    fn degraded_config() -> FleetConfig {
        FleetConfig {
            degraded: true,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for (mutate, _) in [
            (
                Box::new(|c: &mut FleetConfig| c.queue_capacity = 0) as Box<dyn Fn(&mut _)>,
                "queue",
            ),
            (Box::new(|c: &mut FleetConfig| c.cluster_cores = 0), "hier"),
            (
                Box::new(|c: &mut FleetConfig| c.flat_core_limit = 0),
                "flat",
            ),
            (
                Box::new(|c: &mut FleetConfig| c.flat_core_limit = solver::MAX_CORES + 1),
                "flat above the solver's width",
            ),
            (
                Box::new(|c: &mut FleetConfig| c.cluster_cores = solver::MAX_CORES + 1),
                "hier above the solver's width",
            ),
            (
                Box::new(|c: &mut FleetConfig| c.cache.capacity = 0),
                "cache",
            ),
            (
                Box::new(|c: &mut FleetConfig| c.dark_after = 1),
                "dark_after <= stale_tolerance",
            ),
            (
                Box::new(|c: &mut FleetConfig| c.rack_budget = Some(Watts::new(f64::NAN))),
                "rack budget",
            ),
        ] {
            let mut config = FleetConfig::default();
            mutate(&mut config);
            assert!(matches!(
                FleetEngine::new(config),
                Err(GpmError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn flat_limit_above_the_solver_width_is_rejected_not_a_mid_tick_panic() {
        let config = FleetConfig {
            flat_core_limit: 100,
            ..FleetConfig::default()
        };
        assert!(matches!(
            FleetEngine::new(config),
            Err(GpmError::InvalidConfig {
                parameter: "fleet.flat_core_limit",
                ..
            })
        ));
        // At the solver's width the engine builds, and a report wider than
        // the flat limit takes the hierarchical path.
        let mut engine = FleetEngine::new(FleetConfig {
            flat_core_limit: solver::MAX_CORES,
            ..FleetConfig::default()
        })
        .expect("the solver's own width is a valid flat limit");
        for (node, cores) in [(0, solver::MAX_CORES), (1, solver::MAX_CORES + 20)] {
            assert!(engine.submit(telemetry(node, 0, cores, 0)));
        }
        let decisions = engine.run_tick(0);
        assert_eq!(decisions.len(), 2);
        assert_eq!(decisions[1].modes.len(), solver::MAX_CORES + 20);
    }

    #[test]
    fn dedup_collapses_identical_reports_preserving_order() {
        let mut engine = FleetEngine::new(FleetConfig::default()).expect("valid config");
        for node in 0..6 {
            // Nodes 0,2,4 share phase 0; nodes 1,3,5 share phase 1.
            assert!(engine.submit(telemetry(node, 0, 4, node % 2)));
        }
        let decisions = engine.run_tick(0);
        assert_eq!(
            decisions.iter().map(|d| d.node).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5],
            "decisions come back in submission order"
        );
        // Same phase ⇒ same modes; and the followers' answers equal their
        // leader's, which equals an uncached solve.
        for d in &decisions {
            let fresh = solve_report(engine.config(), &telemetry(d.node, 0, 4, d.node % 2));
            assert_eq!(d.modes, fresh, "node {}", d.node);
            assert!(!d.degraded);
        }
        let stats = engine.stats();
        assert_eq!(stats.decisions_total, 6);
        assert_eq!(stats.unique_solves, 2);
        assert_eq!(stats.dedup_hits, 4);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn repeated_phases_hit_across_ticks() {
        let mut engine = FleetEngine::new(FleetConfig::default()).expect("valid config");
        for tick in 0..3 {
            for node in 0..4 {
                assert!(engine.submit(telemetry(node, tick, 4, node % 2)));
            }
            let decisions = engine.run_tick(tick);
            assert_eq!(decisions.len(), 4);
        }
        let stats = engine.stats();
        assert_eq!(stats.decisions_total, 12);
        assert_eq!(stats.unique_solves, 2, "only tick 0's two phases solve");
        assert_eq!(stats.cache_hits, 4, "two leaders hit on each later tick");
        assert_eq!(stats.dedup_hits, 6);
        assert!(stats.hit_rate() > 0.8);
        assert!(stats.solver_us_saved > 0.0);
        assert_eq!(engine.cache().len(), 2);
    }

    #[test]
    fn stale_reports_are_dropped_fresh_ones_decided() {
        let mut engine = FleetEngine::new(FleetConfig {
            stale_tolerance: 1,
            ..FleetConfig::default()
        })
        .expect("valid config");
        assert!(engine.submit(telemetry(0, 5, 4, 0))); // fresh
        assert!(engine.submit(telemetry(1, 4, 4, 0))); // stale, in tolerance
        assert!(engine.submit(telemetry(2, 3, 4, 0))); // too old
        let decisions = engine.run_tick(5);
        assert_eq!(
            decisions.iter().map(|d| d.node).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(engine.stats().dropped_stale, 1);
        assert_eq!(engine.stats().dropped_dark, 0);
        assert_eq!(engine.stats().decisions_total, 2);
    }

    #[test]
    fn dark_reports_are_counted_separately_from_stale() {
        let mut engine = FleetEngine::new(FleetConfig {
            stale_tolerance: 1,
            dark_after: 4,
            ..FleetConfig::default()
        })
        .expect("valid config");
        assert!(engine.submit(telemetry(0, 10, 4, 0))); // fresh
        assert!(engine.submit(telemetry(1, 8, 4, 0))); // age 2: stale-dropped
        assert!(engine.submit(telemetry(2, 7, 4, 0))); // age 3: stale-dropped
        assert!(engine.submit(telemetry(3, 6, 4, 0))); // age 4: dark
        assert!(engine.submit(telemetry(4, 1, 4, 0))); // age 9: dark
        let decisions = engine.run_tick(10);
        assert_eq!(decisions.len(), 1);
        let stats = engine.stats();
        assert_eq!(stats.dropped_stale, 2);
        assert_eq!(stats.dropped_dark, 2);
        assert_eq!(stats.decisions_total, 1);
        assert_eq!(
            stats.decisions_total,
            stats.cache_hits + stats.dedup_hits + stats.unique_solves
        );
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let mut engine = FleetEngine::new(FleetConfig {
            queue_capacity: 2,
            ..FleetConfig::default()
        })
        .expect("valid config");
        assert!(engine.submit(telemetry(0, 0, 4, 0)));
        assert!(engine.submit(telemetry(1, 0, 4, 1)));
        assert!(!engine.submit(telemetry(2, 0, 4, 2)));
        assert_eq!(engine.stats().rejected_backpressure, 1);
        assert_eq!(engine.queued(), 2);
        // The queue drains on the tick and accepts again.
        assert_eq!(engine.run_tick(0).len(), 2);
        assert!(engine.submit(telemetry(2, 1, 4, 2)));
    }

    #[test]
    fn backpressure_backoff_grows_exponentially_and_resets() {
        let mut engine = FleetEngine::new(FleetConfig {
            queue_capacity: 1,
            ..degraded_config()
        })
        .expect("valid config");
        assert!(engine.submit(telemetry(0, 0, 4, 0)));
        // Node 7 keeps getting rejected: 1, 2, 4 tick hints.
        for expected in [1u64, 2, 4] {
            match engine.try_submit(telemetry(7, 0, 4, 0)) {
                SubmitOutcome::Rejected { retry_at } => assert_eq!(retry_at, expected),
                other => panic!("expected backpressure, got {other:?}"),
            }
        }
        assert_eq!(engine.retry_at(7), Some(4));
        engine.run_tick(0);
        // Queue has room again: acceptance resets the backoff.
        assert_eq!(
            engine.try_submit(telemetry(7, 1, 4, 0)),
            SubmitOutcome::Accepted
        );
        assert_eq!(engine.retry_at(7), None);
        assert_eq!(engine.stats().rejected_backpressure, 3);
    }

    #[test]
    fn invalid_telemetry_is_rejected_on_submit() {
        let mut engine = FleetEngine::new(FleetConfig::default()).expect("valid config");
        let mut nan = telemetry(0, 0, 2, 0);
        corrupt_report(&mut nan, CorruptField::Nan);
        let mut neg = telemetry(1, 0, 2, 0);
        corrupt_report(&mut neg, CorruptField::Negative);
        let mut shape = telemetry(2, 0, 2, 0);
        corrupt_report(&mut shape, CorruptField::Shape);
        let mut bad_budget = telemetry(3, 0, 2, 0);
        bad_budget.budget = Watts::new(-5.0);
        for bad in [nan, neg, shape, bad_budget] {
            assert_eq!(engine.try_submit(bad), SubmitOutcome::Invalid);
        }
        assert_eq!(engine.stats().rejected_invalid, 4);
        assert_eq!(engine.queued(), 0);
        // A valid report still goes through; the key space is unpoisoned.
        assert!(engine.submit(telemetry(4, 0, 2, 0)));
        assert_eq!(engine.run_tick(0).len(), 1);
    }

    #[test]
    fn wide_nodes_take_the_hierarchical_path() {
        let config = FleetConfig {
            flat_core_limit: 8,
            cluster_cores: 8,
            ..FleetConfig::default()
        };
        let mut engine = FleetEngine::new(config.clone()).expect("valid config");
        let report = telemetry(0, 0, 16, 0);
        assert!(engine.submit(report.clone()));
        let decisions = engine.run_tick(0);
        let mut hier = HierMaxBips::with_cluster_cores(8).expect("valid width");
        let expected = hier.decide(&PolicyContext {
            current_modes: &report.current,
            matrices: &report.matrices,
            future: None,
            budget: report.budget,
            dvfs: &config.dvfs,
            explore: config.explore,
        });
        assert_eq!(decisions[0].modes, expected);
    }

    #[test]
    fn verify_hits_audits_cached_fleet_decisions() {
        let mut engine = FleetEngine::new(FleetConfig {
            cache: CacheConfig {
                verify_hits: true,
                ..CacheConfig::default()
            },
            ..FleetConfig::default()
        })
        .expect("valid config");
        for tick in 0..2 {
            for node in 0..3 {
                assert!(engine.submit(telemetry(node, tick, 4, 0)));
            }
            engine.run_tick(tick);
        }
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn flap_yields_last_good_fallback_stepped_down() {
        let plan = FleetFaultPlan::parse("flap@1:period=4,down=1,from=1,to=2")
            .expect("flap@1:period=4,down=1,from=1,to=2 spec parses");
        let mut engine = FleetEngine::new(FleetConfig {
            faults: Some(plan),
            ..degraded_config()
        })
        .expect("valid config");
        // Tick 0: both nodes decided normally; node 1's assignment is
        // remembered as last-good.
        for node in 0..2 {
            assert!(engine.submit(telemetry(node, 0, 4, node)));
        }
        let first = engine.run_tick(0);
        assert_eq!(first.len(), 2);
        let good = first[1].modes.clone();
        // Tick 1: node 1 flaps; it still gets a decision — last-good
        // stepped one mode down — flagged degraded.
        for node in 0..2 {
            assert!(engine.submit(telemetry(node, 1, 4, node)));
        }
        let second = engine.run_tick(1);
        assert_eq!(second.len(), 2);
        assert!(!second[0].degraded);
        assert!(second[1].degraded);
        assert_eq!(second[1].modes, step_down(&good, 1));
        let stats = engine.stats();
        assert_eq!(stats.flap_drops, 1);
        assert_eq!(stats.dropped_dark, 1);
        assert_eq!(stats.fallback_decisions, 1);
        assert_eq!(stats.decisions_total, 3);
        assert_eq!(
            stats.decisions_total,
            stats.cache_hits + stats.dedup_hits + stats.unique_solves
        );
        // Tick 2: the window closed; node 1 is decided normally again.
        for node in 0..2 {
            assert!(engine.submit(telemetry(node, 2, 4, node)));
        }
        let third = engine.run_tick(2);
        assert!(!third[1].degraded);
        assert_eq!(third[1].modes, good);
    }

    #[test]
    fn flap_without_history_emits_no_decision() {
        let plan = FleetFaultPlan::parse("flap@0:period=2,down=2")
            .expect("flap@0:period=2,down=2 spec parses");
        let mut engine = FleetEngine::new(FleetConfig {
            faults: Some(plan),
            ..degraded_config()
        })
        .expect("valid config");
        assert!(engine.submit(telemetry(0, 0, 4, 0)));
        // Node 0 is down and has never been decided: the engine cannot
        // even know its width, so no fallback is possible.
        assert!(engine.run_tick(0).is_empty());
        assert_eq!(engine.stats().fallback_decisions, 0);
        assert_eq!(engine.stats().flap_drops, 1);
    }

    #[test]
    fn corrupt_report_falls_back_to_floor_without_history() {
        let plan = FleetFaultPlan::parse("corrupt@0:field=nan,rate=1.0")
            .expect("corrupt@0:field=nan,rate=1.0 spec parses");
        let mut engine = FleetEngine::new(FleetConfig {
            faults: Some(plan),
            ..degraded_config()
        })
        .expect("valid config");
        assert!(engine.submit(telemetry(0, 0, 4, 0)));
        let decisions = engine.run_tick(0);
        assert_eq!(decisions.len(), 1);
        assert!(decisions[0].degraded);
        assert_eq!(
            decisions[0].modes,
            ModeCombination::uniform(4, PowerMode::Eff2),
            "no last-good assignment: the fallback is the all-Eff2 floor"
        );
        let stats = engine.stats();
        assert_eq!(stats.corrupted_reports, 1);
        assert_eq!(stats.rejected_invalid, 1);
        assert_eq!(stats.fallback_decisions, 1);
        assert_eq!(stats.decisions_total, 0);
    }

    #[test]
    fn skew_ages_reports_into_the_stale_drop() {
        let plan = FleetFaultPlan::parse("skew@0:ticks=3").expect("skew@0:ticks=3 spec parses");
        let mut engine = FleetEngine::new(FleetConfig {
            stale_tolerance: 1,
            faults: Some(plan),
            ..FleetConfig::default()
        })
        .expect("valid config");
        assert!(engine.submit(telemetry(0, 5, 4, 0))); // fresh, but skewed to age 3
        assert!(engine.submit(telemetry(1, 5, 4, 0))); // untouched
        let decisions = engine.run_tick(5);
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].node, 1);
        let stats = engine.stats();
        assert_eq!(stats.skew_delayed, 1);
        assert_eq!(stats.dropped_stale, 1);
    }

    #[test]
    fn solver_timeout_diverts_group_to_fallback() {
        let plan = FleetFaultPlan::parse("timeout:rate=1.0,from=0,to=1")
            .expect("timeout:rate=1.0,from=0,to=1 spec parses");
        let mut engine = FleetEngine::new(FleetConfig {
            faults: Some(plan),
            ..degraded_config()
        })
        .expect("valid config");
        // Two identical reports: one group, one (timed-out) solve.
        for node in 0..2 {
            assert!(engine.submit(telemetry(node, 0, 4, 0)));
        }
        let decisions = engine.run_tick(0);
        assert_eq!(decisions.len(), 2);
        assert!(decisions.iter().all(|d| d.degraded));
        let stats = engine.stats();
        assert_eq!(stats.solver_timeouts, 1);
        assert_eq!(stats.fallback_decisions, 2);
        assert_eq!(stats.decisions_total, 0);
        assert_eq!(stats.unique_solves, 0);
        assert_eq!(engine.cache().len(), 0, "timed-out groups never insert");
        // Tick 1 (window closed): the same problem now solves and the
        // accounting identity holds.
        for node in 0..2 {
            assert!(engine.submit(telemetry(node, 1, 4, 0)));
        }
        let decisions = engine.run_tick(1);
        assert!(decisions.iter().all(|d| !d.degraded));
        let stats = engine.stats();
        assert_eq!(stats.decisions_total, 2);
        assert_eq!(stats.unique_solves, 1);
        assert_eq!(stats.dedup_hits, 1);
    }

    #[test]
    fn rack_shedding_clamps_highest_power_first() {
        // Three 2-core nodes; phase 0 draws the most power.
        let mut engine = FleetEngine::new(FleetConfig {
            rack_budget: Some(Watts::new(1e9)),
            ..FleetConfig::default()
        })
        .expect("valid config");
        for node in 0..3 {
            assert!(engine.submit(telemetry(node, 0, 2, node)));
        }
        let unshedded = engine.run_tick(0);
        let full_power: f64 = unshedded
            .iter()
            .enumerate()
            .map(|(i, d)| {
                telemetry(i as u64, 0, 2, i as u64)
                    .matrices
                    .chip_power(&d.modes)
                    .value()
            })
            .sum();

        // Re-run with a budget that forces exactly the hungriest node out.
        let per_node: Vec<f64> = unshedded
            .iter()
            .enumerate()
            .map(|(i, d)| {
                telemetry(i as u64, 0, 2, i as u64)
                    .matrices
                    .chip_power(&d.modes)
                    .value()
            })
            .collect();
        let hungriest = per_node
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        let budget = full_power - 0.1;
        let mut engine = FleetEngine::new(FleetConfig {
            rack_budget: Some(Watts::new(budget)),
            ..FleetConfig::default()
        })
        .expect("valid config");
        for node in 0..3 {
            assert!(engine.submit(telemetry(node, 0, 2, node)));
        }
        let shed = engine.run_tick(0);
        assert_eq!(
            shed[hungriest].modes,
            ModeCombination::uniform(2, PowerMode::Eff2)
        );
        assert!(shed[hungriest].degraded);
        let others: Vec<_> = (0..3).filter(|&i| i != hungriest).collect();
        for &i in &others {
            assert_eq!(shed[i].modes, unshedded[i].modes, "node {i} untouched");
            assert!(!shed[i].degraded);
        }
        let stats = engine.stats();
        assert_eq!(stats.shed_clamps, 1);
        assert_eq!(stats.rack_violation_ticks, 1);
        assert!(stats.worst_rack_overshoot_watts > 0.0);
    }

    #[test]
    fn rack_watchdog_clamps_whole_rack_after_k_violations() {
        // An absurdly small budget violates every tick even after full
        // shedding-to-floor, so the watchdog (K = 3, first hold 2 ticks)
        // must fire on tick K-1.
        let mut engine = FleetEngine::new(FleetConfig {
            rack_budget: Some(Watts::new(0.001)),
            ..FleetConfig::default()
        })
        .expect("valid config");
        let floor = ModeCombination::uniform(2, PowerMode::Eff2);
        for tick in 0..6u64 {
            for node in 0..2 {
                assert!(engine.submit(telemetry(node, tick, 2, node)));
            }
            let decisions = engine.run_tick(tick);
            // Every tick sheds (or clamps) everything to the floor.
            assert!(decisions.iter().all(|d| d.modes == floor), "tick {tick}");
        }
        let stats = engine.stats();
        // Ticks 0-1 shed; tick 2 trips the watchdog (streak of 3) and is
        // clamped; tick 3 rides the hold; tick 4-5 rebuild the streak.
        assert_eq!(stats.watchdog_clamp_ticks, 2);
        assert!(stats.rack_violation_ticks >= 3);
        assert!(stats.longest_rack_violation_run >= 3);
        assert_eq!(
            stats.shed_clamps,
            2 * 4,
            "two nodes shed on non-clamp ticks"
        );
    }

    #[test]
    fn mid_run_budget_step_triggers_shedding() {
        let mut engine = FleetEngine::new(FleetConfig::default()).expect("valid config");
        for node in 0..2 {
            assert!(engine.submit(telemetry(node, 0, 2, node)));
        }
        let before = engine.run_tick(0);
        assert!(before.iter().all(|d| !d.degraded));
        assert_eq!(engine.stats().shed_clamps, 0);
        // The rack budget steps down mid-run: next tick must shed.
        engine
            .set_rack_budget(Some(Watts::new(1.0)))
            .expect("a finite positive budget");
        for node in 0..2 {
            assert!(engine.submit(telemetry(node, 1, 2, node)));
        }
        let after = engine.run_tick(1);
        assert!(after
            .iter()
            .all(|d| d.modes == ModeCombination::uniform(2, PowerMode::Eff2)));
        assert_eq!(engine.stats().shed_clamps, 2);
        assert_eq!(engine.stats().rack_violation_ticks, 1);
    }

    #[test]
    fn set_rack_budget_refuses_what_new_refuses_and_changes_nothing() {
        let rack = |watts: f64| FleetConfig {
            rack_budget: Some(Watts::new(watts)),
            ..FleetConfig::default()
        };
        let mut armed = FleetEngine::new(rack(100.0)).expect("valid config");
        let mut plain = FleetEngine::new(FleetConfig::default()).expect("valid config");
        for engine in [&mut armed, &mut plain] {
            for node in 0..2 {
                assert!(engine.submit(telemetry(node, 0, 2, node)));
            }
            engine.run_tick(0);
        }
        let (armed_before, plain_before) = (armed.checkpoint(), plain.checkpoint());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            assert!(
                matches!(
                    FleetEngine::new(rack(bad)),
                    Err(GpmError::InvalidConfig {
                        parameter: "fleet.rack.budget",
                        ..
                    })
                ),
                "new accepted rack budget {bad}"
            );
            for engine in [&mut armed, &mut plain] {
                assert!(
                    matches!(
                        engine.set_rack_budget(Some(Watts::new(bad))),
                        Err(GpmError::InvalidConfig {
                            parameter: "fleet.rack.budget",
                            ..
                        })
                    ),
                    "set_rack_budget accepted {bad}"
                );
            }
        }
        // The fingerprint covers the rack budget: unchanged checkpoints
        // mean the refused calls left budget and watchdog state alone.
        assert_eq!(armed.checkpoint(), armed_before);
        assert_eq!(plain.checkpoint(), plain_before);
        assert_eq!(armed.config().rack_budget, Some(Watts::new(100.0)));
        assert_eq!(plain.config().rack_budget, None);
    }

    #[test]
    fn fault_free_chaos_armed_engine_matches_disarmed() {
        // A plan whose only clause targets a node that never reports,
        // plus degraded mode and a generous rack budget: the full
        // machinery runs but every decision must be bit-identical to the
        // plain engine's.
        let plan = FleetFaultPlan::parse("flap@999983:period=2")
            .expect("flap@999983:period=2 spec parses");
        let armed_config = FleetConfig {
            faults: Some(plan),
            degraded: true,
            rack_budget: Some(Watts::new(1e12)),
            ..FleetConfig::default()
        };
        let mut armed = FleetEngine::new(armed_config).expect("valid config");
        let mut plain = FleetEngine::new(FleetConfig::default()).expect("valid config");
        for tick in 0..4u64 {
            for node in 0..12 {
                assert!(armed.submit(telemetry(node, tick, 4, node % 3)));
                assert!(plain.submit(telemetry(node, tick, 4, node % 3)));
            }
            assert_eq!(armed.run_tick(tick), plain.run_tick(tick), "tick {tick}");
        }
        let (a, p) = (armed.stats(), plain.stats());
        assert_eq!(a.decisions_total, p.decisions_total);
        assert_eq!(a.cache_hits, p.cache_hits);
        assert_eq!(a.dedup_hits, p.dedup_hits);
        assert_eq!(a.unique_solves, p.unique_solves);
        assert_eq!(a.fallback_decisions, 0);
        assert_eq!(a.shed_clamps, 0);
    }

    #[test]
    fn checkpoint_restore_continues_bit_identically() {
        let plan = FleetFaultPlan::parse("flap@2:period=3,down=1,from=2,to=8;corrupt@5:rate=0.7")
            .expect("flap@2:period=3,down=1,from=2,to=8;corrupt@5:rate=0.7 spec parses");
        let config = FleetConfig {
            faults: Some(plan),
            degraded: true,
            rack_budget: Some(Watts::new(220.0)),
            ..FleetConfig::default()
        };
        let drive = |engine: &mut FleetEngine, tick: u64| -> Vec<NodeDecision> {
            for node in 0..8 {
                engine.submit(telemetry(node, tick, 4, node % 3));
            }
            engine.run_tick(tick)
        };

        // Reference: run 8 ticks uninterrupted.
        let mut reference = FleetEngine::new(config.clone()).expect("valid config");
        let mut expected = Vec::new();
        for tick in 0..8u64 {
            expected.push(drive(&mut reference, tick));
        }

        // Candidate: run 4 ticks, checkpoint through JSON, restore,
        // run the rest.
        let mut first_half = FleetEngine::new(config.clone()).expect("valid config");
        let mut got = Vec::new();
        for tick in 0..4u64 {
            got.push(drive(&mut first_half, tick));
        }
        let json = first_half.checkpoint().to_json();
        let checkpoint = FleetCheckpoint::from_json(&json).expect("roundtrips");
        let mut restored = FleetEngine::restore(config.clone(), &checkpoint).expect("restores");
        for tick in 4..8u64 {
            got.push(drive(&mut restored, tick));
        }

        assert_eq!(got, expected, "decision stream diverged across restore");
        // Cache entries (keys, values, recency order) and counters must
        // match exactly; solve timing is wall-clock and excluded.
        let (rs, es) = (restored.cache().snapshot(), reference.cache().snapshot());
        assert_eq!(
            (rs.problems, rs.answers),
            (es.problems, es.answers),
            "cache state diverged across restore"
        );
        assert_eq!(rs.counters, es.counters);
        assert_eq!(rs.solve_count, es.solve_count);
        let (r, e) = (restored.stats(), reference.stats());
        assert_eq!(r.decisions_total, e.decisions_total);
        assert_eq!(r.fallback_decisions, e.fallback_decisions);
        assert_eq!(r.shed_clamps, e.shed_clamps);
        assert_eq!(r.dropped_dark, e.dropped_dark);
        assert_eq!(r.rejected_invalid, e.rejected_invalid);
    }

    #[test]
    fn restore_rejects_mismatched_config_and_version() {
        let config = FleetConfig::default();
        let mut engine = FleetEngine::new(config.clone()).expect("valid config");
        for node in 0..4 {
            engine.submit(telemetry(node, 0, 4, node));
        }
        engine.run_tick(0);
        let checkpoint = engine.checkpoint();
        // Same config restores.
        assert!(FleetEngine::restore(config.clone(), &checkpoint).is_ok());
        // A different stale tolerance is a different decision function.
        let other = FleetConfig {
            stale_tolerance: 3,
            ..config
        };
        assert!(matches!(
            FleetEngine::restore(other, &checkpoint),
            Err(GpmError::InvalidConfig { .. })
        ));
        // A future version is refused.
        let mut doctored = checkpoint;
        doctored.version = FLEET_CHECKPOINT_VERSION + 1;
        assert!(matches!(
            FleetEngine::restore(FleetConfig::default(), &doctored),
            Err(GpmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn step_down_saturates_at_the_floor() {
        let mixed = ModeCombination::new(vec![PowerMode::Turbo, PowerMode::Eff1, PowerMode::Eff2]);
        assert_eq!(
            step_down(&mixed, 1).as_slice(),
            &[PowerMode::Eff1, PowerMode::Eff2, PowerMode::Eff2]
        );
        assert_eq!(
            step_down(&mixed, 5),
            ModeCombination::uniform(3, PowerMode::Eff2)
        );
        assert_eq!(step_down(&mixed, 0), mixed);
    }

    /// Cells drawn from a palette that makes bit-level near misses common:
    /// both zeros, two subnormals and two normal values.
    const PALETTE: [f64; 6] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE / 4.0,
        1.5,
        2.5,
    ];

    /// A report whose cells are `cells[..6 * cores]` taken from
    /// [`PALETTE`] and whose modes are `modes[..cores]`.
    fn palette_report(
        cores: usize,
        cells: &[usize],
        modes: &[usize],
        budget: f64,
    ) -> NodeTelemetry {
        let rows: Vec<[f64; 3]> = cells[..6 * cores]
            .chunks_exact(3)
            .map(|c| [PALETTE[c[0]], PALETTE[c[1]], PALETTE[c[2]]])
            .collect();
        NodeTelemetry {
            node: 0,
            tick: 0,
            matrices: PowerBipsMatrices::from_stacked_rows(rows),
            current: modes[..cores].iter().map(|&m| PowerMode::ALL[m]).collect(),
            budget: Watts::new(budget),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Phase B's probe-and-confirm identity is exactly `write_key`
        /// word equality: for report pairs built on shared or separate
        /// storage, differing in a `±0.0` or subnormal cell, a mode, the
        /// budget or the width, on both sides of the flat solver limit.
        #[test]
        fn phase_b_identity_is_write_key_equality(
            (cores_a, cores_b) in (1usize..=6, 1usize..=6),
            cells in prop::collection::vec(0usize..6, 36),
            modes in prop::collection::vec(0usize..3, 6),
            (kind, flip, bump_mode) in (0u32..5, 0usize..36, 0usize..6),
            (budget_a, budget_b) in (0usize..3, 0usize..3),
        ) {
            const BUDGETS: [f64; 3] = [10.0, 20.0, 10.000_000_000_000_002];
            let config = FleetConfig {
                flat_core_limit: 3,
                ..FleetConfig::default()
            };
            let a = palette_report(cores_a, &cells, &modes, BUDGETS[budget_a]);
            let mut b = match kind {
                // The same storage, as a decoder's interned clone.
                0 => NodeTelemetry { node: 1, ..a.clone() },
                // Separately built from the same cells.
                1 => palette_report(cores_a, &cells, &modes, BUDGETS[budget_a]),
                // One cell moved: +0.0 ↔ -0.0, or a subnormal ↔ the other.
                2 => {
                    let mut cells = cells.clone();
                    let at = flip % (6 * cores_a);
                    cells[at] ^= 1;
                    palette_report(cores_a, &cells, &modes, BUDGETS[budget_a])
                }
                // One mode moved.
                3 => {
                    let mut modes = modes.clone();
                    let at = bump_mode % cores_a;
                    modes[at] = (modes[at] + 1) % 3;
                    palette_report(cores_a, &cells, &modes, BUDGETS[budget_a])
                }
                // Another width over the same leading cells.
                _ => palette_report(cores_b, &cells, &modes, BUDGETS[budget_a]),
            };
            b.node = 1;
            b.budget = Watts::new(BUDGETS[budget_b]);

            let probe = |report: &NodeTelemetry| {
                let ctx = PolicyContext {
                    current_modes: &report.current,
                    matrices: &report.matrices,
                    future: None,
                    budget: report.budget,
                    dvfs: &config.dvfs,
                    explore: config.explore,
                };
                let exact = solved_exactly(&config, report);
                let mut key = QuantizedKeyBuilder::default();
                DecisionCache::write_key(&mut key, &ctx, exact);
                let budget_free = DecisionCache::budget_free(&ctx, exact);
                (key.finish(), budget_free, problem_fingerprint(report, budget_free))
            };
            let (key_a, free_a, probe_a) = probe(&a);
            let (key_b, free_b, probe_b) = probe(&b);
            let keys_equal = key_a.words() == key_b.words();
            prop_assert_eq!(same_problem((&a, free_a), (&b, free_b)), keys_equal);
            prop_assert_eq!(same_problem((&b, free_b), (&a, free_a)), keys_equal);
            if keys_equal {
                prop_assert_eq!(probe_a, probe_b);
            }

            // Through the engine: one group iff one key at one budget.
            let same_group = keys_equal && budget_a == budget_b;
            let mut engine = FleetEngine::new(config.clone()).expect("valid config");
            prop_assert!(engine.submit(a.clone()));
            prop_assert!(engine.submit(b.clone()));
            let decisions = engine.run_tick(0);
            prop_assert_eq!(decisions.len(), 2);
            let stats = engine.stats();
            prop_assert_eq!(stats.dedup_hits, u64::from(same_group));
            prop_assert_eq!(stats.unique_solves, 2 - u64::from(same_group));
        }
    }
}

//! The sharded decision engine: K private [`FleetEngine`]s behind a
//! node-id router.
//!
//! Shards share nothing — each engine owns its decision cache and its
//! bounded ingest queue — so sharding is a plain partition by
//! [`node_shard`]. A submission goes straight to its node's engine on the
//! caller's thread and returns that engine's own [`SubmitOutcome`]
//! (validation failures and backoff-aware retry hints included): the
//! engine's `queue_capacity` is the one ingest bound, with no second
//! window in front of it. A tick cut ([`ShardedEngine::run_tick`]) runs
//! the K engine ticks through [`gpm_par::parallel_map`] and joins their
//! batches in shard order. Shard parallelism is therefore bounded by the
//! pool width (`GPM_THREADS`), not by K, and the engine starts no
//! threads of its own. At K = 1 the map runs its one item inline, so the
//! engine's own Phase D solve fan-out keeps the pool; at K ≥ 2 each
//! shard tick runs on a pool worker and its inner fan-out runs inline.
//!
//! # Determinism
//!
//! Shard assignment is [`node_shard`] — one splitmix64 finalizer round
//! modulo the shard count, a pure function of the node id. Within a
//! shard, submissions arrive in client call order and the engine's own
//! tick protocol is pool-width independent, so for a fixed shard count
//! the per-node decision stream is bit-identical across `GPM_THREADS`
//! settings and transports. Across *different* shard counts the per-node
//! stream is still invariant (sharding only changes which cache answers
//! a node, and exact-keyed cache hits are bit-identical to fresh solves)
//! — unless a rack budget is configured: rack shedding reacts to the
//! co-resident nodes of the same engine, so rack-armed decisions are
//! deterministic per shard count but not invariant across shard counts.

use std::sync::Mutex;

use gpm_core::{
    node_shard, FleetCheckpoint, FleetConfig, FleetEngine, FleetStats, NodeDecision, NodeTelemetry,
    SubmitOutcome,
};
use gpm_types::Result;

/// K [`FleetEngine`]s partitioned by [`node_shard`]. Each engine sits in
/// its own `Mutex` only so a tick can hand the engines to pool workers;
/// every other access goes through `&mut self` and takes no lock.
pub struct ShardedEngine {
    engines: Vec<Mutex<FleetEngine>>,
    router_rejected: u64,
}

/// Why a poisoned cell is fatal: only a tick that panicked on a pool
/// worker poisons it, and that tick may have left its engine half-updated.
const POISONED: &str = "a shard engine panicked mid-tick";

/// The engine in `cell`, lock-free under `&mut`.
fn engine(cell: &mut Mutex<FleetEngine>) -> &mut FleetEngine {
    cell.get_mut().expect(POISONED)
}

impl ShardedEngine {
    /// Builds `shards` engines, each with its own copy of `config`.
    ///
    /// # Errors
    ///
    /// Rejects a zero shard count and propagates engine-config errors.
    pub fn homogeneous(config: &FleetConfig, shards: usize) -> Result<Self> {
        Self::from_engines(
            (0..shards)
                .map(|_| FleetEngine::new(config.clone()))
                .collect::<Result<Vec<_>>>()?,
        )
    }

    /// Restores every shard from its checkpoint (one per shard, in shard
    /// order), resuming bit-identically per the engine's own guarantee.
    ///
    /// # Errors
    ///
    /// Rejects a zero shard count and propagates per-shard restore
    /// errors (version/config-fingerprint mismatches).
    pub fn restore(config: &FleetConfig, checkpoints: &[FleetCheckpoint]) -> Result<Self> {
        Self::from_engines(
            checkpoints
                .iter()
                .map(|checkpoint| FleetEngine::restore(config.clone(), checkpoint))
                .collect::<Result<Vec<_>>>()?,
        )
    }

    fn from_engines(engines: Vec<FleetEngine>) -> Result<Self> {
        if engines.is_empty() {
            return Err(gpm_types::GpmError::InvalidConfig {
                parameter: "serve.shards",
                reason: "the sharded engine needs at least one shard".into(),
            });
        }
        Ok(Self {
            engines: engines.into_iter().map(Mutex::new).collect(),
            router_rejected: 0,
        })
    }

    /// Shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// Submissions that were not queued, for backpressure or validation,
    /// since the engine was built: the count of [`try_submit`] calls that
    /// returned anything but [`SubmitOutcome::Accepted`].
    ///
    /// [`try_submit`]: ShardedEngine::try_submit
    #[must_use]
    pub fn router_rejected(&self) -> u64 {
        self.router_rejected
    }

    /// Routes one report to its node's shard engine and returns that
    /// engine's own outcome: [`SubmitOutcome::Invalid`] for a report that
    /// fails validation, [`SubmitOutcome::Rejected`] (with the engine's
    /// retry advice, per-node backoff in degraded mode) when the shard's
    /// `queue_capacity` is exhausted.
    pub fn try_submit(&mut self, telemetry: NodeTelemetry) -> SubmitOutcome {
        let index = node_shard(telemetry.node, self.engines.len());
        let outcome = engine(&mut self.engines[index]).try_submit(telemetry);
        if outcome != SubmitOutcome::Accepted {
            self.router_rejected += 1;
        }
        outcome
    }

    /// Cuts the tick on every shard and returns the decisions in shard
    /// order (shard 0's batch, then shard 1's, …), which keeps the
    /// concatenated stream deterministic for a fixed shard count.
    pub fn run_tick(&mut self, now: u64) -> Vec<NodeDecision> {
        let batches = gpm_par::parallel_map(&self.engines, |cell| {
            cell.lock().expect(POISONED).run_tick(now)
        });
        let mut batches = batches.into_iter();
        // Shard 0's batch is kept, not copied: only the later shards'
        // batches are appended.
        let mut decisions = batches.next().unwrap_or_default();
        for batch in batches {
            decisions.extend(batch);
        }
        decisions
    }

    /// Aggregated accounting: every shard's [`FleetStats`] merged
    /// (counters summed, running maxima maxed).
    pub fn stats(&mut self) -> FleetStats {
        let mut merged = FleetStats::default();
        for cell in &mut self.engines {
            merged.merge(&engine(cell).stats());
        }
        merged
    }

    /// One checkpoint per shard, in shard order — the restore-side
    /// counterpart is [`ShardedEngine::restore`].
    pub fn checkpoint(&mut self) -> Vec<FleetCheckpoint> {
        self.engines
            .iter_mut()
            .map(|cell| engine(cell).checkpoint())
            .collect()
    }
}

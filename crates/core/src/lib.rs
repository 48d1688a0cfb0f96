//! The global CMP power manager — the primary contribution of Isci et al.,
//! MICRO 2006: per-core DVFS mode selection under a chip-wide power budget.
//!
//! # Architecture
//!
//! The [`GlobalManager`] closes the paper's control loop: every
//! `explore_time` (500 µs) it collects per-core power/performance
//! observations from the local monitors (current sensors and performance
//! counters, modelled by `gpm-cmp`), builds the predictive **Power and BIPS
//! matrices** of Section 5.5 ([`PowerBipsMatrices`]) by cubic/linear
//! scaling, asks a [`Policy`] for the next mode assignment, and applies it —
//! paying DVFS transition and GALS synchronisation costs.
//!
//! # Policies
//!
//! * [`MaxBips`] — the paper's headline policy: picks the
//!   highest-throughput of all 3^N mode combinations (with transition
//!   de-rating) that fits the budget. The argmax is computed by the exact
//!   branch-and-bound in [`solver`], bit-identical to the paper's
//!   exhaustive scan but tractable at 16/32 cores.
//! * [`Priority`] — fixed core priorities; slows the lowest-priority core
//!   first, speeds the highest-priority core first.
//! * [`PullHiPushLo`] — power balancing: slows the hottest core, speeds the
//!   coolest.
//! * [`ChipWide`] — uniform chip-wide DVFS, the monolithic baseline.
//! * [`Oracle`] — MaxBIPS with *future* matrices read from the actual
//!   traces (Section 5.6's upper bound).
//! * [`GreedyMaxBips`] — an O(N·modes) incremental search for large core
//!   counts (our scalability extension; the paper notes the superlinear
//!   growth of exhaustive exploration).
//! * [`HierMaxBips`] — the two-level controller for 64–256-way CMPs: a
//!   global water-filling budget arbiter ([`cluster_budgets`]) over
//!   per-cluster exact solves that parallelise on the `gpm-par` pool (our
//!   scalability extension, after "Scaling Turbo Boost to a 1000 cores").
//! * [`MinPower`] — the paper's stated-but-unanalysed dual problem:
//!   minimise power subject to a throughput target (our extension).
//! * [`ThermalGuard`] — wraps any policy with per-core junction-temperature
//!   throttling over an RC thermal model (our extension; the paper's
//!   motivation is thermal but it manages power only).
//! * [`Constant`] — a fixed assignment (baselines and static studies).
//!
//! The optimistic-static lower bound of Section 5.7 is an offline analysis,
//! not a feedback policy: see [`static_oracle`].
//!
//! # Examples
//!
//! ```no_run
//! use gpm_core::{BudgetSchedule, GlobalManager, MaxBips};
//! use gpm_cmp::{SimParams, TraceCmpSim};
//! use gpm_trace::{CaptureConfig, TraceStore};
//! use gpm_workloads::combos;
//!
//! let store = TraceStore::new(CaptureConfig::default());
//! let traces = store.combo(&combos::ammp_mcf_crafty_art())?;
//! let sim = TraceCmpSim::new(traces, SimParams::default())?;
//!
//! let manager = GlobalManager::new();
//! let result = manager.run(sim, &mut MaxBips::new(), &BudgetSchedule::constant(0.83))?;
//! println!("avg chip power: {:.1}", result.average_chip_power());
//! # Ok::<(), gpm_types::GpmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod curves;
mod fleet;
pub mod fleet_load;
mod manager;
mod matrices;
mod metrics;
mod policy;
pub mod static_oracle;

pub use budget::BudgetSchedule;
pub use curves::{
    evaluate_policy_point, sweep_policy, turbo_baseline, CurvePoint, PolicyCurve, DEFAULT_BUDGETS,
};
pub use fleet::{
    node_shard, FleetCheckpoint, FleetConfig, FleetEngine, FleetStats, NodeDecision, NodeIdHasher,
    NodeTelemetry, SubmitOutcome, FLEET_CHECKPOINT_VERSION,
};
pub use manager::{
    ExploreRecord, GlobalManager, GuardAction, GuardActionKind, GuardRails, RunOptions, RunResult,
};
pub use matrices::PowerBipsMatrices;
pub use metrics::{throughput_degradation, weighted_slowdown, weighted_speedup_slowdown};
pub use policy::solver;
pub use policy::{
    cluster_budgets, CacheConfig, CacheCounters, CacheSnapshot, CachedAnswer, CachedMaxBips,
    ChipWide, Constant, DecisionCache, GreedyMaxBips, HierMaxBips, MaxBips, MinPower, Oracle,
    Policy, PolicyContext, Priority, ProblemKey, PullHiPushLo, ThermalGuard,
};

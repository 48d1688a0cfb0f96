//! # gpm — Global CMP Power Management
//!
//! A from-scratch Rust reproduction of *“An Analysis of Efficient
//! Multi-Core Global Power Management Policies: Maximizing Performance for
//! a Given Power Budget”* (Isci, Buyuktosunoglu, Cher, Bose, Martonosi —
//! MICRO 2006): a global power manager that sets per-core DVFS modes
//! (Turbo / Eff1 / Eff2) every 500 µs so that a multi-core chip maximises
//! throughput while staying under a chip-wide power budget.
//!
//! This crate is the umbrella facade: it re-exports every workspace crate
//! under one name. See the member crates for the subsystems:
//!
//! * [`types`] — units, ids, power modes, time series.
//! * [`microarch`] — the out-of-order POWER4-class core timing model
//!   (caches, branch predictors, dataflow scoreboard).
//! * [`power`] — activity-based power model and the DVFS operating points.
//! * [`workloads`] — 12 synthetic SPEC CPU2000-class benchmarks and the
//!   paper's Table 2 combinations.
//! * [`trace`] — per-mode trace capture (the paper's methodology).
//! * [`cmp`] — the trace-driven CMP simulator plus the full shared-L2
//!   validation simulator.
//! * [`core`] — the global manager, the Power/BIPS matrices, and the
//!   policies: MaxBIPS, Priority, PullHiPushLo, ChipWide, Oracle, greedy.
//! * [`faults`] — seeded fault injection at the sensor/actuator seam and
//!   the guard rails hardening the manager against it.
//! * [`net`] — the fleet decision service: binary wire protocol,
//!   node-sharded server, loadgen client.
//! * [`experiments`] — drivers regenerating every table and figure.
//!
//! # Quickstart
//!
//! ```no_run
//! use gpm::core::{BudgetSchedule, GlobalManager, MaxBips};
//! use gpm::cmp::{SimParams, TraceCmpSim};
//! use gpm::trace::{CaptureConfig, TraceStore};
//! use gpm::workloads::combos;
//!
//! // 1. Capture per-mode traces for a 4-way workload (Table 2).
//! let store = TraceStore::new(CaptureConfig::default());
//! let traces = store.combo(&combos::ammp_mcf_crafty_art())?;
//!
//! // 2. Build the trace-driven CMP simulator (500 µs explore intervals).
//! let sim = TraceCmpSim::new(traces, SimParams::default())?;
//!
//! // 3. Run MaxBIPS under an 83% chip power budget.
//! let result = GlobalManager::new().run(
//!     sim,
//!     &mut MaxBips::new(),
//!     &BudgetSchedule::constant(0.83),
//! )?;
//! println!(
//!     "avg power {:.1} (budget utilisation {:.1}%), chip throughput {:.2}",
//!     result.average_chip_power(),
//!     result.budget_utilization() * 100.0,
//!     result.average_chip_bips(),
//! );
//! # Ok::<(), gpm::types::GpmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gpm_cmp as cmp;
pub use gpm_core as core;
pub use gpm_experiments as experiments;
pub use gpm_faults as faults;
pub use gpm_microarch as microarch;
pub use gpm_net as net;
pub use gpm_par as par;
pub use gpm_power as power;
pub use gpm_trace as trace;
pub use gpm_types as types;
pub use gpm_workloads as workloads;

/// The workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

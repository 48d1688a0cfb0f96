//! Deterministic fault injection for the global power manager.
//!
//! The paper's manager is a firmware loop that trusts per-core power
//! sensors and DVFS actuators completely; its own Figure 6 scenario is a
//! cooling failure, yet the controller it evaluates never sees a bad
//! reading. This crate models exactly the imperfections a deployed
//! manager must survive, as a seeded, schedule-driven [`FaultPlan`]
//! injected at a single seam between the simulator's observations and the
//! manager's control loop:
//!
//! * **sensor noise / bias** — multiplicative white noise or a fixed gain
//!   error on a core's power reading;
//! * **stale telemetry** — the sensor reports the reading from interval
//!   `N − k` instead of interval `N`;
//! * **sensor dropout** — the sensor goes dark and reads 0 W (a dead
//!   current sensor), tagged [`SensorStatus::Dark`] for guard-aware
//!   consumers;
//! * **stuck DVFS lanes** — mode-change requests for a core are silently
//!   ignored, or applied a fixed number of intervals late;
//! * **budget shocks** — Figure-6-style cooling-failure steps that cap the
//!   scheduled budget fraction over a window.
//!
//! Everything is deterministic: the same plan, seed and input stream
//! produce bit-identical perturbations regardless of worker-pool width,
//! because the seam lives on the manager's serial control path.
//!
//! # Examples
//!
//! ```
//! use gpm_faults::{FaultPlan, FaultSession, SensorFrame, SensorStatus};
//! use gpm_types::{Bips, PowerMode, Watts};
//!
//! let plan = FaultPlan::parse("dropout@1:from=2,to=4").unwrap();
//! let mut session = FaultSession::new(&plan, 2).unwrap();
//! let raw = vec![
//!     SensorFrame::fresh(0, PowerMode::Turbo, Watts::new(20.0), Bips::new(2.0), 1_000),
//!     SensorFrame::fresh(1, PowerMode::Turbo, Watts::new(12.0), Bips::new(0.5), 250),
//! ];
//! let seen = session.observe(2, &raw);
//! assert_eq!(seen[0].status, SensorStatus::Fresh);
//! assert_eq!(seen[1].status, SensorStatus::Dark);
//! assert_eq!(seen[1].power, Watts::ZERO); // dead sensor reads zero current
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fleet;
mod plan;
mod session;
mod spec;

pub use fleet::{
    CorruptField, FleetFaultClause, FleetFaultKind, FleetFaultPlan, FleetFaultSession, NodeSet,
    FLEET_DEFAULT_SEED,
};
pub use plan::{CoreSet, DvfsFault, FaultClause, FaultKind, FaultPlan, IntervalWindow};
pub use session::{FaultEvent, FaultEventKind, FaultSession, SensorFrame, SensorStatus};

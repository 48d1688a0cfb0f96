//! Shared vocabulary types for the `gpm` workspace.
//!
//! This crate defines the strongly-typed units ([`Watts`], [`Volts`],
//! [`Hertz`], [`Micros`], …), identifiers ([`CoreId`]), the per-core DVFS
//! operating modes ([`PowerMode`]), fixed-rate [`TimeSeries`] containers and
//! the workspace-wide error type [`GpmError`].
//!
//! Everything downstream — the core timing model, the power model, the CMP
//! simulators and the global power-management policies — speaks in these
//! types, which rules out entire classes of unit-confusion bugs (watts vs.
//! percent-of-budget, microseconds vs. cycles) at compile time.
//!
//! # Examples
//!
//! ```
//! use gpm_types::{PowerMode, Watts, Volts};
//!
//! let turbo = PowerMode::Turbo;
//! assert_eq!(turbo.frequency_scale(), 1.0);
//! assert!(PowerMode::Eff2.power_scale() < PowerMode::Eff1.power_scale());
//!
//! let chip = Watts::new(80.0);
//! let budget = chip * 0.83;
//! assert!(budget < chip);
//! let _v = Volts::new(1.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod ids;
mod mode;
mod quant;
mod series;
mod stats;
mod units;

pub use error::GpmError;
pub use ids::CoreId;
pub use mode::{Enumerate, ModeCombination, ModeOdometer, PowerMode, INLINE_MODES};
pub use quant::Fingerprinter;
pub use series::{Sample, TimeSeries};
pub use stats::SummaryStats;
pub use units::{Bips, Cycles, Hertz, Instructions, Joules, Micros, Seconds, Volts, Watts};

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, GpmError>;

/// The SplitMix64 finalizer: one round of the standard 64-bit avalanche
/// mix (golden-ratio increment, then two xor-shift-multiply steps). Every
/// seeded hash in the workspace — fleet node placement and fault draws —
/// goes through this one function.
///
/// # Examples
///
/// ```
/// // The first output of a SplitMix64 generator seeded with 0.
/// assert_eq!(gpm_types::splitmix64(0), 0xe220_a839_7b1d_cdaf);
/// ```
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

//! The policy interface and the paper's global management policies.

use gpm_power::DvfsParams;
use gpm_types::{Micros, ModeCombination, Watts};

use crate::PowerBipsMatrices;

mod cache;
mod chipwide;
mod constant;
mod greedy;
mod hier;
mod maxbips;
mod minpower;
mod oracle;
mod priority;
mod pullhipushlo;
pub mod solver;
mod thermal_guard;

pub(crate) use cache::ProblemRef;
pub use cache::{
    CacheConfig, CacheCounters, CacheSnapshot, CachedAnswer, CachedMaxBips, DecisionCache,
    ProblemKey,
};
pub use chipwide::ChipWide;
pub use constant::Constant;
pub use greedy::GreedyMaxBips;
pub use hier::{cluster_budgets, HierMaxBips};
pub use maxbips::MaxBips;
pub use minpower::MinPower;
pub use oracle::Oracle;
pub use priority::Priority;
pub use pullhipushlo::PullHiPushLo;
pub use thermal_guard::ThermalGuard;

/// Everything a policy sees when making a mode decision at an explore
/// boundary.
///
/// `matrices` is the *predictive* Power/BIPS matrix built from the last
/// interval's sensor observations (Section 5.5). `future` is populated only
/// for policies that declare [`Policy::needs_future`] — the oracle's
/// forward-looking matrices.
#[derive(Debug)]
pub struct PolicyContext<'a> {
    /// Modes the cores ran in during the last interval.
    pub current_modes: &'a ModeCombination,
    /// Predictive per-core Power/BIPS matrices.
    pub matrices: &'a PowerBipsMatrices,
    /// Oracle matrices (actual next-interval behaviour), if requested.
    pub future: Option<&'a PowerBipsMatrices>,
    /// The chip power budget in force for the next interval.
    pub budget: Watts,
    /// DVFS operating points (for transition-cost reasoning).
    pub dvfs: &'a DvfsParams,
    /// Length of the next explore interval.
    pub explore: Micros,
}

/// A global CMP power-management policy: decides the per-core mode
/// assignment for the next explore interval.
///
/// Implementations must be deterministic functions of the context (plus any
/// internal state they carry); the [`GlobalManager`](crate::GlobalManager)
/// invokes them once per explore boundary.
pub trait Policy {
    /// Short name used in reports ("MaxBIPS", "Priority", …).
    fn name(&self) -> &str;

    /// Whether the manager should supply oracle (future-knowledge)
    /// matrices. Only the upper-bound [`Oracle`] policy returns `true`.
    fn needs_future(&self) -> bool {
        false
    }

    /// Picks the mode combination for the next interval.
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> ModeCombination;

    /// Decision-cache counters, for policies that memoize
    /// ([`CachedMaxBips`]); `None` for plain policies. The manager copies
    /// these onto `RunResult` at the end of a run.
    fn cache_counters(&self) -> Option<CacheCounters> {
        None
    }
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn needs_future(&self) -> bool {
        (**self).needs_future()
    }
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> ModeCombination {
        (**self).decide(ctx)
    }
    fn cache_counters(&self) -> Option<CacheCounters> {
        (**self).cache_counters()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use gpm_cmp::CoreObservation;
    use gpm_types::{Bips, CoreId, PowerMode, Watts};

    use super::*;

    /// Context pieces with 'static lifetimes for policy unit tests.
    pub struct Fixture {
        pub matrices: PowerBipsMatrices,
        pub current: ModeCombination,
        pub dvfs: DvfsParams,
    }

    impl Fixture {
        /// Builds a fixture from per-core Turbo (power, bips) pairs, all
        /// cores currently at Turbo, with exact cubic/linear scaling.
        pub fn new(turbo: &[(f64, f64)]) -> Self {
            let observed: Vec<CoreObservation> = turbo
                .iter()
                .enumerate()
                .map(|(i, &(p, b))| CoreObservation {
                    core: CoreId::new(i),
                    mode: PowerMode::Turbo,
                    power: Watts::new(p),
                    bips: Bips::new(b),
                    instructions: 0,
                })
                .collect();
            Self {
                matrices: PowerBipsMatrices::predict(&observed),
                current: ModeCombination::uniform(turbo.len(), PowerMode::Turbo),
                dvfs: DvfsParams::paper(),
            }
        }

        pub fn ctx(&self, budget: f64) -> PolicyContext<'_> {
            PolicyContext {
                current_modes: &self.current,
                matrices: &self.matrices,
                future: None,
                budget: Watts::new(budget),
                dvfs: &self.dvfs,
                explore: Micros::new(500.0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::Fixture;
    use super::*;
    use gpm_types::{CoreId, PowerMode};

    #[test]
    fn solve_prefers_throughput() {
        // Core 0: hot and fast; core 1: cool and slow.
        let f = Fixture::new(&[(20.0, 2.0), (10.0, 0.4)]);
        // Generous budget: all Turbo.
        let combo = solver::solve(
            &f.matrices,
            &f.current,
            Watts::new(30.0),
            &f.dvfs,
            Micros::new(500.0),
        );
        assert!(combo.as_slice().iter().all(|&m| m == PowerMode::Turbo));

        // Tight budget: slowing the *slow* core saves power at almost no
        // BIPS cost, so core 1 is demoted first.
        let combo = solver::solve(
            &f.matrices,
            &f.current,
            Watts::new(27.0),
            &f.dvfs,
            Micros::new(500.0),
        );
        assert_eq!(combo.mode(CoreId::new(0)), PowerMode::Turbo);
        assert!(combo.mode(CoreId::new(1)) < PowerMode::Turbo);
    }

    #[test]
    fn solve_falls_back_to_all_eff2() {
        let f = Fixture::new(&[(20.0, 2.0)]);
        let combo = solver::solve(
            &f.matrices,
            &f.current,
            Watts::new(1.0),
            &f.dvfs,
            Micros::new(500.0),
        );
        assert!(combo.as_slice().iter().all(|&m| m == PowerMode::Eff2));
    }

    #[test]
    fn box_forwards_policy() {
        let mut boxed: Box<dyn Policy> = Box::new(MaxBips::new());
        assert_eq!(boxed.name(), "MaxBIPS");
        let f = Fixture::new(&[(20.0, 2.0)]);
        let combo = boxed.decide(&f.ctx(100.0));
        assert_eq!(combo.len(), 1);
    }
}

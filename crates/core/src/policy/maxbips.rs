//! The MaxBIPS policy (Section 5.2.3) — the paper's best performer.

use gpm_types::ModeCombination;

use super::{solver, Policy, PolicyContext};

/// MaxBIPS: predict the power and BIPS of **every** mode combination and
/// pick the highest-throughput one that satisfies the budget.
///
/// Predictions come from the Power/BIPS matrices (cubic power, linear BIPS
/// scaling of the last interval's observations) with the
/// `explore/(explore+t)` transition de-rating factors applied. The search
/// is the exhaustive 3^N enumeration the paper describes, answered by the
/// exact branch-and-bound [`solver::solve`]: the same combination and
/// tie-breaking as the scan at a small fraction of the candidates. Use
/// [`GreedyMaxBips`](crate::GreedyMaxBips) for large core counts.
///
/// MaxBIPS implicitly prioritises CPU-bound benchmarks (slowing them costs
/// the most BIPS), the inverse of
/// [`PullHiPushLo`](crate::PullHiPushLo)'s preference.
///
/// # Examples
///
/// ```
/// use gpm_core::{MaxBips, Policy};
///
/// let policy = MaxBips::new();
/// assert_eq!(policy.name(), "MaxBIPS");
/// assert!(!policy.needs_future());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxBips {
    _priv: (),
}

impl MaxBips {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for MaxBips {
    fn name(&self) -> &str {
        "MaxBIPS"
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> ModeCombination {
        solver::solve(
            ctx.matrices,
            ctx.current_modes,
            ctx.budget,
            ctx.dvfs,
            ctx.explore,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Fixture;
    use super::*;
    use gpm_types::{CoreId, PowerMode, Watts};

    #[test]
    fn picks_all_turbo_under_loose_budget() {
        let f = Fixture::new(&[(20.0, 2.0), (15.0, 1.5), (12.0, 0.5)]);
        let combo = MaxBips::new().decide(&f.ctx(60.0));
        assert!(combo.as_slice().iter().all(|&m| m == PowerMode::Turbo));
    }

    #[test]
    fn sacrifices_memory_bound_core_first() {
        // Tightening the budget should demote the low-BIPS (memory-bound)
        // core before the high-BIPS ones: MaxBIPS's implicit
        // CPU-boundedness priority.
        let f = Fixture::new(&[(20.0, 2.2), (20.0, 2.0), (16.0, 0.3)]);
        let all_turbo: f64 = 56.0;
        let combo = MaxBips::new().decide(&f.ctx(all_turbo - 2.2));
        assert_eq!(combo.mode(CoreId::new(0)), PowerMode::Turbo);
        assert_eq!(combo.mode(CoreId::new(1)), PowerMode::Turbo);
        assert!(combo.mode(CoreId::new(2)) < PowerMode::Turbo);
    }

    #[test]
    fn transition_costs_shape_the_choice() {
        // With a slightly tighter budget the single-Eff1 options no longer
        // fit; the search weighs a deep Eff2 transition (500/519.5 BIPS
        // de-rate) against two shallow Eff1 transitions (500/506.5) and may
        // legitimately prefer the latter.
        let f = Fixture::new(&[(20.0, 2.2), (20.0, 2.0), (16.0, 0.3)]);
        let combo = MaxBips::new().decide(&f.ctx(53.0));
        assert!(f.matrices.chip_power(&combo).value() <= 53.0);
        // Whatever it picked must beat the naive (T, T, Eff2) point after
        // de-rating.
        let naive = gpm_types::ModeCombination::new(vec![
            PowerMode::Turbo,
            PowerMode::Turbo,
            PowerMode::Eff2,
        ]);
        let explore = gpm_types::Micros::new(500.0);
        let picked = f
            .matrices
            .chip_bips_with_transition(&f.current, &combo, &f.dvfs, explore);
        let naive_bips = f
            .matrices
            .chip_bips_with_transition(&f.current, &naive, &f.dvfs, explore);
        assert!(picked.value() >= naive_bips.value() - 1e-12);
    }

    #[test]
    fn respects_budget_whenever_feasible() {
        let f = Fixture::new(&[(20.0, 2.0), (18.0, 1.8)]);
        for budget in [38.0, 36.0, 33.0, 30.0, 26.0, 24.0] {
            let combo = MaxBips::new().decide(&f.ctx(budget));
            let predicted = f.matrices.chip_power(&combo);
            let feasible = f
                .matrices
                .chip_power(&gpm_types::ModeCombination::uniform(2, PowerMode::Eff2));
            if feasible.value() <= budget {
                assert!(
                    predicted <= Watts::new(budget),
                    "budget {budget}: predicted {predicted}"
                );
            }
        }
    }

    #[test]
    fn throughput_is_monotone_in_budget() {
        let f = Fixture::new(&[(20.0, 2.0), (16.0, 1.2), (12.0, 0.4)]);
        let mut last = 0.0;
        for budget in [30.0, 34.0, 38.0, 42.0, 46.0, 50.0] {
            let combo = MaxBips::new().decide(&f.ctx(budget));
            let bips = f.matrices.chip_bips(&combo).value();
            assert!(bips + 1e-12 >= last, "budget {budget}: {bips} < {last}");
            last = bips;
        }
    }
}

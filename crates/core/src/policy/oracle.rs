//! The oracle upper bound (Section 5.6).

use gpm_types::ModeCombination;

use super::{solver, Policy, PolicyContext};

/// Oracle mode selection: MaxBIPS search over matrices built from **future
/// knowledge** — each core's actual power/BIPS over the next explore
/// interval in every mode, read from the traces.
///
/// This is the conservative oracle the paper compares against: it still
/// pays transition costs and still decides only at explore boundaries, but
/// its matrices have zero prediction error. MaxBIPS lands within 1% of it.
///
/// # Examples
///
/// ```
/// use gpm_core::{Oracle, Policy};
///
/// let oracle = Oracle::new();
/// assert!(oracle.needs_future());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Oracle {
    _priv: (),
}

impl Oracle {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for Oracle {
    fn name(&self) -> &str {
        "Oracle"
    }

    fn needs_future(&self) -> bool {
        true
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> ModeCombination {
        let matrices = ctx
            .future
            .expect("the manager supplies future matrices when needs_future() is true");
        solver::solve(
            matrices,
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
    use gpm_types::{Micros, PowerMode, Watts};

    #[test]
    fn uses_future_matrices() {
        let f = Fixture::new(&[(20.0, 2.0), (10.0, 0.4)]);
        let ctx = PolicyContext {
            current_modes: &f.current,
            matrices: &f.matrices,
            future: Some(&f.matrices),
            budget: Watts::new(27.0),
            dvfs: &f.dvfs,
            explore: Micros::new(500.0),
        };
        let combo = Oracle::new().decide(&ctx);
        // Same decision as MaxBIPS when prediction is perfect.
        let max_bips = super::super::MaxBips::new().decide(&f.ctx(27.0));
        assert_eq!(combo, max_bips);
        assert!(combo.as_slice().contains(&PowerMode::Turbo));
    }

    #[test]
    #[should_panic(expected = "future matrices")]
    fn panics_without_future() {
        let f = Fixture::new(&[(20.0, 2.0)]);
        let _ = Oracle::new().decide(&f.ctx(25.0));
    }
}

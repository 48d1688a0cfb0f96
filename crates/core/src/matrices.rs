//! The Power and BIPS matrices of Section 5.5.

use gpm_cmp::{CoreObservation, TraceCmpSim};
use gpm_power::DvfsParams;
use gpm_types::{Bips, CoreId, Micros, ModeCombination, PowerMode, Watts};

/// N×3 predictions of each core's power and throughput in every mode.
///
/// The predictive construction exploits the useful DVFS property the paper
/// leans on: with linear (V, f) scaling, a core's power in another mode is
/// the observed power rescaled cubically, and its throughput rescaled
/// linearly. For example a core observed in Eff1 with power `P1E1` and
/// throughput `B1E1` is predicted at
///
/// ```text
/// P1T  = P1E1 / 0.95³      B1T  = B1E1 / 0.95
/// P1E2 = P1T  · 0.85³      B1E2 = B1T  · 0.85
/// ```
///
/// These relations are known at design time, so the paper's controller
/// evaluates them in parallel in hardware; here they are a small dense
/// matrix.
///
/// # Examples
///
/// ```
/// use gpm_cmp::CoreObservation;
/// use gpm_core::PowerBipsMatrices;
/// use gpm_types::{Bips, CoreId, PowerMode, Watts};
///
/// let observed = [CoreObservation {
///     core: CoreId::new(0),
///     mode: PowerMode::Eff1,
///     power: Watts::new(17.15),
///     bips: Bips::new(1.9),
///     instructions: 0,
/// }];
/// let m = PowerBipsMatrices::predict(&observed);
/// let p_turbo = m.power(CoreId::new(0), PowerMode::Turbo);
/// assert!((p_turbo.value() - 17.15 / 0.857375).abs() < 1e-9);
/// let b_eff2 = m.bips(CoreId::new(0), PowerMode::Eff2);
/// assert!((b_eff2.value() - 1.9 / 0.95 * 0.85).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBipsMatrices {
    power: Vec<[f64; PowerMode::COUNT]>,
    bips: Vec<[f64; PowerMode::COUNT]>,
}

impl PowerBipsMatrices {
    /// Builds the matrices by scaling per-core observations (the
    /// predictive controller of Section 5.5).
    #[must_use]
    pub fn predict(observed: &[CoreObservation]) -> Self {
        let mut power = Vec::with_capacity(observed.len());
        let mut bips = Vec::with_capacity(observed.len());
        for obs in observed {
            let p_turbo = obs.power.value() / obs.mode.power_scale();
            let b_turbo = obs.bips.value() / obs.mode.bips_scale_bound();
            power.push(PowerMode::ALL.map(|m| p_turbo * m.power_scale()));
            bips.push(PowerMode::ALL.map(|m| b_turbo * m.bips_scale_bound()));
        }
        Self { power, bips }
    }

    /// Builds *oracle* matrices by reading each core's actual per-mode
    /// behaviour over the next explore interval from the traces
    /// (Section 5.6's upper bound; not available to a real controller).
    #[must_use]
    pub fn from_future(sim: &TraceCmpSim) -> Self {
        let cores = sim.cores();
        let mut power = Vec::with_capacity(cores);
        let mut bips = Vec::with_capacity(cores);
        for core in CoreId::all(cores) {
            let mut p_row = [0.0; PowerMode::COUNT];
            let mut b_row = [0.0; PowerMode::COUNT];
            for mode in PowerMode::ALL {
                let (b, p) = sim.peek_future(core, mode);
                p_row[mode.index()] = p.value();
                b_row[mode.index()] = b.value();
            }
            power.push(p_row);
            bips.push(b_row);
        }
        Self { power, bips }
    }

    /// Builds matrices from explicit rows (tests, custom controllers).
    ///
    /// # Panics
    ///
    /// Panics if the two matrices have different core counts.
    #[must_use]
    pub fn from_rows(
        power: Vec<[f64; PowerMode::COUNT]>,
        bips: Vec<[f64; PowerMode::COUNT]>,
    ) -> Self {
        assert_eq!(power.len(), bips.len(), "row count mismatch");
        Self { power, bips }
    }

    /// Number of cores covered.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.power.len()
    }

    /// Predicted power of `core` in `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn power(&self, core: CoreId, mode: PowerMode) -> Watts {
        Watts::new(self.power[core.value()][mode.index()])
    }

    /// Predicted throughput of `core` in `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn bips(&self, core: CoreId, mode: PowerMode) -> Bips {
        Bips::new(self.bips[core.value()][mode.index()])
    }

    /// The power matrix, one `[Turbo, Eff1, Eff2]` row per core.
    #[must_use]
    pub fn power_rows(&self) -> &[[f64; PowerMode::COUNT]] {
        &self.power
    }

    /// The BIPS matrix, one `[Turbo, Eff1, Eff2]` row per core.
    #[must_use]
    pub fn bips_rows(&self) -> &[[f64; PowerMode::COUNT]] {
        &self.bips
    }

    /// Whether every power and BIPS cell is finite and non-negative — the
    /// fleet engine's telemetry-validation fast path (one contiguous scan,
    /// no per-cell accessor indirection).
    #[must_use]
    pub fn cells_valid(&self) -> bool {
        let ok = |rows: &[[f64; PowerMode::COUNT]]| {
            rows.iter()
                .flatten()
                .all(|&cell| cell.is_finite() && cell >= 0.0)
        };
        ok(&self.power) && ok(&self.bips)
    }

    /// Predicted total chip power under a mode combination.
    #[must_use]
    pub fn chip_power(&self, combo: &ModeCombination) -> Watts {
        Watts::new(
            combo
                .iter()
                .map(|(core, mode)| self.power[core.value()][mode.index()])
                .sum(),
        )
    }

    /// Predicted total chip throughput under a mode combination, ignoring
    /// transition costs.
    #[must_use]
    pub fn chip_bips(&self, combo: &ModeCombination) -> Bips {
        Bips::new(
            combo
                .iter()
                .map(|(core, mode)| self.bips[core.value()][mode.index()])
                .sum(),
        )
    }

    /// Predicted chip throughput under `to`, de-rated by the GALS
    /// transition stall from `from` — the `500/507`-style scale factors of
    /// Section 5.5, generalised to the chip-wide worst-case transition the
    /// synchronised implementation pays.
    #[must_use]
    pub fn chip_bips_with_transition(
        &self,
        from: &ModeCombination,
        to: &ModeCombination,
        dvfs: &DvfsParams,
        explore: Micros,
    ) -> Bips {
        let stall = from
            .iter()
            .zip(to.iter())
            .map(|((_, a), (_, b))| dvfs.transition_time(a, b))
            .fold(Micros::ZERO, Micros::max);
        let factor = explore.value() / (explore.value() + stall.value());
        self.chip_bips(to) * factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(mode: PowerMode, power: f64, bips: f64) -> CoreObservation {
        CoreObservation {
            core: CoreId::new(0),
            mode,
            power: Watts::new(power),
            bips: Bips::new(bips),
            instructions: 0,
        }
    }

    #[test]
    fn predict_from_turbo_observation() {
        let m = PowerBipsMatrices::predict(&[obs(PowerMode::Turbo, 20.0, 2.0)]);
        assert!((m.power(CoreId::new(0), PowerMode::Eff1).value() - 20.0 * 0.857375).abs() < 1e-9);
        assert!((m.power(CoreId::new(0), PowerMode::Eff2).value() - 20.0 * 0.614125).abs() < 1e-9);
        assert!((m.bips(CoreId::new(0), PowerMode::Eff2).value() - 1.7).abs() < 1e-9);
    }

    #[test]
    fn predict_roundtrips_through_any_observed_mode() {
        // Observing the same core in different modes must yield the same
        // matrices (up to float noise) when behaviour is exactly cubic.
        let from_turbo = PowerBipsMatrices::predict(&[obs(PowerMode::Turbo, 20.0, 2.0)]);
        let from_eff2 =
            PowerBipsMatrices::predict(&[obs(PowerMode::Eff2, 20.0 * 0.614125, 2.0 * 0.85)]);
        for mode in PowerMode::ALL {
            let a = from_turbo.power(CoreId::new(0), mode).value();
            let b = from_eff2.power(CoreId::new(0), mode).value();
            assert!((a - b).abs() < 1e-9, "{mode}: {a} vs {b}");
        }
    }

    #[test]
    fn chip_aggregates() {
        let m = PowerBipsMatrices::from_rows(
            vec![[20.0, 17.0, 12.0], [10.0, 8.5, 6.0]],
            vec![[2.0, 1.9, 1.7], [0.5, 0.49, 0.47]],
        );
        let combo = ModeCombination::new(vec![PowerMode::Turbo, PowerMode::Eff2]);
        assert!((m.chip_power(&combo).value() - 26.0).abs() < 1e-12);
        assert!((m.chip_bips(&combo).value() - 2.47).abs() < 1e-12);
        assert_eq!(m.cores(), 2);
    }

    #[test]
    fn transition_derating_matches_paper_factors() {
        let m = PowerBipsMatrices::from_rows(vec![[1.0, 1.0, 1.0]], vec![[1.0, 0.95, 0.85]]);
        let dvfs = DvfsParams::paper();
        let explore = Micros::new(500.0);
        let turbo = ModeCombination::uniform(1, PowerMode::Turbo);
        let eff2 = ModeCombination::uniform(1, PowerMode::Eff2);
        let b = m.chip_bips_with_transition(&turbo, &eff2, &dvfs, explore);
        // B1E2 = B1T · 0.85 · 500/519.5 (the paper rounds to 500/520).
        assert!((b.value() - 0.85 * 500.0 / 519.5).abs() < 1e-9);
        // No transition → no derating.
        let same = m.chip_bips_with_transition(&eff2, &eff2, &dvfs, explore);
        assert!((same.value() - 0.85).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn from_rows_validates() {
        let _ = PowerBipsMatrices::from_rows(vec![[0.0; 3]], vec![]);
    }
}

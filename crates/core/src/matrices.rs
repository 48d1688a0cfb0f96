//! The Power and BIPS matrices of Section 5.5.

use std::fmt;

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
///
/// The two matrices live in one allocation — the power rows, then the
/// BIPS rows — and the type is immutable, so every constructor checks the
/// cells once while they are hot and [`cells_valid`](Self::cells_valid)
/// returns the stored answer.
#[derive(Clone, PartialEq)]
pub struct PowerBipsMatrices {
    /// `cores` power rows followed by `cores` BIPS rows.
    rows: Vec<[f64; PowerMode::COUNT]>,
    /// Whether every cell is finite and non-negative.
    valid: bool,
}

impl fmt::Debug for PowerBipsMatrices {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PowerBipsMatrices")
            .field("power", &self.power_rows())
            .field("bips", &self.bips_rows())
            .finish()
    }
}

impl PowerBipsMatrices {
    /// Builds the matrices by scaling per-core observations (the
    /// predictive controller of Section 5.5).
    #[must_use]
    pub fn predict(observed: &[CoreObservation]) -> Self {
        let mut rows = Vec::with_capacity(2 * observed.len());
        rows.extend(observed.iter().map(|obs| {
            let p_turbo = obs.power.value() / obs.mode.power_scale();
            PowerMode::ALL.map(|m| p_turbo * m.power_scale())
        }));
        rows.extend(observed.iter().map(|obs| {
            let b_turbo = obs.bips.value() / obs.mode.bips_scale_bound();
            PowerMode::ALL.map(|m| b_turbo * m.bips_scale_bound())
        }));
        Self::from_stacked_rows(rows)
    }

    /// Builds *oracle* matrices by reading each core's actual per-mode
    /// behaviour over the next explore interval from the traces
    /// (Section 5.6's upper bound; not available to a real controller).
    #[must_use]
    pub fn from_future(sim: &TraceCmpSim) -> Self {
        let cores = sim.cores();
        let mut rows = vec![[0.0; PowerMode::COUNT]; 2 * cores];
        for core in CoreId::all(cores) {
            for mode in PowerMode::ALL {
                let (b, p) = sim.peek_future(core, mode);
                rows[core.value()][mode.index()] = p.value();
                rows[cores + core.value()][mode.index()] = b.value();
            }
        }
        Self::from_stacked_rows(rows)
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
        let mut rows = power;
        rows.extend_from_slice(&bips);
        Self::from_stacked_rows(rows)
    }

    /// Builds matrices from one vector holding the power rows followed by
    /// the BIPS rows (the wire decoder's layout), taking it as storage.
    ///
    /// # Panics
    ///
    /// Panics if `rows` has an odd length.
    #[must_use]
    pub fn from_stacked_rows(rows: Vec<[f64; PowerMode::COUNT]>) -> Self {
        assert!(
            rows.len().is_multiple_of(2),
            "stacked row count {} is odd",
            rows.len()
        );
        // One branch-free pass: `0 <= cell < inf` is false for NaN, both
        // infinities and negative cells, true for -0.0 and subnormals.
        let valid = rows
            .iter()
            .flatten()
            .fold(true, |ok, &cell| ok & (0.0..f64::INFINITY).contains(&cell));
        Self { rows, valid }
    }

    /// Number of cores covered.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.rows.len() / 2
    }

    /// Predicted power of `core` in `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn power(&self, core: CoreId, mode: PowerMode) -> Watts {
        Watts::new(self.power_rows()[core.value()][mode.index()])
    }

    /// Predicted throughput of `core` in `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn bips(&self, core: CoreId, mode: PowerMode) -> Bips {
        Bips::new(self.bips_rows()[core.value()][mode.index()])
    }

    /// The power matrix, one `[Turbo, Eff1, Eff2]` row per core.
    #[must_use]
    pub fn power_rows(&self) -> &[[f64; PowerMode::COUNT]] {
        &self.rows[..self.cores()]
    }

    /// The BIPS matrix, one `[Turbo, Eff1, Eff2]` row per core.
    #[must_use]
    pub fn bips_rows(&self) -> &[[f64; PowerMode::COUNT]] {
        &self.rows[self.cores()..]
    }

    /// Whether every power and BIPS cell is finite and non-negative — the
    /// fleet engine's telemetry validation. Computed once at
    /// construction, so this reads no cell.
    #[must_use]
    pub fn cells_valid(&self) -> bool {
        self.valid
    }

    /// Predicted total chip power under a mode combination.
    #[must_use]
    pub fn chip_power(&self, combo: &ModeCombination) -> Watts {
        let power = self.power_rows();
        Watts::new(
            combo
                .iter()
                .map(|(core, mode)| power[core.value()][mode.index()])
                .sum(),
        )
    }

    /// Predicted total chip throughput under a mode combination, ignoring
    /// transition costs.
    #[must_use]
    pub fn chip_bips(&self, combo: &ModeCombination) -> Bips {
        let bips = self.bips_rows();
        Bips::new(
            combo
                .iter()
                .map(|(core, mode)| bips[core.value()][mode.index()])
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
    use std::sync::Arc;

    use gpm_cmp::SimParams;
    use gpm_trace::{BenchmarkTraces, ModeTrace, TraceSample};
    use proptest::prelude::*;

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

    /// A cell drawn mostly from `[0, 100)`, with NaN, both infinities,
    /// -0.0, positive and negative subnormals and negative values mixed in.
    fn cell() -> impl Strategy<Value = f64> {
        (0u32..48, 0.0f64..100.0).prop_map(|(kind, x)| match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::MIN_POSITIVE * x / 200.0,
            5 => -f64::MIN_POSITIVE / 4.0,
            6 => -x - 1e-3,
            _ => x,
        })
    }

    /// Stacked rows for 1 to 6 cores.
    fn stacked_rows() -> impl Strategy<Value = Vec<[f64; PowerMode::COUNT]>> {
        (
            1usize..=6,
            prop::collection::vec((cell(), cell(), cell()), 12),
        )
            .prop_map(|(cores, rows)| {
                rows.into_iter()
                    .take(2 * cores)
                    .map(|(a, b, c)| [a, b, c])
                    .collect()
            })
    }

    /// The reference check: every cell of both matrices, scanned afresh.
    fn scan(m: &PowerBipsMatrices) -> bool {
        (0..m.cores()).all(|core| {
            PowerMode::ALL.iter().all(|&mode| {
                let id = CoreId::new(core);
                let (p, b) = (m.power(id, mode).value(), m.bips(id, mode).value());
                p.is_finite() && p >= 0.0 && b.is_finite() && b >= 0.0
            })
        })
    }

    /// A one-sample trace set whose every mode reports `power` watts at
    /// `bips` BIPS.
    fn flat_traces(power: f64, bips: f64) -> Arc<BenchmarkTraces> {
        let traces = PowerMode::ALL
            .map(|mode| {
                let sample = TraceSample {
                    instructions_end: 1_000_000,
                    power_w: power,
                    bips,
                };
                ModeTrace::new(mode, Micros::new(50.0), vec![sample])
            })
            .to_vec();
        Arc::new(BenchmarkTraces::new("flat", 1_000_000, traces).expect("one trace per mode"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn stored_validity_matches_a_fresh_scan(rows in stacked_rows()) {
            let cores = rows.len() / 2;
            let (power, bips) = rows.split_at(cores);

            let stacked = PowerBipsMatrices::from_stacked_rows(rows.clone());
            prop_assert_eq!(stacked.cells_valid(), scan(&stacked));
            let split = PowerBipsMatrices::from_rows(power.to_vec(), bips.to_vec());
            let bits = |m: &PowerBipsMatrices| -> Vec<u64> {
                let rows = m.power_rows().iter().chain(m.bips_rows());
                rows.flatten().map(|cell| cell.to_bits()).collect()
            };
            prop_assert_eq!(bits(&split), bits(&stacked));
            prop_assert_eq!(split.cells_valid(), scan(&split));

            let observed: Vec<CoreObservation> = power
                .iter()
                .zip(bips)
                .enumerate()
                .map(|(core, (p, b))| CoreObservation {
                    core: CoreId::new(core),
                    mode: PowerMode::ALL[core % 3],
                    power: Watts::new(p[0]),
                    bips: Bips::new(b[1]),
                    instructions: 0,
                })
                .collect();
            let predicted = PowerBipsMatrices::predict(&observed);
            prop_assert_eq!(predicted.cells_valid(), scan(&predicted));

            let traces = power.iter().zip(bips).map(|(p, b)| flat_traces(p[2], b[0])).collect();
            let sim = TraceCmpSim::new(traces, SimParams::default()).expect("sim builds");
            let future = PowerBipsMatrices::from_future(&sim);
            prop_assert_eq!(future.cells_valid(), scan(&future));
        }
    }
}

//! Per-core DVFS operating modes.
//!
//! The paper deliberately limits each core to three modes (Section 4): the
//! global manager's state space grows linearly and its exploration space
//! superlinearly in the number of modes, and contemporary CMP server parts
//! (Sossaman, Woodcrest) exposed a similarly small number of global (V, f)
//! levels.

use std::fmt;
use std::hash::{Hash, Hasher};

use serde::json::{Error as JsonError, Value};
use serde::{Deserialize, Serialize};

/// A per-core DVFS power mode under the paper's linear-scaling scenario.
///
/// | Mode  | (V, f) scale | Dynamic-power scale (cubic) | Target (Table 3)      |
/// |-------|--------------|------------------------------|-----------------------|
/// | Turbo | 1.00         | 1.000                        | baseline              |
/// | Eff1  | 0.95         | 0.857                        | −15% power, −5% perf  |
/// | Eff2  | 0.85         | 0.614                        | −45% power, −15% perf |
///
/// The derived `Ord` ranks modes by performance: `Eff2 < Eff1 < Turbo`.
///
/// # Examples
///
/// ```
/// use gpm_types::PowerMode;
///
/// assert!(PowerMode::Eff2 < PowerMode::Turbo);
/// assert_eq!(PowerMode::Turbo.slower(), Some(PowerMode::Eff1));
/// assert_eq!(PowerMode::Eff2.slower(), None);
/// let cubic = PowerMode::Eff1.power_scale();
/// assert!((cubic - 0.95f64.powi(3)).abs() < 1e-12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum PowerMode {
    /// High power saving, relatively significant performance degradation
    /// (85% V, 85% f).
    Eff2,
    /// Medium power savings with minimal performance degradation
    /// (95% V, 95% f).
    Eff1,
    /// Full-throttle execution at nominal voltage and frequency.
    #[default]
    Turbo,
}

impl PowerMode {
    /// All modes, fastest first.
    pub const ALL: [PowerMode; 3] = [PowerMode::Turbo, PowerMode::Eff1, PowerMode::Eff2];

    /// Number of distinct modes.
    pub const COUNT: usize = 3;

    /// Dense index: Turbo = 0, Eff1 = 1, Eff2 = 2 (fastest first, matching
    /// the paper's Power/BIPS matrix columns).
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            PowerMode::Turbo => 0,
            PowerMode::Eff1 => 1,
            PowerMode::Eff2 => 2,
        }
    }

    /// Inverse of [`PowerMode::index`].
    ///
    /// Returns `None` for indices ≥ 3.
    #[must_use]
    pub const fn from_index(index: usize) -> Option<Self> {
        match index {
            0 => Some(PowerMode::Turbo),
            1 => Some(PowerMode::Eff1),
            2 => Some(PowerMode::Eff2),
            _ => None,
        }
    }

    /// The linear voltage *and* frequency scale of this mode relative to
    /// Turbo (Section 4's linear DVFS scenario).
    #[must_use]
    pub const fn frequency_scale(self) -> f64 {
        match self {
            PowerMode::Turbo => 1.0,
            PowerMode::Eff1 => 0.95,
            PowerMode::Eff2 => 0.85,
        }
    }

    /// The voltage scale relative to Turbo. Identical to
    /// [`frequency_scale`](Self::frequency_scale) under linear DVFS.
    #[must_use]
    pub const fn voltage_scale(self) -> f64 {
        self.frequency_scale()
    }

    /// Cubic dynamic-power scale `(V/V₀)² · (f/f₀) = s³` relative to Turbo.
    #[must_use]
    pub fn power_scale(self) -> f64 {
        let s = self.frequency_scale();
        s * s * s
    }

    /// Upper-bound BIPS scale (linear in frequency) relative to Turbo.
    ///
    /// Actual performance is better for memory-bound workloads because
    /// asynchronous memory latencies do not scale with DVFS.
    #[must_use]
    pub const fn bips_scale_bound(self) -> f64 {
        self.frequency_scale()
    }

    /// The next faster mode, or `None` if already at Turbo.
    #[must_use]
    pub const fn faster(self) -> Option<Self> {
        match self {
            PowerMode::Turbo => None,
            PowerMode::Eff1 => Some(PowerMode::Turbo),
            PowerMode::Eff2 => Some(PowerMode::Eff1),
        }
    }

    /// The next slower mode, or `None` if already at Eff2.
    #[must_use]
    pub const fn slower(self) -> Option<Self> {
        match self {
            PowerMode::Turbo => Some(PowerMode::Eff1),
            PowerMode::Eff1 => Some(PowerMode::Eff2),
            PowerMode::Eff2 => None,
        }
    }

    /// Absolute voltage-scale distance between two modes, as a fraction of
    /// nominal Vdd. Used to compute DVFS transition times (Table 5).
    #[must_use]
    pub fn voltage_distance(self, other: Self) -> f64 {
        (self.voltage_scale() - other.voltage_scale()).abs()
    }
}

impl fmt::Display for PowerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PowerMode::Turbo => "Turbo",
            PowerMode::Eff1 => "Eff1",
            PowerMode::Eff2 => "Eff2",
        };
        f.write_str(s)
    }
}

/// How many modes a [`ModeCombination`] holds without a heap allocation.
///
/// 38 one-byte modes plus the length byte and the representation tag
/// fill the 40 bytes a heap `Vec` arm needs anyway, and cover every chip
/// up to the fleet's 32-way nodes.
pub const INLINE_MODES: usize = 38;

/// An assignment of one [`PowerMode`] per core — one point in the global
/// manager's 3^N search space.
///
/// Up to [`INLINE_MODES`] modes are stored inline; only wider chips keep
/// a heap `Vec`. So building, cloning or decoding a combination of at
/// most that many cores allocates nothing, and `clone_from` between two
/// wide combinations reuses the destination's allocation. Equality,
/// hashing, `Debug`, `Display` and serde see only the mode slice: two
/// equal slices compare and hash equal whatever their storage, and the
/// JSON form is `{"modes":[...]}`.
///
/// # Examples
///
/// ```
/// use gpm_types::{ModeCombination, PowerMode};
///
/// let all_turbo = ModeCombination::uniform(4, PowerMode::Turbo);
/// assert_eq!(all_turbo.len(), 4);
/// assert!(all_turbo.is_uniform());
///
/// let mut c = all_turbo.clone();
/// c.set(gpm_types::CoreId::new(2), PowerMode::Eff2);
/// assert!(!c.is_uniform());
/// assert_eq!(ModeCombination::enumerate(2).count(), 9);
/// ```
pub struct ModeCombination {
    repr: Repr,
}

/// The storage behind a [`ModeCombination`]: inline exactly when the
/// length is at most [`INLINE_MODES`]. No operation changes a
/// combination's length, so the rule holds for its whole life.
#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        modes: [PowerMode; INLINE_MODES],
    },
    Heap(Vec<PowerMode>),
}

const _: () = assert!(std::mem::size_of::<ModeCombination>() <= 40);

impl Clone for ModeCombination {
    fn clone(&self) -> Self {
        Self {
            repr: self.repr.clone(),
        }
    }

    /// Reuses the destination's allocation when both sides are heap
    /// combinations; an inline source is a plain copy.
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.repr, &source.repr) {
            (Repr::Heap(dst), Repr::Heap(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl PartialEq for ModeCombination {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ModeCombination {}

impl Hash for ModeCombination {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for ModeCombination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModeCombination")
            .field("modes", &self.as_slice())
            .finish()
    }
}

impl Serialize for ModeCombination {
    fn to_value(&self) -> Value {
        let modes = self.as_slice().iter().map(Serialize::to_value).collect();
        Value::Object(vec![("modes".to_owned(), Value::Array(modes))])
    }
}

impl Deserialize for ModeCombination {
    fn from_value(value: &Value) -> Result<Self, JsonError> {
        Ok(Self::new(Deserialize::from_value(value.field("modes")?)?))
    }
}

impl ModeCombination {
    /// Creates a combination from explicit per-core modes. A vector of at
    /// most [`INLINE_MODES`] modes is copied inline and freed.
    #[must_use]
    pub fn new(modes: Vec<PowerMode>) -> Self {
        if modes.len() <= INLINE_MODES {
            Self::from_slice(&modes)
        } else {
            Self {
                repr: Repr::Heap(modes),
            }
        }
    }

    /// Creates a combination holding a copy of `modes`.
    #[must_use]
    pub fn from_slice(modes: &[PowerMode]) -> Self {
        let repr = if modes.len() <= INLINE_MODES {
            let mut inline = [PowerMode::Turbo; INLINE_MODES];
            inline[..modes.len()].copy_from_slice(modes);
            Repr::Inline {
                len: modes.len() as u8,
                modes: inline,
            }
        } else {
            Repr::Heap(modes.to_vec())
        };
        Self { repr }
    }

    /// Creates a combination with every core in the same `mode`.
    #[must_use]
    pub fn uniform(cores: usize, mode: PowerMode) -> Self {
        let repr = if cores <= INLINE_MODES {
            Repr::Inline {
                len: cores as u8,
                modes: [mode; INLINE_MODES],
            }
        } else {
            Repr::Heap(vec![mode; cores])
        };
        Self { repr }
    }

    /// Number of cores covered by this combination.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` if the combination covers no cores.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mode of core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn mode(&self, core: crate::CoreId) -> PowerMode {
        self.as_slice()[core.value()]
    }

    /// Sets the mode of core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set(&mut self, core: crate::CoreId, mode: PowerMode) {
        self.as_mut_slice()[core.value()] = mode;
    }

    /// Per-core modes as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[PowerMode] {
        match &self.repr {
            Repr::Inline { len, modes } => &modes[..usize::from(*len)],
            Repr::Heap(modes) => modes,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [PowerMode] {
        match &mut self.repr {
            Repr::Inline { len, modes } => &mut modes[..usize::from(*len)],
            Repr::Heap(modes) => modes,
        }
    }

    /// Iterates over `(CoreId, PowerMode)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (crate::CoreId, PowerMode)> + '_ {
        self.as_slice()
            .iter()
            .enumerate()
            .map(|(i, &m)| (crate::CoreId::new(i), m))
    }

    /// Returns `true` if all cores share the same mode (the chip-wide DVFS
    /// special case).
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        self.as_slice().windows(2).all(|w| w[0] == w[1])
    }

    /// Enumerates all `3^cores` combinations in lexicographic order
    /// (core 0 varies slowest; Turbo before Eff1 before Eff2).
    ///
    /// This is the exhaustive search space of the MaxBIPS policy. The
    /// iterator is lazy, so callers can prune early. Each yielded item is
    /// an owned combination (a heap allocation above [`INLINE_MODES`]
    /// cores); exhaustive hot loops should drive a [`ModeOdometer`] in
    /// place instead and clone only the combinations they keep.
    pub fn enumerate(cores: usize) -> Enumerate {
        let total = 3usize.checked_pow(cores as u32).expect("3^cores overflow");
        Enumerate {
            odometer: ModeOdometer::new(cores),
            remaining: total,
        }
    }

    /// Decodes the `rank`-th combination of `cores` cores in the
    /// [`enumerate`](Self::enumerate) order.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= 3^cores`.
    #[must_use]
    pub fn from_rank(cores: usize, rank: usize) -> Self {
        let total = 3usize.pow(cores as u32);
        assert!(rank < total, "rank {rank} out of range for {cores} cores");
        let mut combo = Self::uniform(cores, PowerMode::Turbo);
        let mut r = rank;
        for mode in combo.as_mut_slice().iter_mut().rev() {
            *mode = PowerMode::from_index(r % 3).expect("index < 3");
            r /= 3;
        }
        combo
    }
}

impl fmt::Display for ModeCombination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, m) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<PowerMode> for ModeCombination {
    /// Fills the inline array and spills to the heap only past
    /// [`INLINE_MODES`] items.
    fn from_iter<T: IntoIterator<Item = PowerMode>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        let mut modes = [PowerMode::Turbo; INLINE_MODES];
        let mut len = 0;
        while let Some(mode) = iter.next() {
            if len == INLINE_MODES {
                let mut spilled = Vec::with_capacity(INLINE_MODES + 1 + iter.size_hint().0);
                spilled.extend_from_slice(&modes);
                spilled.push(mode);
                spilled.extend(iter);
                return Self {
                    repr: Repr::Heap(spilled),
                };
            }
            modes[len] = mode;
            len += 1;
        }
        Self {
            repr: Repr::Inline {
                len: len as u8,
                modes,
            },
        }
    }
}

/// In-place enumeration cursor over the `3^cores` combination space in
/// [`ModeCombination::enumerate`] order (core 0 is the most significant
/// base-3 digit; Turbo < Eff1 < Eff2 per digit).
///
/// Unlike [`Enumerate`], advancing the odometer performs no heap
/// allocation: the exhaustive policy scans walk the space with
/// [`advance`](Self::advance) and clone [`current`](Self::current) only
/// when a candidate becomes the new best. Chunked scans seed mid-space
/// cursors with [`from_rank`](Self::from_rank).
///
/// ```
/// use gpm_types::{ModeCombination, ModeOdometer};
///
/// let mut odo = ModeOdometer::new(2);
/// let mut seen = Vec::new();
/// loop {
///     seen.push(odo.current().clone());
///     if !odo.advance() {
///         break;
///     }
/// }
/// let all: Vec<ModeCombination> = ModeCombination::enumerate(2).collect();
/// assert_eq!(seen, all);
/// ```
#[derive(Debug, Clone)]
pub struct ModeOdometer {
    combo: ModeCombination,
}

impl ModeOdometer {
    /// Positions the cursor at rank 0 (all-Turbo).
    #[must_use]
    pub fn new(cores: usize) -> Self {
        Self {
            combo: ModeCombination::uniform(cores, PowerMode::Turbo),
        }
    }

    /// Positions the cursor at `rank` in enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= 3^cores`.
    #[must_use]
    pub fn from_rank(cores: usize, rank: usize) -> Self {
        Self {
            combo: ModeCombination::from_rank(cores, rank),
        }
    }

    /// The combination the cursor currently points at.
    #[must_use]
    pub fn current(&self) -> &ModeCombination {
        &self.combo
    }

    /// Steps to the next combination in enumeration order.
    ///
    /// Returns `false` once the cursor wraps past the last combination
    /// (all-Eff2) back to all-Turbo, i.e. when the space is exhausted.
    pub fn advance(&mut self) -> bool {
        for digit in self.combo.as_mut_slice().iter_mut().rev() {
            match digit.slower() {
                Some(next) => {
                    *digit = next;
                    return true;
                }
                None => *digit = PowerMode::Turbo,
            }
        }
        false
    }
}

/// Iterator over all mode combinations; see [`ModeCombination::enumerate`].
#[derive(Debug, Clone)]
pub struct Enumerate {
    odometer: ModeOdometer,
    remaining: usize,
}

impl Iterator for Enumerate {
    type Item = ModeCombination;

    fn next(&mut self) -> Option<ModeCombination> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let combo = self.odometer.current().clone();
        self.odometer.advance();
        Some(combo)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Enumerate {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreId;

    #[test]
    fn mode_ordering_is_by_performance() {
        assert!(PowerMode::Eff2 < PowerMode::Eff1);
        assert!(PowerMode::Eff1 < PowerMode::Turbo);
    }

    #[test]
    fn index_roundtrip() {
        for m in PowerMode::ALL {
            assert_eq!(PowerMode::from_index(m.index()), Some(m));
        }
        assert_eq!(PowerMode::from_index(3), None);
    }

    #[test]
    fn scales_match_paper_table4() {
        // Table 4: Eff1 ~14.3% dynamic power saving, Eff2 ~38.6%.
        assert!((PowerMode::Eff1.power_scale() - 0.857_375).abs() < 1e-6);
        assert!((PowerMode::Eff2.power_scale() - 0.614_125).abs() < 1e-6);
        assert_eq!(PowerMode::Turbo.power_scale(), 1.0);
        assert_eq!(PowerMode::Eff1.bips_scale_bound(), 0.95);
    }

    #[test]
    fn faster_slower_chain() {
        assert_eq!(PowerMode::Turbo.faster(), None);
        assert_eq!(PowerMode::Eff2.slower(), None);
        assert_eq!(PowerMode::Eff1.faster(), Some(PowerMode::Turbo));
        assert_eq!(PowerMode::Eff1.slower(), Some(PowerMode::Eff2));
    }

    #[test]
    fn voltage_distance_matches_table5() {
        // Table 5 at Vdd = 1.3 V: 65 mV, 130 mV, 195 mV.
        let vdd = 1.3;
        let d1 = PowerMode::Turbo.voltage_distance(PowerMode::Eff1) * vdd;
        let d2 = PowerMode::Eff1.voltage_distance(PowerMode::Eff2) * vdd;
        let d3 = PowerMode::Turbo.voltage_distance(PowerMode::Eff2) * vdd;
        assert!((d1 - 0.065).abs() < 1e-9);
        assert!((d2 - 0.130).abs() < 1e-9);
        assert!((d3 - 0.195).abs() < 1e-9);
    }

    #[test]
    fn enumerate_counts_and_order() {
        let combos: Vec<_> = ModeCombination::enumerate(2).collect();
        assert_eq!(combos.len(), 9);
        // First is all-Turbo, last is all-Eff2.
        assert!(combos[0].as_slice().iter().all(|&m| m == PowerMode::Turbo));
        assert!(combos[8].as_slice().iter().all(|&m| m == PowerMode::Eff2));
        // Core 1 varies fastest.
        assert_eq!(combos[1].as_slice(), &[PowerMode::Turbo, PowerMode::Eff1]);
        // All distinct.
        let mut unique = combos.clone();
        unique.sort_by_key(|c| c.as_slice().iter().map(|m| m.index()).collect::<Vec<_>>());
        unique.dedup();
        assert_eq!(unique.len(), 9);
    }

    #[test]
    fn enumerate_size_hint() {
        let mut it = ModeCombination::enumerate(3);
        assert_eq!(it.len(), 27);
        it.next();
        assert_eq!(it.len(), 26);
    }

    #[test]
    fn odometer_matches_enumerate_order() {
        for cores in 0..=4 {
            let expected: Vec<_> = ModeCombination::enumerate(cores).collect();
            let mut odo = ModeOdometer::new(cores);
            let mut seen = Vec::new();
            loop {
                seen.push(odo.current().clone());
                if !odo.advance() {
                    break;
                }
            }
            // A zero-core odometer holds the single empty combination.
            assert_eq!(seen.len(), expected.len().max(1));
            assert_eq!(&seen[..expected.len()], &expected[..]);
        }
    }

    #[test]
    fn odometer_seeds_from_rank() {
        let total = 3usize.pow(3);
        for start in [0, 1, 13, total - 1] {
            let mut odo = ModeOdometer::from_rank(3, start);
            for rank in start..total {
                assert_eq!(odo.current(), &ModeCombination::from_rank(3, rank));
                let advanced = odo.advance();
                assert_eq!(advanced, rank + 1 < total);
            }
        }
    }

    #[test]
    fn odometer_exhaustion_wraps_to_all_turbo() {
        let mut odo = ModeOdometer::from_rank(2, 8);
        assert!(!odo.advance());
        assert!(odo
            .current()
            .as_slice()
            .iter()
            .all(|&m| m == PowerMode::Turbo));
    }

    #[test]
    fn uniform_detection() {
        let mut c = ModeCombination::uniform(4, PowerMode::Eff1);
        assert!(c.is_uniform());
        c.set(CoreId::new(3), PowerMode::Turbo);
        assert!(!c.is_uniform());
        assert_eq!(c.mode(CoreId::new(3)), PowerMode::Turbo);
    }

    #[test]
    fn from_rank_matches_enumerate() {
        for (rank, combo) in ModeCombination::enumerate(3).enumerate() {
            assert_eq!(ModeCombination::from_rank(3, rank), combo);
        }
    }

    #[test]
    fn display_formats() {
        let c = ModeCombination::new(vec![PowerMode::Turbo, PowerMode::Eff2]);
        assert_eq!(c.to_string(), "[Turbo, Eff2]");
        assert_eq!(PowerMode::Eff1.to_string(), "Eff1");
    }

    #[test]
    fn collect_from_iterator() {
        let c: ModeCombination = [PowerMode::Eff1, PowerMode::Eff1].into_iter().collect();
        assert!(c.is_uniform());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn empty_combination() {
        let c = ModeCombination::new(vec![]);
        assert!(c.is_empty());
        assert!(c.is_uniform());
    }

    /// The derived layout `ModeCombination` had as a plain `Vec` wrapper:
    /// the reference for its `Debug`, `Hash` and serde forms.
    mod derived {
        use super::PowerMode;
        use serde::{Deserialize, Serialize};

        #[derive(Debug, Hash, Serialize, Deserialize)]
        pub struct ModeCombination {
            pub modes: Vec<PowerMode>,
        }
    }

    fn is_inline(combo: &ModeCombination) -> bool {
        matches!(combo.repr, Repr::Inline { .. })
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    const WIDTHS: [usize; 8] = [0, 1, 32, 33, INLINE_MODES, INLINE_MODES + 1, 64, 256];

    fn pattern(width: usize, salt: usize) -> Vec<PowerMode> {
        (0..width)
            .map(|i| PowerMode::ALL[(i * 7 + salt) % 3])
            .collect()
    }

    #[test]
    fn representation_boundary_keeps_slice_semantics() {
        for width in WIDTHS {
            let modes = pattern(width, 1);
            let collected: ModeCombination = modes.iter().copied().collect();
            let built = [
                ModeCombination::new(modes.clone()),
                ModeCombination::from_slice(&modes),
                collected.clone(),
            ];
            let old = derived::ModeCombination {
                modes: modes.clone(),
            };
            for combo in &built {
                assert_eq!(is_inline(combo), width <= INLINE_MODES, "width {width}");
                assert_eq!(combo.as_slice(), &modes[..]);
                assert_eq!(combo, &collected);
                assert_eq!(hash_of(combo), hash_of(&old));
                assert_eq!(format!("{combo:?}"), format!("{old:?}"));
                let json = serde_json::to_string(combo).expect("combination serialises");
                assert_eq!(json, serde_json::to_string(&old).expect("vec serialises"));
                let back: ModeCombination = serde_json::from_str(&json).expect("json parses");
                assert_eq!(&back, combo);
                assert_eq!(is_inline(&back), width <= INLINE_MODES);
            }
            assert_ne!(
                hash_of(&collected),
                hash_of(&ModeCombination::new(pattern(width + 1, 1)))
            );
        }
        let two = ModeCombination::new(vec![PowerMode::Turbo, PowerMode::Eff1]);
        assert_eq!(
            serde_json::to_string(&two).expect("combination serialises"),
            r#"{"modes":["Turbo","Eff1"]}"#
        );
    }

    #[test]
    fn set_and_mode_match_a_vec_model_at_every_width() {
        for width in WIDTHS {
            let mut model = pattern(width, 2);
            let mut combo = ModeCombination::new(model.clone());
            for core in (0..width).step_by(5) {
                let mode = model[core].slower().unwrap_or(PowerMode::Turbo);
                model[core] = mode;
                combo.set(CoreId::new(core), mode);
            }
            assert_eq!(combo.as_slice(), &model[..]);
            for (core, &mode) in model.iter().enumerate() {
                assert_eq!(combo.mode(CoreId::new(core)), mode);
            }
            assert_eq!(combo.len(), width);
            assert_eq!(combo.is_empty(), width == 0);
        }
    }

    #[test]
    fn clone_from_crosses_the_inline_heap_boundary_both_ways() {
        for from in WIDTHS {
            for to in WIDTHS {
                let source = ModeCombination::new(pattern(from, 0));
                let mut dest = ModeCombination::new(pattern(to, 1));
                dest.clone_from(&source);
                assert_eq!(dest, source);
                assert_eq!(is_inline(&dest), from <= INLINE_MODES, "{to} <- {from}");
                let copy = source.clone();
                assert_eq!(copy, source);
                assert_eq!(is_inline(&copy), is_inline(&source));
            }
        }
    }

    #[test]
    fn odometer_advances_at_every_width() {
        for width in WIDTHS {
            let mut odo = ModeOdometer::new(width);
            // A base-3 counter over a plain vector, least significant
            // digit last.
            let mut model = vec![PowerMode::Turbo; width];
            for _ in 0..100 {
                let advanced = odo.advance();
                let mut carry = true;
                for digit in model.iter_mut().rev() {
                    match digit.slower() {
                        Some(next) => {
                            *digit = next;
                            carry = false;
                            break;
                        }
                        None => *digit = PowerMode::Turbo,
                    }
                }
                assert_eq!(advanced, !carry);
                assert_eq!(odo.current().as_slice(), &model[..]);
                assert_eq!(is_inline(odo.current()), width <= INLINE_MODES);
            }
        }
    }
}

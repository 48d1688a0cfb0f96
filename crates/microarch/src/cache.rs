//! Set-associative cache tag-array model with true LRU replacement.

use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
///
/// # Examples
///
/// ```
/// let l1d = gpm_microarch::CacheConfig::new(32 * 1024, 2, 128);
/// assert_eq!(l1d.sets(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (number of ways per set).
    pub ways: usize,
    /// Cache-line size in bytes.
    pub block_bytes: usize,
}

impl CacheConfig {
    /// Creates a cache geometry.
    #[must_use]
    pub const fn new(size_bytes: usize, ways: usize, block_bytes: usize) -> Self {
        Self {
            size_bytes,
            ways,
            block_bytes,
        }
    }

    /// Number of sets implied by the geometry.
    #[must_use]
    pub const fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.block_bytes)
    }

    /// Checks the geometry is usable (non-zero, power-of-two sets and block).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the geometry is invalid.
    pub fn validate(&self) -> Result<(), String> {
        if self.size_bytes == 0 || self.ways == 0 || self.block_bytes == 0 {
            return Err("size, ways and block size must be non-zero".into());
        }
        if !self.block_bytes.is_power_of_two() {
            return Err(format!(
                "block size {} is not a power of two",
                self.block_bytes
            ));
        }
        if !self.size_bytes.is_multiple_of(self.ways * self.block_bytes) {
            return Err("size must be divisible by ways × block".into());
        }
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} is not a power of two"));
        }
        Ok(())
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (allocate-on-miss).
    Miss,
}

impl AccessOutcome {
    /// Returns `true` for [`AccessOutcome::Miss`].
    #[must_use]
    pub fn is_miss(self) -> bool {
        matches!(self, AccessOutcome::Miss)
    }
}

/// One tag-array entry, packed to 16 bytes for cache-friendly set scans.
/// `stamp == 0` means invalid: valid lines always carry a stamp ≥ 1 (the
/// stamp counter is pre-incremented before any fill), which also makes an
/// invalid way the automatic least-recently-used victim.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    stamp: u64,
}

/// A set-associative cache with true-LRU replacement, modelling only the tag
/// array (timing/allocation behaviour; no data storage).
///
/// Both L1s and the shared L2 of the paper's configuration are instances of
/// this type. Accesses allocate on miss; there is no distinction between
/// reads and writes (the paper's policies only consume aggregate miss
/// behaviour).
///
/// # Examples
///
/// ```
/// use gpm_microarch::{AccessOutcome, CacheConfig, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(1024, 2, 64)).unwrap();
/// assert_eq!(c.access(0x0), AccessOutcome::Miss);
/// assert_eq!(c.access(0x0), AccessOutcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    lines: Vec<Line>,
    set_mask: u64,
    block_shift: u32,
    tag_shift: u32,
    next_stamp: u64,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Builds a cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`gpm_types::GpmError::InvalidConfig`] if the geometry fails
    /// [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> gpm_types::Result<Self> {
        config
            .validate()
            .map_err(|reason| gpm_types::GpmError::InvalidConfig {
                parameter: "cache",
                reason,
            })?;
        let sets = config.sets();
        let set_mask = sets as u64 - 1;
        Ok(Self {
            config,
            lines: vec![Line::default(); sets * config.ways],
            set_mask,
            block_shift: config.block_bytes.trailing_zeros(),
            tag_shift: set_mask.count_ones(),
            next_stamp: 0,
            accesses: 0,
            misses: 0,
        })
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses byte address `addr`, allocating the line on a miss.
    ///
    /// A single pass over the (2–4 entry) set serves both the hit fast path
    /// and LRU victim selection: the scan returns as soon as the tag
    /// matches, and otherwise has already found the first minimum-stamp way
    /// (invalid ways carry stamp 0, so they win automatically — the same
    /// ordering `min_by_key` on `valid → stamp, invalid → 0` produced).
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.accesses += 1;
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        let block = addr >> self.block_shift;
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.tag_shift;
        let base = set * self.config.ways;
        let set_lines = &mut self.lines[base..base + self.config.ways];

        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for (i, line) in set_lines.iter_mut().enumerate() {
            if line.tag == tag && line.stamp != 0 {
                line.stamp = stamp;
                return AccessOutcome::Hit;
            }
            if line.stamp < victim_stamp {
                victim_stamp = line.stamp;
                victim = i;
            }
        }

        self.misses += 1;
        set_lines[victim] = Line { tag, stamp };
        AccessOutcome::Miss
    }

    /// Installs the line for `addr` without counting a demand access or a
    /// demand miss (hardware-prefetch fills). Returns whether the line was
    /// already resident.
    pub fn install(&mut self, addr: u64) -> AccessOutcome {
        let before = (self.accesses, self.misses);
        let outcome = self.access(addr);
        (self.accesses, self.misses) = before;
        outcome
    }

    /// Probes whether `addr` is resident without touching LRU state or
    /// counters.
    #[must_use]
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let block = addr >> self.block_shift;
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.tag_shift;
        let base = set * self.config.ways;
        self.lines[base..base + self.config.ways]
            .iter()
            .any(|l| l.tag == tag && l.stamp != 0)
    }

    /// Total accesses since construction or the last [`reset_counters`].
    ///
    /// [`reset_counters`]: Self::reset_counters
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses since construction or the last counter reset.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over the counted window; 0 when no accesses happened.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Clears the access/miss counters but keeps cache contents warm.
    pub fn reset_counters(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }

    /// Invalidates all lines and clears counters.
    pub fn flush(&mut self) {
        self.lines.fill(Line::default());
        self.next_stamp = 0;
        self.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets × 2 ways × 64 B blocks.
        SetAssocCache::new(CacheConfig::new(256, 2, 64)).unwrap()
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::new(32 * 1024, 2, 128);
        assert_eq!(c.sets(), 128);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(CacheConfig::new(300, 2, 64).validate().is_err());
        assert!(CacheConfig::new(256, 2, 48).validate().is_err());
        assert!(CacheConfig::new(0, 2, 64).validate().is_err());
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(c.access(0).is_miss());
        assert!(!c.access(0).is_miss());
        // Same block, different byte.
        assert!(!c.access(63).is_miss());
        // Next block maps to the other set.
        assert!(c.access(64).is_miss());
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds blocks with (block & 1) == 0: addresses 0, 128, 256…
        c.access(0); // miss, way 0
        c.access(128); // miss, way 1
        c.access(0); // hit, refreshes block 0
        c.access(256); // miss, evicts 128 (LRU)
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn contains_does_not_count() {
        let mut c = tiny();
        c.access(0);
        let before = c.accesses();
        let _ = c.contains(0);
        assert_eq!(c.accesses(), before);
    }

    #[test]
    fn install_fills_without_counting() {
        let mut c = tiny();
        assert!(c.install(0).is_miss());
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.misses(), 0);
        assert!(!c.access(0).is_miss(), "installed line is resident");
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(!c.contains(0));
        assert_eq!(c.accesses(), 0);
        assert!(c.access(0).is_miss());
    }

    #[test]
    fn reset_counters_keeps_contents() {
        let mut c = tiny();
        c.access(0);
        c.reset_counters();
        assert_eq!(c.misses(), 0);
        assert!(!c.access(0).is_miss(), "contents survive counter reset");
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny(); // 256 B total
        let mut misses = 0;
        // Stream over 4 KiB repeatedly: everything should keep missing after
        // warmup because the working set is 16× the capacity.
        for round in 0..4 {
            for block in 0..64u64 {
                if c.access(block * 64).is_miss() && round > 0 {
                    misses += 1;
                }
            }
        }
        assert_eq!(
            misses,
            3 * 64,
            "LRU with a circular sweep evicts everything"
        );
    }

    #[test]
    fn miss_rate_zero_when_unused() {
        assert_eq!(tiny().miss_rate(), 0.0);
    }

    #[test]
    fn new_rejects_invalid_geometry() {
        assert!(matches!(
            SetAssocCache::new(CacheConfig::new(100, 3, 7)),
            Err(gpm_types::GpmError::InvalidConfig {
                parameter: "cache",
                ..
            })
        ));
    }
}

//! Shared L2 with bus contention for the full-CMP validation simulator.
//!
//! The model is split in two halves so the two-phase quantum protocol can
//! replay request logs cheaply:
//!
//! * [`L2Lookup`] — the pure cache: one shared tag array plus fixed array
//!   and memory latencies. Stateless apart from the tags; one call per
//!   request.
//! * [`L2Bus`] — the bandwidth model: windowed M/D/1 queue accounting.
//!
//! [`SharedL2`] composes the two and serves each request of the replay path
//! through [`SharedL2::replay_access`].

use gpm_microarch::{AccessOutcome, CacheConfig, SetAssocCache};
use serde::{Deserialize, Serialize};

use crate::L2Bus;

/// Geometry and timing of the shared L2 and its bus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedL2Config {
    /// Cache geometry (the paper's 2 MB, 4-way, 128 B unified L2).
    pub cache: CacheConfig,
    /// L2 array access latency in nanoseconds.
    pub l2_latency_ns: f64,
    /// Main-memory latency in nanoseconds (added on a miss).
    pub memory_latency_ns: f64,
    /// Bus occupancy per L2 access in nanoseconds — the bandwidth knob that
    /// turns concurrent traffic from several cores into queueing delay.
    pub service_ns: f64,
}

impl Default for SharedL2Config {
    fn default() -> Self {
        Self {
            cache: CacheConfig::new(2 * 1024 * 1024, 4, 128),
            l2_latency_ns: 9.0,
            memory_latency_ns: 77.0,
            service_ns: 2.0,
        }
    }
}

/// The capacity half of the shared L2: one tag array for all cores, plus
/// the fixed hit/miss latencies. No contention state — replaying a request
/// through here costs one cache probe.
#[derive(Debug, Clone)]
pub struct L2Lookup {
    cache: SetAssocCache,
    l2_latency_ns: f64,
    memory_latency_ns: f64,
}

impl L2Lookup {
    /// Builds the tag array and latency pair from the shared config.
    ///
    /// # Errors
    ///
    /// Returns [`gpm_types::GpmError::InvalidConfig`] if the cache geometry
    /// is invalid.
    pub fn new(config: &SharedL2Config) -> gpm_types::Result<Self> {
        Ok(Self {
            cache: SetAssocCache::new(config.cache)?,
            l2_latency_ns: config.l2_latency_ns,
            memory_latency_ns: config.memory_latency_ns,
        })
    }

    /// Probes (and updates) the tag array. Returns the access's base
    /// latency — array latency, plus memory latency on a miss — and
    /// whether it hit.
    #[inline]
    pub fn probe(&mut self, addr: u64) -> (f64, bool) {
        match self.cache.access(addr) {
            AccessOutcome::Hit => (self.l2_latency_ns, true),
            AccessOutcome::Miss => (self.l2_latency_ns + self.memory_latency_ns, false),
        }
    }

    /// The tag array (for diagnostics).
    #[must_use]
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }
}

/// A shared L2 + memory behind a bandwidth-limited bus.
///
/// Capacity contention is modelled exactly (one shared tag array for all
/// cores, [`L2Lookup`]). Bandwidth contention uses the windowed queueing
/// model of [`L2Bus`]: the simulation driver closes an observation window
/// every synchronisation quantum via [`end_window`], and the bus
/// utilisation of that window sets the queueing delay charged to every
/// access of the next window.
///
/// [`end_window`]: SharedL2::end_window
#[derive(Debug, Clone)]
pub struct SharedL2 {
    lookup: L2Lookup,
    bus: L2Bus,
    accesses: u64,
}

impl SharedL2 {
    /// Builds the shared L2.
    ///
    /// # Errors
    ///
    /// Returns [`gpm_types::GpmError::InvalidConfig`] if the cache geometry
    /// is invalid.
    pub fn new(config: SharedL2Config) -> gpm_types::Result<Self> {
        Ok(Self {
            lookup: L2Lookup::new(&config)?,
            bus: L2Bus::new(config.service_ns),
            accesses: 0,
        })
    }

    /// The tag array (for diagnostics).
    #[must_use]
    pub fn cache(&self) -> &SetAssocCache {
        self.lookup.cache()
    }

    /// Total accesses served.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Serves one request — the single arbitration point of the phase-2
    /// replay of deferred request logs. Returns `(total_latency_ns, l2_hit)` where the total
    /// includes the current window's queueing delay.
    #[inline]
    pub fn replay_access(&mut self, addr: u64) -> (f64, bool) {
        self.accesses += 1;
        let queue = self.bus.charge_access();
        let (base, hit) = self.lookup.probe(addr);
        (queue + base, hit)
    }

    /// Closes the current observation window of `window_ns` wall time: the
    /// window's bus utilisation determines the queueing delay applied to
    /// the next window's accesses.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is not positive.
    pub fn end_window(&mut self, window_ns: f64) {
        self.bus.end_window(window_ns);
    }

    /// Queueing delay currently charged per access, in nanoseconds.
    #[must_use]
    pub fn current_queue_ns(&self) -> f64 {
        self.bus.current_queue_ns()
    }

    /// Mean bus utilisation over all closed windows.
    #[must_use]
    pub fn average_utilization(&self) -> f64 {
        self.bus.average_utilization()
    }

    /// Highest single-window bus utilisation seen.
    #[must_use]
    pub fn peak_utilization(&self) -> f64 {
        self.bus.peak_utilization()
    }
}

impl Default for SharedL2 {
    fn default() -> Self {
        Self::new(SharedL2Config::default()).expect("default shared-L2 geometry is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_latencies() {
        let mut l2 = SharedL2::default();
        let (lat_miss, hit) = l2.replay_access(0x1000);
        assert!(!hit);
        assert!((lat_miss - 86.0).abs() < 1e-9);
        let (lat_hit, hit) = l2.replay_access(0x1000);
        assert!(hit);
        assert!((lat_hit - 9.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_sets_next_window_queue() {
        let mut l2 = SharedL2::default();
        // 1000 accesses × 2 ns in a 5000 ns window: ρ = 0.4.
        for i in 0..1000 {
            let _ = l2.replay_access(i * 128);
        }
        l2.end_window(5000.0);
        assert!((l2.average_utilization() - 0.4).abs() < 1e-9);
        // M/D/1 wait: 2 × 0.4 / (2 × 0.6) = 0.666… ns.
        assert!((l2.current_queue_ns() - 2.0 * 0.4 / 1.2).abs() < 1e-9);
        let (lat, _) = l2.replay_access(0xdead_0000);
        assert!(lat > 86.0, "queue delay charged: {lat}");
    }

    #[test]
    fn idle_window_has_no_queue() {
        let mut l2 = SharedL2::default();
        l2.end_window(5000.0);
        assert_eq!(l2.current_queue_ns(), 0.0);
        assert_eq!(l2.average_utilization(), 0.0);
    }

    #[test]
    fn utilization_is_capped_and_stable() {
        let mut l2 = SharedL2::default();
        for _ in 0..10 {
            for i in 0..100_000u64 {
                let _ = l2.replay_access(i * 128);
            }
            l2.end_window(5000.0); // demand 40× capacity
        }
        assert!(l2.peak_utilization() <= 0.98);
        assert!(l2.current_queue_ns().is_finite());
        assert!(l2.current_queue_ns() < 100.0, "bounded queue");
    }

    #[test]
    fn capacity_contention_between_streams() {
        // Two interleaved 1.5 MB streams overflow the 2 MB L2 even though
        // each would fit alone.
        let mut l2 = SharedL2::default();
        let lines = (1_536_000 / 128) as u64;
        let mut misses_second_round = 0;
        for round in 0..2 {
            for i in 0..lines {
                let (_, hit_a) = l2.replay_access(i * 128);
                let (_, hit_b) = l2.replay_access(0x1000_0000 + i * 128);
                if round == 1 {
                    misses_second_round += u64::from(!hit_a) + u64::from(!hit_b);
                }
            }
        }
        assert!(
            misses_second_round > lines,
            "3 MB of combined working set must keep missing: {misses_second_round}"
        );
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        SharedL2::default().end_window(0.0);
    }
}

//! Request-recording memory subsystem for two-phase parallel CMP
//! simulation.
//!
//! In the full-CMP simulator's parallel protocol every core steps one
//! quantum against a [`DeferredL2`] instead of the real shared L2: L1 hits
//! resolve locally in the core as usual, and each would-be L2 request is
//! *recorded* — timestamp, address, kind — while the core is charged a
//! *predicted* per-access latency (the L2 array-hit latency initially; the
//! simulation driver retargets it to the observed mean after each replay).
//! After the quantum, a single thread merge-replays all cores' logs
//! against the real shared L2 in global `(timestamp, core)` order; the
//! signed difference between the latency the requests *actually* cost
//! (queueing delay, memory latency on a miss) and the predicted charge is
//! settled as a stall credit at the start of the core's next quantum.
//!
//! Because a core's quantum depends only on its own state plus the credits
//! computed by the serial replay, phase 1 is embarrassingly parallel and
//! the protocol is bit-identical for any worker count.

use crate::{AccessKind, MemorySubsystem};

/// One recorded L2 request of a core's quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L2Request {
    /// Core-local wall-clock timestamp of the request in nanoseconds.
    pub now_ns: f64,
    /// Line address.
    pub addr: u64,
    /// Traffic class (fetch / demand data / prefetch).
    pub kind: AccessKind,
}

/// A [`MemorySubsystem`] that records L2 requests instead of serving them.
///
/// Every access is charged `charge_ns` (the optimistic L2 hit latency) and
/// reported as a hit; the real hit/miss outcome and all contention delays
/// are discovered later by replaying the log against the shared L2. The log
/// buffer is reused across quanta — [`reset`](DeferredL2::reset) keeps the
/// allocation.
#[derive(Debug, Clone)]
pub struct DeferredL2 {
    log: Vec<L2Request>,
    charge_ns: f64,
}

impl DeferredL2 {
    /// Builds a recorder charging `charge_ns` per access (the L2 array hit
    /// latency of the shared cache it stands in for).
    #[must_use]
    pub fn new(charge_ns: f64) -> Self {
        Self {
            log: Vec::new(),
            charge_ns,
        }
    }

    /// The per-access latency currently charged during recording.
    #[must_use]
    pub fn charge_ns(&self) -> f64 {
        self.charge_ns
    }

    /// Updates the per-access charge for subsequent quanta.
    ///
    /// The full-CMP replay sets this to the core's observed mean L2
    /// latency, so the recording timeline tracks the real one and the
    /// correction credits stay small.
    pub fn set_charge_ns(&mut self, charge_ns: f64) {
        self.charge_ns = charge_ns;
    }

    /// The requests recorded since the last [`reset`](Self::reset).
    #[must_use]
    pub fn log(&self) -> &[L2Request] {
        &self.log
    }

    /// Clears the log, keeping its allocation for the next quantum.
    pub fn reset(&mut self) {
        self.log.clear();
    }

    /// Sorts the log by timestamp, preserving program order between equal
    /// timestamps (stable sort, total order over floats).
    ///
    /// A core's log is *almost* sorted already but not exactly: dependent
    /// loads carry their operand-ready time, which can step backwards
    /// relative to an earlier op's completion, and prefetch fills share
    /// their trigger miss's timestamp. Sorting per core (in parallel, at
    /// the end of phase 1) lets phase 2 do a cheap k-way merge.
    pub fn sort_log(&mut self) {
        self.log.sort_by(|a, b| a.now_ns.total_cmp(&b.now_ns));
    }
}

impl MemorySubsystem for DeferredL2 {
    fn access(&mut self, addr: u64, now_ns: f64) -> (f64, bool) {
        self.access_kind(addr, now_ns, AccessKind::Data)
    }

    fn access_kind(&mut self, addr: u64, now_ns: f64, kind: AccessKind) -> (f64, bool) {
        self.log.push(L2Request { now_ns, addr, kind });
        (self.charge_ns, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_charges_optimistically() {
        let mut mem = DeferredL2::new(9.0);
        let (lat, hit) = mem.access_kind(0x80, 5.0, AccessKind::Fetch);
        assert_eq!(lat, 9.0);
        assert!(hit, "recording path never reports a miss");
        let (lat, hit) = mem.access(0x1000, 7.5);
        assert_eq!((lat, hit), (9.0, true));
        assert_eq!(
            mem.log(),
            &[
                L2Request {
                    now_ns: 5.0,
                    addr: 0x80,
                    kind: AccessKind::Fetch
                },
                L2Request {
                    now_ns: 7.5,
                    addr: 0x1000,
                    kind: AccessKind::Data
                },
            ]
        );
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut mem = DeferredL2::new(9.0);
        for i in 0..1000 {
            let _ = mem.access(i * 128, i as f64);
        }
        let cap = {
            mem.reset();
            assert!(mem.log().is_empty());
            mem.log.capacity()
        };
        assert!(cap >= 1000, "reset must keep the allocation");
    }

    #[test]
    fn sort_is_stable_for_equal_timestamps() {
        let mut mem = DeferredL2::new(9.0);
        let _ = mem.access_kind(3, 2.0, AccessKind::Data);
        let _ = mem.access_kind(1, 1.0, AccessKind::Data);
        let _ = mem.access_kind(2, 1.0, AccessKind::Prefetch);
        mem.sort_log();
        let addrs: Vec<u64> = mem.log().iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![1, 2, 3], "stable: 1 before 2, both before 3");
    }
}

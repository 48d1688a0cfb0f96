//! Cluster topology and the inter-cluster interconnect model for wide CMPs.
//!
//! The paper's chip funnels every core's L2 traffic through one
//! [`SharedL2`](crate::SharedL2), which makes phase 2 of the two-phase
//! quantum protocol one serial merge over the whole chip. At 64–256 cores
//! that merge dominates the run. [`ClusterTopology`] breaks the chip into
//! K clusters of 8–16 cores, each with a *private* per-cluster L2; only
//! misses leave the cluster, crossing the global interconnect modelled by
//! [`Interconnect`] on their way to memory. [`FullCmpSim`](crate::FullCmpSim)
//! runs both phases of the protocol per cluster in parallel, and the only
//! serialised work left is summing the clusters' miss counts into the
//! interconnect's window accounting.
//!
//! The paper's chip is the one-cluster case with a zero-latency
//! interconnect, which [`FullCmpSim::new`](crate::FullCmpSim::new) builds:
//! the per-miss penalty is `hop + queue = 0.0`, and adding `0.0` to a
//! finite positive latency is exact in IEEE 754. `tests/cmp_equivalence.rs`
//! and `tests/hier_equivalence.rs` pin its golden hashes.

use std::ops::Range;

use gpm_types::{GpmError, Result};
use serde::{Deserialize, Serialize};

use crate::L2Bus;

/// How a chip's cores are grouped into L2-sharing clusters.
///
/// # Examples
///
/// ```
/// use gpm_cmp::ClusterTopology;
///
/// let topo = ClusterTopology::for_cores(64, 8)?;
/// assert_eq!(topo.clusters(), 8);
/// assert_eq!(topo.core_range(1), 8..16);
/// # Ok::<(), gpm_types::GpmError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterTopology {
    clusters: usize,
    cores_per_cluster: usize,
}

impl ClusterTopology {
    /// Builds a topology of `clusters` × `cores_per_cluster` cores.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] when either count is zero.
    pub fn new(clusters: usize, cores_per_cluster: usize) -> Result<Self> {
        if clusters == 0 || cores_per_cluster == 0 {
            return Err(GpmError::InvalidConfig {
                parameter: "topology",
                reason: format!(
                    "need at least one cluster and one core per cluster, \
                     got {clusters}×{cores_per_cluster}"
                ),
            });
        }
        Ok(Self {
            clusters,
            cores_per_cluster,
        })
    }

    /// The single-cluster topology: all `cores` share one L2, as on the
    /// paper's chip.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] when `cores` is zero.
    pub fn flat(cores: usize) -> Result<Self> {
        Self::new(1, cores)
    }

    /// Partitions `cores` into clusters of `cores_per_cluster`.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] when the core count is zero or
    /// not divisible by the cluster size.
    pub fn for_cores(cores: usize, cores_per_cluster: usize) -> Result<Self> {
        if cores_per_cluster == 0 || !cores.is_multiple_of(cores_per_cluster) {
            return Err(GpmError::InvalidConfig {
                parameter: "cores",
                reason: format!("{cores} cores do not divide into clusters of {cores_per_cluster}"),
            });
        }
        Self::new(cores / cores_per_cluster, cores_per_cluster)
    }

    /// Number of clusters.
    #[must_use]
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Cores per cluster.
    #[must_use]
    pub fn cores_per_cluster(&self) -> usize {
        self.cores_per_cluster
    }

    /// Total cores on the chip.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.clusters * self.cores_per_cluster
    }

    /// The contiguous core-index range owned by `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn core_range(&self, cluster: usize) -> Range<usize> {
        assert!(cluster < self.clusters, "cluster {cluster} out of range");
        cluster * self.cores_per_cluster..(cluster + 1) * self.cores_per_cluster
    }
}

/// Timing of the global inter-cluster interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectConfig {
    /// Fixed traversal latency a cluster-L2 miss pays to reach memory
    /// across the global fabric, in nanoseconds.
    pub hop_latency_ns: f64,
    /// Fabric occupancy per crossing miss in nanoseconds — the bounded-
    /// bandwidth knob that turns aggregate miss traffic into queueing
    /// delay, exactly like [`SharedL2Config::service_ns`] does for a
    /// cluster's bus.
    ///
    /// [`SharedL2Config::service_ns`]: crate::SharedL2Config::service_ns
    pub service_ns: f64,
}

impl InterconnectConfig {
    /// A free interconnect: zero latency, infinite bandwidth. With one
    /// cluster this is the paper's chip.
    #[must_use]
    pub fn zero() -> Self {
        Self {
            hop_latency_ns: 0.0,
            service_ns: 0.0,
        }
    }

    /// Validates the timing parameters.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] unless both are finite and
    /// non-negative.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("hop_latency_ns", self.hop_latency_ns),
            ("service_ns", self.service_ns),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(GpmError::InvalidConfig {
                    parameter: "interconnect",
                    reason: format!("{name} must be finite and non-negative, got {v}"),
                });
            }
        }
        Ok(())
    }
}

impl Default for InterconnectConfig {
    /// A mesh-class fabric: 12 ns traversal, 0.5 ns occupancy per miss
    /// (several times the aggregate bandwidth of one cluster bus — wide
    /// links, but bounded).
    fn default() -> Self {
        Self {
            hop_latency_ns: 12.0,
            service_ns: 0.5,
        }
    }
}

/// The global interconnect: a fixed hop latency plus the same windowed
/// M/D/1 queueing model the per-cluster buses use ([`L2Bus`]).
///
/// During a quantum the model is *read-only* — every cluster charges its
/// misses the penalty frozen at the last window boundary — which is what
/// lets the per-cluster replays run in parallel. The serial phase then
/// feeds the clusters' summed miss counts into the window accounting
/// ([`note_traffic`](Interconnect::note_traffic)) and closes the window;
/// the sum over unsigned counts is order-independent, so the protocol
/// stays bit-identical for every worker count.
#[derive(Debug, Clone)]
pub struct Interconnect {
    hop_latency_ns: f64,
    fabric: L2Bus,
}

impl Interconnect {
    /// Builds the interconnect model.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] on invalid timing parameters.
    pub fn new(config: InterconnectConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            hop_latency_ns: config.hop_latency_ns,
            fabric: L2Bus::new(config.service_ns),
        })
    }

    /// Extra nanoseconds a cluster-L2 miss pays this window to cross the
    /// fabric: hop latency plus the current queueing delay.
    #[must_use]
    pub fn penalty_ns(&self) -> f64 {
        self.hop_latency_ns + self.fabric.current_queue_ns()
    }

    /// Accounts `misses` crossings in the current observation window.
    pub fn note_traffic(&mut self, misses: u64) {
        self.fabric.note_accesses(misses);
    }

    /// Closes the current observation window of `window_ns` wall time: the
    /// window's fabric utilisation determines the queueing delay applied
    /// to the next window's crossings.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is not positive.
    pub fn end_window(&mut self, window_ns: f64) {
        self.fabric.end_window(window_ns);
    }

    /// Mean fabric utilisation over all closed windows.
    #[must_use]
    pub fn average_utilization(&self) -> f64 {
        self.fabric.average_utilization()
    }

    /// Highest single-window fabric utilisation seen.
    #[must_use]
    pub fn peak_utilization(&self) -> f64 {
        self.fabric.peak_utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_partitions_cores() {
        let topo = ClusterTopology::for_cores(64, 8).expect("64 divides by 8");
        assert_eq!(topo.clusters(), 8);
        assert_eq!(topo.cores_per_cluster(), 8);
        assert_eq!(topo.cores(), 64);
        assert_eq!(topo.core_range(0), 0..8);
        assert_eq!(topo.core_range(7), 56..64);
    }

    #[test]
    fn topology_rejects_degenerate_shapes() {
        assert!(ClusterTopology::new(0, 8).is_err());
        assert!(ClusterTopology::new(4, 0).is_err());
        assert!(ClusterTopology::for_cores(20, 8).is_err());
        assert!(ClusterTopology::for_cores(8, 0).is_err());
        assert!(ClusterTopology::flat(0).is_err());
        let flat = ClusterTopology::flat(16).expect("flat topology");
        assert_eq!(flat.clusters(), 1);
        assert_eq!(flat.core_range(0), 0..16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_range_bounds_checked() {
        let _ = ClusterTopology::for_cores(16, 8)
            .expect("16 divides by 8")
            .core_range(2);
    }

    #[test]
    fn zero_interconnect_is_free() {
        let mut icn = Interconnect::new(InterconnectConfig::zero()).expect("zero config valid");
        assert_eq!(icn.penalty_ns(), 0.0);
        icn.note_traffic(1_000_000);
        icn.end_window(5000.0);
        assert_eq!(icn.penalty_ns(), 0.0);
        assert_eq!(icn.average_utilization(), 0.0);
    }

    #[test]
    fn saturated_fabric_charges_bounded_queue() {
        let mut icn = Interconnect::new(InterconnectConfig::default()).expect("default valid");
        assert_eq!(icn.penalty_ns(), 12.0, "first window is queue-free");
        for _ in 0..4 {
            icn.note_traffic(1_000_000); // demand far over capacity
            icn.end_window(5000.0);
        }
        assert!(icn.peak_utilization() <= 0.98);
        assert!(icn.penalty_ns() > 12.0);
        assert!(icn.penalty_ns().is_finite());
    }

    #[test]
    fn utilization_follows_traffic() {
        let mut icn = Interconnect::new(InterconnectConfig::default()).expect("default valid");
        // 2000 crossings × 0.5 ns in a 5000 ns window: ρ = 0.2.
        icn.note_traffic(2000);
        icn.end_window(5000.0);
        assert!((icn.average_utilization() - 0.2).abs() < 1e-9);
        // M/D/1 wait on top of the hop latency.
        let wait = 0.5 * 0.2 / (2.0 * 0.8);
        assert!((icn.penalty_ns() - (12.0 + wait)).abs() < 1e-9);
    }

    #[test]
    fn config_validation() {
        assert!(InterconnectConfig::zero().validate().is_ok());
        assert!(InterconnectConfig::default().validate().is_ok());
        for bad in [
            InterconnectConfig {
                hop_latency_ns: -1.0,
                ..InterconnectConfig::zero()
            },
            InterconnectConfig {
                service_ns: f64::NAN,
                ..InterconnectConfig::zero()
            },
            InterconnectConfig {
                hop_latency_ns: f64::INFINITY,
                ..InterconnectConfig::zero()
            },
        ] {
            assert!(Interconnect::new(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}

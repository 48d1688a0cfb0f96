//! The full-CMP validation simulator: real core models, each a
//! `CoreModel<DeferredL2>` recording its L2 requests, sharing an L2.

use std::sync::Arc;

use gpm_microarch::{CoreConfig, CoreModel, DeferredL2, IntervalStats};
use gpm_power::{DvfsParams, PowerModel};
use gpm_types::{Bips, GpmError, Hertz, Micros, ModeCombination, PowerMode, Result, Watts};
use gpm_workloads::{WorkloadCombo, WorkloadStream};

use crate::{ClusterTopology, Interconnect, InterconnectConfig, SharedL2, SharedL2Config};

/// Address-space separation between cores' data regions, so co-scheduled
/// benchmarks do not alias in the shared L2.
const CORE_ADDR_STRIDE: u64 = 1 << 36;

/// Per-core results of a full-CMP run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerCoreOutcome {
    /// Benchmark name (shared, not re-allocated per outcome).
    pub benchmark: Arc<str>,
    /// The mode the core ran in.
    pub mode: PowerMode,
    /// Instructions retired.
    pub instructions: u64,
    /// Average power over the run.
    pub power: Watts,
    /// Average throughput over the run.
    pub bips: Bips,
    /// L2 misses observed by this core.
    pub l2_misses: u64,
}

/// Aggregate results of a full-CMP run.
#[derive(Debug, Clone, PartialEq)]
pub struct FullCmpOutcome {
    /// One entry per core.
    pub per_core: Vec<PerCoreOutcome>,
    /// Wall-clock duration simulated.
    pub duration: Micros,
    /// Mean L2 bus utilisation over the run, averaged across clusters (the
    /// one shared bus of the paper's chip built by [`FullCmpSim::new`]).
    pub l2_utilization: f64,
    /// Mean inter-cluster interconnect utilisation over the run. Always
    /// `0.0` for [`FullCmpSim::new`], whose interconnect is free.
    pub interconnect_utilization: f64,
}

impl FullCmpOutcome {
    /// Total chip power (sum of per-core averages).
    #[must_use]
    pub fn chip_power(&self) -> Watts {
        self.per_core.iter().map(|c| c.power).sum()
    }

    /// Total chip throughput.
    #[must_use]
    pub fn chip_bips(&self) -> Bips {
        Bips::new(self.per_core.iter().map(|c| c.bips.value()).sum())
    }
}

/// Per-core bookkeeping that lives *outside* the core model: identity,
/// clocking, the correction-credit carry of the two-phase protocol, and the
/// run accumulators. One `CoreAccounting` per core, in core order within
/// its [`Cluster`].
#[derive(Debug)]
struct CoreAccounting {
    benchmark: Arc<str>,
    mode: PowerMode,
    freq: Hertz,
    /// Core cycles per synchronisation quantum at this core's frequency;
    /// recomputed when a run starts (the quantum is configurable).
    cycles_per_quantum: u64,
    /// Signed correction credit in nanoseconds: positive when the replay
    /// discovered more latency than phase 1 charged (repaid as stall
    /// cycles), negative when phase 1 overcharged (offsets future debt).
    pending_ns: f64,
    /// Bounds for the per-access charge predictor (array-hit latency up to
    /// hit + memory + worst-case queueing delay).
    charge_min_ns: f64,
    charge_max_ns: f64,
    /// Replay scratch: total actual latency of this core's requests this
    /// quantum.
    actual_ns: f64,
    /// Replay scratch: merge cursor into the sorted request log.
    cursor: usize,
    /// Run accumulators, reused across `run` calls.
    total: IntervalStats,
    energy_j: f64,
}

impl CoreAccounting {
    /// Settles this quantum's replay against what phase 1 charged: the
    /// signed difference joins the correction credit, and the charge
    /// predictor moves to the quantum's observed mean latency so the next
    /// recording timeline already runs at a realistic speed (preserving
    /// the core model's latency overlap instead of converting all miss
    /// latency into un-overlappable stalls).
    fn bank_correction(&mut self, deferred: &mut DeferredL2) {
        let requests = self.cursor;
        let charged_ns = requests as f64 * deferred.charge_ns();
        self.pending_ns += self.actual_ns - charged_ns;
        // A run of overcharged quanta must not accumulate unbounded credit:
        // a core can at most have been one quantum ahead of reality.
        let quantum_ns = self.cycles_per_quantum as f64 * 1.0e9 / self.freq.value();
        self.pending_ns = self.pending_ns.max(-quantum_ns);
        if requests > 0 {
            let mean = self.actual_ns / requests as f64;
            deferred.set_charge_ns(mean.clamp(self.charge_min_ns, self.charge_max_ns));
        }
    }

    fn outcome(&self) -> PerCoreOutcome {
        let secs = self.total.cycles as f64 / self.freq.value();
        PerCoreOutcome {
            benchmark: Arc::clone(&self.benchmark),
            mode: self.mode,
            instructions: self.total.instructions,
            power: Watts::new(self.energy_j / secs),
            bips: Bips::new(self.total.instructions as f64 / secs / 1.0e9),
            l2_misses: self.total.l2_misses,
        }
    }
}

/// One cluster of cores: each core recording its L2 requests into its own
/// [`DeferredL2`], plus the cluster's private L2. Both phases of the
/// two-phase protocol run on the cluster's pool worker — the interconnect
/// is read-only during a quantum (its penalty is frozen in
/// `icn_penalty_ns` at each window boundary), so nothing a cluster touches
/// is shared.
#[derive(Debug)]
struct Cluster {
    cores: Vec<CoreModel<DeferredL2>>,
    streams: Vec<WorkloadStream>,
    acct: Vec<CoreAccounting>,
    l2: SharedL2,
    /// Per-miss interconnect penalty for the current window, broadcast
    /// after the interconnect window closes.
    icn_penalty_ns: f64,
    /// Misses this cluster's replay produced in the last quantum — the
    /// traffic fed into the interconnect accounting.
    quantum_misses: u64,
}

impl Cluster {
    fn new(
        core_config: &CoreConfig,
        shared_config: SharedL2Config,
        streams: Vec<WorkloadStream>,
        acct: Vec<CoreAccounting>,
    ) -> Result<Self> {
        let cores = acct
            .iter()
            .map(|a| {
                let deferred = DeferredL2::new(shared_config.l2_latency_ns);
                CoreModel::with_memory(core_config, a.freq, deferred)
            })
            .collect::<Result<_>>()?;
        Ok(Self {
            cores,
            streams,
            acct,
            l2: SharedL2::new(shared_config)?,
            icn_penalty_ns: 0.0,
            quantum_misses: 0,
        })
    }

    /// Steps the cluster one quantum: phase 1, phase 2, then the L2
    /// window close.
    fn run_quantum(&mut self, power: &PowerModel, window_ns: f64) {
        self.step_cores(power);
        self.replay();
        self.l2.end_window(window_ns);
    }

    /// Phase 1: step every core one quantum. Per core: repay any positive
    /// correction credit as stall cycles, run the remainder of the quantum
    /// against the recording L2, and sort the request log so phase 2 can
    /// k-way merge.
    fn step_cores(&mut self, power: &PowerModel) {
        let cores = self.cores.iter_mut().zip(&mut self.streams);
        for ((core, stream), acct) in cores.zip(&mut self.acct) {
            let quantum_cycles = acct.cycles_per_quantum;
            let stall = if acct.pending_ns > 0.0 {
                acct.freq.cycles_for_ns(acct.pending_ns).min(quantum_cycles)
            } else {
                0
            };
            if stall > 0 {
                acct.pending_ns -= stall as f64 * 1.0e9 / acct.freq.value();
                core.apply_stall_cycles(stall);
            }
            core.memory_mut().reset();
            acct.actual_ns = 0.0;
            acct.cursor = 0;

            let mut stats = core.run_cycles(stream, quantum_cycles - stall);
            stats.cycles += stall;
            let power = power.power(&stats.activity(), acct.mode);
            let secs = stats.cycles as f64 / acct.freq.value();
            acct.energy_j += power.value() * secs;
            acct.total.merge(&stats);
            core.memory_mut().sort_log();
        }
    }

    /// Phase 2: merge-replay the cores' sorted request logs against the
    /// cluster's L2 in `(timestamp, core-id)` order, counting the misses
    /// into `quantum_misses`.
    ///
    /// The deterministic tie-break — strictly-smaller timestamp wins, equal
    /// timestamps go to the lower core id — makes the replay order (and
    /// hence the tag-array state, queue accounting and per-core
    /// corrections) independent of how phase 1 was scheduled. Each core
    /// accumulates the actual latency of its requests (queueing delay, and
    /// memory latency when the array misses, plus the frozen interconnect
    /// penalty — `0.0`, exact by IEEE 754 identity, for a free
    /// interconnect); [`CoreAccounting::bank_correction`] settles that
    /// against what phase 1 charged.
    fn replay(&mut self) {
        let Self {
            cores,
            acct,
            l2,
            icn_penalty_ns,
            quantum_misses,
            ..
        } = self;
        *quantum_misses = 0;
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (i, (core, acct)) in cores.iter().zip(acct.iter()).enumerate() {
                if let Some(req) = core.memory().log().get(acct.cursor) {
                    if best.is_none_or(|(_, t)| req.now_ns < t) {
                        best = Some((i, req.now_ns));
                    }
                }
            }
            let Some((i, _)) = best else { break };
            let acct = &mut acct[i];
            let req = cores[i].memory().log()[acct.cursor];
            acct.cursor += 1;
            let (mut actual_ns, hit) = l2.replay_access(req.addr);
            if !hit {
                actual_ns += *icn_penalty_ns;
                *quantum_misses += 1;
                acct.total.l2_misses += 1;
            }
            acct.actual_ns += actual_ns;
        }
        for (acct, core) in acct.iter_mut().zip(cores.iter_mut()) {
            acct.bank_correction(core.memory_mut());
        }
    }
}

/// A time-quantum-synchronised multi-core simulation over the real
/// `gpm-microarch` core models, with the chip's cores grouped into
/// clusters that each share a private [`SharedL2`] and reach memory across
/// a global [`Interconnect`] ([`ClusterTopology`]). The paper's chip —
/// every core on one shared L2 — is the one-cluster case with a free
/// interconnect, built by [`FullCmpSim::new`].
///
/// Cores advance in short wall-clock quanta (5 µs by default) under a
/// two-phase protocol, and each cluster maps onto one `gpm_par` pool
/// worker that runs both phases for it. **Phase 1** steps each of the
/// cluster's cores in turn, a [`CoreModel`] whose memory is a
/// [`DeferredL2`]. L1 hits resolve locally, and every would-be L2 request
/// is recorded into the core's log at the core's *predicted* per-access
/// latency — the array-hit latency initially, then the previous quantum's
/// observed mean, so dependent-load serialisation and ROB latency overlap
/// play out in the recording timeline itself. **Phase 2** merge-replays
/// the cluster's logs against its L2 in `(timestamp, core-id)` order;
/// misses additionally pay the interconnect penalty frozen at the last
/// window boundary. The signed difference between what the requests
/// actually cost — bus queueing delay, memory latency on a miss, the
/// crossing — and what phase 1 charged is banked as a correction credit,
/// repaid as stall cycles at the start of that core's next quantum (or
/// offset against future debt when negative). After each round the only
/// serialised work is summing the clusters' miss counts into the
/// interconnect and closing its window. Per-core DVFS is supported by
/// clocking each core at its mode's frequency — the quantum is measured
/// in wall time, so cores stay aligned across clock domains.
///
/// Results are bit-identical for every `GPM_THREADS` value (including the
/// pool-free serial path): clusters share no mutable state during a
/// round, no data flows between a cluster's cores during phase 1, the
/// replay order is fully determined by the logs, and the interconnect
/// merge sums unsigned counters. The golden hashes in
/// `tests/cmp_equivalence.rs` and `tests/hier_equivalence.rs` pin this.
///
/// This is the validation counterpart of
/// [`TraceCmpSim`](crate::TraceCmpSim), mirroring the paper's full-CMP
/// Turandot implementation "with time-driven L2 and thread synchronisation".
#[derive(Debug)]
pub struct FullCmpSim {
    clusters: Vec<Cluster>,
    interconnect: Interconnect,
    power: PowerModel,
    quantum: Micros,
}

impl FullCmpSim {
    /// Builds the paper's chip: every core of `combo` on one shared L2,
    /// with fixed per-core `modes` — the one-cluster topology with
    /// [`InterconnectConfig::zero`].
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::CoreCountMismatch`] when `modes` does not cover
    /// the combo and propagates configuration validation failures.
    pub fn new(
        combo: &WorkloadCombo,
        modes: &ModeCombination,
        core_config: &CoreConfig,
        power: PowerModel,
        dvfs: DvfsParams,
    ) -> Result<Self> {
        Self::with_topology(
            combo,
            modes,
            core_config,
            power,
            dvfs,
            ClusterTopology::flat(combo.cores())?,
            InterconnectConfig::zero(),
        )
    }

    /// Builds a clustered full-CMP simulation: `topology` partitions the
    /// combo's cores into clusters, each with a private L2 of the
    /// configured geometry, joined by an [`Interconnect`] with
    /// `interconnect` timing. Each cluster maps onto one `gpm_par` pool
    /// worker.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::CoreCountMismatch`] when the topology or the
    /// modes do not cover the combo, and propagates configuration
    /// validation failures.
    pub fn with_topology(
        combo: &WorkloadCombo,
        modes: &ModeCombination,
        core_config: &CoreConfig,
        power: PowerModel,
        dvfs: DvfsParams,
        topology: ClusterTopology,
        interconnect: InterconnectConfig,
    ) -> Result<Self> {
        for actual in [topology.cores(), modes.len()] {
            if actual != combo.cores() {
                return Err(GpmError::CoreCountMismatch {
                    expected: combo.cores(),
                    actual,
                });
            }
        }
        core_config.validate()?;
        let shared_config = SharedL2Config {
            cache: core_config.l2,
            l2_latency_ns: core_config.memory.l2_latency_ns,
            memory_latency_ns: core_config.memory.memory_latency_ns,
            ..SharedL2Config::default()
        };
        // The worst latency a replay can report: hit latency + memory
        // latency + the M/D/1 wait at the utilisation cap, on the cluster
        // bus and on the interconnect (whose terms are zero when it is
        // free), plus the hop.
        let md1_cap_wait = |service_ns: f64| service_ns * 0.98 / (2.0 * (1.0 - 0.98));
        let charge_max_ns = shared_config.l2_latency_ns
            + shared_config.memory_latency_ns
            + md1_cap_wait(shared_config.service_ns)
            + (interconnect.hop_latency_ns + md1_cap_wait(interconnect.service_ns));
        let interconnect = Interconnect::new(interconnect)?;

        let core = |i: usize| -> Result<(WorkloadStream, CoreAccounting)> {
            let bench = combo.benchmarks()[i];
            let mode = modes.mode(gpm_types::CoreId::new(i));
            // Distinct address bases and seed salts: four mcf instances
            // must not literally share data.
            let stream = bench
                .profile()
                .stream_with(i as u64 * CORE_ADDR_STRIDE, i as u64)?;
            let acct = CoreAccounting {
                benchmark: Arc::from(bench.name()),
                mode,
                freq: dvfs.frequency(mode),
                cycles_per_quantum: 0,
                pending_ns: 0.0,
                charge_min_ns: shared_config.l2_latency_ns,
                charge_max_ns,
                actual_ns: 0.0,
                cursor: 0,
                total: IntervalStats::default(),
                energy_j: 0.0,
            };
            Ok((stream, acct))
        };
        let clusters = (0..topology.clusters())
            .map(|k| {
                let (streams, acct) = topology
                    .core_range(k)
                    .map(core)
                    .collect::<Result<Vec<_>>>()?
                    .into_iter()
                    .unzip();
                Cluster::new(core_config, shared_config, streams, acct)
            })
            .collect::<Result<_>>()?;

        Ok(Self {
            clusters,
            interconnect,
            power,
            quantum: Micros::new(5.0),
        })
    }

    /// Overrides the synchronisation quantum (default 5 µs). Smaller values
    /// interleave the cores' L2 traffic more finely at simulation-speed
    /// cost.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] unless the quantum is positive
    /// and finite.
    pub fn set_quantum(&mut self, quantum: Micros) -> Result<()> {
        if !quantum.value().is_finite() || quantum.value() <= 0.0 {
            return Err(GpmError::InvalidConfig {
                parameter: "quantum",
                reason: format!("must be positive and finite, got {}", quantum.value()),
            });
        }
        self.quantum = quantum;
        Ok(())
    }

    /// Runs all cores for `duration` of wall time and reports per-core
    /// averages.
    ///
    /// Each quantum fans the clusters out over the `gpm_par` pool
    /// (`GPM_THREADS` workers, persistent across quanta) and then merges
    /// their miss counts into the interconnect serially. The outcome is
    /// bit-identical for any thread count.
    pub fn run(&mut self, duration: Micros) -> FullCmpOutcome {
        let quanta = (duration.value() / self.quantum.value()).ceil() as usize;
        let window_ns = self.quantum.value() * 1.0e3;
        let quantum = self.quantum;
        let power = &self.power;
        let interconnect = &mut self.interconnect;
        let clusters = &mut self.clusters;
        for cluster in clusters.iter_mut() {
            for acct in &mut cluster.acct {
                acct.cycles_per_quantum = acct.freq.cycles_in(quantum).value();
                acct.total = IntervalStats::default();
                acct.energy_j = 0.0;
            }
            cluster.icn_penalty_ns = interconnect.penalty_ns();
        }

        if quanta > 0 {
            let mut round = 0usize;
            gpm_par::run_rounds(
                clusters,
                |_, cluster| cluster.run_quantum(power, window_ns),
                |view| {
                    view.with_all(|clusters| {
                        // The only cross-cluster state: summed miss traffic
                        // (order-independent) and the next window's frozen
                        // penalty.
                        interconnect.note_traffic(clusters.iter().map(|c| c.quantum_misses).sum());
                        interconnect.end_window(window_ns);
                        let penalty = interconnect.penalty_ns();
                        for c in clusters.iter_mut() {
                            c.icn_penalty_ns = penalty;
                        }
                    });
                    round += 1;
                    round < quanta
                },
            );
        }

        FullCmpOutcome {
            per_core: clusters
                .iter()
                .flat_map(|c| c.acct.iter().map(CoreAccounting::outcome))
                .collect(),
            duration,
            l2_utilization: clusters
                .iter()
                .map(|c| c.l2.average_utilization())
                .sum::<f64>()
                / clusters.len() as f64,
            interconnect_utilization: interconnect.average_utilization(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_workloads::combos;

    fn run_combo(combo: &WorkloadCombo, ms: f64) -> FullCmpOutcome {
        let modes = ModeCombination::uniform(combo.cores(), PowerMode::Turbo);
        let mut sim = FullCmpSim::new(
            combo,
            &modes,
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        )
        .expect("sim builds for a valid combo");
        sim.run(Micros::from_millis(ms))
    }

    fn sharded_sim(
        combo: &WorkloadCombo,
        cluster_cores: usize,
        icn: InterconnectConfig,
    ) -> FullCmpSim {
        FullCmpSim::with_topology(
            combo,
            &ModeCombination::uniform(combo.cores(), PowerMode::Turbo),
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
            ClusterTopology::for_cores(combo.cores(), cluster_cores)
                .expect("combo divides into clusters"),
            icn,
        )
        .expect("sharded sim builds for a valid combo")
    }

    #[test]
    fn runs_and_reports_per_core() {
        let out = run_combo(&combos::gcc_mesa(), 0.5);
        assert_eq!(out.per_core.len(), 2);
        assert_eq!(&*out.per_core[0].benchmark, "gcc");
        assert!(out.per_core.iter().all(|c| c.instructions > 10_000));
        assert!(out.chip_power().value() > 10.0);
        assert!(out.chip_bips().value() > 0.5);
        assert_eq!(
            out.interconnect_utilization, 0.0,
            "a free fabric carries no load"
        );
    }

    #[test]
    fn memory_bound_combo_contends_in_shared_l2() {
        // Four memory-bound benchmarks: their combined warm sets overflow
        // the shared L2 and the bus queues — per-core throughput drops
        // relative to a private-L2 single-core run of the same stream.
        let out = run_combo(&combos::mcf_mcf_art_art(), 1.0);
        assert!(
            out.l2_utilization > 0.02,
            "bus contention expected, utilisation {}",
            out.l2_utilization
        );

        // Single-core reference for mcf (core 0).
        use gpm_microarch::CoreModel;
        let mut solo = CoreModel::new(
            &CoreConfig::power4(),
            DvfsParams::paper().frequency(PowerMode::Turbo),
        )
        .expect("POWER4 core config is valid");
        let mut stream = gpm_workloads::SpecBenchmark::Mcf
            .profile()
            .stream_with(0, 0)
            .expect("mcf stream builds");
        let stats = solo.run_cycles(&mut stream, 1_000_000);
        let solo_bips = stats.bips_at(DvfsParams::paper().frequency(PowerMode::Turbo));

        let cmp_bips = out.per_core[0].bips;
        assert!(
            cmp_bips.value() < solo_bips.value(),
            "shared L2 must slow mcf: {} vs solo {}",
            cmp_bips.value(),
            solo_bips.value()
        );
    }

    #[test]
    fn cpu_bound_combo_contends_less_than_memory_bound() {
        let cpu = run_combo(&combos::sixtrack_gap_perlbmk_wupwise(), 0.5);
        let mem = run_combo(&combos::mcf_mcf_art_art(), 0.5);
        assert!(
            cpu.l2_utilization < 0.5,
            "CPU-bound combo should not saturate the bus: {}",
            cpu.l2_utilization
        );
        assert!(
            mem.l2_utilization > cpu.l2_utilization,
            "memory-bound traffic must dominate: {} vs {}",
            mem.l2_utilization,
            cpu.l2_utilization
        );
    }

    #[test]
    fn per_core_dvfs_modes_supported() {
        let combo = combos::gcc_mesa();
        let mixed = ModeCombination::new(vec![PowerMode::Turbo, PowerMode::Eff2]);
        let mut sim = FullCmpSim::new(
            &combo,
            &mixed,
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        )
        .expect("sim builds for mixed modes");
        let out = sim.run(Micros::from_millis(0.5));
        assert_eq!(out.per_core[1].mode, PowerMode::Eff2);
        // The Eff2 core burns markedly less power per unit activity.
        assert!(out.per_core[1].power < out.per_core[0].power);
    }

    #[test]
    fn mode_count_mismatch_rejected() {
        let err = FullCmpSim::new(
            &combos::gcc_mesa(),
            &ModeCombination::uniform(3, PowerMode::Turbo),
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        );
        assert!(matches!(err, Err(GpmError::CoreCountMismatch { .. })));
    }

    #[test]
    fn topology_core_count_mismatch_rejected() {
        let err = FullCmpSim::with_topology(
            &combos::gcc_mesa(),
            &ModeCombination::uniform(2, PowerMode::Turbo),
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
            ClusterTopology::for_cores(8, 4).expect("8 divides by 4"),
            InterconnectConfig::zero(),
        );
        assert!(matches!(err, Err(GpmError::CoreCountMismatch { .. })));
    }

    #[test]
    fn sharded_clusters_cross_interconnect() {
        // Memory-bound 4-way split into two 2-core clusters: misses cross
        // the fabric, so the interconnect sees traffic and a non-trivial
        // hop penalty slows the cores relative to a free interconnect.
        let combo = combos::mcf_mcf_art_art();
        let mut free = sharded_sim(&combo, 2, InterconnectConfig::zero());
        let mut slow = sharded_sim(
            &combo,
            2,
            InterconnectConfig {
                hop_latency_ns: 200.0,
                service_ns: 4.0,
            },
        );
        let out_free = free.run(Micros::from_millis(1.0));
        let out_slow = slow.run(Micros::from_millis(1.0));
        assert!(
            out_slow.interconnect_utilization > 0.0,
            "miss traffic must register on the fabric"
        );
        assert!(
            out_slow.chip_bips().value() < out_free.chip_bips().value(),
            "a 200 ns hop must cost throughput: {} vs {}",
            out_slow.chip_bips().value(),
            out_free.chip_bips().value()
        );
    }

    #[test]
    fn sharded_private_l2_reduces_capacity_contention() {
        // mcf|mcf|art|art in one 4-core cluster shares a 2 MB L2; split
        // into two clusters each pair gets a private 2 MB array, so chip
        // miss counts can only drop (same streams, more total capacity).
        let combo = combos::mcf_mcf_art_art();
        let mut one = sharded_sim(&combo, 4, InterconnectConfig::zero());
        let mut two = sharded_sim(&combo, 2, InterconnectConfig::zero());
        let misses_one: u64 = one
            .run(Micros::from_millis(1.0))
            .per_core
            .iter()
            .map(|c| c.l2_misses)
            .sum();
        let misses_two: u64 = two
            .run(Micros::from_millis(1.0))
            .per_core
            .iter()
            .map(|c| c.l2_misses)
            .sum();
        assert!(
            misses_two < misses_one,
            "private per-cluster L2s must cut misses: {misses_two} vs {misses_one}"
        );
    }

    #[test]
    fn invalid_quantum_rejected() {
        let combo = combos::gcc_mesa();
        let modes = ModeCombination::uniform(2, PowerMode::Turbo);
        let mut sim = FullCmpSim::new(
            &combo,
            &modes,
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        )
        .expect("sim builds for a valid combo");
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    sim.set_quantum(Micros::new(bad)),
                    Err(GpmError::InvalidConfig {
                        parameter: "quantum",
                        ..
                    })
                ),
                "quantum {bad} must be rejected"
            );
        }
        sim.set_quantum(Micros::new(2.5)).expect("valid quantum");
    }

    #[test]
    fn repeated_runs_reuse_accumulators() {
        // Back-to-back runs on one simulator must report only their own
        // interval (accumulators reset), while microarchitectural state
        // (warm caches) persists — the second run is at least as fast.
        let combo = combos::gcc_mesa();
        let modes = ModeCombination::uniform(2, PowerMode::Turbo);
        let mut sim = FullCmpSim::new(
            &combo,
            &modes,
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        )
        .expect("sim builds for a valid combo");
        let first = sim.run(Micros::from_millis(0.25));
        let second = sim.run(Micros::from_millis(0.25));
        for (a, b) in first.per_core.iter().zip(&second.per_core) {
            assert!(
                b.instructions < a.instructions * 2,
                "second run must not double-count: {} vs {}",
                b.instructions,
                a.instructions
            );
            assert!(b.instructions > 10_000);
        }
    }
}

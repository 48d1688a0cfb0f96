//! Simulator-throughput baseline: simulated MIPS of the single-core hot
//! loop on a CPU-bound (sixtrack-like) and a memory-bound (mcf-like)
//! stream, plus end-to-end trace-capture throughput.
//!
//! Unlike the figure/table targets this bench measures the *simulator*, not
//! the simulated system: its unit is millions of simulated instructions per
//! wall-clock second. Run it before and after touching the
//! `CoreModel::run_cycles` hot path and record the numbers in
//! `BENCH_sim_throughput.json` at the repo root (see DESIGN.md, "Hot path &
//! performance") so the perf trajectory stays visible across PRs.
//!
//! Set `GPM_BENCH_QUICK=1` for a bounded smoke run (used by `scripts/ci.sh`
//! to keep this target from bit-rotting; it fails on panic, not on
//! regression).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use gpm_cmp::{ClusterTopology, FullCmpSim, InterconnectConfig, SimParams, TraceCmpSim};
use gpm_core::fleet_load::{PhaseTables, PHASES};
use gpm_core::{
    solver, BudgetSchedule, CacheConfig, DecisionCache, GlobalManager, GreedyMaxBips, HierMaxBips,
    MaxBips, Policy, PolicyContext, PowerBipsMatrices, RunOptions,
};
use gpm_core::{FleetConfig, FleetEngine};
use gpm_microarch::{CoreConfig, CoreModel};
use gpm_net::{Endpoint, LoadgenOptions, ServeOptions, Server, ShardedEngine};
use gpm_power::{DvfsParams, PowerModel};
use gpm_trace::{capture_benchmark, BenchmarkTraces, CaptureConfig, ModeTrace, TraceSample};
use gpm_types::{Hertz, Micros, ModeCombination, PowerMode, Watts};
use gpm_workloads::{combos, SpecBenchmark, WorkloadCombo};

/// One measured throughput figure.
struct Measurement {
    name: &'static str,
    instructions: u64,
    seconds: f64,
}

impl Measurement {
    fn mips(&self) -> f64 {
        self.instructions as f64 / self.seconds / 1.0e6
    }
}

/// Simulates `bench` through a fresh 1 GHz core until at least
/// `min_instructions` have committed, returning the wall time spent inside
/// the simulator.
fn core_stream_mips(bench: SpecBenchmark, min_instructions: u64) -> Measurement {
    let config = CoreConfig::power4();
    let mut core = CoreModel::new(&config, Hertz::from_ghz(1.0)).unwrap();
    let mut stream = bench.stream();
    // Warm caches and predictors outside the timed region.
    let _ = core.run_cycles(&mut stream, 200_000);

    let mut simulated = 0u64;
    let start = Instant::now();
    while simulated < min_instructions {
        simulated += core.run_cycles(&mut stream, 100_000).instructions;
    }
    let seconds = start.elapsed().as_secs_f64();
    Measurement {
        name: match bench {
            SpecBenchmark::Sixtrack => "core_cpu_bound_sixtrack",
            SpecBenchmark::Mcf => "core_mem_bound_mcf",
            _ => "core_other",
        },
        instructions: simulated,
        seconds,
    }
}

/// Full `capture_benchmark` throughput (all three power modes, warm-up and
/// sampling included) — the end-to-end number every experiment depends on.
///
/// Measured at steady state: one untimed capture first, so the recording
/// tape's storage pool is mapped and faulted in. Experiments capture all
/// 12 benchmarks in one process, so steady state is the representative
/// regime; the first capture in a process pays roughly one extra page
/// fault per 4 KiB of tape.
fn capture_mips(bench: SpecBenchmark, limit: u64) -> Measurement {
    let config = CaptureConfig::fast(limit);
    let _ = capture_benchmark(bench, &config).expect("warm capture");
    let start = Instant::now();
    let traces = capture_benchmark(bench, &config).expect("capture");
    let seconds = start.elapsed().as_secs_f64();
    let instructions: u64 = gpm_types::PowerMode::ALL
        .iter()
        .map(|&m| traces.trace(m).total_instructions())
        .sum();
    Measurement {
        name: match bench {
            SpecBenchmark::Sixtrack => "capture_cpu_bound_sixtrack",
            SpecBenchmark::Mcf => "capture_mem_bound_mcf",
            _ => "capture_other",
        },
        instructions,
        seconds,
    }
}

/// Full-CMP throughput: all-Turbo quantum-synchronised run of `combo`
/// against the shared L2 for `sim_us` of simulated wall time, reporting
/// total simulated instructions (all cores) per wall-clock second.
///
/// `FullCmpSim::new` builds the one-cluster chip, which steps on a single
/// `gpm_par` worker, so this measures the serial protocol at any pool
/// width.
fn cmp_full_mips(name: &'static str, combo: &WorkloadCombo, sim_us: f64) -> Measurement {
    let modes = ModeCombination::uniform(combo.cores(), PowerMode::Turbo);
    let mut sim = FullCmpSim::new(
        combo,
        &modes,
        &CoreConfig::power4(),
        PowerModel::power4_calibrated(),
        DvfsParams::paper(),
    )
    .expect("combo and modes agree");
    // Warm caches, predictors and the per-core scratch outside the timed
    // region.
    let _ = sim.run(Micros::new(sim_us * 0.1));

    let start = Instant::now();
    let outcome = sim.run(Micros::new(sim_us));
    let seconds = start.elapsed().as_secs_f64();
    let instructions = outcome.per_core.iter().map(|c| c.instructions).sum();
    Measurement {
        name,
        instructions,
        seconds,
    }
}

/// `cmp_full_mips` on the cluster-sharded drive: `combo` partitioned into
/// clusters of `cluster_cores` private L2s behind the default bounded
/// interconnect. Pairs with the flat row at the same width so the recorded
/// speedup isolates the sharding (per-cluster replay scans `cluster_cores`
/// lanes instead of the whole chip even on one worker; on a multi-core
/// host both phases additionally overlap per cluster).
fn cmp_sharded_mips(
    name: &'static str,
    combo: &WorkloadCombo,
    cluster_cores: usize,
    sim_us: f64,
) -> Measurement {
    let modes = ModeCombination::uniform(combo.cores(), PowerMode::Turbo);
    let mut sim = FullCmpSim::with_topology(
        combo,
        &modes,
        &CoreConfig::power4(),
        PowerModel::power4_calibrated(),
        DvfsParams::paper(),
        ClusterTopology::for_cores(combo.cores(), cluster_cores).expect("combo divides"),
        InterconnectConfig::default(),
    )
    .expect("combo and topology agree");
    let _ = sim.run(Micros::new(sim_us * 0.1));

    let start = Instant::now();
    let outcome = sim.run(Micros::new(sim_us));
    let seconds = start.elapsed().as_secs_f64();
    let instructions = outcome.per_core.iter().map(|c| c.instructions).sum();
    Measurement {
        name,
        instructions,
        seconds,
    }
}

/// Synthetic constant-rate traces so the manager-loop measurement has no
/// capture dependency and a deterministic interval count.
fn constant_traces(name: &str, total: u64, bips: f64, power: f64) -> Arc<BenchmarkTraces> {
    let delta = Micros::new(50.0);
    let delta_s = delta.to_seconds().value();
    let traces = PowerMode::ALL
        .map(|mode| {
            let b = bips * mode.bips_scale_bound();
            let p = power * mode.power_scale();
            let per_delta = b * 1.0e9 * delta_s;
            let samples: Vec<TraceSample> = (1..=4000)
                .map(|k| TraceSample {
                    instructions_end: (per_delta * k as f64) as u64,
                    power_w: p,
                    bips: b,
                })
                .collect();
            ModeTrace::new(mode, delta, samples)
        })
        .to_vec();
    Arc::new(BenchmarkTraces::new(name, total, traces).unwrap())
}

/// Manager control-loop throughput over a 4-core synthetic trace sim
/// (~190 explore intervals per run), with or without the guard rails.
/// The two variants bound the guard-rail overhead on the fault-free path:
/// the frame conversion + guard bookkeeping per interval must stay within
/// ~2% of the legacy loop.
fn manager_loop_mips(name: &'static str, guarded: bool, repeats: usize) -> Measurement {
    let traces = || {
        vec![
            constant_traces("a", 180_000_000, 2.0, 20.0),
            constant_traces("b", 45_000_000, 0.5, 12.0),
            constant_traces("c", 135_000_000, 1.5, 17.0),
            constant_traces("d", 90_000_000, 1.0, 14.0),
        ]
    };
    let options = if guarded {
        RunOptions::guarded()
    } else {
        RunOptions::default()
    };
    let schedule = BudgetSchedule::constant(0.8);
    // One untimed run to warm allocator pools and fault the traces in.
    let sim = TraceCmpSim::new(traces(), SimParams::default()).unwrap();
    let _ = GlobalManager::new()
        .run_with(sim, &mut MaxBips::new(), &schedule, &options)
        .unwrap();

    let mut instructions = 0u64;
    let start = Instant::now();
    for _ in 0..repeats {
        let sim = TraceCmpSim::new(traces(), SimParams::default()).unwrap();
        let run = GlobalManager::new()
            .run_with(sim, &mut MaxBips::new(), &schedule, &options)
            .unwrap();
        instructions += run.per_core_instructions.iter().sum::<u64>();
    }
    let seconds = start.elapsed().as_secs_f64();
    Measurement {
        name,
        instructions,
        seconds,
    }
}

/// Serve-path throughput rows: the single-engine drive, the in-process
/// [`ShardedEngine`] at 1 and 4 shards, and the full wire path (loadgen
/// against a loopback TCP server). All in-process variants run
/// interleaved round-robin, best-of-`rounds`, so ambient load biases
/// none of them; the sharded1/direct ratio is the service layer's
/// single-shard neutrality floor (`scripts/bench_check.py` gates it at
/// 0.95 via the recorded `speedup` key). `crates/bench/examples/
/// serve_probe.rs` is the standalone version for longer recording runs.
struct ServeRates {
    direct: f64,
    sharded1: f64,
    sharded4: f64,
    tcp1: f64,
    tcp4: f64,
    p50_tick_ms: f64,
    p99_tick_ms: f64,
}

fn serve_fleet_config(nodes: usize) -> FleetConfig {
    FleetConfig {
        queue_capacity: nodes,
        ..FleetConfig::default()
    }
}

/// Sustained decisions/s of the plain single-engine drive (the
/// `fleet_decisions_10k_nodes` path), measured after a warm rotation.
fn serve_direct_rate(tables: &PhaseTables, nodes: usize, ticks: u64) -> f64 {
    let mut engine = FleetEngine::new(serve_fleet_config(nodes)).expect("config valid");
    for tick in 0..PHASES as u64 {
        for node in 0..nodes as u64 {
            engine.submit(tables.telemetry(node, tick));
        }
        engine.run_tick(tick);
    }
    let start = Instant::now();
    let mut measured = 0u64;
    for tick in 0..ticks {
        let now = PHASES as u64 + tick;
        for node in 0..nodes as u64 {
            engine.submit(tables.telemetry(node, now));
        }
        measured += engine.run_tick(now).len() as u64;
    }
    measured as f64 / start.elapsed().as_secs_f64()
}

/// Sustained decisions/s of the in-process sharded engine at `shards`.
fn serve_sharded_rate(tables: &PhaseTables, shards: usize, nodes: usize, ticks: u64) -> f64 {
    let mut engine =
        ShardedEngine::homogeneous(&serve_fleet_config(nodes), shards).expect("config valid");
    for tick in 0..PHASES as u64 {
        for node in 0..nodes as u64 {
            engine.try_submit(tables.telemetry(node, tick));
        }
        engine.run_tick(tick);
    }
    let start = Instant::now();
    let mut measured = 0u64;
    for tick in 0..ticks {
        let now = PHASES as u64 + tick;
        for node in 0..nodes as u64 {
            engine.try_submit(tables.telemetry(node, now));
        }
        measured += engine.run_tick(now).len() as u64;
    }
    measured as f64 / start.elapsed().as_secs_f64()
}

/// Full wire path: loadgen against a loopback TCP server.
fn serve_loopback_rate(shards: usize, nodes: usize, ticks: u64) -> (f64, f64, f64) {
    let server = Server::bind(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        ServeOptions {
            shards,
            config: serve_fleet_config(nodes),
            once: true,
        },
    )
    .expect("server binds");
    let endpoint = server.local_endpoint();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));
    let report = gpm_net::loadgen::run(
        &endpoint,
        &LoadgenOptions {
            nodes,
            ticks: ticks as usize,
            shutdown: false,
        },
    )
    .expect("loadgen runs");
    handle.join().expect("server thread joins");
    (
        report.decisions_per_sec,
        report.p50_tick_ms,
        report.p99_tick_ms,
    )
}

fn serve_rates(rounds: usize, nodes: usize, ticks: u64) -> ServeRates {
    let tables = PhaseTables::build();
    let mut best = ServeRates {
        direct: 0.0,
        sharded1: 0.0,
        sharded4: 0.0,
        tcp1: 0.0,
        tcp4: 0.0,
        p50_tick_ms: f64::INFINITY,
        p99_tick_ms: f64::INFINITY,
    };
    for _ in 0..rounds {
        best.direct = best.direct.max(serve_direct_rate(&tables, nodes, ticks));
        best.sharded1 = best
            .sharded1
            .max(serve_sharded_rate(&tables, 1, nodes, ticks));
        best.sharded4 = best
            .sharded4
            .max(serve_sharded_rate(&tables, 4, nodes, ticks));
        let (tcp1, p50, p99) = serve_loopback_rate(1, nodes, ticks);
        let (tcp4, _, _) = serve_loopback_rate(4, nodes, ticks);
        best.tcp1 = best.tcp1.max(tcp1);
        best.tcp4 = best.tcp4.max(tcp4);
        if p50 < best.p50_tick_ms {
            best.p50_tick_ms = p50;
            best.p99_tick_ms = p99;
        }
    }
    best
}

/// One policy-decision latency figure: best-of-N wall time per `decide`.
struct DecideMeasurement {
    name: &'static str,
    micros_per_decide: f64,
}

/// Deterministic heterogeneous prediction matrices for the decide
/// benchmarks (the same construction as the solver's pruning test):
/// per-core Turbo rows at 12.0 + (i·7 mod 11)·1.3 W and
/// 0.4 + (i·5 mod 9)·0.35 BIPS, scaled to Eff1/Eff2 by the usual
/// cubic/linear factors, current modes cycling Turbo/Eff1/Eff2 and the
/// budget at 80% of the all-Turbo chip power.
fn decide_fixture(cores: usize) -> (PowerBipsMatrices, ModeCombination, Watts) {
    let power: Vec<[f64; PowerMode::COUNT]> = (0..cores)
        .map(|i| {
            let p = 12.0 + (i * 7 % 11) as f64 * 1.3;
            PowerMode::ALL.map(|m| p * m.power_scale())
        })
        .collect();
    let bips: Vec<[f64; PowerMode::COUNT]> = (0..cores)
        .map(|i| {
            let b = 0.4 + (i * 5 % 9) as f64 * 0.35;
            PowerMode::ALL.map(|m| b * m.bips_scale_bound())
        })
        .collect();
    let budget = Watts::new(0.8 * power.iter().map(|row| row[0]).sum::<f64>());
    let current = (0..cores).map(|i| PowerMode::ALL[i % 3]).collect();
    (PowerBipsMatrices::from_rows(power, bips), current, budget)
}

/// Measures the MaxBIPS decision latency at 8/16/32 cores — the paper's
/// exhaustive 3^N scan (8-way only — 3^16 is already intractable), the
/// exact branch-and-bound that replaced it, and the approximate
/// `GreedyMaxBips` baseline at the wide widths — plus the two-level
/// `HierMaxBips` (water-filling arbiter + per-cluster exact solves) at
/// 256 cores, where the flat exact solver no longer runs at all. All
/// cases run interleaved (round-robin, best-of-`rounds`) so ambient load
/// biases none of them.
fn policy_decides(rounds: usize, inner: usize) -> Vec<DecideMeasurement> {
    let (dvfs, explore) = (DvfsParams::paper(), Micros::new(500.0));
    let fixtures: Vec<_> = [8usize, 16, 32, 256]
        .iter()
        .map(|&n| decide_fixture(n))
        .collect();

    type Case<'a> = (&'static str, Box<dyn FnMut() -> ModeCombination + 'a>);
    let mut cases: Vec<Case<'_>> = Vec::new();
    {
        let (m, cur, budget) = &fixtures[0];
        cases.push((
            "policy_decide_8way_exhaustive",
            Box::new(move || solver::exhaustive(m, cur, *budget, &dvfs, explore)),
        ));
    }
    for (i, label) in [
        (0, "policy_decide_8way_exact"),
        (1, "policy_decide_16way_exact"),
        (2, "policy_decide_32way_exact"),
    ] {
        let (m, cur, budget) = &fixtures[i];
        cases.push((
            label,
            Box::new(move || solver::solve(m, cur, *budget, &dvfs, explore)),
        ));
    }
    for (i, label) in [
        (1, "policy_decide_16way_greedy"),
        (2, "policy_decide_32way_greedy"),
    ] {
        let (m, cur, budget) = &fixtures[i];
        let mut greedy = GreedyMaxBips::new();
        cases.push((
            label,
            Box::new(move || {
                greedy.decide(&PolicyContext {
                    current_modes: cur,
                    matrices: m,
                    future: None,
                    budget: *budget,
                    dvfs: &dvfs,
                    explore,
                })
            }),
        ));
    }
    {
        let (m, cur, budget) = &fixtures[3];
        let mut hier = HierMaxBips::new();
        cases.push((
            "policy_decide_256way_hier",
            Box::new(move || {
                hier.decide(&PolicyContext {
                    current_modes: cur,
                    matrices: m,
                    future: None,
                    budget: *budget,
                    dvfs: &dvfs,
                    explore,
                })
            }),
        ));
    }
    {
        // The memoized hit path on the same 8-way problem the exact row
        // solves: the first (warm-up round) call misses and populates the
        // cache, every timed call is key construction + LRU lookup.
        let (m, cur, budget) = &fixtures[0];
        let mut cache = DecisionCache::new(CacheConfig::default()).expect("default config valid");
        cases.push((
            "policy_decide_8way_cached",
            Box::new(move || cache.solve(m, cur, *budget, &dvfs, explore)),
        ));
    }

    let mut best = vec![f64::INFINITY; cases.len()];
    for round in 0..=rounds {
        for (slot, (_, run)) in cases.iter_mut().enumerate() {
            let start = Instant::now();
            for _ in 0..inner {
                std::hint::black_box(run());
            }
            let per_call = start.elapsed().as_secs_f64() / inner as f64;
            // Round 0 is the warm-up pass; it primes caches and is discarded.
            if round > 0 {
                best[slot] = best[slot].min(per_call);
            }
        }
    }
    cases
        .iter()
        .zip(best)
        .map(|(&(name, _), s)| DecideMeasurement {
            name,
            micros_per_decide: s * 1.0e6,
        })
        .collect()
}

fn main() {
    let quick = std::env::var("GPM_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (core_target, capture_limit, cmp_us, manager_repeats) = if quick {
        (2_000_000, 300_000, 200.0, 2)
    } else {
        (40_000_000, 8_000_000, 2_000.0, 40)
    };

    let measurements = [
        core_stream_mips(SpecBenchmark::Sixtrack, core_target),
        core_stream_mips(SpecBenchmark::Mcf, core_target),
        capture_mips(SpecBenchmark::Sixtrack, capture_limit),
        capture_mips(SpecBenchmark::Mcf, capture_limit),
        cmp_full_mips("cmp_full_2way_gcc_mesa", &combos::gcc_mesa(), 4.0 * cmp_us),
        cmp_full_mips(
            "cmp_full_4way_ammp_mcf_crafty_art",
            &combos::ammp_mcf_crafty_art(),
            2.0 * cmp_us,
        ),
        cmp_full_mips("cmp_full_8way_mixed", &combos::eight_way_mixed(), cmp_us),
        cmp_full_mips(
            "cmp_full_64way_flat",
            &combos::sixty_four_way_mixed(),
            cmp_us / 8.0,
        ),
        cmp_sharded_mips(
            "cmp_full_64way_sharded",
            &combos::sixty_four_way_mixed(),
            8,
            cmp_us / 8.0,
        ),
        manager_loop_mips("manager_fault_free", false, manager_repeats),
        manager_loop_mips("manager_guarded", true, manager_repeats),
    ];

    let (decide_rounds, decide_inner) = if quick { (2, 20) } else { (5, 200) };
    let decides = policy_decides(decide_rounds, decide_inner);

    // Fleet saturating load: phase-replaying nodes against one engine,
    // measured at steady state (warm epoch excluded inside `run`). The
    // armed variant runs the identical load with the chaos layer compiled
    // in and armed but never firing (fault session probes, freshness
    // triage, rack accounting all execute); the armed/disarmed throughput
    // ratio is the fault-free overhead of the fleet hardening.
    let (fleet_nodes, fleet_ticks) = if quick { (1_000, 4) } else { (10_000, 12) };
    let fleet = gpm_experiments::fleet::run(fleet_nodes, fleet_ticks).expect("fleet run");
    let fleet_armed =
        gpm_experiments::fleet::run_armed(fleet_nodes, fleet_ticks).expect("armed fleet run");

    // Serve path: the same saturating load through the sharded service
    // layer (in-process at 1 and 4 shards) and over loopback TCP.
    let serve_rounds = if quick { 1 } else { 3 };
    let serve = serve_rates(serve_rounds, fleet_nodes, fleet_ticks as u64);

    let by_name = |name: &str| {
        measurements
            .iter()
            .find(|m| m.name == name)
            .expect("measured above")
    };

    // Wall-clock equivalent of one 500 µs explore interval: what the
    // full-CMP simulator spends advancing 500 µs of simulated time (8-way
    // figure; a 32-way chip costs ~4× more wall per simulated µs, so this
    // is the conservative bound). A decide latency below it means the
    // policy search is never the simulation bottleneck.
    let cmp8 = by_name("cmp_full_8way_mixed");
    let explore_equiv_us = 500.0 * cmp8.seconds * 1.0e6 / cmp_us;

    let mut json = String::from("{\n");
    for m in &measurements {
        println!("{:<28} {:>9.2} simulated MIPS", m.name, m.mips());
        let _ = writeln!(json, "  \"{}\": {:.2},", m.name, m.mips());
    }
    for d in &decides {
        println!("{:<28} {:>9.2} us/decide", d.name, d.micros_per_decide);
        let _ = writeln!(json, "  \"{}_us\": {:.2},", d.name, d.micros_per_decide);
    }
    let cached = decides
        .iter()
        .find(|d| d.name == "policy_decide_8way_cached")
        .expect("measured above");
    let cached_speedup = decides[1].micros_per_decide / cached.micros_per_decide;
    println!(
        "8-way cached hit path {:.3} us = {cached_speedup:.1}x over the exact solve",
        cached.micros_per_decide
    );
    let _ = writeln!(
        json,
        "  \"decide_8way_cached_speedup\": {cached_speedup:.2},"
    );
    println!(
        "fleet_decisions_{}k_nodes      {:>9.0} decisions/s  hit rate {:.1}%",
        fleet_nodes / 1000,
        fleet.decisions_per_sec,
        100.0 * fleet.hit_rate()
    );
    let _ = writeln!(
        json,
        "  \"fleet_decisions_per_sec\": {:.0},\n  \"fleet_hit_rate\": {:.4},",
        fleet.decisions_per_sec,
        fleet.hit_rate()
    );
    let chaos_ratio = fleet_armed.decisions_per_sec / fleet.decisions_per_sec;
    println!(
        "fleet_chaos_armed_{}k_nodes   {:>9.0} decisions/s  armed/disarmed {:.3}x",
        fleet_nodes / 1000,
        fleet_armed.decisions_per_sec,
        chaos_ratio
    );
    let _ = writeln!(
        json,
        "  \"fleet_chaos_armed_decisions_per_sec\": {:.0},\n  \
         \"fleet_chaos_armed_vs_disarmed_ratio\": {chaos_ratio:.3},",
        fleet_armed.decisions_per_sec
    );

    println!(
        "serve_decisions_{}k_nodes     direct {:.0}  sharded1 {:.0} ({:.3}x)  \
         sharded4 {:.0} ({:.3}x)  tcp1 {:.0}  tcp4 {:.0}  p50 {:.3} ms  p99 {:.3} ms",
        fleet_nodes / 1000,
        serve.direct,
        serve.sharded1,
        serve.sharded1 / serve.direct,
        serve.sharded4,
        serve.sharded4 / serve.direct,
        serve.tcp1,
        serve.tcp4,
        serve.p50_tick_ms,
        serve.p99_tick_ms
    );
    let _ = writeln!(
        json,
        "  \"serve_engine_direct_decisions_per_sec\": {:.0},\n  \
         \"serve_sharded_1_decisions_per_sec\": {:.0},\n  \
         \"serve_sharded_1_vs_engine_speedup\": {:.3},\n  \
         \"serve_sharded_4_decisions_per_sec\": {:.0},\n  \
         \"serve_sharded_4_vs_engine_ratio\": {:.3},\n  \
         \"serve_loopback_tcp_1shard_decisions_per_sec\": {:.0},\n  \
         \"serve_loopback_tcp_4shard_decisions_per_sec\": {:.0},\n  \
         \"serve_loopback_p50_tick_ms\": {:.3},\n  \
         \"serve_loopback_p99_tick_ms\": {:.3},",
        serve.direct,
        serve.sharded1,
        serve.sharded1 / serve.direct,
        serve.sharded4,
        serve.sharded4 / serve.direct,
        serve.tcp1,
        serve.tcp4,
        serve.p50_tick_ms,
        serve.p99_tick_ms
    );

    let speedup = decides[0].micros_per_decide / decides[1].micros_per_decide;
    println!("8-way exact solver speedup over the exhaustive scan: {speedup:.1}x");
    println!(
        "32-way exact decide {:.2} us vs 500 us-explore wall equivalent {:.2} us",
        decides[3].micros_per_decide, explore_equiv_us
    );
    let hier256 = decides
        .iter()
        .find(|d| d.name == "policy_decide_256way_hier")
        .expect("measured above");
    println!(
        "256-way hierarchical decide {:.2} us against the 500 us explore interval",
        hier256.micros_per_decide
    );
    let shard_speedup =
        by_name("cmp_full_64way_sharded").mips() / by_name("cmp_full_64way_flat").mips();
    println!("64-way sharded-vs-flat simulator speedup: {shard_speedup:.2}x");
    let _ = writeln!(
        json,
        "  \"cmp_full_64way_sharding_speedup\": {shard_speedup:.2},"
    );
    let _ = writeln!(json, "  \"decide_8way_exact_speedup\": {speedup:.2},");
    let _ = writeln!(
        json,
        "  \"explore_500us_wall_equivalent_us\": {explore_equiv_us:.2}"
    );
    json.push('}');

    let (ff, guarded) = (
        measurements[measurements.len() - 2].mips(),
        measurements[measurements.len() - 1].mips(),
    );
    println!(
        "guard-rail overhead on the fault-free path: {:+.2}%",
        (ff / guarded - 1.0) * 100.0
    );

    let dir = std::path::Path::new("target").join("gpm-results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join("sim_throughput.json"), &json);
    }
    println!("{json}");
}

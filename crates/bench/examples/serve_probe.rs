//! Isolation probe for the serve-path throughput rows: the single
//! [`FleetEngine`] drive, the in-process [`ShardedEngine`] at 1 and 4
//! shards, and the full wire path (`loadgen` against a loopback TCP
//! server), all interleaved round-robin in one process so ambient load
//! biases none of them. Besides best-of rates it prints the median of
//! each round's own ratios, which a slow or fast round cannot skew.
//!
//! Usage: `cargo run --release -p gpm-bench --example serve_probe
//! [rounds] [nodes] [ticks]` (defaults 4, 10_000, 12).

use std::time::Instant;

use gpm_core::fleet_load::{PhaseTables, PHASES};
use gpm_core::{FleetConfig, FleetEngine};
use gpm_net::{LoadgenOptions, ServeOptions, Server, ShardedEngine};

fn fleet_config(nodes: usize) -> FleetConfig {
    FleetConfig {
        queue_capacity: nodes,
        ..FleetConfig::default()
    }
}

/// Sustained decisions/s of the plain single-engine drive (the
/// `fleet_decisions_10k_nodes` path), measured after a warm rotation.
fn direct_rate(tables: &PhaseTables, nodes: usize, ticks: u64) -> f64 {
    let mut engine = FleetEngine::new(fleet_config(nodes)).expect("config valid");
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
fn sharded_rate(tables: &PhaseTables, shards: usize, nodes: usize, ticks: u64) -> f64 {
    let mut engine =
        ShardedEngine::homogeneous(&fleet_config(nodes), shards).expect("config valid");
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
fn loopback_rate(shards: usize, nodes: usize, ticks: u64) -> (f64, f64, f64) {
    let server = Server::bind(
        &gpm_net::Endpoint::Tcp("127.0.0.1:0".into()),
        ServeOptions {
            shards,
            config: fleet_config(nodes),
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

fn main() {
    let mut argv = std::env::args().skip(1);
    let rounds: usize = argv.next().and_then(|v| v.parse().ok()).unwrap_or(4);
    let nodes: usize = argv.next().and_then(|v| v.parse().ok()).unwrap_or(10_000);
    let ticks: u64 = argv.next().and_then(|v| v.parse().ok()).unwrap_or(12);
    let tables = PhaseTables::build();

    let mut best = [0.0f64; 5];
    let mut best_lat = (f64::INFINITY, f64::INFINITY);
    let mut ratios: [Vec<f64>; 3] = Default::default();
    for round in 0..rounds {
        let direct = direct_rate(&tables, nodes, ticks);
        let sharded1 = sharded_rate(&tables, 1, nodes, ticks);
        let sharded4 = sharded_rate(&tables, 4, nodes, ticks);
        let (tcp1, p50, p99) = loopback_rate(1, nodes, ticks);
        let (tcp4, _, _) = loopback_rate(4, nodes, ticks);
        println!(
            "round {round}: direct {direct:.0}  sharded1 {sharded1:.0}  sharded4 {sharded4:.0}  \
             tcp1 {tcp1:.0}  tcp4 {tcp4:.0}  p50 {p50:.3} ms  p99 {p99:.3} ms"
        );
        for (slot, rate) in [direct, sharded1, sharded4, tcp1, tcp4]
            .into_iter()
            .enumerate()
        {
            if rate > best[slot] {
                best[slot] = rate;
            }
        }
        if p50 < best_lat.0 {
            best_lat = (p50, p99);
        }
        ratios[0].push(sharded1 / direct);
        ratios[1].push(sharded4 / direct);
        ratios[2].push(tcp4 / tcp1);
    }
    let median = |values: &mut Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    println!(
        "best-of-{rounds}: direct {:.0}  sharded1 {:.0} ({:.3}x)  sharded4 {:.0} ({:.3}x)  \
         tcp1 {:.0} ({:.3}x)  tcp4 {:.0}  p50 {:.3} ms  p99 {:.3} ms",
        best[0],
        best[1],
        best[1] / best[0],
        best[2],
        best[2] / best[0],
        best[3],
        best[3] / best[0],
        best[4],
        best_lat.0,
        best_lat.1,
    );
    println!(
        "median in-round ratio of {rounds}: sharded1/direct {:.3}  sharded4/direct {:.3}  \
         tcp4/tcp1 {:.3}",
        median(&mut ratios[0]),
        median(&mut ratios[1]),
        median(&mut ratios[2]),
    );
}

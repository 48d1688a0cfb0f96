//! Isolation probe for the budget-interval decision memo: a churned
//! 10k-node fleet and the warm 8-way cached decide, one process per
//! invocation.
//!
//! The fleet is the `fleet_decisions_10k_nodes` load (64 families × 4
//! phases of 8/16/32-way chips) with a seeded tenth of the nodes
//! reporting a budget rescaled to 75–95% every tick, the way a rack
//! manager moves budgets. Each churned report is a problem the cache has
//! seen at some other budget. After an 8-tick warm-up, `ticks` measured
//! ticks report decisions/s (telemetry, submit and `run_tick`), mean
//! and p90 `run_tick` milliseconds, fresh solves per tick and the hit ratio
//! (`(cache_hits + dedup_hits) / decisions_total` over the window). The
//! cached decide row is the `policy_decide_8way_cached` case of
//! `benches/sim_throughput.rs`: `DecisionCache::solve` on the 8-way decide
//! fixture, best of `rounds` × 20 000 calls after one warm-up round.
//!
//! Prints one JSON line per invocation. Usage: `cargo run --release -p
//! gpm-bench --example budget_churn [seed] [ticks]` (defaults 1, 40).

use std::time::Instant;

use gpm_core::fleet_load::PhaseTables;
use gpm_core::{CacheConfig, DecisionCache, FleetConfig, FleetEngine, PowerBipsMatrices};
use gpm_power::DvfsParams;
use gpm_types::{splitmix64, Micros, ModeCombination, PowerMode, Watts};

const NODES: u64 = 10_000;
const WARM_TICKS: u64 = 8;

/// The budget factor `node` reports with at `tick`: in `[0.75, 0.95)`
/// for a seeded tenth of the nodes, `None` for the rest.
fn churn_factor(seed: u64, tick: u64, node: u64) -> Option<f64> {
    let draw = splitmix64(splitmix64(splitmix64(seed) ^ tick) ^ node);
    if !draw.is_multiple_of(10) {
        return None;
    }
    let unit = (splitmix64(draw) >> 11) as f64 / (1u64 << 53) as f64;
    Some(0.75 + 0.2 * unit)
}

/// The 8-way decide fixture of `benches/sim_throughput.rs`.
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

/// Best-of microseconds per warm `DecisionCache::solve` on the fixture.
fn cached_decide_us(rounds: usize, inner: usize) -> f64 {
    let (m, current, budget) = decide_fixture(8);
    let (dvfs, explore) = (DvfsParams::paper(), Micros::new(500.0));
    let mut cache = DecisionCache::new(CacheConfig::default()).expect("default config valid");
    let mut best = f64::INFINITY;
    for round in 0..=rounds {
        let start = Instant::now();
        for _ in 0..inner {
            std::hint::black_box(cache.solve(&m, &current, budget, &dvfs, explore));
        }
        if round > 0 {
            best = best.min(start.elapsed().as_secs_f64() / inner as f64);
        }
    }
    best * 1e6
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);
    let ticks: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);
    let tables = PhaseTables::build();
    let mut engine = FleetEngine::new(FleetConfig {
        queue_capacity: NODES as usize,
        ..FleetConfig::default()
    })
    .expect("config valid");
    let drive = |engine: &mut FleetEngine, tick: u64| {
        for node in 0..NODES {
            let mut report = tables.telemetry(node, tick);
            if let Some(factor) = churn_factor(seed, tick, node) {
                report.budget = Watts::new(report.budget.value() * factor);
            }
            engine.submit(report);
        }
        let start = Instant::now();
        let decided = engine.run_tick(tick).len() as u64;
        (decided, start.elapsed().as_secs_f64())
    };
    for tick in 0..WARM_TICKS {
        drive(&mut engine, tick);
    }
    let before = engine.stats();
    let mut tick_s = Vec::with_capacity(ticks as usize);
    let mut decided = 0u64;
    let start = Instant::now();
    for tick in WARM_TICKS..WARM_TICKS + ticks {
        let (n, s) = drive(&mut engine, tick);
        decided += n;
        tick_s.push(s);
    }
    let wall = start.elapsed().as_secs_f64();
    let after = engine.stats();
    tick_s.sort_by(f64::total_cmp);
    let mean_ms = 1e3 * tick_s.iter().sum::<f64>() / tick_s.len() as f64;
    let p90_ms = 1e3 * tick_s[(tick_s.len() * 9 / 10).min(tick_s.len() - 1)];
    let total = after.decisions_total - before.decisions_total;
    let avoided = after.cache_hits + after.dedup_hits - before.cache_hits - before.dedup_hits;
    let solves = after.unique_solves - before.unique_solves;
    println!(
        "{{\"seed\":{seed},\"decisions_per_sec\":{:.0},\"run_tick_ms\":{mean_ms:.3},\
         \"run_tick_p90_ms\":{p90_ms:.3},\"unique_solves_per_tick\":{:.1},\
         \"hit_ratio\":{:.4},\"cached_decide_us\":{:.4}}}",
        decided as f64 / wall,
        solves as f64 / ticks as f64,
        avoided as f64 / total as f64,
        cached_decide_us(5, 20_000),
    );
}

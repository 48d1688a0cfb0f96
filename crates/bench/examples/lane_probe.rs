//! Isolation probe: decompose lane-kernel overhead — scalar engine vs a
//! 1-lane batch vs an 8-lane batch on independent streams. Not part of
//! the recorded suite.

use std::time::Instant;

use gpm_microarch::{CoreConfig, CoreModel, IntervalStats, LaneBatch, PrivateMemory};
use gpm_types::Hertz;
use gpm_workloads::SpecBenchmark;

const WARM: u64 = 3_000_000;
const RUN: u64 = 60_000_000;

fn main() {
    let config = CoreConfig::power4();
    let freq = Hertz::from_ghz(1.0);
    let benches = [
        SpecBenchmark::Sixtrack,
        SpecBenchmark::Mcf,
        SpecBenchmark::Gcc,
        SpecBenchmark::Mesa,
        SpecBenchmark::Ammp,
        SpecBenchmark::Crafty,
        SpecBenchmark::Art,
        SpecBenchmark::Gap,
    ];

    // Scalar reference: one core, one stream.
    let mut core = CoreModel::new(&config, freq).unwrap();
    let mut stream = benches[0].stream();
    let _ = core.run_cycles(&mut stream, WARM);
    let start = Instant::now();
    let stats = core.run_cycles(&mut stream, RUN);
    let secs = start.elapsed().as_secs_f64();
    println!(
        "scalar_1core:   {:.2} simulated MIPS",
        stats.instructions as f64 / secs / 1.0e6
    );

    // 1-lane batch, same stream.
    for (label, lanes) in [("batch_1lane: ", 1usize), ("batch_8lane: ", 8)] {
        let freqs = vec![freq; lanes];
        let mut batch = LaneBatch::new(&config, &freqs).unwrap();
        let mut sources: Vec<_> = benches[..lanes].iter().map(|b| b.stream()).collect();
        let mut memories: Vec<_> = (0..lanes)
            .map(|_| PrivateMemory::new(&config).unwrap())
            .collect();
        let mut total = vec![IntervalStats::default(); lanes];
        batch.step_lanes(&mut sources, &mut memories, &vec![WARM; lanes], |_, _| None);
        let start = Instant::now();
        batch.step_lanes(&mut sources, &mut memories, &vec![RUN; lanes], |lane, s| {
            total[lane] = *s;
            None
        });
        let secs = start.elapsed().as_secs_f64();
        let instructions: u64 = total.iter().map(|s| s.instructions).sum();
        println!(
            "  {label} {:.2} simulated MIPS",
            instructions as f64 / secs / 1.0e6
        );
    }
}

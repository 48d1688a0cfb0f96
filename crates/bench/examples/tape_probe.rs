//! Memory probe for the shared instruction tape: cold-captures one 2-way
//! pair at the 500k-instruction cap the `chip_path` benchmark uses, then
//! prints the process's peak resident set (`VmHWM`) and the bytes each
//! benchmark's tape maps.
//!
//! ```bash
//! cargo run --release -p gpm-bench --example tape_probe [pair-index]
//! ```
//!
//! `pair-index` picks a pair of `combos::two_way_suite()` (default 0).
//! The tape figure re-reads a private tape as the capture does: each
//! mode's warm-up on its own core, then the longest mode run. It counts
//! whole 64 Ki-op blocks, the unit a tape maps.

use gpm_microarch::{CoreModel, InstructionSource, MicroOp};
use gpm_trace::{CaptureConfig, TraceStore};
use gpm_types::PowerMode;
use gpm_workloads::{combos, SharedTape};

/// The instruction cap of `chip_path`'s capture step.
const CAPTURE_LIMIT: u64 = 500_000;

/// A `kB` line of `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn print_memory(when: &str) {
    let show = |v: Option<f64>| v.map_or_else(|| "n/a".to_owned(), |m| format!("{m:.1} MiB"));
    println!(
        "{when}: VmHWM {}, VmRSS {}",
        show(status_mib("VmHWM:")),
        show(status_mib("VmRSS:"))
    );
}

fn main() {
    let index: usize = std::env::args()
        .nth(1)
        .map_or(0, |a| a.parse().expect("pair index must be a number"));
    let pairs = combos::two_way_suite();
    let pair = &pairs[index % pairs.len()];
    let config = CaptureConfig::fast(CAPTURE_LIMIT);
    println!(
        "MicroOp: {} bytes; pair {}: {}",
        std::mem::size_of::<MicroOp>(),
        index % pairs.len(),
        pair.label()
    );

    print_memory("before capture");
    let traces = TraceStore::new(config.clone())
        .combo(pair)
        .expect("suite pairs capture");
    print_memory("after capture");

    for (bench, traces) in pair.benchmarks().iter().zip(&traces) {
        let tape = SharedTape::new(bench.stream());
        for mode in PowerMode::ALL {
            let freq = config.dvfs.frequency(mode);
            let mut core = CoreModel::new(&config.core, freq).expect("valid core");
            let _ = core.run_cycles(&mut tape.reader(), config.warmup_cycles);
        }
        let run_ops = PowerMode::ALL
            .map(|m| traces.trace(m).total_instructions())
            .into_iter()
            .max()
            .unwrap_or(0);
        let mut reader = tape.reader();
        let mut left = run_ops;
        while left > 0 {
            let n = reader
                .borrow_ops(left as usize)
                .expect("tapes lend blocks")
                .len();
            reader.consume_ops(n);
            left -= n as u64;
        }
        let ops = tape.generated();
        println!(
            "{}: tape {ops} ops, {:.1} MiB mapped (longest run {run_ops} ops)",
            bench.name(),
            (ops * std::mem::size_of::<MicroOp>()) as f64 / (1024.0 * 1024.0)
        );
    }
}

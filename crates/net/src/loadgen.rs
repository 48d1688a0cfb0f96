//! The `gpm loadgen` client: drives a serve endpoint with the same
//! phase-repeating synthetic fleet the in-process tier replays
//! ([`gpm_core::fleet_load`]), so a loadgen report and a
//! `gpm figure fleet --json` report describe the same traffic and can be
//! diffed by scripts.
//!
//! Each tick: encode every node's telemetry, send it with a `TickEnd`
//! cut, then read decisions until the server's `TickDone`. A warm epoch
//! of [`PHASES`] ticks populates the shard caches and is excluded from
//! measurement, exactly like the in-process tier; the measured epoch
//! reports sustained decisions/s and p50/p99 per-tick latency.

use std::io::{BufReader, BufWriter};
use std::time::Instant;

use gpm_core::fleet_load::{PhaseTables, PHASES};
use gpm_types::{GpmError, Result};
use serde::Serialize;

use crate::server::{connect, Endpoint};
use crate::wire::{
    encode_shutdown, encode_stats_request, encode_telemetry, encode_tick_end, write_all, Frame,
    FrameReader,
};

/// Loadgen run shape.
pub struct LoadgenOptions {
    /// Nodes submitted per tick.
    pub nodes: usize,
    /// Measured ticks (a [`PHASES`]-tick warm epoch runs first).
    pub ticks: usize,
    /// Send a `Shutdown` frame when done, stopping the server.
    pub shutdown: bool,
}

/// What one loadgen run measured (measured epoch only).
#[derive(Debug, Clone, Serialize)]
pub struct LoadgenReport {
    /// Nodes submitted per tick.
    pub nodes: usize,
    /// Measured ticks.
    pub ticks: usize,
    /// Decisions received during the measured epoch.
    pub decisions: u64,
    /// Submissions the server did not queue (backpressure or validation)
    /// during the measured epoch, summed from its `TickDone` frames.
    pub rejected: u64,
    /// Wall seconds the measured epoch took.
    pub elapsed_seconds: f64,
    /// Sustained decisions per second over the measured epoch.
    pub decisions_per_sec: f64,
    /// Median per-tick latency (submit-to-`TickDone`), milliseconds.
    pub p50_tick_ms: f64,
    /// 99th-percentile per-tick latency, milliseconds.
    pub p99_tick_ms: f64,
    /// The server's aggregated accounting (a `ServeStats` JSON
    /// document), fetched after the measured epoch.
    pub server_stats: String,
}

/// Submits one tick's telemetry, cuts it and drains the decision stream
/// until the server's `TickDone`; returns `(decisions, rejected)`.
fn drive_tick(
    tables: &PhaseTables,
    nodes: usize,
    tick: u64,
    out: &mut Vec<u8>,
    writer: &mut BufWriter<crate::server::ClientStream>,
    reader: &mut FrameReader<BufReader<crate::server::ClientStream>>,
) -> Result<(u64, u64)> {
    out.clear();
    for node in 0..nodes as u64 {
        encode_telemetry(&tables.telemetry(node, tick), out);
    }
    encode_tick_end(tick, out);
    write_all(writer, out)?;
    let mut decisions = 0u64;
    loop {
        match reader.read()? {
            Some(Frame::Decision(_)) => decisions += 1,
            Some(Frame::TickDone {
                tick: done_tick,
                rejected,
                ..
            }) => {
                if done_tick != tick {
                    return Err(GpmError::Wire(format!(
                        "tick-done for tick {done_tick} while driving tick {tick}"
                    )));
                }
                return Ok((decisions, rejected));
            }
            Some(other) => {
                return Err(GpmError::Wire(format!(
                    "unexpected frame {other:?} while awaiting tick {tick}"
                )));
            }
            None => {
                return Err(GpmError::Wire(format!(
                    "server closed the stream mid-tick {tick}"
                )));
            }
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Runs the load: `nodes × (PHASES + ticks)` telemetry frames against
/// `endpoint`, measuring the post-warm epoch.
///
/// # Errors
///
/// Rejects degenerate sizes; propagates connect, transport and protocol
/// errors.
pub fn run(endpoint: &Endpoint, options: &LoadgenOptions) -> Result<LoadgenReport> {
    if options.nodes == 0 || options.ticks == 0 {
        return Err(GpmError::InvalidConfig {
            parameter: "loadgen.size",
            reason: "loadgen needs at least one node and one tick".into(),
        });
    }
    let tables = PhaseTables::build();
    let stream = connect(endpoint)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = FrameReader::new(BufReader::new(stream));
    let mut out = Vec::new();

    // Warm epoch: one full phase rotation populates the shard caches.
    for tick in 0..PHASES as u64 {
        drive_tick(
            &tables,
            options.nodes,
            tick,
            &mut out,
            &mut writer,
            &mut reader,
        )?;
    }

    let mut decisions = 0u64;
    let mut rejected = 0u64;
    let mut tick_ms = Vec::with_capacity(options.ticks);
    let start = Instant::now();
    for tick in 0..options.ticks as u64 {
        let tick_start = Instant::now();
        let (got, rej) = drive_tick(
            &tables,
            options.nodes,
            PHASES as u64 + tick,
            &mut out,
            &mut writer,
            &mut reader,
        )?;
        tick_ms.push(tick_start.elapsed().as_secs_f64() * 1e3);
        decisions += got;
        rejected += rej;
    }
    let elapsed_seconds = start.elapsed().as_secs_f64();

    // Fetch the server's view of the run before (optionally) stopping it.
    out.clear();
    encode_stats_request(&mut out);
    write_all(&mut writer, &out)?;
    let server_stats = match reader.read()? {
        Some(Frame::Stats(json)) => json,
        other => {
            return Err(GpmError::Wire(format!(
                "expected a stats frame, got {other:?}"
            )));
        }
    };
    if options.shutdown {
        out.clear();
        encode_shutdown(&mut out);
        write_all(&mut writer, &out)?;
    }

    tick_ms.sort_by(f64::total_cmp);
    Ok(LoadgenReport {
        nodes: options.nodes,
        ticks: options.ticks,
        decisions,
        rejected,
        elapsed_seconds,
        decisions_per_sec: if elapsed_seconds > 0.0 {
            decisions as f64 / elapsed_seconds
        } else {
            0.0
        },
        p50_tick_ms: percentile(&tick_ms, 0.50),
        p99_tick_ms: percentile(&tick_ms, 0.99),
        server_stats,
    })
}

impl LoadgenReport {
    /// Human-readable rendering for the CLI.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "Loadgen: {} nodes x {} ticks over the wire\n\
             decisions       {:>12}   sustained {:.0} decisions/s\n\
             tick latency    {:>9.3}ms p50, {:.3}ms p99\n\
             rejected        {:>12}   (backpressure or invalid)\n",
            self.nodes,
            self.ticks,
            self.decisions,
            self.decisions_per_sec,
            self.p50_tick_ms,
            self.p99_tick_ms,
            self.rejected,
        )
    }

    /// Machine-readable rendering for `--json` (the server's own stats
    /// document embedded as a string field).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("LoadgenReport serializes")
    }
}

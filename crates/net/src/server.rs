//! The `gpm serve` server: a listener (TCP or Unix socket) in front of a
//! [`ShardedEngine`].
//!
//! Connections are served sequentially — one loadgen client drives one
//! tick stream at a time, which is the fleet protocol's natural shape
//! (telemetry is batched per tick and the tick barrier is global). The
//! shutdown path is protocol-level: a `Shutdown` frame stops the server
//! after the current connection, and `--once` stops it after the first
//! client disconnects, so scripts get a clean exit without any signal
//! handling.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

use gpm_core::{FleetConfig, FleetStats};
use gpm_types::{GpmError, Result};
use serde::Serialize;

use crate::shard::ShardedEngine;
use crate::wire::{encode_decision, encode_stats, encode_tick_done, write_all, Frame, FrameReader};

/// Where the server listens or the client connects: `tcp:HOST:PORT`,
/// `unix:PATH`, or a bare `HOST:PORT` (TCP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`host:port`; port 0 binds an ephemeral port).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an endpoint spec.
    ///
    /// # Errors
    ///
    /// Rejects empty hosts/paths.
    pub fn parse(spec: &str) -> Result<Self> {
        let reject = |reason: &str| {
            Err(GpmError::InvalidConfig {
                parameter: "endpoint",
                reason: format!("`{spec}`: {reason}"),
            })
        };
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return reject("unix endpoint needs a socket path");
            }
            return Ok(Self::Unix(PathBuf::from(path)));
        }
        let addr = spec.strip_prefix("tcp:").unwrap_or(spec);
        if addr.is_empty() || !addr.contains(':') {
            return reject("tcp endpoint needs host:port");
        }
        Ok(Self::Tcp(addr.to_owned()))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Tcp(addr) => write!(f, "tcp:{addr}"),
            Self::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Aggregated service accounting, the JSON body of a `Stats` frame.
#[derive(Debug, Clone, Serialize)]
pub struct ServeStats {
    /// Shard count the server runs with.
    pub shards: usize,
    /// Submissions the service did not queue, for backpressure (a full
    /// shard queue) or validation, counted at every shard count.
    pub router_rejected: u64,
    /// Every shard's engine accounting, merged.
    pub fleet: FleetStats,
}

/// Server configuration beyond the [`FleetConfig`] each shard gets.
pub struct ServeOptions {
    /// Shard count: the number of engines the reports are partitioned
    /// across. Their ticks run on the `gpm-par` pool, so the thread count
    /// stays bounded by `GPM_THREADS`. Must be at least 1.
    pub shards: usize,
    /// Per-shard engine configuration. A whole-rack budget should be
    /// divided by `shards` before it goes in here (the CLI does this),
    /// since every shard enforces its rack config independently.
    pub config: FleetConfig,
    /// Exit after the first client disconnects (scripted smoke runs).
    pub once: bool,
}

/// What the server did before exiting cleanly.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSummary {
    /// Connections served.
    pub connections: u64,
    /// Ticks cut across all connections.
    pub ticks: u64,
    /// Decisions streamed across all connections.
    pub decisions: u64,
    /// Final aggregated accounting.
    pub stats: ServeStats,
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Waits for the next client.
    fn accept(&self) -> Result<ClientStream> {
        match self {
            Self::Tcp(listener) => listener
                .accept()
                .map(|(stream, _)| ClientStream::Tcp(stream))
                .map_err(|err| io_err("accepting tcp connection", err)),
            Self::Unix(listener, _) => listener
                .accept()
                .map(|(stream, _)| ClientStream::Unix(stream))
                .map_err(|err| io_err("accepting unix connection", err)),
        }
    }
}

/// A bound fleet decision server. Binding and running are split so
/// callers (the CLI, tests, CI scripts) can learn the actual bound
/// address — `tcp:host:0` binds an ephemeral port — before serving.
pub struct Server {
    listener: Listener,
    engine: ShardedEngine,
    once: bool,
}

fn io_err(context: &str, err: std::io::Error) -> GpmError {
    GpmError::Wire(format!("{context}: {err}"))
}

impl Server {
    /// Binds the endpoint and builds the sharded engine.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, a zero shard count and engine-config
    /// errors. An existing file at a Unix socket path is removed first
    /// (stale socket from a previous run).
    pub fn bind(endpoint: &Endpoint, options: ServeOptions) -> Result<Self> {
        let engine = ShardedEngine::homogeneous(&options.config, options.shards)?;
        let listener = match endpoint {
            Endpoint::Tcp(addr) => Listener::Tcp(
                TcpListener::bind(addr.as_str())
                    .map_err(|err| io_err(&format!("binding tcp:{addr}"), err))?,
            ),
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)
                        .map_err(|err| io_err("removing stale unix socket", err))?;
                }
                Listener::Unix(
                    UnixListener::bind(path)
                        .map_err(|err| io_err(&format!("binding unix:{}", path.display()), err))?,
                    path.clone(),
                )
            }
        };
        Ok(Self {
            listener,
            engine,
            once: options.once,
        })
    }

    /// The actually-bound endpoint (ephemeral TCP ports resolved).
    #[must_use]
    pub fn local_endpoint(&self) -> Endpoint {
        match &self.listener {
            Listener::Tcp(listener) => Endpoint::Tcp(
                listener
                    .local_addr()
                    .map(|addr| addr.to_string())
                    .unwrap_or_default(),
            ),
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        }
    }

    /// Serves connections sequentially until a `Shutdown` frame arrives
    /// (or, with `once`, until the first client disconnects).
    ///
    /// # Errors
    ///
    /// Propagates accept failures; per-connection protocol errors end
    /// that connection (the offending peer cannot be trusted to resync a
    /// length-prefixed stream) but not the server.
    pub fn run(mut self) -> Result<ServeSummary> {
        let mut connections = 0u64;
        let mut ticks = 0u64;
        let mut decisions = 0u64;
        let mut shutdown = false;
        while !shutdown {
            let outcome = serve_connection(self.listener.accept()?, &mut self.engine);
            connections += 1;
            match outcome {
                Ok(conn) => {
                    ticks += conn.ticks;
                    decisions += conn.decisions;
                    shutdown = conn.shutdown;
                }
                // A protocol violation poisons only its connection: the
                // stream cannot be resynchronised, the engine state can.
                Err(GpmError::Wire(_)) => {}
                Err(err) => return Err(err),
            }
            if self.once {
                shutdown = true;
            }
        }
        let stats = ServeStats {
            shards: self.engine.shards(),
            router_rejected: self.engine.router_rejected(),
            fleet: self.engine.stats(),
        };
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(ServeSummary {
            connections,
            ticks,
            decisions,
            stats,
        })
    }
}

struct ConnectionSummary {
    ticks: u64,
    decisions: u64,
    shutdown: bool,
}

/// Drives one client connection through the tick protocol.
fn serve_connection(stream: ClientStream, engine: &mut ShardedEngine) -> Result<ConnectionSummary> {
    let writer_half = stream.try_clone()?;
    let mut reader = FrameReader::new(BufReader::new(stream));
    let mut writer = BufWriter::new(writer_half);
    let mut out = Vec::new();
    let mut summary = ConnectionSummary {
        ticks: 0,
        decisions: 0,
        shutdown: false,
    };
    let mut rejected_before = engine.router_rejected();
    while let Some(frame) = reader.read()? {
        match frame {
            Frame::Telemetry(telemetry) => {
                engine.try_submit(telemetry);
            }
            Frame::TickEnd { tick } => {
                let batch = engine.run_tick(tick);
                summary.ticks += 1;
                summary.decisions += batch.len() as u64;
                out.clear();
                for decision in &batch {
                    encode_decision(decision, &mut out);
                }
                let rejected_now = engine.router_rejected();
                encode_tick_done(
                    tick,
                    batch.len() as u64,
                    rejected_now - rejected_before,
                    &mut out,
                );
                rejected_before = rejected_now;
                write_all(&mut writer, &out)?;
            }
            Frame::StatsRequest => {
                let stats = ServeStats {
                    shards: engine.shards(),
                    router_rejected: engine.router_rejected(),
                    fleet: engine.stats(),
                };
                let json = serde_json::to_string(&stats)
                    .map_err(|err| GpmError::Wire(format!("encoding stats: {err}")))?;
                out.clear();
                encode_stats(&json, &mut out);
                write_all(&mut writer, &out)?;
            }
            Frame::Shutdown => {
                summary.shutdown = true;
                break;
            }
            Frame::Decision(_) | Frame::TickDone { .. } | Frame::Stats(_) => {
                return Err(GpmError::Wire(
                    "client sent a server-to-client frame".into(),
                ));
            }
        }
    }
    Ok(summary)
}

/// Connects to a serve endpoint, returning a unified stream for the
/// client side.
///
/// # Errors
///
/// Propagates connect failures as [`GpmError::Wire`].
pub fn connect(endpoint: &Endpoint) -> Result<ClientStream> {
    match endpoint {
        Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str())
            .map(ClientStream::Tcp)
            .map_err(|err| io_err(&format!("connecting to tcp:{addr}"), err)),
        Endpoint::Unix(path) => UnixStream::connect(path)
            .map(ClientStream::Unix)
            .map_err(|err| io_err(&format!("connecting to unix:{}", path.display()), err)),
    }
}

/// One connection's transport, on either side: TCP or Unix, one
/// `Read + Write` surface.
pub enum ClientStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-socket connection.
    Unix(UnixStream),
}

impl ClientStream {
    /// Splits off an independently-owned handle to the same connection.
    ///
    /// # Errors
    ///
    /// Propagates the OS clone failure as [`GpmError::Wire`].
    pub fn try_clone(&self) -> Result<Self> {
        match self {
            Self::Tcp(stream) => stream
                .try_clone()
                .map(Self::Tcp)
                .map_err(|err| io_err("cloning tcp stream", err)),
            Self::Unix(stream) => stream
                .try_clone()
                .map(Self::Unix)
                .map_err(|err| io_err("cloning unix stream", err)),
        }
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(stream) => stream.read(buf),
            Self::Unix(stream) => stream.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(stream) => stream.write(buf),
            Self::Unix(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Self::Tcp(stream) => stream.flush(),
            Self::Unix(stream) => stream.flush(),
        }
    }
}

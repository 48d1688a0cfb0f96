//! The fleet decision *service*: the network layer in front of the
//! in-process [`FleetEngine`](gpm_core::FleetEngine).
//!
//! The ROADMAP's fleet north-star is GPM as a long-running service under
//! heavy traffic. PRs 8–9 built the in-process half; this crate adds the
//! wire: a compact length-prefixed binary protocol ([`wire`]), a
//! node-sharded server ([`server`], [`shard`]) and a loadgen client
//! ([`loadgen`]) that replays the same phase-repeating synthetic fleet
//! as the in-process tier.
//!
//! Why shard: a single engine's tick runs serial leader cache probes and
//! a serial miss-insert replay. "Scaling Turbo Boost to a 1000 cores"
//! makes the argument at the chip level that applies here at the fleet
//! level — a flat single-arbiter manager stops scaling. [`node_shard`]
//! (one splitmix64 finalizer round modulo the shard count,
//! re-exported from `gpm_core`) routes each node to one of K private
//! engines, whose ticks run concurrently on the `gpm-par` pool while every
//! determinism pin of the engine survives (see [`shard`] for the
//! argument).
//!
//! Transport is `std::net` TCP plus Unix-domain sockets only, consistent
//! with the workspace's vendored-offline policy: no async runtime, no
//! network dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;
pub mod server;
pub mod shard;
pub mod wire;

pub use gpm_core::node_shard;
pub use loadgen::{LoadgenOptions, LoadgenReport};
pub use server::{connect, ClientStream, Endpoint, ServeOptions, ServeStats, ServeSummary, Server};
pub use shard::ShardedEngine;
pub use wire::{
    decode_frame, encode_frame, Frame, FrameReader, MAX_FRAME_BYTES, MAX_WIRE_CORES, WIRE_VERSION,
};

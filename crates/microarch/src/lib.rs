//! An out-of-order, POWER4/5-class core timing model — the workspace's
//! stand-in for IBM's Turandot simulator.
//!
//! The model is *instruction-driven with cycle accounting* (interval-style):
//! every micro-op flows through a dataflow scoreboard that models
//!
//! * dispatch bandwidth (5 instructions per cycle, Table 1 of the paper),
//! * a reorder-buffer window that bounds in-flight work and therefore
//!   memory-level parallelism,
//! * functional-unit contention (2 LSU, 2 FXU, 2 FPU, 1 BRU),
//! * a real bimodal + gshare + selector branch predictor (16K entries each)
//!   with pipeline-refill penalties on mispredictions,
//! * real set-associative L1I/L1D/L2 cache tag arrays with LRU replacement,
//!   backed by a fixed-latency memory.
//!
//! Per-instruction cost is O(1), so the model simulates tens of millions of
//! instructions per second — fast enough to regenerate every experiment in
//! the paper from scratch — while still *exercising real structures* rather
//! than sampling from closed-form distributions.
//!
//! # DVFS behaviour
//!
//! A [`CoreModel`] is instantiated at a concrete clock frequency. Latencies
//! inside the core clock domain (L1 hit, FXU/FPU/BRU latency, refill) are
//! constant in *cycles*; the shared L2 and memory live in asynchronous
//! domains, so their latencies are constant in *nanoseconds* and are
//! re-expressed in core cycles per mode. Running the same instruction stream
//! at 0.85 f therefore hurts compute-bound code by ≈15% but memory-bound code
//! far less — the core effect the paper's mode-selection policies exploit.
//!
//! # Examples
//!
//! ```
//! use gpm_microarch::{CoreConfig, CoreModel, InstructionSource, MicroOp};
//! use gpm_types::Hertz;
//!
//! /// A trivial stream of independent integer ops.
//! struct Ones;
//! impl InstructionSource for Ones {
//!     fn next_op(&mut self) -> MicroOp {
//!         MicroOp::int_alu(None)
//!     }
//! }
//!
//! let config = CoreConfig::power4();
//! let mut core = CoreModel::new(&config, Hertz::from_ghz(1.0))?;
//! let stats = core.run_cycles(&mut Ones, 10_000);
//! // A pure integer stream saturates the two fixed-point units: IPC ≈ 2.
//! assert!(stats.ipc() > 1.8);
//! # Ok::<(), gpm_types::GpmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod cache;
mod config;
mod core_model;
mod deferred;
mod op;
mod prefetch;
mod stats;

pub use branch::{BranchPredictor, PredictorConfig};
pub use cache::{AccessOutcome, CacheConfig, SetAssocCache};
pub use config::{CoreConfig, MemoryConfig};
pub use core_model::{AccessKind, CoreModel, MemorySubsystem, PrivateMemory};
pub use deferred::{DeferredL2, L2Request};
pub use op::{InstructionSource, MicroOp, OpKind};
pub use prefetch::StreamPrefetcher;
pub use stats::{ActivityFactors, IntervalStats};

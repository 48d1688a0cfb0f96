//! A shared, append-only recording of a deterministic instruction stream.
//!
//! Capturing a benchmark's per-mode traces replays the *same* op sequence
//! through three differently-clocked cores (plus once more per warm-up).
//! Generating that sequence is as expensive as simulating it, so paying it
//! once and replaying from memory roughly halves end-to-end capture time:
//! a [`SharedTape`] wraps the generator, materialises ops on first demand,
//! and hands out any number of independent [`TapeReader`] cursors.
//!
//! Readers see exactly the ops the wrapped stream would have produced — the
//! tape's content is determined by position alone, so concurrent readers
//! (e.g. per-mode captures running on the `gpm_par` pool) cannot perturb it.
//!
//! # Storage layout
//!
//! The recording is a sequence of immutable fixed-size blocks
//! ([`TAPE_BLOCK`] ops each) behind `Arc`s. A reader caches the `Arc` of
//! the block its cursor is in, so steady-state delivery — including the
//! zero-copy [`borrow_ops`](InstructionSource::borrow_ops) path the core's
//! run loops prefer — touches no lock at all: the tape's mutex is taken
//! only when a cursor crosses into a block it has not cached (once per
//! [`TAPE_BLOCK`] ops), where the block is generated if it does not exist
//! yet. A block is 1 MiB: [`MicroOp`] packs each op into 16 bytes.

use std::sync::{Arc, Mutex};

use gpm_microarch::{InstructionSource, MicroOp};

use crate::WorkloadStream;

/// Ops per materialised tape block (1 MiB of 16-byte ops): large enough
/// that the once-per-block lock and `Arc` clone are invisible, small enough
/// that generating a block ahead of demand is negligible against a full
/// capture.
const TAPE_BLOCK: usize = 65_536;

/// Retired tape blocks kept alive for reuse. A full capture tape runs to
/// hundreds of megabytes, and glibc returns freed blocks that large to the
/// kernel, so without recycling every capture re-pays first-touch page
/// faults across the whole recording (~20 ns/op on a 4 KiB-page host).
/// Keeping a bounded number of blocks mapped turns that into a one-time
/// cost per process.
static POOL: Mutex<Vec<Vec<MicroOp>>> = Mutex::new(Vec::new());

/// Blocks retained in [`POOL`] (256 MiB): roughly two full capture tapes,
/// matching the one-live-one-retiring pattern of sequential captures.
const POOL_LIMIT: usize = 256;

fn pooled_block() -> Vec<MicroOp> {
    POOL.lock()
        .ok()
        .and_then(|mut pool| pool.pop())
        .unwrap_or_default()
}

/// A lazily-materialised, shareable recording of a [`WorkloadStream`].
///
/// Ops are recorded as the stream's own 16-byte [`MicroOp`]s, with no
/// separate tape format, so every reader borrows them as the core steps
/// them.
///
/// # Examples
///
/// ```
/// use gpm_microarch::InstructionSource;
/// use gpm_workloads::{SharedTape, SpecBenchmark};
///
/// let tape = SharedTape::new(SpecBenchmark::Gcc.stream());
/// let mut live = SpecBenchmark::Gcc.stream();
/// let mut replay = tape.reader();
/// for _ in 0..1000 {
///     assert_eq!(live.next_op(), replay.next_op());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SharedTape {
    inner: Arc<Mutex<TapeInner>>,
}

#[derive(Debug)]
struct TapeInner {
    stream: WorkloadStream,
    blocks: Vec<Arc<Vec<MicroOp>>>,
}

impl TapeInner {
    /// Extends the recording until block `idx` is materialised.
    fn ensure_block(&mut self, idx: usize) {
        while self.blocks.len() <= idx {
            let mut ops = pooled_block();
            ops.clear();
            ops.resize(TAPE_BLOCK, MicroOp::int_alu(None));
            let mut filled = 0;
            while filled < TAPE_BLOCK {
                filled += self.stream.fill_ops(&mut ops[filled..]);
            }
            self.blocks.push(Arc::new(ops));
        }
    }
}

impl Drop for TapeInner {
    fn drop(&mut self) {
        // All readers are gone by the time the inner drops (they keep the
        // tape alive through their own `Arc`), so every block is uniquely
        // owned again and can be recycled.
        if let Ok(mut pool) = POOL.lock() {
            for block in self.blocks.drain(..) {
                if pool.len() >= POOL_LIMIT {
                    break;
                }
                if let Ok(ops) = Arc::try_unwrap(block) {
                    pool.push(ops);
                }
            }
        }
    }
}

impl SharedTape {
    /// Wraps `stream`; ops are generated on first demand and kept for every
    /// subsequent reader.
    #[must_use]
    pub fn new(stream: WorkloadStream) -> Self {
        Self::with_capacity_hint(stream, 0)
    }

    /// Like [`new`](Self::new), sizing the block table for `expected_ops`
    /// up front. Block storage itself comes from the process-wide recycling
    /// pool when available.
    #[must_use]
    pub fn with_capacity_hint(stream: WorkloadStream, expected_ops: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(TapeInner {
                stream,
                blocks: Vec::with_capacity(expected_ops.div_ceil(TAPE_BLOCK)),
            })),
        }
    }

    /// A fresh cursor at position 0 — equivalent to restarting the wrapped
    /// stream from its seed.
    #[must_use]
    pub fn reader(&self) -> TapeReader {
        TapeReader {
            inner: Arc::clone(&self.inner),
            pos: 0,
            cached: None,
        }
    }

    /// Number of ops materialised so far (whole blocks).
    #[must_use]
    pub fn generated(&self) -> usize {
        self.inner.lock().expect("tape lock").blocks.len() * TAPE_BLOCK
    }
}

/// An [`InstructionSource`] replaying a [`SharedTape`] from its own cursor.
#[derive(Debug, Clone)]
pub struct TapeReader {
    inner: Arc<Mutex<TapeInner>>,
    pos: usize,
    /// The block the cursor is in, held locally so steady-state reads skip
    /// the tape lock entirely.
    cached: Option<(usize, Arc<Vec<MicroOp>>)>,
}

impl TapeReader {
    /// The block containing `idx`, from the local cache when possible and
    /// from the (extending) tape otherwise.
    fn block(&mut self, idx: usize) -> &[MicroOp] {
        if self.cached.as_ref().map(|(i, _)| *i) != Some(idx) {
            let mut inner = self.inner.lock().expect("tape lock");
            inner.ensure_block(idx);
            self.cached = Some((idx, Arc::clone(&inner.blocks[idx])));
        }
        self.cached.as_ref().expect("just cached").1.as_slice()
    }
}

impl InstructionSource for TapeReader {
    fn next_op(&mut self) -> MicroOp {
        let (idx, off) = (self.pos / TAPE_BLOCK, self.pos % TAPE_BLOCK);
        let op = self.block(idx)[off];
        self.pos += 1;
        op
    }

    /// Block copy out of the recording — at most one (usually zero) lock
    /// acquisitions and one memcpy per batch. May deliver fewer ops than
    /// requested at a block boundary, as the contract allows.
    fn fill_ops(&mut self, buf: &mut [MicroOp]) -> usize {
        let (idx, off) = (self.pos / TAPE_BLOCK, self.pos % TAPE_BLOCK);
        let n = buf.len().min(TAPE_BLOCK - off);
        let block = self.block(idx);
        buf[..n].copy_from_slice(&block[off..off + n]);
        self.pos += n;
        n
    }

    /// Zero-copy delivery: a slice straight into the cached block.
    fn borrow_ops(&mut self, max: usize) -> Option<&[MicroOp]> {
        let (idx, off) = (self.pos / TAPE_BLOCK, self.pos % TAPE_BLOCK);
        let n = max.min(TAPE_BLOCK - off);
        let block = self.block(idx);
        Some(&block[off..off + n])
    }

    fn consume_ops(&mut self, n: usize) {
        self.pos += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpecBenchmark;

    #[test]
    fn reader_matches_live_stream_across_batch_sizes() {
        let tape = SharedTape::new(SpecBenchmark::Mcf.stream());
        let mut live = SpecBenchmark::Mcf.stream();
        let mut reader = tape.reader();
        let mut live_buf = vec![MicroOp::int_alu(None); 1000];
        for slot in live_buf.iter_mut() {
            *slot = live.next_op();
        }
        // Mixed single-op and odd-sized batch reads cover chunk boundaries.
        let mut got = Vec::new();
        got.push(reader.next_op());
        let mut batch = vec![MicroOp::int_alu(None); 613];
        let mut filled = 0;
        while filled < batch.len() {
            filled += reader.fill_ops(&mut batch[filled..]);
        }
        got.extend_from_slice(&batch);
        let mut rest = vec![MicroOp::int_alu(None); 386];
        filled = 0;
        while filled < rest.len() {
            filled += reader.fill_ops(&mut rest[filled..]);
        }
        got.extend_from_slice(&rest);
        assert_eq!(got, live_buf);
    }

    #[test]
    fn independent_readers_do_not_interfere() {
        let tape = SharedTape::new(SpecBenchmark::Gcc.stream());
        let mut a = tape.reader();
        let mut b = tape.reader();
        let first: Vec<_> = (0..100).map(|_| a.next_op()).collect();
        // b starts from 0 regardless of how far a has read.
        let again: Vec<_> = (0..100).map(|_| b.next_op()).collect();
        assert_eq!(first, again);
        assert!(tape.generated() >= 100);
    }

    #[test]
    fn borrowed_blocks_match_next_op_sequence() {
        let tape = SharedTape::new(SpecBenchmark::Art.stream());
        let mut live = SpecBenchmark::Art.stream();
        let mut reader = tape.reader();
        let mut seen = 0usize;
        // Borrow in uneven chunks, consuming fewer ops than borrowed to
        // exercise the borrow/consume split the core's cycle loops use.
        for (i, take) in [400usize, 1, 77, 1000, 3].into_iter().enumerate() {
            let chunk = reader.borrow_ops(take + i).expect("tape serves blocks");
            assert!(!chunk.is_empty() && chunk.len() <= take + i);
            let use_n = chunk.len().min(take);
            for &op in &chunk[..use_n] {
                assert_eq!(op, live.next_op());
            }
            reader.consume_ops(use_n);
            seen += use_n;
        }
        // The cursor advanced by exactly the consumed ops.
        assert_eq!(reader.next_op(), live.next_op());
        assert!(seen > 0);
    }
}

//! The fleet wire protocol: compact length-prefixed binary frames.
//!
//! Every frame on the wire is a little-endian `u32` payload length
//! followed by exactly that many payload bytes. The payload starts with a
//! version byte ([`WIRE_VERSION`]) and a kind byte, then the kind's body:
//!
//! ```text
//! +----------------+---------+------+------------------------+
//! | len: u32 LE    | version | kind | body (len - 2 bytes)   |
//! +----------------+---------+------+------------------------+
//! ```
//!
//! | kind | frame          | body (all integers/floats little-endian)    |
//! |------|----------------|---------------------------------------------|
//! | 1    | `Telemetry`    | node u64, tick u64, budget f64, cores u32, current modes cores×u8, power cores×3×f64 row-major, bips cores×3×f64 row-major |
//! | 2    | `Decision`     | node u64, tick u64, flags u8 (bit0 = degraded), cores u32, modes cores×u8 |
//! | 3    | `TickEnd`      | tick u64                                    |
//! | 4    | `TickDone`     | tick u64, decisions u64, rejected u64       |
//! | 5    | `StatsRequest` | (empty)                                     |
//! | 6    | `Stats`        | UTF-8 JSON bytes (a `ServeStats` document)  |
//! | 7    | `Shutdown`     | (empty)                                     |
//!
//! Decoding is a single pass over the borrowed receive buffer — scalars
//! are read in place and the owned [`NodeTelemetry`]/[`NodeDecision`]
//! values are built directly from the wire bytes with no intermediate
//! frame copy. A `Telemetry` frame's power and BIPS rows are taken with
//! one bounds check and read into the matrices' single shared block, and
//! mode bytes are checked, then stored in the [`ModeCombination`] —
//! inline up to [`INLINE_MODES`] cores. So up to that width
//! [`decode_frame`] decodes a `Telemetry` frame with one allocation and
//! a `Decision` frame with none. A [`FrameReader`] does better on a
//! stream that repeats matrices: its intern table hands a repeated
//! `Telemetry` frame the matrices it decoded before, with no allocation.
//! Every malformed frame is an explicit
//! [`GpmError::Wire`]: truncated payloads, trailing garbage, length
//! prefixes beyond [`MAX_FRAME_BYTES`], foreign version bytes, unknown
//! kinds, out-of-range mode bytes and core counts beyond
//! [`MAX_WIRE_CORES`] are all rejected, never silently repaired.

use std::io::{Read, Write};
use std::sync::Arc;

use gpm_core::{NodeDecision, NodeTelemetry, PowerBipsMatrices};
use gpm_types::{
    CoreId, Fingerprinter, GpmError, ModeCombination, PowerMode, Result, Watts, INLINE_MODES,
};

/// Protocol version this build speaks; frames carrying any other version
/// byte are rejected.
pub const WIRE_VERSION: u8 = 1;

/// Hard upper bound on a frame payload. A 4096-core telemetry frame is
/// ~200 KiB; anything above 1 MiB is a corrupt or hostile length prefix.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Hard upper bound on per-node core counts accepted off the wire, far
/// above the 256-way nodes the hierarchical tier targets.
pub const MAX_WIRE_CORES: usize = 4096;

const KIND_TELEMETRY: u8 = 1;
const KIND_DECISION: u8 = 2;
const KIND_TICK_END: u8 = 3;
const KIND_TICK_DONE: u8 = 4;
const KIND_STATS_REQUEST: u8 = 5;
const KIND_STATS: u8 = 6;
const KIND_SHUTDOWN: u8 = 7;

/// One decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A node's per-tick report (client → server).
    Telemetry(NodeTelemetry),
    /// One node's mode assignment (server → client).
    Decision(NodeDecision),
    /// The client finished submitting tick `tick`; cut the batch.
    TickEnd {
        /// Tick the client finished submitting.
        tick: u64,
    },
    /// The server finished streaming tick `tick`'s decisions.
    TickDone {
        /// Tick the batch was cut for.
        tick: u64,
        /// Decisions streamed for the tick.
        decisions: u64,
        /// Submissions for the tick the server did not queue
        /// (backpressure or validation).
        rejected: u64,
    },
    /// Ask the server for its aggregated accounting.
    StatsRequest,
    /// The server's aggregated accounting as a JSON document.
    Stats(String),
    /// Ask the server to stop accepting connections and exit cleanly.
    Shutdown,
}

fn wire_err(msg: impl Into<String>) -> GpmError {
    GpmError::Wire(msg.into())
}

/// A little-endian cursor over a borrowed frame payload. All reads are
/// bounds-checked; running past the payload is a truncation error that
/// names the frame kind.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    kind: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], kind: &'static str) -> Self {
        Self { buf, pos: 0, kind }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(wire_err(format!(
                "truncated {} frame: body ends at byte {} of {}",
                self.kind,
                self.buf.len(),
                self.pos + n
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// The frame must end exactly here: trailing bytes mean the sender
    /// and receiver disagree about the layout, which is as fatal as
    /// truncation.
    fn finish(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(wire_err(format!(
                "oversized {} frame: {} trailing bytes after the body",
                self.kind,
                self.buf.len() - self.pos
            )))
        }
    }

    fn cores(&mut self) -> Result<usize> {
        let cores = self.u32()? as usize;
        if cores == 0 || cores > MAX_WIRE_CORES {
            return Err(wire_err(format!(
                "{} frame core count {cores} outside 1..={MAX_WIRE_CORES}",
                self.kind
            )));
        }
        Ok(cores)
    }

    /// Reads `cores` mode bytes: every byte is checked first, then the
    /// modes are written straight into the combination (inline up to
    /// [`gpm_types::INLINE_MODES`] cores, so no allocation there).
    fn modes(&mut self, cores: usize) -> Result<ModeCombination> {
        let bytes = self.take(cores)?;
        if let Some(i) = bytes
            .iter()
            .position(|&byte| usize::from(byte) >= PowerMode::COUNT)
        {
            let byte = bytes[i];
            return Err(wire_err(format!(
                "{} frame mode byte {byte} for core {i} is not a power mode",
                self.kind
            )));
        }
        Ok(bytes
            .iter()
            .map(|&byte| PowerMode::ALL[usize::from(byte)])
            .collect())
    }

    /// Takes the bytes of `rows` little-endian `[f64; 3]` rows with one
    /// bounds check. A short body reports the same truncation point as
    /// reading the cells one `f64` at a time would.
    fn rows(&mut self, rows: usize) -> Result<&'a [u8]> {
        let whole_cells = (self.buf.len() - self.pos) / 8;
        if whole_cells < 3 * rows {
            // Skip the cells that are present; fewer than 8 bytes remain,
            // so this take fails and names the first missing cell.
            self.pos += whole_cells * 8;
            self.take(8)?;
        }
        self.take(rows * ROW_BYTES)
    }
}

/// Bytes of one `[f64; 3]` matrix row on the wire.
const ROW_BYTES: usize = 3 * 8;

/// One little-endian cell.
fn cell(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte cell"))
}

/// Matrices decoded from stacked little-endian rows into one exact-size
/// allocation.
fn decode_rows(bytes: &[u8]) -> PowerBipsMatrices {
    let f = |b: &[u8]| f64::from_bits(cell(b));
    let rows = bytes
        .chunks_exact(ROW_BYTES)
        .map(|row| [f(&row[..8]), f(&row[8..16]), f(&row[16..])]);
    PowerBipsMatrices::from_stacked_rows(rows.collect::<Arc<[_]>>())
}

/// Entries in a [`FrameReader`]'s intern table.
const INTERN_SLOTS: usize = 1024;

/// Entries per set of the intern table. Four ways keep a handful of
/// matrices that share a set from evicting each other.
const INTERN_WAYS: usize = 4;

/// A reader's intern table: recently decoded matrix pairs in
/// [`INTERN_WAYS`]-way sets, so a connection whose reports repeat a
/// matrix decodes it once and hands out shared clones. Only frames of at
/// most [`INLINE_MODES`] cores are interned, which bounds the cells a
/// table pins at `INTERN_SLOTS × INLINE_MODES × 48` bytes.
#[derive(Default)]
struct Interner {
    /// Empty until the first internable frame; each set is
    /// [`INTERN_WAYS`] consecutive entries, newest first.
    slots: Vec<Option<PowerBipsMatrices>>,
}

impl Interner {
    /// Matrices for the stacked rows `bytes`: an entry of their set when
    /// it holds exactly these bytes, otherwise a fresh decode that
    /// replaces the set's oldest entry.
    fn matrices(&mut self, bytes: &[u8]) -> PowerBipsMatrices {
        if self.slots.is_empty() {
            self.slots.resize(INTERN_SLOTS, None);
        }
        let set = INTERN_WAYS * set_of(bytes);
        let ways = &mut self.slots[set..set + INTERN_WAYS];
        if let Some(matrices) = ways.iter().flatten().find(|m| holds_bytes(m, bytes)) {
            return matrices.clone();
        }
        ways.rotate_right(1);
        ways[0].insert(decode_rows(bytes)).clone()
    }
}

/// The intern set for stacked rows `bytes`: the row count and four
/// sampled cells, mixed. Cheap by design; a hit is confirmed byte for
/// byte, so colliding matrices only cost a decode.
fn set_of(bytes: &[u8]) -> usize {
    let cells = bytes.len() / 8;
    let mut hash = Fingerprinter::new();
    hash.push(cells as u64);
    for i in [0, cells / 4, cells / 2, cells - 1] {
        hash.push(cell(&bytes[8 * i..8 * i + 8]));
    }
    hash.finish() as usize % (INTERN_SLOTS / INTERN_WAYS)
}

/// Whether `matrices` holds exactly the little-endian cells `bytes`.
fn holds_bytes(matrices: &PowerBipsMatrices, bytes: &[u8]) -> bool {
    let cells = matrices.stacked_rows().as_flattened();
    cells.len() * 8 == bytes.len()
        && cells
            .iter()
            .zip(bytes.chunks_exact(8))
            .all(|(c, b)| c.to_bits() == cell(b))
}

fn push_modes(out: &mut Vec<u8>, modes: &ModeCombination) {
    out.extend(modes.as_slice().iter().map(|mode| mode.index() as u8));
}

/// Appends one encoded frame (length prefix included) for `payload_len`
/// body bytes produced by `body`.
fn push_frame(out: &mut Vec<u8>, kind: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(WIRE_VERSION);
    out.push(kind);
    body(out);
    let payload_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
}

/// Appends one encoded `Telemetry` frame to `out`.
pub fn encode_telemetry(telemetry: &NodeTelemetry, out: &mut Vec<u8>) {
    push_frame(out, KIND_TELEMETRY, |out| {
        out.extend_from_slice(&telemetry.node.to_le_bytes());
        out.extend_from_slice(&telemetry.tick.to_le_bytes());
        out.extend_from_slice(&telemetry.budget.value().to_le_bytes());
        let cores = telemetry.matrices.cores();
        out.extend_from_slice(&(cores as u32).to_le_bytes());
        push_modes(out, &telemetry.current);
        for core in 0..cores {
            for mode in PowerMode::ALL {
                let watts = telemetry.matrices.power(CoreId::new(core), mode);
                out.extend_from_slice(&watts.value().to_le_bytes());
            }
        }
        for core in 0..cores {
            for mode in PowerMode::ALL {
                let bips = telemetry.matrices.bips(CoreId::new(core), mode);
                out.extend_from_slice(&bips.value().to_le_bytes());
            }
        }
    });
}

/// Appends one encoded `Decision` frame to `out`.
pub fn encode_decision(decision: &NodeDecision, out: &mut Vec<u8>) {
    push_frame(out, KIND_DECISION, |out| {
        out.extend_from_slice(&decision.node.to_le_bytes());
        out.extend_from_slice(&decision.tick.to_le_bytes());
        out.push(u8::from(decision.degraded));
        out.extend_from_slice(&(decision.modes.len() as u32).to_le_bytes());
        push_modes(out, &decision.modes);
    });
}

/// Appends one encoded `TickEnd` frame to `out`.
pub fn encode_tick_end(tick: u64, out: &mut Vec<u8>) {
    push_frame(out, KIND_TICK_END, |out| {
        out.extend_from_slice(&tick.to_le_bytes());
    });
}

/// Appends one encoded `TickDone` frame to `out`.
pub fn encode_tick_done(tick: u64, decisions: u64, rejected: u64, out: &mut Vec<u8>) {
    push_frame(out, KIND_TICK_DONE, |out| {
        out.extend_from_slice(&tick.to_le_bytes());
        out.extend_from_slice(&decisions.to_le_bytes());
        out.extend_from_slice(&rejected.to_le_bytes());
    });
}

/// Appends one encoded `StatsRequest` frame to `out`.
pub fn encode_stats_request(out: &mut Vec<u8>) {
    push_frame(out, KIND_STATS_REQUEST, |_| {});
}

/// Appends one encoded `Stats` frame to `out`.
pub fn encode_stats(json: &str, out: &mut Vec<u8>) {
    push_frame(out, KIND_STATS, |out| {
        out.extend_from_slice(json.as_bytes());
    });
}

/// Appends one encoded `Shutdown` frame to `out`.
pub fn encode_shutdown(out: &mut Vec<u8>) {
    push_frame(out, KIND_SHUTDOWN, |_| {});
}

/// Appends any [`Frame`] to `out` (the per-kind encoders composed).
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Telemetry(telemetry) => encode_telemetry(telemetry, out),
        Frame::Decision(decision) => encode_decision(decision, out),
        Frame::TickEnd { tick } => encode_tick_end(*tick, out),
        Frame::TickDone {
            tick,
            decisions,
            rejected,
        } => encode_tick_done(*tick, *decisions, *rejected, out),
        Frame::StatsRequest => encode_stats_request(out),
        Frame::Stats(json) => encode_stats(json, out),
        Frame::Shutdown => encode_shutdown(out),
    }
}

/// Decodes one frame payload (the bytes after the length prefix).
///
/// # Errors
///
/// Rejects foreign version bytes, unknown kinds, truncated bodies,
/// trailing bytes, out-of-range core counts and mode bytes — every
/// failure a [`GpmError::Wire`] naming the offending frame.
pub fn decode_frame(payload: &[u8]) -> Result<Frame> {
    decode_payload(payload, None)
}

/// [`decode_frame`], taking a `Telemetry` frame's matrices from `interner`
/// when one is given and the frame is at most [`INLINE_MODES`] cores wide.
fn decode_payload(payload: &[u8], interner: Option<&mut Interner>) -> Result<Frame> {
    if payload.len() < 2 {
        return Err(wire_err(format!(
            "frame payload of {} bytes cannot hold version and kind",
            payload.len()
        )));
    }
    let version = payload[0];
    if version != WIRE_VERSION {
        return Err(wire_err(format!(
            "foreign protocol version {version} (this build speaks {WIRE_VERSION})"
        )));
    }
    let kind = payload[1];
    let body = &payload[2..];
    match kind {
        KIND_TELEMETRY => {
            let mut c = Cursor::new(body, "telemetry");
            let node = c.u64()?;
            let tick = c.u64()?;
            let budget = Watts::new(c.f64()?);
            let cores = c.cores()?;
            let current = c.modes(cores)?;
            // Power rows then BIPS rows: the matrices' own stacked layout.
            let rows = c.rows(2 * cores)?;
            c.finish()?;
            let matrices = match interner {
                Some(interner) if cores <= INLINE_MODES => interner.matrices(rows),
                _ => decode_rows(rows),
            };
            Ok(Frame::Telemetry(NodeTelemetry {
                node,
                tick,
                matrices,
                current,
                budget,
            }))
        }
        KIND_DECISION => {
            let mut c = Cursor::new(body, "decision");
            let node = c.u64()?;
            let tick = c.u64()?;
            let flags = c.u8()?;
            if flags > 1 {
                return Err(wire_err(format!(
                    "decision frame flags byte {flags} has unknown bits set"
                )));
            }
            let cores = c.cores()?;
            let modes = c.modes(cores)?;
            c.finish()?;
            Ok(Frame::Decision(NodeDecision {
                node,
                tick,
                modes,
                degraded: flags & 1 == 1,
            }))
        }
        KIND_TICK_END => {
            let mut c = Cursor::new(body, "tick-end");
            let tick = c.u64()?;
            c.finish()?;
            Ok(Frame::TickEnd { tick })
        }
        KIND_TICK_DONE => {
            let mut c = Cursor::new(body, "tick-done");
            let tick = c.u64()?;
            let decisions = c.u64()?;
            let rejected = c.u64()?;
            c.finish()?;
            Ok(Frame::TickDone {
                tick,
                decisions,
                rejected,
            })
        }
        KIND_STATS_REQUEST => {
            Cursor::new(body, "stats-request").finish()?;
            Ok(Frame::StatsRequest)
        }
        KIND_STATS => {
            let json =
                std::str::from_utf8(body).map_err(|_| wire_err("stats frame body is not UTF-8"))?;
            Ok(Frame::Stats(json.to_owned()))
        }
        KIND_SHUTDOWN => {
            Cursor::new(body, "shutdown").finish()?;
            Ok(Frame::Shutdown)
        }
        other => Err(wire_err(format!("unknown frame kind {other}"))),
    }
}

/// Buffered frame reader over any byte stream.
///
/// The payload buffer is reused across frames, and each reader keeps an
/// intern table of the matrices its `Telemetry` frames carried: a frame
/// whose power and BIPS bytes equal a table entry's cells byte for byte
/// gets a shared clone of that entry — no allocation, no validity or
/// fingerprint pass, and one storage for every report of the same
/// matrices, which the fleet engine's dedup then matches by pointer. A
/// miss decodes as [`decode_frame`] does and replaces the oldest entry of
/// its set.
///
/// The table is allocated on the first `Telemetry` frame, so a reader
/// that only ever sees decisions pays nothing for it. It has 1024
/// entries in 4-way sets and interns only frames of at most
/// [`INLINE_MODES`] (38) cores, so one reader pins at most 1024 × 38 × 48
/// bytes = 1,867,776 bytes (1.78 MiB) of matrix cells. Wider frames
/// always decode fresh.
///
/// Steady-state reads therefore allocate nothing for a repeated
/// `Telemetry` frame of at most [`INLINE_MODES`] cores, one block for a
/// new one, and nothing for a `Decision` frame up to that width; wider
/// frames add one heap vector for their modes.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    interner: Interner,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            interner: Interner::default(),
        }
    }

    /// Reads the next frame. `Ok(None)` is a clean end-of-stream at a
    /// frame boundary; EOF inside a frame is a truncation error.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and every [`decode_frame`]
    /// rejection, plus length prefixes beyond [`MAX_FRAME_BYTES`].
    pub fn read(&mut self) -> Result<Option<Frame>> {
        let mut len_bytes = [0u8; 4];
        match self.inner.read_exact(&mut len_bytes) {
            Ok(()) => {}
            Err(err) if err.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(err) => return Err(wire_err(format!("reading frame length: {err}"))),
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(wire_err(format!(
                "frame length prefix {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
            )));
        }
        self.buf.resize(len, 0);
        self.inner.read_exact(&mut self.buf).map_err(|err| {
            wire_err(format!(
                "frame truncated mid-payload ({len} bytes expected): {err}"
            ))
        })?;
        decode_payload(&self.buf, Some(&mut self.interner)).map(Some)
    }
}

/// Writes `frames` bytes (one or more encoded frames) to a stream.
///
/// # Errors
///
/// Propagates transport failures as [`GpmError::Wire`].
pub fn write_all(writer: &mut impl Write, frames: &[u8]) -> Result<()> {
    writer
        .write_all(frames)
        .and_then(|()| writer.flush())
        .map_err(|err| wire_err(format!("writing frames: {err}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `cores`-wide report whose stacked cell `i` is `cell(i)`.
    fn report(node: u64, cores: usize, cell: impl Fn(usize) -> f64) -> NodeTelemetry {
        let rows: Vec<[f64; 3]> = (0..2 * cores)
            .map(|row| [cell(3 * row), cell(3 * row + 1), cell(3 * row + 2)])
            .collect();
        NodeTelemetry {
            node,
            tick: 4,
            matrices: PowerBipsMatrices::from_stacked_rows(rows),
            current: ModeCombination::uniform(cores, PowerMode::Eff1),
            budget: Watts::new(40.0),
        }
    }

    /// The frame payloads of `reports`, one after another on one stream.
    fn stream(reports: &[NodeTelemetry]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for report in reports {
            encode_telemetry(report, &mut bytes);
        }
        bytes
    }

    /// Reads every frame of `bytes` through one reader and checks each
    /// against the stateless decoder, cells compared bit for bit; returns
    /// the reader's intern table.
    fn read_all_matching_decode_frame(bytes: &[u8]) -> Interner {
        let mut reader = FrameReader::new(bytes);
        let mut at = 0;
        while let Some(frame) = reader.read().expect("frame decodes") {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let fresh = decode_frame(&bytes[at + 4..at + 4 + len]).expect("frame decodes");
            at += 4 + len;
            let (Frame::Telemetry(got), Frame::Telemetry(want)) = (&frame, &fresh) else {
                panic!("telemetry frames only");
            };
            assert!(got.matrices.same_cells(&want.matrices), "node {}", got.node);
            assert_eq!(frame, fresh);
        }
        assert_eq!(at, bytes.len());
        reader.interner
    }

    /// The stacked row bytes of one encoded telemetry frame.
    fn row_bytes(report: &NodeTelemetry) -> Vec<u8> {
        let frame = stream(std::slice::from_ref(report));
        let cores = report.matrices.cores();
        frame[frame.len() - 2 * cores * ROW_BYTES..].to_vec()
    }

    #[test]
    fn frames_sharing_every_sampled_cell_decode_apart() {
        let cores = 8;
        let cells = 6 * cores;
        let sampled = [0, cells / 4, cells / 2, cells - 1];
        let unsampled = (0..cells).find(|i| !sampled.contains(i)).unwrap();
        // Five matrices equal in every sampled cell: one set, one more
        // than it has ways.
        let reports: Vec<NodeTelemetry> = (0..=INTERN_WAYS)
            .map(|n| {
                report(n as u64, cores, |i| {
                    if i == unsampled {
                        n as f64
                    } else {
                        1.0 + i as f64
                    }
                })
            })
            .collect();
        let set = set_of(&row_bytes(&reports[0]));
        assert!(reports.iter().all(|r| set_of(&row_bytes(r)) == set));
        assert_ne!(reports[0].matrices, reports[1].matrices);
        let frames: Vec<NodeTelemetry> = [0, 1, 0, 2, 3, 1, 4, 0, 4, 2, 1]
            .map(|n| reports[n].clone())
            .to_vec();
        let table = read_all_matching_decode_frame(&stream(&frames));
        let held = table.slots.iter().flatten().count();
        assert_eq!(held, INTERN_WAYS, "the colliding frames share one set");
    }

    #[test]
    fn signed_zeros_are_different_cells() {
        // Cell 1 is never sampled, so the two frames share a set and
        // only the byte compare tells them apart.
        let a = report(1, 4, |i| if i == 1 { 0.0 } else { 2.0 });
        let b = report(2, 4, |i| if i == 1 { -0.0 } else { 2.0 });
        assert_eq!(set_of(&row_bytes(&a)), set_of(&row_bytes(&b)));
        assert_eq!(a.matrices, b.matrices, "equal values");
        assert!(!a.matrices.same_cells(&b.matrices), "different bits");
        read_all_matching_decode_frame(&stream(&[a.clone(), b.clone(), b, a]));
    }

    #[test]
    fn a_flood_of_distinct_frames_stays_within_the_table() {
        let reports: Vec<NodeTelemetry> = (0..3 * INTERN_SLOTS)
            .map(|n| report(n as u64, 1 + n % INLINE_MODES, |i| (n * 1000 + i) as f64))
            .collect();
        let table = read_all_matching_decode_frame(&stream(&reports));
        let slots = &table.slots;
        assert_eq!(slots.len(), INTERN_SLOTS);
        let pinned: usize = slots
            .iter()
            .flatten()
            .map(|m| m.stacked_rows().len() * ROW_BYTES)
            .sum();
        // The bound the `FrameReader` docs state.
        assert_eq!(INTERN_SLOTS * INLINE_MODES * 2 * ROW_BYTES, 1_867_776);
        assert!(pinned <= 1_867_776, "{pinned} bytes pinned");
    }

    #[test]
    fn frames_wider_than_the_inline_width_are_never_interned() {
        let wide = [INLINE_MODES + 1, 64].map(|cores| report(cores as u64, cores, |i| i as f64));
        let bytes = stream(&[wide[0].clone(), wide[1].clone(), wide[0].clone()]);
        let table = read_all_matching_decode_frame(&bytes);
        assert!(table.slots.is_empty(), "no table for wide frames");

        // At the inline width a frame is interned.
        let edge = report(0, INLINE_MODES, |i| i as f64);
        let table = read_all_matching_decode_frame(&stream(&[edge.clone(), edge]));
        assert_eq!(table.slots.iter().flatten().count(), 1);
    }

    #[test]
    fn decision_only_readers_allocate_no_table() {
        let mut bytes = Vec::new();
        let decision = NodeDecision {
            node: 3,
            tick: 1,
            modes: ModeCombination::uniform(8, PowerMode::Turbo),
            degraded: false,
        };
        encode_decision(&decision, &mut bytes);
        encode_tick_done(1, 1, 0, &mut bytes);
        let mut reader = FrameReader::new(bytes.as_slice());
        assert_eq!(reader.read().unwrap(), Some(Frame::Decision(decision)));
        assert!(matches!(
            reader.read().unwrap(),
            Some(Frame::TickDone { .. })
        ));
        assert_eq!(reader.read().unwrap(), None);
        assert!(reader.interner.slots.is_empty());
    }
}

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
//! vectors are built directly from the wire bytes with no intermediate
//! frame copy. A `Telemetry` frame's power and BIPS rows are read with
//! one bounds check into the matrices' single stacked vector, and mode
//! bytes are checked, then stored in the [`ModeCombination`] — inline up
//! to [`gpm_types::INLINE_MODES`] cores. So up to that width a
//! `Telemetry` frame decodes with one allocation and a `Decision` frame
//! with none. Every malformed frame is an explicit
//! [`GpmError::Wire`]: truncated payloads, trailing garbage, length
//! prefixes beyond [`MAX_FRAME_BYTES`], foreign version bytes, unknown
//! kinds, out-of-range mode bytes and core counts beyond
//! [`MAX_WIRE_CORES`] are all rejected, never silently repaired.

use std::io::{Read, Write};

use gpm_core::{NodeDecision, NodeTelemetry, PowerBipsMatrices};
use gpm_types::{CoreId, GpmError, ModeCombination, PowerMode, Result, Watts};

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

    /// Reads `rows` little-endian `[f64; 3]` rows with one bounds check
    /// into a single exact-size vector. A short body reports the same
    /// truncation point as reading the cells one `f64` at a time would.
    fn rows(&mut self, rows: usize) -> Result<Vec<[f64; 3]>> {
        const ROW: usize = 3 * 8;
        let whole_cells = (self.buf.len() - self.pos) / 8;
        if whole_cells < 3 * rows {
            // Skip the cells that are present; fewer than 8 bytes remain,
            // so this take fails and names the first missing cell.
            self.pos += whole_cells * 8;
            self.take(8)?;
        }
        let bytes = self.take(rows * ROW)?;
        let cell = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8-byte cell"));
        Ok(bytes
            .chunks_exact(ROW)
            .map(|row| [cell(&row[..8]), cell(&row[8..16]), cell(&row[16..])])
            .collect())
    }
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
            Ok(Frame::Telemetry(NodeTelemetry {
                node,
                tick,
                matrices: PowerBipsMatrices::from_stacked_rows(rows),
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

/// Buffered frame reader over any byte stream. The payload buffer is
/// reused across frames, so steady-state reads allocate only for the
/// decoded frame's own vectors: a `Telemetry` frame's one stacked row
/// vector, plus a mode vector above [`gpm_types::INLINE_MODES`] cores;
/// a `Decision` frame up to that width allocates nothing.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
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
        decode_frame(&self.buf).map(Some)
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

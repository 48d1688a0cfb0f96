//! The fleet service's contract, pinned end to end:
//!
//! 1. **Wire round-trip** — encode→decode is the identity over arbitrary
//!    valid telemetry and decision frames (proptest), and every corrupt
//!    frame (truncated, trailing bytes, foreign version, unknown kind,
//!    oversize length prefix, bad mode byte) is an explicit
//!    `GpmError::Wire`, never a panic or a silent repair.
//! 2. **Shard-count invariance** — per-node decision streams through a
//!    [`ShardedEngine`] are bit-identical for 1, 2 and 4 shards, and
//!    bit-identical to a single unsharded [`FleetEngine`]: sharding only
//!    changes which exact-keyed cache answers a node, and exact-keyed
//!    hits are bit-identical to fresh solves (PR 8).
//! 3. **Pool-width invariance** — for a fixed shard count the decision
//!    stream is bit-identical across `GPM_THREADS ∈ {1, 2, 8}`.
//! 4. **Transport invariance** — the same load over TCP loopback and a
//!    Unix socket yields bit-identical decision streams.
//! 5. **Checkpoint/restore** — a sharded service restored from its
//!    per-shard checkpoints continues bit-identically.
//! 6. **Submit contract** — a [`ShardedEngine`] answers every submission
//!    exactly as the [`FleetEngine`] owning the node would, at every
//!    shard count, and `router_rejected` counts every submission it did
//!    not queue.
//! 7. **Wire accounting** — each `TickDone` accounts for every telemetry
//!    frame of its tick: `decisions + rejected == frames submitted`.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::sync::Mutex;

use gpm::core::fleet_load::PhaseTables;
use gpm::core::{
    node_shard, FleetConfig, FleetEngine, FleetStats, NodeDecision, NodeTelemetry, SubmitOutcome,
};
use gpm::net::wire::{
    self, decode_frame, encode_frame, Frame, FrameReader, MAX_FRAME_BYTES, MAX_WIRE_CORES,
    WIRE_VERSION,
};
use gpm::net::{connect, Endpoint, ServeOptions, Server, ShardedEngine};
use gpm::types::{GpmError, ModeCombination, PowerMode, Watts, INLINE_MODES};
use proptest::prelude::*;

/// `gpm::par::set_max_threads` is a process-global override; tests that
/// touch it must not interleave.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    gpm::par::set_max_threads(Some(n));
    let out = f();
    gpm::par::set_max_threads(None);
    out
}

const NODES: usize = 96;
const TICKS: u64 = 6;

/// Per-node decision streams, keyed and ordered so that engines that emit
/// decisions in different global orders (sharded vs flat) compare equal
/// exactly when every node saw the same decisions in the same tick order.
fn per_node(decisions: Vec<NodeDecision>) -> BTreeMap<u64, Vec<NodeDecision>> {
    let mut map: BTreeMap<u64, Vec<NodeDecision>> = BTreeMap::new();
    for decision in decisions {
        map.entry(decision.node).or_default().push(decision);
    }
    map
}

fn drive_flat(config: FleetConfig, nodes: usize, ticks: u64) -> Vec<NodeDecision> {
    let tables = PhaseTables::build();
    let mut engine = FleetEngine::new(config).expect("flat engine config is valid");
    let mut decisions = Vec::new();
    for tick in 0..ticks {
        for node in 0..nodes as u64 {
            assert!(engine.submit(tables.telemetry(node, tick)));
        }
        decisions.extend(engine.run_tick(tick));
    }
    decisions
}

fn drive_sharded(
    config: &FleetConfig,
    shards: usize,
    nodes: usize,
    ticks: u64,
) -> Vec<NodeDecision> {
    let tables = PhaseTables::build();
    let mut engine = ShardedEngine::homogeneous(config, shards).expect("sharded config is valid");
    let mut decisions = Vec::new();
    for tick in 0..ticks {
        for node in 0..nodes as u64 {
            engine.try_submit(tables.telemetry(node, tick));
        }
        decisions.extend(engine.run_tick(tick));
    }
    decisions
}

#[test]
fn shard_assignment_is_pure_and_uniform() {
    // Pure: same node, same shard, every time.
    for node in 0..1000u64 {
        assert_eq!(node_shard(node, 4), node_shard(node, 4));
        assert!(node_shard(node, 4) < 4);
        assert_eq!(node_shard(node, 1), 0);
    }
    // Uniform-ish: sequential ids spread across shards rather than
    // clumping on `id % shards`.
    let mut counts = [0usize; 4];
    for node in 0..10_000u64 {
        counts[node_shard(node, 4)] += 1;
    }
    for &count in &counts {
        assert!(
            (2_000..=3_000).contains(&count),
            "splitmix shard spread skewed: {counts:?}"
        );
    }
}

#[test]
fn decision_streams_invariant_under_shard_count() {
    let config = FleetConfig {
        queue_capacity: NODES,
        ..FleetConfig::default()
    };
    let flat = per_node(drive_flat(config.clone(), NODES, TICKS));
    for shards in [1, 2, 4] {
        let sharded = per_node(drive_sharded(&config, shards, NODES, TICKS));
        assert_eq!(
            flat, sharded,
            "decision streams diverged at {shards} shards"
        );
    }
}

#[test]
fn decision_streams_invariant_under_pool_width() {
    let _guard = THREAD_OVERRIDE.lock().expect("thread override lock");
    let config = FleetConfig {
        queue_capacity: NODES,
        ..FleetConfig::default()
    };
    let reference = with_threads(1, || drive_sharded(&config, 2, NODES, TICKS));
    for threads in [2, 8] {
        let run = with_threads(threads, || drive_sharded(&config, 2, NODES, TICKS));
        assert_eq!(
            reference, run,
            "decision stream diverged at GPM_THREADS={threads}"
        );
    }
}

#[test]
fn sharded_checkpoint_restore_continues_bit_identically() {
    let tables = PhaseTables::build();
    let config = FleetConfig {
        queue_capacity: NODES,
        ..FleetConfig::default()
    };
    let mut original = ShardedEngine::homogeneous(&config, 2).expect("config is valid");
    for tick in 0..3u64 {
        for node in 0..NODES as u64 {
            original.try_submit(tables.telemetry(node, tick));
        }
        original.run_tick(tick);
    }
    let checkpoints = original.checkpoint();
    assert_eq!(checkpoints.len(), 2);
    let mut restored = ShardedEngine::restore(&config, &checkpoints).expect("restore succeeds");
    for tick in 3..TICKS {
        for node in 0..NODES as u64 {
            original.try_submit(tables.telemetry(node, tick));
            restored.try_submit(tables.telemetry(node, tick));
        }
        assert_eq!(
            original.run_tick(tick),
            restored.run_tick(tick),
            "restored service diverged at tick {tick}"
        );
    }
}

/// Drives the full wire protocol against a server endpoint and returns
/// every decision streamed back.
fn drive_transport(endpoint: &Endpoint, shards: usize) -> Vec<NodeDecision> {
    let tables = PhaseTables::build();
    let load: Vec<Vec<NodeTelemetry>> = (0..TICKS)
        .map(|tick| {
            (0..NODES as u64)
                .map(|node| tables.telemetry(node, tick))
                .collect()
        })
        .collect();
    let config = FleetConfig {
        queue_capacity: NODES,
        ..FleetConfig::default()
    };
    drive_load(endpoint, shards, config, &load)
}

/// Serves `load` (one batch of reports per tick, tick = batch index)
/// through a server at `endpoint` and returns every decision streamed
/// back.
fn drive_load(
    endpoint: &Endpoint,
    shards: usize,
    config: FleetConfig,
    load: &[Vec<NodeTelemetry>],
) -> Vec<NodeDecision> {
    let server = Server::bind(
        endpoint,
        ServeOptions {
            shards,
            config,
            once: true,
        },
    )
    .expect("server binds");
    let bound = server.local_endpoint();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    let stream = connect(&bound).expect("client connects");
    let mut writer = BufWriter::new(stream.try_clone().expect("stream clones"));
    let mut reader = FrameReader::new(BufReader::new(stream));
    let mut out = Vec::new();
    let mut decisions = Vec::new();
    for (tick, reports) in (0u64..).zip(load) {
        out.clear();
        for report in reports {
            wire::encode_telemetry(report, &mut out);
        }
        wire::encode_tick_end(tick, &mut out);
        wire::write_all(&mut writer, &out).expect("tick writes");
        loop {
            match reader.read().expect("tick readback") {
                Some(Frame::Decision(decision)) => decisions.push(decision),
                Some(Frame::TickDone { tick: done, .. }) => {
                    assert_eq!(done, tick);
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    drop(writer);
    drop(reader);
    handle.join().expect("server thread joins");
    decisions
}

#[test]
fn tcp_and_unix_transports_yield_identical_streams() {
    let over_tcp = drive_transport(&Endpoint::Tcp("127.0.0.1:0".into()), 2);
    let socket = std::env::temp_dir().join(format!("gpm-serve-eq-{}.sock", std::process::id()));
    let over_unix = drive_transport(&Endpoint::Unix(socket), 2);
    assert_eq!(over_tcp, over_unix);
    assert_eq!(over_tcp.len(), NODES * TICKS as usize);
}

/// A `cores`-wide report with per-core distinct cells, mixed current
/// modes and a budget at `share` of the all-Turbo power.
fn wide_report(node: u64, tick: u64, cores: usize, share: f64) -> NodeTelemetry {
    let salt = (node * 31 + tick * 7) as usize;
    let power: Vec<[f64; 3]> = (0..cores)
        .map(|i| {
            let t = 9.0 + ((i * 13 + salt) % 17) as f64 * 0.7;
            [t, t * 0.86, t * 0.61]
        })
        .collect();
    let bips = (0..cores)
        .map(|i| {
            let t = 0.3 + ((i * 5 + salt) % 11) as f64 * 0.21;
            [t, t * (0.9 + (i % 3) as f64 * 0.03), t * 0.8]
        })
        .collect();
    let budget = Watts::new(share * power.iter().map(|row| row[0]).sum::<f64>());
    NodeTelemetry {
        node,
        tick,
        matrices: gpm::core::PowerBipsMatrices::from_rows(power, bips),
        current: (0..cores).map(|i| PowerMode::ALL[(i + salt) % 3]).collect(),
        budget,
    }
}

#[test]
fn wide_nodes_over_loopback_match_the_engine() {
    // 64 cores: above the inline mode width (the heap path) and above
    // the flat solver's limit (the hierarchical solver).
    const CORES: usize = 64;
    let config = FleetConfig {
        queue_capacity: 16,
        ..FleetConfig::default()
    };
    assert!(CORES > INLINE_MODES && CORES > config.flat_core_limit);
    let load: Vec<Vec<NodeTelemetry>> = (0..4u64)
        .map(|tick| {
            (0..6u64)
                .map(|node| wide_report(node % 3, tick, CORES, 0.6 + 0.05 * node as f64))
                .collect()
        })
        .collect();
    let mut engine = FleetEngine::new(config.clone()).expect("engine config is valid");
    let mut direct = Vec::new();
    for (tick, reports) in (0u64..).zip(&load) {
        for report in reports {
            assert!(engine.submit(report.clone()));
        }
        direct.extend(engine.run_tick(tick));
    }
    let served = drive_load(&Endpoint::Tcp("127.0.0.1:0".into()), 1, config, &load);
    assert_eq!(served, direct);
    assert_eq!(served.len(), 24);
    assert!(served.iter().all(|d| d.modes.len() == CORES && !d.degraded));
    // The budgets bind: not every core stays at Turbo.
    assert!(served
        .iter()
        .any(|d| d.modes.as_slice().contains(&PowerMode::Eff2)));
}

/// Capacity of every shard queue in the accounting tests: small enough
/// that the odd ticks' full-fleet bursts overflow it at 1, 2 and 4 shards.
const SMALL_QUEUE: usize = 16;

/// Tick `tick`'s reports for the accounting tests. Even ticks send a
/// burst that fits every shard queue, odd ticks send all [`NODES`], and
/// every seventh report carries a negative budget, which fails the
/// engine's validation.
fn accounting_load(tables: &PhaseTables, tick: u64) -> Vec<NodeTelemetry> {
    let burst = if tick.is_multiple_of(2) {
        12
    } else {
        NODES as u64
    };
    (0..burst)
        .map(|node| {
            let mut report = tables.telemetry(node, tick);
            if (node + tick).is_multiple_of(7) {
                report.budget = Watts::new(-1.0);
            }
            report
        })
        .collect()
}

/// Stats with the wall-clock solver timings cleared: the rest of the
/// accounting is a pure function of the submission sequence.
fn untimed(mut stats: FleetStats) -> FleetStats {
    stats.solver_us_spent = 0.0;
    stats.solver_us_saved = 0.0;
    stats
}

#[test]
fn sharded_submit_matches_standalone_engines() {
    let tables = PhaseTables::build();
    let config = FleetConfig {
        queue_capacity: SMALL_QUEUE,
        degraded: true,
        ..FleetConfig::default()
    };
    for shards in [1, 2, 4] {
        let mut sharded = ShardedEngine::homogeneous(&config, shards).expect("config is valid");
        let mut standalone: Vec<FleetEngine> = (0..shards)
            .map(|_| FleetEngine::new(config.clone()).expect("config is valid"))
            .collect();
        let mut sharded_outcomes: BTreeMap<u64, Vec<SubmitOutcome>> = BTreeMap::new();
        let mut standalone_outcomes: BTreeMap<u64, Vec<SubmitOutcome>> = BTreeMap::new();
        let mut not_accepted = 0u64;
        let mut invalid = 0u64;
        for tick in 0..TICKS {
            for report in accounting_load(&tables, tick) {
                let node = report.node;
                let expected = standalone[node_shard(node, shards)].try_submit(report.clone());
                not_accepted += u64::from(expected != SubmitOutcome::Accepted);
                invalid += u64::from(expected == SubmitOutcome::Invalid);
                standalone_outcomes.entry(node).or_default().push(expected);
                sharded_outcomes
                    .entry(node)
                    .or_default()
                    .push(sharded.try_submit(report));
            }
            let expected: Vec<NodeDecision> = standalone
                .iter_mut()
                .flat_map(|engine| engine.run_tick(tick))
                .collect();
            assert_eq!(
                sharded.run_tick(tick),
                expected,
                "decisions diverged at {shards} shards, tick {tick}"
            );
        }
        assert!(
            invalid > 0 && not_accepted > invalid,
            "the load must hit both validation and backpressure"
        );
        assert_eq!(
            sharded_outcomes, standalone_outcomes,
            "submit outcomes diverged at {shards} shards"
        );
        let mut merged = FleetStats::default();
        for engine in &standalone {
            merged.merge(&engine.stats());
        }
        assert_eq!(untimed(sharded.stats()), untimed(merged));
        assert_eq!(
            sharded.router_rejected(),
            not_accepted,
            "router_rejected must count every submission not queued at {shards} shards"
        );
    }
}

/// Drives [`accounting_load`] through a loopback server and returns each
/// tick's `(frames submitted, decisions streamed, TickDone.decisions,
/// TickDone.rejected)`.
fn drive_accounting(shards: usize) -> Vec<(u64, u64, u64, u64)> {
    let server = Server::bind(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        ServeOptions {
            shards,
            config: FleetConfig {
                queue_capacity: SMALL_QUEUE,
                ..FleetConfig::default()
            },
            once: true,
        },
    )
    .expect("server binds");
    let bound = server.local_endpoint();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    let tables = PhaseTables::build();
    let stream = connect(&bound).expect("client connects");
    let mut writer = BufWriter::new(stream.try_clone().expect("stream clones"));
    let mut reader = FrameReader::new(BufReader::new(stream));
    let mut out = Vec::new();
    let mut ticks = Vec::new();
    for tick in 0..TICKS {
        let load = accounting_load(&tables, tick);
        out.clear();
        for report in &load {
            wire::encode_telemetry(report, &mut out);
        }
        wire::encode_tick_end(tick, &mut out);
        wire::write_all(&mut writer, &out).expect("tick writes");
        let mut streamed = 0u64;
        loop {
            match reader.read().expect("tick readback") {
                Some(Frame::Decision(_)) => streamed += 1,
                Some(Frame::TickDone {
                    tick: done,
                    decisions,
                    rejected,
                }) => {
                    assert_eq!(done, tick);
                    ticks.push((load.len() as u64, streamed, decisions, rejected));
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    drop(writer);
    drop(reader);
    handle.join().expect("server thread joins");
    ticks
}

#[test]
fn tick_done_accounts_for_every_submitted_frame() {
    for shards in [1, 2] {
        let ticks = drive_accounting(shards);
        assert!(
            ticks
                .iter()
                .any(|&(submitted, ..)| submitted > SMALL_QUEUE as u64),
            "the load must overflow the queue"
        );
        for (tick, &(submitted, streamed, decisions, rejected)) in ticks.iter().enumerate() {
            assert_eq!(streamed, decisions, "tick {tick} at {shards} shards");
            assert_eq!(
                decisions + rejected,
                submitted,
                "tick {tick} at {shards} shards: {decisions} decisions + {rejected} rejected"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Wire protocol: round-trip and corrupt-frame rejection.
// ---------------------------------------------------------------------

fn telemetry_strategy() -> impl Strategy<Value = NodeTelemetry> {
    (
        any::<u64>(),
        any::<u64>(),
        0.1f64..5_000.0,
        prop::collection::vec((8.0f64..30.0, 0.1f64..3.0, 0u64..3), 1..=16),
    )
        .prop_map(|(node, tick, budget, rows)| {
            let power = rows
                .iter()
                .map(|(p, _, _)| [*p, p * 0.55, p * 0.3])
                .collect();
            let bips = rows
                .iter()
                .map(|(_, b, _)| [*b, b * 0.85, b * 0.7])
                .collect();
            let current = ModeCombination::new(
                rows.iter()
                    .map(|(_, _, m)| PowerMode::from_index(*m as usize).expect("index < 3"))
                    .collect(),
            );
            NodeTelemetry {
                node,
                tick,
                matrices: gpm::core::PowerBipsMatrices::from_rows(power, bips),
                current,
                budget: Watts::new(budget),
            }
        })
}

fn decision_strategy() -> impl Strategy<Value = NodeDecision> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        prop::collection::vec(0u64..3, 1..=32),
    )
        .prop_map(|(node, tick, degraded, modes)| NodeDecision {
            node,
            tick,
            modes: ModeCombination::new(
                modes
                    .into_iter()
                    .map(|m| PowerMode::from_index(m as usize).expect("index < 3"))
                    .collect(),
            ),
            degraded,
        })
}

/// Round-trips one frame through a byte buffer and the streaming reader.
fn roundtrip(frame: &Frame) -> Frame {
    let mut bytes = Vec::new();
    encode_frame(frame, &mut bytes);
    // Via the stream reader (length prefix included)…
    let mut reader = FrameReader::new(bytes.as_slice());
    let from_stream = reader
        .read()
        .expect("frame decodes")
        .expect("frame present");
    assert!(reader.read().expect("clean EOF").is_none());
    // …and via the payload decoder directly.
    let from_payload = decode_frame(&bytes[4..]).expect("payload decodes");
    assert_eq!(from_stream, from_payload);
    from_stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn telemetry_roundtrips(telemetry in telemetry_strategy()) {
        let frame = Frame::Telemetry(telemetry);
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn decision_roundtrips(decision in decision_strategy()) {
        let frame = Frame::Decision(decision);
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn control_frames_roundtrip(tick in any::<u64>(), n in any::<u64>(), r in any::<u64>()) {
        for frame in [
            Frame::TickEnd { tick },
            Frame::TickDone { tick, decisions: n, rejected: r },
            Frame::StatsRequest,
            Frame::Stats(format!("{{\"tick\":{tick}}}")),
            Frame::Shutdown,
        ] {
            prop_assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn truncation_anywhere_is_rejected_not_panicked(
        telemetry in telemetry_strategy(),
        cut in 0.0f64..1.0,
    ) {
        let mut bytes = Vec::new();
        wire::encode_telemetry(&telemetry, &mut bytes);
        let payload = &bytes[4..];
        let cut_at = (cut * (payload.len() - 1) as f64) as usize;
        // Every proper prefix of a valid payload must be an explicit error.
        prop_assert!(matches!(
            decode_frame(&payload[..cut_at]),
            Err(GpmError::Wire(_))
        ));
    }
}

#[test]
fn frames_roundtrip_across_the_inline_width() {
    for cores in [
        1,
        32,
        33,
        INLINE_MODES,
        INLINE_MODES + 1,
        256,
        MAX_WIRE_CORES,
    ] {
        let telemetry = wide_report(cores as u64, 5, cores, 0.7);
        let modes = telemetry.current.clone();
        let frame = Frame::Telemetry(telemetry);
        assert_eq!(roundtrip(&frame), frame, "{cores}-core telemetry");
        let frame = Frame::Decision(NodeDecision {
            node: 3,
            tick: 5,
            modes,
            degraded: cores % 2 == 1,
        });
        assert_eq!(roundtrip(&frame), frame, "{cores}-core decision");
    }
}

#[test]
fn truncated_rows_name_the_first_missing_cell() {
    let tables = PhaseTables::build();
    let telemetry = tables.telemetry(0, 0);
    let cores = telemetry.matrices.cores();
    let mut bytes = Vec::new();
    wire::encode_telemetry(&telemetry, &mut bytes);
    let payload = &bytes[4..];
    // Body offset of the first power cell: node, tick, budget, cores,
    // then one byte per mode.
    let rows_at = 8 + 8 + 8 + 4 + cores;
    for body_len in rows_at..payload.len() - 2 {
        let missing = rows_at + (body_len - rows_at) / 8 * 8;
        let expected = format!(
            "truncated telemetry frame: body ends at byte {body_len} of {}",
            missing + 8
        );
        match decode_frame(&payload[..2 + body_len]) {
            Err(GpmError::Wire(msg)) => assert_eq!(msg, expected),
            other => panic!("expected `{expected}`, got {other:?}"),
        }
    }
}

fn expect_wire_error(payload: &[u8], needle: &str) {
    match decode_frame(payload) {
        Err(GpmError::Wire(msg)) => {
            assert!(msg.contains(needle), "`{msg}` should mention `{needle}`");
        }
        other => panic!("expected a wire error mentioning `{needle}`, got {other:?}"),
    }
}

#[test]
fn corrupt_frames_are_rejected_with_named_errors() {
    let tables = PhaseTables::build();
    let mut bytes = Vec::new();
    wire::encode_telemetry(&tables.telemetry(0, 0), &mut bytes);
    let payload = bytes[4..].to_vec();

    // Foreign version byte.
    let mut foreign = payload.clone();
    foreign[0] = WIRE_VERSION + 1;
    expect_wire_error(&foreign, "foreign protocol version");

    // Unknown kind.
    let mut unknown = payload.clone();
    unknown[1] = 200;
    expect_wire_error(&unknown, "unknown frame kind");

    // Trailing garbage after a valid body.
    let mut trailing = payload.clone();
    trailing.push(0);
    expect_wire_error(&trailing, "trailing");

    // Truncated body.
    expect_wire_error(&payload[..payload.len() - 3], "truncated");

    // Mode byte outside the Turbo/Eff1/Eff2 universe (first mode byte
    // sits right after node + tick + budget + cores).
    let mut bad_mode = payload.clone();
    bad_mode[2 + 8 + 8 + 8 + 4] = 9;
    expect_wire_error(&bad_mode, "not a power mode");

    // Zero cores.
    let mut zero_cores = payload.clone();
    zero_cores[2 + 8 + 8 + 8..2 + 8 + 8 + 8 + 4].copy_from_slice(&0u32.to_le_bytes());
    expect_wire_error(&zero_cores, "core count");

    // Header too short to carry version + kind.
    expect_wire_error(&payload[..1], "cannot hold version and kind");

    // Decision flags with unknown bits.
    let mut decision_bytes = Vec::new();
    wire::encode_decision(
        &NodeDecision {
            node: 1,
            tick: 2,
            modes: ModeCombination::uniform(4, PowerMode::Turbo),
            degraded: false,
        },
        &mut decision_bytes,
    );
    let mut bad_flags = decision_bytes[4..].to_vec();
    bad_flags[2 + 8 + 8] = 0x82;
    expect_wire_error(&bad_flags, "unknown bits");
}

#[test]
fn oversize_length_prefix_is_rejected_before_allocation() {
    // A hostile length prefix (4 GiB) must fail the cap check, not try
    // to allocate or read 4 GiB.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&((MAX_FRAME_BYTES + 1) as u32).to_le_bytes());
    bytes.extend_from_slice(&[WIRE_VERSION, 3]);
    let mut reader = FrameReader::new(bytes.as_slice());
    match reader.read() {
        Err(GpmError::Wire(msg)) => assert!(msg.contains("cap"), "{msg}"),
        other => panic!("expected oversize rejection, got {other:?}"),
    }
}

#[test]
fn stream_truncated_mid_frame_is_an_error_not_eof() {
    let tables = PhaseTables::build();
    let mut bytes = Vec::new();
    wire::encode_telemetry(&tables.telemetry(0, 0), &mut bytes);
    // Cut the stream inside the payload: the reader must report a
    // truncation error, not a clean `None`.
    let cut = &bytes[..bytes.len() / 2];
    let mut reader = FrameReader::new(cut);
    match reader.read() {
        Err(GpmError::Wire(msg)) => assert!(msg.contains("truncated"), "{msg}"),
        other => panic!("expected mid-frame truncation error, got {other:?}"),
    }
}

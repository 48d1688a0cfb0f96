//! Heap-allocation budget of the serve path, counted by a
//! `#[global_allocator]` wrapper over [`System`].
//!
//! 1. **Decision decode** — a `Decision` frame of at most 32 cores
//!    decodes with no allocation (its modes are stored inline).
//! 2. **Telemetry decode** — a `Telemetry` frame of at most 32 cores
//!    decodes with exactly one allocation: the stacked power/BIPS rows.
//! 3. **Warm tick** — a warm [`FleetEngine::run_tick`] over the phase
//!    load allocates once, for the decisions it returns, neither per
//!    report nor per distinct problem; armed but idle (degraded mode, a
//!    rack budget that never binds, a fault plan that never fires) it
//!    allocates no more.
//! 4. **Interned decode** — through one [`FrameReader`], a repeated
//!    `Telemetry` frame of at most [`INLINE_MODES`] cores decodes with no
//!    allocation: the reader hands out its interned matrices.
//!
//! The counter is per thread, so concurrently running tests do not
//! disturb each other's counts. Only allocations on the calling thread
//! are counted; a warm tick has no misses, so it starts no pool workers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpm::core::fleet_load::PhaseTables;
use gpm::core::{
    FleetConfig, FleetEngine, NodeDecision, NodeTelemetry, PowerBipsMatrices, SubmitOutcome,
};
use gpm::faults::{CorruptField, FleetFaultKind, FleetFaultPlan, IntervalWindow, NodeSet};
use gpm::net::wire::{decode_frame, encode_decision, encode_telemetry, Frame, FrameReader};
use gpm::types::{ModeCombination, PowerMode, Watts, INLINE_MODES};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation (including zeroed and reallocating ones) on
/// the allocating thread, then forwards to the system allocator.
struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A `cores`-wide report with distinct, valid cells and mixed modes.
fn report(cores: usize) -> NodeTelemetry {
    let power = (0..cores)
        .map(|i| {
            let t = 10.0 + i as f64;
            [t, t * 0.86, t * 0.61]
        })
        .collect();
    let bips = (0..cores)
        .map(|i| {
            let t = 0.5 + i as f64 * 0.1;
            [t, t * 0.95, t * 0.85]
        })
        .collect();
    NodeTelemetry {
        node: cores as u64,
        tick: 3,
        matrices: PowerBipsMatrices::from_rows(power, bips),
        current: (0..cores).map(|i| PowerMode::ALL[i % 3]).collect(),
        budget: Watts::new(12.0 * cores as f64),
    }
}

#[test]
fn decision_decode_allocates_nothing_up_to_32_cores() {
    for cores in [1, 2, 8, 16, 31, 32] {
        let decision = NodeDecision {
            node: 7,
            tick: 11,
            modes: (0..cores).map(|i| PowerMode::ALL[i % 3]).collect(),
            degraded: cores % 2 == 0,
        };
        let mut bytes = Vec::new();
        encode_decision(&decision, &mut bytes);
        let (frame, allocs) = allocations(|| decode_frame(&bytes[4..]));
        assert_eq!(frame.expect("decision decodes"), Frame::Decision(decision));
        assert_eq!(
            allocs, 0,
            "{cores}-core decision decode allocated {allocs} times"
        );
    }
}

#[test]
fn telemetry_decode_allocates_once_up_to_32_cores() {
    let tables = PhaseTables::build();
    // The phase load's 8-, 16- and 32-way nodes, plus odd widths.
    let reports = (0..3)
        .map(|node| tables.telemetry(node, 0))
        .chain([1, 5, 31].map(report));
    for telemetry in reports {
        let cores = telemetry.matrices.cores();
        let mut bytes = Vec::new();
        encode_telemetry(&telemetry, &mut bytes);
        let (frame, allocs) = allocations(|| decode_frame(&bytes[4..]));
        assert_eq!(
            frame.expect("telemetry decodes"),
            Frame::Telemetry(telemetry)
        );
        assert_eq!(
            allocs, 1,
            "{cores}-core telemetry decode allocated {allocs} times"
        );
    }
}

#[test]
fn repeated_telemetry_frames_decode_without_allocating_through_one_reader() {
    for cores in [1, 5, 8, 16, 32, INLINE_MODES] {
        let first = report(cores);
        // Same width, so the same payload size, with other cells.
        let second = NodeTelemetry {
            matrices: PowerBipsMatrices::from_rows(
                first
                    .matrices
                    .power_rows()
                    .iter()
                    .map(|row| row.map(|w| 2.0 * w))
                    .collect(),
                first.matrices.bips_rows().to_vec(),
            ),
            ..first.clone()
        };
        let mut bytes = Vec::new();
        encode_telemetry(&first, &mut bytes);
        for _ in 0..3 {
            encode_telemetry(&second, &mut bytes);
        }
        let mut reader = FrameReader::new(bytes.as_slice());
        let mut read = |want: &NodeTelemetry| {
            let (frame, allocs) = allocations(|| reader.read());
            let frame = frame.expect("telemetry decodes").expect("a frame");
            assert_eq!(frame, Frame::Telemetry(want.clone()));
            allocs
        };
        // The first frame grows the payload buffer, allocates the intern
        // table and decodes its cells into one block.
        assert_eq!(read(&first), 3, "{cores}-core first frame");
        // A new matrix costs its cells' block alone.
        assert_eq!(read(&second), 1, "{cores}-core new matrix");
        // A repeated one costs nothing.
        for _ in 0..2 {
            let allocs = read(&second);
            assert_eq!(
                allocs, 0,
                "{cores}-core repeated frame allocated {allocs} times"
            );
        }
    }
}

#[test]
fn wide_frames_allocate_only_for_their_heap_vectors() {
    // Above the inline width the modes take one heap vector of their own.
    let wide = report(64);
    let mut bytes = Vec::new();
    encode_telemetry(&wide, &mut bytes);
    let (frame, allocs) = allocations(|| decode_frame(&bytes[4..]));
    assert_eq!(frame.expect("telemetry decodes"), Frame::Telemetry(wide));
    assert_eq!(allocs, 2);

    let decision = NodeDecision {
        node: 1,
        tick: 2,
        modes: ModeCombination::uniform(64, PowerMode::Eff1),
        degraded: false,
    };
    bytes.clear();
    encode_decision(&decision, &mut bytes);
    let (frame, allocs) = allocations(|| decode_frame(&bytes[4..]));
    assert_eq!(frame.expect("decision decodes"), Frame::Decision(decision));
    assert_eq!(allocs, 1);
}

/// The allocations of a warm tick of 1,000 phase-load reports under
/// `config`, after two full phase rotations have filled the cache with
/// every problem, plus the tick's group count. Submitting the tick's
/// reports must not allocate: the queue kept from the last tick does
/// not regrow.
fn warm_tick_allocations(config: FleetConfig) -> (u64, u64) {
    const NODES: u64 = 1_000;
    let tables = PhaseTables::build();
    let mut engine = FleetEngine::new(FleetConfig {
        queue_capacity: NODES as usize,
        ..config
    })
    .expect("valid fleet config");
    for tick in 0..8 {
        for node in 0..NODES {
            assert!(engine.submit(tables.telemetry(node, tick)));
        }
        engine.run_tick(tick);
    }
    let tick = 8;
    let reports: Vec<NodeTelemetry> = (0..NODES)
        .map(|node| tables.telemetry(node, tick))
        .collect();
    let before = engine.stats();
    let (accepted, submit_allocs) = allocations(|| {
        reports
            .into_iter()
            .map(|report| engine.try_submit(report))
            .filter(|outcome| *outcome == SubmitOutcome::Accepted)
            .count()
    });
    assert_eq!(accepted, NODES as usize);
    assert_eq!(submit_allocs, 0, "submit allocated {submit_allocs} times");
    let (decisions, allocs) = allocations(|| engine.run_tick(tick));
    assert_eq!(decisions.len(), NODES as usize);
    assert!(decisions.iter().all(|decision| !decision.degraded));
    let after = engine.stats();
    let misses = after.unique_solves - before.unique_solves;
    assert_eq!(misses, 0, "two rotations leave every phase problem cached");
    (allocs, after.cache_hits - before.cache_hits)
}

#[test]
fn warm_tick_allocates_per_problem_not_per_report() {
    let (allocs, groups) = warm_tick_allocations(FleetConfig::default());
    // A problem's key shares its report's matrices and keeps its modes
    // inline, and the tick's working vectors are the engine's, kept from
    // the last tick: what is left is the returned decision vector.
    assert_eq!(
        allocs, 1,
        "warm tick of 1,000 reports over {groups} problems allocated {allocs} times"
    );
}

#[test]
fn armed_idle_warm_tick_allocates_no_more_than_the_disarmed_one() {
    // Armed but idle: degraded mode on, a rack budget that never binds
    // and a fault plan whose clauses name a node that never reports, so
    // the power stage runs over the kept scratch every tick.
    let never = NodeSet::Nodes(vec![999_983]);
    let plan = FleetFaultPlan::none()
        .with(
            FleetFaultKind::NodeFlap { period: 2, down: 1 },
            never.clone(),
            IntervalWindow::ALWAYS,
        )
        .with(
            FleetFaultKind::CorruptReport {
                field: CorruptField::Nan,
                rate: 1.0,
            },
            never,
            IntervalWindow::ALWAYS,
        );
    let (disarmed, _) = warm_tick_allocations(FleetConfig::default());
    let (armed, groups) = warm_tick_allocations(FleetConfig {
        faults: Some(plan),
        degraded: true,
        rack_budget: Some(Watts::new(1e12)),
        ..FleetConfig::default()
    });
    assert!(
        armed <= disarmed,
        "armed warm tick over {groups} problems allocated {armed} times, disarmed {disarmed}"
    );
}

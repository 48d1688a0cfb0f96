//! Scoped worker-pool primitives for the gpm workspace.
//!
//! Every experiment layer — trace capture, policy sweeps, figure grids —
//! consists of independent, deterministic units of work. This crate provides
//! the one abstraction they all share: [`parallel_map`], an order-preserving
//! parallel map over a slice built on [`std::thread::scope`] (no runtime
//! dependencies, no long-lived pool).
//!
//! # Determinism
//!
//! Workers claim indices from an atomic counter but write each result into
//! its **pre-indexed output slot**; the caller receives results in input
//! order regardless of scheduling, so a parallel map is bit-identical to the
//! serial loop it replaces. [`try_parallel_map`] likewise reports the error
//! of the *lowest-indexed* failing item, matching what a serial
//! short-circuiting loop would surface.
//!
//! # Thread-count policy
//!
//! The pool width comes from, in priority order:
//! 1. the programmatic override ([`set_max_threads`]),
//! 2. the `GPM_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested parallel regions are serialised: a `parallel_map` called from
//! inside a worker runs inline on that worker thread ([`in_parallel_region`]
//! is thread-local), so fan-out is bounded by the outermost region and inner
//! layers cannot oversubscribe the machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rounds;

pub use rounds::{run_rounds, RoundView};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Programmatic thread-count override: 0 = unset (fall back to env/HW).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Sets (or with `None` clears) the process-wide thread-count override.
///
/// Takes precedence over `GPM_THREADS` and the detected hardware
/// parallelism. `Some(1)` forces every parallel region to run serially —
/// the determinism tests use exactly this.
pub fn set_max_threads(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The number of worker threads a new top-level parallel region will use.
///
/// Resolution order: [`set_max_threads`] override, then the `GPM_THREADS`
/// environment variable, then [`std::thread::available_parallelism`].
/// Always at least 1.
#[must_use]
pub fn max_threads() -> usize {
    let override_n = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if override_n > 0 {
        return override_n;
    }
    if let Ok(raw) = std::env::var("GPM_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Whether the current thread is already inside a parallel region.
///
/// Inner `parallel_map` calls consult this and run inline, so nesting never
/// multiplies thread counts.
#[must_use]
pub fn in_parallel_region() -> bool {
    IN_POOL.with(std::cell::Cell::get)
}

/// Marks the current thread as (not) being a pool worker; used by every
/// pool implementation in this crate so nesting checks agree.
pub(crate) fn set_region_flag(value: bool) {
    IN_POOL.with(|flag| flag.set(value));
}

/// Serialises tests (across this crate's test modules) that touch the
/// process-wide thread-count override.
#[cfg(test)]
pub(crate) static TEST_OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Spawns up to `max_threads()` scoped workers that claim items from an
/// atomic cursor and write results into pre-indexed slots; the output is
/// identical to `items.iter().map(f).collect()` for any thread count.
/// Runs inline when the pool width is 1, there is at most one item, or the
/// caller is itself inside a parallel region; the width is only read (an
/// environment lookup) when there are two items or more.
///
/// # Panics
///
/// Propagates the first worker panic.
pub fn parallel_map<T: Sync, R: Send, F>(items: &[T], f: F) -> Vec<R>
where
    F: Fn(&T) -> R + Sync,
{
    if items.len() <= 1 || in_parallel_region() {
        return items.iter().map(f).collect();
    }
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                set_region_flag(true);
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else { break };
                    let result = f(item);
                    *slots[index].lock().expect("result slot poisoned") = Some(result);
                }
            }));
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// Fallible [`parallel_map`]: collects `Ok` results in input order, or
/// returns the error of the lowest-indexed failing item.
///
/// Unlike a serial short-circuiting loop, items after a failure may still be
/// evaluated (workers run concurrently), but the *reported* error is always
/// the one the serial loop would have hit first, keeping error behaviour
/// deterministic.
///
/// # Errors
///
/// Returns the lowest-indexed `Err` produced by `f`.
pub fn try_parallel_map<T: Sync, R: Send, E: Send, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    F: Fn(&T) -> Result<R, E> + Sync,
{
    let results = parallel_map(items, f);
    let mut out = Vec::with_capacity(results.len());
    for result in results {
        out.push(result?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    use crate::TEST_OVERRIDE_LOCK as OVERRIDE_LOCK;

    #[test]
    fn preserves_order_for_any_thread_count() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 5] {
            set_max_threads(Some(threads));
            let mapped = parallel_map(&items, |&x| x * 3);
            assert_eq!(mapped, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
        set_max_threads(None);
    }

    #[test]
    fn reports_lowest_index_error() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_max_threads(Some(4));
        let items: Vec<usize> = (0..64).collect();
        let result: Result<Vec<usize>, usize> =
            try_parallel_map(&items, |&x| if x % 7 == 3 { Err(x) } else { Ok(x) });
        assert_eq!(result.unwrap_err(), 3);
        set_max_threads(None);
    }

    #[test]
    fn nested_regions_run_inline() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_max_threads(Some(4));
        let saw_nested_pool = AtomicBool::new(false);
        let outer: Vec<usize> = (0..8).collect();
        let results = parallel_map(&outer, |&x| {
            assert!(in_parallel_region());
            let inner: Vec<usize> = (0..4).collect();
            // An inner map must not spawn; it runs on this worker thread.
            let inner_sum: usize = parallel_map(&inner, |&y| {
                if !in_parallel_region() {
                    saw_nested_pool.store(true, Ordering::SeqCst);
                }
                x * y
            })
            .into_iter()
            .sum();
            inner_sum
        });
        assert!(!saw_nested_pool.load(Ordering::SeqCst));
        assert_eq!(results.len(), 8);
        set_max_threads(None);
    }

    #[test]
    fn thread_count_override_wins() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_max_threads(Some(3));
        assert_eq!(max_threads(), 3);
        set_max_threads(None);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[5u32], |&x| x + 1), vec![6]);
    }
}

//! Toggle-sensitive integration tests: concurrent update exactness, export
//! byte-determinism across thread counts, and span-stack semantics.
//!
//! These tests force the global toggles and share the global registry, so
//! they serialise on one mutex and reset the registry at each start.

use scnn_obs::{flush_thread_spans, force, registry, span};
use std::sync::Mutex;

/// Serialises tests that touch the global toggle/registry state.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs a fixed workload partitioned over `threads` workers: every item `i`
/// in `0..items` increments the counter by `i % 7` and records `i * 31` into
/// the histogram, regardless of which worker handles it.
fn run_partitioned(threads: usize, items: u64) {
    std::thread::scope(|scope| {
        for worker in 0..threads {
            scope.spawn(move || {
                let counter = registry().counter("det/work");
                let histogram = registry().histogram("det/values");
                let mut i = worker as u64;
                while i < items {
                    counter.add(i % 7);
                    histogram.record(i * 31);
                    i += threads as u64;
                }
            });
        }
    });
}

#[test]
fn concurrent_totals_are_exact_and_export_is_byte_deterministic() {
    let _guard = locked();
    force(true);
    const ITEMS: u64 = 10_000;
    let expected_total: u64 = (0..ITEMS).map(|i| i % 7).sum();

    let mut renders = Vec::new();
    let mut snapshots = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        registry().reset();
        run_partitioned(threads, ITEMS);
        assert_eq!(
            registry().counter("det/work").get(),
            expected_total,
            "counter total must be exact with {threads} threads"
        );
        assert_eq!(registry().histogram("det/values").count(), ITEMS);
        renders.push(registry().render_text());
        snapshots.push(registry().snapshot());
    }
    for (i, render) in renders.iter().enumerate().skip(1) {
        assert_eq!(render, &renders[0], "render_text differs at thread set {i}");
        assert_eq!(snapshots[i], snapshots[0], "snapshot differs at thread set {i}");
    }
    force(false);
}

#[test]
fn span_counts_merge_exactly_across_worker_threads() {
    let _guard = locked();
    force(true);
    const PER_THREAD: u64 = 257;
    for threads in [1usize, 3, 8] {
        registry().reset();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        let _s = span("det/stage");
                    }
                });
            }
        });
        let h = registry().histogram("stage/det/stage");
        assert_eq!(
            h.count(),
            PER_THREAD * threads as u64,
            "span call count must be exact with {threads} threads"
        );
    }
    force(false);
}

#[test]
fn spans_are_inert_when_disabled() {
    let _guard = locked();
    force(false);
    registry().reset();
    {
        let _s = span("det/disabled");
    }
    flush_thread_spans();
    assert_eq!(registry().histogram("stage/det/disabled").count(), 0);
}

#[test]
fn metrics_mode_keys_spans_by_leaf_stage() {
    let _guard = locked();
    force(true);
    registry().reset();
    {
        let _outer = span("flat_outer");
        let _inner = span("flat_inner");
    }
    assert_eq!(registry().histogram("stage/flat_inner").count(), 1);
    assert_eq!(registry().histogram("stage/flat_outer/flat_inner").count(), 0);
    force(false);
}

#[test]
fn leaked_inner_span_does_not_misattribute() {
    let _guard = locked();
    force(true);
    registry().reset();
    {
        let outer = span("leak_outer");
        let inner = span("leak_inner");
        // Drop out of LIFO order: outer first, then inner.
        drop(outer);
        drop(inner);
    }
    flush_thread_spans();
    // The outer span recorded itself; the stale inner entry was discarded
    // rather than being attributed to some other stage.
    assert_eq!(registry().histogram("stage/leak_outer").count(), 1);
    assert_eq!(registry().histogram("stage/leak_inner").count(), 0);
    force(false);
}

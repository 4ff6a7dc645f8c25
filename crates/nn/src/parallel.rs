//! Scoped-thread chunked parallel maps for batch evaluation.
//!
//! The dataset-scale loops of this workspace (feature extraction over a
//! dataset, tail evaluation over batches, per-image accuracy sweeps in the
//! bench harnesses) are embarrassingly parallel: every item is independent
//! and the per-item work is milliseconds of stream simulation or linear
//! algebra. This module provides the one primitive they all share — a
//! deterministic chunked map over [`std::thread::scope`] — without pulling
//! in an external work-stealing runtime (the workspace builds offline with
//! vendored dependencies only).
//!
//! # Thread count
//!
//! The worker count comes from the `SCNN_THREADS` environment variable
//! (any positive integer; `1` disables threading entirely) and defaults to
//! [`std::thread::available_parallelism`]. It is re-read on every call so
//! harnesses can sweep it without rebuilding engines.
//!
//! # Determinism
//!
//! Items are split into contiguous chunks, one per worker, and the chunk
//! results are concatenated in order, so the output `Vec` is **identical
//! for every thread count** — the property tests assert byte-equality of
//! whole evaluation pipelines under `SCNN_THREADS=1` vs `SCNN_THREADS=4`.
//! Reductions that are sensitive to association order (e.g. floating-point
//! mean loss) must therefore happen in item order: on the ordered output,
//! as [`Network::evaluate`](crate::Network::evaluate) does, or inside the
//! workers by turn, as the training step's gradient reduce does (see
//! [`Network::train_epoch_threads`](crate::Network::train_epoch_threads)).
//!
//! # Example
//!
//! ```
//! use scnn_nn::parallel;
//!
//! let squares = parallel::par_map_range(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Explicit thread counts give the same answer in the same order.
//! assert_eq!(parallel::par_map_range_threads(3, 8, |i| i * i), squares);
//! ```

/// Name of the environment variable selecting the worker-thread count.
pub const THREADS_ENV: &str = "SCNN_THREADS";

/// The worker-thread count in effect: `SCNN_THREADS` if it parses as a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 when even that is unavailable).
pub fn thread_count() -> usize {
    match std::env::var(THREADS_ENV).ok().and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, usize::from),
    }
}

/// Maps `f` over `0..n` with [`thread_count`] workers, returning results in
/// index order. See [`par_map_range_threads`].
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_range_threads(thread_count(), n, f)
}

/// Maps `f` over `0..n` using at most `threads` scoped workers.
///
/// The index range is split into `threads` contiguous chunks; each worker
/// evaluates its chunk in order and the chunks are concatenated in order,
/// so the result is independent of the thread count. With `threads <= 1`
/// (or one item) everything runs on the calling thread.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins every worker).
pub fn par_map_range_threads<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_chunk_map_threads(threads, n, |range| range.map(&f).collect())
}

/// Chunk-granular variant of [`par_map_range_threads`] with the default
/// thread count: `f` receives each worker's contiguous index range and
/// returns that chunk's results in order. Use this when per-worker setup
/// (e.g. cloning a network once per worker instead of once per item) is
/// worth amortizing.
pub fn par_chunk_map<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<U> + Sync,
{
    par_chunk_map_threads(thread_count(), n, f)
}

/// Chunk-granular parallel map: splits `0..n` into at most `threads`
/// contiguous ranges, runs `f` on each range in a scoped worker, and
/// concatenates the returned chunks in range order.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_chunk_map_threads<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<U> + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return f(0..n);
    }
    // Worker utilization (SCNN_METRICS): the `parallel/worker` span records
    // each worker's busy wall time, so utilization = sum(worker busy) /
    // (threads × pass wall). Off-path cost is one relaxed load.
    if scnn_obs::metrics_enabled() {
        #[allow(clippy::cast_possible_wrap)]
        scnn_obs::registry().gauge("parallel/threads").set(threads as i64);
    }
    let chunk = n.div_ceil(threads);
    let starts: Vec<usize> = (0..threads).map(|t| t * chunk).take_while(|&s| s < n).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = starts
            .iter()
            .map(|&start| {
                scope.spawn(move || {
                    let _busy = scnn_obs::span("parallel/worker");
                    f(start..(start + chunk).min(n))
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for handle in handles {
            out.extend(handle.join().expect("parallel worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_for_every_thread_count() {
        let expected: Vec<usize> = (0..101).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 7, 16, 200] {
            assert_eq!(
                par_map_range_threads(threads, 101, |i| i * 3 + 1),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_range_threads(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_range_threads(4, 1, |i| i + 9), vec![9]);
    }

    #[test]
    fn chunk_map_sees_contiguous_partition() {
        let ranges = par_chunk_map_threads(3, 10, |range| vec![(range.start, range.end)]);
        // Concatenated chunk boundaries tile 0..10 in order.
        let mut next = 0;
        for (start, end) in &ranges {
            assert_eq!(*start, next);
            assert!(end > start);
            next = *end;
        }
        assert_eq!(next, 10);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn results_cross_threads() {
        // Non-Copy payloads move back from workers intact.
        let words = par_map_range_threads(4, 6, |i| format!("item-{i}"));
        assert_eq!(words[5], "item-5");
        assert_eq!(words.len(), 6);
    }
}

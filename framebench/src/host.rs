//! Host speed adjustment.
//!
//! A shared benchmark host can run each virtual CPU up to 1.8× slower for
//! stretches of a fraction of a second to minutes, in wall and in thread
//! CPU time alike, whatever the program does; the share of time spent
//! slow drifts from run to run. Raw host times then measure the host as
//! much as the program. So every unit of work is bracketed by a fixed
//! reference kernel, timed on the threads the unit runs on, and its time
//! is reported *host-speed-adjusted*: multiplied by [`NOMINAL_S`] over the
//! mean of the two kernel times. On an idle host this is the raw time;
//! under contention it removes most of the slowdown, because the kernel
//! (floating-point multiply-adds, like the tail's layers) slows nearly as
//! much as the frames do. A dependent integer chain barely slows, so it
//! could not tell.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on an idle host of the kind the benchmark
/// was tuned on; adjusted times are scaled to it.
pub const NOMINAL_S: f64 = 150e-6;

/// Multiply-adds over a 16 KiB array, 400 times.
fn reference_kernel() -> f64 {
    let data: Vec<f32> = (0..4096).map(|i| i as f32 * 1e-3).collect();
    let data = black_box(data);
    let start = Instant::now();
    let mut acc = [0f32; 8];
    for round in 0..black_box(400) {
        let w = 1.0 + round as f32 * 1e-4;
        for chunk in data.chunks_exact(8) {
            for (sum, v) in acc.iter_mut().zip(chunk) {
                *sum += v * w;
            }
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Times the reference kernel on `threads` threads at once (the calling
/// thread alone for 1) and returns the slowest, in seconds.
fn probe(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_kernel();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(reference_kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the reference kernel does not panic"))
            .fold(0.0, f64::max)
    })
}

/// Runs `work` between two probes on `threads` threads. Returns its
/// result and the factor that turns its host times into adjusted times.
pub fn bracketed<T>(threads: usize, work: impl FnOnce() -> T) -> (T, f64) {
    let before = probe(threads);
    let out = work();
    let after = probe(threads);
    (out, NOMINAL_S / (0.5 * (before + after)))
}

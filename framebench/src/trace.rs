//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, name, thread, start, end)`. Spans nest through a
//! thread-local stack; a span opened on a thread with no open span (a pool
//! worker) takes the current *root* as its parent, so work fanned out by
//! the library's worker pool still hangs under the pass that caused it.
//! While tracing is off, opening a span costs one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
/// Parent of spans opened on threads with no open span (0 = none).
static ROOT: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// One closed span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a top-level span.
    pub parent: u64,
    pub name: &'static str,
    /// Small per-process thread number.
    pub thread: usize,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("runs last less than 584 years")
}

fn thread_number() -> usize {
    THREAD.with(|t| {
        if t.get() == usize::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
    /// Root id this guard replaced, when it was opened with [`root`].
    replaced_root: Option<u64>,
}

/// Opens a span named `name`, or does nothing while tracing is off.
pub fn span(name: &'static str) -> Option<Guard> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or_else(|| ROOT.load(Ordering::SeqCst));
        s.push(id);
        parent
    });
    Some(Guard { id, parent, name, start: now_ns(), replaced_root: None })
}

/// Opens a span that also becomes the parent of spans opened on pool
/// worker threads until it closes.
pub fn root(name: &'static str) -> Option<Guard> {
    let mut guard = span(name)?;
    guard.replaced_root = Some(ROOT.swap(guard.id, Ordering::SeqCst));
    Some(guard)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans close in LIFO order");
        });
        if let Some(previous) = self.replaced_root {
            ROOT.store(previous, Ordering::SeqCst);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: thread_number(),
            start: self.start,
            end,
        };
        // A poisoned lock only means another thread panicked mid-push; the
        // vector itself is still valid, and `Drop` must not panic.
        SPANS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(span);
    }
}

/// Takes every span recorded so far, ordered by id.
pub fn drain() -> Vec<Span> {
    let mut spans =
        std::mem::take(&mut *SPANS.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it covered by
/// its children (on any thread), in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start, s.end));
        }
    }
    spans.iter().zip(children).map(|(s, c)| s.duration() - covered(c, s.start, s.end)).collect()
}

/// Busy time per thread: the union of the intervals of `spans` on that
/// thread, summed over threads, in nanoseconds.
pub fn busy_ns(spans: &[&Span]) -> u64 {
    let mut by_thread: std::collections::BTreeMap<usize, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        by_thread.entry(s.thread).or_default().push((s.start, s.end));
    }
    by_thread.into_values().map(|iv| covered(iv, 0, u64::MAX)).sum()
}

/// Writes `spans` as tab-separated lines: id, parent, name, thread, start
/// and end in nanoseconds.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tthread\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(out, "{}\t{}\t{}\t{}\t{}\t{}", s.id, s.parent, s.name, s.thread, s.start, s.end)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_self_time() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered(vec![(0, 10)], 5, 8), 3);
        let spans = [
            Span { id: 1, parent: 0, name: "a", thread: 0, start: 0, end: 100 },
            Span { id: 2, parent: 1, name: "b", thread: 0, start: 10, end: 30 },
            Span { id: 3, parent: 1, name: "c", thread: 1, start: 20, end: 50 },
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 30]);
    }
}

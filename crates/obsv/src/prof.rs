//! The one span primitive: a per-thread stack of open spans, read by a
//! wall-clock sampler and closed into per-span statistics.
//!
//! A span is opened by [`enter`] / `prof_frame!` (a plain frame) or by
//! [`TraceRecorder::begin_ctx`](crate::trace::TraceRecorder::begin_ctx)
//! (the same frame carrying a trace). Either way the one guard,
//! [`SpanGuard`], closes it with one clock reading that feeds three sinks —
//! the sampler's stack, span-stats, and for a traced span the trace ring —
//! and [`SpanGuard::close`] hands that reading back, so a histogram kept
//! beside a span reads no second clock.
//!
//! * **Span-stack flight recorder.** Every instrumented thread mirrors its
//!   open spans into a lock-free thread stack: a fixed array of atomic
//!   frame ids plus an atomic depth. Only the owning
//!   thread writes; the sampler reads cross-thread without stopping the
//!   world. Frame names are interned to `u32` ids (a fat `&str` pointer
//!   cannot be stored in one atomic), so a torn read during a concurrent
//!   push/pop yields at worst a *stale but valid* frame id — acceptable
//!   noise for a statistical profiler.
//! * **Wall-clock sampler.** A single `prof-sampler` thread wakes at a
//!   configurable rate (default 99 Hz, env `SENSORSAFE_PROF_HZ`, runtime
//!   [`set_sample_rate_hz`]) and folds every registered stack into a
//!   `kind;frame;frame → count` table. [`profile_window`] diffs that table
//!   across a sleep and renders collapsed-stack text that `flamegraph.pl`
//!   / speedscope ingest directly; both servers serve it at
//!   `GET /debug/profile?seconds=N`.
//! * **Span statistics.** Frame exit feeds an incremental per-span
//!   aggregate (count, total, self time, p99 from the shared latency
//!   bucket layout), exposed via [`span_stats`] and the servers'
//!   `/debug/spans` + `/ui/spans`. Self time is total minus time spent in
//!   children, with no extra clock reads. A phase ([`crate::trace::phase`])
//!   is a child of its traced span, so a request's own self time is what no
//!   phase or frame claimed, and one thread's self columns add up to its
//!   wall time.
//!
//! The front door opens a traced span per request; worker loops (journal
//! commit, epoll, handler pool, replication shipper) add plain frames.
//! Threads with no open frame are sampled as `kind;(idle)`, so blocked
//! worker pools stay visible without instrumenting every wait site.

use crate::metrics::{HistogramSnapshot, DEFAULT_LATENCY_BUCKETS};
use crate::trace::Traced;
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Deepest stack the flight recorder mirrors; deeper frames still get
/// timed statistics but do not appear in sampled stacks.
pub const MAX_DEPTH: usize = 32;

/// Upper bound on distinct interned frame names. Route patterns, phase
/// names, and worker-loop labels are all drawn from small static sets, so
/// hitting this cap means something is interning unbounded strings; the
/// overflow folds into [`OTHER_FRAME`] instead of growing without limit.
pub const MAX_FRAMES: usize = 4096;

/// Frame id every name beyond [`MAX_FRAMES`] collapses into.
pub const OTHER_FRAME: u32 = 0;

/// Synthetic frame id for a registered thread with no open frame.
pub const IDLE_FRAME: u32 = 1;

// ---------------------------------------------------------------------------
// Frame interning
// ---------------------------------------------------------------------------

struct Interner {
    lookup: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

impl Interner {
    fn insert(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.lookup.get(name) {
            return id;
        }
        if self.names.len() >= MAX_FRAMES {
            return OTHER_FRAME;
        }
        let id = self.names.len() as u32;
        // Each distinct name is stored once for the life of the process
        // ([`MAX_FRAMES`] bounds them), so a resolved [`Frame`] can carry
        // its name without a lock.
        let name: &'static str = Box::leak(name.into());
        self.names.push(name);
        self.lookup.insert(name, id);
        id
    }

    fn name(&self, id: u32) -> &'static str {
        self.names.get(id as usize).copied().unwrap_or("__other__")
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        let mut table = Interner {
            lookup: HashMap::new(),
            names: Vec::new(),
        };
        assert_eq!(table.insert("__other__"), OTHER_FRAME);
        assert_eq!(table.insert("(idle)"), IDLE_FRAME);
        RwLock::new(table)
    })
}

/// Interns `name`, returning its stable frame id. Names beyond
/// [`MAX_FRAMES`] all map to [`OTHER_FRAME`]. Hot call sites should cache
/// the id (see the `prof_frame!` macro) — the common path here is still
/// just a shared-lock hash lookup.
pub fn intern(name: &str) -> u32 {
    if let Some(&id) = interner().read().lookup.get(name) {
        return id;
    }
    interner().write().insert(name)
}

/// Resolves a frame id back to its name (`"__other__"` for unknown ids).
pub fn frame_name(id: u32) -> String {
    interner().read().name(id).to_string()
}

/// A span name resolved once to its frame id, so opening a span under it
/// takes no intern lookup. The front door resolves one per route; names
/// beyond [`MAX_FRAMES`] resolve to `__other__`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    pub(crate) id: u32,
    pub(crate) name: &'static str,
}

impl From<&str> for Frame {
    fn from(name: &str) -> Frame {
        let id = intern(name);
        Frame {
            id,
            name: interner().read().name(id),
        }
    }
}

impl From<String> for Frame {
    fn from(name: String) -> Frame {
        Frame::from(name.as_str())
    }
}

/// Opens a profiling frame with a per-call-site cached intern id, skipping
/// the intern-table lookup on the hot path entirely.
#[macro_export]
macro_rules! prof_frame {
    ($name:literal) => {{
        static FRAME_ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::prof::enter_id(*FRAME_ID.get_or_init(|| $crate::prof::intern($name)))
    }};
}

// ---------------------------------------------------------------------------
// Per-thread span stacks + registry
// ---------------------------------------------------------------------------

/// The cross-thread-readable mirror of one thread's open frames.
struct ThreadStack {
    kind_id: u32,
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_DEPTH],
}

fn registry() -> &'static Mutex<Vec<Weak<ThreadStack>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<ThreadStack>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// The thread "kind" a stack is filed under: the thread name with a
/// trailing `-<index>` stripped, so `net-handler-3` and `net-handler-7`
/// fold together as `net-handler`. Unnamed threads file under `thread`.
fn thread_kind() -> String {
    let current = std::thread::current();
    let name = current.name().unwrap_or("thread");
    match name.rfind('-') {
        Some(i) if i + 1 < name.len() && name[i + 1..].bytes().all(|b| b.is_ascii_digit()) => {
            name[..i].to_string()
        }
        _ => name.to_string(),
    }
}

struct OpenFrame {
    id: u32,
    started: Instant,
    /// Time of the children that closed since the last phase boundary.
    child_nanos: u64,
    /// Set on a traced span (boxed: a plain frame stays small to push and
    /// pop).
    trace: Option<Box<Traced>>,
}

/// This thread's open spans, innermost last: the one stack every span,
/// traced or not, is pushed on.
struct LocalProf {
    stack: Option<Arc<ThreadStack>>,
    open: Vec<OpenFrame>,
    /// Phase frame ids, one per phase name literal (per call site), so a
    /// phase takes no intern lock.
    phase_ids: Vec<(&'static str, u32)>,
}

thread_local! {
    static LOCAL: RefCell<LocalProf> = const {
        RefCell::new(LocalProf { stack: None, open: Vec::new(), phase_ids: Vec::new() })
    };
}

fn new_thread_stack() -> Arc<ThreadStack> {
    let stack = Arc::new(ThreadStack {
        kind_id: intern(&thread_kind()),
        depth: AtomicUsize::new(0),
        frames: std::array::from_fn(|_| AtomicU32::new(0)),
    });
    registry().lock().push(Arc::downgrade(&stack));
    // First profiled span in the process also brings up the sampler.
    sampler();
    stack
}

/// RAII guard for an open span — plain frame or traced — on the current
/// thread's stack. Dropping it closes the span; [`SpanGuard::close`] does
/// the same and hands back the duration it measured.
pub struct SpanGuard {
    _private: (),
}

impl SpanGuard {
    /// Closes the span now and returns its duration: the one clock reading
    /// that span-stats, the trace ring and any histogram kept beside the
    /// span all record.
    pub fn close(self) -> Duration {
        let total = close_innermost();
        std::mem::forget(self);
        total
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        close_innermost();
    }
}

/// Opens a profiling frame named `name` on the current thread; the frame
/// closes when the returned guard drops. While open, the sampler sees the
/// frame in this thread's stack, and on close its duration feeds
/// [`span_stats`].
pub fn enter(name: &str) -> SpanGuard {
    enter_id(intern(name))
}

/// [`enter`] for a pre-interned frame id — the zero-lookup hot path used
/// by the `prof_frame!` macro.
pub fn enter_id(id: u32) -> SpanGuard {
    open(id, None)
}

/// Pushes a span on this thread's stack.
pub(crate) fn open(id: u32, trace: Option<Traced>) -> SpanGuard {
    LOCAL.with(|cell| {
        let mut local = cell.borrow_mut();
        if local.stack.is_none() {
            local.stack = Some(new_thread_stack());
        }
        let LocalProf { stack, open, .. } = &mut *local;
        let stack = stack.as_ref().expect("stack registered above");
        let depth = open.len();
        if depth < MAX_DEPTH {
            stack.frames[depth].store(id, Ordering::Relaxed);
        }
        // Release pairs with the sampler's Acquire: a sampler that observes
        // the new depth also observes the frame id stored above.
        stack.depth.store(depth + 1, Ordering::Release);
        open.push(OpenFrame {
            id,
            started: Instant::now(),
            child_nanos: 0,
            trace: trace.map(Box::new),
        });
    });
    SpanGuard { _private: () }
}

/// The one close: pops the innermost span, publishes the new depth to the
/// sampler, feeds span-stats, and hands a traced span's trace to its
/// recorder. Returns the span's duration (zero when the stack is empty or
/// already torn down — a guard dropped during thread-local teardown must
/// not panic, and losing that one span is fine).
fn close_innermost() -> Duration {
    let closed = LOCAL.try_with(|cell| {
        let mut local = cell.borrow_mut();
        let LocalProf { stack, open, .. } = &mut *local;
        let frame = open.pop()?;
        if let Some(stack) = stack {
            stack.depth.store(open.len(), Ordering::Release);
        }
        let total = frame.started.elapsed();
        let nanos = total.as_nanos() as u64;
        if let Some(parent) = open.last_mut() {
            parent.child_nanos = parent.child_nanos.saturating_add(nanos);
        }
        let phases = frame.trace.as_deref().map_or(0, Traced::marked_nanos);
        let claimed = frame.child_nanos.saturating_add(phases);
        record_span(frame.id, nanos, nanos.saturating_sub(claimed));
        Some((total, frame.trace))
    });
    let Ok(Some((total, trace))) = closed else {
        return Duration::ZERO;
    };
    // Outside the stack's borrow: the recorder takes its ring lock and may
    // log a slow request.
    if let Some(trace) = trace {
        (*trace).finish(total);
    }
    total
}

/// Ends the current phase of the innermost traced span (see
/// [`crate::trace::phase`]): a child of that span whose self time is its
/// segment minus the frames that closed inside it. A no-op when no traced
/// span is open.
pub(crate) fn close_phase(name: &'static str) {
    let _ = LOCAL.try_with(|cell| {
        let mut local = cell.borrow_mut();
        let LocalProf {
            open, phase_ids, ..
        } = &mut *local;
        let Some(span) = open.iter_mut().rev().find(|frame| frame.trace.is_some()) else {
            return;
        };
        let at = span.started.elapsed();
        let segment = span.trace.as_mut().map_or(0, |trace| trace.mark(name, at));
        let inside = std::mem::take(&mut span.child_nanos);
        let id = match phase_ids.iter().find(|(n, _)| std::ptr::eq(*n, name)) {
            Some(&(_, id)) => id,
            None => {
                let id = intern(name);
                phase_ids.push((name, id));
                id
            }
        };
        record_span(id, segment, segment.saturating_sub(inside));
    });
}

/// The trace context of the innermost traced span on this thread.
pub(crate) fn innermost_trace_context() -> Option<crate::trace::TraceContext> {
    LOCAL
        .try_with(|cell| {
            let local = cell.borrow();
            let mut open = local.open.iter().rev();
            open.find_map(|frame| frame.trace.as_deref().map(Traced::context))
        })
        .ok()
        .flatten()
}

// ---------------------------------------------------------------------------
// Span statistics
// ---------------------------------------------------------------------------

struct SpanAgg {
    count: AtomicU64,
    total_nanos: AtomicU64,
    self_nanos: AtomicU64,
    /// Per-bucket counts over *total* span seconds, in the
    /// [`DEFAULT_LATENCY_BUCKETS`] layout (`len + 1` for +Inf).
    buckets: Box<[AtomicU64]>,
}

fn stats_table() -> &'static RwLock<HashMap<u32, Arc<SpanAgg>>> {
    static STATS: OnceLock<RwLock<HashMap<u32, Arc<SpanAgg>>>> = OnceLock::new();
    STATS.get_or_init(|| RwLock::new(HashMap::new()))
}

fn record_span(id: u32, total_nanos: u64, self_nanos: u64) {
    let agg = {
        let table = stats_table().read();
        table.get(&id).cloned()
    };
    let agg = agg.unwrap_or_else(|| {
        stats_table()
            .write()
            .entry(id)
            .or_insert_with(|| {
                Arc::new(SpanAgg {
                    count: AtomicU64::new(0),
                    total_nanos: AtomicU64::new(0),
                    self_nanos: AtomicU64::new(0),
                    buckets: (0..DEFAULT_LATENCY_BUCKETS.len() + 1)
                        .map(|_| AtomicU64::new(0))
                        .collect(),
                })
            })
            .clone()
    });
    agg.count.fetch_add(1, Ordering::Relaxed);
    agg.total_nanos.fetch_add(total_nanos, Ordering::Relaxed);
    agg.self_nanos.fetch_add(self_nanos, Ordering::Relaxed);
    let secs = total_nanos as f64 * 1e-9;
    let bucket = DEFAULT_LATENCY_BUCKETS.partition_point(|&b| b < secs);
    agg.buckets[bucket].fetch_add(1, Ordering::Relaxed);
}

/// One row of the continuous span-stats table.
#[derive(Clone, Debug)]
pub struct SpanStat {
    /// Interned frame / span name.
    pub name: String,
    /// Completed observations.
    pub count: u64,
    /// Sum of span wall-clock durations.
    pub total: Duration,
    /// Sum of durations minus time spent in children (closed frames, and
    /// for a traced span its phases).
    pub self_time: Duration,
    /// Interpolated 99th-percentile span duration.
    pub p99: Duration,
}

/// Snapshot of the span-stats table, largest total time first. Counts and
/// totals are monotone non-decreasing across snapshots (CI asserts this).
pub fn span_stats() -> Vec<SpanStat> {
    let entries: Vec<(u32, Arc<SpanAgg>)> = stats_table()
        .read()
        .iter()
        .map(|(&id, agg)| (id, agg.clone()))
        .collect();
    let names = interner().read();
    let mut rows: Vec<SpanStat> = entries
        .into_iter()
        .map(|(id, agg)| {
            let total_nanos = agg.total_nanos.load(Ordering::Relaxed);
            let snapshot = HistogramSnapshot {
                bounds: DEFAULT_LATENCY_BUCKETS.to_vec(),
                counts: agg
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                sum: total_nanos as f64 * 1e-9,
            };
            SpanStat {
                name: names.name(id).to_string(),
                count: agg.count.load(Ordering::Relaxed),
                total: Duration::from_nanos(total_nanos),
                self_time: Duration::from_nanos(agg.self_nanos.load(Ordering::Relaxed)),
                p99: Duration::from_secs_f64(snapshot.p99()),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.name.cmp(&b.name)));
    rows
}

// ---------------------------------------------------------------------------
// Wall-clock sampler
// ---------------------------------------------------------------------------

/// Sampling rates above this are clamped (a 10 kHz sampler would spend
/// more time snapshotting than the threads spend working).
pub const MAX_SAMPLE_HZ: u64 = 2000;

/// Default sampling rate when `SENSORSAFE_PROF_HZ` is unset.
pub const DEFAULT_SAMPLE_HZ: u64 = 99;

struct Sampler {
    hz: AtomicU64,
    samples: Mutex<HashMap<Vec<u32>, u64>>,
    total: AtomicU64,
}

impl Sampler {
    fn sample_once(&self) {
        let stacks: Vec<Arc<ThreadStack>> = {
            let mut registered = registry().lock();
            registered.retain(|weak| weak.strong_count() > 0);
            registered
                .iter()
                .filter_map(|weak| weak.upgrade())
                .collect()
        };
        if stacks.is_empty() {
            return;
        }
        let mut samples = self.samples.lock();
        for stack in stacks {
            let depth = stack.depth.load(Ordering::Acquire).min(MAX_DEPTH);
            let mut key = Vec::with_capacity(depth + 2);
            key.push(stack.kind_id);
            if depth == 0 {
                key.push(IDLE_FRAME);
            }
            for frame in stack.frames.iter().take(depth) {
                key.push(frame.load(Ordering::Relaxed));
            }
            *samples.entry(key).or_insert(0) += 1;
            self.total.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn folded_counts(&self) -> HashMap<Vec<u32>, u64> {
        self.samples.lock().clone()
    }
}

fn sampler() -> &'static Sampler {
    static SAMPLER: OnceLock<Sampler> = OnceLock::new();
    static STARTED: Once = Once::new();
    let sampler = SAMPLER.get_or_init(|| {
        let hz = std::env::var("SENSORSAFE_PROF_HZ")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_SAMPLE_HZ)
            .min(MAX_SAMPLE_HZ);
        Sampler {
            hz: AtomicU64::new(hz),
            samples: Mutex::new(HashMap::new()),
            total: AtomicU64::new(0),
        }
    });
    STARTED.call_once(|| {
        // Failure to spawn leaves the plane sampler-less but functional
        // (span stats still accumulate); don't take the process down.
        let _ = std::thread::Builder::new()
            .name("prof-sampler".to_string())
            .spawn(move || sampler_loop(sampler));
    });
    sampler
}

fn sampler_loop(sampler: &'static Sampler) {
    let mut next = Instant::now();
    loop {
        let hz = sampler.hz.load(Ordering::Relaxed);
        if hz == 0 {
            std::thread::sleep(Duration::from_millis(50));
            next = Instant::now();
            continue;
        }
        let period = Duration::from_secs_f64(1.0 / hz.min(MAX_SAMPLE_HZ) as f64);
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        sampler.sample_once();
        next += period;
        // Fell behind (suspended VM, debugger): skip the backlog rather
        // than burst-sampling to catch up.
        if next + period < Instant::now() {
            next = Instant::now();
        }
    }
}

/// Sets the wall-clock sampling rate in Hz (0 pauses sampling; values
/// above [`MAX_SAMPLE_HZ`] are clamped). Takes effect within one tick.
pub fn set_sample_rate_hz(hz: u64) {
    sampler().hz.store(hz.min(MAX_SAMPLE_HZ), Ordering::Relaxed);
}

/// The current sampling rate in Hz.
pub fn sample_rate_hz() -> u64 {
    sampler().hz.load(Ordering::Relaxed)
}

/// Total stack samples taken since process start (monotone).
pub fn total_samples() -> u64 {
    sampler().total.load(Ordering::Relaxed)
}

fn render_folded(counts: &HashMap<Vec<u32>, u64>) -> String {
    let names = interner().read();
    let mut lines: Vec<(String, u64)> = counts
        .iter()
        .filter(|(_, &count)| count > 0)
        .map(|(key, &count)| {
            let mut line = String::new();
            for (i, &id) in key.iter().enumerate() {
                if i > 0 {
                    line.push(';');
                }
                // Frame separators are structural in the folded format;
                // scrub them out of names defensively.
                for c in names.name(id).chars() {
                    line.push(if c == ';' || c == '\n' { '_' } else { c });
                }
            }
            (line, count)
        })
        .collect();
    lines.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut out = String::new();
    for (stack, count) in lines {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&count.to_string());
        out.push('\n');
    }
    out
}

/// The cumulative folded-stack table since process start, rendered as
/// collapsed-stack text (`kind;frame;... count` lines, hottest first).
pub fn folded_snapshot() -> String {
    render_folded(&sampler().folded_counts())
}

/// Profiles a window: snapshots the folded table, sleeps for `window`,
/// snapshots again, and renders only the samples taken in between. This is
/// what `GET /debug/profile?seconds=N` serves (blocking one handler thread
/// for the window is deliberate — it is a debug endpoint).
pub fn profile_window(window: Duration) -> String {
    let sampler = sampler();
    let before = sampler.folded_counts();
    std::thread::sleep(window);
    let mut after = sampler.folded_counts();
    for (key, count) in after.iter_mut() {
        *count -= before.get(key).copied().unwrap_or(0);
    }
    render_folded(&after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_bounded() {
        let id = intern("prof_test_stable_frame");
        assert_eq!(intern("prof_test_stable_frame"), id);
        assert_eq!(frame_name(id), "prof_test_stable_frame");
        assert_eq!(frame_name(u32::MAX), "__other__");
        assert_eq!(frame_name(OTHER_FRAME), "__other__");
        assert_eq!(frame_name(IDLE_FRAME), "(idle)");
    }

    #[test]
    fn span_stats_accumulate_with_self_time() {
        {
            let _outer = enter("prof_test_outer");
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = enter("prof_test_inner");
                std::thread::sleep(Duration::from_millis(4));
            }
        }
        let stats = span_stats();
        let outer = stats.iter().find(|s| s.name == "prof_test_outer").unwrap();
        let inner = stats.iter().find(|s| s.name == "prof_test_inner").unwrap();
        assert!(outer.count >= 1);
        assert!(inner.count >= 1);
        assert!(outer.total >= Duration::from_millis(8));
        // Outer self time excludes the inner frame's window.
        assert!(outer.self_time < outer.total);
        assert!(inner.self_time <= inner.total);
        assert!(outer.p99 >= Duration::from_millis(1));
    }

    #[test]
    fn self_times_of_a_traced_span_add_up_to_its_total() {
        // One thread, one traced span: a plain frame inside the first of
        // two phases and another after the last one. Every nanosecond of
        // the span is some row's self time, exactly once.
        let rows = [
            "prof_test_selfsum_root",
            "prof_test_selfsum_first",
            "prof_test_selfsum_second",
            "prof_test_selfsum_frame",
        ];
        let read = || -> Vec<(Duration, Duration)> {
            let stats = span_stats();
            rows.iter()
                .map(|name| {
                    stats
                        .iter()
                        .find(|s| s.name == *name)
                        .map_or((Duration::ZERO, Duration::ZERO), |s| (s.total, s.self_time))
                })
                .collect()
        };
        let recorder = crate::trace::TraceRecorder::new(4);
        let before = read();
        {
            let _root = recorder.begin_ctx("prof_test_selfsum_root", None);
            {
                let _frame = enter("prof_test_selfsum_frame");
                std::thread::sleep(Duration::from_millis(2));
            }
            crate::trace::phase("prof_test_selfsum_first");
            crate::trace::phase("prof_test_selfsum_second");
            {
                let _frame = enter("prof_test_selfsum_frame");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let after = read();
        let root_total = after[0].0 - before[0].0;
        let self_sum: Duration = after.iter().zip(&before).map(|(a, b)| a.1 - b.1).sum();
        let gap = root_total.abs_diff(self_sum);
        assert!(
            gap <= Duration::from_micros(1),
            "self times {self_sum:?} vs root total {root_total:?}"
        );
        // The first phase's self time excludes the frame closed inside it.
        let first_self = after[1].1 - before[1].1;
        assert!(after[1].0 - before[1].0 >= Duration::from_millis(2));
        assert!(first_self < Duration::from_millis(2), "{first_self:?}");
        assert_eq!(recorder.recent_traces()[0].total, root_total);
    }

    #[test]
    fn span_stats_totals_are_monotone() {
        {
            let _g = enter("prof_test_monotone");
        }
        let read = |stats: &[SpanStat]| {
            stats
                .iter()
                .find(|s| s.name == "prof_test_monotone")
                .map(|s| (s.count, s.total))
                .unwrap()
        };
        let (count1, total1) = read(&span_stats());
        {
            let _g = enter("prof_test_monotone");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (count2, total2) = read(&span_stats());
        assert!(count2 > count1);
        assert!(total2 > total1);
    }

    #[test]
    fn sampler_folds_active_stacks() {
        let thread = std::thread::Builder::new()
            .name("prof-testworker-1".to_string())
            .spawn(|| {
                let _outer = enter("prof_test_sampled_outer");
                let _inner = enter("prof_test_sampled_inner");
                // Hold the frames open long enough for manual samples.
                std::thread::sleep(Duration::from_millis(200));
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        for _ in 0..3 {
            sampler().sample_once();
        }
        thread.join().unwrap();
        let folded = folded_snapshot();
        let line = folded
            .lines()
            .find(|l| l.contains("prof_test_sampled_outer"))
            .expect("sampled stack line present");
        assert!(
            line.starts_with("prof-testworker;prof_test_sampled_outer;prof_test_sampled_inner"),
            "unexpected folded line: {line}"
        );
        let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(count >= 3, "expected >=3 samples, got {count}");
    }

    #[test]
    fn idle_registered_threads_sample_as_idle() {
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let (sampled_tx, sampled_rx) = std::sync::mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("prof-idleworker-2".to_string())
            .spawn(move || {
                {
                    let _g = enter("prof_test_idle_setup");
                }
                done_tx.send(()).unwrap();
                // Registered, zero open frames: the sampler files this
                // thread under `prof-idleworker;(idle)`.
                sampled_rx.recv().unwrap();
            })
            .unwrap();
        done_rx.recv().unwrap();
        sampler().sample_once();
        sampled_tx.send(()).unwrap();
        thread.join().unwrap();
        assert!(folded_snapshot().contains("prof-idleworker;(idle) "));
    }

    #[test]
    fn profile_window_reports_only_new_samples() {
        let before = folded_snapshot();
        // No sampler running in tests (rate may be default but threads here
        // sample manually); a zero-length window must diff to no counts
        // larger than what arrives during it.
        let window = profile_window(Duration::from_millis(10));
        for line in window.lines() {
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count > 0);
        }
        // Totals only grow.
        assert!(folded_snapshot().len() >= before.len() || before.is_empty());
    }

    #[test]
    fn thread_kind_strips_worker_index() {
        let kind = std::thread::Builder::new()
            .name("net-handler-17".to_string())
            .spawn(thread_kind)
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(kind, "net-handler");
        let kind = std::thread::Builder::new()
            .name("journal-commit".to_string())
            .spawn(thread_kind)
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(kind, "journal-commit");
        let kind = std::thread::Builder::new()
            .name("x-".to_string())
            .spawn(thread_kind)
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(kind, "x-");
    }

    #[test]
    fn deep_stacks_clamp_to_max_depth() {
        let thread = std::thread::Builder::new()
            .name("prof-deepworker-1".to_string())
            .spawn(|| {
                let mut guards = Vec::new();
                for i in 0..(MAX_DEPTH + 4) {
                    guards.push(enter(&format!("prof_test_deep_{i}")));
                }
                std::thread::sleep(Duration::from_millis(100));
                drop(guards);
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        sampler().sample_once();
        thread.join().unwrap();
        let folded = folded_snapshot();
        let line = folded
            .lines()
            .find(|l| l.starts_with("prof-deepworker;prof_test_deep_0"))
            .expect("deep stack sampled");
        // kind + MAX_DEPTH frames, never more.
        assert_eq!(
            line.split(' ').next().unwrap().split(';').count(),
            MAX_DEPTH + 1
        );
        // Beyond-capacity frames still get statistics.
        assert!(span_stats()
            .iter()
            .any(|s| s.name == format!("prof_test_deep_{}", MAX_DEPTH + 3)));
    }

    #[test]
    fn folded_render_escapes_separators() {
        let mut counts = HashMap::new();
        counts.insert(vec![intern("bad;name\nframe")], 2u64);
        let rendered = render_folded(&counts);
        assert_eq!(rendered, "bad_name_frame 2\n");
    }
}

//! Request tracing: spans with timed phases in a bounded ring buffer,
//! linked across processes by a propagated [`TraceContext`].
//!
//! A traced span is not a second mechanism beside profiling: it is a span
//! on the one per-thread stack of [`crate::prof`] that also carries a
//! trace id, its phases and the recorder it reports to. A server begins
//! one per request ([`TraceRecorder::begin_ctx`], fed from the
//! `X-SensorSafe-Trace` header when present); code deeper in the stack
//! marks phase boundaries with the free function [`phase`] without needing
//! the span threaded through its signature (the stack lives in
//! thread-local storage — correct here because a request is served
//! start-to-finish on one thread). The guard's one close feeds the three
//! sinks — the sampler's stack, span-stats (the span's row and one row per
//! phase), and the recorder's ring buffer, where
//! [`TraceRecorder::recent_traces`] reads the finished trace back, newest
//! last — from a single clock reading, which
//! [`SpanGuard::close`](crate::prof::SpanGuard::close) also hands to the
//! caller.
//!
//! Propagation: every span carries a `trace_id` (constant across the whole
//! request tree) and a `parent_span_id`. [`current_context`] exposes the
//! innermost active span as a context for outbound calls — the net client
//! serializes it into the trace header, so a datastore's call to the broker
//! shows up broker-side as a child of the datastore span. Clients that
//! originate a request tree open an ambient [`context_scope`] instead of a
//! span.
//!
//! Slow-request capture: traces whose total exceeds a configurable
//! threshold ([`TraceRecorder::set_slow_threshold`]) are additionally
//! pinned in a separate, smaller ring (so a flood of fast requests cannot
//! evict the interesting ones), counted in
//! `sensorsafe_slow_requests_total`, and logged as one JSON line on stderr
//! with their trace id and phase breakdown.

use crate::prof::{Frame, SpanGuard};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// How many slow traces are pinned independently of the main ring.
const SLOW_RING_CAPACITY: usize = 64;

/// One timed phase inside a span.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    pub name: &'static str,
    pub elapsed: Duration,
}

/// The cross-process position of a request: which request tree it belongs
/// to and which span is its parent. Serialized into the
/// `X-SensorSafe-Trace` header as `<trace_id>-<parent_span_id>`, both
/// 16-digit lowercase hex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the whole request tree; identical in every span it
    /// touches, on every server.
    pub trace_id: u64,
    /// The span id of the caller's span (a server span's parent), or a
    /// synthetic client-side id for a tree opened by [`TraceContext::root`].
    pub parent_span_id: u64,
}

impl TraceContext {
    /// A fresh root context for a client originating a request tree: a new
    /// trace id plus a synthetic client-side span id, so every server span
    /// in the tree has a real parent to point at.
    pub fn root() -> TraceContext {
        TraceContext {
            trace_id: next_id(),
            parent_span_id: next_id(),
        }
    }

    /// The `X-SensorSafe-Trace` header value for this context.
    pub fn header_value(&self) -> String {
        format!("{:016x}-{:016x}", self.trace_id, self.parent_span_id)
    }

    /// Parses a header value produced by [`TraceContext::header_value`].
    /// Returns `None` for anything malformed (propagation is best-effort;
    /// a bad header must never fail the request).
    pub fn parse(value: &str) -> Option<TraceContext> {
        let (trace, parent) = value.trim().split_once('-')?;
        Some(TraceContext {
            trace_id: u64::from_str_radix(trace, 16).ok()?,
            parent_span_id: u64::from_str_radix(parent, 16).ok()?,
        })
    }
}

/// A finished request trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The request tree this span belongs to.
    pub trace_id: u64,
    pub span_id: u64,
    /// The caller's span id; 0 for a root span with no known caller.
    pub parent_span_id: u64,
    /// E.g. `"POST /api/query"`.
    pub name: String,
    pub phases: Vec<Phase>,
    pub total: Duration,
    /// Wall-clock completion time (ms since the Unix epoch).
    pub completed_unix_ms: u64,
}

/// What a span begun by [`TraceRecorder::begin_ctx`] carries on the span
/// stack beyond a plain frame.
pub(crate) struct Traced {
    recorder: Arc<TraceRecorder>,
    name: &'static str,
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
    phases: Vec<Phase>,
    /// Time from the span's start to its last phase boundary.
    marked: Duration,
}

impl Traced {
    /// The context an outbound call made inside this span carries.
    pub(crate) fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span_id: self.span_id,
        }
    }

    /// Ends the current phase `at` this long after the span opened;
    /// returns the phase's nanoseconds.
    pub(crate) fn mark(&mut self, name: &'static str, at: Duration) -> u64 {
        let elapsed = at.saturating_sub(self.marked);
        self.marked = at;
        self.phases.push(Phase { name, elapsed });
        elapsed.as_nanos() as u64
    }

    /// The time its phases claimed.
    pub(crate) fn marked_nanos(&self) -> u64 {
        self.marked.as_nanos() as u64
    }

    /// Hands the finished trace to its recorder.
    pub(crate) fn finish(self, total: Duration) {
        let completed_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.recorder.record(Trace {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
            name: self.name.to_string(),
            phases: self.phases,
            total,
            completed_unix_ms,
        });
    }
}

thread_local! {
    static CONTEXT_STACK: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// Span ids come from one process-wide counter seeded from the wall clock,
/// so ids stay strictly increasing within a process (the trace rings rely
/// on that for ordering) and collide across processes only by accident of
/// a shared nanosecond boot time.
fn next_id() -> u64 {
    static NEXT_ID: OnceLock<AtomicU64> = OnceLock::new();
    let counter = NEXT_ID.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // splitmix64 finalizer spreads consecutive boot times across the
        // id space; the low bits stay a plain counter afterwards.
        let mut seed = nanos.wrapping_add(0x9e37_79b9_7f4a_7c15);
        seed = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        seed = (seed ^ (seed >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        AtomicU64::new((seed ^ (seed >> 31)) | 1)
    });
    counter.fetch_add(1, Ordering::Relaxed)
}

/// Marks the end of the current phase of the innermost traced span: the
/// phase joins the trace and gets a span-stats row of its own. A no-op when
/// no traced span is open (e.g. library code running outside a server).
pub fn phase(name: &'static str) {
    crate::prof::close_phase(name);
}

/// The context an outbound call made *right now* should carry: the
/// innermost traced span if any (the callee becomes its child), else the
/// innermost ambient [`context_scope`], else `None`.
pub fn current_context() -> Option<TraceContext> {
    crate::prof::innermost_trace_context()
        .or_else(|| CONTEXT_STACK.with(|stack| stack.borrow().last().copied()))
}

/// RAII guard for an ambient trace context (see [`context_scope`]).
pub struct ContextScope {
    _private: (),
}

impl Drop for ContextScope {
    fn drop(&mut self) {
        CONTEXT_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Installs `ctx` as this thread's ambient trace context: outbound calls
/// made while the guard lives (and outside any active span) propagate it.
/// This is how a *client* — which records no spans itself — stamps a whole
/// multi-server workflow with one trace id.
pub fn context_scope(ctx: TraceContext) -> ContextScope {
    CONTEXT_STACK.with(|stack| stack.borrow_mut().push(ctx));
    ContextScope { _private: () }
}

/// Bounded collector of finished traces.
pub struct TraceRecorder {
    ring: Mutex<VecDeque<Trace>>,
    slow_ring: Mutex<VecDeque<Trace>>,
    capacity: usize,
    slow_threshold_nanos: AtomicU64,
}

impl TraceRecorder {
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(TraceRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            slow_ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            slow_threshold_nanos: AtomicU64::new(0),
        })
    }

    /// Requests slower than `threshold` are pinned in the slow ring,
    /// counted, and logged; `None` disables capture (the default).
    pub fn set_slow_threshold(&self, threshold: Option<Duration>) {
        let nanos = threshold.map(|d| d.as_nanos().max(1) as u64).unwrap_or(0);
        self.slow_threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Starts a traced span on this thread's span stack; drop or
    /// [`close`](SpanGuard::close) the guard to record the trace. While the
    /// guard is alive, [`phase`] calls on this thread attribute time to it.
    /// A hot caller passes a [`Frame`] it resolved once; a name is resolved
    /// here.
    ///
    /// Parentage: an explicit `ctx` (extracted from an incoming trace
    /// header) wins; otherwise the thread's [`current_context`] (an
    /// enclosing span or ambient scope) is inherited; otherwise the span
    /// roots a fresh trace with `parent_span_id` 0.
    pub fn begin_ctx(
        self: &Arc<Self>,
        frame: impl Into<Frame>,
        ctx: Option<TraceContext>,
    ) -> SpanGuard {
        let frame = frame.into();
        let (trace_id, parent_span_id) = match ctx.or_else(current_context) {
            Some(ctx) => (ctx.trace_id, ctx.parent_span_id),
            None => (next_id(), 0),
        };
        crate::prof::open(
            frame.id,
            Some(Traced {
                recorder: self.clone(),
                name: frame.name,
                trace_id,
                span_id: next_id(),
                parent_span_id,
                phases: Vec::with_capacity(4),
                marked: Duration::ZERO,
            }),
        )
    }

    /// Finished traces, oldest first, newest last.
    pub fn recent_traces(&self) -> Vec<Trace> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Traces that exceeded the slow threshold, oldest first, newest last.
    /// Kept separately so fast traffic cannot evict them.
    pub fn recent_slow_traces(&self) -> Vec<Trace> {
        self.slow_ring.lock().iter().cloned().collect()
    }

    fn record(&self, trace: Trace) {
        let threshold = self.slow_threshold_nanos.load(Ordering::Relaxed);
        if threshold > 0 && trace.total.as_nanos() as u64 >= threshold {
            crate::global()
                .counter(
                    "sensorsafe_slow_requests_total",
                    "Requests slower than the recorder's slow threshold.",
                    &[],
                )
                .inc();
            eprintln!("{}", slow_request_json(&trace));
            let mut slow = self.slow_ring.lock();
            if slow.len() == SLOW_RING_CAPACITY {
                slow.pop_front();
            }
            slow.push_back(trace.clone());
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }
}

/// The slow-request threshold a server starts with: the
/// `SENSORSAFE_SLOW_REQ_MS` environment variable, a millisecond count.
/// Unset, `0` or unparseable means capture is off.
pub fn slow_threshold_from_env() -> Option<Duration> {
    let raw = std::env::var("SENSORSAFE_SLOW_REQ_MS").ok()?;
    match raw.trim().parse::<u64>() {
        Ok(ms) if ms > 0 => Some(Duration::from_millis(ms)),
        _ => None,
    }
}

/// One structured log line for a slow request (obsv has no JSON dependency,
/// and the fields — hex ids, static phase names, a route pattern — need
/// only string escaping). Each phase carries its share of the total
/// (`pct`), and `unattributed_ms` is the tail no [`phase`] call claimed —
/// the first place to look when a slow request's phases all look fast.
fn slow_request_json(trace: &Trace) -> String {
    let total_ms = trace.total.as_secs_f64() * 1e3;
    let mut phases = String::new();
    let mut attributed_ms = 0.0;
    for (i, p) in trace.phases.iter().enumerate() {
        if i > 0 {
            phases.push(',');
        }
        let phase_ms = p.elapsed.as_secs_f64() * 1e3;
        attributed_ms += phase_ms;
        let pct = if total_ms > 0.0 {
            (phase_ms / total_ms * 100.0).min(100.0)
        } else {
            0.0
        };
        phases.push_str(&format!(
            "{{\"name\":\"{}\",\"ms\":{:.3},\"pct\":{:.1}}}",
            escape_json(p.name),
            phase_ms,
            pct
        ));
    }
    format!(
        "{{\"slow_request\":{{\"name\":\"{}\",\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\",\"parent_span_id\":\"{:016x}\",\"total_ms\":{:.3},\"completed_unix_ms\":{},\"unattributed_ms\":{:.3},\"phases\":[{}]}}}}",
        escape_json(&trace.name),
        trace.trace_id,
        trace.span_id,
        trace.parent_span_id,
        total_ms,
        trace.completed_unix_ms,
        (total_ms - attributed_ms).max(0.0),
        phases
    )
}

/// One structured stderr event line, `{"event":"<event>","<key>":"<value>",…}`,
/// with every key and value escaped — so a value carrying a quote, a
/// backslash or a newline (an account name, an OS error, a path) stays
/// one valid JSON object and cannot add fields of its own.
pub fn event_line(event: &str, fields: &[(&str, &str)]) -> String {
    let mut out = format!("{{\"event\":\"{}\"", escape_json(event));
    for (key, value) in fields {
        out.push_str(&format!(
            ",\"{}\":\"{}\"",
            escape_json(key),
            escape_json(value)
        ));
    }
    out.push('}');
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_header_value() {
        let ctx = TraceContext {
            trace_id: 0xdead_beef_0042_0001,
            parent_span_id: 0x0123_4567_89ab_cdef,
        };
        assert_eq!(TraceContext::parse(&ctx.header_value()), Some(ctx));
        // Surrounding whitespace is tolerated (header values get trimmed
        // unevenly by proxies).
        assert_eq!(
            TraceContext::parse(&format!("  {}\t", ctx.header_value())),
            Some(ctx)
        );
        // Short hex is still valid hex — ids are not zero-padded on parse.
        assert_eq!(
            TraceContext::parse("a-b"),
            Some(TraceContext {
                trace_id: 0xa,
                parent_span_id: 0xb,
            })
        );
    }

    #[test]
    fn parse_rejects_malformed_headers() {
        for bad in [
            "",                                  // empty
            "deadbeef",                          // wrong field count: no separator
            "-",                                 // separator only
            "-deadbeef",                         // empty trace id
            "deadbeef-",                         // empty parent id
            "a-b-c",                             // wrong field count: 3 fields
            "xyz-0123456789abcdef",              // malformed hex (trace)
            "0123456789abcdef-ghij",             // malformed hex (parent)
            "0x12-0x34",                         // hex prefix is not hex
            " 12 34-56",                         // embedded whitespace
            "ffffffffffffffff1-0",               // oversized: 17 digits overflows u64
            "0-fffffffffffffffff",               // oversized parent
            "白鵬翔-0123456789abcdef",           // non-ASCII
            "0123456789abcdef—0123456789abcdef", // em-dash, not a hyphen
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn span_with_unparseable_context_roots_fresh_trace() {
        // The server path: Request::trace_context() yields None for a bad
        // header, and begin_ctx(name, None) must root a brand-new trace
        // rather than erroring or inheriting stale state.
        let recorder = TraceRecorder::new(8);
        {
            let _span = recorder.begin_ctx("GET /healthz".to_string(), None);
        }
        let traces = recorder.recent_traces();
        assert_eq!(traces.len(), 1);
        assert_ne!(traces[0].trace_id, 0);
        assert_eq!(traces[0].parent_span_id, 0, "root span has no parent");
    }

    #[test]
    fn span_records_phases_in_order() {
        let recorder = TraceRecorder::new(8);
        {
            let _span = recorder.begin_ctx("POST /api/query", None);
            phase("auth");
            phase("policy_eval");
            phase("store_query");
            phase("serialize");
        }
        let traces = recorder.recent_traces();
        assert_eq!(traces.len(), 1);
        let names: Vec<&str> = traces[0].phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["auth", "policy_eval", "store_query", "serialize"]);
        assert!(traces[0].total >= traces[0].phases.iter().map(|p| p.elapsed).sum());
        assert_eq!(traces[0].name, "POST /api/query");
        // A span begun with no context roots its own trace.
        assert_ne!(traces[0].trace_id, 0);
        assert_eq!(traces[0].parent_span_id, 0);
    }

    #[test]
    fn ring_buffer_keeps_newest() {
        let recorder = TraceRecorder::new(4);
        for i in 0..10 {
            let _span = recorder.begin_ctx(format!("req {i}"), None);
        }
        let traces = recorder.recent_traces();
        assert_eq!(traces.len(), 4);
        assert_eq!(traces[0].name, "req 6");
        assert_eq!(traces[3].name, "req 9");
        // Span ids keep increasing even as old traces fall off.
        assert!(traces.windows(2).all(|w| w[0].span_id < w[1].span_id));
    }

    #[test]
    fn nested_spans_attribute_phases_to_innermost() {
        let recorder = TraceRecorder::new(8);
        {
            let _outer = recorder.begin_ctx("outer", None);
            phase("outer_before");
            {
                let _inner = recorder.begin_ctx("inner", None);
                phase("inner_work");
            }
            phase("outer_after");
        }
        let traces = recorder.recent_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].name, "inner");
        assert_eq!(traces[0].phases.len(), 1);
        let outer_names: Vec<&str> = traces[1].phases.iter().map(|p| p.name).collect();
        assert_eq!(outer_names, ["outer_before", "outer_after"]);
        // Parent/child structure survives into the flat ring: the inner
        // span points at the outer one and shares its trace.
        let (inner, outer) = (&traces[0], &traces[1]);
        assert_eq!(inner.parent_span_id, outer.span_id);
        assert_eq!(inner.trace_id, outer.trace_id);
        assert_eq!(outer.parent_span_id, 0);
        assert_ne!(inner.span_id, outer.span_id);
    }

    #[test]
    fn orphan_phase_is_a_noop() {
        phase("no active span");
    }

    #[test]
    fn context_header_roundtrips() {
        let ctx = TraceContext {
            trace_id: 0x0123_4567_89ab_cdef,
            parent_span_id: 42,
        };
        assert_eq!(ctx.header_value(), "0123456789abcdef-000000000000002a");
        assert_eq!(TraceContext::parse(&ctx.header_value()), Some(ctx));
        assert_eq!(TraceContext::parse(""), None);
        assert_eq!(TraceContext::parse("deadbeef"), None);
        assert_eq!(TraceContext::parse("xyz-123"), None);
        assert_eq!(TraceContext::parse("12-34-56"), None);
    }

    #[test]
    fn explicit_context_sets_trace_and_parent() {
        let recorder = TraceRecorder::new(8);
        let ctx = TraceContext {
            trace_id: 7777,
            parent_span_id: 8888,
        };
        {
            let _span = recorder.begin_ctx("POST /api/sync", Some(ctx));
        }
        let trace = &recorder.recent_traces()[0];
        assert_eq!(trace.trace_id, 7777);
        assert_eq!(trace.parent_span_id, 8888);
        assert_ne!(trace.span_id, 8888);
    }

    #[test]
    fn ambient_scope_feeds_spans_and_outbound_context() {
        assert_eq!(current_context(), None);
        let ctx = TraceContext::root();
        let recorder = TraceRecorder::new(8);
        {
            let _scope = context_scope(ctx);
            // A client thread with no active span propagates the scope.
            assert_eq!(current_context(), Some(ctx));
            {
                let _span = recorder.begin_ctx("inside scope", None);
                // With a span active, outbound calls become its children.
                let outbound = current_context().unwrap();
                assert_eq!(outbound.trace_id, ctx.trace_id);
                assert_ne!(outbound.parent_span_id, ctx.parent_span_id);
            }
        }
        assert_eq!(current_context(), None);
        let trace = &recorder.recent_traces()[0];
        assert_eq!(trace.trace_id, ctx.trace_id);
        assert_eq!(trace.parent_span_id, ctx.parent_span_id);
    }

    #[test]
    fn slow_requests_are_pinned_counted_and_survive_fast_floods() {
        let recorder = TraceRecorder::new(4);
        recorder.set_slow_threshold(Some(Duration::from_millis(1)));
        let before = crate::global()
            .counter(
                "sensorsafe_slow_requests_total",
                "Requests slower than the recorder's slow threshold.",
                &[],
            )
            .get();
        {
            let _span = recorder.begin_ctx("GET /slow", None);
            std::thread::sleep(Duration::from_millis(5));
            phase("sleepy");
        }
        // Fast traffic evicts the slow trace from the main ring...
        for i in 0..10 {
            let _span = recorder.begin_ctx(format!("GET /fast/{i}"), None);
        }
        assert!(recorder
            .recent_traces()
            .iter()
            .all(|t| t.name != "GET /slow"));
        // ...but not from the slow ring, and the counter moved.
        let slow = recorder.recent_slow_traces();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].name, "GET /slow");
        assert_eq!(slow[0].phases[0].name, "sleepy");
        let after = crate::global()
            .counter(
                "sensorsafe_slow_requests_total",
                "Requests slower than the recorder's slow threshold.",
                &[],
            )
            .get();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn slow_request_json_is_well_formed() {
        let trace = Trace {
            trace_id: 0xab,
            span_id: 2,
            parent_span_id: 3,
            name: "GET /\"odd\"".into(),
            phases: vec![Phase {
                name: "auth",
                elapsed: Duration::from_micros(1500),
            }],
            total: Duration::from_millis(12),
            completed_unix_ms: 99,
        };
        let line = slow_request_json(&trace);
        assert!(line.starts_with("{\"slow_request\":{"));
        assert!(line.contains("\"trace_id\":\"00000000000000ab\""));
        assert!(line.contains("\"name\":\"GET /\\\"odd\\\"\""));
        // Phase breakdown carries both absolute time and share of total.
        assert!(line.contains("\"phases\":[{\"name\":\"auth\",\"ms\":1.500,\"pct\":12.5}]"));
        // 12ms total − 1.5ms attributed = 10.5ms unexplained.
        assert!(line.contains("\"unattributed_ms\":10.500"));
    }

    #[test]
    fn slow_threshold_env_is_the_one_knob() {
        // Unset: capture is off.
        std::env::remove_var("SENSORSAFE_SLOW_REQ_MS");
        assert_eq!(slow_threshold_from_env(), None);
        std::env::set_var("SENSORSAFE_SLOW_REQ_MS", " 40 ");
        assert_eq!(slow_threshold_from_env(), Some(Duration::from_millis(40)));
        // Zero and garbage leave capture off too.
        for off in ["0", "soon", "-5"] {
            std::env::set_var("SENSORSAFE_SLOW_REQ_MS", off);
            assert_eq!(slow_threshold_from_env(), None, "{off:?}");
        }
        std::env::remove_var("SENSORSAFE_SLOW_REQ_MS");
    }
}

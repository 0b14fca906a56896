//! # sensorsafe-obsv — observability substrate
//!
//! Production serving needs measurement: this crate provides the metrics,
//! tracing, and audit-accounting layer threaded through every SensorSafe
//! server hot path.
//!
//! * [`metrics`] — a lock-minimal registry of monotonic counters, gauges,
//!   and fixed-bucket latency histograms. Counter and histogram cells are
//!   sharded across cache-padded atomics (one sticky shard per thread) and
//!   merged only on scrape, so hot-path updates never contend on a lock.
//! * [`expose`] — Prometheus-style text exposition for a [`Registry`],
//!   served by the datastore and broker `GET /metrics` endpoints.
//! * [`trace`] — per-request spans with timed phases (auth → policy eval →
//!   store query → serialize) collected into a bounded ring buffer and read
//!   back via [`trace::TraceRecorder::recent_traces`]. A traced span is a
//!   [`prof`] span that also carries a trace: one primitive, one
//!   thread-local stack, one clock reading per close feeding three sinks
//!   (the sampler, span-stats, the trace ring).
//! * [`audit`] — privacy-audit counters: every enforcement decision
//!   (allow / abstract / deny, dependency-closure suppressions) is counted
//!   by outcome alone, with no principal name on the keyless `/metrics`,
//!   and appended with its exact consumer to the ledger, giving the
//!   accountable-serving record that a privacy platform owes its
//!   contributors.
//! * [`ledger`] — the durable half of that record: a hash-chained,
//!   append-only ledger of enforcement decisions whose `verify_frames`
//!   detects any in-place tampering or truncation. File persistence lives
//!   in the `store` crate (`FileLedger`).
//! * [`awareness`] — the sharing-awareness plane: streaming
//!   privacy-decision analytics that each ledger folds its durable
//!   records into, in chain order — per-contributor (consumer × outcome)
//!   rollups, epoch-keyed rule-hit attribution, dead-rule and
//!   baseline-only-flow findings, and a bucketed decision trend.
//!   Aggregates are a pure function of the decision-record stream, so a
//!   replay of the verified hash chain reproduces the live numbers byte
//!   for byte, across restarts.
//! * [`prof`] — continuous profiling plane: a lock-free span-stack flight
//!   recorder mirrored per thread, a wall-clock sampler folding every
//!   registered stack into flamegraph-compatible counts (served at
//!   `GET /debug/profile`), and an incremental span-stats table
//!   (`/debug/spans`). Every span — a worker loop's `prof_frame!`, a
//!   request's traced span, a trace phase — is recorded there by the one
//!   [`SpanGuard`] close, which also returns the duration it measured.
//! * [`trace::TraceContext`] — cross-process propagation: the net client
//!   stamps outbound requests with `X-SensorSafe-Trace`, servers adopt it,
//!   and `GET /traces` on each server lets one request be followed across
//!   the fleet.
//!
//! Two registry scopes exist: each server owns a per-instance [`Registry`]
//! (so two servers in one process scrape independently), while low-level
//! crates (`net`, `store`, `policy`) report into the process-wide
//! [`global()`] registry. A server's `/metrics` endpoint concatenates its
//! instance registry with the global one.

pub mod audit;
pub mod awareness;
pub mod expose;
pub mod ledger;
pub mod metrics;
pub mod prof;
pub mod trace;

pub use awareness::{AwarenessAggregates, AwarenessPlane, ContributorSummary};
pub use ledger::{
    AuditFilter, AuditLedger, AuditPage, ChainHead, DecisionRecord, LedgerError, MemoryLedger,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, DEFAULT_LATENCY_BUCKETS,
};
pub use prof::{Frame, SpanGuard, SpanStat};
pub use trace::{event_line, Phase, Trace, TraceContext, TraceRecorder};

use std::sync::OnceLock;

/// The process-wide registry used by crates that are not tied to a single
/// server instance (`net::server`, `store`, `policy`).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

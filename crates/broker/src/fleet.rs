//! The broker's fleet health plane.
//!
//! Each registered data store exposes `/healthz` and `/metrics`, but
//! those are islands: nobody can answer "is the fleet healthy?" without
//! curling every store. This module closes the loop. A background
//! scraper ([`FleetScraper`]) sweeps every paired store on an interval,
//! probing `/healthz` and scraping `/metrics` over the broker's normal
//! client transport (each sweep runs under one trace context, so a sweep
//! is followable across the fleet like any other request). Scraped
//! samples are parsed back from Prometheus text ([`sensorsafe_net::promtext`])
//! and retained in fixed-capacity ring buffers
//! ([`sensorsafe_obsv::timeseries`]).
//!
//! On top of the retained series sit two judgement layers:
//!
//! * a **health state machine** per store — Healthy → Degraded →
//!   Unreachable with consecutive-failure thresholds and recovery
//!   hysteresis ([`FleetConfig::unreachable_after`] /
//!   [`FleetConfig::healthy_after`]), so one dropped probe never flaps a
//!   store's status;
//! * an **SLO burn-rate engine** ([`sensorsafe_obsv::slo`]) evaluating
//!   rolling windows against configurable objectives: probe
//!   availability, request latency under a threshold, and the WAL
//!   fsync-per-upload coalescing ratio.
//!
//! Results surface three ways: `GET /fleet` (JSON), `/ui/fleet` (the web
//! UI table), and fleet-aggregated gauges re-exported under the broker's
//! own `/metrics` (store-labelled, bounded by the same 64-label
//! cardinality cap as per-consumer counters). Contributor search results
//! additionally annotate contributors whose store is currently
//! Unreachable. The plane observes itself: scrape failures, scrape
//! latency, and per-store staleness are first-class metrics.
//!
//! Pair a store, sweep it once, and read the verdict back from
//! `GET /fleet` (production deployments spawn
//! [`BrokerService::spawn_fleet_scraper`](crate::BrokerService::spawn_fleet_scraper)
//! instead of sweeping by hand):
//!
//! ```
//! use sensorsafe_broker::{BrokerConfig, BrokerService, TransportFactory};
//! use sensorsafe_json::json;
//! use sensorsafe_net::{LocalTransport, Request, Response, Service, Transport};
//! use std::sync::Arc;
//!
//! // A minimal "store": anything serving /healthz and /metrics can be
//! // swept. Real deployments hand the factory a TCP transport instead.
//! struct StubStore;
//! impl Service for StubStore {
//!     fn handle(&self, request: &Request) -> Response {
//!         match request.path.as_str() {
//!             "/healthz" => Response::json(&json!({"status": "ok"})),
//!             _ => Response::text("sensorsafe_requests_total 1\n"),
//!         }
//!     }
//! }
//!
//! let transports: TransportFactory = Arc::new(|_addr| {
//!     Arc::new(LocalTransport::new(Arc::new(StubStore))) as Arc<dyn Transport>
//! });
//! let (broker, admin) = BrokerService::new(BrokerConfig {
//!     name: "broker".into(),
//!     transports,
//!     ..BrokerConfig::default()
//! });
//! let resp = broker.handle(&Request::post_json(
//!     "/api/stores/register",
//!     &json!({"key": (admin.to_hex()), "addr": "s1", "register_key": "k"}),
//! ));
//! assert!(resp.status.is_success());
//!
//! // Hysteresis: a store proves itself over `healthy_after` (default 2)
//! // consecutive good probes before it is called Healthy.
//! broker.fleet_sweep_now();
//! let fleet = broker.handle(&Request::get("/fleet")).json_body().unwrap();
//! assert_eq!(fleet["stores"][0]["health"], json!("degraded"));
//! broker.fleet_sweep_now();
//! let fleet = broker.handle(&Request::get("/fleet")).json_body().unwrap();
//! assert_eq!(fleet["stores"][0]["health"], json!("healthy"));
//! ```

use crate::service::Inner;
use parking_lot::Mutex;
use sensorsafe_json::{json, Value};
use sensorsafe_net::{promtext, Request, Response};
use sensorsafe_obsv::audit::consumer_label;
use sensorsafe_obsv::slo::{Evaluation, Measurement, Objective};
use sensorsafe_obsv::timeseries::{histogram_quantile, SeriesTable};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fleet health-plane configuration (part of
/// [`BrokerConfig`](crate::BrokerConfig)).
#[derive(Clone)]
pub struct FleetConfig {
    /// How often the scraper sweeps every registered store.
    pub scrape_interval: Duration,
    /// Consecutive probe failures before a store is marked Unreachable.
    pub unreachable_after: u32,
    /// Consecutive successful probes an impaired store must accumulate
    /// before returning to Healthy (recovery hysteresis).
    pub healthy_after: u32,
    /// Samples retained per series (ring-buffer capacity).
    pub ring_capacity: usize,
    /// Hard cap on distinct retained series across the whole fleet.
    pub max_series: usize,
    /// A request is a "good event" for the latency objective when it
    /// completed within this many seconds.
    pub latency_threshold_secs: f64,
    /// Probe-availability objective (good = reachable probes).
    pub availability: Objective,
    /// Request-latency objective (good = requests under
    /// [`FleetConfig::latency_threshold_secs`]).
    pub latency: Objective,
    /// WAL coalescing objective: fsyncs per durable upload stays under
    /// the target ratio.
    pub wal_ratio: Objective,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            scrape_interval: Duration::from_secs(5),
            unreachable_after: 3,
            healthy_after: 2,
            ring_capacity: 240,
            max_series: 2048,
            latency_threshold_secs: 0.25,
            availability: Objective::good_fraction("availability", 0.99, 300.0, 2.0),
            latency: Objective::good_fraction("request_latency", 0.99, 300.0, 2.0),
            wal_ratio: Objective::max_ratio("wal_fsync_upload_ratio", 1.5, 300.0, 1.0),
        }
    }
}

/// A store's place in the health state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreHealth {
    /// Probes succeed and the store reports no component trouble.
    Healthy,
    /// Reachable but impaired: the store itself reports `degraded`, or
    /// recent probes failed without yet crossing the Unreachable
    /// threshold, or the store is still re-proving itself after an
    /// outage (hysteresis).
    Degraded,
    /// At least [`FleetConfig::unreachable_after`] consecutive probes
    /// failed.
    Unreachable,
}

impl StoreHealth {
    /// Stable string form used in JSON and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            StoreHealth::Healthy => "healthy",
            StoreHealth::Degraded => "degraded",
            StoreHealth::Unreachable => "unreachable",
        }
    }

    fn as_gauge(self) -> i64 {
        match self {
            StoreHealth::Healthy => 0,
            StoreHealth::Degraded => 1,
            StoreHealth::Unreachable => 2,
        }
    }
}

/// What one probe of a store observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProbeOutcome {
    /// `/healthz` answered with `status: ok`.
    Ok,
    /// `/healthz` answered, but reported itself degraded.
    DegradedReport,
    /// Transport error or non-2xx: the store did not usefully answer.
    Failure,
}

/// Per-store health state machine (see [`StoreHealth`]).
#[derive(Debug)]
struct HealthMachine {
    state: StoreHealth,
    consecutive_failures: u32,
    consecutive_successes: u32,
}

impl HealthMachine {
    fn new() -> HealthMachine {
        // A store starts Degraded, not Healthy: it has not proven itself
        // yet, and the hysteresis path to Healthy is the proof.
        HealthMachine {
            state: StoreHealth::Degraded,
            consecutive_failures: 0,
            consecutive_successes: 0,
        }
    }

    fn observe(&mut self, outcome: ProbeOutcome, config: &FleetConfig) -> StoreHealth {
        match outcome {
            ProbeOutcome::Failure => {
                self.consecutive_successes = 0;
                self.consecutive_failures += 1;
                self.state = if self.consecutive_failures >= config.unreachable_after {
                    StoreHealth::Unreachable
                } else {
                    StoreHealth::Degraded
                };
            }
            ProbeOutcome::DegradedReport => {
                // Reachable, so the failure streak ends, but a store
                // reporting its own trouble makes no progress toward
                // Healthy either.
                self.consecutive_failures = 0;
                self.consecutive_successes = 0;
                self.state = StoreHealth::Degraded;
            }
            ProbeOutcome::Ok => {
                self.consecutive_failures = 0;
                self.consecutive_successes += 1;
                if self.state != StoreHealth::Healthy
                    && self.consecutive_successes >= config.healthy_after
                {
                    self.state = StoreHealth::Healthy;
                }
            }
        }
        self.state
    }
}

/// Everything the plane knows about one store.
struct StoreState {
    machine: HealthMachine,
    /// Seconds (broker clock) of the last successful probe.
    last_ok_at: Option<f64>,
    /// Seconds of the last probe attempt, successful or not.
    last_probe_at: Option<f64>,
    last_error: Option<String>,
    /// The `status` string from the store's last reachable `/healthz`.
    healthz_status: Option<String>,
    probes: u64,
    failures: u64,
    /// Windowed request p99 computed from scraped histogram buckets.
    request_p99_secs: Option<f64>,
    /// Latest SLO evaluations, refreshed every sweep.
    evaluations: Vec<Evaluation>,
}

impl StoreState {
    fn new() -> StoreState {
        StoreState {
            machine: HealthMachine::new(),
            last_ok_at: None,
            last_probe_at: None,
            last_error: None,
            healthz_status: None,
            probes: 0,
            failures: 0,
            request_p99_secs: None,
            evaluations: Vec::new(),
        }
    }
}

/// Shared state of the fleet health plane, owned by the broker's
/// `Inner`.
pub(crate) struct FleetPlane {
    config: FleetConfig,
    stores: Mutex<BTreeMap<String, StoreState>>,
    series: Mutex<SeriesTable>,
    /// Sweeps completed since the broker started.
    sweeps: Mutex<u64>,
}

impl FleetPlane {
    pub(crate) fn new(config: FleetConfig) -> FleetPlane {
        let series = SeriesTable::new(config.ring_capacity, config.max_series);
        FleetPlane {
            config,
            stores: Mutex::new(BTreeMap::new()),
            series: Mutex::new(series),
            sweeps: Mutex::new(0),
        }
    }

    /// The current health of one store, if it has ever been swept.
    pub(crate) fn health_of(&self, addr: &str) -> Option<StoreHealth> {
        self.stores.lock().get(addr).map(|s| s.machine.state)
    }

    /// Addresses of the stores currently held Unreachable (usually
    /// none), read under one lock.
    pub(crate) fn unreachable_stores(&self) -> Vec<String> {
        self.stores
            .lock()
            .iter()
            .filter(|(_, s)| s.machine.state == StoreHealth::Unreachable)
            .map(|(addr, _)| addr.clone())
            .collect()
    }
}

/// Series-key helpers: every retained series is namespaced by store
/// address, so one store's retention can be dropped wholesale.
fn key_up(addr: &str) -> String {
    format!("{addr}|up")
}
fn key_req_count(addr: &str) -> String {
    format!("{addr}|req_count")
}
fn key_req_bucket(addr: &str, le: &str) -> String {
    format!("{addr}|req_bucket|{le}")
}
fn key_req_bucket_prefix(addr: &str) -> String {
    format!("{addr}|req_bucket|")
}
fn key_wal_fsyncs(addr: &str) -> String {
    format!("{addr}|wal_fsyncs")
}
fn key_durable_uploads(addr: &str) -> String {
    format!("{addr}|durable_uploads")
}
fn key_decisions(addr: &str, outcome: &str) -> String {
    format!("{addr}|decisions|{outcome}")
}
fn key_baseline_decisions(addr: &str) -> String {
    format!("{addr}|baseline_decisions")
}
fn key_rule_hits(addr: &str) -> String {
    format!("{addr}|rule_hits")
}
fn key_dead_rules(addr: &str) -> String {
    format!("{addr}|dead_rules")
}

/// The decision outcomes the privacy rollup tracks, in display order.
const PRIVACY_OUTCOMES: [&str; 3] = ["allowed", "abstracted", "denied"];

/// Deterministic per-store probe offset within one sweep interval:
/// FNV-1a over the store address, reduced modulo the interval. Stores
/// registered to the same broker land at different phases of the sweep
/// instead of being probed in lockstep at every tick (a thundering herd
/// on the fleet's `/metrics` endpoints when N is large). Derived purely
/// from the address so the offset is stable across broker restarts.
pub(crate) fn store_jitter(addr: &str, interval: Duration) -> Duration {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in addr.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let span = interval.as_millis().min(u128::from(u64::MAX)) as u64;
    if span == 0 {
        return Duration::ZERO;
    }
    Duration::from_millis(h % span)
}

impl Inner {
    /// Seconds on the broker's monotonic clock (time since start) — the
    /// clock every retained sample is stamped with.
    pub(crate) fn fleet_now_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// One full sweep of every registered store: probe `/healthz`,
    /// scrape `/metrics`, ingest samples, advance each store's state
    /// machine, evaluate SLOs, and refresh the fleet gauges. Runs on the
    /// scraper thread, but callable directly for deterministic tests
    /// (this path never sleeps — see [`Inner::fleet_sweep_paced`]).
    pub(crate) fn fleet_sweep(&self) {
        self.fleet_sweep_paced(&mut |_| {});
    }

    /// A sweep with a caller-supplied pacing hook. Stores are visited in
    /// [`store_jitter`] order and the hook is handed each store's
    /// deterministic offset before its probe; the scraper thread sleeps
    /// up to that offset so N stores are spread across the interval
    /// instead of being probed in lockstep at every tick. Tests and the
    /// `/fleet/sweep` admin path pass a no-op hook.
    pub(crate) fn fleet_sweep_paced(&self, pace: &mut dyn FnMut(Duration)) {
        // One trace context per sweep: the span makes the sweep's
        // outbound probes carry this trace id to every store, so a sweep
        // is followable across the fleet via /traces.
        let _span = self.traces.begin_ctx("fleet sweep", None);
        let ctx = sensorsafe_obsv::trace::current_context();
        let interval = self.fleet.config.scrape_interval;
        let addrs = self.registry.store_addrs();
        let mut scheduled: Vec<(Duration, &String)> = addrs
            .iter()
            .map(|addr| (store_jitter(addr, interval), addr))
            .collect();
        scheduled.sort();
        for (offset, addr) in scheduled {
            pace(offset);
            let now = self.fleet_now_secs();
            let started = std::time::Instant::now();
            let probe = self.probe_store(addr, ctx);
            self.metrics
                .histogram(
                    "sensorsafe_broker_fleet_scrape_seconds",
                    "Latency of one store probe (healthz + metrics scrape).",
                    &[],
                    None,
                )
                .observe(started.elapsed());
            self.ingest_probe(addr, now, probe);
        }
        self.evaluate_fleet(self.fleet_now_secs(), &addrs);
        // Failover rides the sweep: promotions act on the verdicts the
        // health machines just reached.
        self.failover_sweep();
        *self.fleet.sweeps.lock() += 1;
    }

    /// Probes one store: `/healthz` first (the liveness + component
    /// verdict), then `/metrics` when reachable.
    fn probe_store(
        &self,
        addr: &str,
        ctx: Option<sensorsafe_obsv::TraceContext>,
    ) -> (ProbeOutcome, Option<String>, Option<promtext::ParsedScrape>) {
        let transport = (self.config.transports)(addr);
        let stamp = |req: Request| match ctx {
            Some(ctx) => req.with_trace_context(ctx),
            None => req,
        };
        let health = match transport.round_trip(&stamp(Request::get("/healthz"))) {
            Err(e) => return (ProbeOutcome::Failure, Some(e.to_string()), None),
            Ok(resp) if !resp.status.is_success() => {
                return (
                    ProbeOutcome::Failure,
                    Some(format!("healthz returned {}", resp.status.code())),
                    None,
                )
            }
            Ok(resp) => resp,
        };
        let status = health
            .json_body()
            .ok()
            .and_then(|b| b.get("status").and_then(Value::as_str).map(str::to_string))
            .unwrap_or_else(|| "ok".to_string());
        let outcome = if status == "ok" {
            ProbeOutcome::Ok
        } else {
            ProbeOutcome::DegradedReport
        };
        let scrape = transport
            .round_trip(&stamp(Request::get("/metrics")))
            .ok()
            .filter(|r| r.status.is_success())
            .map(|r| promtext::parse(&String::from_utf8_lossy(&r.body)));
        (outcome, Some(status), scrape)
    }

    /// Folds one probe's results into retention and the state machine.
    fn ingest_probe(
        &self,
        addr: &str,
        now: f64,
        (outcome, detail, scrape): (ProbeOutcome, Option<String>, Option<promtext::ParsedScrape>),
    ) {
        let reachable = outcome != ProbeOutcome::Failure;
        {
            let mut series = self.fleet.series.lock();
            series.push(&key_up(addr), now, if reachable { 1.0 } else { 0.0 });
            if let Some(scrape) = &scrape {
                // Aggregate across endpoint labels at ingest time: the
                // SLOs only need fleet-level counts per store, and
                // aggregation here keeps retention bounded regardless of
                // how many routes a store serves.
                // Cumulative counters are retained as-is; a reading
                // lower than history just marks a store restart, which
                // `SeriesRing::delta` already handles (reset-aware).
                let mut req_count = 0.0;
                let mut req_buckets: BTreeMap<String, f64> = BTreeMap::new();
                let mut wal_fsyncs: Option<f64> = None;
                let mut uploads: Option<f64> = None;
                let mut decisions: BTreeMap<String, f64> = BTreeMap::new();
                let mut baseline: Option<f64> = None;
                let mut rule_hits: Option<f64> = None;
                let mut dead_rules: Option<f64> = None;
                for sample in &scrape.samples {
                    match sample.name.as_str() {
                        "sensorsafe_datastore_request_seconds_bucket" => {
                            if let Some(le) = sample.label("le") {
                                *req_buckets.entry(le.to_string()).or_insert(0.0) += sample.value;
                            }
                        }
                        "sensorsafe_datastore_request_seconds_count" => {
                            req_count += sample.value;
                        }
                        "sensorsafe_store_wal_fsyncs_total" => {
                            wal_fsyncs = Some(wal_fsyncs.unwrap_or(0.0) + sample.value);
                        }
                        "sensorsafe_datastore_durable_uploads_total" => {
                            uploads = Some(uploads.unwrap_or(0.0) + sample.value);
                        }
                        // The privacy-posture families from the store's
                        // sharing-awareness plane.
                        "sensorsafe_policy_decision_outcomes_total" => {
                            if let Some(outcome) = sample.label("outcome") {
                                *decisions.entry(outcome.to_string()).or_insert(0.0) +=
                                    sample.value;
                            }
                        }
                        "sensorsafe_policy_baseline_decisions_total" => {
                            baseline = Some(baseline.unwrap_or(0.0) + sample.value);
                        }
                        "sensorsafe_policy_rule_hits_total" => {
                            rule_hits = Some(rule_hits.unwrap_or(0.0) + sample.value);
                        }
                        "sensorsafe_policy_dead_rules" => {
                            dead_rules = Some(dead_rules.unwrap_or(0.0) + sample.value);
                        }
                        _ => {}
                    }
                }
                series.push(&key_req_count(addr), now, req_count);
                for (le, cum) in req_buckets {
                    series.push(&key_req_bucket(addr, &le), now, cum);
                }
                if let Some(v) = wal_fsyncs {
                    series.push(&key_wal_fsyncs(addr), now, v);
                }
                if let Some(v) = uploads {
                    series.push(&key_durable_uploads(addr), now, v);
                }
                for (outcome, cum) in decisions {
                    series.push(&key_decisions(addr, &outcome), now, cum);
                }
                if let Some(v) = baseline {
                    series.push(&key_baseline_decisions(addr), now, v);
                }
                if let Some(v) = rule_hits {
                    series.push(&key_rule_hits(addr), now, v);
                }
                if let Some(v) = dead_rules {
                    series.push(&key_dead_rules(addr), now, v);
                }
            }
            self.metrics
                .gauge(
                    "sensorsafe_broker_fleet_retained_series",
                    "Distinct time series retained by the fleet scraper.",
                    &[],
                )
                .set(series.series_count() as i64);
        }
        let mut stores = self.fleet.stores.lock();
        let state = stores
            .entry(addr.to_string())
            .or_insert_with(StoreState::new);
        state.probes += 1;
        state.last_probe_at = Some(now);
        if reachable {
            state.last_ok_at = Some(now);
            state.last_error = None;
            state.healthz_status = detail;
        } else {
            state.failures += 1;
            state.last_error = detail;
            state.healthz_status = None;
            let store_label = consumer_label("sensorsafe_broker_fleet_scrape_failures_total", addr);
            self.metrics
                .counter(
                    "sensorsafe_broker_fleet_scrape_failures_total",
                    "Store probes that failed (transport error or non-2xx healthz).",
                    &[("store", &store_label)],
                )
                .inc();
        }
        state.machine.observe(outcome, &self.fleet.config);
    }

    /// Recomputes SLO evaluations and fleet gauges for every store.
    fn evaluate_fleet(&self, now: f64, addrs: &[String]) {
        let config = &self.fleet.config;
        let series = self.fleet.series.lock();
        let mut stores = self.fleet.stores.lock();
        let mut by_state =
            BTreeMap::from([("healthy", 0i64), ("degraded", 0i64), ("unreachable", 0i64)]);
        for addr in addrs {
            let Some(state) = stores.get_mut(addr) else {
                continue;
            };
            let mut evaluations = Vec::new();

            // Availability: reachable probes over all probes in window.
            if let Some(up) = series.get(&key_up(addr)) {
                let window = config.availability.window_secs;
                let total = up.window_count(now, window) as f64;
                let good = up.window_sum(now, window);
                evaluations.push(config.availability.evaluate(&Measurement { good, total }));
            }

            // Request latency: windowed increases of the scraped
            // histogram buckets. "Good" is the cumulative count at the
            // largest bound at or under the threshold (conservative: a
            // request in the straddling bucket counts as bad).
            let mut buckets: Vec<(f64, f64)> = series
                .with_prefix(&key_req_bucket_prefix(addr))
                .filter_map(|(key, ring)| {
                    let le = key.rsplit('|').next()?;
                    let bound = promtext::parse_bound(le)?;
                    let delta = ring.delta(now, config.latency.window_secs)?;
                    Some((bound, delta))
                })
                .collect();
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            if let Some(&(_, total)) = buckets.last() {
                let good = buckets
                    .iter()
                    .filter(|(bound, _)| *bound <= config.latency_threshold_secs)
                    .map(|&(_, cum)| cum)
                    .next_back()
                    .unwrap_or(0.0);
                evaluations.push(config.latency.evaluate(&Measurement { good, total }));
                state.request_p99_secs = histogram_quantile(&buckets, 0.99);
            } else {
                state.request_p99_secs = None;
            }

            // WAL coalescing: fsyncs per durable upload over the window.
            let fsyncs = series
                .get(&key_wal_fsyncs(addr))
                .and_then(|r| r.delta(now, config.wal_ratio.window_secs));
            let uploads = series
                .get(&key_durable_uploads(addr))
                .and_then(|r| r.delta(now, config.wal_ratio.window_secs));
            if let (Some(fsyncs), Some(uploads)) = (fsyncs, uploads) {
                if uploads > 0.0 {
                    evaluations.push(config.wal_ratio.evaluate(&Measurement {
                        good: fsyncs,
                        total: uploads,
                    }));
                }
            }

            let health = state.machine.state;
            *by_state.entry(health.as_str()).or_insert(0) += 1;
            let store_label = consumer_label("sensorsafe_broker_fleet_store_health", addr);
            self.metrics
                .gauge(
                    "sensorsafe_broker_fleet_store_health",
                    "Health state per store: 0 healthy, 1 degraded, 2 unreachable.",
                    &[("store", &store_label)],
                )
                .set(health.as_gauge());
            self.metrics
                .gauge(
                    "sensorsafe_broker_fleet_store_up",
                    "1 when the store's last probe succeeded, else 0.",
                    &[("store", &store_label)],
                )
                .set(i64::from(
                    state.last_ok_at == state.last_probe_at && state.last_ok_at.is_some(),
                ));
            let staleness = state.last_ok_at.map(|at| now - at).unwrap_or(now);
            self.metrics
                .gauge(
                    "sensorsafe_broker_fleet_scrape_staleness_seconds",
                    "Seconds since the last successful probe of each store.",
                    &[("store", &store_label)],
                )
                .set(staleness.round() as i64);
            for eval in &evaluations {
                self.metrics
                    .gauge(
                        "sensorsafe_broker_fleet_slo_burn_rate",
                        "Error-budget burn rate per store and objective (x1000).",
                        &[
                            ("store", &store_label),
                            ("objective", eval.objective.as_str()),
                        ],
                    )
                    .set((eval.burn_rate * 1000.0).round() as i64);
            }
            state.evaluations = evaluations;
        }
        for (label, count) in by_state {
            self.metrics
                .gauge(
                    "sensorsafe_broker_fleet_stores",
                    "Registered stores by current health state.",
                    &[("state", label)],
                )
                .set(count);
        }
    }

    /// Fleet-wide privacy-posture rollup from the retained awareness
    /// families: decision totals and per-second rates by outcome, the
    /// denial ratio, baseline-only decision volume, and the dead-rule
    /// count summed across every store.
    fn privacy_rollup(&self, now: f64, addrs: &[String]) -> Value {
        let window = self.fleet.config.availability.window_secs;
        let series = self.fleet.series.lock();
        let mut totals = BTreeMap::new();
        let mut rates = BTreeMap::new();
        for outcome in PRIVACY_OUTCOMES {
            let mut total = 0.0;
            let mut rate = 0.0;
            for addr in addrs {
                if let Some(ring) = series.get(&key_decisions(addr, outcome)) {
                    total += ring.latest().map(|s| s.value).unwrap_or(0.0);
                    rate += ring.rate(now, window).unwrap_or(0.0);
                }
            }
            totals.insert(outcome, total);
            rates.insert(outcome, rate);
        }
        let sum = |keys: &BTreeMap<&str, f64>| keys.values().sum::<f64>();
        let all = sum(&totals);
        // fold from +0.0: f64's `Sum` identity is -0.0, which would
        // serialize an absent family as "-0.0" in the JSON.
        let latest_sum = |key: &dyn Fn(&str) -> String| {
            addrs
                .iter()
                .filter_map(|a| series.get(&key(a)))
                .filter_map(|r| r.latest())
                .fold(0.0, |acc, s| acc + s.value)
        };
        json!({
            "window_secs": (window),
            "decisions": {
                "allowed": (totals["allowed"]),
                "abstracted": (totals["abstracted"]),
                "denied": (totals["denied"]),
                "total": (all),
            },
            "decisions_per_sec": {
                "allowed": (rates["allowed"]),
                "abstracted": (rates["abstracted"]),
                "denied": (rates["denied"]),
                "total": (sum(&rates)),
            },
            "denial_ratio": (if all > 0.0 { totals["denied"] / all } else { 0.0 }),
            "baseline_decisions": (latest_sum(&|a: &str| key_baseline_decisions(a))),
            "rule_hits": (latest_sum(&|a: &str| key_rule_hits(a))),
            "dead_rules": (latest_sum(&|a: &str| key_dead_rules(a))),
        })
    }

    /// `GET /fleet`: the whole plane as JSON.
    pub(crate) fn handle_fleet(&self) -> Response {
        let now = self.fleet_now_secs();
        let config = &self.fleet.config;
        let privacy = self.privacy_rollup(now, &self.registry.store_addrs());
        let stores = self.fleet.stores.lock();
        let mut store_entries = Vec::new();
        let mut alerts = Vec::new();
        for (addr, state) in stores.iter() {
            let slo: Vec<Value> = state
                .evaluations
                .iter()
                .map(|e| {
                    json!({
                        "objective": (e.objective.clone()),
                        "burn_rate": (e.burn_rate),
                        "alerting": (e.alerting),
                        "good": (e.good),
                        "total": (e.total),
                    })
                })
                .collect();
            for e in &state.evaluations {
                if e.alerting {
                    alerts.push(json!({
                        "store": (addr.clone()),
                        "objective": (e.objective.clone()),
                        "burn_rate": (e.burn_rate),
                    }));
                }
            }
            store_entries.push(json!({
                "addr": (addr.clone()),
                "health": (state.machine.state.as_str()),
                "consecutive_failures": (state.machine.consecutive_failures),
                "consecutive_successes": (state.machine.consecutive_successes),
                "healthz_status": (match &state.healthz_status {
                    Some(s) => Value::from(s.as_str()),
                    None => Value::Null,
                }),
                "last_error": (match &state.last_error {
                    Some(e) => Value::from(e.as_str()),
                    None => Value::Null,
                }),
                "staleness_secs": (match state.last_ok_at {
                    Some(at) => Value::from(now - at),
                    None => Value::Null,
                }),
                "probes": (state.probes),
                "failures": (state.failures),
                "request_p99_secs": (match state.request_p99_secs {
                    Some(p) => Value::from(p),
                    None => Value::Null,
                }),
                "slo": (Value::Array(slo)),
            }));
        }
        let failovers: Vec<Value> = self.failovers.lock().iter().map(|e| e.to_json()).collect();
        Response::json(&json!({
            "scrape_interval_secs": (config.scrape_interval.as_secs_f64()),
            "unreachable_after": (config.unreachable_after),
            "healthy_after": (config.healthy_after),
            "sweeps": (*self.fleet.sweeps.lock()),
            "series_retained": (self.fleet.series.lock().series_count() as u64),
            "stores": (Value::Array(store_entries)),
            "alerts": (Value::Array(alerts)),
            "failovers": (Value::Array(failovers)),
            "privacy": (privacy),
        }))
    }
}

/// Handle to the background scraper thread. Dropping it (or calling
/// [`FleetScraper::stop`]) stops the thread and joins it — the same
/// clean-shutdown contract as [`sensorsafe_net::Server`].
pub struct FleetScraper {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl FleetScraper {
    pub(crate) fn spawn(inner: Arc<Inner>) -> FleetScraper {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let interval = inner.fleet.config.scrape_interval;
        let handle = std::thread::Builder::new()
            .name("fleet-scraper".to_string())
            .spawn(move || {
                while !thread_stop.load(Ordering::Acquire) {
                    let sweep_started = std::time::Instant::now();
                    // Hold each store's probe to its deterministic jitter
                    // offset within the sweep (sliced sleeps so stop()
                    // still returns promptly). The sweep opens its own
                    // `fleet sweep` span.
                    let stop = &thread_stop;
                    inner.fleet_sweep_paced(&mut |offset| loop {
                        let elapsed = sweep_started.elapsed();
                        if elapsed >= offset || stop.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep((offset - elapsed).min(Duration::from_millis(20)));
                    });
                    // Sleep out the rest of the interval in short slices
                    // so stop() returns promptly even with long scrape
                    // intervals.
                    let mut remaining = interval.saturating_sub(sweep_started.elapsed());
                    while remaining > Duration::ZERO && !thread_stop.load(Ordering::Acquire) {
                        let slice = remaining.min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            })
            .expect("spawn fleet-scraper thread");
        FleetScraper {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the scraper to stop and joins the thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FleetScraper {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> FleetConfig {
        FleetConfig {
            unreachable_after: 3,
            healthy_after: 2,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn machine_needs_consecutive_failures_for_unreachable() {
        let cfg = config();
        let mut m = HealthMachine::new();
        assert_eq!(m.observe(ProbeOutcome::Ok, &cfg), StoreHealth::Degraded);
        assert_eq!(m.observe(ProbeOutcome::Ok, &cfg), StoreHealth::Healthy);
        // One dropped probe degrades but does not declare death...
        assert_eq!(
            m.observe(ProbeOutcome::Failure, &cfg),
            StoreHealth::Degraded
        );
        assert_eq!(
            m.observe(ProbeOutcome::Failure, &cfg),
            StoreHealth::Degraded
        );
        // ...the configured third consecutive failure does.
        assert_eq!(
            m.observe(ProbeOutcome::Failure, &cfg),
            StoreHealth::Unreachable
        );
    }

    #[test]
    fn machine_recovery_has_hysteresis() {
        let cfg = config();
        let mut m = HealthMachine::new();
        for _ in 0..3 {
            m.observe(ProbeOutcome::Failure, &cfg);
        }
        assert_eq!(m.state, StoreHealth::Unreachable);
        // First success after an outage: still not Healthy.
        assert_eq!(m.observe(ProbeOutcome::Ok, &cfg), StoreHealth::Unreachable);
        assert_eq!(m.observe(ProbeOutcome::Ok, &cfg), StoreHealth::Healthy);
    }

    #[test]
    fn machine_failure_streak_resets_on_success() {
        let cfg = config();
        let mut m = HealthMachine::new();
        m.observe(ProbeOutcome::Ok, &cfg);
        m.observe(ProbeOutcome::Ok, &cfg);
        assert_eq!(m.state, StoreHealth::Healthy);
        m.observe(ProbeOutcome::Failure, &cfg);
        m.observe(ProbeOutcome::Failure, &cfg);
        m.observe(ProbeOutcome::Ok, &cfg);
        m.observe(ProbeOutcome::Ok, &cfg);
        assert_eq!(m.state, StoreHealth::Healthy);
        // The old failures no longer count toward the threshold.
        m.observe(ProbeOutcome::Failure, &cfg);
        m.observe(ProbeOutcome::Failure, &cfg);
        assert_eq!(m.state, StoreHealth::Degraded);
    }

    #[test]
    fn store_jitter_is_deterministic_bounded_and_spread() {
        let interval = Duration::from_secs(5);
        // Deterministic: same address, same offset, every time.
        let a = store_jitter("127.0.0.1:7001", interval);
        assert_eq!(a, store_jitter("127.0.0.1:7001", interval));
        // Bounded: always strictly inside the sweep interval.
        for i in 0..64 {
            assert!(store_jitter(&format!("10.0.0.{i}:7000"), interval) < interval);
        }
        // Spread: sibling addresses land at distinct phases rather than
        // in lockstep.
        let offsets: std::collections::BTreeSet<_> = (0..8)
            .map(|i| store_jitter(&format!("10.0.0.{i}:7000"), interval))
            .collect();
        assert!(offsets.len() >= 6, "poor spread: {offsets:?}");
        // Degenerate interval: no panic, no offset.
        assert_eq!(store_jitter("x", Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn degraded_report_keeps_store_out_of_healthy() {
        let cfg = config();
        let mut m = HealthMachine::new();
        m.observe(ProbeOutcome::Ok, &cfg);
        m.observe(ProbeOutcome::Ok, &cfg);
        assert_eq!(m.state, StoreHealth::Healthy);
        assert_eq!(
            m.observe(ProbeOutcome::DegradedReport, &cfg),
            StoreHealth::Degraded
        );
        // A degraded report also resets the recovery streak.
        assert_eq!(m.observe(ProbeOutcome::Ok, &cfg), StoreHealth::Degraded);
        assert_eq!(m.observe(ProbeOutcome::Ok, &cfg), StoreHealth::Healthy);
    }
}

//! The broker's fleet health plane.
//!
//! Failover needs one fact about each registered data store: is it
//! alive? A background prober ([`FleetScraper`]) sweeps every paired
//! store on an interval and asks for `/healthz` alone, over the broker's
//! normal client transport (each sweep runs under one trace context, so
//! a sweep is followable across the fleet like any other request). The
//! broker reads nothing else from a store: no `/metrics`, no decision
//! counts, nothing about who shares with whom (the paper's broker finds
//! contributors and holds keys; sharing activity never passes through
//! it).
//!
//! Each store's probe outcomes drive a **health state machine** —
//! Healthy → Degraded → Unreachable with consecutive-failure thresholds
//! and recovery hysteresis ([`FleetConfig::unreachable_after`] /
//! [`FleetConfig::healthy_after`]), so one dropped probe never flaps a
//! store's status. Failover promotions act on its verdicts.
//!
//! Results surface three ways: `GET /fleet` (JSON), `/ui/fleet` (the web
//! UI table), and store-labelled gauges under the broker's own
//! `/metrics` (bounded by [`sensorsafe_obsv::metrics::bounded_label`]).
//! Contributor search results additionally annotate contributors whose
//! store is currently Unreachable. The plane observes itself: probe
//! failures, probe latency, and per-store staleness are metrics too.
//!
//! Pair a store, sweep it once, and read the verdict back from
//! `GET /fleet` (production deployments spawn
//! [`BrokerService::spawn_fleet_scraper`](crate::BrokerService::spawn_fleet_scraper)
//! instead of sweeping by hand):
//!
//! ```
//! use sensorsafe_broker::{BrokerConfig, BrokerService, TransportFactory};
//! use sensorsafe_json::json;
//! use sensorsafe_net::{LocalTransport, Request, Response, Service, Status, Transport};
//! use std::sync::Arc;
//!
//! // A minimal "store": anything serving /healthz can be swept. Real
//! // deployments hand the factory a TCP transport instead.
//! struct StubStore;
//! impl Service for StubStore {
//!     fn handle(&self, request: &Request) -> Response {
//!         match request.path.as_str() {
//!             "/healthz" => Response::json(&json!({"status": "ok"})),
//!             _ => Response::error(Status::NotFound, "healthz only"),
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
use sensorsafe_net::{Request, Response};
use sensorsafe_obsv::metrics::bounded_label;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fleet health-plane configuration (part of
/// [`BrokerConfig`](crate::BrokerConfig)).
#[derive(Clone)]
pub struct FleetConfig {
    /// How often the prober sweeps every registered store.
    pub scrape_interval: Duration,
    /// Consecutive probe failures before a store is marked Unreachable.
    pub unreachable_after: u32,
    /// Consecutive successful probes an impaired store must accumulate
    /// before returning to Healthy (recovery hysteresis).
    pub healthy_after: u32,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            scrape_interval: Duration::from_secs(5),
            unreachable_after: 3,
            healthy_after: 2,
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
        }
    }
}

/// Shared state of the fleet health plane, owned by the broker's
/// `Inner`.
pub(crate) struct FleetPlane {
    config: FleetConfig,
    stores: Mutex<BTreeMap<String, StoreState>>,
    /// Sweeps completed since the broker started.
    sweeps: Mutex<u64>,
}

impl FleetPlane {
    pub(crate) fn new(config: FleetConfig) -> FleetPlane {
        FleetPlane {
            config,
            stores: Mutex::new(BTreeMap::new()),
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

/// Deterministic per-store probe offset within one sweep interval:
/// FNV-1a over the store address, reduced modulo the interval. Stores
/// registered to the same broker land at different phases of the sweep
/// instead of being probed in lockstep at every tick (a thundering herd
/// on the fleet's `/healthz` endpoints when N is large). Derived purely
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
    /// clock every probe is stamped with.
    pub(crate) fn fleet_now_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// One full sweep of every registered store: probe `/healthz`,
    /// advance each store's state machine, refresh the fleet gauges, and
    /// run failover on the verdicts. Runs on the prober thread, but callable directly for deterministic tests
    /// (this path never sleeps — see [`Inner::fleet_sweep_paced`]).
    pub(crate) fn fleet_sweep(&self) {
        self.fleet_sweep_paced(&mut |_| {});
    }

    /// A sweep with a caller-supplied pacing hook. Stores are visited in
    /// [`store_jitter`] order and the hook is handed each store's
    /// deterministic offset before its probe; the prober thread sleeps
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
                    "Latency of one store probe (a healthz round trip).",
                    &[],
                    None,
                )
                .observe(started.elapsed());
            self.ingest_probe(addr, now, probe);
        }
        self.publish_fleet_gauges(self.fleet_now_secs(), &addrs);
        // Failover rides the sweep: promotions act on the verdicts the
        // health machines just reached.
        self.failover_sweep();
        *self.fleet.sweeps.lock() += 1;
    }

    /// Probes one store's `/healthz`: the liveness and component
    /// verdict, and the only thing the broker asks a store for.
    fn probe_store(
        &self,
        addr: &str,
        ctx: Option<sensorsafe_obsv::TraceContext>,
    ) -> (ProbeOutcome, String) {
        let mut request = Request::get("/healthz");
        if let Some(ctx) = ctx {
            request = request.with_trace_context(ctx);
        }
        let health = match (self.config.transports)(addr).round_trip(&request) {
            Err(e) => return (ProbeOutcome::Failure, e.to_string()),
            Ok(resp) if !resp.status.is_success() => {
                return (
                    ProbeOutcome::Failure,
                    format!("healthz returned {}", resp.status.code()),
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
        (outcome, status)
    }

    /// Folds one probe's result into the store's state machine.
    fn ingest_probe(&self, addr: &str, now: f64, (outcome, detail): (ProbeOutcome, String)) {
        let mut stores = self.fleet.stores.lock();
        let state = stores
            .entry(addr.to_string())
            .or_insert_with(StoreState::new);
        state.probes += 1;
        state.last_probe_at = Some(now);
        if outcome == ProbeOutcome::Failure {
            state.failures += 1;
            state.last_error = Some(detail);
            state.healthz_status = None;
            let store_label = bounded_label("sensorsafe_broker_fleet_scrape_failures_total", addr);
            self.metrics
                .counter(
                    "sensorsafe_broker_fleet_scrape_failures_total",
                    "Store probes that failed (transport error or non-2xx healthz).",
                    &[("store", &store_label)],
                )
                .inc();
        } else {
            state.last_ok_at = Some(now);
            state.last_error = None;
            state.healthz_status = Some(detail);
        }
        state.machine.observe(outcome, &self.fleet.config);
    }

    /// Refreshes the per-store and per-state fleet gauges.
    fn publish_fleet_gauges(&self, now: f64, addrs: &[String]) {
        let stores = self.fleet.stores.lock();
        let mut by_state =
            BTreeMap::from([("healthy", 0i64), ("degraded", 0i64), ("unreachable", 0i64)]);
        for addr in addrs {
            let Some(state) = stores.get(addr) else {
                continue;
            };
            let health = state.machine.state;
            *by_state.entry(health.as_str()).or_insert(0) += 1;
            let store_label = bounded_label("sensorsafe_broker_fleet_store_health", addr);
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

    /// `GET /fleet`: the whole plane as JSON.
    pub(crate) fn handle_fleet(&self) -> Response {
        let now = self.fleet_now_secs();
        let config = &self.fleet.config;
        let stores = self.fleet.stores.lock();
        let mut store_entries = Vec::new();
        for (addr, state) in stores.iter() {
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
            }));
        }
        let failovers: Vec<Value> = self.failovers.lock().iter().map(|e| e.to_json()).collect();
        Response::json(&json!({
            "scrape_interval_secs": (config.scrape_interval.as_secs_f64()),
            "unreachable_after": (config.unreachable_after),
            "healthy_after": (config.healthy_after),
            "sweeps": (*self.fleet.sweeps.lock()),
            "stores": (Value::Array(store_entries)),
            "failovers": (Value::Array(failovers)),
        }))
    }
}

/// Handle to the background prober thread. Dropping it (or calling
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

    /// Signals the prober to stop and joins the thread.
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
    fn sweeps_ask_stores_for_healthz_only() {
        use crate::{BrokerConfig, BrokerService, TransportFactory};
        use sensorsafe_net::{LocalTransport, Service, Status, Transport};

        /// A store that answers everything and records what it was asked.
        struct RecordingStore(Mutex<Vec<String>>);
        impl Service for RecordingStore {
            fn handle(&self, request: &Request) -> Response {
                self.0.lock().push(request.path.clone());
                match request.path.as_str() {
                    "/healthz" => Response::json(&json!({"status": "ok"})),
                    "/metrics" => Response::text("sensorsafe_policy_decisions_total 1\n"),
                    _ => Response::error(Status::NotFound, "no such route"),
                }
            }
        }

        let store = Arc::new(RecordingStore(Mutex::new(Vec::new())));
        let for_factory = Arc::clone(&store);
        let transports: TransportFactory = Arc::new(move |_addr: &str| {
            Arc::new(LocalTransport::new(for_factory.clone() as Arc<dyn Service>))
                as Arc<dyn Transport>
        });
        let (broker, admin) = BrokerService::new(BrokerConfig {
            name: "broker".into(),
            transports,
            ..BrokerConfig::default()
        });
        for addr in ["s1", "s2"] {
            let resp = broker.handle(&Request::post_json(
                "/api/stores/register",
                &json!({"key": (admin.to_hex()), "addr": addr, "register_key": "k"}),
            ));
            assert!(resp.status.is_success());
        }
        store.0.lock().clear();
        for _ in 0..3 {
            broker.fleet_sweep_now();
        }
        let asked = store.0.lock().clone();
        assert_eq!(asked, vec!["/healthz"; 6]);

        let fleet = broker.handle(&Request::get("/fleet")).json_body().unwrap();
        let keys: Vec<&str> = fleet
            .as_object()
            .expect("/fleet is an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "scrape_interval_secs",
                "unreachable_after",
                "healthy_after",
                "sweeps",
                "stores",
                "failovers"
            ]
        );
        assert!(fleet.get("privacy").is_none());
        assert_eq!(fleet["stores"][0]["health"], json!("healthy"));
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

//! F1 — the full Fig. 1 architecture over real TCP sockets, including
//! the "broker is not a bottleneck" data-path property: sensor data
//! flows directly from stores to consumers, never through the broker.

use sensorsafe::datastore::DataStoreService;
use sensorsafe::net::{HttpClient, Request, Response, Server, Service, Status};
use sensorsafe::sim::Scenario;
use sensorsafe::store::Query;
use sensorsafe::types::Timestamp;
use sensorsafe::{json, Deployment};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Wraps a service, counting request/response body bytes through it.
struct MeteredService<S> {
    inner: S,
    bytes: Arc<AtomicUsize>,
}

impl<S: Service> Service for MeteredService<S> {
    fn handle(&self, request: &Request) -> Response {
        let response = self.inner.handle(request);
        self.bytes
            .fetch_add(request.body.len() + response.body.len(), Ordering::Relaxed);
        response
    }
}

#[test]
fn architecture_over_tcp_with_broker_byte_accounting() {
    // Bind on fixed localhost ports (ephemeral would need two-phase
    // wiring; these are test-scoped).
    let broker_addr = "127.0.0.1:7180";
    let store_addr = "127.0.0.1:7181";
    let mut deployment = Deployment::over_tcp(broker_addr);
    let broker_bytes = Arc::new(AtomicUsize::new(0));
    let _broker_server = Server::bind(
        broker_addr,
        2,
        Arc::new(MeteredService {
            inner: deployment.broker().clone(),
            bytes: broker_bytes.clone(),
        }),
    )
    .expect("bind broker");
    let store: DataStoreService = deployment.add_store(store_addr);
    let store_bytes = Arc::new(AtomicUsize::new(0));
    let _store_server = Server::bind(
        store_addr,
        2,
        Arc::new(MeteredService {
            inner: store,
            bytes: store_bytes.clone(),
        }),
    )
    .expect("bind store");

    // Alice uploads a day and shares it.
    let alice = deployment
        .register_contributor(store_addr, "alice")
        .unwrap();
    alice
        .upload_scenario(&Scenario::alice_day(
            Timestamp::from_millis(1_311_500_000_000),
            31,
            1,
        ))
        .unwrap();
    alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();

    // Snapshot broker traffic before Bob's data download.
    let bob = deployment.register_consumer("bob").unwrap();
    bob.add_contributors(&["alice"]).unwrap();
    let broker_before_download = broker_bytes.load(Ordering::Relaxed);
    let store_before_download = store_bytes.load(Ordering::Relaxed);

    let results = bob.download_all(&Query::all()).unwrap();
    let view = &results[0].1;
    assert!(view.raw_samples() > 30_000);

    let broker_during_download = broker_bytes.load(Ordering::Relaxed) - broker_before_download;
    let store_during_download = store_bytes.load(Ordering::Relaxed) - store_before_download;
    // The broker only serves the access list (a few hundred bytes); the
    // store carries the actual sensor payload (megabytes).
    assert!(
        store_during_download > 100 * broker_during_download,
        "store {store_during_download} vs broker {broker_during_download}"
    );
}

/// Sums every series of a metric family whose line starts with `prefix`
/// (exposition lines are `name{labels} value`).
fn metric_total(exposition: &str, prefix: &str) -> f64 {
    exposition
        .lines()
        .filter(|line| line.starts_with(prefix))
        .filter_map(|line| line.rsplit(' ').next())
        .filter_map(|value| value.parse::<f64>().ok())
        .sum()
}

#[test]
fn metrics_endpoints_report_traffic_and_policy_decisions() {
    let broker_addr = "127.0.0.1:7182";
    let store_addr = "127.0.0.1:7183";
    let mut deployment = Deployment::over_tcp(broker_addr);
    let _broker_server =
        Server::bind(broker_addr, 2, Arc::new(deployment.broker().clone())).expect("bind broker");
    let store = deployment.add_store(store_addr);
    let _store_server = Server::bind(store_addr, 2, Arc::new(store)).expect("bind store");

    let alice = deployment
        .register_contributor(store_addr, "alice")
        .unwrap();
    alice
        .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), 3, 1))
        .unwrap();
    let bob = deployment.register_consumer("bob").unwrap();
    bob.add_contributors(&["alice"]).unwrap();

    // Drive all three enforcement outcomes. Allowed: full fidelity…
    alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();
    assert!(bob.download_all(&Query::all()).unwrap()[0].1.raw_samples() > 0);
    // …abstracted: time coarsened to the hour…
    alice
        .set_rules(&json!([
            {"Action": "Allow"},
            {"Action": {"Abstraction": {"Time": "Hour"}}},
        ]))
        .unwrap();
    assert!(bob.download_all(&Query::all()).unwrap()[0].1.raw_samples() > 0);
    // …denied: revoked.
    alice.set_rules(&json!([])).unwrap();
    assert!(bob.download_all(&Query::all()).unwrap()[0].1.is_empty());

    // The datastore scrape carries per-endpoint traffic, the policy audit
    // counters, and the process-wide net/store families.
    let resp = HttpClient::new(store_addr)
        .send(&Request::get("/metrics"))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert!(resp.headers["content-type"].contains("text/plain"));
    let store_metrics = String::from_utf8_lossy(&resp.body).to_string();
    assert!(
        metric_total(&store_metrics, "sensorsafe_datastore_requests_total{") >= 3.0,
        "{store_metrics}"
    );
    assert!(
        store_metrics.contains("sensorsafe_datastore_request_seconds_bucket{endpoint="),
        "per-endpoint latency histogram: {store_metrics}"
    );
    for decision in ["allowed", "abstracted", "denied"] {
        let prefix = format!("sensorsafe_policy_decisions_total{{decision=\"{decision}\"}}");
        assert!(
            metric_total(&store_metrics, &prefix) >= 1.0,
            "decision {decision} missing: {store_metrics}"
        );
    }
    assert!(metric_total(&store_metrics, "sensorsafe_net_requests_total{") >= 1.0);
    assert!(metric_total(&store_metrics, "sensorsafe_store_query_scan_segments_count") >= 1.0);
    assert!(metric_total(&store_metrics, "sensorsafe_audit_requests_total") >= 3.0);

    // The broker scrape shows its own endpoints plus the rule-sync flow:
    // three pushes from alice, each accepted.
    let resp = HttpClient::new(broker_addr)
        .send(&Request::get("/metrics"))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    let broker_metrics = String::from_utf8_lossy(&resp.body).to_string();
    assert!(
        metric_total(&broker_metrics, "sensorsafe_broker_requests_total{") >= 1.0,
        "{broker_metrics}"
    );
    assert!(
        broker_metrics.contains("sensorsafe_broker_request_seconds_bucket{endpoint="),
        "per-endpoint latency histogram: {broker_metrics}"
    );
    assert!(
        metric_total(
            &broker_metrics,
            "sensorsafe_broker_rule_syncs_total{result=\"accepted\"}"
        ) >= 3.0,
        "{broker_metrics}"
    );
    assert!(
        metric_total(&broker_metrics, "sensorsafe_broker_rule_epoch_max") >= 3.0,
        "{broker_metrics}"
    );
}

#[test]
fn multi_store_consistency_under_rule_updates() {
    // Rules changed at a store must be visible at the broker's mirror
    // immediately (push sync) and affect subsequent searches.
    let mut deployment = Deployment::in_process();
    deployment.add_store("s1");
    let alice = deployment.register_contributor("s1", "alice").unwrap();
    alice
        .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), 2, 1))
        .unwrap();
    let bob = deployment.register_consumer("bob").unwrap();

    alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();
    assert_eq!(
        bob.search(&json!({"channels": ["ecg"]})).unwrap(),
        ["alice"]
    );
    // Alice revokes.
    alice.set_rules(&json!([])).unwrap();
    assert!(bob
        .search(&json!({"channels": ["ecg"]}))
        .unwrap()
        .is_empty());
    // And the store enforces the same thing on a direct query.
    bob.add_contributors(&["alice"]).unwrap();
    let results = bob.download_all(&Query::all()).unwrap();
    assert!(results[0].1.is_empty(), "revoked rules must deny downloads");
    // Byte for byte: the streamed body of a denied query is the empty
    // view, with no channel name or sample in it.
    let access = bob.access_list().unwrap().remove(0);
    let denied = (deployment.transports())(&access.store_addr)
        .round_trip(&Request::post_json(
            "/api/query",
            &json!({"key": (access.api_key), "contributor": "alice"}),
        ))
        .unwrap();
    assert_eq!(denied.body, b"{\"windows\":[]}");
    // Re-grant.
    alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();
    let results = bob.download_all(&Query::all()).unwrap();
    assert!(results[0].1.raw_samples() > 0);
}

#[test]
fn concurrent_consumers_and_uploads() {
    // The store's read path (queries) must proceed concurrently while
    // uploads mutate other accounts.
    let mut deployment = Deployment::in_process();
    let store = deployment.add_store("s1");
    let mut contributors = Vec::new();
    for i in 0..4 {
        let name = format!("c{i}");
        let handle = deployment.register_contributor("s1", &name).unwrap();
        handle
            .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), i as u64, 1))
            .unwrap();
        handle.set_rules(&json!([{"Action": "Allow"}])).unwrap();
        contributors.push(name);
    }
    let consumers: Vec<_> = (0..4)
        .map(|i| deployment.register_consumer(&format!("bob{i}")).unwrap())
        .collect();
    for consumer in &consumers {
        let names: Vec<&str> = contributors.iter().map(String::as_str).collect();
        consumer.add_contributors(&names).unwrap();
    }
    std::thread::scope(|scope| {
        for consumer in &consumers {
            scope.spawn(move || {
                for _ in 0..3 {
                    let results = consumer.download_all(&Query::all()).unwrap();
                    assert_eq!(results.len(), 4);
                    for (_, view) in results {
                        assert!(view.raw_samples() > 0);
                    }
                }
            });
        }
    });
    // The store is still healthy afterwards.
    let resp = store.handle(&Request::get("/health"));
    assert_eq!(resp.json_body().unwrap()["contributors"].as_i64(), Some(4));
}

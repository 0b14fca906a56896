//! Fleet health plane e2e (ISSUE 5 acceptance): a broker and two data
//! stores over real TCP. The broker's fleet prober asks both stores for
//! `/healthz` alone; killing one store mid-run must drive it
//! Healthy → Degraded → Unreachable within the configured consecutive-
//! failure threshold, annotate search results that include its
//! contributors, and recover to Healthy after a restart.

use sensorsafe::broker::FleetConfig;
use sensorsafe::net::{HttpClient, Request, Server, Status};
use sensorsafe::sim::Scenario;
use sensorsafe::types::Timestamp;
use sensorsafe::{json, Deployment, Value};
use std::sync::Arc;

const BROKER_ADDR: &str = "127.0.0.1:7190";
const STORE1_ADDR: &str = "127.0.0.1:7191";
const STORE2_ADDR: &str = "127.0.0.1:7192";

fn get_fleet() -> Value {
    let resp = HttpClient::new(BROKER_ADDR)
        .send(&Request::get("/fleet"))
        .expect("broker reachable");
    assert_eq!(resp.status, Status::Ok);
    resp.json_body().unwrap()
}

fn store_entry<'a>(fleet: &'a Value, addr: &str) -> &'a Value {
    fleet["stores"]
        .as_array()
        .unwrap()
        .iter()
        .find(|s| s["addr"].as_str() == Some(addr))
        .unwrap_or_else(|| panic!("no fleet entry for {addr}: {fleet}"))
}

fn health_of(fleet: &Value, addr: &str) -> String {
    store_entry(fleet, addr)["health"]
        .as_str()
        .unwrap()
        .to_string()
}

fn search(bob_key: &str) -> Value {
    let resp = HttpClient::new(BROKER_ADDR)
        .send(&Request::post_json(
            "/api/search",
            &json!({"key": bob_key, "query": {"channels": ["ecg"]}}),
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    resp.json_body().unwrap()
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect()
}

/// Binds a store server, retrying briefly in case the OS has not yet
/// released the port from a previous bind (the restart step).
fn bind_store(addr: &str, store: sensorsafe::datastore::DataStoreService) -> Server {
    let mut last_err = None;
    for _ in 0..50 {
        match Server::bind(addr, 2, Arc::new(store.clone())) {
            Ok(server) => return server,
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    }
    panic!("bind {addr} failed: {last_err:?}");
}

#[test]
fn fleet_tracks_store_death_and_recovery_over_tcp() {
    // Fast thresholds so state transitions happen in test time.
    let fleet_config = FleetConfig {
        unreachable_after: 2,
        healthy_after: 1,
        ..FleetConfig::default()
    };
    let mut deployment = Deployment::over_tcp_with_fleet(BROKER_ADDR, fleet_config);
    let _broker_server =
        Server::bind(BROKER_ADDR, 2, Arc::new(deployment.broker().clone())).expect("bind broker");
    let store1 = deployment.add_store(STORE1_ADDR);
    let store2 = deployment.add_store(STORE2_ADDR);
    let mut store1_server = Some(bind_store(STORE1_ADDR, store1.clone()));
    let _store2_server = bind_store(STORE2_ADDR, store2);

    // Alice on store 1, Carol on store 2, both sharing everything.
    let alice = deployment
        .register_contributor(STORE1_ADDR, "alice")
        .unwrap();
    alice
        .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), 2, 1))
        .unwrap();
    alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();
    let carol = deployment
        .register_contributor(STORE2_ADDR, "carol")
        .unwrap();
    carol.set_rules(&json!([{"Action": "Allow"}])).unwrap();

    // Bob is registered raw (not via ConsumerApp) so the test can read
    // the annotated search response directly.
    let resp = HttpClient::new(BROKER_ADDR)
        .send(&Request::post_json(
            "/api/register",
            &json!({
                "key": (deployment.broker_admin_key()),
                "name": "bob",
                "role": "consumer",
            }),
        ))
        .unwrap();
    let bob_key = resp.json_body().unwrap()["api_key"]
        .as_str()
        .unwrap()
        .to_string();

    // Both stores come up Healthy (healthy_after = 1, one clean sweep).
    deployment.broker().fleet_sweep_now();
    deployment.broker().fleet_sweep_now();
    let fleet = get_fleet();
    assert_eq!(health_of(&fleet, STORE1_ADDR), "healthy");
    assert_eq!(health_of(&fleet, STORE2_ADDR), "healthy");
    assert_eq!(
        store_entry(&fleet, STORE1_ADDR)["healthz_status"].as_str(),
        Some("ok")
    );

    // The background prober thread also sweeps on its own.
    let sweeps_before = get_fleet()["sweeps"].as_u64().unwrap();
    deployment.start_fleet_scraper();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(50));
        if get_fleet()["sweeps"].as_u64().unwrap() > sweeps_before {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background prober never swept"
        );
    }
    deployment.stop_fleet_scraper();

    // Kill store 1: two consecutive failed probes (unreachable_after =
    // 2) must mark it Unreachable while store 2 stays Healthy.
    store1_server.take();
    deployment.broker().fleet_sweep_now();
    assert_eq!(health_of(&get_fleet(), STORE1_ADDR), "degraded");
    deployment.broker().fleet_sweep_now();
    let fleet = get_fleet();
    assert_eq!(health_of(&fleet, STORE1_ADDR), "unreachable");
    assert_eq!(health_of(&fleet, STORE2_ADDR), "healthy");
    assert!(store_entry(&fleet, STORE1_ADDR)["last_error"]
        .as_str()
        .is_some());
    // Search still finds Alice's mirrored rules, but flags her store.
    let hits = search(&bob_key);
    assert_eq!(names(&hits["contributors"]), ["alice", "carol"]);
    assert_eq!(names(&hits["unreachable"]), ["alice"]);

    // Fleet gauges surface on the broker's own /metrics, store-labelled.
    let resp = HttpClient::new(BROKER_ADDR)
        .send(&Request::get("/metrics"))
        .unwrap();
    let metrics = String::from_utf8(resp.body).unwrap();
    assert!(metrics.contains(&format!(
        "sensorsafe_broker_fleet_store_health{{store=\"{STORE1_ADDR}\"}} 2"
    )));
    assert!(metrics.contains("sensorsafe_broker_fleet_scrape_failures_total"));
    assert!(metrics.contains("sensorsafe_broker_fleet_scrape_staleness_seconds"));
    assert!(metrics.contains("sensorsafe_broker_fleet_stores{state=\"unreachable\"} 1"));

    // Restart the store on the same address: one clean probe
    // (healthy_after = 1) recovers it, and the annotation clears.
    store1_server = Some(bind_store(STORE1_ADDR, store1));
    deployment.broker().fleet_sweep_now();
    let fleet = get_fleet();
    assert_eq!(health_of(&fleet, STORE1_ADDR), "healthy");
    let hits = search(&bob_key);
    assert_eq!(names(&hits["contributors"]), ["alice", "carol"]);
    assert!(names(&hits["unreachable"]).is_empty());
    drop(store1_server);
}

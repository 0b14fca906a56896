//! Replication + failover e2e (ISSUE 6 acceptance): broker, primary
//! store, and replica store over real TCP. The primary ships sealed WAL
//! batches to its replica; killing the primary mid-upload-stream must
//! make the broker's failover controller promote the replica (epoch
//! CAS), redirect clients through the registry, and lose **zero acked
//! records** — uploads in flight during the outage retry transparently
//! through the failover-aware transport and land on the replica. The
//! deposed primary gets fenced once it is reachable again.

use sensorsafe::broker::FleetConfig;
use sensorsafe::net::{HttpClient, Request, Server, Status, Transport};
use sensorsafe::sim::Scenario;
use sensorsafe::store::Query;
use sensorsafe::types::{ContributorId, Timestamp};
use sensorsafe::{json, ConsumerApp, Deployment, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BROKER_ADDR: &str = "127.0.0.1:7290";
const PRIMARY_ADDR: &str = "127.0.0.1:7291";
const REPLICA_ADDR: &str = "127.0.0.1:7292";

/// How long (seconds) the fleet may take to promote the replica and
/// resume acked uploads after the primary dies; promotion must complete
/// well inside it.
const RECOVERY_DEADLINE_SECS: f64 = 300.0;

fn get_fleet() -> Value {
    let resp = HttpClient::new(BROKER_ADDR)
        .send(&Request::get("/fleet"))
        .expect("broker reachable");
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

/// Owner-query through `transport`: Alice reads back her own raw
/// segments; returns the total sample count.
fn raw_samples_via(transport: &Arc<dyn Transport>, api_key: &str) -> usize {
    let resp = transport
        .round_trip(&Request::post_json(
            "/api/query",
            &json!({
                "key": api_key,
                "contributor": "alice",
                "query": (Query::all().to_json()),
            }),
        ))
        .expect("query transport");
    assert_eq!(resp.status, Status::Ok, "query failed");
    resp.json_body().unwrap()["segments"]
        .as_array()
        .expect("owner query returns raw segments")
        .iter()
        .map(|s| {
            sensorsafe::types::WaveSegment::from_json(s)
                .expect("well-formed segment")
                .len()
        })
        .sum()
}

/// Binds a store server, retrying briefly in case the OS has not yet
/// released the port (the fence-retry restart step).
fn bind_store(addr: &str, store: sensorsafe::datastore::DataStoreService) -> Server {
    let mut last_err = None;
    // Generous worker pool: the store serves keep-alive connections from
    // the broker's prober, the peer store's repl shipper, and the test's
    // own clients at the same time.
    for _ in 0..50 {
        match Server::bind(addr, 8, Arc::new(store.clone())) {
            Ok(server) => return server,
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    panic!("bind {addr} failed: {last_err:?}");
}

#[test]
fn failover_promotes_replica_without_acked_record_loss() {
    let fleet_config = FleetConfig {
        unreachable_after: 2,
        healthy_after: 1,
        ..FleetConfig::default()
    };
    let mut deployment = Deployment::over_tcp_with_fleet(BROKER_ADDR, fleet_config);
    let _broker_server =
        Server::bind(BROKER_ADDR, 4, Arc::new(deployment.broker().clone())).expect("bind broker");
    let primary = deployment.add_store(PRIMARY_ADDR);
    let replica = deployment.add_store(REPLICA_ADDR);
    let mut primary_server = Some(bind_store(PRIMARY_ADDR, primary.clone()));
    let _replica_server = bind_store(REPLICA_ADDR, replica.clone());

    // Pair replication BEFORE registering contributors (keys are only
    // recoverable for mirroring at mint time).
    deployment
        .pair_replica(PRIMARY_ADDR, REPLICA_ADDR, Duration::from_millis(50))
        .unwrap();

    let alice = deployment
        .register_contributor(PRIMARY_ADDR, "alice")
        .unwrap();
    alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();

    // Bob subscribes while the primary is alive, so his consumer key is
    // escrowed at the primary and mirrored to the replica.
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
    let bob = ConsumerApp::new(
        deployment.broker_transport(),
        bob_key.clone(),
        deployment.transports(),
    );
    let (added, errors) = bob.add_contributors(&["alice"]).unwrap();
    assert_eq!(added, ["alice"]);
    assert!(errors.is_empty(), "{errors:?}");

    // Both stores healthy.
    deployment.broker().fleet_sweep_now();
    let fleet = get_fleet();
    for addr in [PRIMARY_ADDR, REPLICA_ADDR] {
        let entry = fleet["stores"]
            .as_array()
            .unwrap()
            .iter()
            .find(|s| s["addr"].as_str() == Some(addr))
            .unwrap();
        assert_eq!(entry["health"].as_str(), Some("healthy"));
    }

    // Part 1 of the upload stream, acked by the primary.
    alice
        .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), 2, 1))
        .unwrap();

    // Drain replication lag to zero (the background shipper also runs;
    // this makes the drain deterministic).
    let id = ContributorId::new("alice");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        primary.repl_ship_now();
        let pending = primary
            .state()
            .with_contributor(&id, |a| a.store.repl_pending())
            .unwrap();
        if pending == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "replication lag never drained");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Replication lag and ship counters are visible on the primary's
    // /metrics (scraped by the broker's fleet plane).
    let resp = HttpClient::new(PRIMARY_ADDR)
        .send(&Request::get("/metrics"))
        .unwrap();
    let metrics = String::from_utf8(resp.body).unwrap();
    assert!(metrics.contains("sensorsafe_datastore_repl_shipped_batches_total"));
    assert!(metrics.contains("sensorsafe_datastore_repl_pending_batches"));

    // Every acked record already sits on the replica, readable with the
    // SAME key (mirrored at mint time).
    let n1 = raw_samples_via(&alice.store, &alice.api_key);
    assert!(n1 > 0);
    let replica_transport: Arc<dyn Transport> =
        Arc::new(sensorsafe::net::TcpTransport::new(REPLICA_ADDR));
    assert_eq!(
        raw_samples_via(&replica_transport, &alice.api_key),
        n1,
        "replica must hold every acked record before the failover"
    );
    drop(replica_transport);

    // Kill the primary mid-stream and keep uploading part 2 through the
    // failover-aware handle from another thread: those uploads must
    // block-retry across the promotion and land on the replica.
    primary_server.take();
    let outage_started = Instant::now();
    let device = alice.device();
    let part2 = Scenario::alice_day(Timestamp::from_millis(10_000_000), 2, 1);
    let uploader = std::thread::spawn(move || device.run_scenario(&part2).map(|_| ()));

    // Two failed probes (unreachable_after = 2) trip the failover
    // controller: epoch-CAS promotion of the replica.
    deployment.broker().fleet_sweep_now();
    deployment.broker().fleet_sweep_now();

    uploader
        .join()
        .unwrap()
        .expect("in-flight uploads must retry transparently across failover");
    let recovery = outage_started.elapsed();
    assert!(
        recovery.as_secs_f64() < RECOVERY_DEADLINE_SECS,
        "recovery took {recovery:?}, past the {RECOVERY_DEADLINE_SECS} s recovery deadline"
    );

    // Zero acked-record loss: part 1 (replicated pre-failover) plus
    // part 2 (uploaded through the retrying client) — and part 2 renders
    // the same number of samples as part 1, so the total is exactly 2×.
    let n2 = raw_samples_via(&alice.store, &alice.api_key);
    assert_eq!(n2, 2 * n1, "acked records lost across failover");

    // The failover is on the public record: /fleet lists the promotion…
    let fleet = get_fleet();
    let failovers = fleet["failovers"].as_array().unwrap();
    assert!(
        !failovers.is_empty(),
        "no failover event in /fleet: {fleet}"
    );
    let event = &failovers[0];
    assert_eq!(event["from"].as_str(), Some(PRIMARY_ADDR));
    assert_eq!(event["to"].as_str(), Some(REPLICA_ADDR));
    assert_eq!(event["epoch"].as_u64(), Some(2));

    // …search no longer flags Alice (her assignment moved to the healthy
    // replica the moment promotion landed)…
    let resp = HttpClient::new(BROKER_ADDR)
        .send(&Request::post_json(
            "/api/search",
            &json!({"key": (bob_key.clone()), "query": {"channels": ["ecg"]}}),
        ))
        .unwrap();
    let hits = resp.json_body().unwrap();
    assert_eq!(names(&hits["contributors"]), ["alice"]);
    assert!(
        names(&hits["unreachable"]).is_empty(),
        "promotion must clear the unreachable annotation: {hits}"
    );

    // …and the broker's /metrics count it.
    let resp = HttpClient::new(BROKER_ADDR)
        .send(&Request::get("/metrics"))
        .unwrap();
    let metrics = String::from_utf8(resp.body).unwrap();
    assert!(metrics.contains("sensorsafe_broker_failovers_total 1"));
    // Neither keyless surface says who moved.
    assert!(
        !metrics.contains("alice"),
        "/metrics names alice: {metrics}"
    );
    let fleet_text = fleet.to_string();
    assert!(
        !fleet_text.contains("alice"),
        "/fleet names alice: {fleet_text}"
    );

    // Bob's download follows the refreshed access list to the replica.
    let results = bob.download_all(&Query::all()).unwrap();
    assert_eq!(results.len(), 1);
    assert!(results[0].1.raw_samples() > 0);

    // The deposed primary comes back: the pending fence is retried on
    // the next sweep, and stale-epoch writes to it are rejected.
    primary_server = Some(bind_store(PRIMARY_ADDR, primary.clone()));
    deployment.broker().fleet_sweep_now();
    let fleet = get_fleet();
    assert_eq!(
        fleet["failovers"].as_array().unwrap()[0]["fenced"].as_bool(),
        Some(true),
        "fence must be retried until acknowledged: {fleet}"
    );
    let resp = HttpClient::new(PRIMARY_ADDR)
        .send(&Request::post_json(
            "/api/rules/set",
            &json!({"key": (alice.api_key.clone()), "rules": [{"Action": "Allow"}]}),
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Conflict);
    assert_eq!(
        resp.json_body().unwrap()["error"].as_str(),
        Some("fenced"),
        "deposed primary must reject writes with a fence error"
    );
    drop(primary_server);
}

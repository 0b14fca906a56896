//! Sharing-awareness plane e2e (ISSUE 10 acceptance): a broker and a
//! durable data store over real TCP. Alice's rules route three consumers
//! to three different outcomes (allow / abstract / deny) while a fourth
//! consumer matches no rule at all; the awareness plane must surface the
//! outcome mix, per-rule hit counts, the dead rule, and the
//! baseline-only flow through `/api/privacy/summary` and the `/ui/privacy`
//! dashboard (and nowhere at the broker, whose `/fleet` carries no
//! decision counts) — and an offline replay of the hash-chained audit
//! ledger must reproduce the live aggregates byte for byte.

use sensorsafe::net::{HttpClient, Method, Request, Server, Status};
use sensorsafe::obsv::awareness::{hex, AwarenessAggregates};
use sensorsafe::sim::Scenario;
use sensorsafe::store::{verify_ledger_file, Query};
use sensorsafe::types::Timestamp;
use sensorsafe::{json, Deployment, Value};
use std::sync::Arc;

const BROKER_ADDR: &str = "127.0.0.1:7390";
const STORE_ADDR: &str = "127.0.0.1:7391";

fn summary(api_key: &str) -> Value {
    let resp = HttpClient::new(STORE_ADDR)
        .send(&Request::post_json(
            "/api/privacy/summary",
            &json!({ "key": api_key }),
        ))
        .expect("store reachable");
    assert_eq!(resp.status, Status::Ok);
    resp.json_body().unwrap()
}

fn count(summary: &Value, outcome: &str) -> u64 {
    summary["decisions"][outcome].as_u64().unwrap_or(0)
}

#[test]
fn awareness_loop_over_tcp_with_ledger_replay() {
    let data_dir = std::env::temp_dir().join(format!(
        "sensorsafe-privacy-awareness-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    let mut deployment = Deployment::over_tcp(BROKER_ADDR);
    let _broker_server =
        Server::bind(BROKER_ADDR, 2, Arc::new(deployment.broker().clone())).expect("bind broker");
    let store = deployment.add_store_with(
        STORE_ADDR,
        sensorsafe::datastore::DataStoreConfig {
            data_dir: Some(data_dir.clone()),
            ..Default::default()
        },
    );
    let _store_server = Server::bind(STORE_ADDR, 2, Arc::new(store.clone())).expect("bind store");

    // Alice hosts a day of data and writes five rules: bob shares at
    // full fidelity, carol behavior-abstracted (abstraction modulates an
    // Allow, Fig. 4 style), dave is refused, and rule 4 names a consumer
    // who never shows up — a dead rule.
    let alice = deployment
        .register_contributor(STORE_ADDR, "alice")
        .unwrap();
    alice
        .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), 2, 1))
        .unwrap();
    let epoch = alice
        .set_rules(&json!([
            {"Consumer": ["bob"], "Action": "Allow"},
            {"Consumer": ["carol"], "Action": "Allow"},
            {"Consumer": ["carol"], "Action": {"Abstraction": {"Time": "Hour"}}},
            {"Consumer": ["dave"], "Action": "Deny"},
            {"Consumer": ["nobody"], "Action": "Allow"},
        ]))
        .unwrap();
    assert_eq!(epoch, 1);

    // Four consumers query through the real §6 loop (broker access list,
    // then a direct store download). Eve matches no rule: deny-by-default
    // applies and the flow is baseline-only.
    for name in ["bob", "carol", "dave", "eve"] {
        let consumer = deployment.register_consumer(name).unwrap();
        consumer.add_contributors(&["alice"]).unwrap();
        let results = consumer.download_all(&Query::all()).unwrap();
        assert_eq!(results.len(), 1, "{name} should reach alice's store");
    }

    // The owner-facing summary: outcome mix, rule hits, posture findings.
    let s = summary(&alice.api_key);
    assert_eq!(s["contributor"].as_str(), Some("alice"));
    assert_eq!(s["rule_epoch"].as_u64(), Some(1));
    assert_eq!(s["rule_count"].as_u64(), Some(5));
    assert!(count(&s, "allowed") >= 1, "bob was allowed: {s}");
    assert!(count(&s, "abstracted") >= 1, "carol was abstracted: {s}");
    assert!(count(&s, "denied") >= 2, "dave + eve were denied: {s}");
    assert!(count(&s, "baseline") >= 1, "eve matched no rule: {s}");
    assert_eq!(
        s["dead_rules"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(Value::as_u64)
            .collect::<Vec<_>>(),
        [4],
        "only the never-matching rule is dead: {s}"
    );
    let baseline_only: Vec<&str> = s["baseline_only_consumers"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(baseline_only, ["eve"], "{s}");
    let hit_rules: Vec<u64> = s["rule_hits"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|r| r["current"].as_bool() == Some(true))
        .filter_map(|r| r["rule"].as_u64())
        .collect();
    assert_eq!(hit_rules, [0, 1, 2, 3], "one hit row per matched rule: {s}");
    assert!(
        !s["trend"].as_array().unwrap().is_empty(),
        "decisions land in the trend: {s}"
    );
    let live_digest = s["aggregates_digest"].as_str().unwrap().to_string();
    assert_eq!(live_digest.len(), 64);

    // The contributor dashboard renders the same findings.
    assert!(store.create_web_user("alice", "hunter2"));
    let mut login = Request {
        method: Method::Post,
        path: "/ui/login".into(),
        query: Default::default(),
        headers: Default::default(),
        body: b"username=alice&password=hunter2".to_vec(),
        idempotent: false,
    };
    login.headers.insert(
        "content-type".into(),
        "application/x-www-form-urlencoded".into(),
    );
    let resp = HttpClient::new(STORE_ADDR).send(&login).unwrap();
    assert_eq!(resp.status, Status::Ok);
    let html = String::from_utf8(resp.body).unwrap();
    let token = html
        .split("data-session-token=\"")
        .nth(1)
        .unwrap()
        .split('"')
        .next()
        .unwrap()
        .to_string();
    let resp = HttpClient::new(STORE_ADDR)
        .send(&Request::get("/ui/privacy").with_query("session", token))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    let html = String::from_utf8(resp.body).unwrap();
    assert!(html.contains("id=\"consumers\""), "{html}");
    assert!(html.contains("carol"));
    assert!(html.contains("baseline only"), "{html}");
    assert!(html.contains("Dead rules"), "{html}");
    assert!(html.contains("#4"), "{html}");
    assert!(html.contains("id=\"rule-hits\""));
    assert!(html.contains("id=\"trend\""));
    assert!(html.contains(&live_digest), "{html}");

    // The broker learns liveness, not who shares with whom: sweeps
    // around fresh decisions leave `/fleet` without any decision count,
    // outcome or principal name.
    deployment.broker().fleet_sweep_now();
    let bob = deployment.register_consumer("bob-2").unwrap();
    bob.add_contributors(&["alice"]).unwrap();
    bob.download_all(&Query::all()).unwrap();
    deployment.broker().fleet_sweep_now();
    let resp = HttpClient::new(BROKER_ADDR)
        .send(&Request::get("/fleet"))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    let fleet = resp.json_body().unwrap();
    assert!(fleet.get("privacy").is_none(), "{fleet}");
    assert_eq!(fleet["stores"][0]["addr"].as_str(), Some(STORE_ADDR));
    let text = fleet.to_string();
    for word in [
        "decision",
        "allowed",
        "abstracted",
        "denied",
        "alice",
        "bob",
    ] {
        assert!(!text.contains(word), "/fleet carries {word:?}: {text}");
    }
    // Neither does the fleet page.
    assert!(deployment.broker().create_web_user("ops", "secret"));
    let mut login = Request {
        method: Method::Post,
        path: "/ui/login".into(),
        query: Default::default(),
        headers: Default::default(),
        body: b"username=ops&password=secret".to_vec(),
        idempotent: false,
    };
    login.headers.insert(
        "content-type".into(),
        "application/x-www-form-urlencoded".into(),
    );
    let resp = HttpClient::new(BROKER_ADDR).send(&login).unwrap();
    assert_eq!(resp.status, Status::Ok);
    let html = String::from_utf8(resp.body).unwrap();
    let token = html
        .split("data-session-token=\"")
        .nth(1)
        .unwrap()
        .split('"')
        .next()
        .unwrap()
        .to_string();
    let resp = HttpClient::new(BROKER_ADDR)
        .send(&Request::get("/ui/fleet").with_query("session", token))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    let html = String::from_utf8(resp.body).unwrap();
    assert!(html.contains("id=\"fleet\""), "{html}");
    for word in [
        "privacy",
        "Denial",
        "allowed",
        "abstracted",
        "denied",
        "alice",
    ] {
        assert!(!html.contains(word), "/ui/fleet carries {word:?}: {html}");
    }

    // Offline rebuild: sync the chain, verify it, replay it — the
    // rebuilt aggregates must be byte-identical to the live plane and
    // the digest must match what the summary reported.
    let s = summary(&alice.api_key);
    let final_digest = s["aggregates_digest"].as_str().unwrap().to_string();
    store.audit_ledger().sync();
    let replayed = verify_ledger_file(data_dir.join("audit.ledger")).unwrap();
    assert_eq!(replayed.len() as u64, s["ledger_len"].as_u64().unwrap());
    let rebuilt = AwarenessAggregates::rebuild(replayed.iter());
    assert_eq!(
        store.awareness().aggregates().encode(),
        rebuilt.encode(),
        "live aggregates diverged from the chain"
    );
    assert_eq!(hex(&rebuilt.digest()), final_digest);

    let _ = std::fs::remove_dir_all(&data_dir);
}

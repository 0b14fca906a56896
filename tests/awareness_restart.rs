//! The sharing record survives a store restart: a generated interleaving
//! of consumer queries, rule changes and restarts of one durable store
//! (`add_store_with` again on the same `data_dir`). After every step the
//! owner's `/api/privacy/summary` must be the fold of the verified audit
//! chain on disk: its `aggregates_digest` equals a rebuild of
//! `verify_ledger_file`, and its decision counts and `ledger_len` equal
//! the chain's length. A plane that started empty at each restart would
//! tell the owner that nothing had been shared.
//!
//! The seeds are a fixed list, so every run replays the same cases.

use proptest::prelude::*;
use proptest::rng::TestRng;
use sensorsafe::datastore::DataStoreConfig;
use sensorsafe::net::{Request, Status};
use sensorsafe::obsv::awareness::{hex, AwarenessAggregates};
use sensorsafe::sim::Scenario;
use sensorsafe::store::{verify_ledger_file, Query};
use sensorsafe::types::Timestamp;
use sensorsafe::{json, Deployment, Value};
use std::path::Path;

const STORE: &str = "restart-store";
const SEEDS: [u64; 6] = [3, 17, 101, 4242, 65_537, 982_451];

#[derive(Clone, Copy, Debug)]
enum Step {
    /// A fresh consumer per store life downloads everything it may.
    Query,
    /// Alice installs one of a few rule sets.
    SetRules(usize),
    /// The store is rebuilt on its data directory.
    Restart,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Query),
        Just(Step::Query),
        (0usize..4).prop_map(Step::SetRules),
        Just(Step::Restart),
    ]
}

fn rule_set(i: usize) -> Value {
    match i {
        0 => json!([{"Action": "Allow"}]),
        1 => json!([{"Action": "Allow"}, {"Sensor": ["ecg"], "Action": "Deny"}]),
        2 => json!([
            {"Action": "Allow"},
            {"Action": {"Abstraction": {"Time": "Hour"}}},
        ]),
        _ => json!([]),
    }
}

fn summary(deployment: &Deployment, alice_key: &str) -> Value {
    let resp = (deployment.transports())(STORE)
        .round_trip(&Request::post_json(
            "/api/privacy/summary",
            &json!({ "key": alice_key }),
        ))
        .expect("store reachable");
    assert_eq!(resp.status, Status::Ok);
    resp.json_body().unwrap()
}

fn run_case(seed: u64, data_dir: &Path) {
    let _ = std::fs::remove_dir_all(data_dir);
    std::fs::create_dir_all(data_dir).unwrap();
    let steps = prop::collection::vec(step(), 4..12).generate(&mut TestRng::new(seed));
    let config = || DataStoreConfig {
        data_dir: Some(data_dir.to_path_buf()),
        ..Default::default()
    };
    let mut deployment = Deployment::in_process();
    deployment.add_store_with(STORE, config());
    let mut alice = deployment.register_contributor(STORE, "alice").unwrap();
    alice
        .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), seed, 1))
        .unwrap();
    alice.set_rules(&rule_set(0)).unwrap();
    let mut life = 0;
    let mut consumer = None;
    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Query => {
                let app = consumer.get_or_insert_with(|| {
                    let app = deployment
                        .register_consumer(&format!("bob-{life}"))
                        .unwrap();
                    app.add_contributors(&["alice"]).unwrap();
                    app
                });
                assert_eq!(app.download_all(&Query::all()).unwrap().len(), 1);
            }
            Step::SetRules(set) => {
                alice.set_rules(&rule_set(set)).unwrap();
            }
            Step::Restart => {
                // The keys and the escrowed consumer keys live in RAM:
                // after the restart alice registers again, and a new
                // consumer is escrowed at the rebuilt store.
                deployment.add_store_with(STORE, config());
                alice = deployment.register_contributor(STORE, "alice").unwrap();
                life += 1;
                consumer = None;
            }
        }
        let s = summary(&deployment, &alice.api_key);
        let chain = verify_ledger_file(data_dir.join("audit.ledger")).unwrap();
        let rebuilt = AwarenessAggregates::rebuild(chain.iter());
        let context = format!("seed {seed}, step {i} ({step:?}) of {steps:?}: {s}");
        assert_eq!(
            s["aggregates_digest"].as_str(),
            Some(hex(&rebuilt.digest()).as_str()),
            "summary is not the fold of the chain; {context}"
        );
        assert_eq!(
            s["ledger_len"].as_u64(),
            Some(chain.len() as u64),
            "{context}"
        );
        assert_eq!(
            s["decisions"]["total"].as_u64(),
            Some(chain.len() as u64),
            "{context}"
        );
    }
    drop(deployment);
    let _ = std::fs::remove_dir_all(data_dir);
}

#[test]
fn summary_is_the_fold_of_the_chain_across_restarts() {
    for seed in SEEDS {
        let dir = std::env::temp_dir().join(format!(
            "sensorsafe-awareness-restart-{}-{seed}",
            std::process::id()
        ));
        run_case(seed, &dir);
    }
}

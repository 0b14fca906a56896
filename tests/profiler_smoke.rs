//! Profiler smoke e2e (the CI face of the O3 profiling plane; see
//! EXPERIMENTS.md O3).
//!
//! Runs a full TCP deployment — evented broker + evented store in one
//! process — drives mixed traffic (uploads → journal commits, queries →
//! store request handlers, searches → broker rule matching), then pulls
//! `GET /debug/profile` and asserts the folded-stack output attributes
//! wall-clock samples to spans from at least three crates: the journal
//! commit loop (store), the request handlers (net), and the broker
//! search (broker). Also asserts the `/debug/spans` stats table is
//! monotone across reads, as the endpoint contract promises.

use sensorsafe::net::{HttpClient, Request, Status};
use sensorsafe::sim::Scenario;
use sensorsafe::store::Query;
use sensorsafe::types::Timestamp;
use sensorsafe::{json, Deployment};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fetches `/debug/spans` and indexes the table by span name.
fn spans_table(addr: &str) -> BTreeMap<String, (u64, f64)> {
    let resp = HttpClient::new(addr)
        .send(&Request::get("/debug/spans"))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    let body = resp.json_body().unwrap();
    body["spans"]
        .as_array()
        .unwrap()
        .iter()
        .map(|row| {
            (
                row["name"].as_str().unwrap().to_string(),
                (
                    row["count"].as_u64().unwrap(),
                    row["total_ms"].as_f64().unwrap(),
                ),
            )
        })
        .collect()
}

#[test]
fn profile_attributes_samples_across_crates() {
    let broker_addr = "127.0.0.1:7193";
    let store_addr = "127.0.0.1:7194";
    let mut deployment = Deployment::over_tcp(broker_addr);
    let _broker_server = deployment
        .serve_broker(broker_addr, 4)
        .expect("bind broker");
    // A durable store so uploads flow through the journal commit
    // thread — the `journal-commit` span the profile must attribute.
    let dir = std::env::temp_dir().join(format!("sensorsafe-prof-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    deployment.add_store_with(
        store_addr,
        sensorsafe::datastore::DataStoreConfig {
            name: "prof-smoke".into(),
            data_dir: Some(dir.clone()),
            ..Default::default()
        },
    );
    let _store_server = deployment.serve_store(store_addr, 4).expect("bind store");

    let alice = deployment
        .register_contributor(store_addr, "alice")
        .unwrap();
    alice
        .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), 2, 1))
        .unwrap();
    alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();
    let bob = deployment.register_consumer("bob").unwrap();
    bob.add_contributors(&["alice"]).unwrap();

    // Mixed background traffic for the whole profiling window: an
    // uploader (exercises the journal commit path), a downloader
    // (store request handlers + query execution), and a searcher
    // (broker rule matching). All three run until the profiles are
    // captured.
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    {
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let mut day = 1u64;
            while !stop.load(Ordering::Relaxed) {
                // Fresh timestamps each round so every upload is new data.
                let start = Timestamp::from_millis((day as i64) * 86_400_000);
                alice
                    .upload_scenario(&Scenario::alice_day(start, 2, 1))
                    .unwrap();
                day += 1;
            }
        }));
    }
    {
        let stop = Arc::clone(&stop);
        let bob = deployment.register_consumer("bob-reader").unwrap();
        bob.add_contributors(&["alice"]).unwrap();
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let results = bob.download_all(&Query::all()).unwrap();
                assert!(!results.is_empty());
            }
        }));
    }
    {
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let hits = bob.search(&json!({"channels": ["ecg"]})).unwrap();
                assert_eq!(hits, ["alice"]);
            }
        }));
    }

    // Let the traffic warm up so every thread has registered with the
    // sampler and the journal has batches in flight.
    std::thread::sleep(Duration::from_millis(300));

    let before = spans_table(store_addr);
    let samples_before = HttpClient::new(store_addr)
        .send(&Request::get("/debug/spans"))
        .unwrap()
        .json_body()
        .unwrap()["total_samples"]
        .as_u64()
        .unwrap();

    // The sampler is process-wide, so one profile window sees every
    // registered thread: store journal + handlers AND broker handlers.
    // Sampling is statistical; short frames can miss a single window,
    // so retry a few short windows at a high rate before declaring
    // failure. `?hz=997` retunes the sampler for the window.
    let wanted = ["journal-commit", "request-handler", "broker-search"];
    let mut folded = String::new();
    for attempt in 0..6 {
        let resp = HttpClient::new(store_addr)
            .send(
                &Request::get("/debug/profile")
                    .with_query("seconds", "1.5")
                    .with_query("hz", "997"),
            )
            .unwrap();
        assert_eq!(resp.status, Status::Ok, "attempt {attempt}");
        folded = String::from_utf8(resp.body.clone()).unwrap();
        if wanted.iter().all(|frame| folded.contains(frame)) {
            break;
        }
    }
    for frame in wanted {
        assert!(
            folded.contains(frame),
            "folded profile never attributed samples to {frame:?}:\n{folded}"
        );
    }
    // Folded lines are `kind;frame;... count` with a positive count.
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        assert!(count.parse::<u64>().unwrap() > 0, "bad count in {line:?}");
    }

    // Keep traffic flowing between the two spans reads so counts move.
    std::thread::sleep(Duration::from_millis(200));
    let after = spans_table(broker_addr); // both servers serve the same table
    let samples_after = HttpClient::new(broker_addr)
        .send(&Request::get("/debug/spans"))
        .unwrap()
        .json_body()
        .unwrap()["total_samples"]
        .as_u64()
        .unwrap();

    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        worker.join().unwrap();
    }

    // The stats table is cumulative: every span present before must
    // still be present, with monotone count and total.
    assert!(!before.is_empty(), "span table empty under traffic");
    for (name, (count, total_ms)) in &before {
        let (count2, total2) = after
            .get(name)
            .unwrap_or_else(|| panic!("span {name:?} disappeared from the table"));
        assert!(count2 >= count, "{name}: count went backwards");
        assert!(total2 >= total_ms, "{name}: total went backwards");
    }
    assert!(
        samples_after > samples_before,
        "sampler stopped taking samples ({samples_before} -> {samples_after})"
    );

    // The table must include spans from the traffic we drove: the
    // store's upload route (datastore crate) and the explicit broker
    // search frame (broker crate).
    let names: Vec<&str> = after.keys().map(String::as_str).collect();
    assert!(
        names.iter().any(|n| n.contains("/api/upload")),
        "no upload route span in {names:?}"
    );
    assert!(
        names.contains(&"broker-search"),
        "no broker-search span in {names:?}"
    );

    // Sanity: profile with a zero-length window still answers 200 with
    // (possibly empty) folded text, and bad params are 400s.
    let resp = HttpClient::new(store_addr)
        .send(&Request::get("/debug/profile").with_query("seconds", "0"))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    for (key, value) in [("seconds", "-1"), ("hz", "lots")] {
        let resp = HttpClient::new(store_addr)
            .send(&Request::get("/debug/profile").with_query(key, value))
            .unwrap();
        assert_eq!(resp.status, Status::BadRequest, "{key}={value}");
    }

    drop(deployment);
    let _ = std::fs::remove_dir_all(&dir);
}

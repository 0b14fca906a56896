//! Multi-threaded stress over the sharded datastore: contributors
//! upload while their rules mutate and consumers query, all
//! concurrently. Two invariants from the PR-2 concurrency model
//! (DESIGN.md §7) are asserted through the public API alone:
//!
//! 1. **No lost rule-epoch bumps** — every `rules/set` bumps the
//!    contributor's epoch by exactly one, even when uploads race it for
//!    the same account's write lock.
//! 2. **No torn rules/data pair** — enforcement compiles one rule set
//!    per request under the account guard, so a response must be
//!    explainable by a single rule set: with rules alternating between
//!    allow-all and deny-ecg, every segment in one response carries the
//!    same channel set, and ecg never appears without respiration.
//!
//! The broker's rule mirror gets the same treatment: searches walk the
//! mirror under its read lock while a store pushes rule syncs, and
//!
//! 3. **No torn hit list** — every search reply is the hit list of the
//!    mirror as it stood before or after some sync, never a mix, and a
//!    searcher never sees the mirror go backwards; and the syncs finish
//!    while searches keep arriving (readers do not starve the writer).
//!
//! CI runs this in a debug build so the `cfg(debug_assertions)`
//! lock-order assertions in `sensorsafe_datastore::state` are armed.

use sensorsafe_core::broker::{BrokerConfig, BrokerService};
use sensorsafe_core::datastore::{DataStoreConfig, DataStoreService};
use sensorsafe_core::net::{Request, Service, Status};
use sensorsafe_core::types::{ChannelSpec, GeoPoint, SegmentMeta, Timestamp, Timing, WaveSegment};
use sensorsafe_core::{json, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const CONTRIBUTORS: usize = 4;
const UPLOADS_PER_CONTRIBUTOR: usize = 40;
const RULE_SETS_PER_CONTRIBUTOR: usize = 40;
const DAY_START: i64 = 1_311_500_000_000;

fn packet(seq: usize) -> WaveSegment {
    let meta = SegmentMeta {
        timing: Timing::Uniform {
            start: Timestamp::from_millis(DAY_START + (seq * 64 * 20) as i64),
            interval_secs: 0.02,
        },
        location: Some(GeoPoint::ucla()),
        format: vec![ChannelSpec::i16("ecg"), ChannelSpec::f32("respiration")],
    };
    let rows: Vec<Vec<f64>> = (0..64)
        .map(|r| vec![(r as f64).sin() * 400.0, 300.0])
        .collect();
    WaveSegment::from_rows(meta, &rows).expect("valid packet")
}

fn post(server: &impl Service, path: &str, body: &Value) -> Value {
    let resp = server.handle(&Request::post_json(path, body));
    assert_eq!(resp.status, Status::Ok, "{path} failed: {:?}", resp.body);
    resp.json_body().expect("JSON response")
}

/// Channel names of every non-null window segment in a query response.
fn response_channel_sets(body: &Value) -> Vec<BTreeSet<String>> {
    body["windows"]
        .as_array()
        .expect("windows array")
        .iter()
        .filter(|w| !matches!(w.get("segment"), None | Some(Value::Null)))
        .map(|w| {
            w["segment"]["format"]
                .as_array()
                .expect("format array")
                .iter()
                .map(|s| s["channel"].as_str().expect("channel name").to_string())
                .collect()
        })
        .collect()
}

#[test]
fn uploads_queries_and_rule_mutations_race_safely() {
    let (store, admin) = DataStoreService::new(DataStoreConfig::default());
    let admin = admin.to_hex();
    let mut contributor_keys = Vec::new();
    for i in 0..CONTRIBUTORS {
        let resp = store.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (admin.clone()), "name": (format!("c{i}")), "role": "contributor"}),
        ));
        assert_eq!(resp.status, Status::Created);
        let key = resp.json_body().unwrap()["api_key"]
            .as_str()
            .unwrap()
            .to_string();
        // Epoch 1: the initial allow-all rule set.
        let body = post(
            &store,
            "/api/rules/set",
            &json!({"key": (key.clone()), "rules": [{"Action": "Allow"}]}),
        );
        assert_eq!(body["epoch"].as_u64(), Some(1));
        post(
            &store,
            "/api/upload",
            &json!({"key": (key.clone()), "segments": [(packet(0).to_json())]}),
        );
        contributor_keys.push(key);
    }
    let resp = store.handle(&Request::post_json(
        "/api/register",
        &json!({"key": (admin.clone()), "name": "bob", "role": "consumer"}),
    ));
    assert_eq!(resp.status, Status::Created);
    let consumer_key = resp.json_body().unwrap()["api_key"]
        .as_str()
        .unwrap()
        .to_string();

    let done = Arc::new(AtomicBool::new(false));
    let queries_run = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();

    // Per contributor: an uploader thread and a rule-mutator thread
    // race for the same account's write lock.
    for key in &contributor_keys {
        let store_clone = store.clone();
        let key_clone = key.clone();
        handles.push(std::thread::spawn(move || {
            for seq in 1..=UPLOADS_PER_CONTRIBUTOR {
                post(
                    &store_clone,
                    "/api/upload",
                    &json!({"key": (key_clone.clone()), "segments": [(packet(seq).to_json())]}),
                );
            }
        }));
        let store_clone = store.clone();
        let key_clone = key.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..RULE_SETS_PER_CONTRIBUTOR {
                let rules = if round % 2 == 0 {
                    json!([{"Action": "Allow"}, {"Sensor": ["ecg"], "Action": "Deny"}])
                } else {
                    json!([{"Action": "Allow"}])
                };
                let body = post(
                    &store_clone,
                    "/api/rules/set",
                    &json!({"key": (key_clone.clone()), "rules": (rules)}),
                );
                // Each set must land exactly one epoch bump: the initial
                // set was epoch 1, this is bump round+2 for this account.
                assert_eq!(
                    body["epoch"].as_u64(),
                    Some(round as u64 + 2),
                    "lost or duplicated rule-epoch bump"
                );
            }
        }));
    }

    // Two consumer threads keep querying every contributor until the
    // writers finish, checking every response for torn enforcement.
    for t in 0..2usize {
        let store_clone = store.clone();
        let consumer = consumer_key.clone();
        let done_flag = done.clone();
        let counter = queries_run.clone();
        handles.push(std::thread::spawn(move || {
            let mut i = t;
            while !done_flag.load(Ordering::Relaxed) {
                let body = post(
                    &store_clone,
                    "/api/query",
                    &json!({"key": (consumer.clone()), "contributor": (format!("c{}", i % CONTRIBUTORS))}),
                );
                let sets = response_channel_sets(&body);
                assert!(!sets.is_empty(), "query returned no data");
                let both: BTreeSet<String> =
                    ["ecg", "respiration"].iter().map(|s| s.to_string()).collect();
                let resp_only: BTreeSet<String> =
                    std::iter::once("respiration".to_string()).collect();
                // Every segment is explained by one of the two rule
                // sets, and one response never mixes them.
                for set in &sets {
                    assert!(
                        *set == both || *set == resp_only,
                        "channel set {set:?} matches neither rule set"
                    );
                }
                assert!(
                    sets.windows(2).all(|pair| pair[0] == pair[1]),
                    "torn rules/data pair: one response mixed rule sets: {sets:?}"
                );
                counter.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
        }));
    }

    // Two scraper threads hammer the observability endpoints while the
    // writers and consumers contend: every `/metrics` scrape must be a
    // whole, parseable exposition (never a torn interleaving of two
    // encodes) with a stable content-type, and `/healthz` must stay Ok.
    let scrapes_run = Arc::new(AtomicUsize::new(0));
    for _ in 0..2usize {
        let store_clone = store.clone();
        let done_flag = done.clone();
        let counter = scrapes_run.clone();
        handles.push(std::thread::spawn(move || {
            while !done_flag.load(Ordering::Relaxed) {
                let resp = store_clone.handle(&Request::get("/metrics"));
                assert_eq!(resp.status, Status::Ok);
                assert_eq!(
                    resp.headers["content-type"],
                    "text/plain; version=0.0.4; charset=utf-8"
                );
                let body = String::from_utf8(resp.body).expect("metrics are UTF-8");
                assert!(!body.is_empty());
                for line in body.lines() {
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    let value = line.rsplit(' ').next().expect("sample line has a value");
                    assert!(
                        value.parse::<f64>().is_ok(),
                        "torn exposition line: {line:?}"
                    );
                    assert!(
                        line.starts_with("sensorsafe_"),
                        "torn exposition line: {line:?}"
                    );
                }
                let resp = store_clone.handle(&Request::get("/healthz"));
                assert_eq!(resp.status, Status::Ok);
                assert_eq!(resp.headers["content-type"], "application/json");
                let health = resp.json_body().expect("healthz is whole JSON");
                assert_eq!(health["status"].as_str(), Some("ok"));
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Writers run to completion; then consumers are released.
    let (writers, readers): (Vec<_>, Vec<_>) = {
        let mut iter = handles.into_iter();
        let writers: Vec<_> = (&mut iter).take(CONTRIBUTORS * 2).collect();
        (writers, iter.collect())
    };
    for handle in writers {
        handle.join().expect("writer thread panicked");
    }
    done.store(true, Ordering::Relaxed);
    for handle in readers {
        handle.join().expect("consumer thread panicked");
    }
    assert!(
        queries_run.load(Ordering::Relaxed) > 0,
        "consumers never overlapped the writers"
    );
    assert!(
        scrapes_run.load(Ordering::Relaxed) > 0,
        "scrapers never overlapped the writers"
    );

    // Final epochs: 1 initial set + RULE_SETS_PER_CONTRIBUTOR bumps,
    // none lost to racing uploads.
    for key in &contributor_keys {
        let body = post(&store, "/api/rules/get", &json!({"key": (key.clone())}));
        assert_eq!(
            body["epoch"].as_u64(),
            Some(1 + RULE_SETS_PER_CONTRIBUTOR as u64)
        );
    }

    // Lock-wait SLO (ROADMAP): with per-contributor sharding, p99 time
    // blocked on an account lock across this whole contended run must
    // stay under budget. The budget is generous — debug build, CI-shared
    // cores — but a coarse-lock regression (or WAL fsyncs creeping back
    // under the account lock) blows past it by orders of magnitude.
    const LOCK_WAIT_P99_BUDGET_SECS: f64 = 0.25;
    let registry = sensorsafe_core::obsv::global();
    let waits = ["read", "write"]
        .map(|mode| {
            registry
                .histogram(
                    "sensorsafe_datastore_lock_wait_seconds",
                    "Time spent waiting to acquire a contributor account lock.",
                    &[("mode", mode)],
                    None,
                )
                .snapshot()
        })
        .into_iter()
        .reduce(|a, b| a.merge(&b))
        .expect("both lock-wait modes");
    assert!(
        waits.count() > 0,
        "lock-wait histogram recorded nothing — instrumentation regressed"
    );
    let p99 = waits.p99();
    println!(
        "lock-wait p99 = {:.6}s over {} acquisitions (budget {LOCK_WAIT_P99_BUDGET_SECS}s)",
        p99,
        waits.count()
    );
    assert!(
        p99 < LOCK_WAIT_P99_BUDGET_SECS,
        "lock-wait SLO violated: p99 {p99:.6}s >= {LOCK_WAIT_P99_BUDGET_SECS}s"
    );
}

#[test]
fn searches_never_see_a_torn_mirror_and_syncs_are_not_starved() {
    const MIRRORED: usize = 64;
    const SYNCS: usize = 600;
    const SEARCHERS: usize = 3;
    let (broker, admin) = BrokerService::new(BrokerConfig::default());
    let admin = admin.to_hex();
    let resp = broker.handle(&Request::post_json(
        "/api/register",
        &json!({"key": (admin.clone()), "name": "bob", "role": "consumer"}),
    ));
    assert_eq!(resp.status, Status::Created);
    let bob = resp.json_body().unwrap()["api_key"]
        .as_str()
        .unwrap()
        .to_string();

    // Contributor `i` either shares everything or withholds ecg; bit `i`
    // of a state says which. Two lists over the whole mirror, so every
    // search answers from the per-list memo.
    let sync = |i: usize, epoch: u64, shares: bool| {
        let rules = if shares {
            json!([{"Action": "Allow"}])
        } else {
            json!([{"Action": "Allow"}, {"Sensor": ["ecg"], "Action": "Deny"}])
        };
        let resp = broker.handle(&Request::post_json(
            "/api/sync",
            &json!({
                "key": (admin.clone()),
                "contributor": (format!("c{i:02}")),
                "epoch": epoch,
                "rules": rules,
            }),
        ));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.json_body().unwrap()["accepted"].as_bool(), Some(true));
    };
    let mut state = 0u64;
    for i in 0..MIRRORED {
        sync(i, 1, i % 2 == 0);
        state |= ((i % 2 == 0) as u64) << i;
    }
    // The writer's script: sync `k` flips contributor `7k mod 64`, so
    // the mirror passes through `states[0..=SYNCS]` in order.
    let mut states = vec![state];
    for k in 0..SYNCS {
        state ^= 1 << (k * 7 % MIRRORED);
        states.push(state);
    }

    let writer_done = AtomicBool::new(false);
    let searches_beside_syncs = AtomicUsize::new(0);
    let started = std::sync::Barrier::new(SEARCHERS + 1);
    std::thread::scope(|scope| {
        let searchers: Vec<_> = (0..SEARCHERS)
            .map(|_| {
                scope.spawn(|| {
                    started.wait();
                    // Index into `states` of the oldest state the last
                    // reply could have come from.
                    let mut at_least = 0;
                    loop {
                        // Read the flag first: the search after the last
                        // sync must still be checked.
                        let last = writer_done.load(Ordering::SeqCst);
                        let body = post(
                            &broker,
                            "/api/search",
                            &json!({"key": (bob.clone()), "query": {"channels": ["ecg"]}}),
                        );
                        assert!(body["unreachable"].as_array().unwrap().is_empty());
                        let names = body["contributors"].as_string_list().unwrap();
                        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
                        let seen = names.iter().fold(0u64, |mask, name| {
                            mask | 1 << name[1..].parse::<usize>().expect("c<index>")
                        });
                        at_least += states[at_least..]
                            .iter()
                            .position(|state| *state == seen)
                            .unwrap_or_else(|| {
                                panic!(
                                    "torn or stale hit list {seen:#018x}: no mirror state at \
                                     or after #{at_least} has these hits"
                                )
                            });
                        if last {
                            assert_eq!(seen, states[SYNCS], "the last sync is visible");
                            return;
                        }
                        searches_beside_syncs.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        started.wait();
        for k in 0..SYNCS {
            let i = k * 7 % MIRRORED;
            sync(i, 2 + k as u64, states[k + 1] >> i & 1 == 1);
        }
        writer_done.store(true, Ordering::SeqCst);
        for searcher in searchers {
            searcher.join().expect("searcher thread panicked");
        }
    });
    assert!(
        searches_beside_syncs.load(Ordering::Relaxed) > 0,
        "no search overlapped the syncs"
    );
}

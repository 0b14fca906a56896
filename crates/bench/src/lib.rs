//! Shared workload builders for the SensorSafe benchmark harness.
//!
//! Each bench target regenerates one paper artifact (see DESIGN.md §4
//! and EXPERIMENTS.md); this crate holds the workload constructors they
//! share so benches and the `report` binary measure identical inputs.

use sensorsafe_core::datastore::{DataStoreConfig, DataStoreService};
use sensorsafe_core::net::{Request, Service, Status};
use sensorsafe_core::policy::{
    AbstractionSpec, Action, BinaryAbs, Conditions, ConsumerSelector, LocationCondition,
    PrivacyRule, RuleIndex, SearchQuery, TimeCondition,
};
use sensorsafe_core::sim::Scenario;
use sensorsafe_core::store::{MergePolicy, SegmentStore, TupleStore};
use sensorsafe_core::types::{
    ChannelSpec, ContextKind, GeoPoint, Region, RepeatTime, SegmentMeta, Timestamp, Timing,
    WaveSegment,
};
use sensorsafe_core::{json, Value};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Day-start timestamp used across all workloads.
pub const DAY_START: i64 = 1_311_500_000_000;

/// Builds `n_packets` consecutive Zephyr-style 64-sample chest packets
/// (ECG i16 + respiration f32 at 50 Hz).
pub fn chest_packets(n_packets: usize) -> Vec<WaveSegment> {
    let hz = 50.0;
    (0..n_packets)
        .map(|p| {
            let start = DAY_START + (p * 64 * 20) as i64;
            let meta = SegmentMeta {
                timing: Timing::Uniform {
                    start: Timestamp::from_millis(start),
                    interval_secs: 1.0 / hz,
                },
                location: Some(GeoPoint::ucla()),
                format: vec![ChannelSpec::i16("ecg"), ChannelSpec::f32("respiration")],
            };
            let rows: Vec<Vec<f64>> = (0..64)
                .map(|i| {
                    let t = (p * 64 + i) as f64;
                    vec![(t * 1.3).sin() * 400.0, 300.0 + (t / 25.0).sin() * 40.0]
                })
                .collect();
            WaveSegment::from_rows(meta, &rows).expect("valid packet")
        })
        .collect()
}

/// Loads packets into a segment store with the given merge policy.
pub fn segment_store_with(packets: &[WaveSegment], merge: MergePolicy) -> SegmentStore {
    let mut store = SegmentStore::in_memory(merge);
    for p in packets {
        store.insert_segment(p.clone()).expect("in-memory insert");
    }
    store
}

/// Loads the same packets into the per-tuple baseline.
pub fn tuple_store_with(packets: &[WaveSegment]) -> TupleStore {
    let mut store = TupleStore::new();
    for p in packets {
        store.insert_segment(p);
    }
    store
}

/// A rule set with one rule per Table 1 condition type, for T1.
pub fn table1_rule_set() -> Vec<PrivacyRule> {
    vec![
        PrivacyRule::allow_all(),
        PrivacyRule {
            conditions: Conditions {
                consumers: vec![ConsumerSelector::User("bob".into())],
                ..Default::default()
            },
            action: Action::Allow,
        },
        PrivacyRule {
            conditions: Conditions {
                location: Some(LocationCondition {
                    labels: vec!["UCLA".into()],
                    regions: vec![Region::around(GeoPoint::ucla(), 0.01)],
                }),
                ..Default::default()
            },
            action: Action::Deny,
        },
        PrivacyRule {
            conditions: Conditions {
                time: Some(TimeCondition {
                    ranges: vec![],
                    repeats: vec![RepeatTime::weekdays_nine_to_six()],
                }),
                ..Default::default()
            },
            action: Action::Deny,
        },
        PrivacyRule {
            conditions: Conditions {
                sensors: vec!["ecg".into()],
                contexts: vec![ContextKind::Drive],
                ..Default::default()
            },
            action: Action::Deny,
        },
        PrivacyRule {
            conditions: Conditions {
                contexts: vec![ContextKind::Conversation],
                ..Default::default()
            },
            action: Action::Abstraction(AbstractionSpec {
                stress: Some(BinaryAbs::NotShared),
                ..Default::default()
            }),
        },
    ]
}

/// Synthetic per-contributor rule sets for the A2 search bench,
/// deterministic in `i`. Contributors fall into four equal classes:
/// driving-deniers, at-work-deniers, smoking-abstractors, and
/// unrestricted sharers; `rules_per_contributor` pads the set with
/// consumer-scoped allow rules so rule-count scaling can be measured
/// without changing the class mix.
pub fn synthetic_rules(i: usize, rules_per_contributor: usize) -> Vec<PrivacyRule> {
    let mut rules = vec![PrivacyRule::allow_all()];
    let restriction = match i % 4 {
        0 => Some(PrivacyRule {
            conditions: Conditions {
                contexts: vec![ContextKind::Drive],
                sensors: vec!["ecg".into(), "respiration".into()],
                ..Default::default()
            },
            action: Action::Deny,
        }),
        1 => Some(PrivacyRule {
            conditions: Conditions {
                location: Some(LocationCondition {
                    labels: vec!["work".into()],
                    regions: vec![],
                }),
                ..Default::default()
            },
            action: Action::Deny,
        }),
        2 => Some(PrivacyRule {
            conditions: Conditions::default(),
            action: Action::Abstraction(AbstractionSpec {
                smoking: Some(BinaryAbs::Label),
                ..Default::default()
            }),
        }),
        _ => None, // unrestricted sharer
    };
    rules.extend(restriction);
    while rules.len() < rules_per_contributor {
        rules.push(PrivacyRule {
            conditions: Conditions {
                consumers: vec![ConsumerSelector::User(
                    format!("colleague-{}", rules.len()).as_str().into(),
                )],
                ..Default::default()
            },
            action: Action::Allow,
        });
    }
    rules.truncate(rules_per_contributor.max(1));
    rules
}

/// [`synthetic_rules`] made unlike anyone else's: contributor `i`'s class
/// list plus one consumer-scoped allow rule nobody shares, so a mirror of
/// these has as many distinct rule lists as contributors — the end of
/// the range where the search's per-list memo saves nothing. The extra
/// rule names a consumer no query uses; the hits are the class's.
pub fn synthetic_rules_unshared(i: usize, rules_per_contributor: usize) -> Vec<PrivacyRule> {
    let mut rules = synthetic_rules(i, rules_per_contributor);
    rules.push(PrivacyRule {
        conditions: Conditions {
            consumers: vec![ConsumerSelector::User(
                format!("confidant-of-{i}").as_str().into(),
            )],
            ..Default::default()
        },
        action: Action::Allow,
    });
    rules
}

/// What the broker's `/api/search` handler does with a search: the
/// visitor appends every run of consecutive hits, already rendered, to a
/// reply body. Returns the array's items (A2's `walk_and_render`).
pub fn walk_and_render(index: &RuleIndex, query: &SearchQuery) -> Vec<u8> {
    let mut body = Vec::new();
    index.search_each(query, |run| {
        if !body.is_empty() {
            body.push(b',');
        }
        body.extend_from_slice(run.json().as_bytes());
    });
    body
}

/// The canonical Alice day used by device benches.
pub fn alice_scenario(seed: u64) -> Scenario {
    Scenario::alice_day(Timestamp::from_millis(DAY_START), seed, 1)
}

/// Round `round` of contributor `i`'s packet stream: each round starts
/// exactly where the previous one ended, so consecutive uploads merge —
/// the shape of a real continuous 1 Hz sensor feed. Contributors are
/// strided a day apart so streams never overlap.
fn future_packet_at(i: usize, round: usize) -> WaveSegment {
    let start = DAY_START + 86_400_000 + (i as i64) * 86_400_000 + (round * 64 * 20) as i64;
    let meta = SegmentMeta {
        timing: Timing::Uniform {
            start: Timestamp::from_millis(start),
            interval_secs: 1.0 / 50.0,
        },
        location: Some(GeoPoint::ucla()),
        format: vec![ChannelSpec::i16("ecg"), ChannelSpec::f32("respiration")],
    };
    let rows: Vec<Vec<f64>> = (0..64)
        .map(|r| vec![(r as f64 * 1.3).sin() * 400.0, 300.0])
        .collect();
    WaveSegment::from_rows(meta, &rows).expect("valid packet")
}

/// One single-packet `POST /api/upload` as the contributor holding `key`.
fn upload_request(key: &str, packet: &WaveSegment) -> Request {
    Request::post_json(
        "/api/upload",
        &json!({"key": key, "segments": (Value::Array(vec![packet.to_json()]))}),
    )
}

/// A data store in durable mode: the journal lives in a fresh temp
/// directory (removed on drop), contributor accounts are registered, and
/// every upload is acked only after a durable commit.
pub struct DurableWorkload {
    /// The in-process durable store all traffic targets.
    pub store: DataStoreService,
    /// `(name, api_key)` per contributor.
    pub contributors: Vec<(String, String)>,
    /// The store's admin (`Role::Server`) key in hex — lets a bench
    /// drive operator paths like `/repl/reset` re-enrollment wipes.
    pub admin_key: String,
    config: DataStoreConfig,
    dir: std::path::PathBuf,
}

impl Drop for DurableWorkload {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl DurableWorkload {
    /// Shuts the running service down and reopens a fresh one over the
    /// same on-disk state, returning how long the reopen took. That
    /// covers the full journal replay
    /// (checkpoint load + tail-segment scan), so this is the C4
    /// recovery-time probe: with rotation + checkpoints, the duration
    /// must stay flat as upload history grows.
    pub fn restart(&mut self) -> Duration {
        // Swap in a throwaway in-memory service so the durable one drops
        // (joining its journal threads and releasing the directory)
        // before the reopen is timed.
        let (placeholder, _key) = DataStoreService::new(Default::default());
        drop(std::mem::replace(&mut self.store, placeholder));
        let started = Instant::now();
        let (store, _admin) = DataStoreService::new(self.config.clone());
        let elapsed = started.elapsed();
        self.store = store;
        elapsed
    }
}

/// Builds a durable workload from an explicit [`DataStoreConfig`]
/// (group-commit and journal rotation settings) — the C4
/// builder. The config's `data_dir` is overwritten with a fresh temp
/// directory that the workload removes on drop.
pub fn durable_workload_with(
    mut config: DataStoreConfig,
    n_contributors: usize,
) -> DurableWorkload {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sensorsafe-durable-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    config.data_dir = Some(dir.clone());
    let (store, admin) = DataStoreService::new(config.clone());
    let admin = admin.to_hex();
    let mut contributors = Vec::with_capacity(n_contributors);
    for i in 0..n_contributors {
        let name = format!("c{i}");
        let resp = store.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (admin.clone()), "name": (name.clone()), "role": "contributor"}),
        ));
        assert_eq!(resp.status, Status::Created, "contributor registration");
        let key = resp.json_body().unwrap()["api_key"]
            .as_str()
            .unwrap()
            .to_string();
        contributors.push((name, key));
    }
    DurableWorkload {
        store,
        contributors,
        admin_key: admin,
        config,
        dir,
    }
}

/// Drives the C4 many-accounts/low-rate shape: every contributor uploads
/// exactly one packet per round (`rounds * n_contributors` uploads
/// total), with the contributor space sharded over `threads` workers.
/// Each contributor's rounds form one contiguous packet stream (they
/// merge, like a real 1 Hz feed). No account ever sees two concurrent
/// uploads here, so only a store-wide commit path can batch the fsyncs.
/// `start_round` continues a stream a previous call left off at. Bodies
/// are pre-rendered; the duration covers only the traffic.
pub fn run_many_account_uploads(
    workload: &DurableWorkload,
    threads: usize,
    start_round: usize,
    rounds: usize,
) -> Duration {
    let n = workload.contributors.len();
    assert!(n > 0 && threads > 0);
    let render_round = |round: usize| -> Vec<Request> {
        workload
            .contributors
            .iter()
            .enumerate()
            .map(|(i, (_, key))| upload_request(key, &future_packet_at(i, round)))
            .collect()
    };
    let upload_reqs: Arc<Vec<Vec<Request>>> = Arc::new(
        (start_round..start_round + rounds)
            .map(render_round)
            .collect(),
    );
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let store = workload.store.clone();
            let uploads = upload_reqs.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for round in uploads.iter() {
                    for i in (t..round.len()).step_by(threads) {
                        let resp = store.handle(&round[i]);
                        assert_eq!(resp.status, Status::Ok, "many-account upload failed");
                    }
                }
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    for handle in handles {
        handle.join().expect("upload thread panicked");
    }
    started.elapsed()
}

/// Resident set size (`VmRSS`) of this process in KiB, read from
/// `/proc/self/status`. Returns 0 where procfs is unavailable, so C3
/// memory columns degrade to zeros instead of failing the run.
pub fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmRSS:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// One keep-alive connection held open by the C3 soak (stream for
/// writes, buffered clone for reads).
pub struct SoakConn {
    stream: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

/// Opens `n` keep-alive connections to `addr`, then proves every one
/// live with a [`soak_round`]. Transient connect failures (listen
/// backlog overflow while thousands of peers arrive) are retried
/// briefly before giving up.
pub fn open_soak_conns(addr: &str, n: usize) -> std::io::Result<Vec<SoakConn>> {
    let mut conns = Vec::with_capacity(n);
    for _ in 0..n {
        let mut attempts = 0;
        let stream = loop {
            match std::net::TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(_) if attempts < 50 => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        };
        // Request heads go out as a few small writes; without nodelay,
        // Nagle + delayed ACK turns every round trip into ~40 ms.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = std::io::BufReader::new(stream.try_clone()?);
        conns.push(SoakConn { stream, reader });
    }
    soak_round(&mut conns)?;
    Ok(conns)
}

/// Sends `GET /healthz` on every connection and reads every response —
/// one full round over the whole set, erroring if any connection has
/// gone dead or answers non-200.
pub fn soak_round(conns: &mut [SoakConn]) -> std::io::Result<()> {
    use sensorsafe_core::net::http::{read_response, write_request};
    let ping = Request::get("/healthz");
    for conn in conns.iter_mut() {
        write_request(&mut conn.stream, &ping)?;
        let resp = read_response(&mut conn.reader)?;
        if resp.status != Status::Ok {
            return Err(std::io::Error::other(format!(
                "soak round got {:?}",
                resp.status
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chest_packets_are_mergeable() {
        let packets = chest_packets(10);
        assert_eq!(packets.len(), 10);
        assert!(packets[0].can_merge(&packets[1]));
        let store = segment_store_with(&packets, MergePolicy::default());
        assert_eq!(store.stats().segments, 1);
        let tuples = tuple_store_with(&packets);
        assert_eq!(tuples.len(), 640);
    }

    #[test]
    fn workload_rule_sets_parse() {
        assert_eq!(table1_rule_set().len(), 6);
        assert_eq!(synthetic_rules(0, 4).len(), 4);
        assert_eq!(synthetic_rules(5, 1).len(), 1);
    }

    #[test]
    fn durable_uploads_coalesce_fsyncs() {
        // 4 threads hammering one contributor must ack every upload with
        // fewer fsyncs than uploads (group commit), and the data must be
        // on disk. `run_many_account_uploads` never puts two uploads of
        // one account in flight, so this shape is driven here.
        // Counted on this store's own journal (one fsync per batch):
        // `sensorsafe_store_wal_fsyncs_total` is process-wide, and the
        // tests beside this one fsync too.
        let workload = durable_workload_with(Default::default(), 1);
        let (_, key) = &workload.contributors[0];
        let (threads, ops_per_thread) = (4, 8);
        let before = journal_batches(&workload);
        let barrier = Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let upload = upload_request(key, &future_packet_at(t, 0));
                let (store, barrier) = (&workload.store, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..ops_per_thread {
                        let resp = store.handle(&upload);
                        assert_eq!(resp.status, Status::Ok, "durable upload failed");
                    }
                });
            }
        });
        let spent = journal_batches(&workload) - before;
        assert!(spent > 0, "durable uploads must fsync");
        assert!(spent < 32, "no coalescing: {spent} fsyncs for 32 uploads");
    }

    fn journal_batches(workload: &DurableWorkload) -> u64 {
        workload
            .store
            .journal_stats()
            .expect("a durable store has a journal")
            .batches
    }

    #[test]
    fn c4_group_commit_coalesces_across_accounts() {
        // The C4 acceptance shape at reduced scale: many accounts, each
        // uploading at most once at a time. The store-wide journal
        // batches strangers' uploads into shared fsyncs (a log per
        // account would pay one fsync per upload on this shape). A
        // restart replays the journal and must come back up.
        let contributors = 48;
        let (threads, rounds) = (8, 2);
        let total = (contributors * rounds) as u64;

        let mut journal_workload = durable_workload_with(Default::default(), contributors);
        let before = journal_batches(&journal_workload);
        run_many_account_uploads(&journal_workload, threads, 0, rounds);
        let journal_spent = journal_batches(&journal_workload) - before;
        assert!(journal_spent > 0, "durable uploads must fsync");
        assert!(
            journal_spent * 2 < total,
            "store-wide group commit should batch across accounts: \
             {journal_spent} fsyncs for {total} uploads"
        );

        let replay = journal_workload.restart();
        assert!(replay > Duration::ZERO, "restart must replay the journal");
    }

    #[test]
    fn soak_helpers_round_trip_against_an_evented_store() {
        use sensorsafe_core::net::{EventedConfig, Server};
        let (store, _admin) = DataStoreService::new(Default::default());
        let config = EventedConfig {
            loops: 1,
            handler_threads: 2,
            ..EventedConfig::default()
        };
        let server = Server::bind_evented("127.0.0.1:0", config, Arc::new(store)).unwrap();
        let mut conns = open_soak_conns(&server.addr_string(), 8).unwrap();
        soak_round(&mut conns).unwrap();
        assert!(rss_kb() > 0, "VmRSS should be readable on this platform");
    }
}

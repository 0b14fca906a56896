//! Topology set-up and seeded op cycles for the four workloads.
//!
//! Everything here is *set-up*: it runs before the first measured op and
//! its wall time is `setup_s`. Servers are stood up through the public
//! `Deployment` API on loopback TCP; the load generator only ever holds
//! rendered request bytes, so no workload identity reaches server code.

use crate::calib::Pacer;
use crate::client::{render, Conn};
use crate::spec::{WorkloadSpec, CONSUMER, CONSUMER_GROUP, GROUP_CONSUMER};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorsafe_bench::{synthetic_rules, DAY_START};
use sensorsafe_core::datastore::{annotation_to_json, DataStoreConfig, DataStoreService};
use sensorsafe_core::net::{Request, Response, Server, Status};
use sensorsafe_core::policy::{
    AbstractionSpec, Action, ActivityAbs, BinaryAbs, Conditions, ConsumerCtx, ConsumerSelector,
    LocationAbs, PrivacyRule, SearchQuery, TimeAbs,
};
use sensorsafe_core::sim::{Place, Scenario};
use sensorsafe_core::store::Query;
use sensorsafe_core::types::{
    ChannelId, ChannelSpec, ConsumerId, ContextKind, GeoPoint, GroupId, RepeatTime, SegmentMeta,
    TimeRange, Timestamp, Timing, WaveSegment,
};
use sensorsafe_core::{json, ConsumerApp, Deployment, Value};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Samples per uploaded packet and the stream time one packet covers.
pub const PACKET_SAMPLES: usize = 64;
const PACKET_MS: i64 = (PACKET_SAMPLES as i64) * 20;
const DAY_MS: i64 = 86_400_000;

/// `alice_day` stretch for the query preload: a 20-minute day, 60 000
/// chest samples per contributor.
const DAY_SCALE: u32 = 2;
/// Contributors per workload (README, "Workloads").
const INGEST_CONTRIBUTORS: usize = 512;
const QUERY_CONTRIBUTORS: usize = 16;
pub const MIRROR_CONTRIBUTORS: usize = 10_000;
/// Packets per preload upload (about two minutes of chest data).
const PRELOAD_BATCH: usize = 100;
/// Queries in the seeded consumer cycle.
const QUERY_CYCLE: usize = 256;
/// In `mixed_rw`, every this-many-th reader op re-posts a rule set.
const RULES_SET_EVERY: usize = 64;
/// How often the primary's shipper pushes sealed batches to the replica.
const SHIP_INTERVAL: Duration = Duration::from_millis(100);

/// What a request does; latency is reported per class, never pooled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Upload,
    Query,
    Search,
    Sync,
    RulesSet,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Upload,
        Class::Query,
        Class::Search,
        Class::Sync,
        Class::RulesSet,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Class::Upload => "upload",
            Class::Query => "query",
            Class::Search => "search",
            Class::Sync => "sync",
            Class::RulesSet => "rules_set",
        }
    }
}

/// A fixed-width field of a rendered request that changes per send.
/// Widths never change, so `content-length` stays valid.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// 13-digit `start_time`: packet `k` abuts packet `k-1`.
    StartTime { at: usize, base: i64 },
    /// 16 hex digits, fresh on every send (`upload_token`).
    Token { at: usize },
    /// 5-digit contributor index walking `first, first+stride, ...`.
    SyncName {
        at: usize,
        first: usize,
        stride: usize,
        count: usize,
    },
    /// 10-digit rule epoch, rising with every send.
    Epoch { at: usize, base: u64 },
}

/// One request of a client's cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub class: Class,
    /// The rendered HTTP request.
    pub wire: Vec<u8>,
    pub fields: Vec<Field>,
    /// Times this op has been sent; drives the fields.
    pub sends: u64,
    /// Response body length seen in warm-up; steady-state replies of
    /// read ops must match it (a short body is a failure).
    pub expect_len: Option<usize>,
    /// Index into [`Checks`] for replies verified off the clock.
    pub check: Option<usize>,
}

impl Op {
    fn fixed(class: Class, request: &Request) -> Op {
        Op {
            class,
            wire: render(request),
            fields: Vec::new(),
            sends: 0,
            expect_len: None,
            check: None,
        }
    }

    /// Rewrites the per-send fields for the next send.
    pub fn prepare(&mut self, client: usize, seq: u64) {
        let round = self.sends;
        for field in &self.fields {
            match *field {
                Field::StartTime { at, base } => {
                    let text = format!("{:013}", base + round as i64 * PACKET_MS);
                    self.wire[at..at + 13].copy_from_slice(text.as_bytes());
                }
                Field::Token { at } => {
                    let text = format!("{:016x}", ((client as u64 + 1) << 48) | seq);
                    self.wire[at..at + 16].copy_from_slice(text.as_bytes());
                }
                Field::SyncName {
                    at,
                    first,
                    stride,
                    count,
                } => {
                    let idx = (first + round as usize * stride) % count;
                    let text = format!("{idx:05}");
                    self.wire[at..at + 5].copy_from_slice(text.as_bytes());
                }
                Field::Epoch { at, base } => {
                    let text = format!("{:010}", base + round);
                    self.wire[at..at + 10].copy_from_slice(text.as_bytes());
                }
            }
        }
        self.sends += 1;
    }
}

/// Byte offset of the single occurrence of `needle` in `wire`.
fn locate(wire: &[u8], needle: &str) -> usize {
    let needle = needle.as_bytes();
    let mut hits = wire
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle)
        .map(|(i, _)| i);
    let at = hits.next().expect("sentinel missing from rendered request");
    assert!(hits.next().is_none(), "sentinel occurs twice");
    at
}

/// One load-generator connection and its op cycle.
pub struct ClientPlan {
    pub ops: Vec<Op>,
    pub conn: Conn,
    /// Requests sent on this connection (token uniqueness).
    pub seq: u64,
    /// Position in the cycle.
    pub cursor: usize,
}

/// A query the reader cycle issues, kept for off-the-clock verification.
pub struct QueryCheck {
    pub contributor: String,
    pub query: Query,
    /// Rule class of the contributor (0 allow, 1 ladder, 2 deny+closure,
    /// 3 no matching rule).
    pub rule_class: usize,
}

/// A search the broker cycle issues.
pub struct SearchCheck {
    pub query: SearchQuery,
}

/// Inputs of the correctness checks.
#[derive(Default)]
pub struct Checks {
    pub queries: Vec<QueryCheck>,
    pub searches: Vec<SearchCheck>,
    /// The preloaded scenarios, by contributor name.
    pub scenarios: Vec<(String, Scenario)>,
    /// Samples acked during set-up (preload + warm-up) per store.
    pub preload_samples: u64,
    /// Contributor names on the durable primary with their API keys.
    pub contributors: Vec<(String, String)>,
}

/// A running system under test plus the generator's plans.
pub struct Topology {
    pub dir: PathBuf,
    pub broker_addr: String,
    pub primary: Option<StoreHandle>,
    pub replica: Option<StoreHandle>,
    pub clients: Vec<ClientPlan>,
    pub checks: Checks,
    /// Addresses of every server, for `/metrics` scrapes.
    pub scrape_addrs: Vec<String>,
    // Drop order matters: servers stop accepting before the deployment
    // joins its shipper threads and the stores close their journals.
    pub servers: Vec<Server>,
    pub deployment: Deployment,
}

/// A store the harness may inspect in-process (correctness, reopen).
pub struct StoreHandle {
    pub addr: String,
    pub service: DataStoreService,
    pub config: DataStoreConfig,
}

fn free_addr() -> String {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    format!(
        "127.0.0.1:{}",
        probe.local_addr().expect("local addr").port()
    )
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ok(resp: std::io::Result<Response>, what: &str) -> Response {
    let resp = resp.unwrap_or_else(|e| panic!("{what}: transport error: {e}"));
    assert!(
        resp.status.is_success(),
        "{what}: status {}: {}",
        resp.status.code(),
        String::from_utf8_lossy(&resp.body)
    );
    resp
}

fn durable_config(dir: &Path) -> DataStoreConfig {
    std::fs::create_dir_all(dir).expect("data dir");
    // Default flush policy on purpose: GroupCommitConfig::default(),
    // JournalConfig::default(), fsync on.
    DataStoreConfig {
        data_dir: Some(dir.to_path_buf()),
        ..DataStoreConfig::default()
    }
}

/// Builds the topology for `spec`, registers actors, preloads/mirrors,
/// and runs the fixed warm-up of two full op cycles per client. The
/// returned pacer holds the calibration ops that were interleaved with
/// the set-up's own requests.
pub fn setup(spec: &'static WorkloadSpec, seed: u64, dir: &Path) -> (Topology, Pacer) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("run dir");
    let mut pacer = Pacer::new(dir, 0);
    let pacer_ref = &mut pacer;
    let broker_addr = free_addr();
    let mut deployment = Deployment::over_tcp(&broker_addr);
    let mut servers = vec![deployment
        .serve_broker(&broker_addr, workers())
        .expect("bind broker")];
    let mut topo = match spec.name {
        "ingest_1hz" => {
            let (primary, replica) = add_stores(&mut deployment, &mut servers, dir, true);
            let mut topo = Topology::new(dir, broker_addr, deployment, servers);
            topo.replica = replica;
            ingest_plans(&mut topo, primary, seed, pacer_ref);
            topo
        }
        "query_day" | "mixed_rw" => {
            let (primary, _) = add_stores(&mut deployment, &mut servers, dir, false);
            let mut topo = Topology::new(dir, broker_addr, deployment, servers);
            day_plans(&mut topo, primary, seed, spec.name == "mixed_rw", pacer_ref);
            topo
        }
        "search_mirror" => {
            let mut topo = Topology::new(dir, broker_addr, deployment, servers);
            mirror_plans(&mut topo, seed, pacer_ref);
            topo
        }
        other => panic!("unknown workload '{other}'"),
    };
    topo.scrape_addrs = std::iter::once(topo.broker_addr.clone())
        .chain(topo.primary.iter().map(|s| s.addr.clone()))
        .chain(topo.replica.iter().map(|s| s.addr.clone()))
        .collect();
    warm_up(&mut topo, &mut pacer);
    (topo, pacer)
}

fn add_stores(
    deployment: &mut Deployment,
    servers: &mut Vec<Server>,
    dir: &Path,
    with_replica: bool,
) -> (StoreHandle, Option<StoreHandle>) {
    let mut add = |name: &str| {
        let addr = free_addr();
        let config = durable_config(&dir.join(name));
        let service = deployment.add_store_with(&addr, config.clone());
        servers.push(
            deployment
                .serve_store(&addr, workers())
                .expect("bind store"),
        );
        StoreHandle {
            addr,
            service,
            config,
        }
    };
    let primary = add("primary");
    let replica = with_replica.then(|| add("replica"));
    if let Some(replica) = &replica {
        // Pair before registering: keys are only mirrored at mint time.
        deployment
            .pair_replica(&primary.addr, &replica.addr, SHIP_INTERVAL)
            .expect("pair replica");
    }
    (primary, replica)
}

impl Topology {
    fn new(
        dir: &Path,
        broker_addr: String,
        deployment: Deployment,
        servers: Vec<Server>,
    ) -> Topology {
        Topology {
            dir: dir.to_path_buf(),
            broker_addr,
            primary: None,
            replica: None,
            clients: Vec::new(),
            checks: Checks::default(),
            scrape_addrs: Vec::new(),
            servers,
            deployment,
        }
    }

    fn client(&mut self, addr: &str, ops: Vec<Op>) {
        assert!(!ops.is_empty() && ops.len() <= 256, "cycle of 1..=256 ops");
        self.clients.push(ClientPlan {
            ops,
            conn: Conn::connect(addr).expect("client connect"),
            seq: 0,
            cursor: 0,
        });
    }

    /// Stops the servers and closes every store, leaving the data
    /// directories on disk; returns them for the reopen check.
    pub fn shut_down(self) -> (PathBuf, Option<DataStoreConfig>, Checks) {
        let Topology {
            dir,
            primary,
            replica,
            clients,
            checks,
            servers,
            deployment,
            ..
        } = self;
        drop(clients);
        drop(servers);
        drop(deployment);
        let config = primary.map(|p| p.config);
        drop(replica);
        (dir, config, checks)
    }
}

/// A 64-sample chest packet (ECG i16 + respiration f32 at 50 Hz) with
/// seeded values. Respiration is quantised to 1/8 so its JSON form has
/// a stable length across seeds.
fn chest_packet(rng: &mut StdRng, start: i64) -> WaveSegment {
    let meta = SegmentMeta {
        timing: Timing::Uniform {
            start: Timestamp::from_millis(start),
            interval_secs: 1.0 / 50.0,
        },
        location: Some(GeoPoint::ucla()),
        format: vec![ChannelSpec::i16("ecg"), ChannelSpec::f32("respiration")],
    };
    let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let rows: Vec<Vec<f64>> = (0..PACKET_SAMPLES)
        .map(|i| {
            let t = i as f64;
            let noise: f64 = rng.gen_range(-20.0..20.0);
            let ecg = ((t * 1.3 + phase).sin() * 400.0 + noise).round();
            let resp = 300.0 + ((t / 25.0 + phase).sin() * 40.0 * 8.0).round() / 8.0;
            vec![ecg, resp]
        })
        .collect();
    WaveSegment::from_rows(meta, &rows).expect("valid packet")
}

/// An upload op for one contributor stream starting at `base`.
fn upload_op(rng: &mut StdRng, key: &str, base: i64) -> Op {
    const TOKEN: &str = "feedfacecafebeef";
    let packet = chest_packet(rng, base);
    let request = Request::post_json(
        "/api/upload",
        &json!({
            "key": key,
            "segments": [(packet.to_json())],
            "upload_token": TOKEN,
        }),
    );
    let mut op = Op::fixed(Class::Upload, &request);
    op.fields = vec![
        Field::StartTime {
            at: locate(&op.wire, &format!("{base:013}")),
            base,
        },
        Field::Token {
            at: locate(&op.wire, TOKEN),
        },
    ];
    op
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The two `ingest_1hz` cycles: one upload stream per contributor key,
/// seeded packet values, seeded order, split in halves.
pub fn ingest_cycles(seed: u64, keys: &[String]) -> [Vec<Op>; 2] {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops: Vec<Op> = keys
        .iter()
        .enumerate()
        // Streams are strided a day apart so they never overlap.
        .map(|(i, key)| upload_op(&mut rng, key, DAY_START + DAY_MS * (i as i64 + 1)))
        .collect();
    shuffle(&mut rng, &mut ops);
    let half = ops.split_off(keys.len() / 2);
    [ops, half]
}

/// `ingest_1hz`: 512 contributors on a replicated durable primary, two
/// clients each round-robining their half.
fn ingest_plans(topo: &mut Topology, primary: StoreHandle, seed: u64, pacer: &mut Pacer) {
    for i in 0..INGEST_CONTRIBUTORS {
        pacer.tick();
        let name = format!("c{i:05}");
        let handle = topo
            .deployment
            .register_contributor(&primary.addr, &name)
            .expect("register contributor");
        topo.checks.contributors.push((name, handle.api_key));
    }
    let keys: Vec<String> = topo
        .checks
        .contributors
        .iter()
        .map(|c| c.1.clone())
        .collect();
    for ops in ingest_cycles(seed, &keys) {
        topo.client(&primary.addr, ops);
    }
    topo.primary = Some(primary);
}

/// The four rule classes of the query workloads, by contributor index.
pub fn day_rules(class: usize) -> Vec<PrivacyRule> {
    let allow = PrivacyRule::allow_all();
    match class % 4 {
        0 => vec![allow],
        1 => vec![
            allow,
            PrivacyRule {
                conditions: Conditions::default(),
                action: Action::Abstraction(AbstractionSpec {
                    location: Some(LocationAbs::City),
                    time: Some(TimeAbs::Hour),
                    activity: Some(ActivityAbs::TransportMode),
                    ..Default::default()
                }),
            },
        ],
        2 => vec![
            allow,
            PrivacyRule {
                conditions: Conditions {
                    sensors: vec![ChannelId::new("ecg")],
                    contexts: vec![ContextKind::Drive],
                    ..Default::default()
                },
                action: Action::Deny,
            },
            // Withholding stress during conversations suppresses its
            // source channels (ECG, respiration) by dependency closure.
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
        ],
        // A rule for somebody else: nothing matches the consumer, so
        // deny-by-default answers.
        _ => vec![PrivacyRule {
            conditions: Conditions {
                consumers: vec![ConsumerSelector::User(ConsumerId::new("carol"))],
                ..Default::default()
            },
            action: Action::Allow,
        }],
    }
}

fn day_scenario(seed: u64, i: usize) -> Scenario {
    Scenario::alice_day(
        Timestamp::from_millis(DAY_START),
        seed + i as u64,
        DAY_SCALE,
    )
}

/// One contributor of the query workloads as the generator sees them.
pub struct DayAccount {
    pub name: String,
    /// The contributor's own key (writer uploads, `/api/rules/set`).
    pub owner_key: String,
    /// The consumer's escrowed key for this contributor.
    pub consumer_key: String,
}

/// The reader cycle (256 seeded queries; with `mixed`, every 64th op a
/// `/api/rules/set`), the checks behind it, and with `mixed` the
/// writer cycle.
///
/// The multiset of (rule class, window length, channel filter) is the
/// same for every seed and window starts are stratified over the day,
/// so the mean cost of a cycle does not depend on the seed; the seed
/// picks the data, the jitter inside each stratum, the pairing and the
/// order.
pub fn day_cycles(
    seed: u64,
    accounts: &[DayAccount],
    mixed: bool,
) -> (Vec<Op>, Vec<QueryCheck>, Option<Vec<Op>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let day_ms = day_scenario(seed, 0).duration_secs() as i64 * 1000;
    let per = QUERY_CYCLE / accounts.len();
    let step = (day_ms - 80_000) / per as i64;
    let mut ops = Vec::with_capacity(QUERY_CYCLE);
    let mut checks = Vec::with_capacity(QUERY_CYCLE);
    for (i, account) in accounts.iter().enumerate() {
        // (window length, ECG+respiration only?) pairs: 40-77.5 s, every
        // fourth one filtered.
        let mut shapes: Vec<(i64, bool)> = (0..per)
            .map(|k| (40_000 + k as i64 * 40_000 / per as i64, k % 4 == 0))
            .collect();
        shuffle(&mut rng, &mut shapes);
        for (k, (len, filtered)) in shapes.into_iter().enumerate() {
            let start = DAY_START + k as i64 * step + rng.gen_range(0..step);
            let mut query = Query::all().in_time(TimeRange::new(
                Timestamp::from_millis(start),
                Timestamp::from_millis(start + len),
            ));
            if filtered {
                query = query.with_channels([ChannelId::new("ecg"), ChannelId::new("respiration")]);
            }
            let mut op = Op::fixed(
                Class::Query,
                &Request::post_json(
                    "/api/query",
                    &json!({
                        "key": (account.consumer_key.clone()),
                        "contributor": (account.name.clone()),
                        "query": (query.to_json()),
                    }),
                ),
            );
            op.check = Some(checks.len());
            checks.push(QueryCheck {
                contributor: account.name.clone(),
                query,
                rule_class: i % 4,
            });
            ops.push(op);
        }
    }
    shuffle(&mut rng, &mut ops);
    if !mixed {
        return (ops, checks, None);
    }
    // Re-posting unchanged rules still bumps the epoch: compiled-rule
    // cache rebuild plus a broker sync.
    for (slot, (i, account)) in (0..QUERY_CYCLE)
        .step_by(RULES_SET_EVERY)
        .zip(accounts.iter().enumerate())
    {
        ops[slot] = Op::fixed(
            Class::RulesSet,
            &Request::post_json("/api/rules/set", &rules_body(&account.owner_key, i)),
        );
    }
    // The writer streams packets into the same accounts, a day past the
    // preload so per-query work stays constant.
    let writer = accounts
        .iter()
        .map(|a| upload_op(&mut rng, &a.owner_key, DAY_START + DAY_MS))
        .collect();
    (ops, checks, Some(writer))
}

fn rules_body(owner_key: &str, i: usize) -> Value {
    json!({
        "key": owner_key,
        "rules": (PrivacyRule::rules_to_json(&day_rules(i))),
    })
}

/// `query_day` / `mixed_rw`: 16 contributors preloaded with a simulated
/// day under four rule classes; one consumer cycling 256 seeded
/// queries. `mixed` adds the writer connection and the periodic
/// `/api/rules/set`.
fn day_plans(topo: &mut Topology, primary: StoreHandle, seed: u64, mixed: bool, pacer: &mut Pacer) {
    let mut setup_conn = Conn::connect(&primary.addr).expect("setup connect");
    let places = json!([
        {"label": "home", "region": (region_json(Place::home().point))},
        {"label": "UCLA", "region": (region_json(Place::ucla().point))},
    ]);
    for i in 0..QUERY_CONTRIBUTORS {
        let name = format!("c{i:05}");
        let handle = topo
            .deployment
            .register_contributor(&primary.addr, &name)
            .expect("register contributor");
        let key = handle.api_key.clone();
        let scenario = day_scenario(seed, i);
        let rendered = scenario.render();
        topo.checks.preload_samples += rendered.total_samples() as u64;
        let segments: Vec<Value> = rendered
            .all_segments()
            .iter()
            .map(WaveSegment::to_json)
            .collect();
        let annotations: Vec<Value> = rendered
            .annotations
            .iter()
            .map(annotation_to_json)
            .collect();
        // Phone-sized batches: one huge request would make peak memory
        // a race between its parse and the journal's background
        // checkpoint.
        for (n, batch) in segments.chunks(PRELOAD_BATCH).enumerate() {
            pacer.tick();
            let mut body = json!({
                "key": (key.clone()),
                "segments": (Value::Array(batch.to_vec())),
            });
            if n == 0 {
                body.as_object_mut()
                    .expect("object")
                    .insert("annotations".into(), Value::Array(annotations.clone()));
            }
            ok(
                setup_conn.send(&Request::post_json("/api/upload", &body)),
                "preload upload",
            );
        }
        ok(
            setup_conn.send(&Request::post_json(
                "/api/places/set",
                &json!({"key": (key.clone()), "places": (places.clone())}),
            )),
            "places/set",
        );
        ok(
            setup_conn.send(&Request::post_json("/api/rules/set", &rules_body(&key, i))),
            "rules/set",
        );
        topo.checks.scenarios.push((name.clone(), scenario));
        topo.checks.contributors.push((name, key));
    }
    // The consumer registers at the broker, adds everyone, and the
    // broker escrows a store key per contributor.
    let consumer_key = register_consumer(topo, CONSUMER, &[]);
    let app = ConsumerApp::new(
        topo.deployment.broker_transport(),
        consumer_key,
        topo.deployment.transports(),
    );
    let names: Vec<&str> = topo
        .checks
        .contributors
        .iter()
        .map(|c| c.0.as_str())
        .collect();
    let (added, errors) = app.add_contributors(&names).expect("add contributors");
    assert!(
        added.len() == names.len() && errors.is_empty(),
        "escrow: {errors:?}"
    );
    let access = app.access_list().expect("access list");
    let accounts: Vec<DayAccount> = topo
        .checks
        .contributors
        .iter()
        .map(|(name, owner_key)| DayAccount {
            name: name.clone(),
            owner_key: owner_key.clone(),
            consumer_key: access
                .iter()
                .find(|a| &a.contributor == name)
                .expect("escrowed key")
                .api_key
                .clone(),
        })
        .collect();
    let (reader, checks, writer) = day_cycles(seed, &accounts, mixed);
    topo.checks.queries = checks;
    if let Some(writer) = writer {
        topo.client(&primary.addr, writer);
    }
    topo.client(&primary.addr, reader);
    topo.primary = Some(primary);
}

fn region_json(point: GeoPoint) -> Value {
    json!({
        "south": (point.latitude - 0.005),
        "north": (point.latitude + 0.005),
        "west": (point.longitude - 0.005),
        "east": (point.longitude + 0.005),
    })
}

/// Registers a consumer at the broker the way `Deployment` does, but
/// keeps the minted key (the generator signs its own requests).
fn register_consumer(topo: &Topology, name: &str, groups: &[&str]) -> String {
    let resp = topo
        .deployment
        .broker_transport()
        .round_trip(&Request::post_json(
            "/api/register",
            &json!({
                "key": (topo.deployment.broker_admin_key()),
                "name": name,
                "role": "consumer",
                "groups": (Value::Array(groups.iter().map(|g| Value::from(*g)).collect())),
                "studies": [],
            }),
        ))
        .expect("broker reachable");
    assert_eq!(resp.status, Status::Created, "consumer registration");
    resp.json_body().expect("json")["api_key"]
        .as_str()
        .expect("api_key")
        .to_string()
}

/// The rule set contributor `i` mirrors at `epoch` (1 or 2): the epoch-2
/// edit moves everyone to the next restriction class.
pub fn mirror_rules(i: usize, epoch: u64) -> Vec<PrivacyRule> {
    synthetic_rules(i + (epoch as usize - 1), 4)
}

pub fn mirror_name(i: usize) -> String {
    format!("m{i:05}")
}

/// The syncing store of `search_mirror` is an identity only: no store
/// is ever touched.
const MIRROR_STORE: &str = "mirror-store:0";
const SYNC_NAME: &str = "m99999";

fn sync_body(store_key: &str, name: &str, epoch: u64, rules: &[PrivacyRule]) -> Value {
    json!({
        "key": store_key,
        "contributor": name,
        "store_addr": MIRROR_STORE,
        "epoch": epoch,
        "rules": (PrivacyRule::rules_to_json(rules)),
    })
}

/// The `search_mirror` cycle — 4 blocks of (8 searches, 1 sync), one
/// block per rule class, 36 ops, so the two warm-up cycles stay a small
/// part of set-up — and the searches behind it. `consumer_keys` are the
/// broker keys of [`CONSUMER`] and [`GROUP_CONSUMER`].
pub fn mirror_cycle(
    seed: u64,
    store_key: &str,
    consumer_keys: [&str; 2],
) -> (Vec<Op>, Vec<SearchCheck>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let range_start = DAY_START + rng.gen_range(0..30i64) * DAY_MS;
    let shapes: Vec<(Value, SearchQuery)> = vec![
        // The paper's query: ECG + respiration at "work", weekdays 9-6.
        (
            json!({
                "channels": ["ecg", "respiration"],
                "location_labels": ["work"],
                "repeat": {"days": ["Mon", "Tue", "Wed", "Thu", "Fri"], "from": "09:00", "to": "18:00"},
            }),
            SearchQuery {
                raw_channels: vec![ChannelId::new("ecg"), ChannelId::new("respiration")],
                location_labels: vec!["work".into()],
                repeat: Some(RepeatTime::weekdays_nine_to_six()),
                ..Default::default()
            },
        ),
        // Driving-stress study.
        (
            json!({
                "channels": ["ecg"],
                "label_contexts": ["Stress"],
                "active_contexts": ["Drive"],
            }),
            SearchQuery {
                raw_channels: vec![ChannelId::new("ecg")],
                label_contexts: vec![ContextKind::Stress],
                active_contexts: vec![ContextKind::Drive],
                ..Default::default()
            },
        ),
        // Region + time: a labeled place over a continuous week.
        (
            json!({
                "channels": ["accel_mag"],
                "location_labels": ["home"],
                "range": {"start": range_start, "end": (range_start + 7 * DAY_MS)},
            }),
            SearchQuery {
                raw_channels: vec![ChannelId::new("accel_mag")],
                location_labels: vec!["home".into()],
                range: Some(TimeRange::new(
                    Timestamp::from_millis(range_start),
                    Timestamp::from_millis(range_start + 7 * DAY_MS),
                )),
                ..Default::default()
            },
        ),
        // Smoking labels, where consumer-scoped rules decide.
        (
            json!({
                "channels": ["respiration"],
                "label_contexts": ["Smoking"],
            }),
            SearchQuery {
                raw_channels: vec![ChannelId::new("respiration")],
                label_contexts: vec![ContextKind::Smoking],
                ..Default::default()
            },
        ),
    ];
    let contexts = [
        ConsumerCtx::user(CONSUMER),
        ConsumerCtx {
            id: Some(ConsumerId::new(GROUP_CONSUMER)),
            groups: vec![GroupId::new(CONSUMER_GROUP)],
            studies: Vec::new(),
        },
    ];
    // The eight (consumer, shape) searches fall into a cheap group (one
    // probe instant) and a dear one (three or five). Drawn equally
    // often, p50 and p75 would sit on the boundary between two cost
    // modes and flip with the slightest change; the weights put p50
    // inside the paper query's mass and p75 inside the range query's.
    const WEIGHTS: [[usize; 4]; 2] = [[8, 3, 6, 3], [3, 3, 3, 3]];
    let mut checks = Vec::new();
    let mut searches = Vec::new();
    for ((key, ctx), weights) in consumer_keys.iter().zip(&contexts).zip(WEIGHTS) {
        for ((body, query), weight) in shapes.iter().zip(weights) {
            let mut op = Op::fixed(
                Class::Search,
                &Request::post_json(
                    "/api/search",
                    &json!({"key": (*key), "query": (body.clone())}),
                ),
            );
            op.check = Some(checks.len());
            checks.push(SearchCheck {
                query: SearchQuery {
                    consumer: ctx.clone(),
                    ..query.clone()
                },
            });
            searches.extend(std::iter::repeat_n(op, weight));
        }
    }
    const BLOCKS: usize = 4;
    const EPOCH: u64 = 1_000_000_000;
    assert_eq!(searches.len(), BLOCKS * 8);
    shuffle(&mut rng, &mut searches);
    let first = rng.gen_range(0..MIRROR_CONTRIBUTORS / 4) * 4;
    let mut ops = Vec::with_capacity(BLOCKS * 9);
    for (class, block) in searches.chunks(8).enumerate() {
        ops.extend(block.iter().cloned());
        // Block `c` re-syncs the next contributor of class `c` with its
        // unchanged epoch-2 rules at a rising epoch.
        let mut op = Op::fixed(
            Class::Sync,
            &Request::post_json(
                "/api/sync",
                &sync_body(
                    store_key,
                    SYNC_NAME,
                    EPOCH + 999_999_999,
                    &mirror_rules(class, 2),
                ),
            ),
        );
        op.fields = vec![
            Field::SyncName {
                at: locate(&op.wire, SYNC_NAME) + 1,
                first: first + class,
                stride: 4,
                count: MIRROR_CONTRIBUTORS,
            },
            Field::Epoch {
                at: locate(&op.wire, &(EPOCH + 999_999_999).to_string()),
                base: EPOCH,
            },
        ];
        ops.push(op);
    }
    (ops, checks)
}

/// `search_mirror`: 10 000 contributors x 4 rules mirrored through the
/// real `/api/sync` path at epoch 1, then edited at epoch 2; the
/// measured cycle is 8 searches then 1 sync.
fn mirror_plans(topo: &mut Topology, seed: u64, pacer: &mut Pacer) {
    let broker_addr = topo.broker_addr.clone();
    let mut conn = Conn::connect(&broker_addr).expect("setup connect");
    let resp = ok(
        conn.send(&Request::post_json(
            "/api/stores/register",
            &json!({
                "key": (topo.deployment.broker_admin_key()),
                "addr": MIRROR_STORE,
                "register_key": "00",
            }),
        )),
        "store pairing",
    );
    let store_key = resp.json_body().expect("json")["store_key"]
        .as_str()
        .expect("store_key")
        .to_string();
    // Four rule classes: render each sync body once per (class, epoch)
    // and patch the name, like the measured phase does.
    for epoch in [1u64, 2] {
        let mut templates: Vec<(Vec<u8>, usize)> = (0..4)
            .map(|class| {
                let wire = render(&Request::post_json(
                    "/api/sync",
                    &sync_body(&store_key, SYNC_NAME, epoch, &mirror_rules(class, epoch)),
                ));
                let at = locate(&wire, SYNC_NAME) + 1;
                (wire, at)
            })
            .collect();
        for i in 0..MIRROR_CONTRIBUTORS {
            pacer.tick();
            let (wire, at) = &mut templates[i % 4];
            wire[*at..*at + 5].copy_from_slice(format!("{i:05}").as_bytes());
            ok(conn.round_trip(wire), "mirror sync");
        }
    }
    let plain = register_consumer(topo, CONSUMER, &[]);
    let grouped = register_consumer(topo, GROUP_CONSUMER, &[CONSUMER_GROUP]);
    let (ops, checks) = mirror_cycle(seed, &store_key, [&plain, &grouped]);
    topo.checks.searches = checks;
    topo.client(&broker_addr, ops);
}

/// The fixed warm-up: two full cycles per client, sequentially. The
/// first pass learns each read op's reply length, the second must
/// reproduce it.
fn warm_up(topo: &mut Topology, pacer: &mut Pacer) {
    let mut acked = 0u64;
    for (id, client) in topo.clients.iter_mut().enumerate() {
        for pass in 0..2 {
            for at in 0..client.ops.len() {
                pacer.tick();
                let op = &mut client.ops[at];
                op.prepare(id, client.seq);
                client.seq += 1;
                let resp = ok(client.conn.round_trip(&op.wire), "warm-up op");
                assert_eq!(resp.status, Status::Ok, "warm-up status");
                match op.class {
                    Class::Upload => acked += PACKET_SAMPLES as u64,
                    Class::Query | Class::Search if pass == 0 => {
                        op.expect_len = Some(resp.body.len())
                    }
                    Class::Query | Class::Search => {
                        assert_eq!(op.expect_len, Some(resp.body.len()), "unstable reply")
                    }
                    Class::Sync | Class::RulesSet => {}
                }
            }
        }
    }
    topo.checks.preload_samples += acked;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{i:064x}")).collect()
    }

    fn accounts() -> Vec<DayAccount> {
        keys(QUERY_CONTRIBUTORS)
            .into_iter()
            .enumerate()
            .map(|(i, key)| DayAccount {
                name: format!("c{i:05}"),
                consumer_key: key.replace('0', "a"),
                owner_key: key,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_cycle_different_seed_different_cycle() {
        let k = keys(64);
        assert_eq!(ingest_cycles(5, &k), ingest_cycles(5, &k));
        assert_ne!(ingest_cycles(5, &k), ingest_cycles(6, &k));

        let a = accounts();
        let (reader, _, writer) = day_cycles(5, &a, true);
        let (again, _, again_writer) = day_cycles(5, &a, true);
        assert!(reader == again && writer == again_writer);
        assert!(reader != day_cycles(6, &a, true).0);

        let (cycle, _) = mirror_cycle(5, &k[0], [&k[1], &k[2]]);
        assert_eq!(cycle, mirror_cycle(5, &k[0], [&k[1], &k[2]]).0);
        assert_ne!(cycle, mirror_cycle(6, &k[0], [&k[1], &k[2]]).0);
    }

    #[test]
    fn cycles_have_the_documented_shape() {
        let [a, b] = ingest_cycles(1, &keys(INGEST_CONTRIBUTORS));
        assert_eq!((a.len(), b.len()), (256, 256));
        assert!(a.iter().chain(&b).all(|op| op.class == Class::Upload));

        let (reader, checks, writer) = day_cycles(1, &accounts(), true);
        assert_eq!((reader.len(), checks.len()), (QUERY_CYCLE, QUERY_CYCLE));
        let rules_sets = reader
            .iter()
            .filter(|op| op.class == Class::RulesSet)
            .count();
        assert_eq!(rules_sets, QUERY_CYCLE / RULES_SET_EVERY);
        assert_eq!(
            writer.expect("mixed has a writer").len(),
            QUERY_CONTRIBUTORS
        );
        // The cost-bearing multiset is seed-independent: same window
        // lengths and filter count per rule class under another seed.
        let shape = |seed| {
            let mut rows: Vec<(usize, i64, bool)> = day_cycles(seed, &accounts(), false)
                .1
                .iter()
                .map(|c| {
                    let t = c.query.time.expect("time-bounded");
                    (
                        c.rule_class,
                        t.duration_millis(),
                        !c.query.channels.is_empty(),
                    )
                })
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(shape(1), shape(2));

        let k = keys(3);
        let (cycle, checks) = mirror_cycle(1, &k[0], [&k[1], &k[2]]);
        assert_eq!((cycle.len(), checks.len()), (36, 8));
        for block in cycle.chunks(9) {
            assert!(block[..8].iter().all(|op| op.class == Class::Search));
            assert_eq!(block[8].class, Class::Sync);
        }
        // Every distinct search is in the cycle; the paper query as the
        // plain consumer is a quarter of it.
        let count = |check| cycle.iter().filter(|op| op.check == Some(check)).count();
        assert!((0..8).all(|check| count(check) >= 3));
        assert_eq!(count(0), 8);
    }

    #[test]
    fn per_send_fields_keep_their_width_and_advance() {
        let [mut cycle, _] = ingest_cycles(1, &keys(4));
        let op = &mut cycle[0];
        let len = op.wire.len();
        op.prepare(0, 0);
        let first = op.wire.clone();
        op.prepare(0, 1);
        assert_eq!(op.wire.len(), len);
        assert_ne!(op.wire, first, "start_time and token must move");
        let text = |wire: &[u8]| String::from_utf8_lossy(wire).into_owned();
        let Field::StartTime { at, base } = op.fields[0] else {
            panic!("first field is the start time")
        };
        assert_eq!(text(&first[at..at + 13]), format!("{base:013}"));
        assert_eq!(
            text(&op.wire[at..at + 13]),
            format!("{:013}", base + PACKET_MS),
            "packet k abuts packet k-1"
        );

        let k = keys(3);
        let (mut cycle, _) = mirror_cycle(1, &k[0], [&k[1], &k[2]]);
        let sync = &mut cycle[8];
        sync.prepare(0, 0);
        let wire = text(&sync.wire);
        let body = wire.split("\r\n\r\n").nth(1).expect("body");
        let request =
            sensorsafe_core::jsonlib::parse(body).expect("patched sync body stays valid JSON");
        assert_eq!(request["epoch"].as_u64(), Some(1_000_000_000));
        let name = request["contributor"].as_str().expect("name");
        let index: usize = name[1..].parse().expect("5-digit index");
        assert!(name.starts_with('m') && index.is_multiple_of(4) && index < MIRROR_CONTRIBUTORS);
    }
}

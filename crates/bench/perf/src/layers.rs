//! Per-layer measurement, from outside the program.
//!
//! Two sources: (a) deltas of the servers' own `/metrics` across the
//! measured phase; (b) a single-threaded replay of captured requests
//! against each layer's public functions, with a span around every
//! call. Spans live in memory and are written out at exit; a layer's
//! self time is its span minus its child spans.

use crate::client::Conn;
use crate::run::mirror_index;
use crate::stats::median;
use crate::workload::{Class, Topology};
use sensorsafe_bench::synthetic_rules;
use sensorsafe_core::auth::{ApiKey, KeyRing, Principal, Role};
use sensorsafe_core::datastore::{
    shared_view, shared_view_from_json, shared_view_to_json, SharedView,
};
use sensorsafe_core::jsonlib::parse;
use sensorsafe_core::net::codec::{Decoded, RequestDecoder};
use sensorsafe_core::net::http::write_response;
use sensorsafe_core::net::promtext::{self, ParsedScrape};
use sensorsafe_core::net::{Request, Response, Service, Status};
use sensorsafe_core::obsv::audit::Outcome;
use sensorsafe_core::obsv::{AuditLedger, DecisionRecord};
use sensorsafe_core::policy::{
    enforce, CompiledRules, ConsumerCtx, RuleIndex, SearchQuery, WindowCtx,
};
use sensorsafe_core::store::repl::encode_batch;
use sensorsafe_core::store::{
    decode_segment, encode_segment, FileLedger, JournalConfig, MergePolicy, Query, ReplConfig,
    SegmentStore, StoreJournal,
};
use sensorsafe_core::types::{
    ChannelId, ConsumerId, ContextAnnotation, ContributorId, RepeatTime, TimeRange, Timestamp,
    WaveSegment,
};
use sensorsafe_core::{json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Spans of one request share this.
    pub op: u32,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished root span (the client loop's per-op span).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, op: u32) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
            op,
        };
        self.spans.push(span);
    }

    /// Starts the next request: spans recorded until the next call
    /// share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `work` inside a span named `name`, nested under whatever
    /// span is open.
    pub fn span<R>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let op = self.op;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
        });
        self.stack.push(index);
        let start = Instant::now();
        let result = work(self);
        let end = Instant::now();
        self.stack.pop();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[index as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        result
    }

    /// Self time (µs) per (op, span name) of the spans recorded since
    /// `first_span`: a span's duration minus the part its direct
    /// children cover, summed over same-named spans of the op.
    pub fn self_times_us(&self, first_span: usize) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut per_op: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns).skip(first_span) {
            let own = (span.end_ns - span.start_ns).saturating_sub(*children);
            *per_op
                .entry(span.op)
                .or_default()
                .entry(span.name)
                .or_default() += own as f64 / 1e3;
        }
        per_op
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": (s.name),
                        "start_ns": (s.start_ns),
                        "end_ns": (s.end_ns),
                        "parent": (s.parent.map_or(Value::Null, |p| Value::from(p as u64))),
                        "op": (s.op as u64),
                    })
                })
                .collect(),
        )
    }
}

/// One `/metrics` scrape of every server, with its cost.
pub struct Scrape {
    /// Parsed bodies in `scrape_addrs` order: broker, primary, replica.
    pub bodies: Vec<ParsedScrape>,
    pub ms: f64,
    pub payload_kb: f64,
    pub series: f64,
}

/// Keep-alive connections to every server's `/metrics`.
pub struct Scraper {
    conns: Vec<Conn>,
}

impl Scraper {
    pub fn connect(topo: &Topology) -> Scraper {
        Scraper {
            conns: topo
                .scrape_addrs
                .iter()
                .map(|addr| Conn::connect(addr).expect("scrape connect"))
                .collect(),
        }
    }

    pub fn scrape(&mut self) -> Scrape {
        let started = Instant::now();
        let texts: Vec<String> = self
            .conns
            .iter_mut()
            .map(|conn| {
                let resp = conn.send(&Request::get("/metrics")).expect("scrape");
                assert_eq!(resp.status, Status::Ok, "/metrics status");
                String::from_utf8_lossy(&resp.body).into_owned()
            })
            .collect();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let bodies: Vec<ParsedScrape> = texts.iter().map(|t| promtext::parse(t)).collect();
        Scrape {
            ms,
            payload_kb: texts.iter().map(String::len).sum::<usize>() as f64 / 1024.0,
            series: bodies.iter().map(|b| b.samples.len()).sum::<usize>() as f64,
            bodies,
        }
    }
}

/// Counter/histogram deltas between two scrapes of one server.
pub struct Delta<'a> {
    before: &'a ParsedScrape,
    after: &'a ParsedScrape,
}

impl<'a> Delta<'a> {
    pub fn new(before: &'a Scrape, after: &'a Scrape, server: usize) -> Delta<'a> {
        Delta {
            before: &before.bodies[server],
            after: &after.bodies[server],
        }
    }

    pub fn sum(&self, name: &str, filters: &[(&str, &str)]) -> f64 {
        self.after.sum_where(name, filters).unwrap_or(0.0)
            - self.before.sum_where(name, filters).unwrap_or(0.0)
    }

    /// Mean of a histogram over the interval (its unit), 0 if unused.
    pub fn mean(&self, name: &str, filters: &[(&str, &str)]) -> f64 {
        let count = self.sum(&format!("{name}_count"), filters);
        if count > 0.0 {
            self.sum(&format!("{name}_sum"), filters) / count
        } else {
            0.0
        }
    }
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

fn timed_us<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = work();
    (result, started.elapsed().as_secs_f64() * 1e6)
}

/// Decodes captured request bytes the way the evented server does.
fn decode_request(wire: &[u8]) -> Request {
    let mut decoder = RequestDecoder::new();
    decoder.feed(wire);
    match decoder.poll() {
        Decoded::Item(request) => request,
        other => panic!("captured request does not decode: {other:?}"),
    }
}

/// The packet an upload request carries (harness bookkeeping, off the
/// spans).
fn decoded_segment(request: &Request) -> WaveSegment {
    let body = request.json().expect("json body");
    WaveSegment::from_json(&body["segments"][0]).expect("segment")
}

/// A key ring the size of the server's.
fn ring_of(size: usize) -> KeyRing {
    let ring = KeyRing::new();
    for i in 0..size {
        ring.register(Principal {
            name: format!("filler-{i}"),
            role: Role::Contributor,
        });
    }
    ring
}

/// Times `KeyRing::authenticate` for a captured key, teaching the ring
/// the key first (off the span) if it has not seen it.
fn authenticate(tracer: &mut Tracer, ring: &KeyRing, key_hex: &str) {
    if ring.authenticate(key_hex).is_none() {
        let key = ApiKey::parse(key_hex).expect("captured key is hex");
        ring.register_key(
            &key,
            Principal {
                name: "replayed".into(),
                role: Role::Consumer,
            },
        );
    }
    tracer.span("auth.authenticate", |_| {
        ring.authenticate(key_hex)
            .expect("replayed key authenticates")
    });
}

fn encode_response(tracer: &mut Tracer, response: &Response) -> usize {
    tracer.span("net.resp_encode", |_| {
        let mut wire = Vec::with_capacity(response.body.len() + 128);
        write_response(&mut wire, response).expect("writing to a Vec cannot fail");
        wire.len()
    })
}

/// The layers whose self times make up `Service::handle` for one class.
pub struct Lifecycle {
    /// Median `Service::handle` time of the replayed requests.
    pub handle_us: f64,
    /// Median over requests of the summed self times of the layers
    /// inside `Service::handle` (the `net.*` spans run outside it, in
    /// the server's connection handling).
    pub layers_us: f64,
    /// Median self time per layer span name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Lifecycle {
    pub fn layer(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }
}

/// Summarises the spans recorded since `first_span`, one op per
/// replayed request.
fn lifecycle(tracer: &Tracer, first_span: usize, handle: &[f64]) -> Lifecycle {
    let per_op = tracer.self_times_us(first_span);
    let sums: Vec<f64> = per_op
        .values()
        .map(|layers| {
            layers
                .iter()
                .filter(|(name, _)| !name.starts_with("net."))
                .map(|(_, us)| us)
                .sum()
        })
        .collect();
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, us) in per_op.values().flatten() {
        by_name.entry(name).or_default().push(*us);
    }
    Lifecycle {
        handle_us: med(handle),
        layers_us: med(&sums),
        layers: by_name
            .into_iter()
            .map(|(name, us)| (name, med(&us)))
            .collect(),
    }
}

/// `store::codec` encode/decode and `to_json` of one segment, in µs.
#[derive(Default, Clone, Copy)]
pub struct SegmentCosts {
    pub codec_encode_us: f64,
    pub codec_decode_us: f64,
    pub to_json_us: f64,
}

fn segment_costs(segment: &WaveSegment) -> SegmentCosts {
    let (encoded, codec_encode_us) = timed_us(|| encode_segment(segment));
    SegmentCosts {
        codec_encode_us,
        codec_decode_us: timed_us(|| decode_segment(&encoded).expect("decode")).1,
        to_json_us: timed_us(|| segment.to_json()).1,
    }
}

/// By-products of the upload replay.
pub struct UploadReplay {
    pub lifecycle: Lifecycle,
    pub journal_bytes_per_upload: f64,
    pub repl_bytes_per_upload: f64,
    /// Costs of one 64-sample packet.
    pub segment: SegmentCosts,
}

/// Replays `requests` fresh upload requests: through the real store's
/// `Service::handle` (which acks and stores them), then layer by layer
/// against a probe store on its own journal.
pub fn replay_upload(topo: &mut Topology, tracer: &mut Tracer, requests: usize) -> UploadReplay {
    let service = topo
        .primary
        .as_ref()
        .expect("durable primary")
        .service
        .clone();
    let ring_size = topo.checks.contributors.len() + 2;
    let (client_id, plan) = topo
        .clients
        .iter_mut()
        .enumerate()
        .find(|(_, c)| c.ops.iter().any(|op| op.class == Class::Upload))
        .expect("an uploading client");

    let probe_dir = topo.dir.join("probe-journal");
    std::fs::create_dir_all(&probe_dir).expect("probe dir");
    let journal =
        Arc::new(StoreJournal::open(&probe_dir, JournalConfig::default()).expect("probe journal"));
    let mut probe =
        SegmentStore::open_journal(journal.clone(), "probe", MergePolicy::default(), Vec::new());
    let mut shipped = SegmentStore::in_memory(MergePolicy::default());
    shipped.enable_replication(ReplConfig::default());
    let ring = ring_of(ring_size);

    // A handful of streams, replayed round after round so packets abut
    // and merge exactly as they do over TCP.
    let streams: Vec<usize> = plan
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.class == Class::Upload)
        .map(|(i, _)| i)
        .take(8)
        .collect();
    let first_span = tracer.spans.len();
    let mut handle = Vec::with_capacity(requests);
    let mut last_segment = None;
    for n in 0..requests {
        let op = &mut plan.ops[streams[n % streams.len()]];
        op.prepare(client_id, plan.seq);
        plan.seq += 1;
        tracer.next_op();
        let request = tracer.span("net.req_decode", |_| decode_request(&op.wire));
        let (response, us) = timed_us(|| service.handle(&request));
        assert_eq!(response.status, Status::Ok, "replayed upload must ack");
        handle.push(us);
        shipped
            .insert_segment(decoded_segment(&request))
            .expect("in-memory insert");
        tracer.span("datastore.handle_upload", |t| {
            let body = t.span("json.parse", |_| request.json().expect("json body"));
            authenticate(t, &ring, body["key"].as_str().expect("key"));
            let segment = t.span("types.segment_from_json", |_| {
                WaveSegment::from_json(&body["segments"][0]).expect("segment")
            });
            last_segment = Some(segment.clone());
            let token = body["upload_token"]
                .as_str()
                .expect("token")
                .as_bytes()
                .to_vec();
            t.span("store.insert", |_| {
                probe.insert_segment(segment).expect("probe insert");
                probe.note_upload_token(token, 1, 0).expect("probe token");
            });
            t.span("store.journal_commit", |_| {
                probe
                    .commit_ticket()
                    .expect("journal-backed store")
                    .wait()
                    .expect("probe commit")
            });
            t.span("json.ser", |_| {
                Response::json(&json!({"stored_segments": 1, "stored_annotations": 0}))
            });
        });
        encode_response(tracer, &response);
    }
    let lifecycle = lifecycle(tracer, first_span, &handle);

    drop(probe);
    drop(journal);
    let journal_bytes = crate::env::dir_bytes(&probe_dir) as f64;
    shipped.repl_seal();
    // Batches travel hex-encoded inside a JSON body.
    let repl_bytes: usize = shipped
        .repl_peek(usize::MAX)
        .iter()
        .map(|batch| encode_batch("probe", 1, batch).len() * 2)
        .sum();
    UploadReplay {
        lifecycle,
        journal_bytes_per_upload: journal_bytes / requests as f64,
        repl_bytes_per_upload: repl_bytes as f64 / requests as f64,
        segment: segment_costs(&last_segment.expect("at least one replayed upload")),
    }
}

/// Splits `range` at every annotation boundary inside it (what the
/// datastore pipeline does before evaluating rules per window).
fn split_at_annotations(range: &TimeRange, annotations: &[&ContextAnnotation]) -> Vec<TimeRange> {
    let (lo, hi) = (range.start.millis(), range.end.millis());
    let mut cuts = vec![lo, hi];
    for ann in annotations {
        for edge in [ann.window.start.millis(), ann.window.end.millis()] {
            if edge > lo && edge < hi {
                cuts.push(edge);
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .map(|pair| {
            TimeRange::new(
                Timestamp::from_millis(pair[0]),
                Timestamp::from_millis(pair[1]),
            )
        })
        .collect()
}

/// By-products of the query replay.
pub struct QueryReplay {
    pub lifecycle: Lifecycle,
    pub shared_view_us: f64,
    pub view_from_json_us: f64,
    pub windows_per_query: f64,
    pub compile_us: f64,
    /// Costs of the largest shared segment seen.
    pub segment: SegmentCosts,
    /// Replayed views that differ from `datastore::shared_view`.
    pub mismatches: u64,
}

/// Replays captured consumer queries: through the real store's
/// `Service::handle`, then layer by layer with the datastore pipeline
/// spelled out over public functions.
pub fn replay_query(topo: &Topology, tracer: &mut Tracer, requests: usize) -> QueryReplay {
    let service = topo
        .primary
        .as_ref()
        .expect("durable primary")
        .service
        .clone();
    let ops: Vec<_> = topo
        .clients
        .iter()
        .flat_map(|c| &c.ops)
        .filter(|op| op.class == Class::Query)
        .take(requests)
        .collect();
    let consumer: ConsumerCtx = service
        .state()
        .consumer(&ConsumerId::new(crate::spec::CONSUMER))
        .expect("consumer escrowed on the store")
        .to_ctx();
    let ledger = FileLedger::open(topo.dir.join("probe.ledger")).expect("probe ledger");
    let ring = ring_of(topo.checks.contributors.len() + 2);

    let first_span = tracer.spans.len();
    let (mut handle, mut whole, mut from_json) = (Vec::new(), Vec::new(), Vec::new());
    let (mut windows_total, mut compile, mut mismatches) = (0usize, Vec::new(), 0u64);
    let mut widest: Option<WaveSegment> = None;
    for op in &ops {
        let check = &topo.checks.queries[op.check.expect("query ops carry a check")];
        tracer.next_op();
        let request = tracer.span("net.req_decode", |_| decode_request(&op.wire));
        let (response, us) = timed_us(|| service.handle(&request));
        assert_eq!(response.status, Status::Ok, "replayed query must succeed");
        handle.push(us);

        let id = ContributorId::new(check.contributor.clone());
        let account = service.state().read_contributor(&id).expect("account");
        let (expected, us) =
            timed_us(|| shared_view(&account, &consumer, &check.query, service.graph()));
        whole.push(us);
        compile.push(timed_us(|| CompiledRules::compile(&account.rules)).1);

        let replayed = tracer.span("datastore.pipeline", |t| {
            let body = t.span("json.parse", |_| request.json().expect("json body"));
            authenticate(t, &ring, body["key"].as_str().expect("key"));
            let query = Query::from_json(&body["query"]).expect("query");
            let segments = t.span("store.query", |_| account.store.query(&query));
            let compiled = account.compiled_rules();
            let mut windows = Vec::new();
            let mut decided = 0usize;
            for segment in &segments {
                let Some(range) = segment.time_range() else {
                    continue;
                };
                let overlapping = account.store.annotations_in(&range);
                for window in split_at_annotations(&range, &overlapping) {
                    let Some(piece) = t.span("types.slice", |_| segment.slice_time(&window)) else {
                        continue;
                    };
                    let annotations: Vec<ContextAnnotation> = overlapping
                        .iter()
                        .filter(|a| a.window.overlaps(&window))
                        .map(|a| (*a).clone())
                        .collect();
                    let location = piece.meta().location;
                    let ctx = WindowCtx {
                        time: window.start,
                        location,
                        location_labels: location
                            .map(|p| account.labels_at(&p))
                            .unwrap_or_default(),
                        contexts: annotations
                            .iter()
                            .flat_map(|a| a.states.iter().copied())
                            .collect(),
                    };
                    let channels: Vec<ChannelId> = piece.channels().cloned().collect();
                    let decision = t.span("policy.evaluate", |_| {
                        compiled.evaluate(&consumer, &ctx, &channels, service.graph())
                    });
                    let shared = t.span("policy.enforce", |_| {
                        enforce(&decision, &piece, &annotations)
                    });
                    decided += 1;
                    windows.extend(shared);
                }
            }
            // One ledger record per decided window, synced once per
            // request, as the live handler's ledger scope does.
            t.span("store.ledger_append", |_| {
                for _ in 0..decided {
                    ledger.append(DecisionRecord {
                        seq: 0,
                        unix_ms: 1_311_500_000_000,
                        trace_id: 0,
                        rule_epoch: account.rule_epoch,
                        contributor: check.contributor.clone(),
                        consumer: crate::spec::CONSUMER.to_string(),
                        matched_rules: vec![0],
                        outcome: Outcome::Allowed,
                        suppressed_channels: 0,
                    });
                }
                ledger.sync();
            });
            windows_total += decided;
            let view = SharedView { windows };
            let payload = t.span("datastore.view_to_json", |_| shared_view_to_json(&view));
            t.span("json.ser", |_| Response::json(&payload));
            view
        });
        if replayed != expected {
            mismatches += 1;
        }
        encode_response(tracer, &response);
        let text = std::str::from_utf8(&response.body).expect("utf-8 reply");
        from_json
            .push(timed_us(|| shared_view_from_json(&parse(text).expect("json")).expect("view")).1);
        if let Some(segment) = expected
            .windows
            .iter()
            .filter_map(|w| w.segment.as_ref())
            .next()
        {
            if widest.as_ref().is_none_or(|w| segment.len() > w.len()) {
                widest = Some(segment.clone());
            }
        }
    }
    QueryReplay {
        lifecycle: lifecycle(tracer, first_span, &handle),
        shared_view_us: med(&whole),
        view_from_json_us: med(&from_json),
        windows_per_query: windows_total as f64 / ops.len().max(1) as f64,
        compile_us: med(&compile),
        segment: widest.as_ref().map(segment_costs).unwrap_or_default(),
        mismatches,
    }
}

/// By-products of the search replay.
pub struct SearchReplay {
    pub lifecycle: Lifecycle,
    pub index_sync_us: f64,
    /// The paper query over 1k / 10k / 100k mirrored contributors.
    pub search_ms_at: [f64; 3],
}

/// Replays captured searches: through the real broker's
/// `Service::handle`, then layer by layer over an in-process mirror.
pub fn replay_search(topo: &Topology, tracer: &mut Tracer) -> SearchReplay {
    let broker = topo.deployment.broker().clone();
    // One whole cycle, so the replay has the mix the clients sent.
    let ops: Vec<_> = topo.clients[0]
        .ops
        .iter()
        .filter(|op| op.class == Class::Search)
        .collect();
    let mut index = mirror_index();
    // Broker ring: admin, the syncing store, two consumers.
    let ring = ring_of(2);
    let first_span = tracer.spans.len();
    let mut handle = Vec::new();
    for op in &ops {
        let check = &topo.checks.searches[op.check.expect("search ops carry a check")];
        tracer.next_op();
        let request = tracer.span("net.req_decode", |_| decode_request(&op.wire));
        let (response, us) = timed_us(|| broker.handle(&request));
        assert_eq!(response.status, Status::Ok, "replayed search must succeed");
        handle.push(us);
        tracer.span("broker.handle_search", |t| {
            let body = t.span("json.parse", |_| request.json().expect("json body"));
            authenticate(t, &ring, body["key"].as_str().expect("key"));
            let snapshot = t.span("policy.snapshot", |_| index.snapshot());
            let hits = t.span("policy.search", |_| snapshot.search(&check.query));
            t.span("json.ser", |_| {
                Response::json(&json!({
                    "contributors": (Value::Array(
                        hits.iter().map(|c| Value::from(c.as_str())).collect()
                    )),
                    "unreachable": [],
                }))
            });
        });
        encode_response(tracer, &response);
    }
    let lifecycle = lifecycle(tracer, first_span, &handle);

    let resync: Vec<f64> = (0..1000usize)
        .map(|i| {
            let name = ContributorId::new(crate::workload::mirror_name(i));
            let rules = crate::workload::mirror_rules(i, 2);
            timed_us(|| index.sync(name, 3, rules)).1
        })
        .collect();
    let paper = SearchQuery {
        consumer: ConsumerCtx::user(crate::spec::CONSUMER),
        raw_channels: vec![ChannelId::new("ecg"), ChannelId::new("respiration")],
        location_labels: vec!["work".into()],
        repeat: Some(RepeatTime::weekdays_nine_to_six()),
        ..Default::default()
    };
    let search_ms_at = [1_000usize, 10_000, 100_000].map(|n| {
        let mut scaled = RuleIndex::new();
        for i in 0..n {
            scaled.sync(
                ContributorId::new(format!("s{i:06}")),
                1,
                synthetic_rules(i, 4),
            );
        }
        let runs: Vec<f64> = (0..3)
            .map(|_| timed_us(|| std::hint::black_box(scaled.search(&paper)).len()).1 / 1e3)
            .collect();
        med(&runs)
    });
    SearchReplay {
        lifecycle,
        index_sync_us: med(&resync),
        search_ms_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        let at = |us: u64| epoch + Duration::from_micros(us);
        tracer.next_op();
        // Hand-built so the arithmetic is exact: a 100 us parent with
        // two children of 30 us and 20 us, one of which has a 5 us child.
        tracer.spans = vec![
            Span {
                name: "handle",
                start_ns: 0,
                end_ns: 100_000,
                parent: None,
                op: 1,
            },
            Span {
                name: "json",
                start_ns: 10_000,
                end_ns: 40_000,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "store",
                start_ns: 50_000,
                end_ns: 70_000,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "fsync",
                start_ns: 55_000,
                end_ns: 60_000,
                parent: Some(2),
                op: 1,
            },
        ];
        tracer.record("handle", at(200), at(260), 2);
        let per_op = tracer.self_times_us(0);
        assert_eq!(per_op[&1]["handle"], 50.0);
        assert_eq!(per_op[&1]["json"], 30.0);
        assert_eq!(per_op[&1]["store"], 15.0);
        assert_eq!(per_op[&1]["fsync"], 5.0);
        assert_eq!(per_op[&2]["handle"], 60.0);
        // Self times of one op add up to its root span.
        assert_eq!(per_op[&1].values().sum::<f64>(), 100.0);
    }

    #[test]
    fn nested_spans_record_parent_and_op() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.next_op();
        let value = tracer.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(value, 7);
        let [outer, inner] = &tracer.spans[..] else {
            panic!("two spans")
        };
        assert_eq!((outer.name, outer.parent, outer.op), ("outer", None, 1));
        assert_eq!((inner.name, inner.parent, inner.op), ("inner", Some(0), 1));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}

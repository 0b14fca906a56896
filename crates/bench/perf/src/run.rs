//! The measured phase, its statistics, and the correctness checks.
//!
//! One closed-loop phase cut into slices: each client sends its next
//! request when the previous reply is complete. An op is timed from the
//! first request byte written to the last response byte decoded.

use crate::calib::{Pacer, NOMINAL_US};
use crate::layers::Tracer;
use crate::spec::WorkloadSpec;
use crate::stats::{median, percentile, slice_median, spread, StatError};
use crate::workload::{Checks, Class, ClientPlan, Topology, PACKET_SAMPLES};
use sensorsafe_core::datastore::{
    shared_view, shared_view_from_json, DataStoreConfig, DataStoreService,
};
use sensorsafe_core::jsonlib::parse;
use sensorsafe_core::net::{Request, Service, Status};
use sensorsafe_core::policy::RuleIndex;
use sensorsafe_core::types::{ConsumerId, ContextKind, ContributorId, WaveSegment};
use sensorsafe_core::{json, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Slices per measured phase (`all --smoke` uses 2).
pub const SLICES: usize = 8;
/// Every this-many-th checked reply is kept and verified off the clock.
const VERIFY_EVERY: u64 = 32;

/// One completed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    /// Completion time, seconds since the phase started.
    pub done_s: f64,
    pub latency_ms: f64,
    pub ok: bool,
}

/// A reply kept for verification.
pub struct Kept {
    pub class: Class,
    pub check: usize,
    pub body: Vec<u8>,
}

/// One calibration op (see [`crate::calib`]).
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Completion time, seconds since the phase started.
    pub done_s: f64,
    pub took_us: f64,
}

/// What one client thread saw.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub calibrations: Vec<Calibration>,
    pub kept: Vec<Kept>,
    /// Socket bytes and ops over the whole cycles this client finished.
    pub cycle_bytes: u64,
    pub cycle_ops: u64,
    pub first_error: Option<String>,
}

/// The measured phase as recorded by the generator.
pub struct Phase {
    pub slices: usize,
    pub slice_s: f64,
    pub logs: Vec<ClientLog>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

fn reply_ok(class: Class, expect_len: Option<usize>, status: Status, body: &[u8]) -> bool {
    if status != Status::Ok || body.is_empty() {
        return false;
    }
    match class {
        // An ack must say the packet was stored (and not as a replay).
        Class::Upload => contains(body, b"\"stored_segments\":1") && !contains(body, b"duplicate"),
        Class::Query | Class::Search => expect_len.is_none_or(|len| len == body.len()),
        Class::Sync => contains(body, b"\"accepted\":true"),
        Class::RulesSet => contains(body, b"\"broker_synced\":true"),
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Drives one client until `deadline`, calibration ops paced between
/// real ops. With a tracer, ops that start in odd slices are recorded
/// as spans.
fn drive(
    id: usize,
    plan: &mut ClientPlan,
    pacer: &mut Pacer,
    start: Instant,
    slice: Duration,
    slices: usize,
    mut tracer: Option<&mut Tracer>,
) -> ClientLog {
    let deadline = start + slice * slices as u32;
    let mut log = ClientLog::default();
    let mut checked = 0u64;
    let mut cycle_mark = None;
    let mut failing = 0usize;
    loop {
        pacer.tick();
        if plan.cursor == 0 {
            let now_bytes = plan.conn.wire_bytes();
            if let Some(mark) = cycle_mark {
                log.cycle_bytes += now_bytes - mark;
                log.cycle_ops += plan.ops.len() as u64;
            }
            cycle_mark = Some(now_bytes);
        }
        if Instant::now() >= deadline {
            break;
        }
        let op = &mut plan.ops[plan.cursor];
        op.prepare(id, plan.seq);
        plan.seq += 1;
        let sent = Instant::now();
        let reply = plan.conn.round_trip(&op.wire);
        let done = Instant::now();
        let ok = match &reply {
            Ok(resp) => reply_ok(op.class, op.expect_len, resp.status, &resp.body),
            Err(_) => false,
        };
        if !ok && log.first_error.is_none() {
            log.first_error = Some(match &reply {
                Ok(resp) => format!(
                    "{} -> {}: {}",
                    op.class.as_str(),
                    resp.status.code(),
                    String::from_utf8_lossy(&resp.body[..resp.body.len().min(160)])
                ),
                Err(e) => format!("{} -> transport error: {e}", op.class.as_str()),
            });
        }
        log.samples.push(Sample {
            class: op.class,
            done_s: (done - start).as_secs_f64(),
            latency_ms: (done - sent).as_secs_f64() * 1e3,
            ok,
        });
        if let Some(tracer) = tracer.as_deref_mut() {
            let in_slice = ((sent - start).as_nanos() / slice.as_nanos().max(1)) as usize;
            if in_slice % 2 == 1 {
                tracer.record(op.class.as_str(), sent, done, plan.seq as u32);
            }
        }
        if let (Some(check), Ok(resp)) = (op.check, reply) {
            if checked.is_multiple_of(VERIFY_EVERY) {
                log.kept.push(Kept {
                    class: op.class,
                    check,
                    body: resp.body,
                });
            }
            checked += 1;
        }
        plan.cursor = (plan.cursor + 1) % plan.ops.len();
        // A dead connection fails every later op instantly; stop
        // instead of spinning to the deadline.
        failing = if ok { 0 } else { failing + 1 };
        if failing >= 64 {
            break;
        }
    }
    log.calibrations = pacer
        .ops
        .iter()
        .map(|&(done, took_us)| Calibration {
            done_s: (done - start).as_secs_f64(),
            took_us,
        })
        .collect();
    log
}

/// Runs the measured phase: all clients in parallel, `slices` slices of
/// `slice` each.
pub fn measure(
    topo: &mut Topology,
    slice: Duration,
    slices: usize,
    tracers: &mut [Tracer],
) -> Phase {
    let mut pacers: Vec<Pacer> = (0..topo.clients.len())
        .map(|id| Pacer::new(&topo.dir, id))
        .collect();
    let cpu_before = crate::env::cpu_seconds();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let mut tracers = tracers.iter_mut();
        let handles: Vec<_> = topo
            .clients
            .iter_mut()
            .zip(&mut pacers)
            .enumerate()
            .map(|(id, (plan, pacer))| {
                let tracer = tracers.next();
                scope.spawn(move || drive(id, plan, pacer, start, slice, slices, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        slices,
        slice_s: slice.as_secs_f64(),
        logs,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: crate::env::cpu_seconds() - cpu_before,
    }
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.samples.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| !s.ok)
            .count() as u64
    }

    pub fn acked_uploads(&self) -> u64 {
        self.logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| s.ok && s.class == Class::Upload)
            .count() as u64
    }

    fn ok_samples(&self) -> impl Iterator<Item = &Sample> {
        self.logs.iter().flat_map(|l| &l.samples).filter(|s| s.ok)
    }

    fn slice_at(&self, done_s: f64) -> Option<usize> {
        let idx = (done_s / self.slice_s) as usize;
        (idx < self.slices).then_some(idx)
    }

    fn slice_of(&self, sample: &Sample) -> Option<usize> {
        self.slice_at(sample.done_s)
    }

    /// OK ops completed per second in each slice, all classes: the sum
    /// over clients of ops over the time the client was not calibrating.
    /// With `parity`, only even (`Some(0)`) or odd (`Some(1)`) slices.
    pub fn slice_rates(&self, parity: Option<usize>) -> Vec<f64> {
        let mut rates = vec![0.0; self.slices];
        for log in &self.logs {
            let mut counts = vec![0u64; self.slices];
            let mut calibrating_s = vec![0.0; self.slices];
            for idx in log
                .samples
                .iter()
                .filter(|s| s.ok)
                .filter_map(|s| self.slice_at(s.done_s))
            {
                counts[idx] += 1;
            }
            for c in &log.calibrations {
                if let Some(idx) = self.slice_at(c.done_s) {
                    calibrating_s[idx] += c.took_us / 1e6;
                }
            }
            for (rate, (n, off)) in rates.iter_mut().zip(counts.iter().zip(&calibrating_s)) {
                *rate += *n as f64 / (self.slice_s - off).max(f64::MIN_POSITIVE);
            }
        }
        rates
            .into_iter()
            .enumerate()
            .filter(|(i, _)| parity.is_none_or(|p| i % 2 == p))
            .map(|(_, rate)| rate)
            .collect()
    }

    /// Calibration op times of all clients over the whole phase, in µs.
    pub fn calibration_us(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| &l.calibrations)
            .map(|c| c.took_us)
            .collect()
    }

    /// What a raw time is multiplied by to express it at the nominal
    /// machine speed: [`NOMINAL_US`] over the run's median calibration
    /// op time.
    pub fn time_scale(&self) -> Result<f64, StatError> {
        Ok(NOMINAL_US / median(&self.calibration_us())?)
    }

    /// Sorted OK latencies of `class`, per slice.
    fn slice_latencies(&self, class: Class) -> Vec<Vec<f64>> {
        let mut slices = vec![Vec::new(); self.slices];
        for sample in self.ok_samples().filter(|s| s.class == class) {
            if let Some(idx) = self.slice_of(sample) {
                slices[idx].push(sample.latency_ms);
            }
        }
        for slice in &mut slices {
            slice.sort_by(f64::total_cmp);
        }
        slices
    }

    /// Median over slices of the per-slice percentile `q` of `class`.
    pub fn latency_ms(&self, class: Class, q: f64) -> Result<f64, StatError> {
        slice_median(&self.slice_latencies(class), |s| percentile(s, q, 1))
    }

    /// Sorted OK latencies of `class` over the whole phase.
    pub fn phase_latencies(&self, class: Class) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .ok_samples()
            .filter(|s| s.class == class)
            .map(|s| s.latency_ms)
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Mean over connections of socket bytes per op, counted over the
    /// whole cycles each connection finished — so the figure does not
    /// depend on where in a cycle the deadline fell, nor (with two
    /// independent closed loops) on their relative speed.
    pub fn wire_bytes_per_op(&self) -> f64 {
        let per_conn: Vec<f64> = self
            .logs
            .iter()
            .filter(|l| l.cycle_ops > 0)
            .map(|l| l.cycle_bytes as f64 / l.cycle_ops as f64)
            .collect();
        per_conn.iter().sum::<f64>() / per_conn.len().max(1) as f64
    }

    pub fn slice_spread_pct(&self) -> f64 {
        spread(&self.slice_rates(None)).unwrap_or(0.0) * 100.0
    }

    pub fn count(&self, class: Class) -> u64 {
        self.ok_samples().filter(|s| s.class == class).count() as u64
    }
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The end-to-end rows of one untraced run, plus the sample count
/// behind every percentile.
pub fn end_to_end(
    spec: &WorkloadSpec,
    phase: &Phase,
    setup_s: f64,
    rss_peak_mb: f64,
) -> Result<(Metrics, BTreeMap<String, u64>), StatError> {
    let subject = spec.subject;
    let scale = phase.time_scale()?;
    let mut m = BTreeMap::new();
    m.insert("setup_s", setup_s);
    m.insert("norm_ops_per_s", median(&phase.slice_rates(None))? / scale);
    m.insert("norm_op_p50_ms", phase.latency_ms(subject, 0.50)? * scale);
    m.insert("norm_op_p75_ms", phase.latency_ms(subject, 0.75)? * scale);
    m.insert("wire_bytes_per_op", phase.wire_bytes_per_op());
    m.insert("rss_peak_mb", rss_peak_mb);
    let mut counts = BTreeMap::new();
    counts.insert(
        "calibration_ops".to_string(),
        phase.calibration_us().len() as u64,
    );
    for class in Class::ALL {
        let n = phase.count(class);
        if n > 0 {
            counts.insert(format!("{}_samples", class.as_str()), n);
        }
    }
    counts.insert(
        format!("{}_samples_min_per_slice", subject.as_str()),
        phase
            .slice_latencies(subject)
            .iter()
            .map(|s| s.len() as u64)
            .min()
            .unwrap_or(0),
    );
    Ok((m, counts))
}

/// Outcome of the correctness checks.
#[derive(Default)]
pub struct Verdict {
    pub problems: Vec<String>,
    pub verified_replies: u64,
    /// Per-layer by-products of the checks.
    pub reopen_ms: f64,
    pub repl_drain_ms: f64,
    pub disk_bytes_per_sample: f64,
    pub hits_per_search: f64,
    pub bytes_per_sample_query: f64,
}

impl Verdict {
    fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

fn store_samples(service: &DataStoreService) -> u64 {
    service
        .state()
        .contributor_ids()
        .iter()
        .filter_map(|id| {
            service
                .state()
                .with_contributor(id, |a| a.store.stats().samples as u64)
        })
        .sum()
}

/// Verifies kept replies against in-process ground truth, then the
/// durability and replication guarantees. Consumes the topology: the
/// store is dropped and its data directory reopened.
pub fn verify(topo: Topology, phase: &Phase, extra_acked_uploads: u64) -> Verdict {
    let mut verdict = Verdict::default();
    for log in &phase.logs {
        if let Some(err) = &log.first_error {
            verdict.problem(format!("op failed: {err}"));
        }
    }
    verify_queries(&topo, phase, &mut verdict);
    verify_searches(&topo, phase, &mut verdict);

    let acked = topo.checks.preload_samples
        + (phase.acked_uploads() + extra_acked_uploads) * PACKET_SAMPLES as u64;
    if let (Some(primary), Some(replica)) = (&topo.primary, &topo.replica) {
        // Last ack -> replica caught up.
        let started = Instant::now();
        let want = store_samples(&primary.service);
        while store_samples(&replica.service) != want {
            if started.elapsed() > Duration::from_secs(20) {
                verdict.problem(format!(
                    "replica holds {} samples, primary {want}, 20 s after the last ack",
                    store_samples(&replica.service)
                ));
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        verdict.repl_drain_ms = started.elapsed().as_secs_f64() * 1e3;
    }
    if let Some(primary) = &topo.primary {
        let live = store_samples(&primary.service);
        if live != acked {
            verdict.problem(format!("primary holds {live} samples, {acked} were acked"));
        }
    }
    let (dir, config, checks) = topo.shut_down();
    if let Some(config) = config {
        reopen(&config, &checks, acked, &mut verdict);
        let data_dir = config.data_dir.as_deref().expect("durable store");
        verdict.disk_bytes_per_sample =
            crate::env::dir_bytes(data_dir) as f64 / acked.max(1) as f64;
    }
    let _ = std::fs::remove_dir_all(&dir);
    verdict
}

/// Drops nothing itself: the caller has already closed the store. Opens
/// a fresh service over the same directory; every acked sample must be
/// readable by its owner.
fn reopen(config: &DataStoreConfig, checks: &Checks, acked: u64, verdict: &mut Verdict) {
    let started = Instant::now();
    let (service, admin) = DataStoreService::new(config.clone());
    verdict.reopen_ms = started.elapsed().as_secs_f64() * 1e3;
    if service.journal_stats().is_none() {
        verdict.problem("journal did not reopen".into());
    }
    let mut owner_keys = Vec::new();
    for (name, _) in &checks.contributors {
        let resp = service.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (admin.to_hex()), "name": (name.clone()), "role": "contributor"}),
        ));
        if resp.status != Status::Created {
            verdict.problem(format!("re-registering {name}: {}", resp.status.code()));
            return;
        }
        if owner_keys.len() < 4 {
            let key = resp.json_body().expect("json")["api_key"]
                .as_str()
                .expect("api_key")
                .to_string();
            owner_keys.push((name.clone(), key));
        }
    }
    let recovered = store_samples(&service);
    if recovered != acked {
        verdict.problem(format!(
            "after reopen {recovered} samples are readable, {acked} were acked"
        ));
    }
    // A few owners read their data back through the API proper.
    for (name, key) in owner_keys {
        let resp = service.handle(&Request::post_json(
            "/api/query",
            &json!({"key": key, "contributor": (name.clone())}),
        ));
        let read: usize = resp
            .json_body()
            .ok()
            .and_then(|b| {
                b["segments"].as_array().map(|segs| {
                    segs.iter()
                        .filter_map(|s| WaveSegment::from_json(s).ok())
                        .map(|s| s.len())
                        .sum()
                })
            })
            .unwrap_or(0);
        let held = service
            .state()
            .with_contributor(&ContributorId::new(name.clone()), |a| {
                a.store.stats().samples
            })
            .unwrap_or(0);
        if resp.status != Status::Ok || read != held || held == 0 {
            verdict.problem(format!("owner {name} read {read} of {held} samples"));
        }
    }
}

fn verify_queries(topo: &Topology, phase: &Phase, verdict: &mut Verdict) {
    let Some(primary) = &topo.primary else { return };
    let service = &primary.service;
    let kept: Vec<&Kept> = phase
        .logs
        .iter()
        .flat_map(|l| &l.kept)
        .filter(|k| k.class == Class::Query)
        .collect();
    if kept.is_empty() {
        return;
    }
    let consumer = service
        .state()
        .consumer(&ConsumerId::new(crate::spec::CONSUMER))
        .expect("consumer escrowed on the store")
        .to_ctx();
    let (mut bytes, mut samples) = (0u64, 0u64);
    for reply in kept {
        let check = &topo.checks.queries[reply.check];
        let parsed = std::str::from_utf8(&reply.body)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(text).map_err(|e| e.to_string()))
            .and_then(|value| shared_view_from_json(&value));
        let view = match parsed {
            Ok(view) => view,
            Err(e) => {
                verdict.problem(format!("unparseable reply for {}: {e}", check.contributor));
                continue;
            }
        };
        let id = ContributorId::new(check.contributor.clone());
        let expected = {
            let account = service.state().read_contributor(&id).expect("account");
            shared_view(&account, &consumer, &check.query, service.graph())
        };
        if view != expected {
            verdict.problem(format!(
                "reply for {} differs from the in-process shared view",
                check.contributor
            ));
        }
        match check.rule_class {
            3 if !view.is_empty() => verdict.problem(format!(
                "{}: deny-by-default leaked data",
                check.contributor
            )),
            2 => {
                let scenario = &topo
                    .checks
                    .scenarios
                    .iter()
                    .find(|(name, _)| *name == check.contributor)
                    .expect("scenario")
                    .1;
                for window in &view.windows {
                    let Some(segment) = &window.segment else {
                        continue;
                    };
                    let Some(range) = segment.time_range() else {
                        continue;
                    };
                    let Some((episode, _)) = scenario.episode_at(range.start) else {
                        continue;
                    };
                    let has = |c: &str| segment.channels().any(|ch| ch.as_str() == c);
                    if episode.condition.mode == ContextKind::Drive && has("ecg") {
                        verdict.problem(format!("{}: ECG shared while driving", check.contributor));
                    }
                    if episode.condition.conversing && (has("ecg") || has("respiration")) {
                        verdict.problem(format!(
                            "{}: stress sources shared inside a suppressed window",
                            check.contributor
                        ));
                    }
                }
            }
            _ => {}
        }
        bytes += reply.body.len() as u64;
        samples += view.raw_samples() as u64;
        verdict.verified_replies += 1;
    }
    verdict.bytes_per_sample_query = bytes as f64 / samples.max(1) as f64;
}

/// The in-process mirror fed the same syncs as the broker.
pub fn mirror_index() -> RuleIndex {
    let mut index = RuleIndex::new();
    for epoch in [1u64, 2] {
        for i in 0..crate::workload::MIRROR_CONTRIBUTORS {
            index.sync(
                ContributorId::new(crate::workload::mirror_name(i)),
                epoch,
                crate::workload::mirror_rules(i, epoch),
            );
        }
    }
    index
}

fn verify_searches(topo: &Topology, phase: &Phase, verdict: &mut Verdict) {
    let kept: Vec<&Kept> = phase
        .logs
        .iter()
        .flat_map(|l| &l.kept)
        .filter(|k| k.class == Class::Search)
        .collect();
    if kept.is_empty() {
        return;
    }
    // The measured syncs re-post unchanged rules, so the mirror after
    // set-up is the mirror throughout. One search per distinct query.
    let index = mirror_index();
    let mut expected: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut hits = 0u64;
    for reply in &kept {
        let want = expected.entry(reply.check).or_insert_with(|| {
            index
                .search(&topo.checks.searches[reply.check].query)
                .iter()
                .map(|c| c.as_str().to_string())
                .collect()
        });
        let got = std::str::from_utf8(&reply.body)
            .ok()
            .and_then(|text| parse(text).ok())
            .and_then(|value: Value| value["contributors"].as_string_list());
        match got {
            Some(got) if got == *want => hits += got.len() as u64,
            _ => verdict.problem(format!(
                "search {} differs from RuleIndex::search over the mirror",
                reply.check
            )),
        }
        verdict.verified_replies += 1;
    }
    verdict.hits_per_search = hits as f64 / kept.len() as f64;
}

//! `perf`: the repo's benchmark. See `README.md` beside this package.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! perf all [--smoke] [--seed n] [--seconds s] [--trace 0|1] [--json path]
//! perf aa --sets 5 [--seed n] [--seconds s] [--json path]
//! perf check a.json b.json
//! ```

mod calib;
mod check;
mod client;
mod env;
mod layers;
mod run;
mod spec;
mod stats;
mod workload;

use layers::{Delta, Scraper, Tracer};
use run::{Metrics, Phase, Verdict, SLICES};
use sensorsafe_core::{json, Value};
use spec::{WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::Class;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of `--seconds` a traced run spends in its TCP phase; the rest
/// is left for the layer replays.
const TRACED_PHASE_SHARE: f64 = 0.4;

/// Fresh uploads a traced run replays (and the real store acks).
const REPLAYED_UPLOADS: usize = 256;

/// How one run is shaped.
#[derive(Clone, Copy)]
struct Shape {
    seed: u64,
    seconds: f64,
    trace: bool,
    slices: usize,
    setups: usize,
}

/// What one run produced.
struct RunResult {
    workload: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Sample counts and other figures outside the metric contract.
    aux: BTreeMap<String, f64>,
    /// OK ops per second in each slice, in order: shows whether a slow
    /// run was slow throughout.
    slice_ops_per_s: Vec<f64>,
    problems: Vec<String>,
}

impl RunResult {
    fn metrics_json(&self) -> Value {
        let mut map = sensorsafe_core::jsonlib::Map::new();
        for (name, value) in &self.metrics {
            map.insert(
                name.to_string(),
                json!({"value": (*value), "unit": (spec::unit(name))}),
            );
        }
        Value::Object(map)
    }

    /// The driver's last line: exactly these four keys.
    fn contract_json(&self) -> Value {
        json!({
            "correct": (self.correct),
            "attempted": (self.attempted),
            "failed": (self.failed),
            "metrics": (self.metrics_json()),
        })
    }

    fn record_json(&self, clients: usize) -> Value {
        let mut aux = sensorsafe_core::jsonlib::Map::new();
        for (name, value) in &self.aux {
            aux.insert(name.clone(), Value::from(*value));
        }
        json!({
            "correct": (self.correct),
            "attempted": (self.attempted),
            "failed": (self.failed),
            "clients": clients,
            "metrics": (self.metrics_json()),
            "aux": (Value::Object(aux)),
            "slice_ops_per_s": (Value::Array(self.slice_ops_per_s.iter().map(|r| Value::from(*r)).collect())),
            "problems": (Value::Array(self.problems.iter().map(|p| Value::from(p.as_str())).collect())),
        })
    }

    fn print(&self) {
        println!(
            "{}: correct={} attempted={} failed={}",
            self.workload, self.correct, self.attempted, self.failed
        );
        for (name, value) in &self.metrics {
            println!("  {name:<36} {value:>16.4} {}", spec::unit(name));
        }
        for (name, value) in &self.aux {
            println!("  ({name} = {value})");
        }
        println!("  (slice ops/s: {:?})", self.slice_ops_per_s);
        for problem in &self.problems {
            println!("  PROBLEM: {problem}");
        }
    }
}

/// Where run directories and trace files go: inside the checkout.
fn out_root() -> PathBuf {
    let relative = PathBuf::from("crates/bench/perf");
    let base = if relative.join("Cargo.toml").is_file() {
        relative
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    let out = base.join("out");
    std::fs::create_dir_all(&out).expect("out dir");
    out
}

/// One set-up as timed.
struct SetupTiming {
    /// Wall time, calibration ops included.
    wall_s: f64,
    /// The set-up's own time at the nominal machine speed (`setup_s`).
    nominal_s: f64,
}

fn timed_setup(
    spec: &'static WorkloadSpec,
    seed: u64,
    dir: &std::path::Path,
) -> (workload::Topology, SetupTiming) {
    let started = Instant::now();
    let (topo, pacer) = workload::setup(spec, seed, dir);
    let wall_s = started.elapsed().as_secs_f64();
    let nominal_s = pacer
        .at_nominal_speed(wall_s)
        .expect("a set-up is longer than one calibration interval");
    (topo, SetupTiming { wall_s, nominal_s })
}

fn run_workload(spec: &'static WorkloadSpec, shape: Shape) -> RunResult {
    let out = out_root();
    let run_dir = out.join(format!("run-{}-{}", std::process::id(), spec.name));
    let probes = shape.trace.then(|| {
        (
            env::fsync_us(&out),
            env::cpu_ref_ms(),
            env::loopback_rtt_us(),
        )
    });

    // The first set-up is the one measured, in a fresh process, so the
    // heap the phase runs on and the peak memory read here repeat from
    // run to run. The remaining set-ups (for the `setup_s` median) come
    // after the checks.
    let mut setup_times = Vec::with_capacity(shape.setups);
    let (mut topo, first) = timed_setup(spec, shape.seed, &run_dir);
    setup_times.push(first);
    // Peak memory after a fixed amount of work, not after the timed
    // phase: a closed loop that runs faster would otherwise store more
    // and look worse.
    let rss_peak_mb = env::rss_peak_mb();

    let phase_s = if shape.trace {
        shape.seconds * TRACED_PHASE_SHARE
    } else {
        shape.seconds
    };
    let slice = Duration::from_secs_f64(phase_s / shape.slices as f64);
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = if shape.trace {
        topo.clients.iter().map(|_| Tracer::new(epoch)).collect()
    } else {
        Vec::new()
    };
    let mut scraper = shape.trace.then(|| Scraper::connect(&topo));
    let before = scraper.as_mut().map(Scraper::scrape);
    let phase = run::measure(&mut topo, slice, shape.slices, &mut tracers);
    let after = scraper.as_mut().map(Scraper::scrape);
    drop(scraper);

    let mut result = RunResult {
        workload: spec.name,
        correct: false,
        attempted: phase.attempted().max(1),
        failed: phase.failed(),
        metrics: BTreeMap::new(),
        aux: BTreeMap::new(),
        slice_ops_per_s: phase.slice_rates(None),
        problems: Vec::new(),
    };
    result
        .aux
        .insert("slice_spread_pct".into(), phase.slice_spread_pct());
    result.aux.insert("slice_s".into(), phase.slice_s);
    // The raw wall-clock figures behind the normalised metrics.
    let subject = spec.subject;
    for (name, value) in [
        ("raw_ops_per_s", stats::median(&phase.slice_rates(None))),
        ("raw_op_p50_ms", phase.latency_ms(subject, 0.50)),
        ("raw_op_p75_ms", phase.latency_ms(subject, 0.75)),
        ("calibration_op_us", stats::median(&phase.calibration_us())),
    ] {
        result.aux.insert(name.into(), value.unwrap_or(0.0));
    }
    result.aux.insert(
        "cpu_util".into(),
        phase.cpu_s / phase.wall_s.max(f64::MIN_POSITIVE),
    );
    let mut extra_acked = 0;
    if shape.trace {
        let (before, after) = (before.expect("scrape"), after.expect("scrape"));
        let mut replay_tracer = Tracer::new(epoch);
        let traced = traced_metrics(
            &mut topo,
            &phase,
            &before,
            &after,
            &mut replay_tracer,
            probes.expect("probes"),
        );
        extra_acked = traced.extra_acked;
        result.metrics = traced.metrics;
        if traced.replay_mismatches > 0 {
            result.problems.push(format!(
                "{} replayed views differ from datastore::shared_view",
                traced.replay_mismatches
            ));
        }
        tracers.push(replay_tracer);
        write_trace(&out, spec.name, &tracers);
    }

    let verdict = run::verify(topo, &phase, extra_acked);
    if !shape.trace {
        for _ in 1..shape.setups {
            let (again, timing) = timed_setup(spec, shape.seed, &run_dir);
            setup_times.push(timing);
            again.shut_down();
        }
        let _ = std::fs::remove_dir_all(&run_dir);
        let nominal: Vec<f64> = setup_times.iter().map(|t| t.nominal_s).collect();
        let setup_s = stats::median(&nominal).expect("set-up times");
        match run::end_to_end(spec, &phase, setup_s, rss_peak_mb) {
            Ok((metrics, counts)) => {
                result.metrics = metrics;
                for (name, n) in counts {
                    result.aux.insert(name, n as f64);
                }
            }
            Err(e) => result.problems.push(format!("statistic unsupported: {e}")),
        }
    }
    for (n, timing) in setup_times.iter().enumerate() {
        result.aux.insert(format!("setup_{n}_s"), timing.nominal_s);
        result.aux.insert(format!("raw_setup_{n}_s"), timing.wall_s);
    }
    result
        .aux
        .insert("verified_replies".into(), verdict.verified_replies as f64);
    if shape.trace {
        fill_from_verdict(&mut result.metrics, &verdict);
    }
    result.problems.extend(verdict.problems.iter().cloned());
    result.correct = result.problems.is_empty();
    result
}

fn fill_from_verdict(metrics: &mut Metrics, verdict: &Verdict) {
    metrics.insert("store.reopen_ms", verdict.reopen_ms);
    metrics.insert("store.disk_bytes_per_sample", verdict.disk_bytes_per_sample);
    metrics.insert("datastore.repl_drain_ms", verdict.repl_drain_ms);
    metrics.insert("broker.hits_per_search", verdict.hits_per_search);
    metrics.insert(
        "json.bytes_per_sample.query",
        verdict.bytes_per_sample_query,
    );
}

struct Traced {
    metrics: Metrics,
    extra_acked: u64,
    replay_mismatches: u64,
}

/// Every per-layer metric of a traced run; what the workload does not
/// exercise stays 0.
fn traced_metrics(
    topo: &mut workload::Topology,
    phase: &Phase,
    before: &layers::Scrape,
    after: &layers::Scrape,
    tracer: &mut Tracer,
    (fsync_us, cpu_ref_ms, rtt_us): (f64, f64, f64),
) -> Traced {
    let mut m: Metrics = PER_LAYER.iter().map(|p| (p.0, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        let slot = m
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        *slot = value;
    };
    let has = |class: Class| phase.count(class) > 0;
    let classes = [Class::Upload, Class::Query, Class::Search];

    // Client-observed latency per class: slice medians for p50/p75,
    // the whole phase for p99/max (informational).
    for class in classes.into_iter().filter(|c| has(*c)) {
        let all = phase.phase_latencies(class);
        let p99 = stats::percentile(&all, 0.99, 10).unwrap_or(0.0);
        let max = all.last().copied().unwrap_or(0.0);
        let p50 = phase.latency_ms(class, 0.50).unwrap_or(0.0);
        let p75 = phase.latency_ms(class, 0.75).unwrap_or(0.0);
        let c = class.as_str();
        set(&format!("client.{c}_p50_ms"), p50);
        set(&format!("client.{c}_p75_ms"), p75);
        set(&format!("client.{c}_p99_ms"), p99);
        set(&format!("client.{c}_max_ms"), max);
        set(&format!("lifecycle.{c}.tcp_us"), p50 * 1e3);
    }
    if has(Class::RulesSet) {
        let all = phase.phase_latencies(Class::RulesSet);
        set(
            "datastore.rules_set_us",
            stats::median(&all).unwrap_or(0.0) * 1e3,
        );
    }

    // (a) The servers' own counters across the measured phase. Server 0
    // is the broker, 1 the primary; `sensorsafe_net_*`, `_store_*`,
    // `_policy_*` and `_audit_*` are process-wide and ride on every
    // scrape.
    let broker = Delta::new(before, after, 0);
    let uploads = phase.count(Class::Upload) as f64;
    let queries = phase.count(Class::Query) as f64;
    set(
        "net.shed_total",
        broker.sum("sensorsafe_net_overload_shed_total", &[]),
    );
    // Connections accepted since the scraper's own: the clients dialled
    // before the phase, so anything here is an unexpected redial.
    set(
        "net.conn_fresh_total",
        topo.clients.len() as f64 + broker.sum("sensorsafe_net_connections_total", &[]),
    );
    set(
        "broker.handle_search_us",
        broker.mean(
            "sensorsafe_broker_request_seconds",
            &[("endpoint", "/api/search")],
        ) * 1e6,
    );
    set(
        "broker.handle_sync_us",
        broker.mean(
            "sensorsafe_broker_request_seconds",
            &[("endpoint", "/api/sync")],
        ) * 1e6,
    );
    if topo.primary.is_some() {
        let store = Delta::new(before, after, 1);
        let request_s = store.sum("sensorsafe_datastore_request_seconds_sum", &[]);
        let lock_s = store.sum("sensorsafe_datastore_lock_wait_seconds_sum", &[]);
        set(
            "datastore.lock_wait_ppm",
            if request_s > 0.0 {
                lock_s / request_s * 1e6
            } else {
                0.0
            },
        );
        set(
            "datastore.handle_upload_us",
            store.mean(
                "sensorsafe_datastore_request_seconds",
                &[("endpoint", "/api/upload")],
            ) * 1e6,
        );
        set(
            "datastore.handle_query_us",
            store.mean(
                "sensorsafe_datastore_request_seconds",
                &[("endpoint", "/api/query")],
            ) * 1e6,
        );
        if uploads > 0.0 {
            set(
                "store.merges_per_upload",
                store.sum("sensorsafe_store_segment_merges_total", &[]) / uploads,
            );
            set(
                "store.journal_fsyncs_per_upload",
                store.sum("sensorsafe_store_wal_fsyncs_total", &[]) / uploads,
            );
            set(
                "store.journal_batch_records",
                store.mean("sensorsafe_store_wal_commit_batch_records", &[]),
            );
            set(
                "store.journal_rotations",
                store.sum("sensorsafe_store_journal_rotations_total", &[]),
            );
            set(
                "store.checkpoints",
                store.sum("sensorsafe_store_journal_checkpoints_total", &[]),
            );
            set(
                "store.checkpoint_ms",
                store.mean("sensorsafe_store_journal_checkpoint_seconds", &[]) * 1e3,
            );
        }
        if queries > 0.0 {
            set(
                "store.scan_segments_per_query",
                store.mean("sensorsafe_store_query_scan_segments", &[]),
            );
            set(
                "store.ledger_fsyncs_per_query",
                store.sum("sensorsafe_audit_ledger_fsyncs_total", &[]) / queries,
            );
            set(
                "policy.closure_suppressed_per_query",
                store.sum("sensorsafe_policy_closure_suppressed_channels_total", &[]) / queries,
            );
        }
    }
    set("obsv.metrics_scrape_ms", after.ms);
    set("obsv.metrics_payload_kb", after.payload_kb);
    set("obsv.metric_series", after.series);

    // Odd slices recorded a span per op, even slices did not.
    let plain = stats::median(&phase.slice_rates(Some(0))).unwrap_or(0.0);
    let traced = stats::median(&phase.slice_rates(Some(1))).unwrap_or(0.0);
    set(
        "bench.trace_overhead_pct",
        if plain > 0.0 {
            (plain - traced) / plain * 100.0
        } else {
            0.0
        },
    );
    set("bench.slice_spread_pct", phase.slice_spread_pct());
    set(
        "bench.cpu_util",
        phase.cpu_s / phase.wall_s.max(f64::MIN_POSITIVE),
    );
    set(
        "bench.calibration_op_us",
        stats::median(&phase.calibration_us()).unwrap_or(0.0),
    );
    set("bench.env_fsync_us", fsync_us);
    set("bench.env_cpu_ref_ms", cpu_ref_ms);
    set("bench.env_loopback_rtt_us", rtt_us);

    // (b) Layer replays, single-threaded, nothing else running.
    let mut out = Traced {
        metrics: BTreeMap::new(),
        extra_acked: 0,
        replay_mismatches: 0,
    };
    let mut authenticate = Vec::new();
    let mut lifecycle = |set: &mut dyn FnMut(&str, f64), class: Class, life: &layers::Lifecycle| {
        let c = class.as_str();
        let tcp_us = phase.latency_ms(class, 0.50).unwrap_or(0.0) * 1e3;
        set(&format!("lifecycle.{c}.handle_us"), life.handle_us);
        set(&format!("lifecycle.{c}.layers_us"), life.layers_us);
        set(
            &format!("lifecycle.{c}.unattributed_us"),
            life.handle_us - life.layers_us,
        );
        set(&format!("net.tcp_overhead_us.{c}"), tcp_us - life.handle_us);
        authenticate.push(life.layer("auth.authenticate"));
    };
    let mut segment = None;
    if has(Class::Upload) {
        let replay = layers::replay_upload(topo, tracer, REPLAYED_UPLOADS);
        let life = &replay.lifecycle;
        lifecycle(&mut set, Class::Upload, life);
        set("net.req_decode_us.upload", life.layer("net.req_decode"));
        set("json.parse_us.upload", life.layer("json.parse"));
        set(
            "types.segment_from_json_us",
            life.layer("types.segment_from_json"),
        );
        set("store.insert_us", life.layer("store.insert"));
        set(
            "store.journal_commit_us",
            life.layer("store.journal_commit"),
        );
        set(
            "store.journal_bytes_per_upload",
            replay.journal_bytes_per_upload,
        );
        set(
            "datastore.repl_bytes_per_upload",
            if topo.replica.is_some() {
                replay.repl_bytes_per_upload
            } else {
                0.0
            },
        );
        segment = Some(replay.segment);
        out.extra_acked = REPLAYED_UPLOADS as u64;
    }
    if has(Class::Query) {
        let replay = layers::replay_query(topo, tracer, 64);
        let life = &replay.lifecycle;
        lifecycle(&mut set, Class::Query, life);
        set("net.resp_encode_us.query", life.layer("net.resp_encode"));
        set("json.ser_us.query", life.layer("json.ser"));
        set("store.query_us", life.layer("store.query"));
        set("store.ledger_append_us", life.layer("store.ledger_append"));
        set("policy.evaluate_us", life.layer("policy.evaluate"));
        set("policy.enforce_us", life.layer("policy.enforce"));
        set("policy.windows_per_query", replay.windows_per_query);
        set("policy.compile_us", replay.compile_us);
        set("datastore.shared_view_us", replay.shared_view_us);
        set(
            "datastore.view_to_json_us",
            life.layer("datastore.view_to_json"),
        );
        set("client.view_from_json_us", replay.view_from_json_us);
        // The read path's segments are the large ones; prefer them.
        segment = Some(replay.segment);
        out.replay_mismatches = replay.mismatches;
    }
    if has(Class::Search) {
        let replay = layers::replay_search(topo, tracer);
        let life = &replay.lifecycle;
        lifecycle(&mut set, Class::Search, life);
        set("net.resp_encode_us.search", life.layer("net.resp_encode"));
        set("json.ser_us.search", life.layer("json.ser"));
        set("policy.snapshot_us", life.layer("policy.snapshot"));
        set("policy.index_sync_us", replay.index_sync_us);
        set("policy.search_ms_at_1k", replay.search_ms_at[0]);
        set("policy.search_ms_at_10k", replay.search_ms_at[1]);
        set("policy.search_ms_at_100k", replay.search_ms_at[2]);
    }
    if let Some(costs) = segment {
        set("store.codec_encode_us", costs.codec_encode_us);
        set("store.codec_decode_us", costs.codec_decode_us);
        set("types.segment_to_json_us", costs.to_json_us);
    }
    // `KeyRing::authenticate` at the workload's ring size; the subject
    // class's replay is the last one pushed.
    if let Some(us) = authenticate.last() {
        set("auth.authenticate_us", *us);
    }
    out.metrics = m;
    out
}

fn write_trace(out: &std::path::Path, workload: &str, tracers: &[Tracer]) {
    let threads: Vec<Value> = tracers.iter().map(Tracer::to_json).collect();
    let doc = json!({
        "workload": workload,
        "note": "one span list per client thread, then the layer replay; times are ns since the phase epoch",
        "threads": (Value::Array(threads)),
    });
    let path = out.join(format!("trace-{workload}.json"));
    std::fs::write(&path, doc.to_string()).expect("write trace file");
    println!("trace written to {}", path.display());
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        None => default,
        Some(text) => text
            .parse()
            .unwrap_or_else(|_| usage(&format!("bad value for {name}: {text}"))),
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("perf: {problem}");
    eprintln!(
        "usage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      perf all [--smoke] [--seed n] [--seconds s] [--trace 0|1] [--json path]\n\
         \x20      perf aa --sets <k> [--seed n] [--seconds s] [--json path]\n\
         \x20      perf check a.json b.json\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2);
}

fn is_smoke(args: &[String]) -> bool {
    args.iter().any(|a| a == "--smoke")
}

fn shape_from(args: &[String]) -> Shape {
    let smoke = is_smoke(args);
    let trace = parse_flag::<u8>(args, "--trace", 0) != 0;
    Shape {
        seed: parse_flag(args, "--seed", 1),
        // Smoke: two 1 s slices, one set-up.
        seconds: parse_flag(args, "--seconds", if smoke { 2.0 } else { 20.0 }),
        trace,
        slices: if smoke { 2 } else { SLICES },
        // `setup_s` is an end-to-end metric: traced runs set up once.
        setups: if smoke || trace { 1 } else { SETUPS },
    }
}

fn environment() -> Value {
    json!({
        "rustc": (env::rustc_version()),
        "nproc": (std::thread::available_parallelism().map_or(1, |n| n.get())),
        "loadavg": (env::loadavg()),
        "topology": "loopback TCP; servers and load generator in one process",
        "flush_policy": "GroupCommitConfig::default(), JournalConfig::default(), fsync on",
        "data_dir": (out_root().display().to_string()),
    })
}

/// Runs all four workloads, each in a process of its own so that peak
/// memory and allocator state are per workload, exactly as when the
/// driver runs them; returns the set as a result-file value.
fn run_set(shape: Shape, smoke: bool) -> (Value, bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut workloads = sensorsafe_core::jsonlib::Map::new();
    let mut good = true;
    let env_before = environment();
    let cpu_ref_before = env::cpu_ref_ms();
    for spec in &WORKLOADS {
        let record = out_root().join(format!("record-{}-{}.json", std::process::id(), spec.name));
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", spec.name, "--record"])
            .arg(&record)
            .args(["--seed", &shape.seed.to_string()])
            .args(["--seconds", &shape.seconds.to_string()])
            .args(["--trace", if shape.trace { "1" } else { "0" }]);
        if smoke {
            child.arg("--smoke");
        }
        let status = child.status().expect("spawn workload run");
        let run = std::fs::read_to_string(&record)
            .ok()
            .and_then(|text| sensorsafe_core::jsonlib::parse(&text).ok())
            .unwrap_or(Value::Null);
        let _ = std::fs::remove_file(&record);
        good &= status.success()
            && run["correct"].as_bool() == Some(true)
            && run["failed"].as_u64() == Some(0);
        workloads.insert(spec.name.to_string(), run);
    }
    let set = json!({
        "seed": (shape.seed),
        "seconds": (shape.seconds),
        "trace": (u64::from(shape.trace)),
        "slices": (shape.slices),
        "setups_per_run": (shape.setups),
        "env": env_before,
        "env_fsync_us": (env::fsync_us(&out_root())),
        "env_cpu_ref_ms": {"before": cpu_ref_before, "after": (env::cpu_ref_ms())},
        "loadavg_after": (env::loadavg()),
        "workloads": (Value::Object(workloads)),
    });
    (set, good)
}

fn write_json(args: &[String], value: &Value) {
    if let Some(path) = flag(args, "--json") {
        let text = sensorsafe_core::jsonlib::to_string_pretty(value);
        std::fs::write(path, text + "\n").expect("write --json file");
        println!("wrote {path}");
    }
}

fn main_all(args: &[String]) -> i32 {
    let started = Instant::now();
    let (set, good) = run_set(shape_from(args), is_smoke(args));
    write_json(args, &set);
    println!(
        "set finished in {:.1} s: {}",
        started.elapsed().as_secs_f64(),
        if good { "all correct" } else { "PROBLEMS" }
    );
    i32::from(!good)
}

/// Bound calibration: `--sets` full sets back to back; per pair, each
/// set's value, the across-set median and the largest relative
/// deviation from it.
fn main_aa(args: &[String]) -> i32 {
    let sets: usize = parse_flag(args, "--sets", 5);
    let shape = shape_from(args);
    let mut runs = Vec::new();
    let mut good = true;
    for n in 0..sets {
        println!("== set {} of {sets} ==", n + 1);
        let (set, ok) = run_set(shape, is_smoke(args));
        good &= ok;
        runs.push(set);
    }
    let mut pairs = sensorsafe_core::jsonlib::Map::new();
    println!(
        "{:<14} {:<18} {:>12} {:>9} {:>7}  values",
        "workload", "metric", "median", "max dev", "bound"
    );
    for spec in &WORKLOADS {
        for (name, _, _, bound) in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|set| {
                    set.path(&format!("workloads.{}", spec.name))
                        .and_then(|run| run.path(&format!("metrics.{name}.value")))
                        .and_then(Value::as_f64)
                })
                .collect();
            let Ok(mid) = stats::median(&values) else {
                continue;
            };
            let deviation = values
                .iter()
                .map(|v| (v - mid).abs() / mid.abs().max(f64::MIN_POSITIVE))
                .fold(0.0, f64::max);
            good &= bound >= 2.0 * deviation;
            println!(
                "{:<14} {:<18} {:>12.4} {:>8.2}% {:>6.1}%  {}",
                spec.name,
                name,
                mid,
                deviation * 100.0,
                bound * 100.0,
                values
                    .iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            pairs.insert(
                format!("{}/{name}", spec.name),
                json!({
                    "values": (Value::Array(values.iter().map(|v| Value::from(*v)).collect())),
                    "median": mid,
                    "max_relative_deviation": deviation,
                    "bound": bound,
                    "bound_holds_2x": (bound >= 2.0 * deviation),
                }),
            );
        }
    }
    write_json(
        args,
        &json!({
            "kind": "A/A bound calibration: identical code, sets back to back",
            "sets": sets,
            "seed": (shape.seed),
            "seconds": (shape.seconds),
            "env": (environment()),
            "pairs": (Value::Object(pairs)),
        }),
    );
    i32::from(!good)
}

fn main_check(args: &[String]) -> i32 {
    let load = |path: &String| -> Value {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
        sensorsafe_core::jsonlib::parse(&text)
            .unwrap_or_else(|e| usage(&format!("{path} is not JSON: {e}")))
    };
    let [a, b] = args else {
        usage("check takes two result files")
    };
    let (rows, problems) = check::compare(&load(a), &load(b));
    check::report(&rows, &problems)
}

/// The driver's form: one workload, one run, the contract's last line.
fn main_run(args: &[String]) -> i32 {
    let name = flag(args, "--workload").unwrap_or_else(|| usage("missing --workload"));
    let spec = spec::workload(name).unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    let shape = shape_from(args);
    println!(
        "{}: {} client(s), closed loop, {} slices of {:.2} s, {} set-up(s), seed {}, trace {}",
        spec.name,
        spec.clients,
        shape.slices,
        shape.seconds * if shape.trace { TRACED_PHASE_SHARE } else { 1.0 } / shape.slices as f64,
        shape.setups,
        shape.seed,
        u8::from(shape.trace)
    );
    println!("why: {}", spec.why);
    println!("flush policy: GroupCommitConfig::default(), JournalConfig::default(), fsync on");
    let result = run_workload(spec, shape);
    result.print();
    if let Some(path) = flag(args, "--record") {
        std::fs::write(path, result.record_json(spec.clients).to_string()).expect("write --record");
    }
    println!("{}", result.contract_json());
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("all") => main_all(&args[1..]),
        Some("aa") => main_aa(&args[1..]),
        Some("check") => main_check(&args[1..]),
        Some(first) if first.starts_with("--") => main_run(&args),
        _ => usage("missing command"),
    };
    std::process::exit(code);
}

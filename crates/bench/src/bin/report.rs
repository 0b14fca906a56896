//! Non-timing experiment metrics: storage sizes, segment counts, data-
//! volume savings, broker byte accounting, and search-result shapes.
//!
//! Criterion measures latencies; this binary prints the counted
//! quantities EXPERIMENTS.md reports, one table per experiment id.
//!
//! ```text
//! cargo run -p sensorsafe-bench --bin report --release
//! ```

use sensorsafe_bench::{
    alice_scenario, chest_packets, durable_workload, durable_workload_with, mixed_workload,
    run_durable_uploads, run_many_account_uploads, run_mixed_traffic, segment_store_with,
    synthetic_rules, synthetic_rules_unshared, tuple_store_with,
};
use sensorsafe_core::datastore::DataStoreConfig;
use sensorsafe_core::net::{LocalTransport, Request, Service, Transport};
use sensorsafe_core::policy::{ConsumerCtx, PrivacyRule, RuleIndex, SearchQuery};
use sensorsafe_core::store::{GroupCommitConfig, MergePolicy, Query};
use sensorsafe_core::types::{ContextKind, ContributorId, RepeatTime};
use sensorsafe_core::{json, ContributorDevice, Deployment};
use std::sync::Arc;

fn f5_storage_table() {
    println!("== F5: storage size, wave segments vs per-sample tuples ==");
    println!("workload: 1 hour of 50 Hz ECG+respiration (180,000 samples)");
    let packets = chest_packets(2812);
    let tuples = tuple_store_with(&packets);
    println!("{:<36} {:>12} {:>10}", "representation", "bytes", "records");
    println!(
        "{:<36} {:>12} {:>10}",
        "per-sample tuples (baseline)",
        tuples.approx_bytes(),
        tuples.len()
    );
    for (name, policy) in [
        ("wave segments, unmerged (64/pkt)", MergePolicy::disabled()),
        ("wave segments, merge cap 8192", MergePolicy::default()),
        (
            "wave segments, unbounded merge",
            MergePolicy {
                enabled: true,
                max_rows: usize::MAX,
            },
        ),
    ] {
        let store = segment_store_with(&packets, policy);
        let stats = store.stats();
        println!(
            "{:<36} {:>12} {:>10}",
            name, stats.approx_bytes, stats.segments
        );
    }
    let merged = segment_store_with(&packets, MergePolicy::default());
    let ratio = tuples.approx_bytes() as f64 / merged.stats().approx_bytes as f64;
    println!("--> tuples use {ratio:.1}x the bytes of merged wave segments\n");
}

fn a1_merge_table() {
    println!("== A1: merge optimization, segment counts ==");
    let packets = chest_packets(2812);
    println!("{:<28} {:>10} {:>8}", "merge policy", "segments", "merges");
    for (name, policy) in [
        ("disabled", MergePolicy::disabled()),
        (
            "cap 512",
            MergePolicy {
                enabled: true,
                max_rows: 512,
            },
        ),
        ("cap 8192 (default)", MergePolicy::default()),
        (
            "unbounded",
            MergePolicy {
                enabled: true,
                max_rows: usize::MAX,
            },
        ),
    ] {
        let store = segment_store_with(&packets, policy);
        let stats = store.stats();
        println!("{:<28} {:>10} {:>8}", name, stats.segments, stats.merges);
    }
    println!();
}

/// Contributor index → that contributor's rule list.
type RulesOf = fn(usize) -> Vec<PrivacyRule>;

fn a2_search_table() {
    println!("== A2: contributor search, result shape and work done ==");
    let paper_query = SearchQuery {
        consumer: ConsumerCtx::user("bob"),
        raw_channels: vec!["ecg".into(), "respiration".into()],
        location_labels: vec!["work".into()],
        repeat: Some(RepeatTime::weekdays_nine_to_six()),
        ..Default::default()
    };
    let driving_query = SearchQuery {
        consumer: ConsumerCtx::user("bob"),
        raw_channels: vec!["ecg".into(), "respiration".into()],
        active_contexts: vec![ContextKind::Drive],
        ..Default::default()
    };
    // Both ends of what a search costs: four rule lists shared by the
    // whole population (at two sizes: the work does not grow with it),
    // and a list of one's own per contributor.
    let mirrors: [(usize, &str, RulesOf); 3] = [
        (1_000, "4 classes, lists shared", |i| synthetic_rules(i, 4)),
        (100_000, "4 classes, lists shared", |i| {
            synthetic_rules(i, 4)
        }),
        (1_000, "4 classes, every list unique", |i| {
            synthetic_rules_unshared(i, 4)
        }),
    ];
    println!(
        "{:>12}  {:<30} {:>14}  {:<42} {:>15} {:>6}",
        "contributors", "mirror", "distinct lists", "query", "lists evaluated", "hits"
    );
    for (n, population, rules_of) in mirrors {
        let mut index = RuleIndex::new();
        for i in 0..n {
            index.sync(
                ContributorId::new(format!("contributor-{i:06}")),
                1,
                rules_of(i),
            );
        }
        for (name, query) in [
            ("paper (ECG+RSP at 'work', weekdays 9-6)", &paper_query),
            ("driving-stress (ECG+RSP while driving)", &driving_query),
        ] {
            let mut hits = 0;
            let evaluated = index.search_each(query, |_| hits += 1);
            println!(
                "{:>12}  {:<30} {:>14}  {:<42} {:>15} {:>6}",
                n,
                population,
                index.distinct_rule_sets(),
                name,
                evaluated,
                hits
            );
        }
    }
    println!();
}

fn a3_savings_table() {
    println!("== A3: privacy-rule-aware collection savings ==");
    let scenario = alice_scenario(9);
    let runs: Vec<(&str, bool, sensorsafe_core::Value)> = vec![
        (
            "plain (upload everything)",
            false,
            json!([
                {"Action": "Allow"},
                {"Context": ["Drive"], "Action": "Deny"},
            ]),
        ),
        (
            "rule-aware, deny-while-driving",
            true,
            json!([
                {"Action": "Allow"},
                {"Context": ["Drive"], "Action": "Deny"},
            ]),
        ),
        (
            "rule-aware, deny drive+conversation",
            true,
            json!([
                {"Action": "Allow"},
                {"Context": ["Drive"], "Action": "Deny"},
                {"Context": ["Conversation"], "Action": "Deny"},
            ]),
        ),
        ("rule-aware, nothing shared", true, json!([])),
    ];
    println!(
        "{:<38} {:>9} {:>9} {:>9} {:>8} {:>10}",
        "configuration", "collected", "uploaded", "discarded", "off(s)", "bytes"
    );
    for (name, aware, rules) in runs {
        let mut deployment = Deployment::in_process();
        let store = deployment.add_store("s1");
        let alice = deployment.register_contributor("s1", "alice").unwrap();
        alice.set_rules(&rules).unwrap();
        let transport: Arc<dyn Transport> = Arc::new(LocalTransport::new(Arc::new(store)));
        let device =
            ContributorDevice::new(transport, alice.api_key.clone()).with_rule_aware(aware);
        let (m, _) = device.run_scenario(&scenario).unwrap();
        println!(
            "{:<38} {:>9} {:>9} {:>9} {:>8} {:>10}",
            name,
            m.collected_samples,
            m.uploaded_samples,
            m.discarded_samples,
            m.sensor_off_secs,
            m.uploaded_bytes
        );
    }
    println!();
}

fn f1_byte_accounting() {
    println!("== F1: broker vs store bytes on the download path ==");
    let mut deployment = Deployment::in_process();
    deployment.add_store("s1");
    for i in 0..4 {
        let handle = deployment
            .register_contributor("s1", &format!("c{i}"))
            .unwrap();
        handle.upload_scenario(&alice_scenario(i)).unwrap();
        handle.set_rules(&json!([{"Action": "Allow"}])).unwrap();
    }
    let bob = deployment.register_consumer("bob").unwrap();
    bob.add_contributors(&["c0", "c1", "c2", "c3"]).unwrap();
    // Access-list payload (the broker's entire role on the data path).
    let access = bob.access_list().unwrap();
    let access_bytes: usize = access
        .iter()
        .map(|a| a.contributor.len() + a.store_addr.len() + a.api_key.len())
        .sum();
    let results = bob.download_all(&Query::all()).unwrap();
    let data_samples: usize = results.iter().map(|(_, v)| v.raw_samples()).sum();
    // A raw f32 sample is 4 bytes before JSON framing; JSON inflates ~5x.
    println!("broker-served access metadata: ~{access_bytes} bytes");
    println!("store-served sensor payload:   {data_samples} samples");
    println!("--> data path bypasses the broker; broker bytes stay O(contributors), not O(data)\n");
}

fn c2_durable_upload_table() {
    println!("== C2: durable uploads, group commit vs per-record fsync ==");
    println!(
        "environment: {} CPU(s) visible to this process",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let registry = sensorsafe_core::obsv::global();
    let fsyncs = registry.counter(
        "sensorsafe_store_wal_fsyncs_total",
        "fsync calls issued by write-ahead logs.",
        &[],
    );
    let uploads = registry.counter(
        "sensorsafe_datastore_durable_uploads_total",
        "Upload requests acked after a durable WAL commit.",
        &[],
    );
    let commit_latency = || {
        registry
            .histogram(
                "sensorsafe_store_wal_commit_seconds",
                "WAL group-commit batch latency (write + fsync).",
                &[],
                None,
            )
            .snapshot()
    };
    let ops = 100;
    let contributors = 2;
    println!(
        "{:<16} {:>8} {:>10} {:>8} {:>8} {:>12} {:>12}",
        "config", "threads", "req/s", "uploads", "fsyncs", "fsync/up", "commit mean"
    );
    for (label, config) in [
        ("unbatched", GroupCommitConfig::unbatched()),
        ("batch64_500us", GroupCommitConfig::default()),
        (
            "batch256_2ms",
            GroupCommitConfig {
                max_batch: 256,
                max_delay: std::time::Duration::from_millis(2),
            },
        ),
    ] {
        for threads in [1usize, 4, 8] {
            let workload = durable_workload(config, contributors);
            run_durable_uploads(&workload, threads, 10); // warm-up, discarded
            let (f0, u0, l0) = (fsyncs.get(), uploads.get(), commit_latency());
            let elapsed = run_durable_uploads(&workload, threads, ops);
            let df = fsyncs.get() - f0;
            let du = uploads.get() - u0;
            // The histogram is cumulative; mean over the delta of
            // (sum, count) attributes latency to this run alone.
            let l1 = commit_latency();
            let commits = l1.count().saturating_sub(l0.count());
            let mean_ms = if commits > 0 {
                (l1.sum() - l0.sum()) / commits as f64 * 1e3
            } else {
                0.0
            };
            let rate = (threads * ops) as f64 / elapsed.as_secs_f64();
            println!(
                "{:<16} {:>8} {:>10.0} {:>8} {:>8} {:>12.3} {:>10.3}ms",
                label,
                threads,
                rate,
                du,
                df,
                df as f64 / du as f64,
                mean_ms
            );
        }
    }
    println!("(fsync/up < 1 at threads >= 4 is group commit coalescing concurrent acks)");
    println!();
}

fn c4_store_wide_group_commit_table() {
    use sensorsafe_core::store::JournalConfig;
    println!("== C4: store-wide group commit, many accounts x low per-account rate ==");
    println!(
        "environment: {} CPU(s) visible to this process",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "shape: every contributor uploads one packet per round (a 1 Hz fleet\n\
         compressed in time) — no account ever has two uploads in flight, so\n\
         only cross-account batching can coalesce fsyncs"
    );
    let registry = sensorsafe_core::obsv::global();
    let fsyncs = registry.counter(
        "sensorsafe_store_wal_fsyncs_total",
        "fsync calls issued by write-ahead logs.",
        &[],
    );
    let uploads = registry.counter(
        "sensorsafe_datastore_durable_uploads_total",
        "Upload requests acked after a durable WAL commit.",
        &[],
    );
    // More workers than a single fsync can retire: the commit thread
    // batches every upload staged while the previous fsync was in
    // flight, so in-flight depth bounds the achievable coalescing.
    let threads = 32;
    println!(
        "{:<16} {:>9} {:>10} {:>8} {:>8} {:>12}",
        "commit config", "contribs", "req/s", "uploads", "fsyncs", "fsync/up"
    );
    let configs = [
        ("batch64_500us", GroupCommitConfig::default()),
        (
            "batch256_2ms",
            GroupCommitConfig {
                max_batch: 256,
                max_delay: std::time::Duration::from_millis(2),
            },
        ),
    ];
    for (commit_label, commit) in configs {
        for contributors in [100usize, 1000] {
            let workload = durable_workload_with(
                DataStoreConfig {
                    journal: JournalConfig {
                        commit,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                contributors,
            );
            run_many_account_uploads(&workload, threads, 0, 1); // warm-up, discarded
            let (f0, u0) = (fsyncs.get(), uploads.get());
            let elapsed = run_many_account_uploads(&workload, threads, 1, 3);
            let df = fsyncs.get() - f0;
            let du = uploads.get() - u0;
            println!(
                "{:<16} {:>9} {:>10.0} {:>8} {:>8} {:>12.3}",
                commit_label,
                contributors,
                du as f64 / elapsed.as_secs_f64(),
                du,
                df,
                df as f64 / du as f64
            );
        }
    }
    // Recovery-time probe: rotation + checkpoints bound replay to the
    // checkpoint snapshot plus the tail segments — segments a checkpoint
    // covers are skipped wholesale at reopen. The workload drives
    // re-enrollment cycles (upload, `/repl/reset` wipe, upload again):
    // live state stays one cycle's worth while journal history grows
    // with every cycle, which is exactly the shape where a naive
    // full-log replay (the control rig, rotation disabled) degrades
    // linearly and a checkpointed reopen stays flat.
    println!(
        "\n{:<34} {:>9} {:>9} {:>12} {:>10} {:>8}",
        "journal recovery rig", "history", "live", "replay ms", "live segs", "ckpt'd"
    );
    let rigs = [
        (
            "rotate 256 KiB + ckpt",
            JournalConfig {
                rotate_bytes: 256 * 1024,
                ..Default::default()
            },
        ),
        (
            "rotation disabled",
            JournalConfig {
                rotate_bytes: u64::MAX,
                rotate_records: u64::MAX,
                ..Default::default()
            },
        ),
    ];
    let contributors = 128;
    let live_rounds = 4;
    for (label, journal) in rigs {
        for cycles in [1usize, 4, 16] {
            let mut workload = durable_workload_with(
                DataStoreConfig {
                    journal,
                    ..Default::default()
                },
                contributors,
            );
            for cycle in 0..cycles {
                run_many_account_uploads(&workload, threads, cycle * live_rounds, live_rounds);
                if cycle + 1 < cycles {
                    // Operator wipe between cycles: the account's prior
                    // records become dead history the checkpoint drops.
                    for (name, _) in &workload.contributors {
                        let resp =
                            workload
                                .store
                                .handle(&sensorsafe_core::net::Request::post_json(
                                    "/repl/reset",
                                    &sensorsafe_core::json!({
                                        "key": (workload.admin_key.clone()),
                                        "contributor": (name.clone()),
                                        "epoch": 0,
                                    }),
                                ));
                        assert!(resp.status.is_success(), "re-enrollment wipe failed");
                    }
                }
            }
            let replay = workload.restart();
            let stats = workload.store.journal_stats().expect("durable store");
            println!(
                "{:<34} {:>9} {:>9} {:>12.2} {:>10} {:>8}",
                format!("{label}, {cycles} cycles"),
                cycles * live_rounds * contributors,
                live_rounds * contributors,
                replay.as_secs_f64() * 1e3,
                stats.live_segments,
                stats.checkpointed_through
            );
        }
    }
    println!(
        "(history = uploads ever journaled, live = uploads surviving the last wipe;\n\
         flat replay ms down the checkpointed rows = reopen bounded to ckpt + tail)"
    );
    println!();
}

/// Child-process client for the C3 soak. The container's 20,000-fd
/// budget cannot hold ~10k server-side descriptors *and* ~10k client
/// sockets in one process, so the report binary re-execs itself
/// (`report c3-client <addr> <conns>`) and each child owns a slice of
/// the client connections. Protocol over the pipes: the child prints
/// `ready <n>` once all connections are open and proven live, waits for
/// any line on stdin, drives one final round over every connection, and
/// prints `done`.
fn c3_client_main(addr: &str, conns: usize) {
    use std::io::{BufRead, Write};
    let mut held = sensorsafe_bench::open_soak_conns(addr, conns).expect("c3 client connect");
    println!("ready {conns}");
    std::io::stdout().flush().expect("c3 client stdout");
    let mut line = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut line)
        .expect("c3 parent handshake");
    sensorsafe_bench::soak_round(&mut held).expect("c3 client final round");
    println!("done");
}

fn c3_evented_core_table() {
    use sensorsafe_bench::rss_kb;
    use sensorsafe_core::net::{EventedConfig, Server};
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

    println!("== C3: evented core, concurrent keep-alive connections at flat memory ==");
    println!(
        "environment: {} CPU(s) visible to this process",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    struct Client {
        child: Child,
        stdin: ChildStdin,
        stdout: BufReader<ChildStdout>,
    }
    let spawn_client = |addr: &str, conns: usize| -> Client {
        let exe = std::env::current_exe().expect("current_exe");
        let mut child = Command::new(exe)
            .args(["c3-client", addr, &conns.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn c3 client");
        let stdin = child.stdin.take().expect("client stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("client stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("client ready line");
        assert_eq!(line.trim(), format!("ready {conns}"), "client handshake");
        Client {
            child,
            stdin,
            stdout,
        }
    };
    // Releasing a client drives one final request over every one of its
    // connections — proof that each is still concurrently served, not
    // merely open.
    let release_client = |mut client: Client| {
        writeln!(client.stdin, "go").expect("client go");
        let mut line = String::new();
        client
            .stdout
            .read_line(&mut line)
            .expect("client done line");
        assert_eq!(line.trim(), "done", "client final round");
        assert!(client.child.wait().expect("client exit").success());
    };
    let print_row = |label: &str, base_kb: u64, conns: usize| {
        let kb = rss_kb();
        let delta = kb.saturating_sub(base_kb);
        let per_conn = if conns > 0 {
            format!("{:.2}", delta as f64 / conns as f64)
        } else {
            "-".into()
        };
        println!("{label:<34} {kb:>10} {delta:>11} {per_conn:>13}");
    };

    // --- evented store: 4 children x 2,560 = 10,240 connections ---
    let (store, _admin) = sensorsafe_core::datastore::DataStoreService::new(Default::default());
    let config = EventedConfig {
        handler_threads: 8,
        // The staircase below holds connections idle for minutes while
        // later children ramp; reaping mid-measurement would deflate
        // the concurrency claim.
        idle_timeout: std::time::Duration::from_secs(600),
        ..EventedConfig::default()
    };
    let mut server =
        Server::bind_evented("127.0.0.1:0", config, Arc::new(store)).expect("evented store");
    let addr = server.addr_string();
    let open_gauge = sensorsafe_core::obsv::global().gauge(
        "sensorsafe_net_open_connections",
        "Currently open server-side connections across all servers in \
         this process.",
        &[],
    );
    println!(
        "{:<34} {:>10} {:>11} {:>13}",
        "held connections", "rss KiB", "delta KiB", "KiB per conn"
    );
    let base_kb = rss_kb();
    print_row("0 (evented store idle)", base_kb, 0);
    let mut clients = Vec::new();
    let mut held = 0usize;
    for _ in 0..4 {
        clients.push(spawn_client(&addr, 2_560));
        held += 2_560;
        print_row(&format!("{held} (evented)"), base_kb, held);
    }
    println!(
        "server-side open-connection gauge at peak: {}",
        open_gauge.get()
    );
    for client in clients.drain(..) {
        release_client(client); // final round: all 10,240 still served
    }
    server.shutdown();

    println!("--> 10,240 keep-alive connections on 8 handler threads\n");
}

fn obsv_overhead_table() {
    println!("== O1: observability overhead on the query hot path ==");
    // Each configuration gets its own deployment because the audit
    // ledger is not behind the metrics kill switch (accountability is
    // not telemetry): the baseline must avoid it structurally, via an
    // in-memory store, rather than by flipping the registry off.
    //
    // Run-to-run noise on a ~30 ms query is larger than the 5% budget,
    // so the harness interleaves the configurations over several rounds
    // and reports each configuration's best round — the estimator least
    // disturbed by scheduler and allocator interference.
    let ledger_dir = std::env::temp_dir().join(format!("sensorsafe-o1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ledger_dir);
    std::fs::create_dir_all(&ledger_dir).expect("O1 ledger dir");

    let wire = |config: sensorsafe_core::datastore::DataStoreConfig| {
        let mut deployment = Deployment::in_process();
        let store = deployment.add_store_with("s1", config);
        let alice = deployment.register_contributor("s1", "alice").unwrap();
        alice.upload_scenario(&alice_scenario(3)).unwrap();
        alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();
        let bob = deployment.register_consumer("bob").unwrap();
        bob.add_contributors(&["alice"]).unwrap();
        (store, bob)
    };
    let rigs = [
        (
            "kill switch off, in-memory ledger",
            false,
            wire(Default::default()),
        ),
        (
            "metrics+tracing, in-memory ledger",
            true,
            wire(Default::default()),
        ),
        (
            "metrics+tracing+durable audit ledger",
            true,
            wire(sensorsafe_core::datastore::DataStoreConfig {
                data_dir: Some(ledger_dir.clone()),
                slow_request_threshold: Some(std::time::Duration::from_millis(250)),
                ..Default::default()
            }),
        ),
    ];

    const ROUNDS: usize = 5;
    const ITERATIONS: usize = 30;
    let mut best = [f64::INFINITY; 3];
    for round in 0..=ROUNDS {
        for (i, (_, enabled, (store, bob))) in rigs.iter().enumerate() {
            sensorsafe_core::obsv::global().set_enabled(*enabled);
            store.registry().set_enabled(*enabled);
            let started = std::time::Instant::now();
            for _ in 0..ITERATIONS {
                let results = bob.download_all(&Query::all()).unwrap();
                assert!(results[0].1.raw_samples() > 0);
            }
            let mean_ms = started.elapsed().as_secs_f64() * 1e3 / ITERATIONS as f64;
            // Round 0 is warm-up (caches, lazy series registration).
            if round > 0 && mean_ms < best[i] {
                best[i] = mean_ms;
            }
        }
    }
    sensorsafe_core::obsv::global().set_enabled(true);
    let _ = std::fs::remove_dir_all(&ledger_dir);

    for (i, (label, _, _)) in rigs.iter().enumerate() {
        println!("{label:<44} {:>9.3} ms/query (best of {ROUNDS})", best[i]);
    }
    let metrics_overhead = (best[1] - best[0]) / best[0] * 100.0;
    let full_overhead = (best[2] - best[0]) / best[0] * 100.0;
    println!("--> metrics+tracing overhead:       {metrics_overhead:+.2}% (budget: <5%)");
    println!("--> full stack incl. audit ledger:  {full_overhead:+.2}% (budget: <5%)\n");
}

fn fleet_scrape_overhead_table() {
    println!("== O2: fleet scrape overhead on store query latency ==");
    // Same estimator as O1: the configurations are interleaved over
    // several rounds and each reports its best round, because run-to-run
    // noise on a ~30 ms query dwarfs the 5% budget. The scraped rigs run
    // the broker's background scraper at intervals far more aggressive
    // than the 5 s default, so the measured overhead is an upper bound:
    // every sweep costs the store two extra requests (/healthz +
    // /metrics) that contend with the query workload.
    use sensorsafe_core::broker::FleetConfig;
    let wire = |fleet: Option<FleetConfig>| {
        let scraped = fleet.is_some();
        let mut deployment = match fleet {
            Some(fleet) => Deployment::in_process_with_fleet(fleet),
            None => Deployment::in_process(),
        };
        deployment.add_store("s1");
        let alice = deployment.register_contributor("s1", "alice").unwrap();
        alice.upload_scenario(&alice_scenario(3)).unwrap();
        alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();
        let bob = deployment.register_consumer("bob").unwrap();
        bob.add_contributors(&["alice"]).unwrap();
        if scraped {
            deployment.start_fleet_scraper();
        }
        (deployment, bob)
    };
    let scrape_config = |millis: u64| FleetConfig {
        scrape_interval: std::time::Duration::from_millis(millis),
        ..FleetConfig::default()
    };
    let rigs = [
        ("no fleet scraping", wire(None)),
        (
            "scraped every 100 ms (50x default)",
            wire(Some(scrape_config(100))),
        ),
        (
            "scraped every 10 ms (500x default)",
            wire(Some(scrape_config(10))),
        ),
    ];

    const ROUNDS: usize = 5;
    const ITERATIONS: usize = 30;
    let mut best = [f64::INFINITY; 3];
    for round in 0..=ROUNDS {
        for (i, (_, (_deployment, bob))) in rigs.iter().enumerate() {
            let started = std::time::Instant::now();
            for _ in 0..ITERATIONS {
                let results = bob.download_all(&Query::all()).unwrap();
                assert!(results[0].1.raw_samples() > 0);
            }
            let mean_ms = started.elapsed().as_secs_f64() * 1e3 / ITERATIONS as f64;
            // Round 0 is warm-up (caches, scraper series registration).
            if round > 0 && mean_ms < best[i] {
                best[i] = mean_ms;
            }
        }
    }
    let sweeps: Vec<u64> = rigs
        .iter()
        .map(|(_, (deployment, _))| {
            deployment
                .broker()
                .handle(&sensorsafe_core::net::Request::get("/fleet"))
                .json_body()
                .ok()
                .and_then(|b| b["sweeps"].as_u64())
                .unwrap_or(0)
        })
        .collect();
    for (i, (label, _)) in rigs.iter().enumerate() {
        println!(
            "{label:<36} {:>9.3} ms/query (best of {ROUNDS}, {} sweeps)",
            best[i], sweeps[i]
        );
    }
    let overhead_100ms = (best[1] - best[0]) / best[0] * 100.0;
    let overhead_10ms = (best[2] - best[0]) / best[0] * 100.0;
    println!("--> scrape overhead at 100 ms interval: {overhead_100ms:+.2}% (budget: <5%)");
    println!("--> scrape overhead at 10 ms interval:  {overhead_10ms:+.2}% (budget: <5%)");
    // Broker-side cost of the most aggressive rig, from its own
    // self-observation metrics (fleet gauges live on the broker
    // instance registry, not the process-wide one).
    let broker_metrics = rigs[2].1 .0.broker().handle(&Request::get("/metrics"));
    let text = String::from_utf8(broker_metrics.body).unwrap();
    for line in text.lines().filter(|l| {
        l.starts_with("sensorsafe_broker_fleet_scrape_seconds_sum")
            || l.starts_with("sensorsafe_broker_fleet_scrape_seconds_count")
            || l.starts_with("sensorsafe_broker_fleet_retained_series")
    }) {
        println!("    {line}");
    }
    println!();
    // Scrapers stop (and join) when the deployments drop here.
}

fn o3_profiler_overhead_table() {
    println!("== O3: continuous profiler overhead on the mixed workload ==");
    println!(
        "environment: {} CPU(s) visible to this process",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    use sensorsafe_core::obsv::prof;
    // Same estimator as O1/O2: interleave the configurations over
    // several rounds and report each configuration's best round, since
    // scheduler noise on a multi-threaded run dwarfs the 5% budget.
    // The sampler rate is process-wide state, so each configuration
    // sets it (and the plane's kill switch) just before its timed run.
    //
    // `disabled` is the true baseline: frame enter/exit reduces to one
    // relaxed load + branch and the sampler parks. `0 Hz` keeps the
    // span-stats table hot (every frame still timed) without stack
    // sampling, isolating the bookkeeping cost from the sampling cost.
    let configs: [(&str, bool, u64); 4] = [
        ("profiling plane disabled", false, 0),
        ("frames on, sampler paused (0 Hz)", true, 0),
        ("frames on, sampler at 99 Hz (default)", true, 99),
        ("frames on, sampler at 997 Hz", true, 997),
    ];
    let threads = 4;
    let ops = 600;
    let workload = mixed_workload(8);
    run_mixed_traffic(&workload, threads, 40); // warm-up, discarded

    const ROUNDS: usize = 8;
    let mut best = [0.0f64; 4];
    for round in 0..=ROUNDS {
        for (i, (_, enabled, hz)) in configs.iter().enumerate() {
            prof::set_enabled(*enabled);
            prof::set_sample_rate_hz(*hz);
            let elapsed = run_mixed_traffic(&workload, threads, ops);
            let rate = (threads * ops) as f64 / elapsed.as_secs_f64();
            // Round 0 is warm-up (sampler thread spawn, interning).
            if round > 0 && rate > best[i] {
                best[i] = rate;
            }
        }
    }
    prof::set_enabled(true);
    prof::set_sample_rate_hz(prof::DEFAULT_SAMPLE_HZ);

    for (i, (label, _, _)) in configs.iter().enumerate() {
        let overhead = (best[0] - best[i]) / best[0] * 100.0;
        println!(
            "{label:<40} {:>10.0} req/s (best of {ROUNDS}, {overhead:+.2}% vs disabled)",
            best[i]
        );
    }
    let overhead_99 = (best[0] - best[2]) / best[0] * 100.0;
    println!("--> sampler overhead at 99 Hz: {overhead_99:+.2}% (budget: <5%)");
    println!(
        "    {} stack samples taken process-wide so far",
        prof::total_samples()
    );
    println!();
}

fn o4_awareness_overhead_table() {
    println!("== O4: awareness-aggregator overhead on the mixed workload ==");
    println!(
        "environment: {} CPU(s) visible to this process",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    // Same interleaved best-of-round estimator as O1-O3. The awareness
    // plane hangs off the store, so the kill switch is flipped on the
    // workload's own instance between timed runs; every consumer query
    // in the mix funnels one decision through `record_decision`,
    // which is exactly the aggregation path being priced.
    let configs: [(&str, bool); 2] = [
        ("awareness plane disabled", false),
        ("awareness plane enabled (default)", true),
    ];
    let threads = 4;
    let ops = 600;
    let workload = mixed_workload(8);
    run_mixed_traffic(&workload, threads, 40); // warm-up, discarded

    const ROUNDS: usize = 8;
    let mut best = [0.0f64; 2];
    for round in 0..=ROUNDS {
        for (i, (_, enabled)) in configs.iter().enumerate() {
            workload.store.awareness().set_enabled(*enabled);
            let elapsed = run_mixed_traffic(&workload, threads, ops);
            let rate = (threads * ops) as f64 / elapsed.as_secs_f64();
            // Round 0 is warm-up (allocator, map growth) and discarded.
            if round > 0 && rate > best[i] {
                best[i] = rate;
            }
        }
    }
    workload.store.awareness().set_enabled(true);

    for (i, (label, _)) in configs.iter().enumerate() {
        let overhead = (best[0] - best[i]) / best[0] * 100.0;
        println!(
            "{label:<40} {:>10.0} req/s (best of {ROUNDS}, {overhead:+.2}% vs disabled)",
            best[i]
        );
    }
    let overhead = (best[0] - best[1]) / best[0] * 100.0;
    println!("--> awareness aggregation overhead: {overhead:+.2}% (budget: <5%)");
    println!(
        "    {} decisions aggregated on the workload store",
        workload.store.awareness().aggregates().total().total()
    );
    println!();
}

fn obsv_metrics_snapshot(store: &sensorsafe_core::datastore::DataStoreService) {
    println!("== OBSV: metrics snapshot after the runs above ==");
    // Per-instance (datastore) families first, then the process-wide
    // registry — the same concatenation `GET /metrics` serves.
    let mut exposition = store.registry().encode();
    exposition.push_str(&sensorsafe_core::obsv::global().encode());
    for line in exposition.lines().filter(|l| !l.starts_with('#')) {
        println!("{line}");
    }
    println!();
}

fn main() {
    // Self-exec entry point for the C3 soak's client children.
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("c3-client") {
        let addr = args.get(2).expect("c3-client <addr> <conns>");
        let conns = args
            .get(3)
            .and_then(|n| n.parse().ok())
            .expect("c3-client <addr> <conns>");
        c3_client_main(addr, conns);
        return;
    }
    // `report a2` runs the contributor-search table alone (EXPERIMENTS.md
    // A2).
    if args.get(1).map(String::as_str) == Some("a2") {
        a2_search_table();
        return;
    }
    // `report c4` runs the journal group-commit sweep alone — the section CI
    // and the OPERATIONS.md runbook re-run in isolation.
    if args.get(1).map(String::as_str) == Some("c4") {
        c4_store_wide_group_commit_table();
        return;
    }
    // `report o3` runs the profiler overhead sweep alone — the section
    // EXPERIMENTS.md O3 and the OPERATIONS.md runbook reference.
    if args.get(1).map(String::as_str) == Some("o3") {
        o3_profiler_overhead_table();
        return;
    }
    // `report o4` runs the awareness overhead sweep alone — the section
    // EXPERIMENTS.md O4 and the OPERATIONS.md runbook reference.
    if args.get(1).map(String::as_str) == Some("o4") {
        o4_awareness_overhead_table();
        return;
    }

    f5_storage_table();
    a1_merge_table();
    a2_search_table();
    a3_savings_table();
    f1_byte_accounting();
    c2_durable_upload_table();
    c3_evented_core_table();
    c4_store_wide_group_commit_table();
    obsv_overhead_table();
    fleet_scrape_overhead_table();
    o3_profiler_overhead_table();
    o4_awareness_overhead_table();

    // Re-run one instrumented flow so the snapshot shows every family.
    let mut deployment = Deployment::in_process();
    let store = deployment.add_store("s1");
    let alice = deployment.register_contributor("s1", "alice").unwrap();
    alice.upload_scenario(&alice_scenario(5)).unwrap();
    alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();
    let bob = deployment.register_consumer("bob").unwrap();
    bob.add_contributors(&["alice"]).unwrap();
    let _ = bob.download_all(&Query::all()).unwrap();
    obsv_metrics_snapshot(&store);
}

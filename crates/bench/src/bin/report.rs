//! What the perf ledger (`crates/bench/perf`) cannot say: storage
//! sizes, segment counts, data-volume savings, search-result shapes, the
//! 10k-connection soak, and journal recovery time against history.
//!
//! One table per experiment id in EXPERIMENTS.md (F5, A1, A2, A3, C3,
//! C4); `report a2` and `report c4` run those two alone.
//!
//! ```text
//! cargo run -p sensorsafe-bench --bin report --release
//! ```

use sensorsafe_bench::{
    alice_scenario, chest_packets, durable_workload_with, run_many_account_uploads,
    segment_store_with, synthetic_rules, synthetic_rules_unshared, tuple_store_with,
    walk_and_render,
};
use sensorsafe_core::datastore::DataStoreConfig;
use sensorsafe_core::net::{LocalTransport, Request, Service, Transport};
use sensorsafe_core::policy::{
    Action, Conditions, ConsumerCtx, ConsumerSelector, PrivacyRule, RuleIndex, SearchQuery,
};
use sensorsafe_core::store::MergePolicy;
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
        "{:>12}  {:<30} {:>14}  {:<42} {:>15} {:>6} {:>10} {:>10}",
        "contributors",
        "mirror",
        "distinct lists",
        "query",
        "lists evaluated",
        "hits",
        "render us",
        "bytes"
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
            let evaluated = index.search_each(query, |run| hits += run.hits().len());
            let (micros, bytes) = time_walk_and_render(&index, query);
            println!(
                "{:>12}  {:<30} {:>14}  {:<42} {:>15} {:>6} {:>10.1} {:>10}",
                n,
                population,
                index.distinct_rule_sets(),
                name,
                evaluated,
                hits,
                micros,
                bytes
            );
        }
    }
    println!("(render us, bytes: walk_and_render — what /api/search does — median of 201 runs)");
    println!();

    // The walk alone: 10,000 contributors on four lists that admit one,
    // two or all four quarters of them, so evaluation is four lists
    // whatever the hit count and the rest is rows read and names copied.
    println!("-- walk_and_render by hit count, 10,000 contributors on 4 lists --");
    let allow = |consumers: &[&str]| {
        vec![PrivacyRule {
            conditions: Conditions {
                consumers: consumers
                    .iter()
                    .map(|c| ConsumerSelector::User((*c).into()))
                    .collect(),
                ..Default::default()
            },
            action: Action::Allow,
        }]
    };
    let lists = [
        allow(&["quarter", "half", "all"]),
        allow(&["half", "all"]),
        allow(&["all"]),
        allow(&["all", "nobody-else"]),
    ];
    let mut index = RuleIndex::new();
    for i in 0..10_000 {
        index.sync(
            ContributorId::new(format!("contributor-{i:06}")),
            1,
            lists[i % 4].clone(),
        );
    }
    println!("{:>8} {:>10} {:>10}", "hits", "render us", "bytes");
    for consumer in ["quarter", "half", "all"] {
        let query = SearchQuery {
            consumer: ConsumerCtx::user(consumer),
            raw_channels: vec!["ecg".into()],
            ..Default::default()
        };
        let hits = index.search(&query).len();
        let (micros, bytes) = time_walk_and_render(&index, &query);
        println!("{hits:>8} {micros:>10.1} {bytes:>10}");
    }
    println!();
}

/// Median microseconds of [`walk_and_render`] over 201 runs (after a
/// first that builds the mirror's scan column), and the bytes it renders.
fn time_walk_and_render(index: &RuleIndex, query: &SearchQuery) -> (f64, usize) {
    let bytes = walk_and_render(index, query).len();
    let mut micros: Vec<f64> = (0..201)
        .map(|_| {
            let started = std::time::Instant::now();
            std::hint::black_box(walk_and_render(index, std::hint::black_box(query)));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    micros.sort_by(f64::total_cmp);
    (micros[micros.len() / 2], bytes)
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

fn c4_recovery_table() {
    use sensorsafe_core::store::JournalConfig;
    println!("== C4: journal recovery, replay time against upload history ==");
    println!(
        "environment: {} CPU(s) visible to this process",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    // More workers than a single fsync can retire, so the journal fills
    // at group-commit speed.
    let threads = 32;
    // Recovery-time probe: rotation + checkpoints bound replay to the
    // checkpoint snapshot plus the tail segments — segments a checkpoint
    // covers are skipped wholesale at reopen. The workload drives
    // re-enrollment cycles (upload, `/repl/reset` wipe, upload again):
    // live state stays one cycle's worth while journal history grows
    // with every cycle, which is exactly the shape where a naive
    // full-log replay (the control rig, rotation disabled) degrades
    // linearly and a checkpointed reopen stays flat.
    println!(
        "{:<34} {:>9} {:>9} {:>12} {:>10} {:>8}",
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
                        let resp = workload.store.handle(&Request::post_json(
                            "/repl/reset",
                            &json!({
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

fn main() {
    // Self-exec entry point for the C3 soak's client children.
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("c3-client") => {
            let addr = args.get(2).expect("c3-client <addr> <conns>");
            let conns = args
                .get(3)
                .and_then(|n| n.parse().ok())
                .expect("c3-client <addr> <conns>");
            c3_client_main(addr, conns);
        }
        // `report a2` runs the contributor-search table alone
        // (EXPERIMENTS.md A2).
        Some("a2") => a2_search_table(),
        // `report c4` runs the journal recovery rig alone — the section
        // the OPERATIONS.md runbook re-runs in isolation.
        Some("c4") => c4_recovery_table(),
        _ => {
            f5_storage_table();
            a1_merge_table();
            a2_search_table();
            a3_savings_table();
            c3_evented_core_table();
            c4_recovery_table();
        }
    }
}

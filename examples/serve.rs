//! Serve a real SensorSafe system over TCP.
//!
//! Binds the broker and two remote data stores on localhost, provisions
//! Alice (with data and rules) and Bob, exercises the whole flow over
//! actual HTTP sockets, then leaves the servers up for manual poking
//! (visit the printed URLs; `--once` exits immediately after the smoke
//! test, which is what CI does).
//!
//! ```text
//! cargo run --example serve            # serve until Ctrl-C
//! cargo run --example serve -- --once  # smoke-test and exit
//! ```

use sensorsafe::net::{HttpClient, Request};
use sensorsafe::sim::Scenario;
use sensorsafe::store::Query;
use sensorsafe::types::Timestamp;
use sensorsafe::{json, Deployment};

fn main() {
    let once = std::env::args().any(|a| a == "--once");

    // Bind servers on ephemeral ports first so the deployment knows the
    // real addresses.
    let broker_host = "127.0.0.1:7070";
    let store1_host = "127.0.0.1:7071";
    let store2_host = "127.0.0.1:7072";

    let mut deployment =
        Deployment::over_tcp_with_fleet(broker_host, sensorsafe::broker::FleetConfig::default());
    let broker_server = deployment
        .serve_broker(broker_host, 4)
        .expect("bind broker");
    let store1 = deployment.add_store(store1_host);
    let _store2 = deployment.add_store(store2_host);
    let store1_server = deployment
        .serve_store(store1_host, 4)
        .expect("bind store 1");
    let store2_server = deployment
        .serve_store(store2_host, 4)
        .expect("bind store 2");
    println!("broker  : http://{}", broker_server.addr());
    println!("store 1 : http://{}", store1_server.addr());
    println!("store 2 : http://{}", store2_server.addr());

    // Provision Alice on store 1 and Carol on store 2 — over TCP.
    let alice = deployment
        .register_contributor(store1_host, "alice")
        .expect("register alice");
    alice
        .upload_scenario(&Scenario::alice_day(
            Timestamp::from_millis(1_311_500_000_000),
            17,
            1,
        ))
        .expect("upload alice");
    alice
        .set_rules(&json!([{"Action": "Allow"}]))
        .expect("alice rules");
    let carol = deployment
        .register_contributor(store2_host, "carol")
        .expect("register carol");
    carol
        .upload_scenario(&Scenario::alice_day(
            Timestamp::from_millis(1_311_500_000_000),
            18,
            1,
        ))
        .expect("upload carol");
    carol
        .set_rules(&json!([{"Action": "Allow"}]))
        .expect("carol rules");

    // Web UI logins for manual exploration.
    store1.create_web_user("alice", "alice-password");
    deployment.broker().create_web_user("bob", "bob-password");

    // Bob's full workflow over the wire.
    let bob = deployment.register_consumer("bob").expect("register bob");
    let hits = bob.search(&json!({"channels": ["ecg"]})).expect("search");
    println!("search hits over TCP: {hits:?}");
    assert_eq!(hits.len(), 2);
    bob.add_contributors(&["alice", "carol"]).expect("add");
    let results = bob.download_all(&Query::all()).expect("download");
    let total: usize = results.iter().map(|(_, v)| v.raw_samples()).sum();
    println!(
        "downloaded {total} raw samples from {} stores",
        results.len()
    );
    assert!(total > 0);

    // Fleet health plane: one synchronous sweep proves both stores are
    // probed, then the background prober keeps the picture fresh while
    // the example serves.
    deployment.broker().fleet_sweep_now();
    deployment.broker().fleet_sweep_now();
    deployment.start_fleet_scraper();
    let fleet = HttpClient::new(broker_host)
        .send(&Request::get("/fleet"))
        .expect("fleet")
        .json_body()
        .expect("fleet json");
    let states: Vec<String> = fleet["stores"]
        .as_array()
        .expect("stores")
        .iter()
        .map(|s| {
            format!(
                "{}={}",
                s["addr"].as_str().unwrap_or("?"),
                s["health"].as_str().unwrap_or("?")
            )
        })
        .collect();
    println!("fleet health: {}", states.join(" "));
    assert!(states.iter().all(|s| s.ends_with("=healthy")));

    // Health checks straight over HTTP.
    for (label, addr) in [
        ("broker", broker_host),
        ("store1", store1_host),
        ("store2", store2_host),
    ] {
        let client = HttpClient::new(addr);
        let resp = client.send(&Request::get("/health")).expect("health");
        println!("{label} /health -> {}", String::from_utf8_lossy(&resp.body));
    }

    if once {
        println!("serve example OK (--once)");
        return;
    }
    println!("Serving. Web UIs: http://{store1_host}/ui/login (alice/alice-password),");
    println!("                  http://{broker_host}/ui/login (bob/bob-password). Ctrl-C to stop.");
    println!("Fleet dashboard:  http://{broker_host}/ui/fleet (after bob login) or GET /fleet.");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

//! C3 — evented network core: per-request round-trip latency over a
//! keep-alive connection, with and without thousands of idle
//! connections parked on the same server.
//!
//! The full 10k-connection flat-memory run is produced by the `report`
//! binary (EXPERIMENTS.md C3; the fd budget forces client connections
//! into child processes there). This bench regenerates the latency
//! face of the claim: a readiness-driven server answers in the same
//! time whether 0 or 2,000 idle connections are parked, because idle
//! sockets cost it nothing but a slab slot and a timer-wheel entry.

use criterion::{criterion_group, criterion_main, Criterion};
use sensorsafe_bench::{open_soak_conns, soak_round};
use sensorsafe_core::json;
use sensorsafe_core::net::{EventedConfig, Response, Router, Server, Service};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn healthz_service() -> Arc<dyn Service> {
    let mut router = Router::new();
    router.get("/healthz", |_, _| Response::json(&json!({"status": "ok"})));
    Arc::new(router)
}

fn bench_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("c3_keepalive_round_trip");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(400));

    let evented = |idle_timeout: Duration| EventedConfig {
        loops: 2,
        handler_threads: 4,
        idle_timeout,
        ..EventedConfig::default()
    };

    {
        let server = Server::bind_evented(
            "127.0.0.1:0",
            evented(Duration::from_secs(30)),
            healthz_service(),
        )
        .expect("evented server");
        let mut conn = open_soak_conns(&server.addr_string(), 1).expect("bench conn");
        group.bench_function("evented", |b| {
            b.iter(|| black_box(soak_round(&mut conn)).expect("round trip"))
        });
    }

    {
        // Same evented rig, but with 2,000 idle keep-alive connections
        // parked on it for the whole measurement. The idle timeout is
        // raised so none of them is reaped mid-bench.
        let server = Server::bind_evented(
            "127.0.0.1:0",
            evented(Duration::from_secs(600)),
            healthz_service(),
        )
        .expect("evented server");
        let _parked = open_soak_conns(&server.addr_string(), 2_000).expect("parked conns");
        let mut conn = open_soak_conns(&server.addr_string(), 1).expect("bench conn");
        group.bench_function("evented_2000_idle_parked", |b| {
            b.iter(|| black_box(soak_round(&mut conn)).expect("round trip"))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_round_trip);
criterion_main!(benches);

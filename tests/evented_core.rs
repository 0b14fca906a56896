//! Reduced-scale soak of the evented network core (the CI face of the
//! C3 experiment; see EXPERIMENTS.md for the full 10k-connection run).
//!
//! Holds hundreds of concurrent keep-alive connections against a
//! handful of handler threads — a ratio a server that parks one worker
//! per connection cannot express — and exercises idle-timeout reaping
//! and overload shedding end to end over real sockets.

use sensorsafe::json;
use sensorsafe::net::{EventedConfig, Params, Request, Response, Router, Server, Service, Status};
use std::io::{BufReader, Read};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use sensorsafe::net::http::{read_response, write_request};

fn echo_service() -> Arc<dyn Service> {
    let mut router = Router::new();
    router.get("/ping", |_, _| Response::json(&json!("pong")));
    router.post("/echo", |req: &Request, _: &Params| {
        let mut resp = Response::status(Status::Ok);
        resp.body = req.body.clone();
        resp
    });
    Arc::new(router)
}

/// Opens `n` keep-alive connections (one request each to prove
/// liveness), then drives a second round over every one of them —
/// demonstrating that all `n` are concurrently open and still served.
fn soak(addr: std::net::SocketAddr, n: usize, label: &str) {
    let mut conns = Vec::with_capacity(n);
    for i in 0..n {
        let stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("{label}: connect #{i} failed: {e}"));
        // Small request writes + Nagle + delayed ACK would add ~40 ms
        // per round trip; the soak is about concurrency, not Nagle.
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        conns.push((stream, reader));
    }
    for round in 0..2 {
        for (i, (stream, reader)) in conns.iter_mut().enumerate() {
            let body = json!({"conn": i, "round": round});
            write_request(stream, &Request::post_json("/echo", &body))
                .unwrap_or_else(|e| panic!("{label}: write conn {i} round {round}: {e}"));
            let resp = read_response(reader)
                .unwrap_or_else(|e| panic!("{label}: read conn {i} round {round}: {e}"));
            assert_eq!(resp.status, Status::Ok, "{label}: conn {i} round {round}");
            assert_eq!(resp.json_body().unwrap(), body);
        }
    }
}

#[test]
fn evented_mode_holds_hundreds_of_connections_on_few_threads() {
    // 300 live connections, 4 handler threads: connections outnumber
    // threads 75:1, which only a readiness-driven server can serve.
    let config = EventedConfig {
        loops: 2,
        handler_threads: 4,
        ..EventedConfig::default()
    };
    let server = Server::bind_evented("127.0.0.1:0", config, echo_service()).unwrap();
    soak(server.addr(), 300, "evented");
}

#[test]
fn idle_connections_are_reaped_and_counted() {
    let idle_closed = sensorsafe::obsv::global().counter(
        "sensorsafe_net_connections_closed_total",
        "Server-side connection closes, by reason.",
        &[("reason", "idle_timeout")],
    );
    let before = idle_closed.get();
    let config = EventedConfig {
        loops: 1,
        handler_threads: 2,
        idle_timeout: Duration::from_millis(250),
        ..EventedConfig::default()
    };
    let server = Server::bind_evented("127.0.0.1:0", config, echo_service()).unwrap();
    let mut conns = Vec::new();
    for _ in 0..20 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_request(&mut stream, &Request::get("/ping")).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_response(&mut reader).unwrap().status, Status::Ok);
        conns.push(stream);
    }
    // All 20 go idle; the timer wheel must close every one (EOF), and
    // the close-reason counter must account for them.
    for (i, stream) in conns.iter_mut().enumerate() {
        let mut byte = [0u8; 1];
        let n = stream.read(&mut byte).unwrap_or(0);
        assert_eq!(n, 0, "conn {i} was not reaped");
    }
    assert!(
        idle_closed.get() >= before + 20,
        "idle_timeout closes: before={before} after={}",
        idle_closed.get()
    );
}

#[test]
fn overload_is_shed_with_503_not_queued() {
    let shed = sensorsafe::obsv::global().counter(
        "sensorsafe_net_overload_shed_total",
        "Connections/requests answered 503 + close because a capacity \
         bound (connection cap, handler queue) was reached.",
        &[("reason", "conn_cap")],
    );
    let before = shed.get();
    let config = EventedConfig {
        loops: 1,
        handler_threads: 2,
        max_connections_per_loop: 8,
        ..EventedConfig::default()
    };
    let server = Server::bind_evented("127.0.0.1:0", config, echo_service()).unwrap();
    // Saturate the cap with live keep-alive connections.
    let mut held = Vec::new();
    for _ in 0..8 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_request(&mut stream, &Request::get("/ping")).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_response(&mut reader).unwrap().status, Status::Ok);
        held.push(stream);
    }
    // Overflow connections must be turned away promptly with 503 +
    // Connection: close — never parked in an unbounded queue.
    let mut saw_503 = false;
    for _ in 0..30 {
        let mut stream = match TcpStream::connect(server.addr()) {
            Ok(s) => s,
            Err(_) => continue,
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let _ = write_request(&mut stream, &Request::get("/ping"));
        let mut buf = Vec::new();
        let _ = BufReader::new(stream).read_to_end(&mut buf);
        let text = String::from_utf8_lossy(&buf);
        if text.starts_with("HTTP/1.1 503") {
            assert!(
                text.to_ascii_lowercase().contains("connection: close"),
                "shed response must close: {text}"
            );
            saw_503 = true;
            break;
        }
    }
    assert!(saw_503, "cap overflow was never answered 503");
    assert!(shed.get() > before, "shed counter did not move");
}

#[test]
fn chunked_post_gets_one_400_and_a_closed_socket_not_a_desynchronised_reply() {
    use std::io::Write;
    let config = EventedConfig {
        loops: 1,
        handler_threads: 2,
        ..EventedConfig::default()
    };
    let server = Server::bind_evented("127.0.0.1:0", config, echo_service()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // One write: a chunked POST with a GET pipelined behind it. Framed
    // as `content-length: 0` the POST would be answered with an empty
    // echo and its chunk bytes parsed as the next request.
    stream
        .write_all(
            b"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n0\r\n\r\nGET /ping HTTP/1.1\r\n\r\n",
        )
        .unwrap();
    let mut buf = Vec::new();
    BufReader::new(stream)
        .read_to_end(&mut buf)
        .expect("the server must close the connection after the 400");
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("HTTP/1.1 400"), "first reply: {text}");
    assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "one reply: {text}");
    assert!(
        text.to_ascii_lowercase().contains("connection: close"),
        "the 400 must close: {text}"
    );
}

fn replies_total(path: &str) -> u64 {
    sensorsafe::obsv::global()
        .counter("sensorsafe_net_replies_total", "", &[("path", path)])
        .get()
}

/// The routes each server lets an event loop run inline, as a literal:
/// declaring one more is a reviewed decision, not a side effect. A route
/// belongs here only if its handler never waits on disk, the network, a
/// sleep (`/debug/profile`) or a lock held across one — an inline handler
/// that is slow stalls every other connection of its loop.
#[test]
fn non_blocking_routes_are_exactly_the_reviewed_set() {
    use sensorsafe::broker::{BrokerConfig, BrokerService};
    use sensorsafe::datastore::{DataStoreConfig, DataStoreService};

    let (broker, _) = BrokerService::new(BrokerConfig::default());
    assert_eq!(
        broker.non_blocking_routes(),
        [
            "GET /health",
            "GET /healthz",
            "POST /api/sync",
            "POST /api/search"
        ]
    );
    let (store, _) = DataStoreService::new(DataStoreConfig::default());
    assert_eq!(store.non_blocking_routes(), [] as [&str; 0]);

    // The declaration must survive every wrapper between the table and
    // the server, or the trait's default (`true`) silently wins.
    let store: Arc<dyn Service> = Arc::new(store);
    let broker: Arc<dyn Service> = Arc::new(broker);
    let search = Request::post_json("/api/search", &json!({}));
    assert!(!broker.blocking(&search));
    assert!(!broker.blocking(&Request::get("/healthz")));
    for waits in ["/debug/profile", "/metrics", "/fleet", "/nope"] {
        assert!(broker.blocking(&Request::get(waits)), "{waits}");
    }
    assert!(broker.blocking(&Request::post_json("/api/consumers/add", &json!({}))));
    assert!(store.blocking(&Request::get("/healthz")));
    assert!(store.blocking(&Request::post_json("/api/upload", &json!({}))));

    // And over a socket: the broker's loop answers the probe itself.
    let inline = replies_total("inline");
    let server = Server::bind("127.0.0.1:0", 1, broker).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write_request(&mut stream, &Request::get("/healthz")).unwrap();
    let mut reader = BufReader::new(stream);
    assert_eq!(read_response(&mut reader).unwrap().status, Status::Ok);
    assert!(replies_total("inline") > inline);
}

#[test]
fn a_connection_whose_reply_the_handler_wrote_itself_is_still_reaped() {
    let idle_closed = sensorsafe::obsv::global().counter(
        "sensorsafe_net_connections_closed_total",
        "",
        &[("reason", "idle_timeout")],
    );
    let (closed_before, direct_before) = (idle_closed.get(), replies_total("direct"));
    let config = EventedConfig {
        loops: 1,
        handler_threads: 1,
        idle_timeout: Duration::from_millis(250),
        ..EventedConfig::default()
    };
    let server = Server::bind_evented("127.0.0.1:0", config, echo_service()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Three pooled round trips: after each the handler thread, not the
    // loop, put the connection back to reading.
    for _ in 0..3 {
        write_request(&mut stream, &Request::get("/ping")).unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, Status::Ok);
    }
    assert!(replies_total("direct") >= direct_before + 3);
    let went_idle = std::time::Instant::now();
    let mut byte = [0u8; 1];
    assert_eq!(stream.read(&mut byte).unwrap_or(0), 0, "never reaped");
    assert!(
        went_idle.elapsed() >= Duration::from_millis(200),
        "reaped {:?} after its last reply, before the idle timeout",
        went_idle.elapsed()
    );
    assert!(idle_closed.get() > closed_before);
}

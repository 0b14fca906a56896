//! Server-level request accounting, and the front-door tests of
//! [`Server`](crate::Server) over real TCP. The server itself — event
//! loops, connection state machines, handler pool — is
//! [`crate::evented`].

use crate::http::Status;
use std::time::Duration;

/// Server-level accounting: one latency observation plus a status-class
/// counter per request, regardless of which service answered it.
pub(crate) fn record_request(elapsed: Duration, status: Status) {
    let registry = sensorsafe_obsv::global();
    registry
        .histogram(
            "sensorsafe_net_request_seconds",
            "Wall-clock request handling latency at the server layer.",
            &[],
            None,
        )
        .observe(elapsed);
    let class = match status.code() {
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        _ => "5xx",
    };
    registry
        .counter(
            "sensorsafe_net_requests_total",
            "Requests handled at the server layer, by status class.",
            &[("class", class)],
        )
        .inc();
}

#[cfg(test)]
mod tests {
    use crate::http::{Method, Request, Response, Status};
    use crate::transport::HttpClient;
    use crate::{Router, Server, Service};
    use sensorsafe_json::json;
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;

    fn echo_service() -> Arc<dyn Service> {
        let mut router = Router::new();
        router.get("/ping", |_, _| Response::json(&json!("pong")));
        router.post("/echo", |req: &Request, _: &crate::Params| {
            let mut resp = Response::status(Status::Ok);
            resp.body = req.body.clone();
            resp
        });
        Arc::new(router)
    }

    #[test]
    fn serves_over_real_tcp() {
        let server = Server::bind("127.0.0.1:0", 2, echo_service()).unwrap();
        let client = HttpClient::new(server.addr_string());
        let resp = client.send(&Request::get("/ping")).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.json_body().unwrap(), json!("pong"));
    }

    #[test]
    fn concurrent_clients() {
        let server = Server::bind("127.0.0.1:0", 4, echo_service()).unwrap();
        let addr = server.addr_string();
        let mut handles = Vec::new();
        for i in 0..8 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let client = HttpClient::new(addr);
                for j in 0..10 {
                    let body = json!({"worker": i, "iter": j});
                    let resp = client.send(&Request::post_json("/echo", &body)).unwrap();
                    assert_eq!(resp.json_body().unwrap(), body);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let server = Server::bind("127.0.0.1:0", 1, echo_service()).unwrap();
        let client = HttpClient::new(server.addr_string());
        // Same client object reuses its pooled connection.
        for _ in 0..5 {
            assert_eq!(
                client.send(&Request::get("/ping")).unwrap().status,
                Status::Ok
            );
        }
    }

    #[test]
    fn unknown_route_404s() {
        let server = Server::bind("127.0.0.1:0", 1, echo_service()).unwrap();
        let client = HttpClient::new(server.addr_string());
        let resp = client.send(&Request::get("/nope")).unwrap();
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn malformed_request_gets_400() {
        use std::io::{Read, Write};
        let server = Server::bind("127.0.0.1:0", 1, echo_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"BOGUS REQUEST LINE\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    }

    #[test]
    fn shutdown_is_clean_and_idempotent() {
        let mut server = Server::bind("127.0.0.1:0", 2, echo_service()).unwrap();
        let addr = server.addr();
        let started = std::time::Instant::now();
        server.shutdown();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "idle shutdown took {:?}",
            started.elapsed()
        );
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
            "still accepting after shutdown"
        );
    }

    #[test]
    fn connection_close_honored() {
        let server = Server::bind("127.0.0.1:0", 1, echo_service()).unwrap();
        let client = HttpClient::new(server.addr_string());
        let mut req = Request::get("/ping");
        req.headers.insert("connection".into(), "close".into());
        let resp = client.send(&req).unwrap();
        assert_eq!(resp.status, Status::Ok);
        // Next request transparently opens a fresh connection.
        assert_eq!(
            client.send(&Request::get("/ping")).unwrap().status,
            Status::Ok
        );
    }

    #[test]
    fn method_not_allowed_over_tcp() {
        let server = Server::bind("127.0.0.1:0", 1, echo_service()).unwrap();
        let client = HttpClient::new(server.addr_string());
        let req = Request {
            method: Method::Delete,
            ..Request::get("/ping")
        };
        assert_eq!(client.send(&req).unwrap().status, Status::MethodNotAllowed);
    }
}

//! Server-level request accounting, and the front-door tests of
//! [`Server`](crate::Server) over real TCP. The server itself — event
//! loops, connection state machines, handler pool — is
//! [`crate::evented`].

use crate::http::Status;
use sensorsafe_obsv::{Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Which thread put a reply on its socket — the `path` label of
/// `sensorsafe_net_replies_total`.
#[derive(Clone, Copy)]
pub(crate) enum ReplyPath {
    /// A non-blocking route, run and answered on the event loop.
    Inline,
    /// A pooled route whose handler thread wrote the whole reply and
    /// re-armed the connection itself.
    Direct,
    /// A pooled route whose reply went back through the loop's completion
    /// queue (short write, `Connection: close`, pipelined bytes waiting).
    Loop,
}

/// The server layer's per-request metric handles, resolved once at bind
/// so a request builds no label set and takes no registry lock.
pub(crate) struct NetMetrics {
    request_seconds: Arc<Histogram>,
    /// `2xx` … `5xx`; a class's series appears with its first request.
    requests_by_class: [OnceLock<Arc<Counter>>; 4],
    replies: [Arc<Counter>; 3],
    /// Request decoded → handler starts.
    pub(crate) dispatch_wait: Arc<Histogram>,
    /// Requests handed to the pool and not yet picked up.
    pub(crate) queue_depth: Arc<Gauge>,
}

impl NetMetrics {
    pub(crate) fn resolve() -> NetMetrics {
        let registry = sensorsafe_obsv::global();
        let replies = |path| {
            registry.counter(
                "sensorsafe_net_replies_total",
                "Replies by the thread that wrote them: inline (event loop ran \
                 the route), direct (pooled handler wrote it all), loop \
                 (finished by the loop's completion queue).",
                &[("path", path)],
            )
        };
        NetMetrics {
            request_seconds: registry.histogram(
                "sensorsafe_net_request_seconds",
                "Wall-clock request handling latency at the server layer.",
                &[],
                None,
            ),
            requests_by_class: Default::default(),
            replies: [replies("inline"), replies("direct"), replies("loop")],
            dispatch_wait: registry.histogram(
                "sensorsafe_net_dispatch_wait_seconds",
                "Request decoded on the event loop to its handler starting \
                 (0 for a route run inline on the loop).",
                &[],
                None,
            ),
            queue_depth: registry.gauge(
                "sensorsafe_net_handler_queue_depth",
                "Requests dispatched to the evented servers' handler pool and not \
                 yet picked up by a handler thread.",
                &[],
            ),
        }
    }

    /// Server-level accounting: one latency observation plus a
    /// status-class counter per request, regardless of which service
    /// answered it.
    pub(crate) fn record_request(&self, elapsed: Duration, status: Status) {
        self.request_seconds.observe(elapsed);
        let (index, class) = match status.code() {
            200..=299 => (0, "2xx"),
            300..=399 => (1, "3xx"),
            400..=499 => (2, "4xx"),
            _ => (3, "5xx"),
        };
        self.requests_by_class[index]
            .get_or_init(|| {
                sensorsafe_obsv::global().counter(
                    "sensorsafe_net_requests_total",
                    "Requests handled at the server layer, by status class.",
                    &[("class", class)],
                )
            })
            .inc();
    }

    pub(crate) fn count_reply(&self, path: ReplyPath) {
        self.replies[path as usize].inc();
    }
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

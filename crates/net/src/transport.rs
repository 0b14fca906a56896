//! Transports: how a client reaches a service.
//!
//! [`TcpTransport`]/[`HttpClient`] speak real HTTP over sockets (used by
//! examples, integration tests, and the §6 walkthrough). A
//! [`LocalTransport`] calls the service in-process — byte-for-byte the
//! same requests and responses, without kernel overhead.

use crate::http::{read_response, write_request, Request, Response};
use crate::Service;
use parking_lot::Mutex;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Errors reaching a service.
#[derive(Debug)]
pub enum TransportError {
    /// Socket-level failure.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Anything that can round-trip a request to a service.
pub trait Transport: Send + Sync {
    /// Sends a request and waits for the response.
    fn round_trip(&self, request: &Request) -> Result<Response, TransportError>;
}

/// In-process transport: calls the service directly.
pub struct LocalTransport {
    service: Arc<dyn Service>,
}

impl LocalTransport {
    /// Wraps a service.
    pub fn new(service: Arc<dyn Service>) -> LocalTransport {
        LocalTransport { service }
    }
}

impl Transport for LocalTransport {
    fn round_trip(&self, request: &Request) -> Result<Response, TransportError> {
        Ok(self.service.handle(request))
    }
}

/// Idle keep-alive connections an [`HttpClient`] retains by default.
pub const DEFAULT_POOL_SIZE: usize = 8;

/// A blocking HTTP client with a pool of keep-alive connections.
///
/// Thread-safe and genuinely concurrent: each in-flight request checks
/// an idle connection out of the pool (or dials a fresh one) and checks
/// it back in afterwards, so N threads sharing one client drive N
/// sockets in parallel instead of serializing on a single connection.
/// At most [`DEFAULT_POOL_SIZE`] (see [`HttpClient::with_pool_size`])
/// idle connections are retained; extras are closed on check-in.
pub struct HttpClient {
    addr: String,
    pool: Mutex<Vec<TcpStream>>,
    max_idle: usize,
    timeout: Duration,
}

fn count_client_connection(kind: &'static str) {
    sensorsafe_obsv::global()
        .counter(
            "sensorsafe_net_client_connections_total",
            "Client-side connection checkouts, by kind: freshly dialed \
             vs reused from the keep-alive pool.",
            &[("kind", kind)],
        )
        .inc();
}

impl HttpClient {
    /// A client for `host:port`.
    pub fn new(addr: impl Into<String>) -> HttpClient {
        HttpClient {
            addr: addr.into(),
            pool: Mutex::new(Vec::new()),
            max_idle: DEFAULT_POOL_SIZE,
            timeout: Duration::from_secs(10),
        }
    }

    /// Overrides the per-operation socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> HttpClient {
        self.timeout = timeout;
        self
    }

    /// Overrides how many idle keep-alive connections the pool retains
    /// (`0` disables pooling: every request dials fresh).
    pub fn with_pool_size(mut self, max_idle: usize) -> HttpClient {
        self.max_idle = max_idle;
        self
    }

    /// The server address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Idle pooled connections right now (used by tests and benches).
    pub fn idle_connections(&self) -> usize {
        self.pool.lock().len()
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        count_client_connection("fresh");
        Ok(stream)
    }

    /// Returns a healthy connection to the pool, unless the pool is
    /// already holding `max_idle` of them.
    fn checkin(&self, stream: TcpStream) {
        let mut pool = self.pool.lock();
        if pool.len() < self.max_idle {
            pool.push(stream);
        }
    }

    fn try_once(&self, stream: &mut TcpStream, request: &Request) -> std::io::Result<Response> {
        write_request(stream, request)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        read_response(&mut reader)
    }

    /// Sends a request on a pooled connection (dialing fresh when none
    /// is idle), transparently reconnecting once if the pooled
    /// connection has gone stale.
    pub fn send(&self, request: &Request) -> Result<Response, TransportError> {
        let close = request
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        // Pop under a short-lived guard: binding the checkout first
        // keeps the pool unlocked during the round trip (and during
        // `checkin`, which takes the lock again).
        let checkout = self.pool.lock().pop();
        if let Some(mut pooled) = checkout {
            count_client_connection("reused");
            // On error the pooled connection had gone stale — drop it
            // and fall through to a fresh dial.
            if let Ok(resp) = self.try_once(&mut pooled, request) {
                if !close {
                    self.checkin(pooled);
                }
                return Ok(resp);
            }
        }
        let mut fresh = self.connect()?;
        let resp = self.try_once(&mut fresh, request)?;
        if !close {
            self.checkin(fresh);
        }
        Ok(resp)
    }
}

/// TCP transport backed by an [`HttpClient`].
pub struct TcpTransport {
    client: HttpClient,
}

impl TcpTransport {
    /// A transport for `host:port`.
    pub fn new(addr: impl Into<String>) -> TcpTransport {
        TcpTransport {
            client: HttpClient::new(addr),
        }
    }
}

impl Transport for TcpTransport {
    fn round_trip(&self, request: &Request) -> Result<Response, TransportError> {
        self.client.send(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Status;
    use crate::{Router, Server};
    use sensorsafe_json::json;

    fn service() -> Arc<dyn Service> {
        let mut router = Router::new();
        router.get("/whoami", |_, _| Response::json(&json!("service")));
        Arc::new(router)
    }

    #[test]
    fn local_transport_round_trips() {
        let t = LocalTransport::new(service());
        let resp = t.round_trip(&Request::get("/whoami")).unwrap();
        assert_eq!(resp.json_body().unwrap(), json!("service"));
    }

    #[test]
    fn tcp_transport_round_trips() {
        let server = Server::bind("127.0.0.1:0", 1, service()).unwrap();
        let t = TcpTransport::new(server.addr_string());
        let resp = t.round_trip(&Request::get("/whoami")).unwrap();
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn local_and_tcp_agree() {
        let server = Server::bind("127.0.0.1:0", 1, service()).unwrap();
        let tcp = TcpTransport::new(server.addr_string());
        let local = LocalTransport::new(service());
        let req = Request::get("/whoami");
        let a = tcp.round_trip(&req).unwrap();
        let b = local.round_trip(&req).unwrap();
        assert_eq!(a.status, b.status);
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn client_reconnects_after_server_restart() {
        let service = service();
        let server = Server::bind("127.0.0.1:0", 1, service.clone()).unwrap();
        let addr = server.addr_string();
        let client = HttpClient::new(addr.clone());
        assert!(client.send(&Request::get("/whoami")).is_ok());
        drop(server); // connection goes stale
        let server2 = Server::bind(&addr, 1, service).unwrap();
        // One transparent retry re-establishes the connection.
        let resp = client.send(&Request::get("/whoami")).unwrap();
        assert_eq!(resp.status, Status::Ok);
        drop(server2);
    }

    #[test]
    fn connect_to_nothing_errors() {
        let client = HttpClient::new("127.0.0.1:1").with_timeout(Duration::from_millis(200));
        assert!(client.send(&Request::get("/x")).is_err());
    }

    #[test]
    fn sequential_sends_reuse_one_pooled_connection() {
        let server = Server::bind("127.0.0.1:0", 1, service()).unwrap();
        let client = HttpClient::new(server.addr_string());
        for _ in 0..5 {
            assert!(client.send(&Request::get("/whoami")).is_ok());
        }
        assert_eq!(client.idle_connections(), 1);
    }

    #[test]
    fn concurrent_sends_share_the_pool() {
        let server = Server::bind("127.0.0.1:0", 4, service()).unwrap();
        let client = Arc::new(HttpClient::new(server.addr_string()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let client = client.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    assert_eq!(
                        client.send(&Request::get("/whoami")).unwrap().status,
                        Status::Ok
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Everything healthy got checked back in, capped at the pool
        // size; at least one connection survived for reuse.
        let idle = client.idle_connections();
        assert!(
            (1..=super::DEFAULT_POOL_SIZE).contains(&idle),
            "idle={idle}"
        );
    }

    #[test]
    fn pool_cap_is_enforced() {
        let server = Server::bind("127.0.0.1:0", 4, service()).unwrap();
        let client = Arc::new(HttpClient::new(server.addr_string()).with_pool_size(2));
        let mut handles = Vec::new();
        // 6 threads in flight at once can dial up to 6 sockets, but at
        // most 2 may be retained.
        for _ in 0..6 {
            let client = client.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    client.send(&Request::get("/whoami")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(client.idle_connections() <= 2);
    }

    #[test]
    fn pool_size_zero_disables_pooling() {
        let server = Server::bind("127.0.0.1:0", 1, service()).unwrap();
        let client = HttpClient::new(server.addr_string()).with_pool_size(0);
        for _ in 0..3 {
            assert!(client.send(&Request::get("/whoami")).is_ok());
        }
        assert_eq!(client.idle_connections(), 0);
    }

    #[test]
    fn connection_close_requests_are_not_pooled() {
        let server = Server::bind("127.0.0.1:0", 1, service()).unwrap();
        let client = HttpClient::new(server.addr_string());
        let mut req = Request::get("/whoami");
        req.headers.insert("connection".into(), "close".into());
        assert!(client.send(&req).is_ok());
        assert_eq!(client.idle_connections(), 0);
    }
}

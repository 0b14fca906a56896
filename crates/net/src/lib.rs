//! Minimal HTTP/1.1 networking for SensorSafe.
//!
//! The paper's servers expose HTTP APIs ("it is included in the body of a
//! HTTPS POST request", §5.4) and web user interfaces. No async runtime
//! or HTTP crate is in the permitted dependency set, so this crate
//! implements the needed subset from scratch over `std::net`:
//!
//! * [`http`] — request/response model, parser, and serializer
//!   (`Content-Length` framing; GET/POST/PUT/DELETE; keep-alive).
//! * [`Router`] — path-pattern routing (`/api/data/:user`) dispatching to
//!   handler closures; implements [`Service`].
//! * [`Edge`] — the front door the data store and the broker put their
//!   routers behind: one route match labels, traces, times and counts a
//!   request, and the ops endpoints (`/metrics`, `/traces`, `/debug/*`)
//!   are mounted once ([`edge`]).
//! * [`html`] — the HTML/form kit under both web user interfaces.
//! * [`Server`] — epoll event loops with `SO_REUSEPORT` sharded accept
//!   ([`evented`]), an incremental request decoder ([`codec`]), a bounded
//!   handler pool for the service code that waits (a route declared
//!   non-blocking — [`Service::blocking`] — is answered by the loop
//!   itself), overload shedding and clean shutdown.
//! * [`HttpClient`] — a blocking client for consumer apps, contributor
//!   phones, and server-to-server calls (rule sync, key escrow).
//! * [`promtext`] — a tolerant Prometheus text-format parser, the inverse
//!   of `sensorsafe-obsv`'s exposition, used by the broker's fleet
//!   scraper to turn a store's `/metrics` body back into samples.
//! * [`Transport`] — an abstraction over "talk to a service": either real
//!   TCP ([`TcpTransport`]) or an in-process call ([`LocalTransport`]),
//!   so benches can measure architecture costs without kernel noise and
//!   examples/tests can exercise real sockets.
//! * [`failover`] — a fence-aware [`Transport`] wrapper
//!   ([`FailoverTransport`]) that refetches a store's address from the
//!   broker and retries when the store dies or rejects with a stale
//!   epoch (the client half of broker-coordinated failover).
//!
//! TLS is intentionally absent (see DESIGN.md substitutions): in the
//! paper HTTPS wraps this byte stream transparently.

pub mod codec;
pub mod debug;
pub mod edge;
pub mod evented;
pub mod failover;
pub mod html;
pub mod http;
pub mod poll;
pub mod promtext;
mod router;
mod server;
pub mod traces;
mod transport;

pub use edge::{Edge, RequestFamilies};
pub use evented::{EventedConfig, Server};
pub use failover::{AddrResolver, FailoverTransport, TransportMaker};
pub use http::{Method, Reply, Request, Response, Status, TRACE_HEADER};
pub use promtext::{ParsedScrape, TextSample};
pub use router::{str_field, u64_field, Params, Router};
pub use transport::{
    HttpClient, LocalTransport, TcpTransport, Transport, TransportError, DEFAULT_POOL_SIZE,
};

use std::sync::Arc;

/// Anything that turns a request into a response. Routers, whole servers
/// (data store, broker), and test doubles implement this.
pub trait Service: Send + Sync {
    /// Handles one request.
    fn handle(&self, request: &Request) -> Response;

    /// Whether handling `request` may **wait**: on disk, on the network,
    /// on a sleep, or on a lock some other thread holds across one of
    /// those. [`Server`] runs a blocking request on its handler pool and
    /// a non-blocking one inline on the event loop that decoded it — so a
    /// `false` here that turns out slow stalls every other connection of
    /// that loop. The default is `true`; a wrapper around another
    /// service must forward this method or the default silently wins.
    fn blocking(&self, _request: &Request) -> bool {
        true
    }
}

impl<F> Service for F
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    fn handle(&self, request: &Request) -> Response {
        self(request)
    }
}

impl Service for Arc<dyn Service> {
    fn handle(&self, request: &Request) -> Response {
        (**self).handle(request)
    }

    fn blocking(&self, request: &Request) -> bool {
        (**self).blocking(request)
    }
}

//! The HTTP edge the data store and the broker share.
//!
//! The paper describes both as the same kind of server — an HTTP API whose
//! key rides in the POST body (§5.4) plus a web UI (§5.2) — so what they do
//! identically to *every* request is written here once:
//!
//! * **The front door** ([`Edge`]'s [`Service::handle`]): one walk of the
//!   route table yields the matched pattern and the handler; the request's
//!   span is opened under `"<METHOD> <pattern>"` (joining the caller's
//!   trace when it sent an `X-SensorSafe-Trace` header), the handler runs,
//!   and the latency histogram and status counter are recorded under the
//!   same pattern. A request is therefore labelled, timed and counted in
//!   exactly one place, and only ever by its route *pattern* — never the
//!   concrete path, so label cardinality is bounded by the route table;
//!   paths no route serves (404) or serves under another method (405)
//!   share the label `unmatched`. The metric handles are resolved once
//!   per route (and status code) on first use, so a request in steady
//!   state builds no label set and takes no registry lock.
//! * **The ops mount**: `GET /metrics` (the instance registry, then the
//!   process-wide one, in one scrape body), `GET /traces`,
//!   `GET /debug/profile` and `GET /debug/spans`.

use crate::http::{Request, Response, Status};
use crate::router::{Resolved, Router};
use crate::Service;
use sensorsafe_obsv::{Counter, Histogram, Registry, TraceRecorder};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The two per-request metric families of one server, each as `(name,
/// help)`. The servers pass literals so the README metrics lint
/// (`crates/obsv/tests/metrics_docs.rs`) finds the names in their source.
pub struct RequestFamilies {
    /// Latency histogram, labelled `endpoint`.
    pub seconds: (&'static str, &'static str),
    /// Request counter, labelled `endpoint` and `code`.
    pub total: (&'static str, &'static str),
}

/// The label of requests no route serves.
const UNMATCHED: &str = "unmatched";

/// One route's metric handles, each resolved the first time it is
/// needed — a series exists from the first request that earns it, as when
/// every request looked it up by label.
#[derive(Default)]
struct RouteMetrics {
    seconds: OnceLock<Arc<Histogram>>,
    /// By [`Status`] variant.
    total: [OnceLock<Arc<Counter>>; Status::ServiceUnavailable as usize + 1],
}

/// A server's routes behind the shared front door (module docs).
pub struct Edge {
    router: Router,
    families: RequestFamilies,
    registry: Arc<Registry>,
    traces: Arc<TraceRecorder>,
    /// One entry per route by table index, then the one `unmatched`
    /// requests share.
    metrics: Vec<RouteMetrics>,
}

impl Edge {
    /// Puts `router` (the server's own routes) behind the front door and
    /// mounts the ops endpoints after them.
    pub fn new(
        mut router: Router,
        families: RequestFamilies,
        registry: Arc<Registry>,
        traces: Arc<TraceRecorder>,
    ) -> Edge {
        {
            let registry = registry.clone();
            router.get("/metrics", move |_, _| {
                let mut body = registry.encode();
                body.push_str(&sensorsafe_obsv::global().encode());
                Response::text(body)
            });
        }
        {
            let traces = traces.clone();
            router.get("/traces", move |req, _| {
                crate::traces::traces_response(&traces, req)
            });
        }
        router.get("/debug/profile", |req, _| {
            crate::debug::profile_response(req)
        });
        router.get("/debug/spans", |req, _| crate::debug::spans_response(req));
        let metrics = (0..=router.len())
            .map(|_| RouteMetrics::default())
            .collect();
        Edge {
            router,
            families,
            registry,
            traces,
            metrics,
        }
    }

    /// The routes this server declared non-blocking
    /// ([`Router::non_blocking_routes`]).
    pub fn non_blocking_routes(&self) -> Vec<String> {
        self.router.non_blocking_routes()
    }
}

impl Service for Edge {
    fn handle(&self, request: &Request) -> Response {
        let resolved = self.router.resolve(request);
        let endpoint = resolved.pattern().unwrap_or(UNMATCHED);
        let _span = self.traces.begin_ctx(
            format!("{} {endpoint}", request.method.as_str()),
            request.trace_context(),
        );
        let metrics = match &resolved {
            Resolved::Route(route, _) => &self.metrics[route.index],
            _ => &self.metrics[self.router.len()],
        };
        let started = Instant::now();
        let response = resolved.respond(request);
        metrics
            .seconds
            .get_or_init(|| {
                let (name, help) = self.families.seconds;
                self.registry
                    .histogram(name, help, &[("endpoint", endpoint)], None)
            })
            .observe(started.elapsed());
        metrics.total[response.status as usize]
            .get_or_init(|| {
                let (name, help) = self.families.total;
                let code = response.status.code().to_string();
                self.registry
                    .counter(name, help, &[("endpoint", endpoint), ("code", &code)])
            })
            .inc();
        response
    }

    fn blocking(&self, request: &Request) -> bool {
        self.router.blocking(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Method, Status};

    fn edge() -> Edge {
        let mut router = Router::new();
        router.get("/api/data/:user", |_, params| {
            Response::text(params.get("user").unwrap_or_default())
        });
        Edge::new(
            router,
            RequestFamilies {
                seconds: ("sensorsafe_test_request_seconds", "Latency."),
                total: ("sensorsafe_test_requests_total", "Requests."),
            },
            Arc::new(Registry::new()),
            TraceRecorder::new(8),
        )
    }

    #[test]
    fn a_request_is_labelled_by_pattern_on_histogram_counter_and_span() {
        let edge = edge();
        assert_eq!(edge.handle(&Request::get("/api/data/alice")).body, b"alice");
        assert_eq!(
            edge.handle(&Request::get("/api/nope")).status,
            Status::NotFound
        );
        let mut wrong = Request::get("/api/data/alice");
        wrong.method = Method::Delete;
        assert_eq!(edge.handle(&wrong).status, Status::MethodNotAllowed);

        let names: Vec<String> = edge
            .traces
            .recent_traces()
            .into_iter()
            .map(|t| t.name)
            .collect();
        assert_eq!(
            names,
            ["GET /api/data/:user", "GET unmatched", "DELETE unmatched"]
        );
        let scrape = edge.handle(&Request::get("/metrics"));
        let text = String::from_utf8(scrape.body).unwrap();
        for line in [
            "sensorsafe_test_request_seconds_count{endpoint=\"/api/data/:user\"} 1",
            "sensorsafe_test_request_seconds_count{endpoint=\"unmatched\"} 2",
            "sensorsafe_test_requests_total{code=\"200\",endpoint=\"/api/data/:user\"} 1",
            "sensorsafe_test_requests_total{code=\"404\",endpoint=\"unmatched\"} 1",
            "sensorsafe_test_requests_total{code=\"405\",endpoint=\"unmatched\"} 1",
        ] {
            assert!(text.contains(line), "missing {line} in:\n{text}");
        }
        assert!(!text.contains("alice") && !text.contains("nope"), "{text}");
    }

    #[test]
    fn ops_endpoints_are_mounted() {
        let edge = edge();
        for path in ["/metrics", "/traces", "/debug/spans"] {
            assert_eq!(
                edge.handle(&Request::get(path)).status,
                Status::Ok,
                "{path}"
            );
        }
        let profile = Request::get("/debug/profile").with_query("seconds", "0");
        assert_eq!(edge.handle(&profile).status, Status::Ok);
    }
}

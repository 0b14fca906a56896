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
//!   and the span's duration — its one clock reading — is what the latency
//!   histogram records, beside a status counter under the same pattern. A
//!   request is therefore labelled, timed and counted in exactly one
//!   place, and only ever by its route *pattern* — never the concrete
//!   path, so label cardinality is bounded by the route table; paths no
//!   route serves (404) or serves under another method (405) share the
//!   label `unmatched`. Each route's span frame is resolved when the edge
//!   is built (an unmatched request's, once per method), and the metric
//!   handles once per route (and status code) on first use, so a request
//!   in steady state formats no name, builds no label set and takes no
//!   intern or registry lock.
//! * **The ops mount**: `GET /metrics` (the instance registry, then the
//!   process-wide one, in one scrape body), `GET /traces`,
//!   `GET /debug/profile` and `GET /debug/spans`.

use crate::http::{Method, Request, Response, Status};
use crate::router::{Resolved, Router};
use crate::Service;
use sensorsafe_obsv::{Counter, Frame, Histogram, Registry, TraceRecorder};
use std::sync::{Arc, OnceLock};

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
    /// Each route's span frame by table index.
    frames: Vec<Frame>,
    /// The span frame of an unmatched request, by [`Method`] variant.
    unmatched: [OnceLock<Frame>; Method::Delete as usize + 1],
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
        let frames: Vec<Frame> = router
            .routes()
            .iter()
            .map(|route| Frame::from(route.name()))
            .collect();
        let metrics = (0..=frames.len())
            .map(|_| RouteMetrics::default())
            .collect();
        Edge {
            router,
            families,
            registry,
            traces,
            metrics,
            frames,
            unmatched: Default::default(),
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
        let (index, frame) = match &resolved {
            Resolved::Route(route, _) => (route.index, self.frames[route.index]),
            _ => (
                self.frames.len(),
                *self.unmatched[request.method as usize].get_or_init(|| {
                    Frame::from(format!("{} {UNMATCHED}", request.method.as_str()))
                }),
            ),
        };
        let span = self.traces.begin_ctx(frame, request.trace_context());
        let response = resolved.respond(request);
        let elapsed = span.close();
        let endpoint = resolved.pattern().unwrap_or(UNMATCHED);
        let metrics = &self.metrics[index];
        metrics
            .seconds
            .get_or_init(|| {
                let (name, help) = self.families.seconds;
                self.registry
                    .histogram(name, help, &[("endpoint", endpoint)], None)
            })
            .observe(elapsed);
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
    fn one_measurement_feeds_histogram_span_stats_and_trace_ring() {
        // The route histogram, the route's span-stats row and the trace
        // ring all record the span's one clock reading.
        const N: u64 = 20;
        let mut router = Router::new();
        router.get("/edge_test/three_sinks", |_, _| Response::text("ok"));
        let registry = Arc::new(Registry::new());
        let traces = TraceRecorder::new(N as usize);
        let edge = Edge::new(
            router,
            RequestFamilies {
                seconds: ("sensorsafe_test_request_seconds", "Latency."),
                total: ("sensorsafe_test_requests_total", "Requests."),
            },
            registry.clone(),
            traces.clone(),
        );
        let histogram = registry.histogram(
            "sensorsafe_test_request_seconds",
            "Latency.",
            &[("endpoint", "/edge_test/three_sinks")],
            None,
        );
        let row = || {
            sensorsafe_obsv::prof::span_stats()
                .into_iter()
                .find(|s| s.name == "GET /edge_test/three_sinks")
                .map_or((0, std::time::Duration::ZERO), |s| (s.count, s.total))
        };
        let (count_before, total_before) = row();
        let hist_before = histogram.snapshot();
        for _ in 0..N {
            let resp = edge.handle(&Request::get("/edge_test/three_sinks"));
            assert_eq!(resp.status, Status::Ok);
        }
        let (count_after, total_after) = row();
        let hist_after = histogram.snapshot();
        let ring = traces.recent_traces();

        let hist_count = hist_after.count() - hist_before.count();
        assert_eq!(hist_count, N);
        assert_eq!(count_after - count_before, N);
        assert_eq!(ring.len() as u64, N);
        assert!(ring.iter().all(|t| t.name == "GET /edge_test/three_sinks"));
        let span_secs = (total_after - total_before).as_secs_f64();
        let hist_secs = hist_after.sum() - hist_before.sum();
        let ring_secs: f64 = ring.iter().map(|t| t.total.as_secs_f64()).sum();
        let tolerance = N as f64 * 1e-9;
        assert!(
            (hist_secs - span_secs).abs() <= tolerance,
            "histogram {hist_secs} s vs span-stats {span_secs} s"
        );
        assert!(
            (ring_secs - span_secs).abs() <= tolerance,
            "trace ring {ring_secs} s vs span-stats {span_secs} s"
        );
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

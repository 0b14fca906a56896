//! Path-pattern routing.
//!
//! Patterns are `/`-separated literals and `:name` captures:
//! `/api/data/:user` matches `/api/data/alice` with `user = "alice"`.
//! Dispatch picks the first registered route whose method and pattern
//! match; a path that matches some pattern with a different method yields
//! 405, otherwise 404. The table is walked once per request
//! ([`Router::resolve`]): the walk yields the matched route, whose
//! pattern labels the request ([`crate::Edge`]) and whose handler
//! answers it.

use crate::http::{Method, Reply, Request, Response, Status};
use crate::Service;
use sensorsafe_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Captured path parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params(BTreeMap<String, String>);

impl Params {
    /// The captured value of `:name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }
}

type Handler = Arc<dyn Fn(&Request, &Params) -> Response + Send + Sync>;

pub(crate) struct Route {
    /// Position in the table (the front door keys its per-route metric
    /// handles by it).
    pub(crate) index: usize,
    method: Method,
    raw_pattern: String,
    pattern: Vec<Pattern>,
    handler: Handler,
    /// The handler never waits ([`Router::non_blocking`]).
    non_blocking: bool,
}

impl Route {
    /// `"<METHOD> <pattern>"`: the route's span name.
    pub(crate) fn name(&self) -> String {
        format!("{} {}", self.method.as_str(), self.raw_pattern)
    }
}

/// Where one walk of the route table ended.
pub(crate) enum Resolved<'a> {
    /// Method and pattern matched.
    Route(&'a Route, Params),
    /// Some pattern matched the path, under another method (405).
    WrongMethod,
    /// No pattern matched the path (404).
    NoRoute,
}

impl Resolved<'_> {
    /// The matched route's pattern as registered, e.g. `/api/data/:user`
    /// for `GET /api/data/alice`; `None` for a 404/405.
    pub(crate) fn pattern(&self) -> Option<&str> {
        match self {
            Resolved::Route(route, _) => Some(&route.raw_pattern),
            _ => None,
        }
    }

    /// Runs the matched handler, or builds the 405/404.
    pub(crate) fn respond(&self, request: &Request) -> Response {
        match self {
            Resolved::Route(route, params) => (route.handler)(request, params),
            Resolved::WrongMethod => {
                Response::error(Status::MethodNotAllowed, "method not allowed")
            }
            Resolved::NoRoute => Response::error(Status::NotFound, "no such route"),
        }
    }
}

enum Pattern {
    Literal(String),
    Capture(String),
}

fn compile(pattern: &str) -> Vec<Pattern> {
    pattern
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|seg| match seg.strip_prefix(':') {
            Some(name) => Pattern::Capture(name.to_string()),
            None => Pattern::Literal(seg.to_string()),
        })
        .collect()
}

fn match_path(pattern: &[Pattern], segments: &[&str]) -> Option<Params> {
    if segments.len() != pattern.len() {
        return None;
    }
    let mut params = Params::default();
    for (pat, seg) in pattern.iter().zip(segments) {
        match pat {
            Pattern::Literal(lit) if lit == seg => {}
            Pattern::Literal(_) => return None,
            Pattern::Capture(name) => {
                params.0.insert(name.clone(), (*seg).to_string());
            }
        }
    }
    Some(params)
}

/// `body[field]` as a string, or the 400 that names the missing field.
pub fn str_field<'a>(body: &'a Value, field: &str) -> Result<&'a str, Response> {
    body.get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| Response::bad_request(&format!("missing '{field}'")))
}

/// `body[field]` as an unsigned integer, or the 400 that names it.
pub fn u64_field(body: &Value, field: &str) -> Result<u64, Response> {
    body.get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| Response::bad_request(&format!("missing '{field}'")))
}

/// A method+pattern dispatcher.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Registers a route.
    pub fn route(
        &mut self,
        method: Method,
        pattern: &str,
        handler: impl Fn(&Request, &Params) -> Response + Send + Sync + 'static,
    ) -> &mut Router {
        self.routes.push(Route {
            index: self.routes.len(),
            method,
            raw_pattern: pattern.to_string(),
            pattern: compile(pattern),
            handler: Arc::new(handler),
            non_blocking: false,
        });
        self
    }

    /// Declares the route registered last **non-blocking**: the server may
    /// run its handler inline on an event loop ([`Service::blocking`]).
    /// Only for a handler that never waits on disk, the network, a sleep,
    /// or a lock held across one — a slow inline handler stalls its loop's
    /// other connections.
    pub fn non_blocking(&mut self) -> &mut Router {
        self.routes
            .last_mut()
            .expect("non_blocking() follows a route registration")
            .non_blocking = true;
        self
    }

    /// Every route declared [`non_blocking`](Router::non_blocking), as
    /// `"<METHOD> <pattern>"` in table order.
    pub fn non_blocking_routes(&self) -> Vec<String> {
        self.routes
            .iter()
            .filter(|route| route.non_blocking)
            .map(Route::name)
            .collect()
    }

    /// The table, in registration order (a route's `index` is its
    /// position).
    pub(crate) fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Walks the route table once for `request`.
    pub(crate) fn resolve(&self, request: &Request) -> Resolved<'_> {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let mut resolved = Resolved::NoRoute;
        for route in &self.routes {
            if let Some(params) = match_path(&route.pattern, &segments) {
                if route.method == request.method {
                    return Resolved::Route(route, params);
                }
                resolved = Resolved::WrongMethod;
            }
        }
        resolved
    }

    /// Registers a GET route.
    pub fn get(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Request, &Params) -> Response + Send + Sync + 'static,
    ) -> &mut Router {
        self.route(Method::Get, pattern, handler)
    }

    /// Registers a POST route.
    pub fn post(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Request, &Params) -> Response + Send + Sync + 'static,
    ) -> &mut Router {
        self.route(Method::Post, pattern, handler)
    }

    /// Registers a POST route whose body is JSON (the §5.4 convention: the
    /// caller's key and arguments travel in the body). A body that does
    /// not parse is answered 400 before `handler` runs; the handler's
    /// early exits ([`Reply`]'s error arm — see [`str_field`]) are sent as
    /// they are.
    pub fn post_json(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Value) -> Reply + Send + Sync + 'static,
    ) -> &mut Router {
        self.post(pattern, move |req, _| match req.json() {
            Ok(body) => handler(&body).unwrap_or_else(|early| early),
            Err(e) => Response::bad_request(&format!("invalid JSON body: {e}")),
        })
    }
}

impl Service for Router {
    fn handle(&self, request: &Request) -> Response {
        self.resolve(request).respond(request)
    }

    /// `false` only for a request the table resolves (first match wins,
    /// as in `handle`) to a route declared non-blocking; 404s and 405s
    /// take the pool like everything undeclared.
    fn blocking(&self, request: &Request) -> bool {
        !matches!(self.resolve(request), Resolved::Route(route, _) if route.non_blocking)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_json::json;

    fn router() -> Router {
        let mut r = Router::new();
        r.get("/health", |_, _| Response::json(&json!({"ok": true})));
        r.get("/api/data/:user", |_, params| {
            Response::json(&json!({"user": (params.get("user").unwrap())}))
        });
        r.post("/api/data/:user", |req, params| {
            Response::json(&json!({
                "user": (params.get("user").unwrap()),
                "bytes": (req.body.len()),
            }))
        });
        r.get("/api/:a/:b", |_, params| {
            Response::json(&json!({
                "a": (params.get("a").unwrap()),
                "b": (params.get("b").unwrap()),
            }))
        });
        r
    }

    #[test]
    fn literal_route() {
        let resp = router().handle(&Request::get("/health"));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.json_body().unwrap()["ok"].as_bool(), Some(true));
    }

    #[test]
    fn capture_route() {
        let resp = router().handle(&Request::get("/api/data/alice"));
        assert_eq!(resp.json_body().unwrap()["user"].as_str(), Some("alice"));
    }

    #[test]
    fn method_dispatch() {
        let req = Request::post_json("/api/data/alice", &json!({"x": 1}));
        let resp = router().handle(&req);
        assert_eq!(resp.json_body().unwrap()["bytes"].as_i64(), Some(7));
    }

    #[test]
    fn first_match_wins() {
        // `/api/data/:user` is registered before `/api/:a/:b`.
        let resp = router().handle(&Request::get("/api/data/alice"));
        assert!(resp.json_body().unwrap().get("user").is_some());
        // A non-"data" middle segment falls through to the generic route.
        let resp2 = router().handle(&Request::get("/api/users/bob"));
        assert_eq!(resp2.json_body().unwrap()["a"].as_str(), Some("users"));
    }

    #[test]
    fn not_found_vs_method_not_allowed() {
        let missing = router().handle(&Request::get("/nope"));
        assert_eq!(missing.status, Status::NotFound);
        let wrong_method = router().handle(&Request {
            method: Method::Delete,
            ..Request::get("/health")
        });
        assert_eq!(wrong_method.status, Status::MethodNotAllowed);
    }

    #[test]
    fn trailing_slash_equivalence() {
        let resp = router().handle(&Request::get("/health/"));
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn only_a_declared_route_is_non_blocking_and_first_match_decides() {
        let mut r = Router::new();
        r.get("/api/:any", |_, _| Response::status(Status::Ok));
        r.get("/api/shadowed", |_, _| Response::status(Status::Ok))
            .non_blocking();
        r.get("/health", |_, _| Response::status(Status::Ok))
            .non_blocking();
        r.post("/health", |_, _| Response::status(Status::Ok));
        assert_eq!(
            r.non_blocking_routes(),
            ["GET /api/shadowed", "GET /health"]
        );
        assert!(!r.blocking(&Request::get("/health")));
        assert!(!r.blocking(&Request::get("/health/")));
        // The same path under the undeclared method, a 404 and a 405.
        let as_method = |method, path: &str| Request {
            method,
            ..Request::get(path)
        };
        assert!(r.blocking(&as_method(Method::Post, "/health")));
        assert!(r.blocking(&Request::get("/nope")));
        assert!(r.blocking(&as_method(Method::Delete, "/health")));
        // `/api/:any` is registered first and serves `/api/shadowed`, so
        // the pool runs it whatever the later route declares.
        assert!(r.blocking(&Request::get("/api/shadowed")));
    }

    #[test]
    fn segment_count_must_match() {
        assert_eq!(
            router().handle(&Request::get("/api/data")).status,
            Status::NotFound
        );
        assert_eq!(
            router()
                .handle(&Request::get("/api/data/alice/extra"))
                .status,
            Status::NotFound
        );
    }

    #[test]
    fn post_json_parses_the_body_or_answers_400() {
        let mut r = Router::new();
        r.post_json("/api/echo", |body| {
            Ok(Response::json(&json!({"name": (str_field(body, "name")?)})))
        });
        let ok = r.handle(&Request::post_json("/api/echo", &json!({"name": "x"})));
        assert_eq!(ok.json_body().unwrap(), json!({"name": "x"}));
        let missing = r.handle(&Request::post_json("/api/echo", &json!({"epoch": 1})));
        assert_eq!(missing.status, Status::BadRequest);
        assert_eq!(
            missing.json_body().unwrap()["error"].as_str(),
            Some("missing 'name'")
        );
        assert_eq!(u64_field(&json!({"epoch": 1}), "epoch"), Ok(1));
        assert!(u64_field(&json!({"epoch": "1"}), "epoch").is_err());
        let mut bad = Request::post_json("/api/echo", &json!(null));
        bad.body = b"{not json".to_vec();
        let resp = r.handle(&bad);
        assert_eq!(resp.status, Status::BadRequest);
        let error = resp.json_body().unwrap()["error"]
            .as_str()
            .unwrap()
            .to_string();
        assert!(error.starts_with("invalid JSON body: "), "{error}");
    }
}

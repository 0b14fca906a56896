//! The broker's web user interface (§5.2): login, contributor search
//! form, and registry overview.

use crate::service::Inner;
use sensorsafe_net::html::{escape, form_all, page, parse_form, with_session};
use sensorsafe_net::{Method, Request, Response, Router, Status};
use sensorsafe_policy::{ConsumerCtx, SearchQuery};
use sensorsafe_types::{ChannelId, ConsumerId, ContextKind, RepeatTime, TimeOfDay, Weekday};
use std::sync::Arc;

/// The site name in every page title.
const SITE: &str = "SensorSafe Broker";

fn handle_login_page() -> Response {
    page(
        SITE,
        "Broker Login",
        r#"<form method="post" action="/ui/login">
            <label>Username <input type="text" name="username"></label>
            <label>Password <input type="password" name="password"></label>
            <button type="submit">Log in</button>
        </form>"#,
    )
}

fn handle_login(inner: &Inner, req: &Request) -> Response {
    let form = parse_form(&req.body);
    let (Some(username), Some(password)) = (form.get("username"), form.get("password")) else {
        return Response::error(Status::BadRequest, "missing username or password");
    };
    if !inner.passwords.verify(username, password) {
        return Response::error(Status::Unauthorized, "bad credentials");
    }
    let token = inner.sessions.login(username);
    page(
        SITE,
        "Logged in",
        &format!(
            r#"<ul><li><a href="/ui/search?session={t}">Search contributors</a></li>
            <li><a href="/ui/fleet?session={t}">Fleet health</a></li></ul>
            <p data-session-token="{t}"></p>"#,
            t = token
        ),
    )
}

fn search_form(session: &str) -> String {
    let day_boxes: String = Weekday::ALL
        .iter()
        .map(|d| {
            format!(
                r#"<label><input type="checkbox" name="day" value="{d}">{d}</label>"#,
                d = d.as_str()
            )
        })
        .collect();
    let context_boxes: String = ContextKind::ALL
        .iter()
        .map(|k| {
            format!(
                r#"<label><input type="checkbox" name="active" value="{k}">{k}</label>"#,
                k = k.as_str()
            )
        })
        .collect();
    format!(
        r#"<form method="post" action="/ui/search?session={session}">
        <label>Raw channels (comma-separated) <input type="text" name="channels"></label>
        <label>Location label <input type="text" name="location_label"></label>
        <fieldset><legend>Days</legend>{day_boxes}</fieldset>
        <label>From <input type="time" name="from"></label>
        <label>To <input type="time" name="to"></label>
        <fieldset><legend>Active contexts</legend>{context_boxes}</fieldset>
        <button type="submit">Search</button>
        </form>"#
    )
}

fn handle_search_page(inner: &Inner, req: &Request, _: &str) -> Response {
    let session = req.query.get("session").cloned().unwrap_or_default();
    let all: String = inner
        .registry
        .contributor_ids()
        .iter()
        .map(|c| format!("<li>{}</li>", escape(c.as_str())))
        .collect();
    page(
        SITE,
        "Contributor Search",
        &format!(
            "<h2>All contributors</h2><ul id=\"contributors\">{all}</ul>{}",
            search_form(&session)
        ),
    )
}

fn handle_search_post(inner: &Inner, req: &Request, username: &str) -> Response {
    let form = parse_form(&req.body);
    let get = |k: &str| form.get(k).filter(|v| !v.is_empty());
    let consumer = match inner.registry.consumer(&ConsumerId::new(username)) {
        Some(record) => ConsumerCtx {
            id: Some(ConsumerId::new(username)),
            groups: record.groups,
            studies: record.studies,
        },
        None => ConsumerCtx::user(username),
    };
    let mut query = SearchQuery {
        consumer,
        ..Default::default()
    };
    if let Some(channels) = get("channels") {
        query.raw_channels = channels
            .split(',')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .map(ChannelId::new)
            .collect();
    }
    if let Some(label) = get("location_label") {
        query.location_labels.push(label.clone());
    }
    let days: Vec<Weekday> = form_all(&req.body, "day")
        .iter()
        .filter_map(|d| Weekday::parse(d))
        .collect();
    if let (Some(from), Some(to)) = (
        get("from").and_then(|v| TimeOfDay::parse(v)),
        get("to").and_then(|v| TimeOfDay::parse(v)),
    ) {
        query.repeat = Some(RepeatTime::new(days, from, to));
    }
    query.active_contexts = form_all(&req.body, "active")
        .iter()
        .filter_map(|c| ContextKind::parse(c))
        .collect();
    let mut items = String::new();
    let mut hits = 0;
    let index = inner.rules.read();
    let evaluated = index.search_each(&query, |run| {
        for hit in run.hits() {
            hits += 1;
            items.push_str(&format!("<li>{}</li>", escape(&hit.name())));
        }
    });
    inner.mirror_metrics.observe_search(&index, evaluated);
    drop(index);
    page(
        SITE,
        "Search Results",
        &format!("<p>{hits} contributor(s) share enough data.</p><ol id=\"results\">{items}</ol>"),
    )
}

/// `GET /ui/fleet`: the fleet health plane as an HTML table — the same
/// snapshot `GET /fleet` serves as JSON.
fn handle_fleet_page(inner: &Inner, _: &Request, _: &str) -> Response {
    let Ok(fleet) = inner.handle_fleet().json_body() else {
        return Response::error(Status::InternalError, "fleet snapshot unavailable");
    };
    let rows: String = fleet["stores"]
        .as_array()
        .map(|stores| {
            stores
                .iter()
                .map(|s| {
                    let health = s["health"].as_str().unwrap_or("unknown");
                    let staleness = s["staleness_secs"]
                        .as_f64()
                        .map(|v| format!("{v:.0}s"))
                        .unwrap_or_else(|| "never".to_string());
                    format!(
                        "<tr class=\"fleet-{health}\"><td>{addr}</td><td>{health}</td>\
                         <td>{healthz}</td><td>{failures}/{probes}</td>\
                         <td>{staleness}</td></tr>",
                        addr = escape(s["addr"].as_str().unwrap_or("?")),
                        healthz = escape(s["healthz_status"].as_str().unwrap_or("—")),
                        failures = s["failures"].as_u64().unwrap_or(0),
                        probes = s["probes"].as_u64().unwrap_or(0),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let failovers: String = fleet["failovers"]
        .as_array()
        .map(|events| {
            events
                .iter()
                .map(|f| {
                    format!(
                        "<li>{from} &rarr; {to} (epoch {epoch}{fence})</li>",
                        from = escape(f["from"].as_str().unwrap_or("?")),
                        to = escape(f["to"].as_str().unwrap_or("?")),
                        epoch = f["epoch"].as_u64().unwrap_or(0),
                        fence = if f["fenced"].as_bool() == Some(true) {
                            ""
                        } else {
                            ", fence pending"
                        },
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let failover_block = if failovers.is_empty() {
        "<p id=\"no-failovers\">No failovers.</p>".to_string()
    } else {
        format!("<h2>Failovers</h2><ul id=\"failovers\">{failovers}</ul>")
    };
    page(
        SITE,
        "Fleet Health",
        &format!(
            "<p>{sweeps} sweep(s).</p>{failover_block}\
             <table id=\"fleet\"><tr><th>Store</th><th>Health</th><th>Healthz</th>\
             <th>Failures</th><th>Staleness</th></tr>{rows}</table>",
            sweeps = fleet["sweeps"].as_u64().unwrap_or(0),
        ),
    )
}

/// `GET /ui/spans` — the broker's continuous span-stats table (profiling
/// plane), behind a session like the fleet page.
fn handle_spans_page(_: &Inner, _: &Request, _: &str) -> Response {
    page(
        SITE,
        "Profiling spans",
        &sensorsafe_net::debug::spans_page_html(),
    )
}

/// Mounts the broker web UI. Every page but the login pair is served to a
/// valid session only, and is handed the user name the session belongs to.
pub(crate) fn mount(router: &mut Router, inner: &Arc<Inner>) {
    router.get("/ui/login", |_, _| handle_login_page());
    {
        let inner = inner.clone();
        router.post("/ui/login", move |req, _| handle_login(&inner, req));
    }
    type Page = fn(&Inner, &Request, &str) -> Response;
    let pages: [(Method, &str, Page); 4] = [
        (Method::Get, "/ui/search", handle_search_page),
        (Method::Post, "/ui/search", handle_search_post),
        (Method::Get, "/ui/fleet", handle_fleet_page),
        (Method::Get, "/ui/spans", handle_spans_page),
    ];
    for (method, path, handler) in pages {
        let inner = inner.clone();
        router.route(method, path, move |req, _| {
            let validate = |token: &str| inner.sessions.validate(token);
            with_session(req, validate, |username| handler(&inner, req, username))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{BrokerConfig, BrokerService};
    use sensorsafe_json::{json, Value};
    use sensorsafe_net::Service;
    use sensorsafe_types::ContributorId;

    fn logged_in_broker() -> (BrokerService, String, String) {
        let (broker, admin) = BrokerService::new(BrokerConfig::default());
        // Bob needs a consumer account (for ConsumerCtx) and a web login.
        let resp = broker.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (admin.to_hex()), "name": "bob", "role": "consumer"}),
        ));
        assert_eq!(resp.status, Status::Created);
        broker.create_web_user("bob", "pw");
        let mut login = Request::get("/ui/login");
        login.method = Method::Post;
        login.body = b"username=bob&password=pw".to_vec();
        let resp = broker.handle(&login);
        let html = String::from_utf8(resp.body).unwrap();
        let token = html
            .split("data-session-token=\"")
            .nth(1)
            .unwrap()
            .split('"')
            .next()
            .unwrap()
            .to_string();
        (broker, admin.to_hex(), token)
    }

    fn mirror_rules(broker: &BrokerService, admin: &str, contributor: &str, rules: Value) {
        // Pair a fake store then sync through the API.
        let resp = broker.handle(&Request::post_json(
            "/api/stores/register",
            &json!({"key": admin, "addr": "store-x", "register_key": "k"}),
        ));
        let store_key = resp.json_body().unwrap()["store_key"]
            .as_str()
            .unwrap()
            .to_string();
        let resp = broker.handle(&Request::post_json(
            "/api/sync",
            &json!({
                "key": store_key,
                "contributor": contributor,
                "store_addr": "store-x",
                "epoch": 1,
                "rules": rules,
            }),
        ));
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn search_page_lists_contributors_and_form() {
        let (broker, admin, token) = logged_in_broker();
        mirror_rules(&broker, &admin, "alice", json!([{"Action": "Allow"}]));
        let resp = broker.handle(&Request::get("/ui/search").with_query("session", token));
        assert_eq!(resp.status, Status::Ok);
        let html = String::from_utf8(resp.body).unwrap();
        assert!(html.contains("alice"));
        assert!(html.contains("type=\"checkbox\""));
        assert!(html.contains("name=\"channels\""));
    }

    #[test]
    fn search_post_returns_matches() {
        let (broker, admin, token) = logged_in_broker();
        mirror_rules(&broker, &admin, "carol", json!([{"Action": "Allow"}]));
        let mut req = Request::get("/ui/search").with_query("session", token);
        req.method = Method::Post;
        req.body = b"channels=ecg,respiration".to_vec();
        let resp = broker.handle(&req);
        assert_eq!(resp.status, Status::Ok);
        let html = String::from_utf8(resp.body).unwrap();
        assert!(html.contains("<li>carol</li>"), "{html}");
        assert!(html.contains("1 contributor(s)"));
        // Registry upserted the contributor from the sync.
        assert_eq!(
            broker.contributor_count(),
            1,
            "sync should register {:?}",
            ContributorId::new("carol")
        );
    }

    #[test]
    fn search_requires_session() {
        let (broker, _, _) = logged_in_broker();
        let resp = broker.handle(&Request::get("/ui/search"));
        assert_eq!(resp.status, Status::Unauthorized);
    }

    #[test]
    fn fleet_page_renders_health_table() {
        let (broker, admin, token) = logged_in_broker();
        // Pair a store that will never answer probes (default TCP
        // transport to a bogus name): after one sweep it shows up in the
        // table with a failure recorded.
        broker.handle(&Request::post_json(
            "/api/stores/register",
            &json!({"key": admin, "addr": "store-x", "register_key": "k"}),
        ));
        broker.fleet_sweep_now();
        let resp = broker.handle(&Request::get("/ui/fleet").with_query("session", token));
        assert_eq!(resp.status, Status::Ok);
        let html = String::from_utf8(resp.body).unwrap();
        assert!(html.contains("<table id=\"fleet\""), "{html}");
        assert!(html.contains("store-x"));
        assert!(
            html.contains("degraded") || html.contains("unreachable"),
            "{html}"
        );
        // Unauthenticated access is refused like the rest of the UI.
        let resp = broker.handle(&Request::get("/ui/fleet"));
        assert_eq!(resp.status, Status::Unauthorized);
    }
}

//! The server-rendered web user interface (Fig. 3).
//!
//! The paper's UI is "Google Maps, calendars, dialog boxes, and common
//! HTML UI components such as text boxes, check boxes and radio
//! buttons"; offline, the map region picker becomes four numeric
//! bounding-box fields (see DESIGN.md substitutions), everything else is
//! the same form surface:
//!
//! * `GET /ui/login`, `POST /ui/login` — username/password login
//!   producing a session token (§5.4's web login system).
//! * `GET /ui/rules` — the rule-builder form plus the current rule list
//!   rendered from their canonical JSON.
//! * `POST /ui/rules` — creates a rule from the form fields and appends
//!   it to the contributor's rule set through the API path's own
//!   `Inner::replace_rules` (epoch bump, awareness note, broker sync,
//!   replica mirror, fence check).
//! * `GET /ui/data` — the contributor's data viewer (per-series stats).
//! * `GET /ui/audit` — the contributor's enforcement audit trail, paged
//!   backwards with `?before=<seq>`.
//! * `GET /ui/privacy` — the sharing-awareness dashboard: who receives
//!   the contributor's data, the outcome mix, per-rule hit counts with
//!   dead-rule highlighting, and the recent decision trend.
//!
//! Sessions travel in the `session` query parameter; the web username is
//! the contributor id.

use crate::service::Inner;
use sensorsafe_net::html::{escape, form_all, page, parse_form, with_session};
use sensorsafe_net::{Method, Request, Response, Router, Status};
use sensorsafe_policy::{
    AbstractionSpec, Action, ActivityAbs, BinaryAbs, Conditions, ConsumerSelector, LocationAbs,
    LocationCondition, PrivacyRule, TimeAbs, TimeCondition,
};
use sensorsafe_types::{
    ChannelId, ConsumerId, ContextKind, ContributorId, Region, RepeatTime, TimeOfDay, Weekday,
};
use std::sync::Arc;

/// The site name in every page title.
const SITE: &str = "SensorSafe";

fn login_form() -> Response {
    page(
        SITE,
        "Login",
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
            r#"<p>Welcome, {u}.</p>
            <ul>
              <li><a href="/ui/rules?session={t}">Privacy rules</a></li>
              <li><a href="/ui/data?session={t}">My data</a></li>
              <li><a href="/ui/audit?session={t}">Audit trail</a></li>
              <li><a href="/ui/privacy?session={t}">Sharing awareness</a></li>
            </ul>
            <p data-session-token="{t}"></p>"#,
            u = escape(username),
            t = token,
        ),
    )
}

/// The rule-builder form: the same condition/action surface as Table 1.
fn rules_form(session: &str) -> String {
    let context_boxes: String = ContextKind::ALL
        .iter()
        .map(|k| {
            format!(
                r#"<label><input type="checkbox" name="context" value="{k}">{k}</label>"#,
                k = k.as_str()
            )
        })
        .collect();
    let day_boxes: String = Weekday::ALL
        .iter()
        .map(|d| {
            format!(
                r#"<label><input type="checkbox" name="day" value="{d}">{d}</label>"#,
                d = d.as_str()
            )
        })
        .collect();
    let ladder = |name: &str, options: &[&str]| -> String {
        let opts: String = std::iter::once(String::from(r#"<option value=""></option>"#))
            .chain(
                options
                    .iter()
                    .map(|o| format!(r#"<option value="{o}">{o}</option>"#)),
            )
            .collect();
        format!(
            r#"<label>{name} <select name="abs_{lower}">{opts}</select></label>"#,
            lower = name.to_ascii_lowercase()
        )
    };
    format!(
        r#"<form method="post" action="/ui/rules?session={session}">
        <fieldset><legend>Consumer</legend>
          <label>User <input type="text" name="consumer"></label>
          <label>Group <input type="text" name="group"></label>
          <label>Study <input type="text" name="study"></label>
        </fieldset>
        <fieldset><legend>Location</legend>
          <label>Label <input type="text" name="location_label"></label>
          <label>South <input type="number" step="any" name="south"></label>
          <label>North <input type="number" step="any" name="north"></label>
          <label>West <input type="number" step="any" name="west"></label>
          <label>East <input type="number" step="any" name="east"></label>
        </fieldset>
        <fieldset><legend>Time</legend>
          {day_boxes}
          <label>From <input type="time" name="from"></label>
          <label>To <input type="time" name="to"></label>
        </fieldset>
        <fieldset><legend>Sensor</legend>
          <label>Channels (comma-separated) <input type="text" name="sensors"></label>
        </fieldset>
        <fieldset><legend>Context</legend>{context_boxes}</fieldset>
        <fieldset><legend>Action</legend>
          <label><input type="radio" name="action" value="Allow" checked>Allow</label>
          <label><input type="radio" name="action" value="Deny">Deny</label>
          <label><input type="radio" name="action" value="Abstraction">Abstraction</label>
          {loc_ladder}{time_ladder}{act_ladder}{stress_ladder}{smoke_ladder}{conv_ladder}
        </fieldset>
        <button type="submit">Add rule</button>
        </form>"#,
        loc_ladder = ladder(
            "Location",
            &[
                "Coordinates",
                "StreetAddress",
                "Zipcode",
                "City",
                "State",
                "Country",
                "NotShared"
            ]
        ),
        time_ladder = ladder(
            "Time",
            &["Milliseconds", "Hour", "Day", "Month", "Year", "NotShared"]
        ),
        act_ladder = ladder(
            "Activity",
            &["Raw", "TransportMode", "MoveNotMove", "NotShared"]
        ),
        stress_ladder = ladder("Stress", &["Raw", "Label", "NotShared"]),
        smoke_ladder = ladder("Smoking", &["Raw", "Label", "NotShared"]),
        conv_ladder = ladder("Conversation", &["Raw", "Label", "NotShared"]),
    )
}

fn handle_rules_page(inner: &Inner, req: &Request, username: &str) -> Response {
    let id = ContributorId::new(username);
    let rules_html = match inner.state.read_contributor(&id) {
        Some(account) => {
            let items: String = account
                .rules
                .iter()
                .map(|r| {
                    format!(
                        "<li><code>{}</code></li>",
                        escape(&sensorsafe_json::to_string_pretty(&r.to_json()))
                    )
                })
                .collect();
            format!(
                "<p>Rule epoch: {}</p><ol id=\"rules\">{items}</ol>",
                account.rule_epoch
            )
        }
        None => "<p>No contributor account.</p>".to_string(),
    };
    let session = req.query.get("session").cloned().unwrap_or_default();
    page(
        SITE,
        "Privacy Rules",
        &format!("{rules_html}{}", rules_form(&session)),
    )
}

fn rule_from_form(body: &[u8]) -> Result<PrivacyRule, String> {
    let form = parse_form(body);
    let get = |k: &str| form.get(k).filter(|v| !v.is_empty());
    let mut consumers = Vec::new();
    if let Some(u) = get("consumer") {
        consumers.push(ConsumerSelector::User(ConsumerId::new(u.clone())));
    }
    if let Some(g) = get("group") {
        consumers.push(ConsumerSelector::Group(sensorsafe_types::GroupId::new(
            g.clone(),
        )));
    }
    if let Some(s) = get("study") {
        consumers.push(ConsumerSelector::Study(sensorsafe_types::StudyId::new(
            s.clone(),
        )));
    }
    let mut location = LocationCondition::default();
    if let Some(label) = get("location_label") {
        location.labels.push(label.clone());
    }
    let bounds: Vec<Option<f64>> = ["south", "north", "west", "east"]
        .iter()
        .map(|k| get(k).and_then(|v| v.parse().ok()))
        .collect();
    if let [Some(south), Some(north), Some(west), Some(east)] = bounds[..] {
        if south > north {
            return Err("region south above north".into());
        }
        location.regions.push(Region::new(south, north, west, east));
    }
    let days: Vec<Weekday> = form_all(body, "day")
        .iter()
        .filter_map(|d| Weekday::parse(d))
        .collect();
    let mut time = TimeCondition::default();
    if let (Some(from), Some(to)) = (get("from"), get("to")) {
        let from = TimeOfDay::parse(from).ok_or("bad 'from' time")?;
        let to = TimeOfDay::parse(to).ok_or("bad 'to' time")?;
        time.repeats.push(RepeatTime::new(days, from, to));
    }
    let sensors: Vec<ChannelId> = get("sensors")
        .map(|s| {
            s.split(',')
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .map(ChannelId::new)
                .collect()
        })
        .unwrap_or_default();
    let contexts: Vec<ContextKind> = form_all(body, "context")
        .iter()
        .filter_map(|c| ContextKind::parse(c))
        .collect();
    let action = match get("action").map(String::as_str) {
        Some("Allow") | None => Action::Allow,
        Some("Deny") => Action::Deny,
        Some("Abstraction") => {
            let spec = AbstractionSpec {
                location: get("abs_location").and_then(|v| LocationAbs::parse(v)),
                time: get("abs_time").and_then(|v| TimeAbs::parse(v)),
                activity: get("abs_activity").and_then(|v| ActivityAbs::parse(v)),
                stress: get("abs_stress").and_then(|v| BinaryAbs::parse(v)),
                smoking: get("abs_smoking").and_then(|v| BinaryAbs::parse(v)),
                conversation: get("abs_conversation").and_then(|v| BinaryAbs::parse(v)),
            };
            if spec.is_empty() {
                return Err("abstraction action needs at least one ladder level".into());
            }
            Action::Abstraction(spec)
        }
        Some(other) => return Err(format!("unknown action '{other}'")),
    };
    Ok(PrivacyRule {
        conditions: Conditions {
            consumers,
            location: (!location.is_empty()).then_some(location),
            time: (!time.is_empty()).then_some(time),
            sensors,
            contexts,
        },
        action,
    })
}

fn handle_rules_post(inner: &Inner, req: &Request, username: &str) -> Response {
    let rule = match rule_from_form(&req.body) {
        Ok(r) => r,
        Err(e) => return Response::error(Status::BadRequest, &e),
    };
    let id = ContributorId::new(username);
    let appended = inner.replace_rules(&id, |rules| {
        let mut rules = rules.to_vec();
        rules.push(rule);
        rules
    });
    let epoch = match appended {
        Ok((epoch, _)) => epoch,
        Err(resp) => return resp,
    };
    page(
        SITE,
        "Rule added",
        &format!(
            r#"<p>Rule stored; epoch is now {epoch}.</p>
            <a href="/ui/rules?session={s}">Back to rules</a>"#,
            s = req.query.get("session").cloned().unwrap_or_default()
        ),
    )
}

/// Rows the audit page shows per request.
const AUDIT_PAGE_ROWS: usize = 50;

/// `GET /ui/audit` — the contributor's view of the enforcement audit
/// ledger: who asked for their data, what the policy engine decided,
/// which rules matched, and the trace id to follow the request with.
/// The contributor filter and row limit are pushed down into the ledger
/// (`AuditLedger::page` does one backward scan — no full-ledger
/// materialization), and `?before=<seq>` pages backwards in time.
fn handle_audit_page(inner: &Inner, req: &Request, username: &str) -> Response {
    let before = req.query.get("before").and_then(|v| v.parse::<u64>().ok());
    let page_result = inner.ledger.page(&sensorsafe_obsv::AuditFilter {
        contributor: Some(username.to_string()),
        before,
        limit: AUDIT_PAGE_ROWS,
        ..Default::default()
    });
    let rows: String = page_result
        .records
        .iter()
        .rev() // newest first for the reader
        .map(|r| {
            let rules = r
                .matched_rules
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td><code>{:016x}</code></td></tr>",
                r.seq,
                r.unix_ms,
                escape(&r.consumer),
                r.outcome.as_str(),
                escape(&rules),
                r.trace_id,
            )
        })
        .collect();
    // When the page is full and its oldest row isn't seq 0, there may be
    // older matches — link the next page with that seq as the cursor.
    let older = match page_result.records.first() {
        Some(oldest) if page_result.records.len() == AUDIT_PAGE_ROWS && oldest.seq > 0 => {
            format!(
                r#"<p><a href="/ui/audit?session={s}&amp;before={b}">Older decisions</a></p>"#,
                s = req.query.get("session").cloned().unwrap_or_default(),
                b = oldest.seq
            )
        }
        _ => String::new(),
    };
    let body = format!(
        "<p>{matched} decision(s) recorded for you; newest first \
         (up to {AUDIT_PAGE_ROWS} shown).</p>\
         <table id=\"audit\">\
         <tr><th>#</th><th>Time (unix ms)</th><th>Consumer</th>\
         <th>Decision</th><th>Matched rules</th><th>Trace</th></tr>{rows}</table>{older}",
        matched = page_result.matched,
    );
    page(SITE, &format!("Audit trail of {username}"), &body)
}

/// `GET /ui/privacy` — the sharing-awareness dashboard (the paper's §6
/// "who is receiving my data" question, answered from the decision
/// stream): top consumers with their outcome mix, per-rule hit counts
/// with dead rules highlighted, baseline-only flows, and the recent
/// decision trend.
fn handle_privacy_page(inner: &Inner, _: &Request, username: &str) -> Response {
    let s = inner.ledger.awareness().contributor_summary(username);
    let consumer_rows: String = s
        .consumers
        .iter()
        .map(|f| {
            let note = if f.baseline_only {
                " <em>(baseline only — no rule governs this flow)</em>"
            } else {
                ""
            };
            format!(
                "<tr><td>{}{note}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                escape(&f.consumer),
                f.counts.allowed,
                f.counts.abstracted,
                f.counts.denied,
                f.counts.total(),
            )
        })
        .collect();
    let rule_rows: String = s
        .rule_hits
        .iter()
        .map(|r| {
            let epoch_note = if r.current { " (current)" } else { "" };
            format!(
                "<tr><td>{}{epoch_note}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                r.epoch, r.rule, r.hits, r.last_unix_ms,
            )
        })
        .collect();
    let dead = if s.dead_rules.is_empty() {
        "<p>No dead rules: every current rule has matched at least once.</p>".to_string()
    } else {
        format!(
            "<p class=\"dead-rules\"><strong>Dead rules</strong> (never matched since \
             epoch {}): {}</p>",
            s.rule_epoch,
            s.dead_rules
                .iter()
                .map(|i| format!("#{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    let trend_rows: String = s
        .trend
        .iter()
        .map(|p| {
            format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                p.bucket_unix_secs, p.allowed, p.abstracted, p.denied,
            )
        })
        .collect();
    let body = format!(
        "<p>{total} decision(s) observed ({allowed} allowed, {abstracted} abstracted, \
         {denied} denied; {baseline} matched no rule; {suppressed} channel(s) suppressed \
         by dependency closure). Rule set epoch {epoch} with {rules} rule(s).</p>\
         <h2>Consumers (busiest first)</h2>\
         <table id=\"consumers\"><tr><th>Consumer</th><th>Allowed</th>\
         <th>Abstracted</th><th>Denied</th><th>Total</th></tr>{consumer_rows}</table>\
         <h2>Rule hits</h2>{dead}\
         <table id=\"rule-hits\"><tr><th>Epoch</th><th>Rule</th><th>Hits</th>\
         <th>Last match (unix ms)</th></tr>{rule_rows}</table>\
         <h2>Recent trend ({bucket}s buckets)</h2>\
         <table id=\"trend\"><tr><th>Bucket (unix s)</th><th>Allowed</th>\
         <th>Abstracted</th><th>Denied</th></tr>{trend_rows}</table>\
         <p>Aggregates digest <code>{digest}</code> — reproducible offline by \
         replaying the audit ledger (docs/OPERATIONS.md).</p>",
        total = s.counts.total(),
        allowed = s.counts.allowed,
        abstracted = s.counts.abstracted,
        denied = s.counts.denied,
        baseline = s.counts.baseline,
        suppressed = s.suppressed_channels,
        epoch = s.rule_epoch,
        rules = s.rule_count,
        bucket = sensorsafe_obsv::awareness::TREND_BUCKET_SECS,
        digest = s.digest,
    );
    page(SITE, &format!("Sharing awareness for {username}"), &body)
}

fn handle_data_page(inner: &Inner, _: &Request, username: &str) -> Response {
    let id = ContributorId::new(username);
    let body = match inner.state.read_contributor(&id) {
        Some(account) => {
            let stats = account.store.stats();
            format!(
                "<table id=\"stats\">\
                 <tr><th>Segments</th><td>{}</td></tr>\
                 <tr><th>Samples</th><td>{}</td></tr>\
                 <tr><th>Approx. bytes</th><td>{}</td></tr>\
                 <tr><th>Merges</th><td>{}</td></tr>\
                 <tr><th>Annotations</th><td>{}</td></tr>\
                 </table>",
                stats.segments, stats.samples, stats.approx_bytes, stats.merges, stats.annotations
            )
        }
        None => "<p>No contributor account.</p>".to_string(),
    };
    page(SITE, &format!("Data of {username}"), &body)
}

/// `GET /ui/spans` — the continuous span-stats table (profiling plane),
/// behind a session like every other UI page.
fn handle_spans_page(_: &Inner, _: &Request, _: &str) -> Response {
    page(
        SITE,
        "Profiling spans",
        &sensorsafe_net::debug::spans_page_html(),
    )
}

/// Mounts the web UI onto the service's router. Every page but the login
/// pair is served to a valid session only, and is handed the user name
/// the session belongs to.
pub(crate) fn mount(router: &mut Router, inner: &Arc<Inner>) {
    router.get("/ui/login", |_, _| login_form());
    {
        let inner = inner.clone();
        router.post("/ui/login", move |req, _| handle_login(&inner, req));
    }
    type Page = fn(&Inner, &Request, &str) -> Response;
    let pages: [(Method, &str, Page); 6] = [
        (Method::Get, "/ui/rules", handle_rules_page),
        (Method::Post, "/ui/rules", handle_rules_post),
        (Method::Get, "/ui/data", handle_data_page),
        (Method::Get, "/ui/audit", handle_audit_page),
        (Method::Get, "/ui/privacy", handle_privacy_page),
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
    use crate::service::{DataStoreConfig, DataStoreService};
    use sensorsafe_json::json;
    use sensorsafe_net::Service;

    fn logged_in_service() -> (DataStoreService, String) {
        let (svc, admin) = DataStoreService::new(DataStoreConfig::default());
        let token = log_alice_in(&svc, &admin.to_hex());
        (svc, token)
    }

    fn log_alice_in(svc: &DataStoreService, admin: &str) -> String {
        // Create Alice the contributor + her web login.
        let resp = svc.handle(&Request::post_json(
            "/api/register",
            &json!({"key": admin, "name": "alice", "role": "contributor"}),
        ));
        assert_eq!(resp.status, Status::Created);
        assert!(svc.create_web_user("alice", "hunter2"));
        // Log in through the form.
        let mut login = Request {
            method: sensorsafe_net::Method::Post,
            path: "/ui/login".into(),
            query: Default::default(),
            headers: Default::default(),
            body: b"username=alice&password=hunter2".to_vec(),
            idempotent: false,
        };
        login.headers.insert(
            "content-type".into(),
            "application/x-www-form-urlencoded".into(),
        );
        let resp = svc.handle(&login);
        assert_eq!(resp.status, Status::Ok);
        let html = String::from_utf8(resp.body).unwrap();
        html.split("data-session-token=\"")
            .nth(1)
            .unwrap()
            .split('"')
            .next()
            .unwrap()
            .to_string()
    }

    #[test]
    fn login_page_has_form_components() {
        let (svc, _) = DataStoreService::new(DataStoreConfig::default());
        let resp = svc.handle(&Request::get("/ui/login"));
        let html = String::from_utf8(resp.body).unwrap();
        assert!(html.contains("type=\"password\""));
        assert!(html.contains("action=\"/ui/login\""));
    }

    #[test]
    fn bad_credentials_rejected() {
        let (svc, _) = DataStoreService::new(DataStoreConfig::default());
        svc.create_web_user("alice", "right");
        let mut login = Request::get("/ui/login");
        login.method = sensorsafe_net::Method::Post;
        login.body = b"username=alice&password=wrong".to_vec();
        assert_eq!(svc.handle(&login).status, Status::Unauthorized);
    }

    #[test]
    fn rules_page_requires_session() {
        let (svc, _) = logged_in_service();
        let resp = svc.handle(&Request::get("/ui/rules"));
        assert_eq!(resp.status, Status::Unauthorized);
        let resp = svc.handle(&Request::get("/ui/rules").with_query("session", "forged-token"));
        assert_eq!(resp.status, Status::Unauthorized);
    }

    #[test]
    fn rules_page_shows_fig3_components() {
        let (svc, token) = logged_in_service();
        let resp = svc.handle(&Request::get("/ui/rules").with_query("session", token));
        assert_eq!(resp.status, Status::Ok);
        let html = String::from_utf8(resp.body).unwrap();
        // The Fig. 3 form surface: check boxes, radio buttons, text
        // boxes, the region fields, every context, every ladder.
        assert!(html.contains("type=\"checkbox\""));
        assert!(html.contains("type=\"radio\""));
        assert!(html.contains("type=\"text\""));
        assert!(html.contains("name=\"south\""));
        for k in ContextKind::ALL {
            assert!(html.contains(k.as_str()), "missing context {k}");
        }
        assert!(html.contains("abs_location"));
        assert!(html.contains("NotShared"));
    }

    #[test]
    fn posting_the_fig4_rule_through_the_form() {
        let (svc, token) = logged_in_service();
        // Rule 2 of Fig. 4: Bob @ UCLA, weekdays 9-6, conversation →
        // stress NotShared.
        let body = "consumer=Bob&location_label=UCLA\
            &day=Mon&day=Tue&day=Wed&day=Thu&day=Fri\
            &from=9%3A00am&to=6%3A00pm&context=Conversation\
            &action=Abstraction&abs_stress=NotShared";
        let mut req = Request::get("/ui/rules").with_query("session", token.clone());
        req.method = sensorsafe_net::Method::Post;
        req.body = body.as_bytes().to_vec();
        let resp = svc.handle(&req);
        assert_eq!(
            resp.status,
            Status::Ok,
            "{:?}",
            String::from_utf8(resp.body)
        );
        // The rule shows up on the rules page and in the API model.
        let resp = svc.handle(&Request::get("/ui/rules").with_query("session", token));
        let html = String::from_utf8(resp.body).unwrap();
        assert!(html.contains("Conversation"));
        let id = ContributorId::new("alice");
        let (epoch, rules) = svc
            .state()
            .with_contributor(&id, |a| (a.rule_epoch, a.rules.clone()))
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(rules.len(), 1);
        let rule = &rules[0];
        assert_eq!(
            rule.conditions.consumers,
            vec![ConsumerSelector::User(ConsumerId::new("Bob"))]
        );
        assert_eq!(rule.conditions.contexts, vec![ContextKind::Conversation]);
        let repeat = &rule.conditions.time.as_ref().unwrap().repeats[0];
        assert_eq!(repeat.days.len(), 5);
        assert_eq!(repeat.from, TimeOfDay::new(9, 0));
        match &rule.action {
            Action::Abstraction(spec) => {
                assert_eq!(spec.stress, Some(BinaryAbs::NotShared))
            }
            other => panic!("wrong action {other:?}"),
        }
    }

    #[test]
    fn a_rule_posted_through_the_form_reaches_every_copy_the_api_path_feeds() {
        let (primary, admin) = DataStoreService::new(DataStoreConfig::default());
        let (replica, replica_admin) = DataStoreService::new(DataStoreConfig::default());
        primary.attach_replica(crate::repl::ReplicaLink {
            addr: "replica:0".to_string(),
            transport: Arc::new(sensorsafe_net::LocalTransport::new(Arc::new(
                replica.clone(),
            ))),
            repl_key: replica_admin.to_hex(),
        });
        let token = log_alice_in(&primary, &admin.to_hex());
        let mut post = Request::get("/ui/rules").with_query("session", token);
        post.method = Method::Post;
        post.body = b"consumer=Bob&action=Allow".to_vec();
        assert_eq!(primary.handle(&post).status, Status::Ok);
        // The replica a failover would promote enforces the new rule, and
        // the awareness plane knows the epoch its dead-rule findings are for.
        let alice = ContributorId::new("alice");
        let mirrored = replica
            .state()
            .with_contributor(&alice, |a| (a.rule_epoch, a.rules.len()));
        assert_eq!(mirrored, Some((1, 1)));
        let summary = primary.awareness().contributor_summary("alice");
        assert_eq!((summary.rule_epoch, summary.rule_count), (1, 1));
        // A fenced (deposed) primary refuses the form like the API.
        let fence = json!({"key": (admin.to_hex()), "contributor": "alice", "epoch": 2});
        let fenced = primary.handle(&Request::post_json("/repl/fence", &fence));
        assert_eq!(fenced.status, Status::Ok);
        assert_eq!(primary.handle(&post).status, Status::Conflict);
    }

    #[test]
    fn form_validation_errors() {
        let (svc, token) = logged_in_service();
        for bad in [
            "action=Abstraction", // no ladder level
            "south=2.0&north=1.0&west=0&east=1&action=Deny",
            "from=9%3A00am&to=nonsense&action=Deny",
            "action=Teleport",
        ] {
            let mut req = Request::get("/ui/rules").with_query("session", token.clone());
            req.method = sensorsafe_net::Method::Post;
            req.body = bad.as_bytes().to_vec();
            assert_eq!(
                svc.handle(&req).status,
                Status::BadRequest,
                "should reject {bad}"
            );
        }
    }

    #[test]
    fn data_page_shows_stats_table() {
        let (svc, token) = logged_in_service();
        let resp = svc.handle(&Request::get("/ui/data").with_query("session", token));
        assert_eq!(resp.status, Status::Ok);
        let html = String::from_utf8(resp.body).unwrap();
        assert!(html.contains("id=\"stats\""));
        assert!(html.contains("Segments"));
    }

    #[test]
    fn audit_page_lists_enforcement_decisions() {
        let (svc, token) = logged_in_service();
        // Session required.
        assert_eq!(
            svc.handle(&Request::get("/ui/audit")).status,
            Status::Unauthorized
        );
        // Empty ledger renders an empty table.
        let resp = svc.handle(&Request::get("/ui/audit").with_query("session", token.clone()));
        assert_eq!(resp.status, Status::Ok);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("id=\"audit\""));
        // A consumer query leaves a visible decision row.
        svc.audit_ledger().append(sensorsafe_obsv::DecisionRecord {
            seq: 0,
            unix_ms: 42,
            trace_id: 0xabcd,
            rule_epoch: 1,
            contributor: "alice".into(),
            consumer: "bob".into(),
            matched_rules: vec![1],
            outcome: sensorsafe_obsv::audit::Outcome::Denied,
            suppressed_channels: 0,
        });
        let resp = svc.handle(&Request::get("/ui/audit").with_query("session", token));
        let html = String::from_utf8(resp.body).unwrap();
        assert!(html.contains("bob"), "{html}");
        assert!(html.contains("denied"));
        assert!(html.contains("000000000000abcd"));
    }

    #[test]
    fn audit_page_paginates_backwards_with_before() {
        let (svc, token) = logged_in_service();
        // 120 decisions for alice interleaved with noise from another
        // contributor: the page must show only alice's newest 50 and the
        // "Older" cursor must walk her history, not raw sequence numbers.
        for i in 0..120u64 {
            svc.audit_ledger().append(sensorsafe_obsv::DecisionRecord {
                seq: 0,
                unix_ms: i,
                trace_id: i,
                rule_epoch: 1,
                contributor: if i % 3 == 0 { "mallory" } else { "alice" }.into(),
                consumer: format!("c{i}"),
                matched_rules: vec![],
                outcome: sensorsafe_obsv::audit::Outcome::Allowed,
                suppressed_channels: 0,
            });
        }
        let resp = svc.handle(&Request::get("/ui/audit").with_query("session", token.clone()));
        let html = String::from_utf8(resp.body).unwrap();
        // 80 of the 120 belong to alice; the newest 50 are shown.
        assert!(html.contains("80 decision(s)"), "{html}");
        assert!(html.contains("c119"));
        assert!(!html.contains("<td>c117</td>")); // mallory's row stays filtered out
        let before = html
            .split("before=")
            .nth(1)
            .expect("older link present")
            .split('"')
            .next()
            .unwrap()
            .parse::<u64>()
            .unwrap();
        let resp = svc.handle(
            &Request::get("/ui/audit")
                .with_query("session", token)
                .with_query("before", before.to_string()),
        );
        let html = String::from_utf8(resp.body).unwrap();
        // The older page holds strictly older rows and never repeats the
        // cursor row.
        assert!(html.contains("80 decision(s)"));
        assert!(!html.contains("c119"), "{html}");
    }

    #[test]
    fn privacy_page_shows_awareness_summary() {
        let (svc, token) = logged_in_service();
        // Session required, like every UI page.
        assert_eq!(
            svc.handle(&Request::get("/ui/privacy")).status,
            Status::Unauthorized
        );
        // Two rules live, one decision that matched only rule 0: rule 1
        // is dead; carol's flow is rule-governed, dave's baseline-only.
        // The decisions enter through the ledger, the plane's one input.
        svc.awareness().note_rule_set("alice", 2, 2);
        let ledger = svc.audit_ledger();
        ledger.append(sensorsafe_obsv::DecisionRecord {
            seq: 0,
            unix_ms: 60_000,
            trace_id: 1,
            rule_epoch: 2,
            contributor: "alice".into(),
            consumer: "carol".into(),
            matched_rules: vec![0],
            outcome: sensorsafe_obsv::audit::Outcome::Abstracted,
            suppressed_channels: 2,
        });
        ledger.append(sensorsafe_obsv::DecisionRecord {
            seq: 0,
            unix_ms: 120_000,
            trace_id: 2,
            rule_epoch: 2,
            contributor: "alice".into(),
            consumer: "dave".into(),
            matched_rules: vec![],
            outcome: sensorsafe_obsv::audit::Outcome::Allowed,
            suppressed_channels: 0,
        });
        let resp = svc.handle(&Request::get("/ui/privacy").with_query("session", token));
        assert_eq!(resp.status, Status::Ok);
        let html = String::from_utf8(resp.body).unwrap();
        assert!(html.contains("id=\"consumers\""), "{html}");
        assert!(html.contains("carol"));
        assert!(html.contains("baseline only"), "{html}");
        assert!(html.contains("Dead rules"), "{html}");
        assert!(html.contains("#1"));
        assert!(html.contains("id=\"rule-hits\""));
        assert!(html.contains("id=\"trend\""));
        assert!(html.contains("Aggregates digest"));
    }
}

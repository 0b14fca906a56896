//! F3 — the web user interfaces (Fig. 3), exercised over real TCP with
//! a browser-like client: login form → session → rule builder → rule
//! list, plus the broker's search UI.

use sensorsafe::net::{HttpClient, Method, Request, Server, Status};
use sensorsafe::sim::Scenario;
use sensorsafe::types::Timestamp;
use sensorsafe::{json, Deployment};
use std::sync::Arc;

fn extract_token(html: &str) -> String {
    html.split("data-session-token=\"")
        .nth(1)
        .expect("token marker")
        .split('"')
        .next()
        .unwrap()
        .to_string()
}

#[test]
fn datastore_web_ui_full_session() {
    let store_addr = "127.0.0.1:7190";
    let broker_addr = "127.0.0.1:7191";
    let mut deployment = Deployment::over_tcp(broker_addr);
    let _broker_server =
        Server::bind(broker_addr, 2, Arc::new(deployment.broker().clone())).unwrap();
    let store = deployment.add_store(store_addr);
    let _server = Server::bind(store_addr, 2, Arc::new(store.clone())).unwrap();
    let alice = deployment
        .register_contributor(store_addr, "alice")
        .unwrap();
    alice
        .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), 4, 1))
        .unwrap();
    store.create_web_user("alice", "secret");

    let browser = HttpClient::new(store_addr);
    // Login page renders a password form.
    let resp = browser.send(&Request::get("/ui/login")).unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert!(String::from_utf8_lossy(&resp.body).contains("type=\"password\""));

    // Log in.
    let mut login = Request::get("/ui/login");
    login.method = Method::Post;
    login.body = b"username=alice&password=secret".to_vec();
    let resp = browser.send(&login).unwrap();
    assert_eq!(resp.status, Status::Ok);
    let token = extract_token(&String::from_utf8_lossy(&resp.body));

    // The rule builder shows Fig. 3's components.
    let resp = browser
        .send(&Request::get("/ui/rules").with_query("session", token.clone()))
        .unwrap();
    let html = String::from_utf8_lossy(&resp.body).to_string();
    assert!(html.contains("type=\"checkbox\""));
    assert!(html.contains("type=\"radio\""));
    assert!(html.contains("Conversation"));
    assert!(html.contains("abs_stress"));

    // Add the Fig. 4 rule through the form.
    let mut post = Request::get("/ui/rules").with_query("session", token.clone());
    post.method = Method::Post;
    post.body = b"consumer=Bob&location_label=UCLA&day=Mon&day=Tue&day=Wed&day=Thu&day=Fri\
&from=9%3A00am&to=6%3A00pm&context=Conversation&action=Abstraction&abs_stress=NotShared"
        .to_vec();
    let resp = browser.send(&post).unwrap();
    assert_eq!(resp.status, Status::Ok);

    // It appears in the list with epoch 1.
    let resp = browser
        .send(&Request::get("/ui/rules").with_query("session", token.clone()))
        .unwrap();
    let html = String::from_utf8_lossy(&resp.body).to_string();
    assert!(html.contains("Rule epoch: 1"));
    assert!(html.contains("NotShared"));

    // Data viewer shows storage stats.
    let resp = browser
        .send(&Request::get("/ui/data").with_query("session", token))
        .unwrap();
    let html = String::from_utf8_lossy(&resp.body).to_string();
    assert!(html.contains("id=\"stats\""));
    assert!(!html.contains("<td>0</td>"), "data was uploaded: {html}");
}

#[test]
fn broker_web_ui_search() {
    let mut deployment = Deployment::in_process();
    deployment.add_store("s1");
    let alice = deployment.register_contributor("s1", "alice").unwrap();
    alice
        .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), 5, 1))
        .unwrap();
    alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();
    // Bob needs a consumer account for the search ConsumerCtx.
    deployment.register_consumer("bob").unwrap();
    let broker = deployment.broker();
    broker.create_web_user("bob", "pw");

    let mut login = Request::get("/ui/login");
    login.method = Method::Post;
    login.body = b"username=bob&password=pw".to_vec();
    use sensorsafe::net::Service as _;
    let resp = broker.handle(&login);
    let token = extract_token(&String::from_utf8_lossy(&resp.body));

    // Search page lists alice.
    let resp = broker.handle(&Request::get("/ui/search").with_query("session", token.clone()));
    assert!(String::from_utf8_lossy(&resp.body).contains("alice"));

    // Posting the §5.2 example search from the form.
    let mut post = Request::get("/ui/search").with_query("session", token);
    post.method = Method::Post;
    post.body = b"channels=ecg,respiration&day=Mon&from=9%3A00am&to=6%3A00pm".to_vec();
    let resp = broker.handle(&post);
    let html = String::from_utf8_lossy(&resp.body).to_string();
    assert!(html.contains("<li>alice</li>"), "{html}");
}

#[test]
fn healthz_reports_status_version_uptime_and_rule_epoch() {
    use sensorsafe::net::Service as _;
    let mut deployment = Deployment::in_process();
    let store = deployment.add_store("s1");
    let alice = deployment.register_contributor("s1", "alice").unwrap();
    alice
        .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), 1, 1))
        .unwrap();
    alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();

    for service in [
        store.handle(&Request::get("/healthz")),
        deployment.broker().handle(&Request::get("/healthz")),
    ] {
        assert_eq!(service.status, Status::Ok);
        let body = service.json_body().unwrap();
        assert_eq!(body["status"].as_str(), Some("ok"));
        let version = body["version"].as_str().expect("version string");
        assert!(!version.is_empty());
        assert!(body["uptime_secs"].as_i64().is_some(), "numeric uptime");
        // Alice pushed one rule-set; both the store and the broker mirror
        // must report that epoch.
        assert_eq!(body["rule_sync_epoch"].as_i64(), Some(1));
    }
}

#[test]
fn sessions_do_not_cross_servers() {
    // A session token from the store's UI is meaningless at the broker.
    let mut deployment = Deployment::in_process();
    let store = deployment.add_store("s1");
    deployment.register_contributor("s1", "alice").unwrap();
    store.create_web_user("alice", "pw");
    use sensorsafe::net::Service as _;
    let mut login = Request::get("/ui/login");
    login.method = Method::Post;
    login.body = b"username=alice&password=pw".to_vec();
    let resp = store.handle(&login);
    let token = extract_token(&String::from_utf8_lossy(&resp.body));
    let resp = deployment
        .broker()
        .handle(&Request::get("/ui/search").with_query("session", token));
    assert_eq!(resp.status, Status::Unauthorized);
}

#[test]
fn escaped_form_values_decode_the_same_on_both_servers() {
    use sensorsafe::net::Service as _;
    // A login whose name and password need every kind of escape a browser
    // produces: `@`, `&`, `=`, `%`, a space and a non-ASCII byte pair.
    let (username, password) = ("bob@lab.org", "p&ss=w%rd é");
    let login_body = b"username=bob%40lab.org&password=p%26ss%3Dw%25rd+%C3%A9".to_vec();

    let mut deployment = Deployment::in_process();
    let store = deployment.add_store("s1");
    let alice = deployment.register_contributor("s1", "alice").unwrap();
    // Alice shares only at a place whose label needs escaping in a form,
    // and only with this consumer.
    alice
        .set_rules(&json!([{
            "Consumer": [username],
            "LocationLabel": ["R&D lab, 2nd floor"],
            "Action": "Allow",
        }]))
        .unwrap();
    let broker = deployment.broker();
    store.create_web_user(username, password);
    broker.create_web_user(username, password);

    let mut login = Request::get("/ui/login");
    login.method = Method::Post;
    login.body = login_body;
    // The data store and the broker decode the same body the same way.
    let at_store = store.handle(&login);
    assert_eq!(at_store.status, Status::Ok, "data store login");
    assert!(String::from_utf8_lossy(&at_store.body).contains("Welcome, bob@lab.org."));
    let at_broker = broker.handle(&login);
    assert_eq!(at_broker.status, Status::Ok, "broker login");
    let token = extract_token(&String::from_utf8_lossy(&at_broker.body));
    // The same password with its escapes left in is a different password.
    login.body = b"username=bob%40lab.org&password=p%2526ss".to_vec();
    assert_eq!(broker.handle(&login).status, Status::Unauthorized);

    // Search-form values are matched decoded: the label and the session's
    // user name select alice's rule; a different label does not.
    let search = |body: &str| {
        let mut post = Request::get("/ui/search").with_query("session", token.clone());
        post.method = Method::Post;
        post.body = body.as_bytes().to_vec();
        let resp = broker.handle(&post);
        assert_eq!(resp.status, Status::Ok);
        String::from_utf8_lossy(&resp.body).to_string()
    };
    let html = search(
        "channels=ecg%2Crespiration&location_label=R%26D+lab%2C+2nd+floor\
         &d%61y=Mon&from=9%3A00am&to=6%3A00pm",
    );
    assert!(html.contains("<li>alice</li>"), "{html}");
    let html = search("channels=ecg&location_label=R%26D+lab&day=Mon&from=9%3A00am&to=6%3A00pm");
    assert!(html.contains("0 contributor(s)"), "{html}");
}

//! The HTML and form kit under both servers' web user interfaces (§5.2):
//! text escaping, the page chrome, and `application/x-www-form-urlencoded`
//! bodies decoded by the same [`percent_decode`] that decodes request
//! targets. Login and the session table stay with each server (they need
//! its password store); everything else a page or a form handler does
//! lives here, once.

use crate::http::{percent_decode, Request, Response, Status};
use std::collections::BTreeMap;

/// Escapes text for interpolation into HTML (element content or a quoted
/// attribute).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// A complete page: `title` (escaped here) as `<title>` — suffixed with the
/// serving `site`'s name — and as the heading, above `body` (markup the
/// caller has already escaped where it interpolates text).
pub fn page(site: &str, title: &str, body: &str) -> Response {
    Response::html(format!(
        "<!DOCTYPE html><html><head><title>{t} — {site}</title></head>\
         <body><h1>{t}</h1>{body}</body></html>",
        t = escape(title)
    ))
}

/// Serves `page` to the user whose session token rides in the request's
/// `session` query parameter, or answers the 401 every UI page shares.
/// `validate` is the serving server's session table: token → user name.
pub fn with_session(
    req: &Request,
    validate: impl FnOnce(&str) -> Option<String>,
    page: impl FnOnce(&str) -> Response,
) -> Response {
    match req.query.get("session").and_then(|token| validate(token)) {
        Some(username) => page(&username),
        None => Response::error(Status::Unauthorized, "not logged in (see /ui/login)"),
    }
}

/// The decoded `key=value` pairs of a form body, in order. A pair without
/// `=` is a key with an empty value.
fn form_pairs(body: &[u8]) -> Vec<(String, String)> {
    String::from_utf8_lossy(body)
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
        .map(|(k, v)| (percent_decode(k), percent_decode(v)))
        .collect()
}

/// Parses an `application/x-www-form-urlencoded` body; a repeated key
/// keeps its last value (see [`form_all`] for check-box groups).
pub fn parse_form(body: &[u8]) -> BTreeMap<String, String> {
    form_pairs(body).into_iter().collect()
}

/// Every non-empty value of a repeated key, in order (check-box groups
/// repeat the key).
pub fn form_all(body: &[u8], key: &str) -> Vec<String> {
    form_pairs(body)
        .into_iter()
        .filter(|(k, v)| k == key && !v.is_empty())
        .map(|(_, v)| v)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn html_escaping() {
        assert_eq!(escape("<b>&\"x\""), "&lt;b&gt;&amp;&quot;x&quot;");
    }

    #[test]
    fn page_escapes_the_title_and_names_the_site() {
        let html = String::from_utf8(page("SensorSafe Broker", "a<b", "<p>x</p>").body).unwrap();
        assert!(html.contains("<title>a&lt;b — SensorSafe Broker</title>"));
        assert!(html.contains("<h1>a&lt;b</h1><p>x</p>"));
    }

    #[test]
    fn pages_are_served_to_valid_sessions_only() {
        let validate = |token: &str| (token == "t1").then(|| "alice".to_string());
        let page = |user: &str| Response::text(user);
        let ok = with_session(
            &Request::get("/ui/x").with_query("session", "t1"),
            validate,
            page,
        );
        assert_eq!(ok.body, b"alice");
        for req in [
            Request::get("/ui/x"),
            Request::get("/ui/x").with_query("session", "forged"),
        ] {
            assert_eq!(
                with_session(&req, validate, page).status,
                Status::Unauthorized
            );
        }
    }

    #[test]
    fn form_parsing() {
        let form = parse_form(b"a=1&b=hello+world&c=%E4%B8%96&flag&a%40b=x%26y%3Dz%25");
        assert_eq!(form["a"], "1");
        assert_eq!(form["b"], "hello world");
        assert_eq!(form["c"], "世");
        assert_eq!(form["flag"], "");
        assert_eq!(form["a@b"], "x&y=z%");
        assert_eq!(form_all(b"x=1&x=2&y=3&x=", "x"), vec!["1", "2"]);
        assert_eq!(
            form_all(b"d%61y=Mon&day=9%3A00", "day"),
            vec!["Mon", "9:00"]
        );
    }
}

//! The profiling debug endpoints [`crate::Edge`] mounts on both servers
//! (like [`crate::traces`]):
//!
//! * `GET /debug/profile?seconds=N` — blocks for the window, then returns
//!   the folded-stack samples taken during it as collapsed-stack text
//!   (`kind;frame;... count` lines) that `flamegraph.pl` or speedscope
//!   ingest directly. `?hz=` retunes the process-wide sampling rate first
//!   (sticky, 0 pauses the sampler).
//! * `GET /debug/spans` — the continuous span-stats table as JSON: per
//!   span name, the count, total time, self time, and interpolated p99,
//!   plus sampler metadata. Totals are monotone across reads.

use crate::http::{Request, Response, Status};
use sensorsafe_json::{Map, Value};
use sensorsafe_obsv::prof;
use std::time::Duration;

/// Longest profiling window one request may hold a handler thread for.
pub const MAX_PROFILE_SECONDS: f64 = 30.0;

/// Window used when `?seconds=` is absent.
pub const DEFAULT_PROFILE_SECONDS: f64 = 2.0;

/// Serves `GET /debug/profile`: optionally retunes the sampler (`?hz=`),
/// then samples for the requested window and returns the folded stacks as
/// `text/plain`. Blocking the handler thread for the window is deliberate —
/// this is a debug endpoint, and the sampler itself never blocks.
pub fn profile_response(req: &Request) -> Response {
    let seconds = match req.query.get("seconds") {
        None => DEFAULT_PROFILE_SECONDS,
        Some(raw) => match raw.trim().parse::<f64>() {
            Ok(s) if s.is_finite() && s >= 0.0 => s.min(MAX_PROFILE_SECONDS),
            _ => return Response::error(Status::BadRequest, "bad seconds parameter"),
        },
    };
    if let Some(raw) = req.query.get("hz") {
        match raw.trim().parse::<u64>() {
            Ok(hz) => prof::set_sample_rate_hz(hz),
            Err(_) => return Response::error(Status::BadRequest, "bad hz parameter"),
        }
    }
    Response::text(prof::profile_window(Duration::from_secs_f64(seconds)))
}

/// Serves `GET /debug/spans`: the span-stats table plus sampler state.
pub fn spans_response(_req: &Request) -> Response {
    let rows: Vec<Value> = prof::span_stats()
        .iter()
        .map(|stat| {
            let mut row = Map::new();
            row.insert("name".into(), Value::from(stat.name.as_str()));
            row.insert("count".into(), Value::from(stat.count));
            row.insert(
                "total_ms".into(),
                Value::from(stat.total.as_secs_f64() * 1e3),
            );
            row.insert(
                "self_ms".into(),
                Value::from(stat.self_time.as_secs_f64() * 1e3),
            );
            row.insert("p99_ms".into(), Value::from(stat.p99.as_secs_f64() * 1e3));
            Value::Object(row)
        })
        .collect();
    let mut body = Map::new();
    body.insert("sample_rate_hz".into(), Value::from(prof::sample_rate_hz()));
    body.insert("total_samples".into(), Value::from(prof::total_samples()));
    body.insert("spans".into(), Value::Array(rows));
    Response::json(&Value::Object(body))
}

/// The body of the servers' `/ui/spans` pages: the span-stats table as
/// HTML (each server serves it in its own chrome, behind its sessions).
pub fn spans_page_html() -> String {
    let mut html = format!(
        "<p>Per-span timing since process start. Pull folded stacks from \
         <code>/debug/profile?seconds=5</code> for a flamegraph.</p>\n\
         <p>Sampler: {} Hz, {} samples total.</p>\n",
        prof::sample_rate_hz(),
        prof::total_samples()
    );
    html.push_str(
        "<table>\n<tr><th>span</th><th>count</th><th>total ms</th>\
         <th>self ms</th><th>p99 ms</th></tr>\n",
    );
    for stat in prof::span_stats() {
        html.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{:.3}</td><td>{:.3}</td><td>{:.3}</td></tr>\n",
            crate::html::escape(&stat.name),
            stat.count,
            stat.total.as_secs_f64() * 1e3,
            stat.self_time.as_secs_f64() * 1e3,
            stat.p99.as_secs_f64() * 1e3,
        ));
    }
    html.push_str("</table>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_rejects_bad_parameters() {
        for (key, value) in [
            ("seconds", "soon"),
            ("seconds", "-1"),
            ("seconds", "inf"),
            ("hz", "fast"),
            ("hz", "-5"),
        ] {
            let resp = profile_response(&Request::get("/debug/profile").with_query(key, value));
            assert_eq!(resp.status, Status::BadRequest, "{key}={value}");
        }
    }

    #[test]
    fn profile_serves_folded_text_for_a_zero_window() {
        let resp = profile_response(&Request::get("/debug/profile").with_query("seconds", "0"));
        assert_eq!(resp.status, Status::Ok);
        let body = String::from_utf8(resp.body.clone()).unwrap();
        for line in body.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn profile_hz_parameter_retunes_sampler() {
        let before = prof::sample_rate_hz();
        let resp = profile_response(
            &Request::get("/debug/profile")
                .with_query("seconds", "0")
                .with_query("hz", "97"),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(prof::sample_rate_hz(), 97);
        prof::set_sample_rate_hz(before);
    }

    #[test]
    fn spans_endpoint_reports_recorded_spans_monotonically() {
        {
            let _g = prof::enter("net_debug_test_span");
        }
        let read = |resp: Response| -> (u64, f64) {
            let body = resp.json_body().unwrap();
            let row = body["spans"]
                .as_array()
                .unwrap()
                .iter()
                .find(|r| r["name"].as_str() == Some("net_debug_test_span"))
                .expect("span row present")
                .clone();
            (
                row["count"].as_u64().unwrap(),
                row["total_ms"].as_f64().unwrap(),
            )
        };
        let (count1, total1) = read(spans_response(&Request::get("/debug/spans")));
        {
            let _g = prof::enter("net_debug_test_span");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (count2, total2) = read(spans_response(&Request::get("/debug/spans")));
        assert!(count2 > count1);
        assert!(total2 > total1);
    }

    #[test]
    fn spans_html_escapes_and_lists() {
        {
            let _g = prof::enter("net_debug_html_<span>");
        }
        let html = spans_page_html();
        assert!(html.contains("net_debug_html_&lt;span&gt;"));
        assert!(html.contains("<th>p99 ms</th>"));
    }
}

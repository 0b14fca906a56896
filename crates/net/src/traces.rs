//! The shared `GET /traces` endpoint: a JSON view over a server's
//! [`TraceRecorder`], served identically by the datastore and the broker so
//! one request can be followed across both with a single `trace_id` filter.

use crate::http::{Request, Response};
use sensorsafe_json::{Map, Value};
use sensorsafe_obsv::{Trace, TraceRecorder};

fn hex_id(id: u64) -> Value {
    Value::String(format!("{id:016x}"))
}

fn trace_json(trace: &Trace) -> Value {
    let mut obj = Map::new();
    obj.insert("trace_id".into(), hex_id(trace.trace_id));
    obj.insert("span_id".into(), hex_id(trace.span_id));
    obj.insert("parent_span_id".into(), hex_id(trace.parent_span_id));
    obj.insert("name".into(), Value::from(trace.name.as_str()));
    obj.insert(
        "total_ms".into(),
        Value::from(trace.total.as_secs_f64() * 1e3),
    );
    obj.insert(
        "completed_unix_ms".into(),
        Value::from(trace.completed_unix_ms),
    );
    let phases: Vec<Value> = trace
        .phases
        .iter()
        .map(|p| {
            let mut phase = Map::new();
            phase.insert("name".into(), Value::from(p.name));
            phase.insert("ms".into(), Value::from(p.elapsed.as_secs_f64() * 1e3));
            Value::Object(phase)
        })
        .collect();
    obj.insert("phases".into(), Value::Array(phases));
    Value::Object(obj)
}

/// Serves `GET /traces`: finished traces newest-last, plus the separately
/// pinned slow traces, optionally filtered by `?trace_id=<16-hex>`.
pub fn traces_response(recorder: &TraceRecorder, req: &Request) -> Response {
    let filter = req
        .query
        .get("trace_id")
        .map(|raw| u64::from_str_radix(raw.trim(), 16));
    let filter = match filter {
        None => None,
        Some(Ok(id)) => Some(id),
        Some(Err(_)) => {
            return Response::error(crate::http::Status::BadRequest, "bad trace_id filter")
        }
    };
    let select = |traces: Vec<Trace>| -> Vec<Value> {
        traces
            .iter()
            .filter(|t| filter.is_none_or(|id| t.trace_id == id))
            .map(trace_json)
            .collect()
    };
    let mut body = Map::new();
    body.insert(
        "traces".into(),
        Value::Array(select(recorder.recent_traces())),
    );
    body.insert(
        "slow".into(),
        Value::Array(select(recorder.recent_slow_traces())),
    );
    Response::json(&Value::Object(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_obsv::TraceContext;

    #[test]
    fn traces_endpoint_serves_newest_last_and_filters() {
        let recorder = TraceRecorder::new(8);
        let ctx = TraceContext {
            trace_id: 0xabc,
            parent_span_id: 7,
        };
        {
            let _span = recorder.begin_ctx("GET /one", None);
        }
        {
            let _span = recorder.begin_ctx("POST /two", Some(ctx));
        }
        let resp = traces_response(&recorder, &Request::get("/traces"));
        let body = resp.json_body().unwrap();
        let traces = body["traces"].as_array().unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0]["name"].as_str(), Some("GET /one"));
        assert_eq!(traces[1]["name"].as_str(), Some("POST /two"));
        assert_eq!(traces[1]["trace_id"].as_str(), Some("0000000000000abc"));
        assert_eq!(
            traces[1]["parent_span_id"].as_str(),
            Some("0000000000000007")
        );

        let filtered = traces_response(
            &recorder,
            &Request::get("/traces").with_query("trace_id", "0000000000000abc"),
        );
        let body = filtered.json_body().unwrap();
        assert_eq!(body["traces"].as_array().unwrap().len(), 1);

        let bad = traces_response(
            &recorder,
            &Request::get("/traces").with_query("trace_id", "not-hex"),
        );
        assert_eq!(bad.status, crate::http::Status::BadRequest);
    }
}

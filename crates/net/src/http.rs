//! HTTP/1.1 request/response model, parser, and serializer.
//!
//! Supports the subset SensorSafe needs: the four common methods,
//! `Content-Length`-framed bodies (no chunked encoding), case-insensitive
//! headers, URL query strings with percent-decoding, and keep-alive.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};

/// The cross-process trace propagation header (stored lower-cased like
/// every other header). Value format: `<trace_id>-<parent_span_id>`, both
/// 16-digit hex — see [`sensorsafe_obsv::TraceContext`].
pub const TRACE_HEADER: &str = "x-sensorsafe-trace";

/// Request methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Retrieve.
    Get,
    /// Create / invoke (API keys travel in POST bodies, §5.4).
    Post,
    /// Replace.
    Put,
    /// Remove.
    Delete,
}

impl Method {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

/// Response status codes used by SensorSafe services.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200
    Ok,
    /// 201
    Created,
    /// 400
    BadRequest,
    /// 401
    Unauthorized,
    /// 403
    Forbidden,
    /// 404
    NotFound,
    /// 405
    MethodNotAllowed,
    /// 409
    Conflict,
    /// 413
    PayloadTooLarge,
    /// 431
    RequestHeaderFieldsTooLarge,
    /// 500
    InternalError,
    /// 503
    ServiceUnavailable,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Created => 201,
            Status::BadRequest => 400,
            Status::Unauthorized => 401,
            Status::Forbidden => 403,
            Status::NotFound => 404,
            Status::MethodNotAllowed => 405,
            Status::Conflict => 409,
            Status::PayloadTooLarge => 413,
            Status::RequestHeaderFieldsTooLarge => 431,
            Status::InternalError => 500,
            Status::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Created => "Created",
            Status::BadRequest => "Bad Request",
            Status::Unauthorized => "Unauthorized",
            Status::Forbidden => "Forbidden",
            Status::NotFound => "Not Found",
            Status::MethodNotAllowed => "Method Not Allowed",
            Status::Conflict => "Conflict",
            Status::PayloadTooLarge => "Payload Too Large",
            Status::RequestHeaderFieldsTooLarge => "Request Header Fields Too Large",
            Status::InternalError => "Internal Server Error",
            Status::ServiceUnavailable => "Service Unavailable",
        }
    }

    /// From a numeric code (client side).
    pub fn from_code(code: u16) -> Option<Status> {
        [
            Status::Ok,
            Status::Created,
            Status::BadRequest,
            Status::Unauthorized,
            Status::Forbidden,
            Status::NotFound,
            Status::MethodNotAllowed,
            Status::Conflict,
            Status::PayloadTooLarge,
            Status::RequestHeaderFieldsTooLarge,
            Status::InternalError,
            Status::ServiceUnavailable,
        ]
        .into_iter()
        .find(|s| s.code() == code)
    }

    /// True for 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.code())
    }
}

/// Largest accepted request body (64 MiB — a day of multi-channel sensor
/// data fits comfortably; anything bigger is rejected, not buffered).
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Largest accepted message head (request/status line + headers,
/// including line terminators). A peer that streams more head bytes than
/// this without finishing its headers is answered `431` and closed —
/// the cap is enforced *while reading*, so a hostile client can never
/// claim more than this much memory for headers.
pub const MAX_HEAD_BYTES: usize = 32 * 1024;

/// An HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Decoded path without the query string, e.g. `/api/data`.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    /// Headers, keys lower-cased.
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether a retrying transport may safely re-send this request after
    /// a transport error whose outcome is unknown (the server may have
    /// committed the effect before the response was lost). GETs are
    /// idempotent by construction; POSTs must opt in via
    /// [`Request::idempotent`] — e.g. reads-over-POST, or writes carrying
    /// their own idempotency token. Client-side only; never serialized.
    pub idempotent: bool,
}

impl Request {
    /// A bodyless GET.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            path: path.into(),
            query: BTreeMap::new(),
            headers: BTreeMap::new(),
            body: Vec::new(),
            idempotent: true,
        }
    }

    /// A POST with a JSON body.
    pub fn post_json(path: impl Into<String>, json: &sensorsafe_json::Value) -> Request {
        Request::post_json_bytes(path, sensorsafe_json::to_vec(json))
    }

    /// A POST whose body is JSON text the caller has already written (a
    /// large upload streamed into its buffer instead of built as a tree).
    pub fn post_json_bytes(path: impl Into<String>, body: Vec<u8>) -> Request {
        let mut req = Request {
            method: Method::Post,
            path: path.into(),
            query: BTreeMap::new(),
            headers: BTreeMap::new(),
            body,
            idempotent: false,
        };
        req.headers
            .insert("content-type".into(), "application/json".into());
        req
    }

    /// Marks the request safe to re-send after an ambiguous transport
    /// failure (see the [`Request::idempotent`] field).
    pub fn idempotent(mut self) -> Request {
        self.idempotent = true;
        self
    }

    /// Adds a query parameter.
    pub fn with_query(mut self, key: impl Into<String>, value: impl Into<String>) -> Request {
        self.query.insert(key.into(), value.into());
        self
    }

    /// A header value (key is matched case-insensitively).
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers
            .get(&key.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Result<sensorsafe_json::Value, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8".to_string())?;
        sensorsafe_json::parse(text).map_err(|e| e.to_string())
    }

    /// The trace context propagated by the caller, if the request carries
    /// a well-formed [`TRACE_HEADER`]. Malformed values are ignored —
    /// propagation is best-effort and must never fail a request.
    pub fn trace_context(&self) -> Option<sensorsafe_obsv::TraceContext> {
        self.header(TRACE_HEADER)
            .and_then(sensorsafe_obsv::TraceContext::parse)
    }

    /// Stamps the request with an explicit trace context (tests and
    /// clients that manage contexts by hand; the wire client injects the
    /// ambient context automatically in [`write_request`]).
    pub fn with_trace_context(mut self, ctx: sensorsafe_obsv::TraceContext) -> Request {
        self.headers.insert(TRACE_HEADER.into(), ctx.header_value());
        self
    }
}

/// What a handler that bails out with `?` returns: the error arm is the
/// response to send instead (the 400, 401, 403, 409… the client gets).
pub type Reply = Result<Response, Response>;

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status.
    pub status: Status,
    /// Headers, keys lower-cased.
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with `status`.
    pub fn status(status: Status) -> Response {
        Response {
            status,
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    /// A 200 with a JSON body.
    pub fn json(value: &sensorsafe_json::Value) -> Response {
        Response::json_with_status(Status::Ok, value)
    }

    /// A JSON body with an explicit status.
    pub fn json_with_status(status: Status, value: &sensorsafe_json::Value) -> Response {
        let mut resp = Response::json_bytes(sensorsafe_json::to_vec(value));
        resp.status = status;
        resp
    }

    /// A 200 whose body is JSON text the caller has already written (a
    /// large reply streamed into its buffer instead of built as a tree).
    pub fn json_bytes(body: Vec<u8>) -> Response {
        let mut resp = Response::status(Status::Ok);
        resp.headers
            .insert("content-type".into(), "application/json".into());
        resp.body = body;
        resp
    }

    /// A 200 with a plain-text body (metrics exposition).
    pub fn text(body: impl Into<String>) -> Response {
        let mut resp = Response::status(Status::Ok);
        resp.headers.insert(
            "content-type".into(),
            "text/plain; version=0.0.4; charset=utf-8".into(),
        );
        resp.body = body.into().into_bytes();
        resp
    }

    /// A 200 with an HTML body (the web user interfaces).
    pub fn html(body: impl Into<String>) -> Response {
        let mut resp = Response::status(Status::Ok);
        resp.headers
            .insert("content-type".into(), "text/html; charset=utf-8".into());
        resp.body = body.into().into_bytes();
        resp
    }

    /// An error with a JSON `{"error": msg}` body.
    pub fn error(status: Status, msg: &str) -> Response {
        Response::json_with_status(status, &sensorsafe_json::json!({ "error": msg }))
    }

    /// A 400 with `msg` as the error.
    pub fn bad_request(msg: &str) -> Response {
        Response::error(Status::BadRequest, msg)
    }

    /// The 401 every API endpoint answers a missing or unknown key with.
    pub fn unauthorized() -> Response {
        Response::error(Status::Unauthorized, "invalid API key")
    }

    /// Parses the body as JSON.
    pub fn json_body(&self) -> Result<sensorsafe_json::Value, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8".to_string())?;
        sensorsafe_json::parse(text).map_err(|e| e.to_string())
    }
}

/// Decodes `%XX` escapes and `+` (space) — the one decoder behind request
/// targets, query strings and `application/x-www-form-urlencoded` bodies
/// ([`crate::html::parse_form`]). A malformed escape passes through as
/// written; bytes that do not form UTF-8 decode lossily.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let escaped = || {
            let hex = bytes.get(i + 1..i + 3)?;
            let digit = |b: u8| (b as char).to_digit(16);
            Some((digit(hex[0])? * 16 + digit(hex[1])?) as u8)
        };
        match bytes[i] {
            b'%' => match escaped() {
                Some(byte) => {
                    out.push(byte);
                    i += 2;
                }
                None => out.push(b'%'),
            },
            b'+' => out.push(b' '),
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b'/' => {
                out.push(b as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

fn parse_query(qs: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for pair in qs.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some((k, v)) => map.insert(percent_decode(k), percent_decode(v)),
            None => map.insert(percent_decode(pair), String::new()),
        };
    }
    map
}

pub(crate) fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Parses a request line (`GET /path?query HTTP/1.1`) into method,
/// decoded path, and decoded query map. Shared by the blocking reader
/// and the incremental [`crate::codec::RequestDecoder`], so the two
/// parsers can never disagree on the head grammar.
pub(crate) fn parse_request_line(
    line: &str,
) -> std::io::Result<(Method, String, BTreeMap<String, String>)> {
    let mut parts = line.trim_end().splitn(3, ' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or_else(|| invalid("bad method"))?;
    let target = parts
        .next()
        .ok_or_else(|| invalid("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| invalid("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported HTTP version"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok((method, percent_decode(raw_path), parse_query(raw_query)))
}

/// Parses a status line (`HTTP/1.1 200 OK`).
fn parse_status_line(line: &str) -> std::io::Result<Status> {
    let mut parts = line.trim_end().splitn(3, ' ');
    let version = parts.next().ok_or_else(|| invalid("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported HTTP version"));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| invalid("bad status code"))?;
    Status::from_code(code).ok_or_else(|| invalid("unknown status code"))
}

/// Parses one `key: value` header line (already known non-empty) into
/// `headers`. A repeated header keeps the last value, except
/// `content-length`: two lengths that disagree would let this parser
/// and an intermediary frame the body differently, so the head is
/// rejected.
pub(crate) fn parse_header_into(
    headers: &mut BTreeMap<String, String>,
    line: &str,
) -> std::io::Result<()> {
    let (key, value) = line
        .trim_end()
        .split_once(':')
        .ok_or_else(|| invalid("bad header"))?;
    let (key, value) = (key.trim().to_ascii_lowercase(), value.trim().to_string());
    if key == "content-length" && headers.get(&key).is_some_and(|first| *first != value) {
        return Err(invalid("conflicting content-length"));
    }
    headers.insert(key, value);
    Ok(())
}

/// Extracts and bounds-checks `content-length` — the only body framing
/// spoken here. A message that declares `transfer-encoding` is rejected:
/// read as `content-length: 0`, its chunked body would be parsed as the
/// next message on a keep-alive connection.
pub(crate) fn parse_content_length(headers: &BTreeMap<String, String>) -> std::io::Result<usize> {
    if headers.contains_key("transfer-encoding") {
        return Err(invalid("transfer-encoding is not supported"));
    }
    let content_length: usize = headers
        .get("content-length")
        .map(|v| v.parse().map_err(|_| invalid("bad content-length")))
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(invalid("body too large"));
    }
    Ok(content_length)
}

/// The response status a server should answer when a read failed with
/// `e`: `431` for a head that overran [`MAX_HEAD_BYTES`], `413` for a
/// body beyond [`MAX_BODY`], `400` for anything else malformed.
pub fn error_status(e: &std::io::Error) -> Status {
    if e.kind() != std::io::ErrorKind::InvalidData {
        return Status::BadRequest;
    }
    match e.to_string().as_str() {
        "headers too large" => Status::RequestHeaderFieldsTooLarge,
        "body too large" => Status::PayloadTooLarge,
        _ => Status::BadRequest,
    }
}

/// Reads one line, debiting its bytes from the shared head budget. At an
/// exhausted budget mid-line the head is oversized — that is
/// indistinguishable from a hostile endless header stream, so it errors
/// rather than buffering on.
fn read_head_line<R: Read>(
    reader: &mut BufReader<R>,
    budget: &mut usize,
) -> std::io::Result<String> {
    let mut line = String::new();
    let read = reader.by_ref().take(*budget as u64).read_line(&mut line)?;
    *budget -= read;
    if !line.ends_with('\n') && *budget == 0 {
        return Err(invalid("headers too large"));
    }
    Ok(line)
}

/// Reads one request from a blocking stream. Returns `Ok(None)` on a
/// clean EOF before any bytes (keep-alive connection closed by peer).
///
/// The server decodes incrementally ([`crate::codec::RequestDecoder`]);
/// this is the reference parser that decoder is differential-tested
/// against (`tests/codec_incremental.rs`, `tests/properties.rs`).
pub fn read_request<R: Read>(reader: &mut BufReader<R>) -> std::io::Result<Option<Request>> {
    let mut budget = MAX_HEAD_BYTES;
    let line = read_head_line(reader, &mut budget)?;
    if line.is_empty() {
        return Ok(None);
    }
    let (method, path, query) = parse_request_line(&line)?;
    let mut headers = BTreeMap::new();
    loop {
        let header_line = read_head_line(reader, &mut budget)?;
        if header_line.is_empty() {
            return Err(invalid("EOF in headers"));
        }
        let trimmed = header_line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        parse_header_into(&mut headers, trimmed)?;
    }
    let content_length = parse_content_length(&headers)?;
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        idempotent: method == Method::Get,
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Writes one request (client side).
pub fn write_request<W: Write>(writer: &mut W, req: &Request) -> std::io::Result<()> {
    let mut target = percent_encode(&req.path);
    if !req.query.is_empty() {
        target.push('?');
        let qs: Vec<String> = req
            .query
            .iter()
            .map(|(k, v)| format!("{}={}", percent_encode(k), percent_encode(v)))
            .collect();
        target.push_str(&qs.join("&"));
    }
    write!(writer, "{} {} HTTP/1.1\r\n", req.method.as_str(), target)?;
    for (k, v) in &req.headers {
        if k == "content-length" {
            continue; // computed below
        }
        write!(writer, "{k}: {v}\r\n")?;
    }
    // Trace propagation: outbound requests inherit the thread's ambient
    // trace context (the active server span, or a client's context scope)
    // unless the caller already stamped one. Serialized here — not cloned
    // into `req.headers` — so the hot path stays allocation-free.
    if !req.headers.contains_key(TRACE_HEADER) {
        if let Some(ctx) = sensorsafe_obsv::trace::current_context() {
            write!(writer, "{TRACE_HEADER}: {}\r\n", ctx.header_value())?;
        }
    }
    write!(writer, "content-length: {}\r\n\r\n", req.body.len())?;
    writer.write_all(&req.body)?;
    writer.flush()
}

/// Reads one response (client side).
pub fn read_response<R: Read>(reader: &mut BufReader<R>) -> std::io::Result<Response> {
    let mut budget = MAX_HEAD_BYTES;
    let line = read_head_line(reader, &mut budget)?;
    if line.is_empty() {
        return Err(invalid("EOF before status line"));
    }
    let status = parse_status_line(&line)?;
    let mut headers = BTreeMap::new();
    loop {
        let header_line = read_head_line(reader, &mut budget)?;
        if header_line.is_empty() {
            return Err(invalid("EOF in headers"));
        }
        let trimmed = header_line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        parse_header_into(&mut headers, trimmed)?;
    }
    let content_length = parse_content_length(&headers)?;
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Writes one response (server side).
pub fn write_response<W: Write>(writer: &mut W, resp: &Response) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\n",
        resp.status.code(),
        resp.status.reason()
    )?;
    for (k, v) in &resp.headers {
        if k == "content-length" {
            continue;
        }
        write!(writer, "{k}: {v}\r\n")?;
    }
    write!(writer, "content-length: {}\r\n\r\n", resp.body.len())?;
    writer.write_all(&resp.body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_json::json;

    fn roundtrip_request(req: &Request) -> Request {
        let mut wire = Vec::new();
        write_request(&mut wire, req).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        read_request(&mut reader).unwrap().unwrap()
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut wire = Vec::new();
        write_response(&mut wire, resp).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        read_response(&mut reader).unwrap()
    }

    #[test]
    fn request_roundtrip_with_query_and_body() {
        let req = Request::post_json("/api/data", &json!({"k": [1, 2]}))
            .with_query("user", "alice smith")
            .with_query("limit", "10");
        let back = roundtrip_request(&req);
        assert_eq!(back.method, Method::Post);
        assert_eq!(back.path, "/api/data");
        assert_eq!(back.query.get("user").unwrap(), "alice smith");
        assert_eq!(back.query.get("limit").unwrap(), "10");
        assert_eq!(back.json().unwrap(), json!({"k": [1, 2]}));
        assert_eq!(back.header("Content-Type"), Some("application/json"));
    }

    #[test]
    fn get_roundtrip() {
        let back = roundtrip_request(&Request::get("/health"));
        assert_eq!(back.method, Method::Get);
        assert_eq!(back.path, "/health");
        assert!(back.body.is_empty());
        assert!(back.query.is_empty());
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::json(&json!({"ok": true}));
        let back = roundtrip_response(&resp);
        assert_eq!(back.status, Status::Ok);
        assert_eq!(back.json_body().unwrap(), json!({"ok": true}));
    }

    #[test]
    fn error_response_shape() {
        let resp = Response::error(Status::Unauthorized, "bad key");
        assert_eq!(resp.status.code(), 401);
        assert_eq!(resp.json_body().unwrap()["error"].as_str(), Some("bad key"));
        assert!(!resp.status.is_success());
    }

    #[test]
    fn html_response() {
        let resp = Response::html("<h1>hi</h1>");
        let back = roundtrip_response(&resp);
        assert!(back.headers["content-type"].starts_with("text/html"));
        assert_eq!(back.body, b"<h1>hi</h1>");
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%E4%B8%96"), "世");
        assert_eq!(percent_decode("100%"), "100%"); // malformed escape passes through
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%+5%4"), "% 5%4"); // a sign is not a hex digit
        assert_eq!(percent_decode("a%40b%26c%3Dd%25"), "a@b&c=d%");
    }

    #[test]
    fn unicode_path_roundtrip() {
        let req = Request::get("/files/世界");
        let back = roundtrip_request(&req);
        assert_eq!(back.path, "/files/世界");
    }

    #[test]
    fn keep_alive_two_requests_on_one_stream() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::get("/a")).unwrap();
        write_request(&mut wire, &Request::get("/b")).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/a");
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/b");
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn malformed_requests_rejected() {
        for wire in [
            "NOTAMETHOD / HTTP/1.1\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "GET / HTTP/1.1\r\nbadheader\r\n\r\n",
            "GET / HTTP/1.1\r\ncontent-length: abc\r\n\r\n",
        ] {
            let mut reader = BufReader::new(wire.as_bytes());
            assert!(read_request(&mut reader).is_err(), "should reject {wire:?}");
        }
    }

    #[test]
    fn oversized_body_rejected() {
        let wire = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let mut reader = BufReader::new(wire.as_bytes());
        assert!(read_request(&mut reader).is_err());
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::from_code(404), Some(Status::NotFound));
        assert_eq!(Status::from_code(418), None);
        assert!(Status::Created.is_success());
        assert!(!Status::InternalError.is_success());
    }

    #[test]
    fn truncated_body_is_io_error() {
        let wire = "POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc";
        let mut reader = BufReader::new(wire.as_bytes());
        assert!(read_request(&mut reader).is_err());
    }
}

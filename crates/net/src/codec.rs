//! Incremental HTTP/1.1 codec for readiness-driven I/O.
//!
//! The blocking parser in [`crate::http`] assumes it can sit in a read
//! until a full message arrives — fine for a thread-per-connection
//! server, useless for an event loop where a message trickles in across
//! many readiness events. [`RequestDecoder`] is the evented server's
//! counterpart: bytes are [`fed`](RequestDecoder::feed) in whatever
//! fragments the socket yields, and a complete request pops out once its
//! final byte has arrived. Responses are only ever read by blocking
//! clients ([`crate::http::read_response`]).
//!
//! The decoder shares the head grammar helpers with the blocking parser
//! (`parse_request_line`, `parse_header_into`, ...), so the two can
//! never drift: `crates/net/tests/codec_incremental.rs` proptests feed
//! identical wire bytes to both at arbitrary split points and assert
//! byte-exact agreement.
//!
//! Resource bounds are enforced *while buffering*, not after: a head
//! that exceeds [`MAX_HEAD_BYTES`] fails with `431` and a declared body
//! beyond [`MAX_BODY`](crate::http::MAX_BODY) fails with `413` before a
//! single body byte is stored, so a hostile peer can never claim
//! unbounded memory.

use crate::http::{
    invalid, parse_content_length, parse_header_into, parse_request_line, Request, Status,
    MAX_HEAD_BYTES,
};
use std::collections::BTreeMap;

/// Why a decoder gave up on its stream. Terminal: the connection should
/// answer `status` (servers) or surface the message (clients) and close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The response status a server should answer with (`400`, `413`,
    /// or `431`).
    pub status: Status,
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.status.code())
    }
}

/// One decoding step's outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Decoded<T> {
    /// The buffered bytes do not hold a complete message yet.
    NeedMore,
    /// A complete message; its bytes have been consumed from the buffer.
    Item(T),
    /// The stream is unrecoverable (malformed or over a resource bound).
    Failed(DecodeError),
}

fn map_err(e: std::io::Error) -> DecodeError {
    DecodeError {
        status: crate::http::error_status(&e),
        message: e.to_string(),
    }
}

/// Where the decoder is within the current request.
enum Phase {
    /// Accumulating head bytes; `scan` is the next unexamined offset and
    /// `line_start` the beginning of the line being scanned.
    Head { scan: usize, line_start: usize },
    /// Head parsed; waiting for `need` body bytes.
    Body { need: usize },
    /// Terminal failure; replayed on every poll.
    Failed(DecodeError),
}

/// Incremental request parser for the evented server. See module docs.
pub struct RequestDecoder {
    buf: Vec<u8>,
    phase: Phase,
    /// Head lines scanned so far.
    head_lines: Vec<String>,
    /// The parsed head, parked while its body bytes accumulate.
    pending: Option<Request>,
}

impl Default for RequestDecoder {
    fn default() -> Self {
        RequestDecoder::new()
    }
}

impl RequestDecoder {
    /// An empty decoder at a message boundary.
    pub fn new() -> RequestDecoder {
        RequestDecoder {
            buf: Vec::new(),
            phase: Phase::Head {
                scan: 0,
                line_start: 0,
            },
            head_lines: Vec::new(),
            pending: None,
        }
    }

    /// Buffers more bytes from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (bounded by the head cap plus one
    /// declared-in-bounds body).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True when the stream sits exactly between messages — an EOF here
    /// is a clean keep-alive close, anywhere else it is a truncation.
    pub fn at_boundary(&self) -> bool {
        matches!(self.phase, Phase::Head { scan: 0, .. }) && self.buf.is_empty()
    }

    fn fail(&mut self, err: DecodeError) -> Decoded<Request> {
        self.phase = Phase::Failed(err.clone());
        Decoded::Failed(err)
    }

    /// Attempts to decode the next complete request. Call again after
    /// more [`feed`](RequestDecoder::feed)s, or immediately after an
    /// [`Decoded::Item`] to drain pipelined requests.
    pub fn poll(&mut self) -> Decoded<Request> {
        loop {
            match &mut self.phase {
                Phase::Failed(err) => return Decoded::Failed(err.clone()),
                Phase::Head { scan, line_start } => {
                    let mut found_head_end = None;
                    while *scan < self.buf.len() {
                        let at = *scan;
                        *scan += 1;
                        if self.buf[at] != b'\n' {
                            continue;
                        }
                        let line = &self.buf[*line_start..=at];
                        let text = match std::str::from_utf8(line) {
                            Ok(text) => text,
                            Err(_) => {
                                // The blocking parser's `read_line` fails
                                // the same way on a non-UTF-8 head line.
                                return self.fail(map_err(invalid("head is not valid UTF-8")));
                            }
                        };
                        let first_line = *line_start == 0;
                        *line_start = at + 1;
                        if !first_line && text.trim_end().is_empty() {
                            found_head_end = Some(at + 1);
                            break;
                        }
                        self.head_lines.push(text.to_string());
                    }
                    let Some(head_end) = found_head_end else {
                        if self.buf.len() > MAX_HEAD_BYTES {
                            return self.fail(map_err(invalid("headers too large")));
                        }
                        return Decoded::NeedMore;
                    };
                    if head_end > MAX_HEAD_BYTES {
                        return self.fail(map_err(invalid("headers too large")));
                    }
                    // Body bytes (if any) slide to the front; head bytes
                    // are done with.
                    self.buf.drain(..head_end);
                    // An empty first line is still handed to the head
                    // parser so it rejects exactly like the blocking
                    // reader ("bad method" / "missing version").
                    if self.head_lines.is_empty() {
                        self.head_lines.push(String::new());
                    }
                    match parse_request_head(&std::mem::take(&mut self.head_lines)) {
                        Ok((request, need)) => {
                            self.pending = Some(request);
                            self.phase = Phase::Body { need };
                            // Loop: the body (possibly empty) may already
                            // be buffered.
                        }
                        Err(e) => return self.fail(map_err(e)),
                    }
                }
                Phase::Body { need } => {
                    if self.buf.len() < *need {
                        return Decoded::NeedMore;
                    }
                    let mut request = self.pending.take().expect("a parsed head awaits its body");
                    request.body = self.buf.drain(..*need).collect();
                    self.phase = Phase::Head {
                        scan: 0,
                        line_start: 0,
                    };
                    return Decoded::Item(request);
                }
            }
        }
    }
}

fn parse_headers(lines: &[String]) -> std::io::Result<BTreeMap<String, String>> {
    let mut headers = BTreeMap::new();
    for line in lines {
        parse_header_into(&mut headers, line)?;
    }
    Ok(headers)
}

fn parse_request_head(lines: &[String]) -> std::io::Result<(Request, usize)> {
    let (first, rest) = lines.split_first().ok_or_else(|| invalid("empty head"))?;
    let (method, path, query) = parse_request_line(first)?;
    let headers = parse_headers(rest)?;
    let content_length = parse_content_length(&headers)?;
    Ok((
        Request {
            idempotent: method == crate::http::Method::Get,
            method,
            path,
            query,
            headers,
            body: Vec::new(),
        },
        content_length,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{write_request, Method};
    use sensorsafe_json::json;

    #[test]
    fn byte_at_a_time_request() {
        let req = Request::post_json("/api/data", &json!({"k": [1, 2, 3]}))
            .with_query("user", "alice")
            .with_trace_context(sensorsafe_obsv::TraceContext::root());
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let mut decoder = RequestDecoder::new();
        for (i, b) in wire.iter().enumerate() {
            decoder.feed(std::slice::from_ref(b));
            match decoder.poll() {
                Decoded::NeedMore => assert!(i + 1 < wire.len(), "must complete at last byte"),
                Decoded::Item(back) => {
                    assert_eq!(i + 1, wire.len(), "completed early at byte {i}");
                    assert_eq!(back.method, Method::Post);
                    assert_eq!(back.path, "/api/data");
                    assert_eq!(back.query.get("user").map(String::as_str), Some("alice"));
                    assert_eq!(back.json().unwrap(), json!({"k": [1, 2, 3]}));
                }
                Decoded::Failed(e) => panic!("unexpected decode failure: {e}"),
            }
        }
        assert!(decoder.at_boundary());
    }

    #[test]
    fn pipelined_requests_drain_in_order() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::get("/a")).unwrap();
        write_request(&mut wire, &Request::get("/b")).unwrap();
        write_request(&mut wire, &Request::post_json("/c", &json!(1))).unwrap();
        let mut decoder = RequestDecoder::new();
        decoder.feed(&wire);
        let mut paths = Vec::new();
        while let Decoded::Item(req) = decoder.poll() {
            paths.push(req.path);
        }
        assert_eq!(paths, ["/a", "/b", "/c"]);
        assert!(decoder.at_boundary());
    }

    #[test]
    fn oversized_head_fails_431_while_streaming() {
        let mut decoder = RequestDecoder::new();
        decoder.feed(b"GET / HTTP/1.1\r\n");
        // An endless header stream must fail once past the cap even
        // though no blank line ever arrives.
        let filler = format!("x-filler: {}\r\n", "y".repeat(1000));
        for _ in 0..40 {
            decoder.feed(filler.as_bytes());
            if let Decoded::Failed(err) = decoder.poll() {
                assert_eq!(err.status, Status::RequestHeaderFieldsTooLarge);
                assert_eq!(
                    crate::http::error_status(&invalid(&err.message)).code(),
                    431
                );
                return;
            }
        }
        panic!("decoder never enforced the head cap");
    }

    #[test]
    fn oversized_body_fails_413_before_buffering() {
        let mut decoder = RequestDecoder::new();
        decoder.feed(
            format!(
                "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                crate::http::MAX_BODY + 1
            )
            .as_bytes(),
        );
        match decoder.poll() {
            Decoded::Failed(err) => assert_eq!(err.status, Status::PayloadTooLarge),
            other => panic!("expected 413 failure, got {other:?}"),
        }
    }

    #[test]
    fn garbage_fails_400() {
        let mut decoder = RequestDecoder::new();
        decoder.feed(b"BOGUS REQUEST LINE\r\n\r\n");
        match decoder.poll() {
            Decoded::Failed(err) => assert_eq!(err.status, Status::BadRequest),
            other => panic!("expected failure, got {other:?}"),
        }
        // Terminal: stays failed on subsequent polls.
        assert!(matches!(decoder.poll(), Decoded::Failed(_)));
    }

    #[test]
    fn zero_length_body_completes_without_extra_bytes() {
        let mut decoder = RequestDecoder::new();
        decoder.feed(b"GET /x HTTP/1.1\r\n\r\n");
        match decoder.poll() {
            Decoded::Item(req) => assert_eq!(req.path, "/x"),
            other => panic!("{other:?}"),
        }
        assert!(decoder.at_boundary());
    }
}

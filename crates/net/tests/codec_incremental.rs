//! Property-based tests for the incremental HTTP codec: fed the same
//! bytes as the blocking parser — at arbitrary split boundaries — it
//! must produce byte-exactly the same messages, and agree with the
//! blocking parser's verdict on garbage and truncation.

use proptest::prelude::*;
use sensorsafe_net::codec::{Decoded, RequestDecoder};
use sensorsafe_net::http::{read_request, write_request, Method, Request, Status};
use std::collections::BTreeMap;
use std::io::BufReader;

fn arb_method() -> impl Strategy<Value = Method> {
    prop::sample::select(vec![Method::Get, Method::Post, Method::Put, Method::Delete])
}

fn arb_path() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-zA-Z0-9._~ -]{1,12}", 0..4)
        .prop_map(|segments| format!("/{}", segments.join("/")))
}

fn arb_kv() -> impl Strategy<Value = BTreeMap<String, String>> {
    prop::collection::btree_map("[a-z0-9_]{1,8}", "[a-zA-Z0-9 =&?%+-]{0,16}", 0..4)
}

fn arb_headers() -> impl Strategy<Value = BTreeMap<String, String>> {
    // Header values are trimmed on parse (RFC 9110 optional whitespace),
    // so generate values without edge whitespace.
    prop::collection::btree_map(
        "[a-z][a-z0-9-]{0,10}",
        "([a-zA-Z0-9;=/.-]([a-zA-Z0-9 ;=/.-]{0,22}[a-zA-Z0-9;=/.-])?)?",
        0..4,
    )
    .prop_map(|mut h| {
        // content-length is computed by the writer; "connection" would
        // change framing semantics server-side, not parse results.
        h.remove("content-length");
        h
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        arb_method(),
        arb_path(),
        arb_kv(),
        arb_headers(),
        prop::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(|(method, path, query, headers, body)| Request {
            idempotent: method == Method::Get,
            method,
            path,
            query,
            headers,
            body,
        })
}

/// Turns arbitrary proptest indices into a sorted, deduped list of cut
/// offsets covering the whole wire.
fn cut_offsets(wire_len: usize, cuts: &[prop::sample::Index]) -> Vec<usize> {
    let mut offsets: Vec<usize> = cuts.iter().map(|ix| ix.index(wire_len + 1)).collect();
    offsets.push(0);
    offsets.push(wire_len);
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

/// Feeds `wire` to the request decoder in the given fragments, draining
/// completed requests after every fragment. Panics if the decoder
/// rejects (callers pass valid wire bytes).
fn drive_request_decoder(
    decoder: &mut RequestDecoder,
    wire: &[u8],
    offsets: &[usize],
) -> Vec<Request> {
    let mut items = Vec::new();
    for pair in offsets.windows(2) {
        decoder.feed(&wire[pair[0]..pair[1]]);
        loop {
            match decoder.poll() {
                Decoded::Item(item) => items.push(item),
                Decoded::NeedMore => break,
                Decoded::Failed(e) => panic!("decoder failed on valid input: {}", e.message),
            }
        }
    }
    items
}

proptest! {
    /// A pipelined burst of requests, split at arbitrary byte
    /// boundaries, decodes incrementally to byte-exactly what the
    /// blocking parser reads from the same wire bytes.
    #[test]
    fn incremental_request_decode_matches_blocking(
        requests in prop::collection::vec(arb_request(), 1..4),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..12),
    ) {
        let mut wire = Vec::new();
        for req in &requests {
            write_request(&mut wire, req).unwrap();
        }

        // Blocking reference parse of the identical bytes.
        let mut reader = BufReader::new(wire.as_slice());
        let mut blocking = Vec::new();
        while let Some(req) = read_request(&mut reader).unwrap() {
            blocking.push(req);
        }

        let mut decoder = RequestDecoder::new();
        let offsets = cut_offsets(wire.len(), &cuts);
        let incremental = drive_request_decoder(&mut decoder, &wire, &offsets);

        prop_assert_eq!(incremental.len(), blocking.len());
        for (a, b) in incremental.iter().zip(&blocking) {
            prop_assert_eq!(a.method, b.method);
            prop_assert_eq!(&a.path, &b.path);
            prop_assert_eq!(&a.query, &b.query);
            prop_assert_eq!(&a.headers, &b.headers);
            prop_assert_eq!(&a.body, &b.body);
        }
        prop_assert!(decoder.at_boundary());
    }

    /// Byte-at-a-time (the worst fragmentation) agrees too.
    #[test]
    fn byte_at_a_time_agrees_with_blocking(req in arb_request()) {
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        let blocking = read_request(&mut reader).unwrap().unwrap();

        let mut decoder = RequestDecoder::new();
        let mut items = Vec::new();
        for b in &wire {
            decoder.feed(std::slice::from_ref(b));
            if let Decoded::Item(req) = decoder.poll() {
                items.push(req);
            }
        }
        prop_assert_eq!(items.len(), 1);
        prop_assert_eq!(&items[0].path, &blocking.path);
        prop_assert_eq!(&items[0].headers, &blocking.headers);
        prop_assert_eq!(&items[0].body, &blocking.body);
    }

    /// On arbitrary garbage the incremental decoder never panics, and
    /// whenever the blocking parser rejects a *complete* head as
    /// malformed (InvalidData), the incremental decoder fed the same
    /// bytes fails too — same verdict, incremental delivery.
    #[test]
    fn garbage_verdicts_agree(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        // Terminate the head so both parsers see a complete (if bogus)
        // message head rather than truncation.
        let mut wire = bytes.clone();
        wire.extend_from_slice(b"\r\n\r\n");

        let mut reader = BufReader::new(wire.as_slice());
        let blocking_verdict = read_request(&mut reader);

        let mut decoder = RequestDecoder::new();
        let mut offsets: Vec<usize> =
            cuts.iter().map(|ix| ix.index(wire.len() + 1)).collect();
        offsets.push(0);
        offsets.push(wire.len());
        offsets.sort_unstable();
        offsets.dedup();
        let mut failed = false;
        let mut decoded_any = false;
        'outer: for pair in offsets.windows(2) {
            decoder.feed(&wire[pair[0]..pair[1]]);
            loop {
                match decoder.poll() {
                    Decoded::Item(_) => decoded_any = true,
                    Decoded::NeedMore => break,
                    Decoded::Failed(_) => { failed = true; break 'outer; }
                }
            }
        }
        match blocking_verdict {
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                prop_assert!(failed, "blocking rejected but incremental did not");
            }
            Ok(Some(_)) => {
                prop_assert!(decoded_any || !failed);
            }
            // Truncation/EOF cases: the incremental decoder just waits
            // for more bytes; it must not have *failed* unless the
            // blocking parser also saw malformed data.
            _ => {}
        }
    }

    /// Truncated messages never produce an item and never fail as
    /// malformed: the decoder just reports NeedMore, exactly like a
    /// blocking parser would keep waiting on the socket.
    #[test]
    fn truncation_waits_instead_of_failing(
        req in arb_request(),
        drop_tail in 1usize..64,
    ) {
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let keep = wire.len().saturating_sub(drop_tail);
        let mut decoder = RequestDecoder::new();
        decoder.feed(&wire[..keep]);
        let mut saw_item = false;
        let mut saw_failure = false;
        loop {
            match decoder.poll() {
                Decoded::Item(_) => saw_item = true,
                Decoded::NeedMore => break,
                Decoded::Failed(_) => {
                    saw_failure = true;
                    break;
                }
            }
        }
        prop_assert!(!saw_failure, "truncated valid request must not fail");
        // Dropping bytes from the end can never complete the message.
        prop_assert!(!saw_item);
        prop_assert!(!decoder.at_boundary() || keep == 0);
        // Feeding the missing tail completes it.
        decoder.feed(&wire[keep..]);
        let completed = match decoder.poll() {
            Decoded::Item(got) => {
                prop_assert_eq!(got.body, req.body);
                true
            }
            _ => false,
        };
        prop_assert!(completed, "completing the wire must decode the request");
    }
}

/// Body framing is never guessed at. A request that declares
/// `Transfer-Encoding` (its chunked body would otherwise be decoded as
/// the *next* request) or two `Content-Length`s that disagree gets the
/// same `400` verdict from the blocking reader and from the incremental
/// decoder at every split point, and neither ever yields a request from
/// the bytes behind the bad head.
#[test]
fn ambiguous_body_framing_is_rejected_by_both_parsers_at_every_split() {
    let wires: [&[u8]; 3] = [
        b"POST /api/upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
          5\r\nhello\r\n0\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
        b"POST /api/upload HTTP/1.1\r\nContent-Length: 5\r\ntransfer-encoding: chunked\r\n\r\n\
          hello",
        b"POST /api/upload HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 25\r\n\r\n\
          GET /healthz HTTP/1.1\r\n\r\n",
    ];
    for wire in wires {
        let shown = String::from_utf8_lossy(wire);
        let blocking = read_request(&mut BufReader::new(wire))
            .expect_err(&format!("blocking reader accepted {shown:?}"));
        assert_eq!(blocking.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            sensorsafe_net::http::error_status(&blocking),
            Status::BadRequest
        );
        for split in 0..=wire.len() {
            let mut decoder = RequestDecoder::new();
            let mut verdict = None;
            for fragment in [&wire[..split], &wire[split..]] {
                decoder.feed(fragment);
                match decoder.poll() {
                    Decoded::Item(req) => {
                        panic!("split {split} of {shown:?} decoded {:?}", req.path)
                    }
                    Decoded::NeedMore => {}
                    Decoded::Failed(err) => verdict = Some(err),
                }
            }
            let err = verdict.unwrap_or_else(|| panic!("split {split} of {shown:?} not rejected"));
            assert_eq!(err.status, Status::BadRequest);
            assert_eq!(err.message, blocking.to_string());
        }
    }
    // A repeated length that agrees with the first is not ambiguous.
    let wire: &[u8] = b"POST /echo HTTP/1.1\r\ncontent-length: 5\r\nContent-Length: 5\r\n\r\nhello";
    let blocking = read_request(&mut BufReader::new(wire)).unwrap().unwrap();
    let mut decoder = RequestDecoder::new();
    let incremental = drive_request_decoder(&mut decoder, wire, &[0, wire.len()]);
    assert_eq!(blocking.body, b"hello");
    assert_eq!(incremental.len(), 1);
    assert_eq!(incremental[0].body, blocking.body);
}

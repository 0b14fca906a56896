//! The query reply's exact bytes, pinned: a fixed-seed simulated day is
//! queried through [`DataStoreService::handle`] over a few fixed windows,
//! by a consumer under each of the four rule classes of the `query_day`
//! workload and by the owner, and each reply's length and CRC-32 must
//! equal the constants below. Any changed byte fails — a different digit
//! choice, a tie broken the other way, a lost `.0`, a `-0.0` printed as
//! `0.0` — so a change to the number writer or the segment writer that
//! claims "same text" is held to it.
//!
//! The constants were captured before the number writer's branch-free
//! rewrite; when a change means to alter the reply text, re-capture them
//! from the table the failing assertion prints.
//!
//! Every reply is also read back the way a client reads it — straight
//! from the text ([`read_shared_view_json`], [`WaveSegment::read_json`])
//! — and must decode bit for bit to what the tree path decodes.

use sensorsafe_datastore::{
    annotation_to_json, read_shared_view_json, shared_view_from_json, DataStoreConfig,
    DataStoreService,
};
use sensorsafe_json::{json, parse, Reader, Value};
use sensorsafe_net::{http::Request, http::Status, Service};
use sensorsafe_policy::{
    AbstractionSpec, Action, ActivityAbs, BinaryAbs, Conditions, ConsumerSelector, LocationAbs,
    PrivacyRule, TimeAbs,
};
use sensorsafe_sim::{Place, Scenario};
use sensorsafe_store::{codec::crc32, Query};
use sensorsafe_types::{
    ChannelId, ChannelSpec, ConsumerId, ContextKind, GeoPoint, SegmentMeta, TimeRange, Timestamp,
    Timing, ValueKind, WaveSegment,
};

const DAY_START: i64 = 1_311_500_000_000;
const SEED: u64 = 35;

/// The four `query_day` rule classes: allow all; allow with location,
/// time and activity abstracted; ECG denied while driving and stress
/// withheld during conversations (closing over its source channels); a
/// rule for somebody else, so deny-by-default answers.
fn class_rules(class: usize) -> Vec<PrivacyRule> {
    let allow = PrivacyRule::allow_all();
    match class {
        0 => vec![allow],
        1 => vec![
            allow,
            PrivacyRule {
                conditions: Conditions::default(),
                action: Action::Abstraction(AbstractionSpec {
                    location: Some(LocationAbs::City),
                    time: Some(TimeAbs::Hour),
                    activity: Some(ActivityAbs::TransportMode),
                    ..Default::default()
                }),
            },
        ],
        2 => vec![
            allow,
            PrivacyRule {
                conditions: Conditions {
                    sensors: vec![ChannelId::new("ecg")],
                    contexts: vec![ContextKind::Drive],
                    ..Default::default()
                },
                action: Action::Deny,
            },
            PrivacyRule {
                conditions: Conditions {
                    contexts: vec![ContextKind::Conversation],
                    ..Default::default()
                },
                action: Action::Abstraction(AbstractionSpec {
                    stress: Some(BinaryAbs::NotShared),
                    ..Default::default()
                }),
            },
        ],
        _ => vec![PrivacyRule {
            conditions: Conditions {
                consumers: vec![ConsumerSelector::User(ConsumerId::new("carol"))],
                ..Default::default()
            },
            action: Action::Allow,
        }],
    }
}

fn region_json(point: GeoPoint) -> Value {
    json!({
        "south": (point.latitude - 0.005),
        "north": (point.latitude + 0.005),
        "west": (point.longitude - 0.005),
        "east": (point.longitude + 0.005),
    })
}

fn ok(resp: sensorsafe_net::http::Response, what: &str) -> sensorsafe_net::http::Response {
    assert!(resp.status.is_success(), "{what}: {:?}", resp.json_body());
    resp
}

fn register(svc: &DataStoreService, admin: &str, name: &str, role: &str) -> String {
    let resp = ok(
        svc.handle(&Request::post_json(
            "/api/register",
            &json!({"key": admin, "name": name, "role": role}),
        )),
        "register",
    );
    resp.json_body().unwrap()["api_key"]
        .as_str()
        .unwrap()
        .to_string()
}

/// One contributor per rule class, each holding the same simulated day,
/// and one consumer: the service, the owners' keys, the consumer's key.
fn store() -> (DataStoreService, Vec<String>, String) {
    let (svc, admin) = DataStoreService::new(DataStoreConfig::default());
    let admin = admin.to_hex();
    let consumer = register(&svc, &admin, "bob", "consumer");
    let rendered = Scenario::alice_day(Timestamp::from_millis(DAY_START), SEED, 1).render();
    let mut segments: Vec<Value> = rendered
        .all_segments()
        .iter()
        .map(WaveSegment::to_json)
        .collect();
    segments.push(edge_segment().to_json());
    let annotations: Vec<Value> = rendered
        .annotations
        .iter()
        .map(annotation_to_json)
        .collect();
    let places = json!([
        {"label": "home", "region": (region_json(Place::home().point))},
        {"label": "UCLA", "region": (region_json(Place::ucla().point))},
    ]);
    let owners = (0..4)
        .map(|class| {
            let key = register(&svc, &admin, &format!("c{class}"), "contributor");
            for (route, body) in [
                (
                    "/api/upload",
                    json!({
                        "key": (key.clone()),
                        "segments": (Value::Array(segments.clone())),
                        "annotations": (Value::Array(annotations.clone())),
                    }),
                ),
                (
                    "/api/places/set",
                    json!({"key": (key.clone()), "places": (places.clone())}),
                ),
                (
                    "/api/rules/set",
                    json!({
                        "key": (key.clone()),
                        "rules": (PrivacyRule::rules_to_json(&class_rules(class))),
                    }),
                ),
            ] {
                ok(svc.handle(&Request::post_json(route, &body)), route);
            }
            key
        })
        .collect();
    (svc, owners, consumer)
}

/// The windows every reader asks for: (offset into the day in seconds,
/// length in seconds, ECG and respiration only?). The day (600 s at this
/// scale) runs home, drive, desk, two meetings, smoke break, walk, drive,
/// home; the windows cross home into the drive, the drive into the desk
/// (the workload's channel-filtered shape), the meetings into the smoke
/// break, the drive home into the evening, and the last holds only
/// [`edge_segment`].
const WINDOWS: [(i64, i64, bool); 5] = [
    (20, 60, false),
    (90, 45, true),
    (270, 75, false),
    (520, 60, false),
    (EDGE_AT, 10, false),
];

/// Where [`edge_segment`] starts: after the day, outside every episode.
const EDGE_AT: i64 = 620;

/// The values whose text a number writer most easily gets wrong, one row
/// each across an `f32`, an `f64` and an `i16` column: zeros of both
/// signs, integral values (`.0`), exact ties, the interval end kept for an
/// even significand, the extremes, subnormals, the one `f32` whose
/// shortest decimal rounds twice, and ordinary sensor readings.
fn edge_segment() -> WaveSegment {
    let f32s = [
        0.0f32,
        -0.0,
        5.0,
        -512.0,
        0.1,
        -0.02,
        301.5,
        1_048_576.0 + 0.25,
        1_048_576.0 + 0.75,
        16_777_216.0,
        33_554_448.0,
        f32::MAX,
        f32::MIN_POSITIVE,
        1e-45,
        f32::from_bits(0x15ae_43fd),
        -1.234_567_9,
        0.000_123_456_78,
    ];
    let f64s = [
        0.0f64,
        -0.0,
        1e15,
        999_999_999_999_999.0,
        1e21,
        562_949_953_421_312.0 + 0.25,
        5e-324,
        f64::MAX,
        2f64.powi(-44),
        34.0722,
        -118.4441,
        1e-7,
        123_456.789,
        0.3,
        -2.5,
        1.0 / 3.0,
        9_007_199_254_740_992.0,
    ];
    let rows: Vec<Vec<f64>> = f32s
        .iter()
        .zip(f64s)
        .enumerate()
        .map(|(i, (&a, b))| vec![a as f64, b, (i as f64 - 8.0) * 4096.0])
        .collect();
    let meta = SegmentMeta {
        timing: Timing::Uniform {
            start: Timestamp::from_millis(DAY_START + EDGE_AT * 1000),
            interval_secs: 0.02,
        },
        location: Some(GeoPoint::ucla()),
        format: vec![
            ChannelSpec::f32("ecg"),
            ChannelSpec::f64("skin_temp"),
            ChannelSpec {
                channel: "adc".into(),
                kind: ValueKind::I16,
            },
        ],
    };
    WaveSegment::from_rows(meta, &rows).unwrap()
}

/// `(reader, class, window) -> (length, crc32)` of the reply, captured
/// from the parent of the branch-free number writer.
const GOLDEN: [(&str, usize, usize, usize, u32); 25] = [
    ("consumer", 0, 0, 95715, 0xfcda1b56),
    ("consumer", 0, 1, 57587, 0x4406854f),
    ("consumer", 0, 2, 119682, 0x70a78fc6),
    ("consumer", 0, 3, 95591, 0x06178e4c),
    ("consumer", 0, 4, 1584, 0xc853d70e),
    ("consumer", 1, 0, 84426, 0x1f408da9),
    ("consumer", 1, 1, 57612, 0xee521fe8),
    ("consumer", 1, 2, 105422, 0x71bef170),
    ("consumer", 1, 3, 84362, 0x9e0a5ce3),
    ("consumer", 1, 4, 1510, 0x3e0d1c04),
    ("consumer", 2, 0, 83350, 0x7fd6626e),
    ("consumer", 2, 1, 39016, 0x198c1749),
    ("consumer", 2, 2, 23815, 0xb1abc679),
    ("consumer", 2, 3, 83210, 0xa1f296f9),
    ("consumer", 2, 4, 1270, 0x11d18ce4),
    ("consumer", 3, 0, 14, 0xda4983c9),
    ("consumer", 3, 1, 14, 0xda4983c9),
    ("consumer", 3, 2, 14, 0xda4983c9),
    ("consumer", 3, 3, 14, 0xda4983c9),
    ("consumer", 3, 4, 14, 0xda4983c9),
    ("owner", 0, 0, 95194, 0xe6254d87),
    ("owner", 0, 1, 57414, 0x67142270),
    ("owner", 0, 2, 118672, 0x625dd414),
    ("owner", 0, 3, 95070, 0xfac0ea41),
    ("owner", 0, 4, 1498, 0x8b8612fc),
];

/// Reads one reply back straight from its text and checks it against the
/// tree path: a consumer's view, or the owner's `{"segments": [...]}`.
fn read_back(reader: &str, body: &[u8]) {
    let text = std::str::from_utf8(body).unwrap();
    let tree = parse(text).unwrap();
    let blobs = |segments: Vec<&WaveSegment>| -> Vec<Vec<u8>> {
        segments.iter().map(|s| s.blob().to_vec()).collect()
    };
    if reader == "owner" {
        let expected: Vec<WaveSegment> = tree["segments"]
            .as_array()
            .unwrap()
            .iter()
            .map(|s| WaveSegment::from_json(s).unwrap())
            .collect();
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("segments"));
        let read = r
            .array_of(WaveSegment::read_json)
            .unwrap()
            .unwrap()
            .unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
        assert_eq!(read, expected);
        assert_eq!(
            blobs(read.iter().collect()),
            blobs(expected.iter().collect())
        );
    } else {
        let expected = shared_view_from_json(&tree).unwrap();
        let read = read_shared_view_json(body).unwrap();
        assert_eq!(read, expected);
        let segments = |view: &sensorsafe_datastore::SharedView| {
            blobs(
                view.windows
                    .iter()
                    .filter_map(|w| w.segment.as_ref())
                    .collect(),
            )
        };
        assert_eq!(segments(&read), segments(&expected));
    }
}

#[test]
fn query_replies_are_byte_identical_to_the_captured_digests() {
    let (svc, owners, consumer) = store();
    let query = |key: &str, contributor: &str, window: usize| {
        let (offset, len, filtered) = WINDOWS[window];
        let start = DAY_START + offset * 1000;
        let mut query = Query::all().in_time(TimeRange::new(
            Timestamp::from_millis(start),
            Timestamp::from_millis(start + len * 1000),
        ));
        if filtered {
            query = query.with_channels([ChannelId::new("ecg"), ChannelId::new("respiration")]);
        }
        let resp = svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": key, "contributor": contributor, "query": (query.to_json())}),
        ));
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.json_body());
        resp.body
    };
    let mut seen = Vec::new();
    for (reader, class, window, _, _) in GOLDEN {
        let contributor = format!("c{class}");
        let body = match reader {
            "owner" => query(&owners[class], &contributor, window),
            _ => query(&consumer, &contributor, window),
        };
        read_back(reader, &body);
        seen.push((reader, class, window, body.len(), crc32(&body)));
    }
    let table: String = seen
        .iter()
        .map(|(r, c, w, len, crc)| format!("    (\"{r}\", {c}, {w}, {len}, {crc:#010x}),\n"))
        .collect();
    assert_eq!(seen, GOLDEN, "replies moved; this run's table:\n{table}");
    // The digests cover what they claim: the edge window's raw text
    // holds both zeros, integral values and an upward tie.
    let edge = String::from_utf8(query(&owners[0], "c0", 4)).unwrap();
    for text in [
        "[0.0,0.0,-32768]",
        "[-0.0,-0.0,",
        "[5.0,1000000000000000,",
        "1048576.3,",
    ] {
        assert!(edge.contains(text), "{text} missing from {edge}");
    }
}

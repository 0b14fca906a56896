//! The query/privacy processing module (Fig. 2): every consumer query
//! flows through here, and only rewritten [`SharedSegment`]s leave the
//! server.
//!
//! A raw query result segment may span several context windows (Alice's
//! drive ends, a meeting begins). Enforcement must not average over
//! them: the pipeline splits each segment along annotation boundaries,
//! evaluates the rule set per window, and rewrites each piece
//! independently.

use crate::state::ContributorAccount;
use sensorsafe_json::{
    json, write_array, write_i64, write_str, Map, ParseError, Reader, Token, Value,
};
use sensorsafe_policy::{
    enforce, ConsumerCtx, DependencyGraph, SharedLocation, SharedSegment, TimeAbs,
};
use sensorsafe_store::Query;
use sensorsafe_types::{ContextAnnotation, TimeRange, WaveSegment};

/// The consumer-visible result of one query against one contributor.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedView {
    /// Enforced windows, in segment/time order. Windows where nothing is
    /// shared are absent.
    pub windows: Vec<SharedSegment>,
}

impl SharedView {
    /// Total raw samples shared.
    pub fn raw_samples(&self) -> usize {
        self.windows
            .iter()
            .filter_map(|w| w.segment.as_ref())
            .map(WaveSegment::len)
            .sum()
    }

    /// Total context labels shared.
    pub fn label_count(&self) -> usize {
        self.windows.iter().map(|w| w.labels.len()).sum()
    }

    /// True if the consumer received nothing.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

/// Splits `range` at every annotation boundary inside it, yielding
/// sub-ranges with constant context.
fn split_at_annotations(range: &TimeRange, annotations: &[&ContextAnnotation]) -> Vec<TimeRange> {
    let mut cuts: Vec<i64> = vec![range.start.millis(), range.end.millis()];
    for ann in annotations {
        for edge in [ann.window.start.millis(), ann.window.end.millis()] {
            if edge > range.start.millis() && edge < range.end.millis() {
                cuts.push(edge);
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .map(|pair| {
            TimeRange::new(
                sensorsafe_types::Timestamp::from_millis(pair[0]),
                sensorsafe_types::Timestamp::from_millis(pair[1]),
            )
        })
        .collect()
}

/// Runs `query` for `consumer` against one contributor's account,
/// applying the full enforcement pipeline.
pub fn shared_view(
    account: &ContributorAccount,
    consumer: &ConsumerCtx,
    query: &Query,
    graph: &DependencyGraph,
) -> SharedView {
    let mut windows = Vec::new();
    let segments = account.store.query(query);
    sensorsafe_obsv::trace::phase("store_query");
    // One cache hit per request (compiled at most once per epoch) instead
    // of cloning and re-walking the raw rule list per window.
    let compiled = account.compiled_rules();
    for segment in segments {
        let Some(seg_range) = segment.time_range() else {
            continue;
        };
        let overlapping = account.store.annotations_in(&seg_range);
        for window in split_at_annotations(&seg_range, &overlapping) {
            let Some(piece) = segment.slice_time(&window) else {
                continue;
            };
            let window_annotations: Vec<ContextAnnotation> = overlapping
                .iter()
                .filter(|a| a.window.overlaps(&window))
                .map(|a| (*a).clone())
                .collect();
            let contexts = window_annotations
                .iter()
                .flat_map(|a| a.states.iter().copied())
                .collect();
            let location = piece.meta().location;
            let ctx = sensorsafe_policy::WindowCtx {
                time: window.start,
                location,
                location_labels: location.map(|p| account.labels_at(&p)).unwrap_or_default(),
                contexts,
            };
            let channels: Vec<sensorsafe_types::ChannelId> = piece.channels().cloned().collect();
            let decision = compiled.evaluate(consumer, &ctx, &channels, graph);
            if let Some(shared) = enforce(&decision, &piece, &window_annotations) {
                windows.push(shared);
            }
        }
    }
    sensorsafe_obsv::trace::phase("policy_eval");
    SharedView { windows }
}

/// Appends the query-API wire form of `view` to `out`: the enforced view
/// goes straight to response bytes, segments by
/// [`WaveSegment::write_json`], with no [`Value`] in between.
/// [`shared_view_to_json`] builds the tree that serializes to the same
/// bytes. The reply is reserved once, from the sum of its windows' size
/// estimates (each segment's [`WaveSegment::json_size_hint`]), so it is
/// not grown while its numbers are written.
pub fn write_shared_view_json(view: &SharedView, out: &mut Vec<u8>) {
    out.reserve(json_size_hint(view));
    out.extend_from_slice(b"{\"windows\":");
    write_array(out, &view.windows, |out, w| {
        out.extend_from_slice(b"{\"segment\":");
        match &w.segment {
            Some(seg) => seg.write_json(out),
            None => out.extend_from_slice(b"null"),
        }
        out.extend_from_slice(b",\"labels\":");
        write_array(out, &w.labels, |out, l| {
            out.extend_from_slice(b"{\"kind\":");
            write_str(out, l.kind.as_str());
            out.extend_from_slice(b",\"label\":");
            write_str(out, &l.label);
            out.extend_from_slice(b",\"window\":{\"start\":");
            write_i64(out, l.window.start.millis());
            out.extend_from_slice(b",\"end\":");
            write_i64(out, l.window.end.millis());
            out.extend_from_slice(b"}}");
        });
        out.extend_from_slice(b",\"location\":");
        match &w.location {
            SharedLocation::None => out.extend_from_slice(b"null"),
            SharedLocation::Text(t) => write_str(out, t),
        }
        out.extend_from_slice(b",\"time_level\":");
        write_str(out, w.time_level.as_str());
        out.push(b'}');
    });
    out.push(b'}');
}

/// What [`write_shared_view_json`] appends for `view`, estimated from above
/// for typical data: each segment's [`WaveSegment::json_size_hint`], each
/// label's fields and text, and each window's keys and separators.
fn json_size_hint(view: &SharedView) -> usize {
    let window = |w: &SharedSegment| {
        let segment = w.segment.as_ref().map_or(4, WaveSegment::json_size_hint);
        let labels: usize = w.labels.iter().map(|l| 96 + l.label.len()).sum();
        let location = match &w.location {
            SharedLocation::None => 4,
            SharedLocation::Text(t) => 2 + t.len(),
        };
        80 + segment + labels + location
    };
    16 + view.windows.iter().map(window).sum::<usize>()
}

/// The query-API wire form as a tree (see [`write_shared_view_json`]).
pub fn shared_view_to_json(view: &SharedView) -> Value {
    let windows: Vec<Value> = view
        .windows
        .iter()
        .map(|w| {
            let mut obj = Map::new();
            obj.insert(
                "segment".into(),
                match &w.segment {
                    Some(seg) => seg.to_json(),
                    None => Value::Null,
                },
            );
            obj.insert(
                "labels".into(),
                Value::Array(
                    w.labels
                        .iter()
                        .map(|l| {
                            json!({
                                "kind": (l.kind.as_str()),
                                "label": (l.label.clone()),
                                "window": {
                                    "start": (l.window.start.millis()),
                                    "end": (l.window.end.millis()),
                                },
                            })
                        })
                        .collect(),
                ),
            );
            obj.insert(
                "location".into(),
                match &w.location {
                    SharedLocation::None => Value::Null,
                    SharedLocation::Text(t) => Value::from(t.as_str()),
                },
            );
            obj.insert("time_level".into(), Value::from(w.time_level.as_str()));
            Value::Object(obj)
        })
        .collect();
    json!({ "windows": (Value::Array(windows)) })
}

/// Parses the wire form back into a [`SharedView`] from a tree. No
/// served path decodes a reply through a tree ([`read_shared_view_json`]
/// reads the text itself); this is the reference that reader is tested
/// against.
pub fn shared_view_from_json(value: &Value) -> Result<SharedView, String> {
    let windows_json = value
        .get("windows")
        .and_then(Value::as_array)
        .ok_or("missing 'windows'")?;
    let mut windows = Vec::with_capacity(windows_json.len());
    for w in windows_json {
        let segment = match &w["segment"] {
            Value::Null => None,
            seg => Some(WaveSegment::from_json(seg).map_err(|e| e.to_string())?),
        };
        windows.push(window_from_json(w, segment)?);
    }
    Ok(SharedView { windows })
}

/// Decodes a query reply body into a [`SharedView`] (consumer side),
/// reading the text straight into the view's segments
/// ([`WaveSegment::read_json`]) with no tree of the reply: the inverse
/// of [`write_shared_view_json`]. Accepts exactly the bodies
/// [`shared_view_from_json`] accepts after a parse, with the same error.
/// The small members of a window (its labels, location and time level)
/// are read as a tree; a repeated key's last value wins, as in a parsed
/// object.
pub fn read_shared_view_json(body: &[u8]) -> Result<SharedView, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut reader = Reader::new(text);
    let view = read_view(&mut reader).map_err(|e| e.to_string())?;
    reader.finish().map_err(|e| e.to_string())?;
    view
}

/// The view, or its error once the whole value has been read.
fn read_view(reader: &mut Reader<'_>) -> Result<Result<SharedView, String>, ParseError> {
    let mut windows = None;
    if reader.peek()? == Token::Object {
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                "windows" => windows = reader.array_of(read_window)?,
                _ => reader.skip()?,
            }
        }
    } else {
        reader.skip()?;
    }
    Ok(windows
        .unwrap_or_else(|| Err("missing 'windows'".to_string()))
        .map(|windows| SharedView { windows }))
}

fn read_window(reader: &mut Reader<'_>) -> Result<Result<SharedSegment, String>, ParseError> {
    let mut segment = Ok(None);
    let mut rest = Map::new();
    if reader.peek()? == Token::Object {
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                "segment" if reader.peek()? == Token::Null => {
                    reader.skip()?;
                    segment = Ok(None);
                }
                "segment" => {
                    segment = WaveSegment::read_json(reader)?
                        .map(Some)
                        .map_err(|e| e.to_string());
                }
                "labels" | "location" | "time_level" => {
                    let value = reader.value()?;
                    rest.insert(key.into_owned(), value);
                }
                _ => reader.skip()?,
            }
        }
    } else {
        reader.skip()?;
    }
    Ok(segment.and_then(|segment| window_from_json(&Value::Object(rest), segment)))
}

/// A window's labels, location and time level, around its decoded
/// segment.
fn window_from_json(w: &Value, segment: Option<WaveSegment>) -> Result<SharedSegment, String> {
    let labels_json = w
        .get("labels")
        .and_then(Value::as_array)
        .ok_or("missing 'labels'")?;
    let mut labels = Vec::with_capacity(labels_json.len());
    for l in labels_json {
        let kind = l
            .get("kind")
            .and_then(Value::as_str)
            .and_then(sensorsafe_types::ContextKind::parse)
            .ok_or("bad label kind")?;
        let text = l
            .get("label")
            .and_then(Value::as_str)
            .ok_or("bad label text")?
            .to_string();
        let start = l
            .path("window.start")
            .and_then(Value::as_i64)
            .ok_or("bad label window")?;
        let end = l
            .path("window.end")
            .and_then(Value::as_i64)
            .ok_or("bad label window")?;
        labels.push(sensorsafe_policy::ContextLabel {
            kind,
            label: text,
            window: TimeRange::new(
                sensorsafe_types::Timestamp::from_millis(start),
                sensorsafe_types::Timestamp::from_millis(end),
            ),
        });
    }
    let location = match &w["location"] {
        Value::Null => SharedLocation::None,
        Value::String(s) => SharedLocation::Text(s.clone()),
        _ => return Err("bad location".into()),
    };
    let time_level = w
        .get("time_level")
        .and_then(Value::as_str)
        .and_then(TimeAbs::parse)
        .ok_or("bad time_level")?;
    Ok(SharedSegment {
        segment,
        labels,
        location,
        time_level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_policy::{AbstractionSpec, Action, BinaryAbs, Conditions, PrivacyRule};
    use sensorsafe_sim::Scenario;
    use sensorsafe_store::MergePolicy;
    use sensorsafe_types::{ContextKind, ContributorId, GeoPoint, Region, Timestamp};

    /// An account loaded with Alice's rendered day and ground truth.
    fn alice_account() -> ContributorAccount {
        let scenario = Scenario::alice_day(Timestamp::from_millis(1_311_500_000_000), 5, 1);
        let rendered = scenario.render();
        let mut account =
            ContributorAccount::new(ContributorId::new("alice"), MergePolicy::default());
        account.places = vec![
            (
                "home".to_string(),
                Region::around(sensorsafe_sim::Place::home().point, 0.005),
            ),
            (
                "UCLA".to_string(),
                Region::around(sensorsafe_sim::Place::ucla().point, 0.005),
            ),
        ];
        for seg in rendered.all_segments() {
            account.store.insert_segment(seg).unwrap();
        }
        for ann in rendered.annotations {
            account.store.insert_annotation(ann).unwrap();
        }
        account
    }

    fn bob() -> ConsumerCtx {
        ConsumerCtx::user("bob")
    }

    fn graph() -> DependencyGraph {
        DependencyGraph::paper()
    }

    #[test]
    fn a_reply_is_reserved_once_and_never_grown() {
        let mut account = alice_account();
        account.set_rules(vec![PrivacyRule::allow_all()]);
        let start = Timestamp::from_millis(1_311_500_000_000 + 30_000);
        let minute = Query::all().in_time(TimeRange::new(start, start.plus_millis(60_000)));
        let view = shared_view(&account, &bob(), &minute, &graph());
        assert!(view.raw_samples() >= 60 * 50, "{}", view.raw_samples());
        let reserved = json_size_hint(&view);
        let mut out = Vec::new();
        write_shared_view_json(&view, &mut out);
        assert_eq!(out.capacity(), reserved, "{} bytes", out.len());
    }

    #[test]
    fn no_rules_shares_nothing() {
        let account = alice_account();
        let view = shared_view(&account, &bob(), &Query::all(), &graph());
        assert!(view.is_empty());
    }

    #[test]
    fn allow_all_shares_everything() {
        let mut account = alice_account();
        account.set_rules(vec![PrivacyRule::allow_all()]);
        let view = shared_view(&account, &bob(), &Query::all(), &graph());
        let total: usize = account
            .store
            .query(&Query::all())
            .iter()
            .map(WaveSegment::len)
            .sum();
        assert_eq!(view.raw_samples(), total);
    }

    #[test]
    fn deny_stress_while_driving_suppresses_commute_ecg() {
        // Alice's §6 rule: deny ECG/respiration while driving.
        let mut account = alice_account();
        account.set_rules(vec![
            PrivacyRule::allow_all(),
            PrivacyRule {
                conditions: Conditions {
                    contexts: vec![ContextKind::Drive],
                    sensors: vec!["ecg".into(), "respiration".into()],
                    ..Default::default()
                },
                action: Action::Deny,
            },
        ]);
        let view = shared_view(&account, &bob(), &Query::all(), &graph());
        // Two 60 s commutes of 50 Hz ECG+RSP are withheld.
        let full: usize = account
            .store
            .query(&Query::all())
            .iter()
            .map(WaveSegment::len)
            .sum();
        let withheld = full - view.raw_samples();
        assert_eq!(withheld, 2 * 60 * 50);
        // No shared window overlapping a drive annotation carries ECG.
        let drives: Vec<TimeRange> = account
            .store
            .annotations()
            .iter()
            .filter(|a| a.state_of(ContextKind::Drive) == Some(true))
            .map(|a| a.window)
            .collect();
        for w in &view.windows {
            if let Some(seg) = &w.segment {
                let r = seg.time_range().unwrap();
                if drives.iter().any(|d| d.overlaps(&r)) {
                    assert!(
                        seg.channels().all(|c| c.as_str() != "ecg"),
                        "raw ECG leaked into a driving window"
                    );
                }
            }
        }
    }

    #[test]
    fn label_level_stress_replaces_raw() {
        let mut account = alice_account();
        account.set_rules(vec![
            PrivacyRule::allow_all(),
            PrivacyRule {
                conditions: Conditions::default(),
                action: Action::Abstraction(AbstractionSpec {
                    stress: Some(BinaryAbs::Label),
                    ..Default::default()
                }),
            },
        ]);
        let view = shared_view(&account, &bob(), &Query::all(), &graph());
        assert!(view.label_count() > 0);
        for w in &view.windows {
            if let Some(seg) = &w.segment {
                assert!(seg
                    .channels()
                    .all(|c| c.as_str() != "ecg" && c.as_str() != "respiration"));
            }
        }
        // Stress labels cover both commutes and the hard meeting.
        let stressed = view
            .windows
            .iter()
            .flat_map(|w| &w.labels)
            .filter(|l| l.kind == ContextKind::Stress && l.label == "Stressed")
            .count();
        assert!(stressed > 0);
    }

    #[test]
    fn location_condition_scopes_by_place_label() {
        // Share only data collected at UCLA.
        let mut account = alice_account();
        account.set_rules(vec![PrivacyRule {
            conditions: Conditions {
                location: Some(sensorsafe_policy::LocationCondition {
                    labels: vec!["UCLA".into()],
                    regions: vec![],
                }),
                ..Default::default()
            },
            action: Action::Allow,
        }]);
        let view = shared_view(&account, &bob(), &Query::all(), &graph());
        assert!(!view.is_empty());
        let ucla = sensorsafe_sim::Place::ucla().point;
        for w in &view.windows {
            if let Some(seg) = &w.segment {
                let loc = seg.meta().location.unwrap();
                assert!(
                    loc.distance_meters(&ucla) < 2_000.0,
                    "non-UCLA data leaked from {loc:?}"
                );
            }
        }
        // UCLA is 6 of 10 minutes: strictly less than everything.
        let full: usize = account
            .store
            .query(&Query::all())
            .iter()
            .map(WaveSegment::len)
            .sum();
        assert!(view.raw_samples() < full);
        assert!(view.raw_samples() > 0);
    }

    #[test]
    fn segments_split_at_context_boundaries() {
        // A merged store segment spans episodes; enforcement must split
        // it rather than leak or over-deny.
        let mut account = alice_account();
        account.set_rules(vec![
            PrivacyRule::allow_all(),
            PrivacyRule {
                conditions: Conditions {
                    contexts: vec![ContextKind::Conversation],
                    ..Default::default()
                },
                action: Action::Deny,
            },
        ]);
        let view = shared_view(&account, &bob(), &Query::all(), &graph());
        let conversations: Vec<TimeRange> = account
            .store
            .annotations()
            .iter()
            .filter(|a| a.state_of(ContextKind::Conversation) == Some(true))
            .map(|a| a.window)
            .collect();
        assert_eq!(conversations.len(), 2);
        for w in &view.windows {
            if let Some(seg) = &w.segment {
                let r = seg.time_range().unwrap();
                for conv in &conversations {
                    assert!(
                        !conv.overlaps(&r),
                        "data from a conversation window leaked: {r:?}"
                    );
                }
            }
        }
        // Everything else is still shared: withheld = 2 minutes of
        // chest + phone + gps samples.
        let full: usize = account
            .store
            .query(&Query::all())
            .iter()
            .map(WaveSegment::len)
            .sum();
        let expected_withheld = 2 * 60 * (50 + 10 + 1);
        assert_eq!(full - view.raw_samples(), expected_withheld);
    }

    #[test]
    fn a_zero_length_annotation_touches_nothing() {
        // An annotation over `[t, t)` covers no instant: it neither
        // activates its contexts for the samples around `t` (one rule
        // denies while driving, another shares conversation as a label)
        // nor emits a label, nor cuts a window at `t`.
        let rules = vec![
            PrivacyRule::allow_all(),
            PrivacyRule {
                conditions: Conditions {
                    contexts: vec![ContextKind::Drive],
                    ..Default::default()
                },
                action: Action::Deny,
            },
            PrivacyRule {
                conditions: Conditions::default(),
                action: Action::Abstraction(AbstractionSpec {
                    conversation: Some(BinaryAbs::Label),
                    ..Default::default()
                }),
            },
        ];
        let segment = Scenario::alice_day(Timestamp::from_millis(1_311_500_000_000), 5, 1)
            .render()
            .chest_segments
            .remove(0);
        let range = segment.time_range().unwrap();
        let inside = Timestamp::from_millis((range.start.millis() + range.end.millis()) / 2);
        let annotation = |window, active| {
            let states = [ContextKind::Drive, ContextKind::Conversation]
                .map(|kind| sensorsafe_types::ContextState { kind, active });
            ContextAnnotation::new(window, states.to_vec())
        };
        let view_with = |instants: &[Timestamp]| {
            let mut account =
                ContributorAccount::new(ContributorId::new("alice"), MergePolicy::default());
            account.store.insert_segment(segment.clone()).unwrap();
            // Known not driving and not talking over the whole segment...
            let mut annotations = vec![annotation(range, false)];
            // ...and "driving, talking" for no time at all.
            annotations.extend(
                instants
                    .iter()
                    .map(|at| annotation(TimeRange::new(*at, *at), true)),
            );
            for annotation in annotations {
                account.store.insert_annotation(annotation).unwrap();
            }
            account.set_rules(rules.clone());
            shared_view(&account, &bob(), &Query::all(), &graph())
        };
        let view = view_with(&[range.start, inside]);
        assert_eq!(view, view_with(&[]), "as if the annotations were not there");
        assert_eq!(view.windows.len(), 1);
        assert!(view.raw_samples() > 0, "not driving: ECG is shared");
        let labels: Vec<&str> = view.windows[0]
            .labels
            .iter()
            .map(|l| l.label.as_str())
            .collect();
        assert_eq!(labels, ["Not Conversation"]);
    }

    #[test]
    fn wire_codec_roundtrip() {
        let mut account = alice_account();
        account.set_rules(vec![
            PrivacyRule::allow_all(),
            PrivacyRule {
                conditions: Conditions::default(),
                action: Action::Abstraction(AbstractionSpec {
                    stress: Some(BinaryAbs::Label),
                    location: Some(sensorsafe_policy::LocationAbs::City),
                    time: Some(TimeAbs::Hour),
                    ..Default::default()
                }),
            },
        ]);
        let view = shared_view(&account, &bob(), &Query::all().with_limit(20), &graph());
        let wire = shared_view_to_json(&view);
        let back = shared_view_from_json(&wire).unwrap();
        assert_eq!(back, view);
    }

    #[test]
    fn view_reader_answers_malformed_replies_like_the_tree() {
        let tree = |text: &str| {
            sensorsafe_json::parse(text)
                .map_err(|e| e.to_string())
                .and_then(|v| shared_view_from_json(&v))
        };
        for text in [
            r#"{}"#,
            r#"[{"windows": []}]"#,
            r#"{"windows": {}}"#,
            r#"{"windows": [5]}"#,
            r#"{"windows": [7], "windows": [], "extra": [{}]}"#,
            r#"{"windows": [{"labels": [], "time_level": "Hour"}]}"#,
            r#"{"windows": [{"labels": [], "time_level": "Hour", "location": "LA", "location": null}]}"#,
            r#"{"windows": [{"segment": 5, "labels": "x"}]}"#,
            r#"{"windows": [{"segment": {"format": []}, "segment": null, "labels": [], "time_level": "Day"}]}"#,
            r#"{"windows": [{"segment": null, "labels": [{"kind": "nope"}], "location": 3}]}"#,
            r#"{"windows": [{"labels": [], "location": 3, "time_level": "Hour"}]}"#,
            r#"{"windows": [{"labels": [], "time_level": "Hour"}, {"labels": 1}, {"labels": 2}]}"#,
            r#"{"windows": [], "x": [1,]}"#,
            r#"{"windows": []} x"#,
        ] {
            assert_eq!(read_shared_view_json(text.as_bytes()), tree(text), "{text}");
        }
        assert_eq!(
            read_shared_view_json(b"{\"windows\": [\xff]}"),
            Err("body is not UTF-8".to_string())
        );
    }

    #[test]
    fn query_filters_apply_before_enforcement() {
        let mut account = alice_account();
        account.set_rules(vec![PrivacyRule::allow_all()]);
        let q = Query::all().with_channels(["ecg".into()]);
        let view = shared_view(&account, &bob(), &q, &graph());
        for w in &view.windows {
            let seg = w.segment.as_ref().unwrap();
            let names: Vec<&str> = seg.channels().map(|c| c.as_str()).collect();
            assert_eq!(names, ["ecg"]);
        }
        // 600 s at 50 Hz.
        assert_eq!(view.raw_samples(), 600 * 50);
    }

    #[test]
    fn region_query() {
        let mut account = alice_account();
        account.set_rules(vec![PrivacyRule::allow_all()]);
        let home_region = Region::around(sensorsafe_sim::Place::home().point, 0.005);
        let view = shared_view(
            &account,
            &bob(),
            &Query::all().in_region(home_region),
            &graph(),
        );
        // Two 60 s home episodes.
        assert_eq!(view.raw_samples(), 2 * 60 * (50 + 10 + 1));
        for w in &view.windows {
            if let Some(seg) = &w.segment {
                let loc = seg.meta().location.unwrap();
                assert!(home_region.contains(&loc));
            }
        }
    }

    #[test]
    fn split_helper_edges() {
        let range = TimeRange::new(Timestamp::from_millis(0), Timestamp::from_millis(100));
        // No annotations: one window.
        assert_eq!(split_at_annotations(&range, &[]).len(), 1);
        // Boundary exactly at range edges: still one window.
        let exact = ContextAnnotation::new(range, vec![]);
        assert_eq!(split_at_annotations(&range, &[&exact]).len(), 1);
        // A boundary in the middle: two windows that tile the range.
        let mid = ContextAnnotation::new(
            TimeRange::new(Timestamp::from_millis(-50), Timestamp::from_millis(40)),
            vec![],
        );
        let parts = split_at_annotations(&range, &[&mid]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].end, parts[1].start);
        assert_eq!(parts[0].start.millis(), 0);
        assert_eq!(parts[1].end.millis(), 100);
    }

    #[test]
    fn geo_point_helper() {
        // Sanity: the two sim places are far enough apart for the
        // location tests to be meaningful.
        let d = sensorsafe_sim::Place::home()
            .point
            .distance_meters(&sensorsafe_sim::Place::ucla().point);
        assert!(d > 3_000.0, "places too close: {d}");
        let _ = GeoPoint::ucla();
    }
}

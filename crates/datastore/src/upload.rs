//! The `/api/upload` body, read straight from its text.
//!
//! An upload is a phone posting Fig. 5 wave segments (§5.1), so nearly
//! all of its bytes are segment cells. The route reads the body with one
//! pull reader ([`sensorsafe_json::Reader`]): the four members it uses
//! are taken as they come — `key` and each of `segments` straight into
//! their types ([`WaveSegment::read_json`] fills each blob from the
//! text), `upload_token` and `annotations`, which are small, as trees —
//! and everything else is read past. No tree of the body is built. A
//! repeated key's last value wins, as in a parsed object, and a body the
//! tree parser rejects is rejected with the same error.

use sensorsafe_json::{ParseError, Reader, Token, Value};
use sensorsafe_types::{WaveError, WaveSegment};

/// What the route takes from an upload body.
pub(crate) struct Upload {
    /// The caller's API key, if `key` is a string.
    pub(crate) key: Option<String>,
    /// The idempotency token as sent, checked by the handler.
    pub(crate) upload_token: Option<Value>,
    /// The segments, or the first one's error; none when `segments` is
    /// absent or not an array.
    pub(crate) segments: Result<Vec<WaveSegment>, WaveError>,
    /// The annotations member as sent, decoded by the handler.
    pub(crate) annotations: Option<Value>,
}

impl Upload {
    /// Reads a whole body, or the error that makes it no JSON document.
    pub(crate) fn read(body: &[u8]) -> Result<Upload, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let mut reader = Reader::new(text);
        let upload = Upload::read_from(&mut reader).map_err(|e| e.to_string())?;
        reader.finish().map_err(|e| e.to_string())?;
        Ok(upload)
    }

    fn read_from(reader: &mut Reader<'_>) -> Result<Upload, ParseError> {
        let mut upload = Upload {
            key: None,
            upload_token: None,
            segments: Ok(Vec::new()),
            annotations: None,
        };
        if reader.peek()? != Token::Object {
            reader.skip()?;
            return Ok(upload);
        }
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                "key" if reader.peek()? == Token::String => {
                    upload.key = Some(reader.string()?.into_owned());
                }
                "key" => {
                    reader.skip()?;
                    upload.key = None;
                }
                "upload_token" => upload.upload_token = Some(reader.value()?),
                "segments" => {
                    upload.segments = reader
                        .array_of(WaveSegment::read_json)?
                        .unwrap_or(Ok(Vec::new()));
                }
                "annotations" => upload.annotations = Some(reader.value()?),
                _ => reader.skip()?,
            }
        }
        Ok(upload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{annotation_to_json, DataStoreConfig, DataStoreService};
    use proptest::prelude::*;
    use sensorsafe_auth::{ApiKey, Principal, Role};
    use sensorsafe_json::{json, parse, to_string, write_str};
    use sensorsafe_net::{Request, Response, Service};
    use sensorsafe_store::Query;
    use sensorsafe_types::{
        ChannelSpec, ContextAnnotation, ContextKind, ContextState, ContributorId, GeoPoint,
        SegmentMeta, TimeRange, Timestamp, Timing, ValueKind,
    };

    /// The route before the reader, as the reference: the whole body
    /// parsed to a tree, the members taken from the tree, and every
    /// segment decoded from its subtree.
    fn upload_from_tree(body: &[u8]) -> Result<Upload, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let tree = parse(text).map_err(|e| e.to_string())?;
        Ok(Upload {
            key: tree.get("key").and_then(Value::as_str).map(str::to_string),
            upload_token: tree.get("upload_token").cloned(),
            segments: tree
                .get("segments")
                .and_then(Value::as_array)
                .into_iter()
                .flatten()
                .map(WaveSegment::from_json)
                .collect(),
            annotations: tree.get("annotations").cloned(),
        })
    }

    fn key_of(name: &str) -> ApiKey {
        ApiKey::from_seed(name.as_bytes())
    }

    /// A store hosting contributor `alice` and consumer `bob`, each also
    /// holding the key [`key_of`] their name, so one body reads the same
    /// on every store built here.
    fn store() -> DataStoreService {
        let (svc, admin) = DataStoreService::new(DataStoreConfig::default());
        for (name, role) in [("alice", Role::Contributor), ("bob", Role::Consumer)] {
            let resp = svc.handle(&Request::post_json(
                "/api/register",
                &json!({"key": (admin.to_hex()), "name": name, "role": (role.as_str())}),
            ));
            assert!(resp.status.is_success(), "{:?}", resp.json_body());
            let principal = Principal {
                name: name.to_string(),
                role,
            };
            svc.inner().keys.register_key(&key_of(name), principal);
        }
        svc
    }

    /// Everything alice's account holds.
    fn stored(svc: &DataStoreService) -> (Vec<WaveSegment>, Vec<ContextAnnotation>) {
        svc.inner()
            .state
            .with_contributor(&ContributorId::new("alice"), |account| {
                let annotations = account.store.annotations_in(&TimeRange::all());
                (
                    account.store.query(&Query::all()),
                    annotations.into_iter().cloned().collect(),
                )
            })
            .expect("alice is hosted")
    }

    /// splitmix64: expands one generated seed into a whole body.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Clone>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize].clone()
        }
    }

    fn arb_segment(mix: &mut Mix) -> Value {
        let kinds: Vec<ValueKind> = (0..1 + mix.below(3))
            .map(|_| mix.pick(&[ValueKind::F64, ValueKind::F32, ValueKind::I16]))
            .collect();
        let rows = mix.below(5) as usize;
        let start = 1_311_500_000_000 + mix.below(1 << 30) as i64;
        let timing = if mix.below(3) > 0 {
            Timing::Uniform {
                start: Timestamp::from_millis(start),
                interval_secs: mix.pick(&[0.02, 0.5, 1.0]),
            }
        } else {
            Timing::PerSample(
                (0..rows as i64)
                    .map(|i| Timestamp::from_millis(start + i * 7))
                    .collect(),
            )
        };
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                kinds
                    .iter()
                    .map(|kind| match kind {
                        ValueKind::F64 => loop {
                            let x = f64::from_bits(mix.next());
                            if x.is_finite() {
                                break x;
                            }
                        },
                        ValueKind::F32 => (mix.below(200_000) as f32 / 64.0 - 1000.0) as f64,
                        ValueKind::I16 => mix.next() as i16 as f64,
                    })
                    .collect()
            })
            .collect();
        let meta = SegmentMeta {
            timing,
            location: (mix.below(2) == 0).then(GeoPoint::ucla),
            format: kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| ChannelSpec {
                    channel: format!("ch{i}").as_str().into(),
                    kind,
                })
                .collect(),
        };
        WaveSegment::from_rows(meta, &data).unwrap().to_json()
    }

    fn arb_annotation(mix: &mut Mix) -> Value {
        let start = 1_311_500_000_000 + mix.below(1 << 30) as i64;
        let states = (0..mix.below(3))
            .map(|_| ContextState {
                kind: mix.pick(&ContextKind::ALL),
                active: mix.below(2) == 0,
            })
            .collect();
        let window = TimeRange::new(
            Timestamp::from_millis(start),
            Timestamp::from_millis(start + mix.below(60_000) as i64),
        );
        annotation_to_json(&ContextAnnotation::new(window, states))
    }

    /// A value of another type than `old`.
    fn other_type(mix: &mut Mix, old: &Value) -> Value {
        loop {
            let new = mix.pick(&[
                Value::Null,
                Value::Bool(true),
                Value::from(7),
                Value::from(2.5),
                Value::from("s"),
                json!([]),
                json!({}),
                json!([1.5]),
            ]);
            if std::mem::discriminant(&new) != std::mem::discriminant(old) {
                return new;
            }
        }
    }

    fn node_count(v: &Value) -> usize {
        1 + match v {
            Value::Array(items) => items.iter().map(node_count).sum(),
            Value::Object(map) => map.values().map(node_count).sum(),
            _ => 0,
        }
    }

    /// Replaces node `n` of `v` (in pre-order) by `f` of it.
    fn replace_node(v: &mut Value, n: &mut usize, f: &mut dyn FnMut(&Value) -> Value) -> bool {
        if *n == 0 {
            *v = f(v);
            return true;
        }
        *n -= 1;
        match v {
            Value::Array(items) => items.iter_mut().any(|item| replace_node(item, n, f)),
            Value::Object(map) => map.iter_mut().any(|(_, item)| replace_node(item, n, f)),
            _ => false,
        }
    }

    /// `value` under `depth` more levels of arrays.
    fn nested(depth: usize, value: Value) -> Value {
        (0..depth).fold(value, |inner, _| Value::Array(vec![inner]))
    }

    /// An upload body, then mutated: members may repeat (so the body is
    /// kept as a member list and written by hand), values of any type
    /// swapped anywhere, unknown keys, a non-array `segments`, bare-name
    /// formats, integers and out-of-range values in `f32` columns, a
    /// segment's format after its data, nesting up to and past the
    /// parser's limit; then perhaps cut at any
    /// byte or given a byte that is not UTF-8.
    fn body(seed: u64) -> Vec<u8> {
        let mut mix = Mix(seed);
        let key = mix.pick(&["alice", "alice", "alice", "bob", "carol"]);
        let mut members: Vec<(String, Value)> =
            vec![("key".into(), Value::from(key_of(key).to_hex()))];
        if mix.below(3) == 0 {
            let token = mix.pick(&["00ff13", "", "zz"]);
            members.push(("upload_token".into(), Value::from(token)));
        }
        let segments = (0..mix.below(4)).map(|_| arb_segment(&mut mix)).collect();
        members.push(("segments".into(), Value::Array(segments)));
        if mix.below(2) == 0 {
            let annotations = (0..mix.below(3))
                .map(|_| arb_annotation(&mut mix))
                .collect();
            members.push(("annotations".into(), Value::Array(annotations)));
        }
        for _ in 0..mix.below(4) {
            match mix.below(10) {
                // A value of another type, anywhere.
                0 | 1 => {
                    let m = mix.below(members.len() as u64) as usize;
                    let mut n = mix.below(node_count(&members[m].1) as u64) as usize;
                    let swap = mix.next();
                    replace_node(&mut members[m].1, &mut n, &mut |old| {
                        other_type(&mut Mix(swap), old)
                    });
                }
                // A repeated `key` or `segments`.
                2 => {
                    let name = mix.pick(&["key", "segments"]);
                    let value = match (name, mix.below(3)) {
                        ("key", 0) => Value::from(key_of("bob").to_hex()),
                        ("key", 1) => Value::Null,
                        ("key", _) => Value::from(key_of("alice").to_hex()),
                        (_, 0) => json!([]),
                        _ => Value::Array(vec![arb_segment(&mut mix)]),
                    };
                    let at = mix.below(members.len() as u64 + 1) as usize;
                    members.insert(at, (name.into(), value));
                }
                // Unknown keys.
                3 => {
                    let name = mix.pick(&["extra", "Key", "segments2", "", "data"]);
                    let value = mix.pick(&[json!({"a": [1, {"b": null}]}), json!("x"), json!(3)]);
                    let at = mix.below(members.len() as u64 + 1) as usize;
                    members.insert(at, (name.into(), value));
                }
                // A `segments` that is not an array.
                4 => {
                    for (name, value) in &mut members {
                        if name == "segments" {
                            *value = match value.as_array().and_then(|s| s.first()) {
                                Some(first) => first.clone(),
                                None => json!("none"),
                            };
                        }
                    }
                }
                // Bare channel names in a format, and so f32 columns;
                // integer and out-of-range cells in f32 columns.
                5 | 6 => {
                    let bare = mix.below(2) == 0;
                    let cell = mix.pick(&[
                        Value::from(16_777_217),
                        Value::from(-5),
                        Value::from(i64::MAX),
                        Value::from(1e39),
                        Value::from(-3.5e38),
                        Value::from(3.4028235e38),
                    ]);
                    for (name, value) in &mut members {
                        let Some(segments) = value.as_array_mut().filter(|_| name == "segments")
                        else {
                            continue;
                        };
                        for segment in segments.iter_mut().filter_map(Value::as_object_mut) {
                            if let Some(format) =
                                segment.get_mut("format").and_then(Value::as_array_mut)
                            {
                                for entry in format.iter_mut().filter(|_| bare) {
                                    *entry = entry["channel"].clone();
                                }
                            }
                            let f32s: Vec<bool> = segment
                                .get("format")
                                .and_then(Value::as_array)
                                .into_iter()
                                .flatten()
                                .map(|e| e.as_str().is_some() || e["kind"].as_str() == Some("f32"))
                                .collect();
                            let rows = segment.get_mut("data").and_then(Value::as_array_mut);
                            for row in rows.into_iter().flatten().filter_map(Value::as_array_mut) {
                                for (cell_at, is_f32) in row.iter_mut().zip(&f32s) {
                                    if *is_f32 && mix.below(3) == 0 {
                                        *cell_at = cell.clone();
                                    }
                                }
                            }
                        }
                    }
                }
                // Each segment's format after its data.
                8 => {
                    for (name, value) in &mut members {
                        let Some(segments) = value.as_array_mut().filter(|_| name == "segments")
                        else {
                            continue;
                        };
                        for segment in segments.iter_mut().filter_map(Value::as_object_mut) {
                            if let Some(format) = segment.remove("format") {
                                segment.insert("format".into(), format);
                            }
                        }
                    }
                }
                // Nesting at and past the limit: the body itself is
                // one level, so 127 more levels still parse.
                _ => {
                    let depth = mix.pick(&[126, 127, 128, 200]);
                    let at = mix.below(members.len() as u64 + 1) as usize;
                    members.insert(at, ("deep".into(), nested(depth, json!(1))));
                }
            }
        }
        let mut body = b"{".to_vec();
        for (i, (name, value)) in members.iter().enumerate() {
            if i > 0 {
                body.push(b',');
            }
            write_str(&mut body, name);
            body.push(b':');
            body.extend_from_slice(to_string(value).as_bytes());
        }
        body.push(b'}');
        match mix.below(8) {
            0 => body.truncate(mix.below(body.len() as u64 + 1) as usize),
            1 => {
                let at = mix.below(body.len() as u64) as usize;
                body[at] = mix.pick(&[0xff, 0xc3, 0x80]);
            }
            _ => {}
        }
        body
    }

    proptest! {
        /// The upload route reads its body from the text exactly as the
        /// tree path did: over every mutated body the same status, the
        /// same reply bytes (error text included), and the same samples
        /// and annotations stored.
        #[test]
        fn upload_reader_answers_and_stores_like_the_tree_path(body in any::<u64>().prop_map(body)) {
            let (served, reference) = (store(), store());
            let raw = served.handle(&Request::post_json_bytes("/api/upload", body.clone()));
            let tree = match upload_from_tree(&body) {
                Ok(upload) => reference.inner().upload(upload),
                Err(e) => Response::bad_request(&format!("invalid JSON body: {e}")),
            };
            let text = String::from_utf8_lossy(&body);
            prop_assert_eq!(raw.status, tree.status, "{}", text);
            prop_assert_eq!(&raw.body, &tree.body, "{}", text);
            prop_assert_eq!(stored(&served), stored(&reference), "{}", text);
        }
    }

    #[test]
    fn the_generator_reaches_every_outcome() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..400 {
            let resp = store().handle(&Request::post_json_bytes("/api/upload", body(seed)));
            let error = resp.json_body().ok().and_then(|v| {
                v["error"]
                    .as_str()
                    .map(|e| e.split(':').next().unwrap_or_default().to_string())
            });
            seen.insert((resp.status.code(), error));
        }
        let codes: std::collections::BTreeSet<u16> = seen.iter().map(|(c, _)| *c).collect();
        assert_eq!(codes, [200, 400, 401, 403].into(), "{seen:?}");
        for error in [
            "invalid JSON body",
            "bad segment",
            "bad 'upload_token'",
            "bad annotation",
        ] {
            assert!(
                seen.iter().any(|(_, e)| e.as_deref() == Some(error)),
                "{error}: {seen:?}"
            );
        }
    }
}

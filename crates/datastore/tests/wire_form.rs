//! The query-API wire form, as properties: the streamed text of any
//! [`SharedView`] decodes back to that view on the consumer side — through
//! a parsed tree and read straight from the text, bit for bit — and the
//! tree form serializes to the same bytes.

use proptest::prelude::*;
use sensorsafe_datastore::{
    read_shared_view_json, shared_view_from_json, shared_view_to_json, write_shared_view_json,
    SharedView,
};
use sensorsafe_policy::{ContextLabel, SharedLocation, SharedSegment, TimeAbs};
use sensorsafe_types::{
    ChannelSpec, ContextKind, GeoPoint, SegmentMeta, TimeRange, Timestamp, Timing, ValueKind,
    WaveSegment,
};

/// splitmix64: expands one generated seed into a whole view.
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
}

/// Text with everything the string writer has to escape or pass through.
fn arb_text(mix: &mut Mix) -> String {
    const PIECES: [&str; 12] = [
        "Stressed", "UCLA", " ", "\"", "\\", "\n", "\t", "\u{1}", "\u{1f}", "é", "世界", "😀",
    ];
    (0..mix.below(8))
        .map(|_| PIECES[mix.below(12) as usize])
        .collect()
}

fn arb_segment(mix: &mut Mix) -> WaveSegment {
    let kinds: Vec<ValueKind> = (0..1 + mix.below(3))
        .map(|_| [ValueKind::F64, ValueKind::F32, ValueKind::I16][mix.below(3) as usize])
        .collect();
    let rows = mix.below(12) as usize;
    let timing = if mix.below(2) == 0 {
        Timing::Uniform {
            start: Timestamp::from_millis(mix.below(2_000_000_000_000) as i64),
            interval_secs: [0.02, 0.1, 1.0][mix.below(3) as usize],
        }
    } else {
        Timing::PerSample(
            (0..rows as i64)
                .map(|i| Timestamp::from_millis(i * 37))
                .collect(),
        )
    };
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            kinds
                .iter()
                .map(|kind| match kind {
                    ValueKind::F64 => mix.below(3_600_000) as f64 / 1e4 - 180.0,
                    ValueKind::F32 => match mix.below(3) {
                        0 => (mix.below(100_000) as f32 / 100.0) as f64,
                        1 => [0.0f32, -0.0, 33_554_448.0, 1e-45][mix.below(4) as usize] as f64,
                        _ => loop {
                            let x = f32::from_bits(mix.next() as u32);
                            if x.is_finite() {
                                break x as f64;
                            }
                        },
                    },
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
    WaveSegment::from_rows(meta, &data).unwrap()
}

/// Views of every shape: windows with and without a raw segment, zero to
/// three labels of any kind, both location forms, every time level.
fn arb_view() -> impl Strategy<Value = SharedView> {
    const LEVELS: [TimeAbs; 6] = [
        TimeAbs::Milliseconds,
        TimeAbs::Hour,
        TimeAbs::Day,
        TimeAbs::Month,
        TimeAbs::Year,
        TimeAbs::NotShared,
    ];
    any::<u64>().prop_map(|seed| {
        let mut mix = Mix(seed);
        let windows = (0..mix.below(5))
            .map(|_| SharedSegment {
                segment: (mix.below(3) > 0).then(|| arb_segment(&mut mix)),
                labels: (0..mix.below(4))
                    .map(|_| {
                        let start = mix.next() as i64 >> 20;
                        ContextLabel {
                            kind: ContextKind::ALL[mix.below(9) as usize],
                            label: arb_text(&mut mix),
                            window: TimeRange::new(
                                Timestamp::from_millis(start),
                                Timestamp::from_millis(start + mix.below(1 << 30) as i64),
                            ),
                        }
                    })
                    .collect(),
                location: if mix.below(2) == 0 {
                    SharedLocation::None
                } else {
                    SharedLocation::Text(arb_text(&mut mix))
                },
                time_level: LEVELS[mix.below(6) as usize],
            })
            .collect();
        SharedView { windows }
    })
}

proptest! {
    #[test]
    fn view_stream_roundtrip_and_tree_equality(view in arb_view()) {
        let mut text = Vec::new();
        write_shared_view_json(&view, &mut text);
        let read = read_shared_view_json(&text).unwrap();
        let text = String::from_utf8(text).unwrap();
        let back = shared_view_from_json(&sensorsafe_json::parse(&text).unwrap()).unwrap();
        for decoded in [&back, &read] {
            prop_assert_eq!(decoded, &view);
            for (a, b) in decoded.windows.iter().zip(&view.windows) {
                if let (Some(a), Some(b)) = (&a.segment, &b.segment) {
                    prop_assert_eq!(a.blob(), b.blob());
                }
            }
        }
        prop_assert_eq!(sensorsafe_json::to_string(&shared_view_to_json(&view)), text);
    }
}

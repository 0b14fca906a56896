//! Property-based tests for the core data model invariants.

use proptest::prelude::*;
use sensorsafe_types::{
    ChannelSpec, GeoPoint, RepeatTime, SegmentMeta, TimeOfDay, TimeRange, Timestamp, Timing,
    ValueKind, WaveSegment, Weekday,
};

fn arb_rows(cols: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-1e4..1e4f64, cols..=cols), 0..64)
}

/// splitmix64: expands one generated seed into a whole segment.
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

/// A finite cell value for a column of `kind`, as the `f64` `from_rows`
/// narrows: edge cases (signed zeros, subnormals, extremes, integral
/// floats, values whose shortest decimal sits on a rounding-interval end
/// or an exact tie) mixed with arbitrary bit patterns and quantised
/// sensor-like readings.
fn arb_cell(mix: &mut Mix, kind: ValueKind) -> f64 {
    const F32_EDGES: [f32; 14] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        1e-45,
        -8.4e-39,
        f32::MAX,
        f32::MIN,
        16_777_216.0,
        33_554_448.0,
        1_048_576.0 + 0.25,
        -1_048_576.0 - 0.75,
        0.1,
        512.0,
        -301.5,
    ];
    const F64_EDGES: [f64; 12] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        f64::MIN,
        1e15,
        999_999_999_999_999.0,
        9_007_199_254_740_992.0,
        562_949_953_421_312.0 + 0.25,
        34.0722,
        -118.4441,
    ];
    match (kind, mix.below(4)) {
        (ValueKind::I16, _) => mix.next() as i16 as f64,
        (ValueKind::F32, 0) => F32_EDGES[mix.below(14) as usize] as f64,
        (ValueKind::F32, 1) => (mix.below(200_000) as f32 / 100.0 - 1000.0) as f64,
        (ValueKind::F32, _) => loop {
            let x = f32::from_bits(mix.next() as u32);
            if x.is_finite() {
                break x as f64;
            }
        },
        (ValueKind::F64, 0) => F64_EDGES[mix.below(12) as usize],
        (ValueKind::F64, 1) => mix.below(2_000_000) as f64 / 1e4 - 100.0,
        (ValueKind::F64, _) => loop {
            let x = f64::from_bits(mix.next());
            if x.is_finite() {
                break x;
            }
        },
    }
}

/// A segment of random shape: 1–5 columns of mixed kinds, uniform or
/// per-sample timing, with or without a location, 0–40 rows.
fn arb_segment() -> impl Strategy<Value = WaveSegment> {
    any::<u64>().prop_map(|seed| {
        let mut mix = Mix(seed);
        let kinds: Vec<ValueKind> = (0..1 + mix.below(5))
            .map(|_| [ValueKind::F64, ValueKind::F32, ValueKind::I16][mix.below(3) as usize])
            .collect();
        let rows = mix.below(41) as usize;
        let timing = if mix.below(2) == 0 {
            Timing::Uniform {
                start: Timestamp::from_millis(mix.next() as i64 >> 16),
                interval_secs: (1 + mix.below(5_000_000)) as f64 / 1e6,
            }
        } else {
            let mut at = mix.next() as i64 >> 20;
            Timing::PerSample(
                (0..rows)
                    .map(|_| {
                        at += mix.below(5_000) as i64;
                        Timestamp::from_millis(at)
                    })
                    .collect(),
            )
        };
        let location = (mix.below(3) > 0).then(|| {
            GeoPoint::new(
                mix.below(1_800_000) as f64 / 1e4 - 90.0,
                mix.below(3_600_000) as f64 / 1e4 - 180.0,
            )
        });
        let format = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| ChannelSpec {
                channel: format!("ch{i}").as_str().into(),
                kind,
            })
            .collect();
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|_| kinds.iter().map(|&k| arb_cell(&mut mix, k)).collect())
            .collect();
        WaveSegment::from_rows(
            SegmentMeta {
                timing,
                location,
                format,
            },
            &data,
        )
        .unwrap()
    })
}

fn uniform_meta(start: i64, interval_ms: u16) -> SegmentMeta {
    SegmentMeta {
        timing: Timing::Uniform {
            start: Timestamp::from_millis(start),
            interval_secs: (interval_ms.max(1)) as f64 / 1_000.0,
        },
        location: Some(GeoPoint::ucla()),
        format: vec![ChannelSpec::f64("a"), ChannelSpec::f64("b")],
    }
}

proptest! {
    /// The streamed text is the wire form: a consumer that parses it and
    /// narrows each cell to its column's kind recovers the segment bit
    /// for bit — through the tree or reading the text straight into the
    /// blob — and the tree form serializes to the very same bytes.
    #[test]
    fn wave_stream_roundtrip_and_tree_equality(seg in arb_segment()) {
        let mut text = Vec::new();
        seg.write_json(&mut text);
        let text = String::from_utf8(text).unwrap();
        let back = WaveSegment::from_json(&sensorsafe_json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back, &seg);
        prop_assert_eq!(back.blob(), seg.blob());
        let mut reader = sensorsafe_json::Reader::new(&text);
        let read = WaveSegment::read_json(&mut reader).unwrap().unwrap();
        reader.finish().unwrap();
        prop_assert_eq!(&read, &seg);
        prop_assert_eq!(read.blob(), seg.blob());
        prop_assert_eq!(sensorsafe_json::to_string(&seg.to_json()), text);
    }

    /// Cell access through the column-offset table agrees with a walk of
    /// the format, whichever accessor is used, and a projection keeps the
    /// selected cells' bytes.
    #[test]
    fn wave_cell_accessors_agree(seg in arb_segment(), pick in any::<u64>()) {
        let format = &seg.meta().format;
        for r in 0..seg.len() {
            let row = seg.row(r);
            prop_assert_eq!(row.len(), format.len());
            for (c, v) in row.iter().enumerate() {
                prop_assert_eq!(v.to_bits(), seg.value(r, c).to_bits());
            }
        }
        for (c, spec) in format.iter().enumerate() {
            let column = seg.channel_values(&spec.channel).unwrap();
            prop_assert_eq!(column.len(), seg.len());
            for (r, v) in column.iter().enumerate() {
                prop_assert_eq!(v.to_bits(), seg.value(r, c).to_bits());
            }
        }
        let keep: Vec<usize> = (0..format.len()).filter(|c| pick >> c & 1 == 1).collect();
        let names: Vec<_> = keep.iter().map(|&c| format[c].channel.clone()).collect();
        match seg.select_channels(&names) {
            None => prop_assert!(keep.is_empty()),
            Some(projected) => {
                prop_assert_eq!(projected.len(), seg.len());
                prop_assert_eq!(projected.meta().format.len(), keep.len());
                for r in 0..seg.len() {
                    for (to, &from) in keep.iter().enumerate() {
                        prop_assert_eq!(
                            projected.value(r, to).to_bits(),
                            seg.value(r, from).to_bits()
                        );
                    }
                }
            }
        }
    }

    /// Fig. 5 JSON codec round-trips exactly for f64 columns.
    #[test]
    fn wave_json_roundtrip(
        rows in arb_rows(2),
        start in -1_000_000_000i64..2_000_000_000_000,
        interval in 1u16..2_000,
    ) {
        let seg = WaveSegment::from_rows(uniform_meta(start, interval), &rows).unwrap();
        let back = WaveSegment::from_json(&seg.to_json()).unwrap();
        prop_assert_eq!(back, seg);
    }

    /// Slicing never invents samples and preserves per-sample values.
    #[test]
    fn wave_slice_subset(
        rows in arb_rows(2),
        start in 0i64..1_000_000,
        interval in 1u16..500,
        w_start in -1_000_000i64..2_000_000,
        w_len in 0i64..2_000_000,
    ) {
        let seg = WaveSegment::from_rows(uniform_meta(start, interval), &rows).unwrap();
        let window = TimeRange::new(
            Timestamp::from_millis(w_start),
            Timestamp::from_millis(w_start + w_len),
        );
        if let Some(sliced) = seg.slice_time(&window) {
            prop_assert!(sliced.len() <= seg.len());
            prop_assert!(!sliced.is_empty());
            for i in 0..sliced.len() {
                let t = sliced.time_at(i);
                prop_assert!(window.contains(t), "sample at {t:?} outside {window:?}");
                // The value must exist at the same instant in the source.
                let src_idx = (0..seg.len()).find(|&j| seg.time_at(j) == t);
                prop_assert!(src_idx.is_some());
                prop_assert_eq!(sliced.row(i), seg.row(src_idx.unwrap()));
            }
        } else {
            // No sample of the original lies in the window.
            for j in 0..seg.len() {
                prop_assert!(!window.contains(seg.time_at(j)));
            }
        }
    }

    /// Merging two consecutive segments preserves every sample and instant.
    #[test]
    fn wave_merge_preserves_samples(
        rows_a in prop::collection::vec(prop::collection::vec(-1e3..1e3f64, 2..=2), 1..32),
        rows_b in prop::collection::vec(prop::collection::vec(-1e3..1e3f64, 2..=2), 1..32),
        interval in 1u16..200,
    ) {
        let a = WaveSegment::from_rows(uniform_meta(0, interval), &rows_a).unwrap();
        let b_start = interval as i64 * rows_a.len() as i64;
        let b = WaveSegment::from_rows(uniform_meta(b_start, interval), &rows_b).unwrap();
        prop_assert!(a.can_merge(&b));
        let merged = a.merge(&b);
        prop_assert_eq!(merged.len(), a.len() + b.len());
        for i in 0..a.len() {
            prop_assert_eq!(merged.row(i), a.row(i));
            prop_assert_eq!(merged.time_at(i), a.time_at(i));
        }
        for i in 0..b.len() {
            prop_assert_eq!(merged.row(a.len() + i), b.row(i));
        }
    }

    /// Channel projection keeps row count and per-channel values.
    #[test]
    fn wave_projection(rows in arb_rows(2)) {
        let seg = WaveSegment::from_rows(uniform_meta(0, 10), &rows).unwrap();
        let only_a = seg.select_channels(&["a".into()]);
        if rows.is_empty() {
            // Projection of an empty segment still succeeds with 0 rows.
            prop_assert_eq!(only_a.as_ref().map(|s| s.len()), Some(0));
        } else {
            let only_a = only_a.unwrap();
            prop_assert_eq!(only_a.len(), seg.len());
            for i in 0..seg.len() {
                prop_assert_eq!(only_a.value(i, 0), seg.value(i, 0));
            }
        }
    }

    /// Weekday/time-of-day math is consistent with adding whole days.
    #[test]
    fn weekday_advances_daily(ms in -2_000_000_000_000i64..2_000_000_000_000) {
        let t = Timestamp::from_millis(ms);
        let tomorrow = t.plus_millis(24 * 3600 * 1000);
        let today_idx = Weekday::ALL.iter().position(|d| *d == t.weekday()).unwrap();
        let tomorrow_idx = Weekday::ALL.iter().position(|d| *d == tomorrow.weekday()).unwrap();
        prop_assert_eq!((today_idx + 1) % 7, tomorrow_idx);
        prop_assert_eq!(t.time_of_day(), tomorrow.time_of_day());
    }

    /// A repeat-time window contains an instant iff the instant's civil
    /// time is inside the window on a listed day (non-wrapping windows).
    #[test]
    fn repeat_time_model(
        ms in 0i64..2_000_000_000_000,
        from_h in 0u8..23,
        len_min in 1u16..600,
        day_mask in 1u8..127,
    ) {
        let days: Vec<Weekday> = Weekday::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| day_mask & (1 << i) != 0)
            .map(|(_, d)| *d)
            .collect();
        let from = TimeOfDay::new(from_h, 0);
        let to_minutes = (from.minutes() + len_min).min(24 * 60 - 1);
        let to = TimeOfDay::new((to_minutes / 60) as u8, (to_minutes % 60) as u8);
        prop_assume!(to > from);
        let rule = RepeatTime::new(days.clone(), from, to);
        let t = Timestamp::from_millis(ms);
        let expected = days.contains(&t.weekday())
            && t.time_of_day().minutes() >= from.minutes()
            && t.time_of_day().minutes() < to.minutes();
        prop_assert_eq!(rule.contains(t), expected);
    }

    /// TimeRange intersection is commutative and contained in both.
    #[test]
    fn range_intersection_properties(
        a_start in -1000i64..1000, a_len in 0i64..1000,
        b_start in -1000i64..1000, b_len in 0i64..1000,
    ) {
        let a = TimeRange::new(Timestamp(a_start), Timestamp(a_start + a_len));
        let b = TimeRange::new(Timestamp(b_start), Timestamp(b_start + b_len));
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        prop_assert_eq!(ab, ba);
        if let Some(i) = ab {
            prop_assert!(i.start >= a.start && i.end <= a.end);
            prop_assert!(i.start >= b.start && i.end <= b.end);
            prop_assert!(!i.is_empty());
            prop_assert!(a.overlaps(&b));
        } else {
            prop_assert!(!a.overlaps(&b));
        }
    }
}

//! F5 — Fig. 5's wave-segment representation vs per-sample tuples.
//!
//! The paper: "Storing the time series of sensor data as individual
//! tuples is inefficient both in terms of storage size and querying
//! time." This bench loads identical chest-band workloads into the
//! [`TupleStore`] baseline and the wave-segment store, then measures
//! range-query latency; the companion `report` binary prints the
//! storage-size comparison.
//!
//! The `render` group times what a consumer's query reply costs to write:
//! a minute of Alice's day as the query API's text, and the `f32` number
//! writer alone over that minute's cells — once in the order the reply
//! writes them, once sorted by (digit count, point position). The writer
//! picks its digits and lays out the point without data-dependent
//! branches, so the two orders should time alike; a writer that branched
//! on the shape would run faster on the sorted cells, whose shapes a
//! branch predictor learns.
//!
//! The `decode` group times the inverse, on both data paths: a phone's
//! upload body (the first 100 segments of a simulated day plus its
//! annotations — one preload batch of the benchmark package's
//! `query_day`, ≈ 183 KB) and a consumer's query reply (the minute
//! above), each read straight from the text by the served readers
//! (`reader`) against a parsed tree decoded by the reference decoders
//! (`tree`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sensorsafe_bench::{
    alice_scenario, chest_packets, segment_store_with, tuple_store_with, DAY_START,
};
use sensorsafe_core::datastore::{
    annotation_to_json, read_shared_view_json, shared_view_from_json, write_shared_view_json,
    SharedView,
};
use sensorsafe_core::jsonlib::{parse, to_vec, write_array, write_f32, write_str, Reader};
use sensorsafe_core::policy::{SharedLocation, SharedSegment, TimeAbs};
use sensorsafe_core::sim::Scenario;
use sensorsafe_core::store::{MergePolicy, Query, TupleStore};
use sensorsafe_core::types::{TimeRange, Timestamp, ValueKind, WaveSegment};
use std::hint::black_box;

/// One hour of 50 Hz chest data = 2812 packets.
const PACKETS: usize = 2812;

fn mid_range_query() -> Query {
    // A 5-minute window in the middle of the hour.
    let start = DAY_START + 25 * 60 * 1000;
    Query::all().in_time(TimeRange::new(
        Timestamp::from_millis(start),
        Timestamp::from_millis(start + 5 * 60 * 1000),
    ))
}

fn bench_query_latency(c: &mut Criterion) {
    let packets = chest_packets(PACKETS);
    let tuple_store: TupleStore = tuple_store_with(&packets);
    let merged = segment_store_with(&packets, MergePolicy::default());
    let unmerged = segment_store_with(&packets, MergePolicy::disabled());
    let query = mid_range_query();
    let samples_hit = 5 * 60 * 50u64;
    let mut group = c.benchmark_group("f5_range_query_5min_of_1h");
    group.throughput(Throughput::Elements(samples_hit));
    group.bench_function("tuple_baseline", |b| {
        b.iter(|| black_box(tuple_store.query(black_box(&query)).len()))
    });
    group.bench_function("wave_segments_unmerged_64", |b| {
        b.iter(|| black_box(unmerged.query(black_box(&query)).len()))
    });
    group.bench_function("wave_segments_merged", |b| {
        b.iter(|| black_box(merged.query(black_box(&query)).len()))
    });
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let packets = chest_packets(256);
    let mut group = c.benchmark_group("f5_ingest_256_packets");
    group.sample_size(20);
    group.throughput(Throughput::Elements(256 * 64));
    group.bench_function("tuple_baseline", |b| {
        b.iter(|| black_box(tuple_store_with(&packets).len()))
    });
    group.bench_function("wave_segments_merged", |b| {
        b.iter(|| {
            black_box(
                segment_store_with(&packets, MergePolicy::default())
                    .stats()
                    .segments,
            )
        })
    });
    group.finish();
}

fn bench_segment_size_sweep(c: &mut Criterion) {
    // Query latency as a function of samples-per-segment (the paper's
    // "large enough number of samples" argument).
    let packets = chest_packets(PACKETS);
    let query = mid_range_query();
    let mut group = c.benchmark_group("f5_samples_per_segment_sweep");
    for cap in [64usize, 256, 1024, 4096, 16384] {
        let store = segment_store_with(
            &packets,
            MergePolicy {
                enabled: cap > 64,
                max_rows: cap,
            },
        );
        group.bench_with_input(BenchmarkId::from_parameter(cap), &store, |b, store| {
            b.iter(|| black_box(store.query(black_box(&query)).len()))
        });
    }
    group.finish();
}

/// A minute of Alice's day (from 30 s in: the end of breakfast and the
/// start of the drive) as an allow-all consumer receives it.
fn alice_minute() -> SharedView {
    let start = Timestamp::from_millis(DAY_START + 30_000);
    let minute = TimeRange::new(start, start.plus_millis(60_000));
    let windows = alice_scenario(7)
        .render()
        .all_segments()
        .iter()
        .filter_map(|segment| segment.slice_time(&minute))
        .map(|segment| SharedSegment {
            segment: Some(segment),
            labels: Vec::new(),
            location: SharedLocation::None,
            time_level: TimeAbs::Milliseconds,
        })
        .collect();
    SharedView { windows }
}

/// The view's `f32` cells in the order the reply writes them.
fn f32_cells(view: &SharedView) -> Vec<f32> {
    let mut cells = Vec::new();
    for segment in view.windows.iter().filter_map(|w| w.segment.as_ref()) {
        let columns: Vec<usize> = (0..segment.meta().format.len())
            .filter(|&c| segment.meta().format[c].kind == ValueKind::F32)
            .collect();
        for row in 0..segment.len() {
            cells.extend(columns.iter().map(|&c| segment.value(row, c) as f32));
        }
    }
    cells
}

/// (digits printed, digits before the point) of `x`'s text.
fn text_shape(x: f32) -> (usize, usize) {
    let mut text = Vec::new();
    write_f32(&mut text, x);
    let digits = text.iter().filter(|b| b.is_ascii_digit()).count();
    let point = text.iter().position(|&b| b == b'.').unwrap_or(text.len());
    (digits, point)
}

fn bench_render(c: &mut Criterion) {
    let view = alice_minute();
    let mut body = Vec::new();
    write_shared_view_json(&view, &mut body);
    let cells = f32_cells(&view);
    let mut sorted = cells.clone();
    sorted.sort_by_key(|&x| text_shape(x));
    let mut group = c.benchmark_group("render");
    group.throughput(Throughput::Bytes(body.len() as u64));
    group.bench_function("shared_view_alice_minute", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            write_shared_view_json(black_box(&view), &mut out);
            black_box(out.len())
        })
    });
    group.throughput(Throughput::Elements(cells.len() as u64));
    for (name, cells) in [
        ("write_f32_reply_order", &cells),
        ("write_f32_sorted_by_shape", &sorted),
    ] {
        let mut out = Vec::with_capacity(16 * cells.len());
        group.bench_function(name, |b| {
            b.iter(|| {
                out.clear();
                for &x in black_box(cells.as_slice()) {
                    write_f32(&mut out, x);
                }
                black_box(out.len())
            })
        });
    }
    group.finish();
}

/// The first preload batch of one `query_day` contributor: 100 segments
/// of a simulated day at the package's scale, with the day's annotations.
fn preload_batch() -> Vec<u8> {
    let rendered = Scenario::alice_day(Timestamp::from_millis(DAY_START), 101, 2).render();
    let mut body = b"{\"key\":".to_vec();
    write_str(&mut body, &"ab".repeat(32));
    body.extend_from_slice(b",\"segments\":");
    write_array(
        &mut body,
        &rendered.all_segments()[..100],
        |out, segment| segment.write_json(out),
    );
    body.extend_from_slice(b",\"annotations\":");
    write_array(&mut body, &rendered.annotations, |out, annotation| {
        out.extend_from_slice(&to_vec(&annotation_to_json(annotation)))
    });
    body.push(b'}');
    body
}

/// What the upload route keeps of a body read straight from its text:
/// the segments, and the annotations as a tree.
fn read_upload(text: &str) -> (Vec<WaveSegment>, usize) {
    let mut reader = Reader::new(text);
    let (mut segments, mut annotations) = (Vec::new(), 0);
    reader.begin_object().expect("object");
    while let Some(key) = reader.next_key().expect("key") {
        match &*key {
            "segments" => {
                segments = reader
                    .array_of(WaveSegment::read_json)
                    .expect("json")
                    .expect("array")
                    .expect("segments");
            }
            "annotations" => {
                annotations = reader
                    .value()
                    .expect("json")
                    .as_array()
                    .map_or(0, <[_]>::len)
            }
            _ => reader.skip().expect("json"),
        }
    }
    reader.finish().expect("one document");
    (segments, annotations)
}

/// The same through a parsed tree and [`WaveSegment::from_json`].
fn tree_upload(text: &str) -> (Vec<WaveSegment>, usize) {
    let tree = parse(text).expect("json");
    let segments = tree["segments"]
        .as_array()
        .expect("array")
        .iter()
        .map(|s| WaveSegment::from_json(s).expect("segment"))
        .collect();
    (
        segments,
        tree["annotations"].as_array().map_or(0, <[_]>::len),
    )
}

fn bench_decode(c: &mut Criterion) {
    let batch = preload_batch();
    let batch = std::str::from_utf8(&batch).expect("utf-8");
    assert_eq!(read_upload(batch), tree_upload(batch));
    let mut reply = Vec::new();
    write_shared_view_json(&alice_minute(), &mut reply);
    let reply_tree = || {
        shared_view_from_json(&parse(std::str::from_utf8(&reply).expect("utf-8")).expect("json"))
    };
    assert_eq!(read_shared_view_json(&reply), reply_tree());
    let mut group = c.benchmark_group("decode");
    group.sample_size(30);
    group.throughput(Throughput::Bytes(batch.len() as u64));
    group.bench_function("upload_batch_reader", |b| {
        b.iter(|| black_box(read_upload(black_box(batch))))
    });
    group.bench_function("upload_batch_tree", |b| {
        b.iter(|| black_box(tree_upload(black_box(batch))))
    });
    group.throughput(Throughput::Bytes(reply.len() as u64));
    group.bench_function("query_reply_reader", |b| {
        b.iter(|| black_box(read_shared_view_json(black_box(&reply)).expect("view")))
    });
    group.bench_function("query_reply_tree", |b| {
        b.iter(|| black_box(reply_tree().expect("view")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_query_latency,
    bench_ingest,
    bench_segment_size_sweep,
    bench_render,
    bench_decode
);
criterion_main!(benches);

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

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sensorsafe_bench::{
    alice_scenario, chest_packets, segment_store_with, tuple_store_with, DAY_START,
};
use sensorsafe_core::datastore::{write_shared_view_json, SharedView};
use sensorsafe_core::jsonlib::write_f32;
use sensorsafe_core::policy::{SharedLocation, SharedSegment, TimeAbs};
use sensorsafe_core::store::{MergePolicy, Query, TupleStore};
use sensorsafe_core::types::{TimeRange, Timestamp, ValueKind};
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

criterion_group!(
    benches,
    bench_query_latency,
    bench_ingest,
    bench_segment_size_sweep,
    bench_render
);
criterion_main!(benches);

//! A2 — §5.2 contributor search scaling.
//!
//! The paper's example query — "finding data contributors who share ECG
//! and respiration sensor data at the location labeled 'work' from 9am
//! to 6pm on weekdays" — run against rule mirrors of growing size, at
//! both ends of what the search's cost depends on: a population that
//! mirrors four rule lists between them (`shared`: a search evaluates
//! four lists however many contributors there are) and one where every
//! contributor's list is their own (`unshared`: one evaluation each).
//! Each population is measured twice: `search()`, which materialises a
//! `Vec<ContributorId>` no server path builds, and `walk_and_render`,
//! what the broker serves — the visitor appends each run of consecutive
//! hits, pre-rendered, to a reply body. Since a run is one copy however
//! long it is, `a2_walk_and_render_by_hit_density` varies how the hits
//! among 10 000 contributors fall: all of them (one run), three in four
//! (runs of three), alternating and one in a hundred (runs of one).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sensorsafe_bench::{synthetic_rules, synthetic_rules_unshared, walk_and_render};
use sensorsafe_core::policy::PrivacyRule;
use sensorsafe_core::policy::{ConsumerCtx, RuleIndex, SearchQuery};
use sensorsafe_core::types::{ContextKind, ContributorId, RepeatTime};
use std::hint::black_box;

fn paper_query() -> SearchQuery {
    SearchQuery {
        consumer: ConsumerCtx::user("bob"),
        raw_channels: vec!["ecg".into(), "respiration".into()],
        location_labels: vec!["work".into()],
        repeat: Some(RepeatTime::weekdays_nine_to_six()),
        ..Default::default()
    }
}

fn driving_stress_query() -> SearchQuery {
    SearchQuery {
        consumer: ConsumerCtx::user("bob"),
        raw_channels: vec!["ecg".into(), "respiration".into()],
        active_contexts: vec![ContextKind::Drive],
        ..Default::default()
    }
}

/// Contributor index → that contributor's rule list.
type RulesOf = fn(usize) -> Vec<PrivacyRule>;

fn index_of(contributors: usize, rules_of: impl Fn(usize) -> Vec<PrivacyRule>) -> RuleIndex {
    let mut index = RuleIndex::new();
    for i in 0..contributors {
        index.sync(
            ContributorId::new(format!("contributor-{i:05}")),
            1,
            rules_of(i),
        );
    }
    index
}

fn index_with(contributors: usize, rules_each: usize) -> RuleIndex {
    index_of(contributors, |i| synthetic_rules(i, rules_each))
}

fn bench_search_scaling(c: &mut Criterion) {
    let populations: [(&str, RulesOf); 2] = [
        ("shared", |i| synthetic_rules(i, 4)),
        ("unshared", |i| synthetic_rules_unshared(i, 4)),
    ];
    for (population, rules_of) in populations {
        let mut group = c.benchmark_group(format!("a2_search_vs_contributors_{population}"));
        for n in [10usize, 100, 1_000, 10_000] {
            let index = index_of(n, rules_of);
            let query = paper_query();
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::from_parameter(n), &index, |b, index| {
                b.iter(|| black_box(index.search(black_box(&query)).len()))
            });
            group.bench_with_input(
                BenchmarkId::new("walk_and_render", n),
                &index,
                |b, index| b.iter(|| black_box(walk_and_render(index, black_box(&query)).len())),
            );
        }
        group.finish();
    }
}

/// Contributor index → whether that contributor is a hit.
type HitsAt = fn(usize) -> bool;

fn bench_walk_by_hit_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_walk_and_render_by_hit_density");
    let densities: [(&str, HitsAt); 4] = [
        ("all", |_| true),
        ("three_in_four", |i| i % 4 != 3),
        ("alternating", |i| i % 2 == 0),
        ("one_in_100", |i| i % 100 == 0),
    ];
    for (density, hits) in densities {
        let index = index_of(10_000, |i| {
            if hits(i) {
                vec![PrivacyRule::allow_all()]
            } else {
                vec![]
            }
        });
        let query = paper_query();
        group.throughput(Throughput::Elements(10_000));
        group.bench_with_input(BenchmarkId::from_parameter(density), &index, |b, index| {
            b.iter(|| black_box(walk_and_render(index, black_box(&query)).len()))
        });
    }
    group.finish();
}

fn bench_search_vs_rules_per_contributor(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_search_vs_rules_per_contributor");
    for rules_each in [1usize, 4, 16, 32] {
        let index = index_with(500, rules_each);
        let query = driving_stress_query();
        group.bench_with_input(
            BenchmarkId::from_parameter(rules_each),
            &index,
            |b, index| b.iter(|| black_box(index.search(black_box(&query)).len())),
        );
    }
    group.finish();
}

fn bench_sync_throughput(c: &mut Criterion) {
    // The push-sync write path: how fast can the mirror absorb rule
    // updates?
    c.bench_function("a2_sync_one_update_into_1000", |b| {
        let mut index = index_with(1_000, 4);
        let mut epoch = 2u64;
        b.iter(|| {
            epoch += 1;
            black_box(index.sync(
                ContributorId::new("contributor-00500"),
                epoch,
                synthetic_rules(7, 4),
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_search_scaling,
    bench_walk_by_hit_density,
    bench_search_vs_rules_per_contributor,
    bench_sync_throughput
);
criterion_main!(benches);

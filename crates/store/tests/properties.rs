//! Property-based tests for the storage engine: the wave-segment store,
//! the per-tuple baseline, and the journal must all agree.

use proptest::prelude::*;
use sensorsafe_store::{
    decode_annotation, decode_segment, encode_annotation, encode_segment, JournalConfig,
    MergePolicy, Query, SegmentStore, StoreJournal, TupleStore, WalRecord,
};
use sensorsafe_types::{
    ChannelSpec, ContextAnnotation, ContextKind, ContextState, GeoPoint, SegmentMeta, TimeRange,
    Timestamp, Timing, WaveSegment,
};
use std::path::Path;
use std::sync::Arc;

/// Opens (or reopens) the journal in `dir` and the store of its one
/// account, replaying whatever the journal recovered for it.
fn open_durable(dir: &Path) -> SegmentStore {
    let journal = Arc::new(StoreJournal::open(dir, JournalConfig::default()).unwrap());
    let recovered = journal
        .take_account("alice")
        .map(|r| r.records)
        .unwrap_or_default();
    SegmentStore::open_journal(journal, "alice", MergePolicy::default(), recovered)
}

/// A workload: a list of (gap_ms_before, rows) packet descriptors.
fn arb_workload() -> impl Strategy<Value = Vec<(u16, u8)>> {
    prop::collection::vec((0u16..2_000, 1u8..65), 1..40)
}

fn build_packets(workload: &[(u16, u8)]) -> Vec<WaveSegment> {
    let mut packets = Vec::with_capacity(workload.len());
    let mut cursor = 1_000_000i64;
    for (i, (gap, rows)) in workload.iter().enumerate() {
        cursor += *gap as i64;
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp::from_millis(cursor),
                interval_secs: 0.02,
            },
            location: Some(GeoPoint::ucla()),
            format: vec![ChannelSpec::f32("ecg"), ChannelSpec::f32("respiration")],
        };
        let data: Vec<Vec<f64>> = (0..*rows as usize)
            .map(|r| vec![(i * 64 + r) as f64, 300.0])
            .collect();
        packets.push(WaveSegment::from_rows(meta, &data).unwrap());
        cursor += *rows as i64 * 20;
    }
    packets
}

fn arb_query_range() -> impl Strategy<Value = TimeRange> {
    (900_000i64..1_200_000, 0i64..200_000).prop_map(|(start, len)| {
        TimeRange::new(
            Timestamp::from_millis(start),
            Timestamp::from_millis(start + len),
        )
    })
}

proptest! {
    /// For any workload and range query, the merged segment store, the
    /// unmerged one, and the tuple baseline return the same sample
    /// multiset size.
    #[test]
    fn query_sample_counts_agree(workload in arb_workload(), range in arb_query_range()) {
        let packets = build_packets(&workload);
        let mut merged = SegmentStore::in_memory(MergePolicy::default());
        let mut unmerged = SegmentStore::in_memory(MergePolicy::disabled());
        let mut tuples = TupleStore::new();
        for p in &packets {
            merged.insert_segment(p.clone()).unwrap();
            unmerged.insert_segment(p.clone()).unwrap();
            tuples.insert_segment(p);
        }
        let q = Query::all().in_time(range);
        let merged_count: usize = merged.query(&q).iter().map(WaveSegment::len).sum();
        let unmerged_count: usize = unmerged.query(&q).iter().map(WaveSegment::len).sum();
        let tuple_count = tuples.query(&q).len();
        prop_assert_eq!(merged_count, tuple_count, "merged vs tuples");
        prop_assert_eq!(unmerged_count, tuple_count, "unmerged vs tuples");
        // Reference model: count packet samples inside the range.
        let expected: usize = packets
            .iter()
            .map(|p| (0..p.len()).filter(|&i| range.contains(p.time_at(i))).count())
            .sum();
        prop_assert_eq!(tuple_count, expected, "tuples vs reference");
    }

    /// Merging never loses or duplicates samples, regardless of gaps.
    #[test]
    fn merge_preserves_totals(workload in arb_workload()) {
        let packets = build_packets(&workload);
        let total: usize = packets.iter().map(WaveSegment::len).sum();
        let store = SegmentStore::in_memory(MergePolicy::default());
        let mut store = store;
        for p in &packets {
            store.insert_segment(p.clone()).unwrap();
        }
        let stats = store.stats();
        prop_assert_eq!(stats.samples, total);
        prop_assert!(stats.segments <= packets.len());
        // Everything is still retrievable.
        let all: usize = store.query(&Query::all()).iter().map(WaveSegment::len).sum();
        prop_assert_eq!(all, total);
    }

    /// Binary segment codec round-trips arbitrary workload packets.
    #[test]
    fn segment_codec_roundtrip(workload in arb_workload()) {
        for packet in build_packets(&workload) {
            let back = decode_segment(&encode_segment(&packet)).unwrap();
            prop_assert_eq!(back, packet);
        }
    }

    /// Annotation codec round-trips arbitrary state sets.
    #[test]
    fn annotation_codec_roundtrip(
        start in 0i64..1_000_000_000,
        len in 1i64..1_000_000,
        states in prop::collection::vec(
            (prop::sample::select(ContextKind::ALL.to_vec()), any::<bool>()),
            0..9,
        ),
    ) {
        let ann = ContextAnnotation::new(
            TimeRange::new(Timestamp::from_millis(start), Timestamp::from_millis(start + len)),
            states
                .into_iter()
                .map(|(kind, active)| ContextState { kind, active })
                .collect(),
        );
        let back = decode_annotation(&encode_annotation(&ann)).unwrap();
        prop_assert_eq!(back, ann);
    }

    /// A store replayed from its journal answers every query identically.
    #[test]
    fn wal_replay_equivalence(workload in arb_workload(), range in arb_query_range()) {
        let dir = std::env::temp_dir().join(format!(
            "sensorsafe-proptest-{}-{}",
            std::process::id(),
            rand_suffix(&workload),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let packets = build_packets(&workload);
        let q = Query::all().in_time(range);
        let live_result = {
            let mut store = open_durable(&dir);
            for p in &packets {
                store.insert_segment(p.clone()).unwrap();
            }
            store.sync().unwrap();
            store.query(&q)
        };
        let reopened = open_durable(&dir);
        prop_assert_eq!(reopened.query(&q), live_result);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Deterministic per-case suffix so parallel proptest cases don't share
/// journal directories.
fn rand_suffix(workload: &[(u16, u8)]) -> u64 {
    let mut h = 1469598103934665603u64;
    for (a, b) in workload {
        h = (h ^ (*a as u64)).wrapping_mul(1099511628211);
        h = (h ^ (*b as u64)).wrapping_mul(1099511628211);
    }
    h
}

#[test]
fn wal_truncation_fuzz() {
    // Cutting a journal segment at every byte offset must yield a clean
    // prefix replay, never a panic or misparse.
    let dir = std::env::temp_dir().join(format!("sensorsafe-trunc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let records: Vec<WalRecord> = build_packets(&[(0, 16), (5, 16), (100, 16)])
        .into_iter()
        .map(WalRecord::Segment)
        .collect();
    {
        let journal = StoreJournal::open(&dir, JournalConfig::default()).unwrap();
        for r in &records {
            journal.stage("alice", r).unwrap();
        }
        journal.flush().unwrap();
    }
    let full = std::fs::read(dir.join("journal.seg-1")).unwrap();
    let cut_dir = dir.join("cut");
    for cut in 0..full.len() {
        let _ = std::fs::remove_dir_all(&cut_dir);
        std::fs::create_dir_all(&cut_dir).unwrap();
        let cut_path = cut_dir.join("journal.seg-1");
        std::fs::write(&cut_path, &full[..cut]).unwrap();
        let journal = StoreJournal::open(&cut_dir, JournalConfig::default()).unwrap();
        let replayed = journal
            .take_account("alice")
            .map(|r| r.records)
            .unwrap_or_default();
        drop(journal);
        // Reopening truncated the segment to the valid prefix it found.
        assert!(std::fs::metadata(&cut_path).unwrap().len() as usize <= cut);
        // Replayed prefix must equal the original records' prefix.
        assert!(replayed.len() <= records.len());
        assert_eq!(replayed[..], records[..replayed.len()]);
    }
    // The uncut segment replays whole.
    let journal = StoreJournal::open(&dir, JournalConfig::default()).unwrap();
    assert_eq!(journal.take_account("alice").unwrap().records, records);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

//! Crash-replay property tests for the store-wide journal.
//!
//! The durability contract: once a flush (or ticket wait) covering a
//! record returns — the upload is *acked* — that record survives any
//! crash. A crash can tear whatever came after the last completed
//! commit, and it can land across a **segment rotation boundary**,
//! before or after a **checkpoint**, with segment **GC** having already
//! deleted files the checkpoint covers. These tests pin that in every
//! such interleaving, replay recovers each account's acked records
//! exactly once, in order, never invents or duplicates a record, and
//! never panics or misparses a torn or garbage tail.
//!
//! Simulated kill: the journal directory is copied and the **active**
//! (highest-numbered) segment is torn at an arbitrary byte no earlier
//! than its frames' length at the last ack, in one of two shapes: cut
//! there, or kept at its length with every byte after the tear zeroed —
//! what a crash leaves in a segment whose frames run into the zero
//! extent written ahead of them. Sealed segments are complete by
//! construction (rotation happens only after the filling batch's
//! `write`+`fsync`, and trims the extent), so only the tail can tear —
//! exactly the power-cut shape. The acked floor is the journal's own
//! count of durable frame bytes ([`JournalStats::active_bytes`]): the
//! live file's length includes its zero extent.

use proptest::prelude::*;
use sensorsafe_store::{
    CheckpointAccount, JournalConfig, JournalStats, MergePolicy, SegmentStore, StoreJournal,
    WalRecord,
};
use sensorsafe_types::{
    ChannelSpec, ContextAnnotation, ContextKind, ContextState, SegmentMeta, TimeRange, Timestamp,
    Timing, WaveSegment,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ACCOUNTS: [&str; 3] = ["alice", "bob", "carol"];

fn record(i: usize, rows: usize, annotation: bool) -> WalRecord {
    let start = 1_000_000 + (i as i64) * 10_000;
    if annotation {
        WalRecord::Annotation(ContextAnnotation::new(
            TimeRange::new(
                Timestamp::from_millis(start),
                Timestamp::from_millis(start + 5_000),
            ),
            vec![ContextState::on(ContextKind::Walk)],
        ))
    } else {
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp::from_millis(start),
                interval_secs: 0.02,
            },
            location: None,
            format: vec![ChannelSpec::f32("ecg")],
        };
        let data: Vec<Vec<f64>> = (0..rows.max(1))
            .map(|r| vec![(i * 100 + r) as f64])
            .collect();
        WalRecord::Segment(WaveSegment::from_rows(meta, &data).unwrap())
    }
}

fn quick_config(rotate_records: u64) -> JournalConfig {
    JournalConfig {
        rotate_bytes: u64::MAX,
        rotate_records,
    }
}

/// Deterministic per-case suffix so parallel proptest cases don't share
/// journal directories.
fn case_suffix(seed: &[u64]) -> u64 {
    let mut h = 1469598103934665603u64;
    for v in seed {
        h = (h ^ v).wrapping_mul(1099511628211);
    }
    h
}

/// Segment files in `dir`, `(number, path)`, ascending.
fn seg_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = name.strip_prefix("journal.seg-") {
            if let Ok(n) = n.parse::<u64>() {
                out.push((n, entry.path()));
            }
        }
    }
    out.sort_unstable();
    out
}

/// How a crash tears the active segment at the tear point.
#[derive(Debug, Clone, Copy)]
enum Tear {
    /// The file ends there.
    Cut,
    /// The file keeps its length; every byte after the tear is zero.
    Zeroed,
}

/// `(active segment, its durable frame bytes)`: where the last ack left
/// the log.
fn acked_point(journal: &StoreJournal) -> (u64, u64) {
    let JournalStats {
        active_segment,
        active_bytes,
        ..
    } = journal.stats();
    (active_segment, active_bytes)
}

/// Copies the journal's on-disk state to `crash_dir`, tearing the
/// active (highest) segment at byte `cut` — the crash image.
fn crash_copy(dir: &Path, crash_dir: &Path, cut: usize, tear: Tear) {
    let _ = std::fs::remove_dir_all(crash_dir);
    std::fs::create_dir_all(crash_dir).unwrap();
    let ckpt = dir.join("journal.ckpt");
    if ckpt.exists() {
        std::fs::copy(&ckpt, crash_dir.join("journal.ckpt")).unwrap();
    }
    let segs = seg_files(dir);
    let last = segs.last().map(|&(n, _)| n);
    for (n, path) in &segs {
        let mut bytes = std::fs::read(path).unwrap();
        if Some(*n) == last {
            let cut = cut.min(bytes.len());
            match tear {
                Tear::Cut => bytes.truncate(cut),
                Tear::Zeroed => bytes[cut..].fill(0),
            }
        }
        std::fs::write(crash_dir.join(format!("journal.seg-{n}")), bytes).unwrap();
    }
}

/// Asserts the per-account recovery contract against a reopened
/// journal: everything acked survives, recovered records are an exact
/// prefix of what was staged (order preserved, nothing invented,
/// nothing duplicated).
fn assert_recovery(
    journal: &StoreJournal,
    staged: &BTreeMap<String, Vec<WalRecord>>,
    acked: &BTreeMap<String, usize>,
) -> Result<(), proptest::test_runner::CaseError> {
    for (name, want) in staged {
        let recovered = journal
            .take_account(name)
            .map(|r| r.records)
            .unwrap_or_default();
        let acked_n = acked.get(name).copied().unwrap_or(0);
        prop_assert!(
            recovered.len() >= acked_n,
            "{name}: lost acked records — recovered {} < acked {acked_n}",
            recovered.len(),
        );
        prop_assert!(
            recovered.len() <= want.len(),
            "{name}: invented/duplicated records — recovered {} > staged {}",
            recovered.len(),
            want.len(),
        );
        for (got, expected) in recovered.iter().zip(want) {
            prop_assert_eq!(got, expected, "{}: replay diverged from staged order", name);
        }
    }
    Ok(())
}

proptest! {
    /// Kill at an arbitrary byte of the active segment, with rotations
    /// interleaved between acks (no checkpoints: every segment must
    /// replay): each account's acked prefix survives, nothing tears
    /// across the rotation boundary.
    #[test]
    fn acked_prefix_survives_any_crash_point_across_rotation(
        // Each batch: (account, records, rows per segment, annotation?);
        // flushed (acked) before the next batch, except the last, which
        // is the in-flight batch the crash tears.
        batches in prop::collection::vec((0usize..3, 1u8..5, 1u8..8, any::<bool>()), 2..8),
        rotate in 2u64..5,
        cut_frac in 0u16..=1000,
        zeroed in any::<bool>(),
    ) {
        let seed: Vec<u64> = batches
            .iter()
            .flat_map(|&(a, n, r, ann)| [a as u64, n as u64, r as u64, ann as u64])
            .chain([rotate, cut_frac as u64, zeroed as u64])
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "sensorsafe-jcrash-{}-{}",
            std::process::id(),
            case_suffix(&seed),
        ));
        let crash_dir = dir.with_extension("crashed");
        let _ = std::fs::remove_dir_all(&dir);

        let mut staged: BTreeMap<String, Vec<WalRecord>> = BTreeMap::new();
        let mut acked: BTreeMap<String, usize> = BTreeMap::new();
        // Length of the active segment at the last ack (and which
        // segment that was): the crash may cut anything after it.
        let mut acked_seg: (u64, u64) = (1, 0);
        {
            let journal = StoreJournal::open(&dir, quick_config(rotate)).unwrap();
            let last = batches.len() - 1;
            let mut i = 0usize;
            for (b, &(acct, n, rows, ann)) in batches.iter().enumerate() {
                let name = ACCOUNTS[acct];
                for _ in 0..n as usize {
                    let r = record(i * 31, rows as usize, ann);
                    i += 1;
                    journal.stage(name, &r).unwrap();
                    staged.entry(name.to_string()).or_default().push(r);
                }
                if b < last {
                    journal.flush().unwrap();
                    for (k, v) in &staged {
                        acked.insert(k.clone(), v.len());
                    }
                    acked_seg = acked_point(&journal);
                }
            }
            // Force the torn batch's bytes out, then shut down cleanly —
            // the cut below, not shutdown order, decides what survived.
            journal.flush().unwrap();
        }

        let segs = seg_files(&dir);
        let &(last_no, ref last_path) = segs.last().unwrap();
        let full = std::fs::metadata(last_path).unwrap().len() as usize;
        // If rotation moved past the segment the last ack landed in,
        // the whole final segment is fair game for the tear.
        let floor = if last_no == acked_seg.0 { acked_seg.1 as usize } else { 0 };
        prop_assert!(floor <= full);
        let cut = floor + ((full - floor) * cut_frac as usize) / 1000;
        let tear = if zeroed { Tear::Zeroed } else { Tear::Cut };
        crash_copy(&dir, &crash_dir, cut, tear);

        let journal = StoreJournal::open(&crash_dir, quick_config(rotate)).unwrap();
        assert_recovery(&journal, &staged, &acked)?;
        // The reopened journal accepts and commits new appends.
        journal.stage("alice", &record(999_983, 2, false)).unwrap();
        journal.flush().unwrap();
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }

    /// Same kill, but with checkpoints (and checkpoint-driven GC)
    /// active: replay = checkpoint + tail segments, and the dedup by
    /// per-account sequence must hand back every acked record **exactly
    /// once** even when the checkpoint and surviving segments overlap.
    #[test]
    fn checkpointed_replay_recovers_acked_exactly_once(
        batches in prop::collection::vec((0usize..2, 1u8..4, 1u8..6, any::<bool>()), 3..8),
        cut_frac in 0u16..=1000,
        zeroed in any::<bool>(),
    ) {
        let seed: Vec<u64> = batches
            .iter()
            .flat_map(|&(a, n, r, ann)| [a as u64, n as u64, r as u64, ann as u64])
            .chain([7, cut_frac as u64, zeroed as u64])
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "sensorsafe-jckpt-{}-{}",
            std::process::id(),
            case_suffix(&seed),
        ));
        let crash_dir = dir.with_extension("crashed");
        let _ = std::fs::remove_dir_all(&dir);

        // Honest checkpoint source, mimicking the datastore's protocol:
        // stage and update the snapshot under one lock (the "account
        // lock"), recording the journal's per-account sequence at that
        // instant as `high_seq`.
        type Shared = Arc<Mutex<BTreeMap<String, (Vec<WalRecord>, u64)>>>;
        let shared: Shared = Arc::new(Mutex::new(BTreeMap::new()));

        let mut staged: BTreeMap<String, Vec<WalRecord>> = BTreeMap::new();
        let mut acked: BTreeMap<String, usize> = BTreeMap::new();
        let mut acked_seg: (u64, u64) = (1, 0);
        {
            let journal = StoreJournal::open(&dir, quick_config(2)).unwrap();
            let source = shared.clone();
            journal.register_checkpoint_source(Box::new(move || {
                source
                    .lock()
                    .unwrap()
                    .iter()
                    .map(|(name, (records, high_seq))| CheckpointAccount {
                        name: name.clone(),
                        records: records.clone(),
                        high_seq: *high_seq,
                        rule_epoch: 0,
                        repl_head: 0,
                    })
                    .collect()
            }));
            let last = batches.len() - 1;
            let mut i = 0usize;
            for (b, &(acct, n, rows, ann)) in batches.iter().enumerate() {
                let name = ACCOUNTS[acct];
                for _ in 0..n as usize {
                    let r = record(i * 31, rows as usize, ann);
                    i += 1;
                    let mut s = shared.lock().unwrap();
                    journal.stage(name, &r).unwrap();
                    let entry = s.entry(name.to_string()).or_default();
                    entry.0.push(r.clone());
                    entry.1 = journal.account_seq(name);
                    drop(s);
                    staged.entry(name.to_string()).or_default().push(r);
                }
                if b < last {
                    journal.flush().unwrap();
                    for (k, v) in &staged {
                        acked.insert(k.clone(), v.len());
                    }
                    acked_seg = acked_point(&journal);
                }
            }
            journal.flush().unwrap();
            // Drive at least one checkpoint (rotation happens in the
            // commit thread, so poll rather than assert a single call).
            let deadline = Instant::now() + Duration::from_secs(10);
            while journal.stats().checkpointed_through == 0 {
                let _ = journal.checkpoint_now().unwrap();
                prop_assert!(
                    Instant::now() < deadline,
                    "no checkpoint within deadline: {:?}",
                    journal.stats()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // No GC gate is registered, so checkpoint_now's GC pass has
            // already deleted covered segments — replay below must work
            // from the checkpoint + surviving tail alone.
        }

        let segs = seg_files(&dir);
        let &(last_no, ref last_path) = segs.last().unwrap();
        let full = std::fs::metadata(last_path).unwrap().len() as usize;
        let floor = if last_no == acked_seg.0 { (acked_seg.1 as usize).min(full) } else { 0 };
        let cut = floor + ((full - floor) * cut_frac as usize) / 1000;
        let tear = if zeroed { Tear::Zeroed } else { Tear::Cut };
        crash_copy(&dir, &crash_dir, cut, tear);

        let journal = StoreJournal::open(&crash_dir, quick_config(2)).unwrap();
        assert_recovery(&journal, &staged, &acked)?;
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }

    /// Same kill, after the rotation rule has left several sealed
    /// segments uncovered: a large first checkpoint (the preload) makes
    /// every later segment lighter than it, so the rotations after it
    /// seal segments no checkpoint covers, and recovery must replay all
    /// of them, not only the newest.
    #[test]
    fn crash_with_several_uncovered_segments_recovers_acked_prefix(
        batches in prop::collection::vec((0usize..3, 2u8..5, 1u8..8, any::<bool>()), 4..9),
        cut_frac in 0u16..=1000,
        zeroed in any::<bool>(),
    ) {
        let seed: Vec<u64> = batches
            .iter()
            .flat_map(|&(a, n, r, ann)| [a as u64, n as u64, r as u64, ann as u64])
            .chain([11, cut_frac as u64, zeroed as u64])
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "sensorsafe-juncov-{}-{}",
            std::process::id(),
            case_suffix(&seed),
        ));
        let crash_dir = dir.with_extension("crashed");
        let _ = std::fs::remove_dir_all(&dir);

        type Shared = Arc<Mutex<BTreeMap<String, (Vec<WalRecord>, u64)>>>;
        let shared: Shared = Arc::new(Mutex::new(BTreeMap::new()));
        let mut staged: BTreeMap<String, Vec<WalRecord>> = BTreeMap::new();
        let mut acked: BTreeMap<String, usize> = BTreeMap::new();
        let mut acked_seg: (u64, u64) = (1, 0);
        let stage = |journal: &StoreJournal,
                     staged: &mut BTreeMap<String, Vec<WalRecord>>,
                     name: &str,
                     r: WalRecord| {
            let mut s = shared.lock().unwrap();
            journal.stage(name, &r).unwrap();
            let entry = s.entry(name.to_string()).or_default();
            entry.0.push(r.clone());
            entry.1 = journal.account_seq(name);
            drop(s);
            staged.entry(name.to_string()).or_default().push(r);
        };
        // Only the flushes wait, so the preload is one batch.
        let config = quick_config(2);
        let covers;
        {
            let journal = StoreJournal::open(&dir, config).unwrap();
            let source = shared.clone();
            journal.register_checkpoint_source(Box::new(move || {
                source
                    .lock()
                    .unwrap()
                    .iter()
                    .map(|(name, (records, high_seq))| CheckpointAccount {
                        name: name.clone(),
                        records: records.clone(),
                        high_seq: *high_seq,
                        rule_epoch: 0,
                        repl_head: 0,
                    })
                    .collect()
            }));
            // Preload: one flushed batch that outweighs everything after
            // it; its rotation is the first and checkpoints.
            let mut i = 0usize;
            for k in 0..48 {
                stage(&journal, &mut staged, ACCOUNTS[k % 3], record(i * 31, 8, false));
                i += 1;
            }
            journal.flush().unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while journal.stats().checkpointed_through == 0 {
                prop_assert!(Instant::now() < deadline, "no first checkpoint: {:?}", journal.stats());
                std::thread::sleep(Duration::from_millis(1));
            }
            covers = journal.stats().checkpointed_through;
            for (k, v) in &staged {
                acked.insert(k.clone(), v.len());
            }
            let last = batches.len() - 1;
            for (b, &(acct, n, rows, ann)) in batches.iter().enumerate() {
                for _ in 0..n as usize {
                    stage(&journal, &mut staged, ACCOUNTS[acct], record(i * 31, rows as usize, ann));
                    i += 1;
                }
                if b < last {
                    journal.flush().unwrap();
                    for (k, v) in &staged {
                        acked.insert(k.clone(), v.len());
                    }
                    acked_seg = acked_point(&journal);
                }
            }
            journal.flush().unwrap();
            prop_assert_eq!(
                journal.stats().checkpointed_through,
                covers,
                "the later segments never outweighed the preload"
            );
        }

        let segs = seg_files(&dir);
        let uncovered_sealed = segs.iter().filter(|&&(n, _)| n > covers).count() - 1;
        prop_assert!(uncovered_sealed >= 3, "only {} uncovered sealed segments", uncovered_sealed);
        let &(last_no, ref last_path) = segs.last().unwrap();
        let full = std::fs::metadata(last_path).unwrap().len() as usize;
        let floor = if last_no == acked_seg.0 { (acked_seg.1 as usize).min(full) } else { 0 };
        let cut = floor + ((full - floor) * cut_frac as usize) / 1000;
        let tear = if zeroed { Tear::Zeroed } else { Tear::Cut };
        crash_copy(&dir, &crash_dir, cut, tear);

        let journal = StoreJournal::open(&crash_dir, config).unwrap();
        assert_recovery(&journal, &staged, &acked)?;
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }

    /// A torn tail corrupted with garbage (not just truncated) is also
    /// rejected: replay stops at the last valid frame boundary and
    /// truncates the segment there.
    #[test]
    fn garbage_tail_is_rejected(
        n in 1u8..6,
        garbage in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let seed: Vec<u64> = std::iter::once(n as u64)
            .chain(garbage.iter().map(|&b| b as u64))
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "sensorsafe-jgarbage-{}-{}",
            std::process::id(),
            case_suffix(&seed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let staged: Vec<WalRecord> = (0..n as usize).map(|i| record(i, 8, i % 2 == 0)).collect();
        {
            let journal = StoreJournal::open(&dir, quick_config(u64::MAX)).unwrap();
            for r in &staged {
                journal.stage("alice", r).unwrap();
            }
            journal.flush().unwrap();
        }
        let tail = dir.join("journal.seg-1");
        let mut bytes = std::fs::read(&tail).unwrap();
        let clean_len = bytes.len() as u64;
        bytes.extend_from_slice(&garbage);
        std::fs::write(&tail, &bytes).unwrap();

        let journal = StoreJournal::open(&dir, quick_config(u64::MAX)).unwrap();
        let recovered = journal.take_account("alice").map(|r| r.records).unwrap_or_default();
        // Reopening truncated the segment to its valid prefix.
        let valid_len = std::fs::metadata(&tail).unwrap().len();
        // Garbage after the clean log never costs a clean record …
        prop_assert!(valid_len >= clean_len);
        prop_assert_eq!(&recovered[..n as usize], &staged[..]);
        // … and never produces an extra one unless it happens to frame
        // and checksum as a whole record.
        prop_assert!(recovered.len() <= n as usize + 1);
        if valid_len == clean_len {
            prop_assert_eq!(recovered.len(), n as usize);
        }
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Concurrent committers then a crash: whatever batches completed before
/// the simulated kill are fully recovered. This is the multi-threaded
/// shape of the upload path (stage under a lock, wait without it).
#[test]
fn concurrent_commits_then_crash_recovers_acked_prefix() {
    let dir = std::env::temp_dir().join(format!("sensorsafe-jcrash-mt-{}", std::process::id()));
    let crash_dir = dir.with_extension("crashed");
    let _ = std::fs::remove_dir_all(&dir);
    let config = quick_config(u64::MAX);
    let acked_len;
    {
        let journal = StoreJournal::open(&dir, config).unwrap();
        // Staging is serialized (as the account write lock does in the
        // datastore); waiting is concurrent.
        let mut handles = Vec::new();
        for i in 0..32usize {
            journal.stage("alice", &record(i, 8, false)).unwrap();
            let ticket = journal.ticket();
            handles.push(std::thread::spawn(move || ticket.wait()));
        }
        for h in handles {
            h.join().unwrap().unwrap();
        }
        acked_len = journal.stats().active_bytes;
        // One more record staged but never acked, then "kill": cut inside it.
        journal.stage("alice", &record(999, 8, false)).unwrap();
        journal.flush().unwrap();
    }
    for tear in [Tear::Cut, Tear::Zeroed] {
        crash_copy(&dir, &crash_dir, acked_len as usize + 3, tear);
        let journal = StoreJournal::open(&crash_dir, config).unwrap();
        let recovered = journal.take_account("alice").unwrap().records;
        assert_eq!(recovered.len(), 32, "all acked records, torn tail dropped");
        drop(journal);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// Checkpointed segments are only GC'd once replication acks reach the
/// checkpoint's recorded seal head — and with GC deferred, a crash
/// still replays everything from the retained segments.
#[test]
fn gc_waits_for_replication_ack_and_crash_replays_retained_segments() {
    let dir = std::env::temp_dir().join(format!("sensorsafe-jgc-{}", std::process::id()));
    let crash_dir = dir.with_extension("crashed");
    let _ = std::fs::remove_dir_all(&dir);

    let records: Vec<WalRecord> = (0..8).map(|i| record(i * 31, 4, i % 2 == 0)).collect();
    let repl_head = 5u64;
    let acked = Arc::new(Mutex::new(0u64));
    let staged: Arc<Mutex<(Vec<WalRecord>, u64)>> = Arc::new(Mutex::new((Vec::new(), 0)));
    {
        let journal = StoreJournal::open(&dir, quick_config(2)).unwrap();
        let source = staged.clone();
        journal.register_checkpoint_source(Box::new(move || {
            let s = source.lock().unwrap();
            vec![CheckpointAccount {
                name: "alice".to_string(),
                records: s.0.clone(),
                high_seq: s.1,
                rule_epoch: 0,
                repl_head,
            }]
        }));
        let gate_acked = acked.clone();
        journal.register_gc_gate(Box::new(move |_| Some(*gate_acked.lock().unwrap())));
        for r in &records {
            let mut s = staged.lock().unwrap();
            journal.stage("alice", r).unwrap();
            s.0.push(r.clone());
            s.1 = journal.account_seq("alice");
        }
        journal.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while journal.stats().checkpointed_through == 0 {
            let _ = journal.checkpoint_now().unwrap();
            assert!(
                Instant::now() < deadline,
                "no checkpoint: {:?}",
                journal.stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Replica behind the checkpoint's seal head: nothing may be
        // deleted, no matter how often GC is retried.
        let before = journal.stats().live_segments;
        assert_eq!(journal.maybe_gc(), 0);
        assert_eq!(journal.maybe_gc(), 0);
        assert_eq!(journal.stats().live_segments, before);

        // Crash with GC deferred: every segment is still on disk, so a
        // reopen recovers the full history even if the checkpoint file
        // were lost — delete it to prove the segments alone suffice.
        crash_copy(&dir, &crash_dir, usize::MAX, Tear::Cut);
        std::fs::remove_file(crash_dir.join("journal.ckpt")).unwrap();
        let reopened = StoreJournal::open(&crash_dir, quick_config(2)).unwrap();
        let rec = reopened.take_account("alice").unwrap();
        assert_eq!(
            rec.records, records,
            "deferred GC kept full replay possible"
        );
        drop(reopened);

        // Acks catch up: GC now prunes the checkpointed segments.
        *acked.lock().unwrap() = repl_head;
        let deadline = Instant::now() + Duration::from_secs(10);
        while journal.stats().live_segments >= before {
            journal.maybe_gc();
            assert!(
                Instant::now() < deadline,
                "GC never ran: {:?}",
                journal.stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // After GC, a plain reopen (checkpoint + surviving tail) still
    // recovers everything exactly once.
    let reopened = StoreJournal::open(&dir, quick_config(2)).unwrap();
    let rec = reopened.take_account("alice").unwrap();
    assert_eq!(rec.records, records, "checkpoint + tail replay after GC");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// Regression (ISSUE 8): `compact()` and segment GC preserve the
/// bookkeeping records — `AssignEpoch`, `UploadToken`, `ReplApplied` —
/// across a rotation boundary. All three are staged before enough
/// segment traffic to rotate the journal several times; after
/// checkpoint + GC + restart the store must still know its assignment
/// epoch, dedup the upload token, and report the replica high-water.
#[test]
fn bookkeeping_survives_rotation_checkpoint_and_gc() {
    let dir = std::env::temp_dir().join(format!("sensorsafe-jbook-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let token = vec![0xAB, 0xCD, 0xEF];
    {
        let journal = Arc::new(StoreJournal::open(&dir, quick_config(2)).unwrap());
        // `Option` so teardown can drop the store (and its journal Arc)
        // while the source closure keeps holding the slot.
        let store = Arc::new(Mutex::new(Some(SegmentStore::open_journal(
            journal.clone(),
            "alice",
            MergePolicy::default(),
            Vec::new(),
        ))));
        let weak = Arc::downgrade(&journal);
        let src = store.clone();
        journal.register_checkpoint_source(Box::new(move || {
            let (Some(journal), mut guard) = (weak.upgrade(), src.lock().unwrap()) else {
                return Vec::new();
            };
            let Some(s) = guard.as_mut() else {
                return Vec::new();
            };
            vec![CheckpointAccount {
                name: "alice".to_string(),
                high_seq: journal.account_seq("alice"),
                records: s.snapshot_records(),
                rule_epoch: 9,
                repl_head: s.repl_seal_head(),
            }]
        }));
        {
            let mut guard = store.lock().unwrap();
            let s = guard.as_mut().unwrap();
            s.note_assignment(3, false).unwrap();
            s.note_upload_token(token.clone(), 7, 1).unwrap();
            s.note_repl_applied(42).unwrap();
            // Enough segments to rotate several times (rotate_records=2).
            for i in 0..10usize {
                let WalRecord::Segment(seg) = record(i * 31, 4, false) else {
                    unreachable!()
                };
                s.insert_segment(seg).unwrap();
            }
            // compact: flush + async checkpoint request.
            s.compact().unwrap();
            s.sync().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while journal.stats().checkpointed_through == 0 {
            let _ = journal.checkpoint_now().unwrap();
            assert!(
                Instant::now() < deadline,
                "no checkpoint: {:?}",
                journal.stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // No gate registered: GC prunes everything the checkpoint
        // covers. The bookkeeping now lives only in the checkpoint.
        journal.maybe_gc();
        store.lock().unwrap().take();
        // `journal` drops here, joining the background threads before
        // the directory is reopened below.
    }

    let journal = Arc::new(StoreJournal::open(&dir, quick_config(2)).unwrap());
    let recovered = journal.take_account("alice").expect("account recovered");
    assert_eq!(recovered.rule_epoch, 9, "rule epoch rides the checkpoint");
    let store = SegmentStore::open_journal(
        journal.clone(),
        "alice",
        MergePolicy::default(),
        recovered.records,
    );
    assert_eq!(store.assignment_epoch(), 3, "AssignEpoch survived GC");
    assert!(!store.fenced());
    assert_eq!(
        store.check_upload_token(&token),
        Some((7, 1)),
        "UploadToken survived GC"
    );
    assert_eq!(store.repl_applied(), 42, "ReplApplied survived GC");
    assert!(store.stats().samples > 0, "segment data survived GC");
    drop(store);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

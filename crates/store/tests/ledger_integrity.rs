//! Property tests for the tamper-evident audit ledger (ISSUE 4
//! acceptance): any single-byte mutation or truncation of a written
//! ledger file is detected by verification, and an untampered ledger
//! replays to exactly the recorded decisions after a restart.

use proptest::prelude::*;
use sensorsafe_obsv::audit::Outcome;
use sensorsafe_obsv::ledger::{chain_hash, verify_frames, ChainHead, GENESIS_HASH};
use sensorsafe_obsv::{AuditLedger, DecisionRecord, LedgerError};
use sensorsafe_store::ledger::head_path;
use sensorsafe_store::{verify_ledger_file, FileLedger};
use std::path::PathBuf;

/// Compact, shrinkable description of one decision record.
#[derive(Debug, Clone)]
struct RecordSpec {
    contributor: String,
    consumer: String,
    matched: Vec<u32>,
    outcome: Outcome,
    suppressed: u64,
    unix_ms: u64,
    trace_id: u64,
    rule_epoch: u64,
}

fn record_spec() -> impl Strategy<Value = RecordSpec> {
    (
        "[a-z]{0,12}",
        "[a-z0-9_.@-]{0,16}",
        prop::collection::vec(0u32..512, 0..6),
        prop_oneof![
            Just(Outcome::Allowed),
            Just(Outcome::Abstracted),
            Just(Outcome::Denied),
        ],
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                contributor,
                consumer,
                matched,
                outcome,
                suppressed,
                (unix_ms, trace_id, rule_epoch),
            )| {
                RecordSpec {
                    contributor,
                    consumer,
                    matched,
                    outcome,
                    suppressed,
                    unix_ms,
                    trace_id,
                    rule_epoch,
                }
            },
        )
}

impl RecordSpec {
    fn to_record(&self) -> DecisionRecord {
        DecisionRecord {
            seq: 0, // assigned by the ledger
            unix_ms: self.unix_ms,
            trace_id: self.trace_id,
            rule_epoch: self.rule_epoch,
            contributor: self.contributor.clone(),
            consumer: self.consumer.clone(),
            matched_rules: self.matched.clone(),
            outcome: self.outcome,
            suppressed_channels: self.suppressed,
        }
    }
}

/// Deterministic per-case scratch path so parallel proptest cases never
/// share ledger files.
fn case_path(tag: &str, salt: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sensorsafe-ledger-prop-{tag}-{}-{salt}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("audit.ledger")
}

fn salt(specs: &[RecordSpec], extra: u64) -> u64 {
    let mut h = 1469598103934665603u64;
    for s in specs {
        for b in s.contributor.bytes().chain(s.consumer.bytes()) {
            h = (h ^ b as u64).wrapping_mul(1099511628211);
        }
        h = (h ^ s.trace_id).wrapping_mul(1099511628211);
    }
    (h ^ extra).wrapping_mul(1099511628211)
}

fn write_ledger(path: &PathBuf, specs: &[RecordSpec]) {
    let ledger = FileLedger::open(path).unwrap();
    for spec in specs {
        ledger.append(spec.to_record());
    }
    ledger.sync();
}

proptest! {
    /// Restart fidelity: reopening an untampered ledger yields exactly
    /// the appended decisions, in order, with ledger-assigned sequence
    /// numbers — and both the reopened ledger and the offline verifier
    /// agree.
    #[test]
    fn untampered_ledger_replays_exactly(
        specs in prop::collection::vec(record_spec(), 1..12),
    ) {
        let path = case_path("replay", salt(&specs, specs.len() as u64));
        write_ledger(&path, &specs);

        let reopened = FileLedger::open(&path).unwrap();
        prop_assert_eq!(reopened.len(), specs.len() as u64);
        let records = reopened.recent(usize::MAX);
        let offline = verify_ledger_file(&path).unwrap();
        prop_assert_eq!(&records, &offline);
        for (i, (got, want)) in records.iter().zip(specs.iter()).enumerate() {
            prop_assert_eq!(got.seq, i as u64);
            prop_assert_eq!(&got.contributor, &want.contributor);
            prop_assert_eq!(&got.consumer, &want.consumer);
            prop_assert_eq!(&got.matched_rules, &want.matched);
            prop_assert_eq!(got.outcome, want.outcome);
            prop_assert_eq!(got.suppressed_channels, want.suppressed);
            prop_assert_eq!(got.unix_ms, want.unix_ms);
            prop_assert_eq!(got.trace_id, want.trace_id);
            prop_assert_eq!(got.rule_epoch, want.rule_epoch);
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Tamper evidence: flipping any single byte of the ledger file is
    /// detected — by the offline verifier and by `FileLedger::open`.
    #[test]
    fn any_single_byte_mutation_is_detected(
        specs in prop::collection::vec(record_spec(), 1..8),
        byte_frac in 0u16..1000,
        flip in 1u8..=255,
    ) {
        let path = case_path("flip", salt(&specs, byte_frac as u64 ^ ((flip as u64) << 32)));
        write_ledger(&path, &specs);

        let mut bytes = std::fs::read(&path).unwrap();
        prop_assert!(!bytes.is_empty());
        let index = (bytes.len() - 1) * byte_frac as usize / 1000;
        bytes[index] ^= flip;
        std::fs::write(&path, &bytes).unwrap();

        prop_assert!(verify_ledger_file(&path).is_err(),
            "flip at byte {index}/{} went undetected", bytes.len());
        prop_assert!(FileLedger::open(&path).is_err());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Truncation evidence: cutting the file at any proper prefix is
    /// detected. Mid-frame cuts tear a frame; frame-aligned cuts leave a
    /// valid shorter chain that the head sidecar exposes as a
    /// count mismatch.
    #[test]
    fn any_truncation_is_detected(
        specs in prop::collection::vec(record_spec(), 1..8),
        cut_frac in 0u16..1000,
    ) {
        let path = case_path("cut", salt(&specs, 7 ^ cut_frac as u64));
        write_ledger(&path, &specs);

        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len() * cut_frac as usize / 1000; // always < len
        std::fs::write(&path, &bytes[..cut]).unwrap();

        match verify_ledger_file(&path) {
            Err(_) => {}
            Ok(records) => {
                return Err(proptest::test_runner::CaseError::Fail(format!(
                    "truncation to {cut}/{} bytes verified as {} records",
                    bytes.len(),
                    records.len()
                )));
            }
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A tampered *head sidecar* is also caught: the chain itself still
    /// verifies, but the attested (count, hash) no longer matches it.
    #[test]
    fn tampered_head_is_detected(
        specs in prop::collection::vec(record_spec(), 1..6),
        byte_frac in 0u16..1000,
        flip in 1u8..=255,
    ) {
        let path = case_path("head", salt(&specs, 99 ^ byte_frac as u64 ^ (flip as u64) << 40));
        write_ledger(&path, &specs);

        let hp = head_path(&path);
        let mut head = std::fs::read(&hp).unwrap();
        let index = (head.len() - 1) * byte_frac as usize / 1000;
        head[index] ^= flip;
        std::fs::write(&hp, &head).unwrap();

        match verify_ledger_file(&path) {
            Err(LedgerError::HeadMismatch { .. }) | Err(LedgerError::Decode(_)) => {}
            other => {
                return Err(proptest::test_runner::CaseError::Fail(format!(
                    "tampered head byte {index} gave {other:?}"
                )));
            }
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

// ---------------------------------------------------------------------
// Concurrency (ISSUE 20): the sync runs on the ledger's own thread and
// concurrent waiters share rounds. What must hold however rounds and
// appends interleave.
// ---------------------------------------------------------------------

fn plain_record(consumer: &str) -> DecisionRecord {
    DecisionRecord {
        seq: 0,
        unix_ms: 1_700_000_000_000,
        trace_id: 7,
        rule_epoch: 1,
        contributor: "alice".into(),
        consumer: consumer.into(),
        matched_rules: vec![0],
        outcome: Outcome::Allowed,
        suppressed_channels: 0,
    }
}

fn ledger_counter(name: &str, help: &str) -> std::sync::Arc<sensorsafe_obsv::Counter> {
    sensorsafe_obsv::global().counter(name, help, &[])
}

/// The head sidecar as a concurrent reader may trust it: the 40 bytes
/// are overwritten in place, so a read racing the overwrite is retried
/// until two consecutive reads agree. `None` before the first round.
fn stable_head(path: &std::path::Path) -> Option<ChainHead> {
    let mut last = std::fs::read(head_path(path)).ok()?;
    loop {
        let again = std::fs::read(head_path(path)).ok()?;
        if again == last {
            return Some(ChainHead::decode(&again).unwrap());
        }
        last = again;
    }
}

/// Durable on return, never ahead — and coalescing never costs a record.
/// Eight threads append + `sync()` while a checker keeps reading the
/// head *then* the file: the head on disk never attests a frame the file
/// does not hold, and a record whose `sync()` has returned is attested.
#[test]
fn concurrent_syncs_are_durable_on_return_and_the_head_is_never_ahead() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;
    let path = case_path("concurrent", 20);
    let ledger = FileLedger::open(&path).unwrap();
    let appends = ledger_counter(
        "sensorsafe_audit_ledger_appends_total",
        "Enforcement decisions appended to an audit ledger.",
    );
    let fsyncs = ledger_counter(
        "sensorsafe_audit_ledger_fsyncs_total",
        "Durable sync operations completed by file-backed audit ledgers.",
    );
    let (appends_before, fsyncs_before) = (appends.get(), fsyncs.get());
    // SeqCst: the flag publishes nothing but itself; the checker's reads
    // go through the file system.
    let running = AtomicBool::new(true);
    let start = std::sync::Barrier::new(THREADS + 1);

    let checks = std::thread::scope(|scope| {
        let checker = scope.spawn(|| {
            start.wait();
            let mut checks = 0u64;
            while running.load(Ordering::SeqCst) {
                let Some(head) = stable_head(&path) else {
                    continue;
                };
                let bytes = std::fs::read(&path).unwrap();
                // An append landing while the file is read can show as a
                // torn last frame; whole frames before it must verify.
                let records = match verify_frames(&bytes, None) {
                    Ok(records) => records,
                    Err(LedgerError::Torn { offset }) => {
                        verify_frames(&bytes[..offset], None).unwrap()
                    }
                    Err(e) => panic!("chain on disk does not verify: {e}"),
                };
                assert!(
                    records.len() as u64 >= head.count,
                    "head attests {} records, file holds {}",
                    head.count,
                    records.len()
                );
                let mut hash = GENESIS_HASH;
                for record in &records[..head.count as usize] {
                    hash = chain_hash(&hash, &record.encode());
                }
                assert_eq!(hash, head.hash, "head hash is not the chain's at its count");
                checks += 1;
            }
            checks
        });
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (ledger, path, start) = (&ledger, &path, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        let seq = ledger.append(plain_record(&format!("t{t}-{i}")));
                        ledger.sync();
                        let head = stable_head(path).expect("sync() returned without a head");
                        assert!(
                            seq < head.count,
                            "sync() returned before record {seq} was attested (head {})",
                            head.count
                        );
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        running.store(false, Ordering::SeqCst);
        checker.join().unwrap()
    });
    assert!(ledger.sync_error().is_none());
    assert!(checks > 0, "the checker never saw a head");

    // A round covers at least one new append, so rounds never outnumber
    // appends (foreign activity in this process obeys the same rule).
    let total = (THREADS * PER_THREAD) as u64;
    assert!(appends.get() - appends_before >= total);
    assert!(fsyncs.get() - fsyncs_before <= appends.get() - appends_before);
    drop(ledger);
    let reopened = FileLedger::open(&path).unwrap();
    assert_eq!(reopened.len(), total);
    let records = reopened.recent(usize::MAX);
    assert!(records.iter().enumerate().all(|(i, r)| r.seq == i as u64));
    // Nothing lost, nothing doubled: every (thread, i) exactly once.
    let mut consumers: Vec<&str> = records.iter().map(|r| r.consumer.as_str()).collect();
    consumers.sort_unstable();
    consumers.dedup();
    assert_eq!(consumers.len() as u64, total);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// Failure releases everyone: the head sidecar cannot be created (its
/// name is taken by a directory) while four requests wait in `sync()`.
/// All return, the error is sticky and counted once, nothing more is
/// written.
#[test]
fn a_failed_round_releases_every_waiter_and_stays_failed() {
    let path = case_path("fail-concurrent", 20);
    let ledger = FileLedger::open(&path).unwrap();
    std::fs::create_dir(head_path(&path)).unwrap();
    let failures = ledger_counter(
        "sensorsafe_audit_ledger_sync_failures_total",
        "File-backed audit ledgers that stopped persisting after an I/O failure.",
    );
    let before = failures.get();
    let appended = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (ledger, appended) = (&ledger, &appended);
            scope.spawn(move || {
                ledger.append(plain_record(&format!("w{t}")));
                appended.wait();
                // Returns (the scope would hang otherwise) — failed.
                ledger.sync();
                assert!(ledger.sync_error().is_some());
            });
        }
    });
    assert_eq!(failures.get() - before, 1);
    assert_eq!(ledger.len(), 4);
    // Sticky: no retry, no further write, reads keep working.
    let size = std::fs::metadata(&path).unwrap().len();
    ledger.append(plain_record("late"));
    ledger.sync();
    assert_eq!(failures.get() - before, 1);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
    assert_eq!(ledger.recent(10).len(), 5);
    // The frames that reached the file before the failure still verify.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(verify_frames(&bytes, None).unwrap().len(), 4);
    drop(ledger);
    std::fs::remove_dir(head_path(&path)).unwrap();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

//! Ledger-replay consistency for the sharing-awareness plane: the plane
//! a `FileLedger` owns is its fold of the durable chain, so after every
//! sync — across arbitrary decision sequences, a reopen mid-sequence and
//! concurrent appenders — it must be byte-identical to the aggregates
//! rebuilt from the replayed, chain-verified file. This is the property
//! that makes awareness numbers *verifiable*: what a contributor sees on
//! `/ui/privacy` can be re-derived from the tamper-evident chain alone.

use proptest::prelude::*;
use sensorsafe_obsv::audit::Outcome;
use sensorsafe_obsv::awareness::{AwarenessAggregates, TREND_BUCKET_SECS};
use sensorsafe_obsv::{AuditLedger, DecisionRecord};
use sensorsafe_store::{verify_ledger_file, FileLedger};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Compact, shrinkable description of one decision. Small name/rule/epoch
/// domains on purpose: collisions across contributors, consumers, rules,
/// and epochs are where aggregation bugs live.
#[derive(Debug, Clone)]
struct DecisionSpec {
    contributor: u8,
    consumer: u8,
    matched: Vec<u32>,
    outcome: Outcome,
    suppressed: u64,
    unix_ms: u64,
    rule_epoch: u64,
}

fn decision_spec() -> impl Strategy<Value = DecisionSpec> {
    (
        0u8..4,
        0u8..5,
        prop::collection::vec(0u32..8, 0..4),
        prop_oneof![
            Just(Outcome::Allowed),
            Just(Outcome::Abstracted),
            Just(Outcome::Denied),
        ],
        // suppressed; timestamps spanning several trend buckets; epoch.
        (0u64..10, 0u64..400_000, 0u64..8),
    )
        .prop_map(
            |(contributor, consumer, matched, outcome, (suppressed, unix_ms, rule_epoch))| {
                DecisionSpec {
                    contributor,
                    consumer,
                    matched,
                    outcome,
                    suppressed,
                    unix_ms,
                    rule_epoch,
                }
            },
        )
}

impl DecisionSpec {
    fn to_record(&self) -> DecisionRecord {
        DecisionRecord {
            seq: 0, // assigned by the ledger
            unix_ms: self.unix_ms,
            trace_id: 0,
            rule_epoch: self.rule_epoch,
            contributor: format!("contrib-{}", self.contributor),
            consumer: format!("consumer-{}", self.consumer),
            matched_rules: self.matched.clone(),
            outcome: self.outcome,
            suppressed_channels: self.suppressed,
        }
    }
}

fn case_path(salt: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sensorsafe-awareness-prop-{}-{salt}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("audit.ledger")
}

fn salt(specs: &[DecisionSpec], extra: u64) -> u64 {
    let mut h = 1469598103934665603u64;
    for s in specs {
        h = (h ^ s.unix_ms ^ ((s.contributor as u64) << 32) ^ s.rule_epoch)
            .wrapping_mul(1099511628211);
    }
    (h ^ extra).wrapping_mul(1099511628211)
}

/// The ledger's live aggregates against a rebuild of its file.
fn assert_plane_is_the_chain(ledger: &FileLedger, path: &Path) {
    let rebuilt = AwarenessAggregates::rebuild(verify_ledger_file(path).unwrap().iter());
    let live = ledger.awareness().aggregates();
    assert_eq!(
        live.encode(),
        rebuilt.encode(),
        "aggregates diverged from the chain"
    );
    assert_eq!(ledger.awareness().digest(), rebuilt.digest());
}

proptest! {
    /// Live-vs-replay: append every decision to a file ledger, syncing
    /// now and then and reopening the file partway through the sequence.
    /// After every sync, and right after the reopen, the ledger's plane
    /// must equal a rebuild of the chain-verified file.
    #[test]
    fn replayed_ledger_rebuilds_the_live_aggregates(
        specs in prop::collection::vec(decision_spec(), 1..24),
        split_frac in 0u8..=100,
        sync_every in 1usize..6,
    ) {
        let path = case_path(salt(&specs, split_frac as u64));
        let split = specs.len() * split_frac as usize / 100;

        let ledger = FileLedger::open(&path).unwrap();
        for (i, spec) in specs[..split].iter().enumerate() {
            ledger.append(spec.to_record());
            if i % sync_every == 0 {
                ledger.sync();
                assert_plane_is_the_chain(&ledger, &path);
            }
        }
        ledger.sync();
        assert_plane_is_the_chain(&ledger, &path);
        drop(ledger);

        // Restart: the reopened ledger folds the chain it verifies, so
        // nothing already shared drops out of the aggregates.
        let ledger = FileLedger::open(&path).unwrap();
        assert_plane_is_the_chain(&ledger, &path);
        prop_assert_eq!(ledger.awareness().aggregates().total().total(), split as u64);
        for spec in &specs[split..] {
            ledger.append(spec.to_record());
        }
        ledger.sync();
        assert_plane_is_the_chain(&ledger, &path);
        drop(ledger);

        let replayed = verify_ledger_file(&path).unwrap();
        prop_assert_eq!(replayed.len(), specs.len());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

/// Four appenders whose decisions straddle a trend-bucket boundary race
/// on one ledger, each syncing after every few appends. The plane is fed
/// in chain order by the sync rounds alone, so after a sync it equals a
/// rebuild of the file, and a `sync()` that returned has already had the
/// caller's decisions folded in.
#[test]
fn concurrent_appenders_across_a_trend_bucket_fold_in_chain_order() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 60;
    let path = case_path(0xb0c4e7);
    let ledger = Arc::new(FileLedger::open(&path).unwrap());
    let boundary_ms = 7 * TREND_BUCKET_SECS * 1000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let ledger = Arc::clone(&ledger);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let spec = DecisionSpec {
                        contributor: (t % 2) as u8,
                        consumer: t as u8,
                        matched: if i % 3 == 0 {
                            vec![]
                        } else {
                            vec![(i % 4) as u32]
                        },
                        outcome: [Outcome::Allowed, Outcome::Abstracted, Outcome::Denied]
                            [((t + i) % 3) as usize],
                        suppressed: i % 2,
                        // One millisecond either side of the boundary,
                        // alternating, so neighbouring appends from
                        // different threads land in different buckets.
                        unix_ms: if (t + i) % 2 == 0 {
                            boundary_ms - 1
                        } else {
                            boundary_ms
                        },
                        rule_epoch: 1 + i / 20,
                    };
                    let seq = ledger.append(spec.to_record());
                    if i % 5 == 4 {
                        ledger.sync();
                        let folded = ledger.awareness().aggregates().total().total();
                        assert!(
                            folded > seq,
                            "sync() returned before its fold: {folded} <= {seq}"
                        );
                    }
                }
            });
        }
    });
    ledger.sync();
    assert_eq!(ledger.len(), THREADS * PER_THREAD);
    assert_plane_is_the_chain(&ledger, &path);
    let aggregates = ledger.awareness().aggregates();
    let buckets: Vec<u64> = aggregates
        .contributor("contrib-0")
        .unwrap()
        .trend
        .keys()
        .copied()
        .collect();
    assert_eq!(buckets, [6 * TREND_BUCKET_SECS, 7 * TREND_BUCKET_SECS]);
    drop(ledger);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

//! Sharing-awareness plane: streaming privacy-decision analytics.
//!
//! SensorSafe's end goal is not just *enforcing* privacy rules but keeping
//! contributors aware of what is shared, with whom, and under which rule
//! (the paper's §6 walkthroughs are a contributor inspecting and adjusting
//! their sharing posture). Counters answer "how many", the ledger answers
//! "exactly when" — this module answers *"what does my sharing posture
//! look like"*:
//!
//! * per-contributor rollups of (consumer × outcome) counters,
//! * per-rule hit counts + last-hit timestamps keyed by `rule_epoch`, so
//!   hits attribute to the rule set that was live when they happened (an
//!   epoch bump snapshots the old attribution instead of smearing it),
//! * suppressed-channel totals,
//! * a time-bucketed decision trend per contributor, split by outcome,
//! * derived posture findings: **dead rules** (rules in the current set
//!   that have never matched since their epoch went live) and
//!   **baseline-only flows** (consumers whose every decision carried an
//!   empty `matched_rules` — data shared or denied purely by the default
//!   baseline, a posture worth surfacing to the contributor).
//!
//! The plane has one input: the audit ledger that owns it
//! ([`crate::ledger::AuditLedger::awareness`]) folds in the decisions it
//! has made durable, in chain (`seq`) order — at open the verified
//! chain, then each sync round's new frames. So the aggregates are
//! **verifiable** by construction: [`AwarenessAggregates::rebuild`]
//! replays any decision-record stream (e.g. a hash-chain-verified
//! `FileLedger`) into a fresh aggregate structure, and
//! [`AwarenessAggregates::encode`] is a canonical byte serialization —
//! after every sync the live aggregates equal a rebuild of the chain byte
//! for byte, across restarts, so a contributor (or operator) can check
//! the dashboard against the tamper-evident chain. Everything an
//! aggregate contains is a pure deterministic function of the record
//! stream; live-only metadata (the contributor's *current* rule-set epoch
//! and size, needed for dead-rule findings) lives beside the aggregates
//! in [`AwarenessPlane`], never inside them.

use crate::audit::Outcome;
use crate::global;
use crate::ledger::DecisionRecord;
use parking_lot::Mutex;
use sensorsafe_auth::Sha256;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Width of one trend bucket. Decisions inside the same bucket accumulate
/// into one entry, so the trend retains `TREND_RING_BUCKETS` buckets of
/// history rather than that many raw events.
pub const TREND_BUCKET_SECS: u64 = 60;

/// Buckets of trend history retained per contributor (the newest win).
pub const TREND_RING_BUCKETS: usize = 256;

/// Rule-hit attribution epochs retained per contributor. Rule churn bumps
/// the epoch; keeping the newest few snapshots bounds memory while still
/// letting a contributor compare the current rule set's hits against the
/// previous ones. Retention is deterministic (smallest epochs evicted
/// first) so a ledger replay reproduces it exactly.
pub const MAX_EPOCHS_RETAINED: usize = 4;

/// Metric family: total rule hits (one per matched rule per decision).
pub const FAMILY_RULE_HITS: &str = "sensorsafe_policy_rule_hits_total";

/// Metric family: decisions that matched no rule at all — the outcome came
/// purely from the default baseline.
pub const FAMILY_BASELINE: &str = "sensorsafe_policy_baseline_decisions_total";

/// Metric family (gauge): rules in current rule sets that have never
/// matched since their epoch went live, summed over contributors.
pub const FAMILY_DEAD_RULES: &str = "sensorsafe_policy_dead_rules";

/// Per-(consumer or contributor) decision counts, split by outcome, plus
/// how many of them were baseline-only (empty `matched_rules`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Decisions released at full fidelity.
    pub allowed: u64,
    /// Decisions released behavior-abstracted.
    pub abstracted: u64,
    /// Decisions refused outright.
    pub denied: u64,
    /// Decisions (of any outcome) that matched no rule.
    pub baseline: u64,
}

impl OutcomeCounts {
    /// Total decisions across all outcomes.
    pub fn total(&self) -> u64 {
        self.allowed + self.abstracted + self.denied
    }

    fn count(&mut self, outcome: Outcome, baseline: bool) {
        match outcome {
            Outcome::Allowed => self.allowed += 1,
            Outcome::Abstracted => self.abstracted += 1,
            Outcome::Denied => self.denied += 1,
        }
        if baseline {
            self.baseline += 1;
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.allowed.to_le_bytes());
        out.extend_from_slice(&self.abstracted.to_le_bytes());
        out.extend_from_slice(&self.denied.to_le_bytes());
        out.extend_from_slice(&self.baseline.to_le_bytes());
    }
}

/// Hit statistics for one rule under one attribution epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleHit {
    /// Decisions this rule matched.
    pub hits: u64,
    /// `unix_ms` of the newest decision it matched.
    pub last_unix_ms: u64,
}

/// Everything the plane knows about one contributor's decision stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContributorAggregates {
    /// Decision counts per consumer.
    pub consumers: BTreeMap<String, OutcomeCounts>,
    /// Rule hits keyed by (rule epoch → rule index). Only the newest
    /// [`MAX_EPOCHS_RETAINED`] epochs are retained.
    pub rule_hits: BTreeMap<u64, BTreeMap<u32, RuleHit>>,
    /// Decision counts across all consumers.
    pub outcomes: OutcomeCounts,
    /// Channels withheld by the dependency-closure rule, totalled.
    pub suppressed_channels: u64,
    /// `unix_ms` of the newest decision observed.
    pub last_unix_ms: u64,
    /// Decisions per trend bucket: bucket start (seconds since the Unix
    /// epoch) → `[allowed, abstracted, denied]`. Only the newest
    /// [`TREND_RING_BUCKETS`] buckets are retained.
    pub trend: BTreeMap<u64, [u64; 3]>,
}

/// The deterministic aggregate state: a pure function of the decision
/// record stream (record `seq` is ignored). Equal aggregates have equal
/// canonical encodings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AwarenessAggregates {
    contributors: BTreeMap<String, ContributorAggregates>,
    total: OutcomeCounts,
}

impl AwarenessAggregates {
    /// An empty aggregate state.
    pub fn new() -> AwarenessAggregates {
        AwarenessAggregates::default()
    }

    /// Folds one decision into the aggregates. Every update here must be
    /// a deterministic function of the record alone (never the clock, and
    /// never `record.seq`) so [`AwarenessAggregates::rebuild`] from the
    /// ledger reproduces the live state byte for byte.
    pub fn observe(&mut self, record: &DecisionRecord) {
        let baseline = record.matched_rules.is_empty();
        self.total.count(record.outcome, baseline);
        let c = slot(&mut self.contributors, &record.contributor);
        c.outcomes.count(record.outcome, baseline);
        // Saturating: the fold runs on the ledger's sync thread, and a
        // verified chain may still carry any `u64` here.
        c.suppressed_channels = c
            .suppressed_channels
            .saturating_add(record.suppressed_channels);
        c.last_unix_ms = c.last_unix_ms.max(record.unix_ms);
        slot(&mut c.consumers, &record.consumer).count(record.outcome, baseline);
        for &rule in &record.matched_rules {
            let hit = c
                .rule_hits
                .entry(record.rule_epoch)
                .or_default()
                .entry(rule)
                .or_default();
            hit.hits += 1;
            hit.last_unix_ms = hit.last_unix_ms.max(record.unix_ms);
        }
        while c.rule_hits.len() > MAX_EPOCHS_RETAINED {
            c.rule_hits.pop_first();
        }
        let bucket = record.unix_ms / 1000 / TREND_BUCKET_SECS * TREND_BUCKET_SECS;
        // `Outcome`'s declaration order is the index order.
        c.trend.entry(bucket).or_default()[record.outcome as usize] += 1;
        while c.trend.len() > TREND_RING_BUCKETS {
            c.trend.pop_first();
        }
    }

    /// Replays a decision-record stream (typically the verified contents
    /// of a `FileLedger`) into a fresh aggregate state.
    pub fn rebuild<'a>(records: impl IntoIterator<Item = &'a DecisionRecord>) -> Self {
        let mut aggregates = AwarenessAggregates::new();
        for record in records {
            aggregates.observe(record);
        }
        aggregates
    }

    /// The rollup for one contributor, if any decision mentioned them.
    pub fn contributor(&self, name: &str) -> Option<&ContributorAggregates> {
        self.contributors.get(name)
    }

    /// Decision counts across every contributor.
    pub fn total(&self) -> OutcomeCounts {
        self.total
    }

    /// Canonical byte serialization covering every aggregate field, in a
    /// fixed order. Used for byte-identical live-vs-replay comparison and
    /// hashed into [`AwarenessAggregates::digest`].
    pub fn encode(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::with_capacity(256);
        self.total.encode_into(&mut out);
        out.extend_from_slice(&(self.contributors.len() as u64).to_le_bytes());
        for (name, c) in &self.contributors {
            put_str(&mut out, name);
            c.outcomes.encode_into(&mut out);
            out.extend_from_slice(&c.suppressed_channels.to_le_bytes());
            out.extend_from_slice(&c.last_unix_ms.to_le_bytes());
            out.extend_from_slice(&(c.consumers.len() as u64).to_le_bytes());
            for (consumer, counts) in &c.consumers {
                put_str(&mut out, consumer);
                counts.encode_into(&mut out);
            }
            out.extend_from_slice(&(c.rule_hits.len() as u64).to_le_bytes());
            for (epoch, rules) in &c.rule_hits {
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&(rules.len() as u64).to_le_bytes());
                for (rule, hit) in rules {
                    out.extend_from_slice(&rule.to_le_bytes());
                    out.extend_from_slice(&hit.hits.to_le_bytes());
                    out.extend_from_slice(&hit.last_unix_ms.to_le_bytes());
                }
            }
            out.extend_from_slice(&(c.trend.len() as u64).to_le_bytes());
            for (bucket, counts) in &c.trend {
                out.extend_from_slice(&bucket.to_le_bytes());
                for count in counts {
                    out.extend_from_slice(&count.to_le_bytes());
                }
            }
        }
        out
    }

    /// SHA-256 of the canonical encoding — a compact fingerprint two
    /// parties can compare without shipping the aggregates themselves.
    pub fn digest(&self) -> [u8; 32] {
        let mut hasher = Sha256::new();
        hasher.update(&self.encode());
        hasher.finalize()
    }
}

/// Live-only metadata about a contributor's *current* rule set, reported
/// by the datastore whenever rules change. Not part of the aggregates
/// (the ledger does not record rule documents), but required to derive
/// dead rules: a rule index is dead when the current epoch's hit set
/// doesn't contain it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleSetMeta {
    /// The rule-set epoch currently live for the contributor.
    pub epoch: u64,
    /// Rules in that set.
    pub rule_count: u32,
}

struct PlaneState {
    aggregates: AwarenessAggregates,
    rules: BTreeMap<String, RuleSetMeta>,
    dead: BTreeMap<String, u64>,
    dead_total: u64,
}

impl PlaneState {
    /// Recomputes the contributor's dead-rule count after an observation
    /// or rule change, keeping the plane-wide total incremental.
    fn refresh_dead(&mut self, contributor: &str) {
        let fresh = match self.rules.get(contributor) {
            None => 0,
            Some(meta) => {
                let hit = self
                    .aggregates
                    .contributor(contributor)
                    .and_then(|c| c.rule_hits.get(&meta.epoch))
                    .map(|rules| rules.keys().filter(|&&r| r < meta.rule_count).count() as u64)
                    .unwrap_or(0);
                u64::from(meta.rule_count).saturating_sub(hit)
            }
        };
        let prev = if fresh == 0 {
            self.dead.remove(contributor).unwrap_or(0)
        } else {
            std::mem::replace(slot(&mut self.dead, contributor), fresh)
        };
        self.dead_total = self.dead_total - prev + fresh;
    }
}

/// One consumer's flow in a contributor's summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsumerFlow {
    /// The consumer's registered name (exact, not cardinality-capped).
    pub consumer: String,
    /// Their decision counts.
    pub counts: OutcomeCounts,
    /// True when *every* decision for this consumer was baseline-only —
    /// no rule the contributor wrote has ever governed this flow.
    pub baseline_only: bool,
}

/// One rule's hit row in a contributor's summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleHitRow {
    /// Attribution epoch the hits belong to.
    pub epoch: u64,
    /// Rule index within that epoch's rule document.
    pub rule: u32,
    /// Decisions the rule matched.
    pub hits: u64,
    /// `unix_ms` of the newest match.
    pub last_unix_ms: u64,
    /// Whether the row belongs to the currently live epoch.
    pub current: bool,
}

/// One bucket of the contributor's recent decision trend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrendPoint {
    /// Bucket start, seconds since the Unix epoch.
    pub bucket_unix_secs: u64,
    /// Decisions allowed in the bucket.
    pub allowed: u64,
    /// Decisions abstracted in the bucket.
    pub abstracted: u64,
    /// Decisions denied in the bucket.
    pub denied: u64,
}

/// Everything `/api/privacy/summary` and `/ui/privacy` present for one
/// contributor, assembled under a single lock acquisition.
#[derive(Clone, Debug, Default)]
pub struct ContributorSummary {
    /// The contributor's decision counts across all consumers.
    pub counts: OutcomeCounts,
    /// Channels withheld by the dependency-closure rule, totalled.
    pub suppressed_channels: u64,
    /// `unix_ms` of the newest decision observed.
    pub last_unix_ms: u64,
    /// The currently live rule-set epoch (0 when never reported).
    pub rule_epoch: u64,
    /// Rules in the current set.
    pub rule_count: u32,
    /// Per-consumer flows, busiest first.
    pub consumers: Vec<ConsumerFlow>,
    /// Rule hit rows, newest epoch first, rule index ascending.
    pub rule_hits: Vec<RuleHitRow>,
    /// Indices of current-epoch rules that have never matched.
    pub dead_rules: Vec<u32>,
    /// Consumers whose every decision was baseline-only.
    pub baseline_only_consumers: Vec<String>,
    /// Recent decision trend, oldest bucket first.
    pub trend: Vec<TrendPoint>,
    /// Hex SHA-256 of the plane's full canonical aggregate encoding —
    /// what an offline ledger replay must reproduce.
    pub digest: String,
    /// Decisions folded into the plane, read with `digest`: the length
    /// of the chain prefix a replay must cover to reproduce it.
    pub ledger_len: u64,
}

/// The live analytics plane: deterministic aggregates plus the live-only
/// rule-set metadata needed for posture findings, behind one mutex. Each
/// audit ledger owns one plane and is its only writer of decisions
/// ([`AwarenessPlane::fold`]); the datastore reports rule sets
/// ([`AwarenessPlane::note_rule_set`]) and reads summaries.
pub struct AwarenessPlane {
    state: Mutex<PlaneState>,
}

impl Default for AwarenessPlane {
    fn default() -> AwarenessPlane {
        AwarenessPlane::new()
    }
}

impl AwarenessPlane {
    /// An empty plane.
    pub fn new() -> AwarenessPlane {
        AwarenessPlane {
            state: Mutex::new(PlaneState {
                aggregates: AwarenessAggregates::new(),
                rules: BTreeMap::new(),
                dead: BTreeMap::new(),
                dead_total: 0,
            }),
        }
    }

    /// Folds decisions into the live aggregates, in the order given. The
    /// ledger that owns the plane calls this with the records it has made
    /// durable, in chain order; nothing else should.
    pub fn fold(&self, records: &[DecisionRecord]) {
        if records.is_empty() {
            return;
        }
        let mut state = self.state.lock();
        for (i, record) in records.iter().enumerate() {
            state.aggregates.observe(record);
            // Dead rules follow from the hits alone: refresh once at the
            // end of each run of one contributor's records.
            if records
                .get(i + 1)
                .is_none_or(|next| next.contributor != record.contributor)
            {
                state.refresh_dead(&record.contributor);
            }
        }
        let dead_total = state.dead_total;
        drop(state);
        dead_rules_gauge().set(dead_total as i64);
    }

    /// Reports that `contributor`'s rule set changed: `epoch` is now live
    /// with `rule_count` rules. Called by the datastore wherever rules are
    /// installed (API, web UI, replication adoption, journal recovery).
    pub fn note_rule_set(&self, contributor: &str, epoch: u64, rule_count: usize) {
        let mut state = self.state.lock();
        state.rules.insert(
            contributor.to_string(),
            RuleSetMeta {
                epoch,
                rule_count: rule_count.min(u32::MAX as usize) as u32,
            },
        );
        state.refresh_dead(contributor);
        let dead_total = state.dead_total;
        drop(state);
        dead_rules_gauge().set(dead_total as i64);
    }

    /// The live rule-set metadata for `contributor`, if ever reported.
    pub fn rule_meta(&self, contributor: &str) -> Option<RuleSetMeta> {
        self.state.lock().rules.get(contributor).copied()
    }

    /// Dead rules across every contributor (the gauge's current value).
    pub fn dead_rule_total(&self) -> u64 {
        self.state.lock().dead_total
    }

    /// A clone of the current aggregate state, for replay comparison.
    pub fn aggregates(&self) -> AwarenessAggregates {
        self.state.lock().aggregates.clone()
    }

    /// SHA-256 fingerprint of the live aggregates (see
    /// [`AwarenessAggregates::digest`]).
    pub fn digest(&self) -> [u8; 32] {
        self.state.lock().aggregates.digest()
    }

    /// Assembles the owner-facing summary for one contributor. Returns a
    /// zeroed summary (with live rule metadata and the plane digest) when
    /// no decision has mentioned them yet.
    pub fn contributor_summary(&self, contributor: &str) -> ContributorSummary {
        let state = self.state.lock();
        let meta = state.rules.get(contributor).copied().unwrap_or_default();
        let mut summary = ContributorSummary {
            rule_epoch: meta.epoch,
            rule_count: meta.rule_count,
            digest: hex(&state.aggregates.digest()),
            ledger_len: state.aggregates.total().total(),
            ..ContributorSummary::default()
        };
        if meta.rule_count > 0 {
            // Until a hit proves otherwise, every current rule is dead.
            summary.dead_rules = (0..meta.rule_count).collect();
        }
        let Some(c) = state.aggregates.contributor(contributor) else {
            return summary;
        };
        summary.counts = c.outcomes;
        summary.suppressed_channels = c.suppressed_channels;
        summary.last_unix_ms = c.last_unix_ms;
        summary.consumers = c
            .consumers
            .iter()
            .map(|(name, counts)| ConsumerFlow {
                consumer: name.clone(),
                counts: *counts,
                baseline_only: counts.total() > 0 && counts.baseline == counts.total(),
            })
            .collect();
        summary.consumers.sort_by(|a, b| {
            b.counts
                .total()
                .cmp(&a.counts.total())
                .then(a.consumer.cmp(&b.consumer))
        });
        summary.baseline_only_consumers = summary
            .consumers
            .iter()
            .filter(|f| f.baseline_only)
            .map(|f| f.consumer.clone())
            .collect();
        for (&epoch, rules) in c.rule_hits.iter().rev() {
            for (&rule, hit) in rules {
                summary.rule_hits.push(RuleHitRow {
                    epoch,
                    rule,
                    hits: hit.hits,
                    last_unix_ms: hit.last_unix_ms,
                    current: epoch == meta.epoch,
                });
            }
        }
        let current_hits = c.rule_hits.get(&meta.epoch);
        summary.dead_rules = (0..meta.rule_count)
            .filter(|rule| current_hits.is_none_or(|hits| !hits.contains_key(rule)))
            .collect();
        summary.trend = c
            .trend
            .iter()
            .map(
                |(&bucket_unix_secs, &[allowed, abstracted, denied])| TrendPoint {
                    bucket_unix_secs,
                    allowed,
                    abstracted,
                    denied,
                },
            )
            .collect();
        summary
    }
}

/// `map[key]`, inserted as `V::default()` first when absent: the key is
/// allocated only then, since the fold runs under its ledger's lock.
fn slot<'a, V: Default>(map: &'a mut BTreeMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

/// Lower-hex rendering of a digest.
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn dead_rules_gauge() -> Arc<crate::Gauge> {
    global().gauge(
        FAMILY_DEAD_RULES,
        "Current-epoch rules that have never matched a decision, across contributors.",
        &[],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        contributor: &str,
        consumer: &str,
        outcome: Outcome,
        matched: &[u32],
        epoch: u64,
        unix_ms: u64,
    ) -> DecisionRecord {
        DecisionRecord {
            seq: 0,
            unix_ms,
            trace_id: 0,
            rule_epoch: epoch,
            contributor: contributor.into(),
            consumer: consumer.into(),
            matched_rules: matched.to_vec(),
            outcome,
            suppressed_channels: if outcome == Outcome::Abstracted { 1 } else { 0 },
        }
    }

    #[test]
    fn live_and_rebuilt_aggregates_are_byte_identical() {
        let plane = AwarenessPlane::new();
        let records = vec![
            record("alice", "doctor", Outcome::Allowed, &[0], 1, 60_000),
            record("alice", "doctor", Outcome::Abstracted, &[1, 2], 1, 61_000),
            record("alice", "insurer", Outcome::Denied, &[], 1, 120_500),
            record("bob", "doctor", Outcome::Allowed, &[], 3, 180_000),
        ];
        // One batch and then one record at a time: the fold does not
        // depend on how the ledger groups its rounds, nor on `seq`.
        plane.fold(&records[..2]);
        for r in &records[2..] {
            plane.fold(std::slice::from_ref(r));
        }
        let mut replayed = records.clone();
        for (i, r) in replayed.iter_mut().enumerate() {
            r.seq = i as u64;
        }
        let rebuilt = AwarenessAggregates::rebuild(replayed.iter());
        assert_eq!(plane.aggregates(), rebuilt);
        assert_eq!(plane.digest(), rebuilt.digest());
        assert_eq!(plane.aggregates().encode(), rebuilt.encode());
    }

    #[test]
    fn summary_surfaces_flows_rules_and_trend() {
        let plane = AwarenessPlane::new();
        plane.note_rule_set("alice", 1, 3);
        plane.fold(&[record("alice", "doctor", Outcome::Allowed, &[0], 1, 60_000)]);
        plane.fold(&[record("alice", "doctor", Outcome::Allowed, &[0], 1, 60_500)]);
        plane.fold(&[record("alice", "insurer", Outcome::Denied, &[], 1, 121_000)]);
        let summary = plane.contributor_summary("alice");
        assert_eq!(summary.counts.total(), 3);
        assert_eq!(summary.counts.allowed, 2);
        assert_eq!(summary.counts.denied, 1);
        assert_eq!(summary.rule_epoch, 1);
        assert_eq!(summary.rule_count, 3);
        // Busiest consumer first.
        assert_eq!(summary.consumers[0].consumer, "doctor");
        assert!(!summary.consumers[0].baseline_only);
        // The insurer flow never matched a rule: baseline-only.
        assert_eq!(summary.baseline_only_consumers, vec!["insurer".to_string()]);
        // Rule 0 hit twice; rules 1 and 2 are dead.
        assert_eq!(summary.dead_rules, vec![1, 2]);
        assert_eq!(summary.rule_hits.len(), 1);
        assert_eq!(summary.rule_hits[0].rule, 0);
        assert_eq!(summary.rule_hits[0].hits, 2);
        assert_eq!(summary.rule_hits[0].last_unix_ms, 60_500);
        assert!(summary.rule_hits[0].current);
        assert_eq!(plane.dead_rule_total(), 2);
        // Two one-minute buckets: (allowed=2) then (denied=1).
        assert_eq!(summary.trend.len(), 2);
        assert_eq!(summary.trend[0].bucket_unix_secs, 60);
        assert_eq!(summary.trend[0].allowed, 2);
        assert_eq!(summary.trend[1].bucket_unix_secs, 120);
        assert_eq!(summary.trend[1].denied, 1);
    }

    #[test]
    fn epoch_bump_snapshots_old_attribution() {
        let plane = AwarenessPlane::new();
        plane.note_rule_set("alice", 1, 2);
        plane.fold(&[record("alice", "doctor", Outcome::Allowed, &[0], 1, 1_000)]);
        plane.note_rule_set("alice", 2, 2);
        // After the bump, old hits no longer count for the new epoch:
        // both rules are dead again.
        assert_eq!(plane.contributor_summary("alice").dead_rules, vec![0, 1]);
        plane.fold(&[record("alice", "doctor", Outcome::Allowed, &[1], 2, 2_000)]);
        let summary = plane.contributor_summary("alice");
        assert_eq!(summary.dead_rules, vec![0]);
        // Both attributions are visible, newest epoch first.
        assert_eq!(summary.rule_hits.len(), 2);
        assert_eq!(
            (summary.rule_hits[0].epoch, summary.rule_hits[0].rule),
            (2, 1)
        );
        assert!(summary.rule_hits[0].current);
        assert_eq!(
            (summary.rule_hits[1].epoch, summary.rule_hits[1].rule),
            (1, 0)
        );
        assert!(!summary.rule_hits[1].current);
    }

    #[test]
    fn epoch_retention_is_bounded_and_deterministic() {
        let mut a = AwarenessAggregates::new();
        let mut b = AwarenessAggregates::new();
        for epoch in 1..=(MAX_EPOCHS_RETAINED as u64 + 3) {
            let r = record(
                "alice",
                "doctor",
                Outcome::Allowed,
                &[0],
                epoch,
                epoch * 1000,
            );
            a.observe(&r);
            b.observe(&r);
        }
        let kept = &a.contributor("alice").unwrap().rule_hits;
        assert_eq!(kept.len(), MAX_EPOCHS_RETAINED);
        // The newest epochs survive.
        assert!(kept.contains_key(&(MAX_EPOCHS_RETAINED as u64 + 3)));
        assert!(!kept.contains_key(&1));
        assert_eq!(a, b);
    }

    #[test]
    fn scoped_decisions_reach_the_plane_through_the_ledger() {
        use crate::audit::{record_decision, DecisionScope};
        use crate::ledger::{AuditLedger, MemoryLedger};

        let ledger = Arc::new(MemoryLedger::new());
        let plane = ledger.awareness();
        plane.note_rule_set("alice", 7, 2);
        {
            let _installed = DecisionScope {
                consumer: "awareness-scope-consumer".to_string(),
                contributor: "alice".to_string(),
                rule_epoch: 7,
                ledger: ledger.clone(),
            }
            .install();
            record_decision(Outcome::Allowed, 0, &[0]);
            record_decision(Outcome::Denied, 0, &[]);
        }
        let records = ledger.recent(usize::MAX);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].rule_epoch, 7);
        let rebuilt = AwarenessAggregates::rebuild(records.iter());
        assert_eq!(plane.aggregates(), rebuilt);
        assert_eq!(plane.digest(), rebuilt.digest());
        let summary = plane.contributor_summary("alice");
        assert_eq!(summary.counts.allowed, 1);
        assert_eq!(summary.counts.denied, 1);
        assert_eq!(summary.counts.baseline, 1);
        assert_eq!(summary.dead_rules, vec![1]);
    }

    #[test]
    fn trend_keeps_the_newest_buckets_whatever_the_fold_order() {
        let newest = TREND_RING_BUCKETS as u64 + 2;
        let records: Vec<_> = (0..=newest)
            .map(|b| {
                let outcome =
                    [Outcome::Allowed, Outcome::Abstracted, Outcome::Denied][b as usize % 3];
                record(
                    "alice",
                    "doctor",
                    outcome,
                    &[],
                    1,
                    b * TREND_BUCKET_SECS * 1000,
                )
            })
            .collect();
        let forward = AwarenessAggregates::rebuild(records.iter());
        let trend = &forward.contributor("alice").unwrap().trend;
        assert_eq!(trend.len(), TREND_RING_BUCKETS);
        assert_eq!(trend.keys().next(), Some(&(3 * TREND_BUCKET_SECS)));
        assert_eq!(trend[&(newest * TREND_BUCKET_SECS)], [1, 0, 0]);
        // Two decisions in one bucket share its entry whichever comes
        // first, even with another bucket folded between them.
        let a = record("alice", "doctor", Outcome::Allowed, &[], 1, 60_000);
        let b = record("alice", "doctor", Outcome::Denied, &[], 1, 200_000);
        let c = record("alice", "doctor", Outcome::Denied, &[], 1, 61_000);
        let one = AwarenessAggregates::rebuild([&a, &b, &c]);
        let other = AwarenessAggregates::rebuild([&c, &a, &b]);
        assert_eq!(one, other);
        assert_eq!(one.contributor("alice").unwrap().trend[&60], [1, 0, 1]);
    }
}

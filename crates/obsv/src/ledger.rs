//! Tamper-evident audit ledger: the durable half of the accountability
//! story.
//!
//! Counters (see [`crate::audit`]) answer "how many times"; contributors
//! also deserve "exactly when, by whom, under which rule" — and that record
//! must survive restarts and resist after-the-fact editing. This module
//! defines the ledger's *content and integrity model*; file persistence
//! (frames synced before the head, on the ledger's own sync thread) lives
//! in the `store` crate's `FileLedger`, keeping obsv free of I/O policy.
//! The [`AuditLedger`] trait exposes durability as *request*
//! (`sync_begin`) and *wait* (`sync`) so a request handler can render its
//! reply while the disk works and still not release it before the wait.
//!
//! Integrity model: each [`DecisionRecord`] is encoded to a canonical
//! binary payload and hash-chained — `hash_i = SHA256(hash_{i-1} ||
//! payload_i)`, genesis all-zero. A frame on disk is
//! `u32 payload_len (LE) | payload | 32-byte hash`. [`verify_frames`]
//! recomputes the chain: any in-place byte flip breaks a hash (or tears a
//! frame), and any lost tail is caught against the expected [`ChainHead`]
//! (count + final hash), which the file backend persists in a sidecar.

use crate::audit::Outcome;
use crate::awareness::AwarenessPlane;
use parking_lot::Mutex;
use sensorsafe_auth::Sha256;

/// The all-zero hash the chain starts from.
pub const GENESIS_HASH: [u8; 32] = [0u8; 32];

/// One enforcement decision as remembered forever: who asked, whose data,
/// which rules fired, and what left the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Position in the chain (0-based), assigned by the ledger on append.
    pub seq: u64,
    /// Wall-clock time of the decision (ms since the Unix epoch).
    pub unix_ms: u64,
    /// The request tree that triggered enforcement (0 when untraced).
    pub trace_id: u64,
    /// The contributor's rule-set epoch that was live when the decision
    /// was made (0 when unknown). Awareness analytics attribute rule hits
    /// to the epoch so an epoch bump snapshots the old attribution.
    pub rule_epoch: u64,
    /// Whose data was decided over.
    pub contributor: String,
    /// Who asked for it.
    pub consumer: String,
    /// Indices (into the contributor's rule document) of the rules that
    /// matched this window, in evaluation order.
    pub matched_rules: Vec<u32>,
    /// What enforcement concluded.
    pub outcome: Outcome,
    /// Channels withheld by the dependency-closure rule.
    pub suppressed_channels: u64,
}

impl DecisionRecord {
    /// Canonical binary payload (what the hash chain covers).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.contributor.len() + self.consumer.len());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.unix_ms.to_le_bytes());
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.rule_epoch.to_le_bytes());
        encode_str(&mut out, &self.contributor);
        encode_str(&mut out, &self.consumer);
        out.push(match self.outcome {
            Outcome::Allowed => 0,
            Outcome::Abstracted => 1,
            Outcome::Denied => 2,
        });
        out.extend_from_slice(&self.suppressed_channels.to_le_bytes());
        out.extend_from_slice(&(self.matched_rules.len() as u16).to_le_bytes());
        for idx in &self.matched_rules {
            out.extend_from_slice(&idx.to_le_bytes());
        }
        out
    }

    /// Decodes a payload produced by [`DecisionRecord::encode`].
    pub fn decode(payload: &[u8]) -> Result<DecisionRecord, LedgerError> {
        let mut cursor = Cursor {
            bytes: payload,
            pos: 0,
        };
        let seq = cursor.u64()?;
        let unix_ms = cursor.u64()?;
        let trace_id = cursor.u64()?;
        let rule_epoch = cursor.u64()?;
        let contributor = cursor.string()?;
        let consumer = cursor.string()?;
        let outcome = match cursor.u8()? {
            0 => Outcome::Allowed,
            1 => Outcome::Abstracted,
            2 => Outcome::Denied,
            tag => return Err(LedgerError::Decode(format!("bad outcome tag {tag}"))),
        };
        let suppressed_channels = cursor.u64()?;
        let matched = cursor.u16()? as usize;
        let mut matched_rules = Vec::with_capacity(matched.min(1024));
        for _ in 0..matched {
            matched_rules.push(cursor.u32()?);
        }
        if cursor.pos != payload.len() {
            return Err(LedgerError::Decode("trailing payload bytes".into()));
        }
        Ok(DecisionRecord {
            seq,
            unix_ms,
            trace_id,
            rule_epoch,
            contributor,
            consumer,
            matched_rules,
            outcome,
            suppressed_channels,
        })
    }
}

fn encode_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], LedgerError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| LedgerError::Decode("payload too short".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, LedgerError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, LedgerError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, LedgerError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, LedgerError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn string(&mut self) -> Result<String, LedgerError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| LedgerError::Decode("non-UTF-8 string".into()))
    }
}

/// Why a ledger failed to verify (or load).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LedgerError {
    /// A frame was cut short — mid-frame truncation or a corrupted length.
    Torn { offset: usize },
    /// A record's stored hash does not match the recomputed chain: the
    /// bytes were edited after being written.
    HashMismatch { seq: u64 },
    /// The payload bytes hash correctly but do not parse.
    Decode(String),
    /// The chain ends early or on the wrong hash vs. the recorded head —
    /// whole records were removed from the tail (or the head is stale).
    HeadMismatch { expected: u64, found: u64 },
    /// Underlying I/O failure (file backend).
    Io(String),
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::Torn { offset } => write!(f, "torn ledger frame at byte {offset}"),
            LedgerError::HashMismatch { seq } => {
                write!(f, "hash chain broken at record {seq} (tampered)")
            }
            LedgerError::Decode(msg) => write!(f, "undecodable ledger record: {msg}"),
            LedgerError::HeadMismatch { expected, found } => write!(
                f,
                "ledger truncated: head records {expected}, file has {found}"
            ),
            LedgerError::Io(msg) => write!(f, "ledger i/o error: {msg}"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// The chain's expected end state: how many records and the final hash.
/// The file backend persists this in a sidecar so tail truncation of the
/// ledger file itself is detectable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainHead {
    pub count: u64,
    pub hash: [u8; 32],
}

impl ChainHead {
    /// The head of an empty chain.
    pub fn genesis() -> ChainHead {
        ChainHead {
            count: 0,
            hash: GENESIS_HASH,
        }
    }

    /// 40-byte sidecar encoding.
    pub fn encode(&self) -> [u8; 40] {
        let mut out = [0u8; 40];
        out[..8].copy_from_slice(&self.count.to_le_bytes());
        out[8..].copy_from_slice(&self.hash);
        out
    }

    /// Decodes a sidecar written by [`ChainHead::encode`].
    pub fn decode(bytes: &[u8]) -> Result<ChainHead, LedgerError> {
        if bytes.len() != 40 {
            return Err(LedgerError::Decode(format!(
                "chain head must be 40 bytes, got {}",
                bytes.len()
            )));
        }
        let mut hash = [0u8; 32];
        hash.copy_from_slice(&bytes[8..]);
        Ok(ChainHead {
            count: u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            hash,
        })
    }
}

/// `SHA256(prev || payload)` — one link of the chain.
pub fn chain_hash(prev: &[u8; 32], payload: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(prev);
    hasher.update(payload);
    hasher.finalize()
}

/// Appends one framed record (`u32 len | payload | hash`) to `out`,
/// returning the new chain hash.
pub fn encode_frame(out: &mut Vec<u8>, prev: &[u8; 32], record: &DecisionRecord) -> [u8; 32] {
    let payload = record.encode();
    let hash = chain_hash(prev, &payload);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&hash);
    hash
}

/// Walks a ledger byte image, recomputing the hash chain, and returns the
/// records it attests to. With `expected` (the persisted [`ChainHead`]),
/// tail truncation at frame granularity is also detected; without it, only
/// in-place tampering and torn frames are.
pub fn verify_frames(
    bytes: &[u8],
    expected: Option<&ChainHead>,
) -> Result<Vec<DecisionRecord>, LedgerError> {
    let mut records = Vec::new();
    let mut prev = GENESIS_HASH;
    let mut pos = 0usize;
    while pos < bytes.len() {
        if pos + 4 > bytes.len() {
            return Err(LedgerError::Torn { offset: pos });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let payload_start = pos + 4;
        let hash_start = payload_start
            .checked_add(len)
            .ok_or(LedgerError::Torn { offset: pos })?;
        let frame_end = hash_start
            .checked_add(32)
            .ok_or(LedgerError::Torn { offset: pos })?;
        if frame_end > bytes.len() {
            return Err(LedgerError::Torn { offset: pos });
        }
        let payload = &bytes[payload_start..hash_start];
        let stored: [u8; 32] = bytes[hash_start..frame_end].try_into().unwrap();
        let computed = chain_hash(&prev, payload);
        if stored != computed {
            return Err(LedgerError::HashMismatch {
                seq: records.len() as u64,
            });
        }
        let record = DecisionRecord::decode(payload)?;
        if record.seq != records.len() as u64 {
            return Err(LedgerError::Decode(format!(
                "record claims seq {} at position {}",
                record.seq,
                records.len()
            )));
        }
        records.push(record);
        prev = computed;
        pos = frame_end;
    }
    if let Some(head) = expected {
        if head.count != records.len() as u64 || head.hash != prev {
            return Err(LedgerError::HeadMismatch {
                expected: head.count,
                found: records.len() as u64,
            });
        }
    }
    Ok(records)
}

fn appends_counter() -> std::sync::Arc<crate::Counter> {
    crate::global().counter(
        "sensorsafe_audit_ledger_appends_total",
        "Enforcement decisions appended to an audit ledger.",
        &[],
    )
}

/// A pushed-down ledger query: which records to match and how large a
/// page to materialize. Matching happens inside the backend so a page
/// view never clones the whole ledger (the old `/ui/audit` bug).
#[derive(Clone, Debug, Default)]
pub struct AuditFilter {
    /// Only records for this contributor (all contributors when `None`).
    pub contributor: Option<String>,
    /// Only records for this consumer.
    pub consumer: Option<String>,
    /// Only records with `unix_ms >= from_ms`.
    pub from_ms: Option<u64>,
    /// Only records with `unix_ms <= to_ms`.
    pub to_ms: Option<u64>,
    /// Only records with `seq < before` — the pagination cursor: pass the
    /// oldest seq of the previous page to walk backwards in time.
    pub before: Option<u64>,
    /// Maximum records to materialize (the newest matches win).
    pub limit: usize,
}

impl AuditFilter {
    /// Whether `record` passes every set criterion.
    pub fn matches(&self, record: &DecisionRecord) -> bool {
        if let Some(c) = &self.contributor {
            if &record.contributor != c {
                return false;
            }
        }
        if let Some(c) = &self.consumer {
            if &record.consumer != c {
                return false;
            }
        }
        if let Some(from) = self.from_ms {
            if record.unix_ms < from {
                return false;
            }
        }
        if let Some(to) = self.to_ms {
            if record.unix_ms > to {
                return false;
            }
        }
        if let Some(before) = self.before {
            if record.seq >= before {
                return false;
            }
        }
        true
    }
}

/// One page of ledger query results.
#[derive(Clone, Debug, Default)]
pub struct AuditPage {
    /// The newest `limit` matching records, oldest first (same ordering
    /// as [`AuditLedger::recent`]).
    pub records: Vec<DecisionRecord>,
    /// Total records matching the filter's contributor/consumer/time
    /// criteria, ignoring `before` and `limit` — lets callers say
    /// "showing 50 of 1,204".
    pub matched: u64,
}

/// Shared backend implementation of [`AuditLedger::page`] for backends
/// that mirror records in memory: one backward scan, cloning only the
/// records that land in the page.
pub fn page_records(records: &[DecisionRecord], filter: &AuditFilter) -> AuditPage {
    let mut page = Vec::new();
    let mut matched = 0u64;
    let unpaged = AuditFilter {
        before: None,
        limit: 0,
        ..filter.clone()
    };
    for record in records.iter().rev() {
        if !unpaged.matches(record) {
            continue;
        }
        matched += 1;
        if page.len() < filter.limit && filter.before.is_none_or(|b| record.seq < b) {
            page.push(record.clone());
        }
    }
    page.reverse();
    AuditPage {
        records: page,
        matched,
    }
}

/// Where the ledger's decision stream is persisted and queried from.
/// `append` assigns the record's `seq` and returns it; callers must not
/// set `seq` themselves. Durability is backend-defined: `sync` is the
/// point after which appended records must survive a crash (a no-op for
/// the in-memory backend). A caller with work to do in the meantime
/// splits it in two — `sync_begin` right after its last append, `sync`
/// when it needs the guarantee — and a backend that syncs off-thread
/// overlaps the two.
///
/// Each ledger owns the [`AwarenessPlane`] of the decisions it holds and
/// is that plane's only input: it folds records in once they are
/// durable (by the backend's definition), in chain order, so the plane
/// equals a rebuild of the chain after every `sync`.
pub trait AuditLedger: Send + Sync {
    /// Appends one decision, assigning and returning its chain position.
    fn append(&self, record: DecisionRecord) -> u64;
    /// Asks the backend to start making every appended record durable
    /// and returns without waiting; `sync` is still what guarantees it.
    /// A no-op for backends that have nothing to start early.
    fn sync_begin(&self) {}
    /// Returns only once every record appended before the call is
    /// durable, or the backend has failed (see `sync_error`).
    fn sync(&self);
    /// The sticky I/O failure of a backend that can no longer make
    /// records durable (`None` for healthy and volatile ledgers).
    fn sync_error(&self) -> Option<String> {
        None
    }
    /// Records appended so far.
    fn len(&self) -> u64;
    /// Whether no record has been appended yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The newest `limit` records, oldest first.
    fn recent(&self, limit: usize) -> Vec<DecisionRecord>;
    /// Filtered, limited page of records — matching runs inside the
    /// backend so callers never materialize the whole ledger.
    fn page(&self, filter: &AuditFilter) -> AuditPage;
    /// The sharing-awareness plane this ledger folds its durable
    /// records into.
    fn awareness(&self) -> &AwarenessPlane;
}

/// Volatile ledger for memory-only stores and tests: same chain-position
/// semantics as the file backend, no durability. An appended record
/// counts as durable, so `append` folds it into the plane.
#[derive(Default)]
pub struct MemoryLedger {
    records: Mutex<Vec<DecisionRecord>>,
    awareness: AwarenessPlane,
}

impl MemoryLedger {
    pub fn new() -> MemoryLedger {
        MemoryLedger::default()
    }
}

impl AuditLedger for MemoryLedger {
    fn append(&self, mut record: DecisionRecord) -> u64 {
        let mut records = self.records.lock();
        record.seq = records.len() as u64;
        let seq = record.seq;
        // Under the records lock, so the fold follows chain order.
        self.awareness.fold(std::slice::from_ref(&record));
        records.push(record);
        appends_counter().inc();
        seq
    }

    fn sync(&self) {}

    fn len(&self) -> u64 {
        self.records.lock().len() as u64
    }

    fn recent(&self, limit: usize) -> Vec<DecisionRecord> {
        let records = self.records.lock();
        let skip = records.len().saturating_sub(limit);
        records[skip..].to_vec()
    }

    fn page(&self, filter: &AuditFilter) -> AuditPage {
        page_records(&self.records.lock(), filter)
    }

    fn awareness(&self) -> &AwarenessPlane {
        &self.awareness
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, consumer: &str) -> DecisionRecord {
        DecisionRecord {
            seq,
            unix_ms: 1_700_000_000_000 + seq,
            trace_id: 0xfeed_0000 + seq,
            rule_epoch: 1 + seq / 4,
            contributor: "alice".into(),
            consumer: consumer.into(),
            matched_rules: vec![0, 3],
            outcome: Outcome::Abstracted,
            suppressed_channels: 2,
        }
    }

    fn chain(n: u64) -> (Vec<u8>, ChainHead) {
        let mut bytes = Vec::new();
        let mut prev = GENESIS_HASH;
        for seq in 0..n {
            prev = encode_frame(&mut bytes, &prev, &record(seq, "bob"));
        }
        (
            bytes,
            ChainHead {
                count: n,
                hash: prev,
            },
        )
    }

    #[test]
    fn record_roundtrips() {
        let original = record(7, "bob");
        let decoded = DecisionRecord::decode(&original.encode()).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn empty_strings_and_rules_roundtrip() {
        let original = DecisionRecord {
            seq: 0,
            unix_ms: 0,
            trace_id: 0,
            rule_epoch: 0,
            contributor: String::new(),
            consumer: String::new(),
            matched_rules: vec![],
            outcome: Outcome::Denied,
            suppressed_channels: 0,
        };
        assert_eq!(
            DecisionRecord::decode(&original.encode()).unwrap(),
            original
        );
    }

    #[test]
    fn intact_chain_verifies_to_its_records() {
        let (bytes, head) = chain(5);
        let records = verify_frames(&bytes, Some(&head)).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[4], record(4, "bob"));
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let (bytes, head) = chain(3);
        for i in 0..bytes.len() {
            let mut tampered = bytes.clone();
            tampered[i] ^= 0x40;
            assert!(
                verify_frames(&tampered, Some(&head)).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let (bytes, head) = chain(3);
        // Every proper prefix fails: mid-frame cuts are torn, frame-aligned
        // cuts miss the head.
        for cut in 0..bytes.len() {
            assert!(
                verify_frames(&bytes[..cut], Some(&head)).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn frame_aligned_truncation_needs_the_head() {
        let (bytes, _head) = chain(3);
        let (two, head_two) = chain(2);
        // Without an expected head, dropping the last record still verifies
        // (it is a valid shorter chain) — which is exactly why the file
        // backend persists the head sidecar.
        assert_eq!(verify_frames(&two, None).unwrap().len(), 2);
        assert_eq!(bytes[..two.len()], two[..]);
        assert!(verify_frames(&two, Some(&head_two)).is_ok());
    }

    #[test]
    fn chain_head_roundtrips() {
        let (_, head) = chain(4);
        assert_eq!(ChainHead::decode(&head.encode()).unwrap(), head);
        assert!(ChainHead::decode(&[0u8; 39]).is_err());
    }

    #[test]
    fn memory_ledger_assigns_sequence_and_serves_recent() {
        let ledger = MemoryLedger::new();
        for i in 0..10 {
            let assigned = ledger.append(record(999, &format!("c{i}")));
            assert_eq!(assigned, i);
        }
        assert_eq!(ledger.len(), 10);
        let recent = ledger.recent(3);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].consumer, "c7");
        assert_eq!(recent[2].consumer, "c9");
        assert_eq!(recent[2].seq, 9);
    }

    #[test]
    fn page_filters_limits_and_paginates_without_full_scans() {
        let ledger = MemoryLedger::new();
        for i in 0..20u64 {
            let mut r = record(0, if i % 2 == 0 { "bob" } else { "carol" });
            r.contributor = if i % 4 == 0 {
                "dana".into()
            } else {
                "alice".into()
            };
            ledger.append(r);
        }
        // Contributor filter + limit: the newest matches win, oldest first.
        let page = ledger.page(&AuditFilter {
            contributor: Some("alice".into()),
            limit: 5,
            ..AuditFilter::default()
        });
        assert_eq!(page.matched, 15);
        assert_eq!(page.records.len(), 5);
        assert!(page.records.iter().all(|r| r.contributor == "alice"));
        assert!(page.records.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(page.records.last().unwrap().seq, 19);

        // Pagination cursor: `before` pages backwards while `matched`
        // still reports the full filtered population.
        let oldest = page.records.first().unwrap().seq;
        let older = ledger.page(&AuditFilter {
            contributor: Some("alice".into()),
            before: Some(oldest),
            limit: 5,
            ..AuditFilter::default()
        });
        assert_eq!(older.matched, 15);
        assert_eq!(older.records.len(), 5);
        assert!(older.records.iter().all(|r| r.seq < oldest));

        // Consumer filter composes.
        let bob = ledger.page(&AuditFilter {
            contributor: Some("alice".into()),
            consumer: Some("bob".into()),
            limit: 100,
            ..AuditFilter::default()
        });
        assert_eq!(bob.matched as usize, bob.records.len());
        assert!(bob
            .records
            .iter()
            .all(|r| r.consumer == "bob" && r.contributor == "alice"));
    }
}

//! The segment store: time-ordered series, merge optimizer, query engine.

use crate::codec::CodecError;
use crate::journal::{JournalTicket, StoreJournal};
use crate::query::Query;
use crate::repl::{ReplBuffer, ReplConfig, SealedBatch};
use crate::wal::{WalError, WalRecord};
use sensorsafe_types::{ChannelSpec, ContextAnnotation, TimeRange, WaveSegment};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How many recent upload idempotency tokens a store remembers. Bounds
/// both memory and a checkpoint's bookkeeping tail; a client retry
/// older than the last 256 uploads re-stores (acceptable: the retry
/// window is seconds, not hundreds of uploads).
const UPLOAD_TOKEN_CAP: usize = 256;

/// Configuration of the §5.1 merge optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePolicy {
    /// Whether ingest attempts to merge consecutive segments at all.
    pub enabled: bool,
    /// Stop growing a merged segment beyond this many samples (bounds
    /// the cost of copying on each merge and the granularity of query
    /// slicing).
    pub max_rows: usize,
}

impl Default for MergePolicy {
    /// Merging on, capped at 8192 samples per segment (about 2¾ minutes
    /// of 50 Hz ECG) — the sweet spot found by the A1 ablation bench.
    fn default() -> Self {
        MergePolicy {
            enabled: true,
            max_rows: 8192,
        }
    }
}

impl MergePolicy {
    /// Disables merging (the paper's "too many wave segments" regime,
    /// used as the A1 baseline).
    pub fn disabled() -> MergePolicy {
        MergePolicy {
            enabled: false,
            max_rows: 0,
        }
    }
}

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Durability layer failed.
    Wal(WalError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Wal(e) => write!(f, "store WAL error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<WalError> for StoreError {
    fn from(e: WalError) -> Self {
        StoreError::Wal(e)
    }
}

/// Counters exposed for tests, benches, and the web UI's status page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Live segments (post-merge).
    pub segments: usize,
    /// Total samples across all segments.
    pub samples: usize,
    /// Approximate resident bytes of segment data.
    pub approx_bytes: usize,
    /// Segments absorbed by the merge optimizer.
    pub merges: usize,
    /// Context annotations stored.
    pub annotations: usize,
}

/// Where a store's records go to become durable.
enum Durability {
    /// Nowhere: in-memory only (tests, benches, memory-only servers).
    None,
    /// The data store's shared [`StoreJournal`], staging under this
    /// account's name.
    Journal {
        journal: Arc<StoreJournal>,
        account: String,
    },
}

impl Durability {
    fn stage(&self, record: &WalRecord) -> Result<(), WalError> {
        match self {
            Durability::None => Ok(()),
            Durability::Journal { journal, account } => journal.stage(account, record).map(|_| ()),
        }
    }
}

/// One series: segments sharing a channel format, ordered by start time.
#[derive(Debug, Default)]
struct Series {
    /// Keyed by (start ms, insertion sequence) — the sequence breaks ties
    /// between distinct segments with equal starts.
    segments: BTreeMap<(i64, u64), WaveSegment>,
}

fn format_key(format: &[ChannelSpec]) -> String {
    let mut key = String::new();
    for spec in format {
        key.push_str(spec.channel.as_str());
        key.push(':');
        key.push_str(spec.kind.as_str());
        key.push('|');
    }
    key
}

/// The embedded storage engine of one remote data store.
pub struct SegmentStore {
    series: BTreeMap<String, Series>,
    annotations: Vec<ContextAnnotation>,
    policy: MergePolicy,
    durability: Durability,
    seq: u64,
    merges: usize,
    /// Shipping buffer when this store is a replicated primary.
    repl: Option<ReplBuffer>,
    /// Highest replication batch sequence durably applied when this
    /// store is a replica (0 = none). Persisted via
    /// [`WalRecord::ReplApplied`] so restarts keep shipping idempotent.
    repl_applied: u64,
    /// The broker-assigned store epoch for this contributor's data
    /// (0 = never assigned). Persisted via [`WalRecord::AssignEpoch`].
    assignment_epoch: u64,
    /// Whether this store is fenced at `assignment_epoch` (a deposed
    /// primary). Persisted with the epoch so a fence survives restart.
    fenced: bool,
    /// Recent upload idempotency tokens with the response each
    /// produced, oldest first, capped at [`UPLOAD_TOKEN_CAP`].
    upload_tokens: VecDeque<(Vec<u8>, u32, u32)>,
}

impl SegmentStore {
    /// An in-memory store (no durability), used by tests and benches.
    pub fn in_memory(policy: MergePolicy) -> SegmentStore {
        SegmentStore {
            series: BTreeMap::new(),
            annotations: Vec::new(),
            policy,
            durability: Durability::None,
            seq: 0,
            merges: 0,
            repl: None,
            repl_applied: 0,
            assignment_epoch: 0,
            fenced: false,
            upload_tokens: VecDeque::new(),
        }
    }

    /// Opens a store backed by the shared [`StoreJournal`], applying
    /// `recovered` — the record stream the journal
    /// recovered for this account
    /// ([`StoreJournal::take_account`](crate::StoreJournal::take_account)),
    /// empty for a brand-new account. Future inserts stage on the
    /// journal under `account`; durability comes from the store-wide
    /// commit thread, so a fleet of accounts shares each fsync.
    pub fn open_journal(
        journal: Arc<StoreJournal>,
        account: impl Into<String>,
        policy: MergePolicy,
        recovered: Vec<WalRecord>,
    ) -> SegmentStore {
        let mut store = SegmentStore::in_memory(policy);
        for record in recovered {
            store.apply_replay_record(record);
        }
        store.annotations.sort_by_key(|a| a.window.start);
        store.durability = Durability::Journal {
            journal,
            account: account.into(),
        };
        store
    }

    /// Applies one replayed log record to in-memory state.
    fn apply_replay_record(&mut self, record: WalRecord) {
        match record {
            WalRecord::Segment(seg) if !seg.is_empty() => self.insert_segment_inner(seg),
            WalRecord::Segment(_) => {}
            WalRecord::Annotation(ann) => self.annotations.push(ann),
            WalRecord::ReplApplied(seq) => {
                self.repl_applied = self.repl_applied.max(seq);
            }
            WalRecord::AssignEpoch { epoch, fenced } => {
                self.assignment_epoch = epoch;
                self.fenced = fenced;
            }
            WalRecord::ReplBatch { seq, records } => {
                for nested in records {
                    match nested {
                        WalRecord::Segment(seg) if !seg.is_empty() => {
                            self.insert_segment_inner(seg)
                        }
                        WalRecord::Segment(_) => {}
                        WalRecord::Annotation(ann) => self.annotations.push(ann),
                        _ => unreachable!("WAL decode rejects bookkeeping inside a batch"),
                    }
                }
                self.repl_applied = self.repl_applied.max(seq);
            }
            WalRecord::UploadToken {
                token,
                stored,
                annotated,
            } => self.push_upload_token(token, stored, annotated),
            // A durable account wipe: data state resets, the
            // assignment epoch/fence survive (a reset must not unfence
            // a deposed primary).
            WalRecord::AccountReset => {
                self.series.clear();
                self.annotations.clear();
                self.seq = 0;
                self.merges = 0;
                self.repl_applied = 0;
                self.upload_tokens.clear();
            }
        }
    }

    /// Inserts a segment, staging it on the journal and running the merge
    /// optimizer. Empty segments are ignored. Staged records become
    /// durable on the next group commit — take a
    /// [`SegmentStore::commit_ticket`] and wait on it (or call
    /// [`SegmentStore::sync`]) before acking the write.
    pub fn insert_segment(&mut self, segment: WaveSegment) -> Result<(), StoreError> {
        if segment.is_empty() {
            return Ok(());
        }
        self.durability
            .stage(&WalRecord::Segment(segment.clone()))?;
        if let Some(repl) = &mut self.repl {
            repl.observe(WalRecord::Segment(segment.clone()));
        }
        self.insert_segment_inner(segment);
        Ok(())
    }

    fn insert_segment_inner(&mut self, segment: WaveSegment) {
        let key = format_key(&segment.meta().format);
        let series = self.series.entry(key).or_default();
        let start = segment
            .start_time()
            .expect("empty segments filtered at insert")
            .millis();
        // Merge attempt: the predecessor segment in time order.
        if self.policy.enabled {
            if let Some((&pred_key, pred)) = series.segments.range(..(start, u64::MAX)).next_back()
            {
                if pred.len() + segment.len() <= self.policy.max_rows && pred.can_merge(&segment) {
                    let merged = pred.merge(&segment);
                    series.segments.remove(&pred_key);
                    series.segments.insert(pred_key, merged);
                    self.merges += 1;
                    sensorsafe_obsv::global()
                        .counter(
                            "sensorsafe_store_segment_merges_total",
                            "Adjacent-segment merges performed by the merge optimizer.",
                            &[],
                        )
                        .inc();
                    return;
                }
            }
        }
        self.seq += 1;
        series.segments.insert((start, self.seq), segment);
    }

    /// Stores a context annotation (staged on the journal like segments;
    /// see [`SegmentStore::insert_segment`] for durability).
    pub fn insert_annotation(&mut self, annotation: ContextAnnotation) -> Result<(), StoreError> {
        self.durability
            .stage(&WalRecord::Annotation(annotation.clone()))?;
        if let Some(repl) = &mut self.repl {
            repl.observe(WalRecord::Annotation(annotation.clone()));
        }
        // Keep sorted by window start (inserts are usually appends).
        let pos = self
            .annotations
            .partition_point(|a| a.window.start <= annotation.window.start);
        self.annotations.insert(pos, annotation);
        Ok(())
    }

    /// Waits until every staged log record is on disk (the wait is what
    /// cuts the commit). When this returns `Ok`, all prior inserts are
    /// durable.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        match &self.durability {
            Durability::None => Ok(()),
            Durability::Journal { journal, .. } => Ok(journal.flush()?),
        }
    }

    /// A ticket covering every record staged so far on this store's
    /// journal, or `None` for in-memory stores. Take it under the account
    /// lock, release the lock, then [`JournalTicket::wait`] — the
    /// stage-then-wait upload path that keeps fsync latency off the
    /// account lock (one shared fsync may resolve many accounts' tickets).
    /// Only a wait commits staged records: a dropped ticket leaves them
    /// for somebody else's wait.
    #[must_use = "staged records commit only when a wait asks for them"]
    pub fn commit_ticket(&self) -> Option<JournalTicket> {
        match &self.durability {
            Durability::None => None,
            Durability::Journal { journal, .. } => Some(journal.ticket()),
        }
    }

    /// Turns this store into a replicated primary: all current state is
    /// snapshotted into the shipping buffer (so a fresh replica catches
    /// up segment-by-segment) and every future insert is observed too
    /// (tailing the live stream). Idempotent: enabling twice keeps the
    /// existing buffer and its ack state.
    pub fn enable_replication(&mut self, config: ReplConfig) {
        if self.repl.is_some() {
            return;
        }
        self.repl = Some(self.snapshot_buffer(config));
    }

    /// A fresh shipping buffer seeded with a full snapshot of the
    /// current (merged) state, sealed and numbered from sequence 1.
    fn snapshot_buffer(&self, config: ReplConfig) -> ReplBuffer {
        let mut buffer = ReplBuffer::new(config);
        for series in self.series.values() {
            for seg in series.segments.values() {
                buffer.observe(WalRecord::Segment(seg.clone()));
            }
        }
        for ann in &self.annotations {
            buffer.observe(WalRecord::Annotation(ann.clone()));
        }
        buffer.seal_open();
        buffer
    }

    /// Replaces the shipping buffer with a fresh full snapshot (sequence
    /// restarts at 1). The shipper calls this after wiping a divergent
    /// replica via `/repl/reset`: the replica's high-water is back at 0,
    /// so the stream and the snapshot renumber together. No-op without
    /// replication.
    pub fn repl_resnapshot(&mut self) {
        if let Some(config) = self.repl.as_ref().map(ReplBuffer::config) {
            self.repl = Some(self.snapshot_buffer(config));
        }
    }

    /// Whether [`SegmentStore::enable_replication`] has been called.
    pub fn repl_enabled(&self) -> bool {
        self.repl.is_some()
    }

    /// Seals the open replication batch so the live tail ships promptly
    /// (the shipper calls this each pass). No-op without replication.
    pub fn repl_seal(&mut self) {
        if let Some(repl) = &mut self.repl {
            repl.seal_open();
        }
    }

    /// Up to `max` sealed-but-unacked replication batches, in sequence
    /// order. Empty without replication.
    pub fn repl_peek(&self, max: usize) -> Vec<SealedBatch> {
        self.repl
            .as_ref()
            .map(|r| r.peek_unshipped(max))
            .unwrap_or_default()
    }

    /// Records the replica's durable high-water mark, dropping every
    /// sealed batch at or below `seq` (see [`ReplBuffer::ack`]).
    pub fn repl_ack(&mut self, seq: u64) {
        if let Some(repl) = &mut self.repl {
            repl.ack(seq);
        }
    }

    /// Replication batches not yet acked by the replica (0 without
    /// replication).
    pub fn repl_pending(&self) -> usize {
        self.repl.as_ref().map(ReplBuffer::pending).unwrap_or(0)
    }

    /// Highest replication batch sequence this store has durably
    /// applied as a replica (0 = none).
    pub fn repl_applied(&self) -> u64 {
        self.repl_applied
    }

    /// Highest replication batch sequence the replica has acked (0
    /// without replication). The shipper compares this against the
    /// replica's reported `repl_applied` to detect divergence after a
    /// primary restart.
    pub fn repl_acked_seq(&self) -> u64 {
        self.repl.as_ref().map(ReplBuffer::acked_seq).unwrap_or(0)
    }

    /// Records that a replication batch up to `seq` has been applied,
    /// staging a [`WalRecord::ReplApplied`] mark so the high-water
    /// survives restart. The mark becomes durable with the batch's
    /// records on the next group commit (same ticket).
    pub fn note_repl_applied(&mut self, seq: u64) -> Result<(), StoreError> {
        if seq <= self.repl_applied {
            return Ok(());
        }
        self.durability.stage(&WalRecord::ReplApplied(seq))?;
        self.repl_applied = seq;
        Ok(())
    }

    /// Applies one shipped replication batch **atomically**: the whole
    /// batch is staged as a single [`WalRecord::ReplBatch`] frame (the
    /// records *and* the high-water advance either both survive a crash
    /// or neither does), then applied in memory. Returns `Ok(false)`
    /// without touching anything when `seq` is at or below the durable
    /// high-water (an idempotent re-send), `Ok(true)` when applied.
    /// Rejects batches carrying bookkeeping records.
    pub fn apply_repl_batch(
        &mut self,
        seq: u64,
        records: Vec<WalRecord>,
    ) -> Result<bool, StoreError> {
        if seq <= self.repl_applied {
            return Ok(false);
        }
        if records
            .iter()
            .any(|r| !matches!(r, WalRecord::Segment(_) | WalRecord::Annotation(_)))
        {
            return Err(StoreError::Wal(WalError::Codec(CodecError(
                "replication batch may only carry data records".into(),
            ))));
        }
        self.durability.stage(&WalRecord::ReplBatch {
            seq,
            records: records.clone(),
        })?;
        for record in records {
            match record {
                WalRecord::Segment(seg) => {
                    if seg.is_empty() {
                        continue;
                    }
                    if let Some(repl) = &mut self.repl {
                        repl.observe(WalRecord::Segment(seg.clone()));
                    }
                    self.insert_segment_inner(seg);
                }
                WalRecord::Annotation(ann) => {
                    if let Some(repl) = &mut self.repl {
                        repl.observe(WalRecord::Annotation(ann.clone()));
                    }
                    let pos = self
                        .annotations
                        .partition_point(|a| a.window.start <= ann.window.start);
                    self.annotations.insert(pos, ann);
                }
                _ => unreachable!("validated above"),
            }
        }
        self.repl_applied = seq;
        Ok(true)
    }

    /// The broker-assigned store epoch for this contributor (0 = never
    /// assigned).
    pub fn assignment_epoch(&self) -> u64 {
        self.assignment_epoch
    }

    /// Whether this store is fenced (a deposed primary that must reject
    /// contributor writes and stale replication frames).
    pub fn fenced(&self) -> bool {
        self.fenced
    }

    /// Records a broker assignment-epoch transition, staging a
    /// [`WalRecord::AssignEpoch`] mark so a fence survives restart.
    /// No-op when nothing changes. The caller decides monotonicity (the
    /// service CAS-forwards epochs); this just persists the outcome —
    /// ack it only after a commit ticket covering the mark resolves.
    pub fn note_assignment(&mut self, epoch: u64, fenced: bool) -> Result<(), StoreError> {
        if self.assignment_epoch == epoch && self.fenced == fenced {
            return Ok(());
        }
        self.durability
            .stage(&WalRecord::AssignEpoch { epoch, fenced })?;
        self.assignment_epoch = epoch;
        self.fenced = fenced;
        Ok(())
    }

    /// Wipes this store's data state for a replication resync: series,
    /// annotations, the apply high-water, and remembered upload tokens
    /// all reset; the assignment epoch/fence are **kept** (a reset must
    /// not unfence a store). The wipe is durable before this returns: a
    /// [`WalRecord::AccountReset`] marker is staged and flushed, so a
    /// crash mid-resync replays the wipe instead of resurrecting the
    /// wiped records.
    pub fn repl_reset(&mut self) -> Result<(), StoreError> {
        self.series.clear();
        self.annotations.clear();
        self.seq = 0;
        self.merges = 0;
        self.repl_applied = 0;
        self.upload_tokens.clear();
        if let Some(config) = self.repl.as_ref().map(ReplBuffer::config) {
            self.repl = Some(ReplBuffer::new(config));
        }
        self.durability.stage(&WalRecord::AccountReset)?;
        self.sync()
    }

    /// Seals the open replication batch and returns the shipping head —
    /// the highest sealed batch sequence (0 with nothing sealed or
    /// replication off). The journal checkpoint records this per
    /// account; segment GC then waits for
    /// [`SegmentStore::repl_acked_seq`] to reach it.
    pub fn repl_seal_head(&mut self) -> u64 {
        match &mut self.repl {
            Some(repl) => {
                repl.seal_open();
                repl.next_seq() - 1
            }
            None => 0,
        }
    }

    /// The response recorded for an upload idempotency token, if the
    /// token is among the last `UPLOAD_TOKEN_CAP` (256) remembered:
    /// `(segments stored, annotations stored)`.
    pub fn check_upload_token(&self, token: &[u8]) -> Option<(u32, u32)> {
        self.upload_tokens
            .iter()
            .find(|(t, _, _)| t.as_slice() == token)
            .map(|&(_, stored, annotated)| (stored, annotated))
    }

    /// Remembers an upload idempotency token and the response it
    /// produced, staging a [`WalRecord::UploadToken`] mark so a retry
    /// after restart still deduplicates. Becomes durable with the
    /// upload's records on the same group commit.
    pub fn note_upload_token(
        &mut self,
        token: Vec<u8>,
        stored: u32,
        annotated: u32,
    ) -> Result<(), StoreError> {
        self.durability.stage(&WalRecord::UploadToken {
            token: token.clone(),
            stored,
            annotated,
        })?;
        self.push_upload_token(token, stored, annotated);
        Ok(())
    }

    fn push_upload_token(&mut self, token: Vec<u8>, stored: u32, annotated: u32) {
        self.upload_tokens.push_back((token, stored, annotated));
        while self.upload_tokens.len() > UPLOAD_TOKEN_CAP {
            self.upload_tokens.pop_front();
        }
    }

    /// Bounds crash replay to the current (merged) state: flushes staged
    /// records and asks the journal for a checkpoint, after which replay
    /// reads one entry per live segment instead of one per uploaded
    /// packet, and segment GC (not this call) reclaims the disk. No-op
    /// for in-memory stores.
    ///
    /// The checkpoint is asynchronous on purpose: `compact()` runs under
    /// the account lock and the checkpoint source takes account locks
    /// itself, so an inline checkpoint here would deadlock.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        if let Durability::Journal { journal, .. } = &self.durability {
            journal.flush()?;
            journal.request_checkpoint();
        }
        Ok(())
    }

    /// The store's live state as a compacted record stream: one
    /// [`WalRecord::Segment`] per (merged) live segment, every
    /// annotation, then the bookkeeping tail — replica apply high-water
    /// ([`WalRecord::ReplApplied`]), assignment epoch/fence
    /// ([`WalRecord::AssignEpoch`]), and remembered upload idempotency
    /// tokens ([`WalRecord::UploadToken`]). Replaying these records
    /// reconstructs this store exactly; it is what a journal checkpoint
    /// persists.
    pub fn snapshot_records(&self) -> Vec<WalRecord> {
        let mut out = Vec::new();
        for series in self.series.values() {
            for seg in series.segments.values() {
                out.push(WalRecord::Segment(seg.clone()));
            }
        }
        for ann in &self.annotations {
            out.push(WalRecord::Annotation(ann.clone()));
        }
        if self.repl_applied > 0 {
            // A replica's apply high-water mark survives a checkpoint.
            out.push(WalRecord::ReplApplied(self.repl_applied));
        }
        if self.assignment_epoch > 0 || self.fenced {
            // The fence must survive a checkpoint too, or a deposed
            // primary would restart writable once its segments are GC'd.
            out.push(WalRecord::AssignEpoch {
                epoch: self.assignment_epoch,
                fenced: self.fenced,
            });
        }
        for (token, stored, annotated) in &self.upload_tokens {
            out.push(WalRecord::UploadToken {
                token: token.clone(),
                stored: *stored,
                annotated: *annotated,
            });
        }
        out
    }

    /// Runs a query, returning matching (sliced, projected) segments in
    /// time order within each series.
    pub fn query(&self, query: &Query) -> Vec<WaveSegment> {
        let mut out = Vec::new();
        let mut scanned = 0u64;
        'series: for series in self.series.values() {
            let candidates: Box<dyn Iterator<Item = &WaveSegment>> = match &query.time {
                None => Box::new(series.segments.values()),
                Some(range) => {
                    // Segments starting inside the range, plus the one
                    // segment that starts before it (it may overlap in).
                    let pred = series
                        .segments
                        .range(..(range.start.millis(), 0))
                        .next_back()
                        .map(|(_, s)| s);
                    let tail = series
                        .segments
                        .range((range.start.millis(), 0)..(range.end.millis(), 0))
                        .map(|(_, s)| s);
                    Box::new(pred.into_iter().chain(tail))
                }
            };
            for seg in candidates {
                scanned += 1;
                if let Some(region) = &query.region {
                    match seg.meta().location {
                        Some(p) if region.contains(&p) => {}
                        _ => continue,
                    }
                }
                let sliced = match &query.time {
                    None => Some(seg.clone()),
                    Some(range) => seg.slice_time(range),
                };
                let Some(sliced) = sliced else { continue };
                let projected = if query.channels.is_empty() {
                    Some(sliced)
                } else {
                    sliced.select_channels(&query.channels)
                };
                if let Some(result) = projected {
                    out.push(result);
                    if query.limit.is_some_and(|l| out.len() >= l) {
                        break 'series;
                    }
                }
            }
        }
        // Scan width tracks how well the time index bounds each query:
        // widths creeping up toward segment count means merges are not
        // keeping pace with ingest.
        sensorsafe_obsv::global()
            .histogram(
                "sensorsafe_store_query_scan_segments",
                "Segments examined per store query.",
                &[],
                Some(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0]),
            )
            .observe_secs(scanned as f64);
        out
    }

    /// Annotations overlapping `range`, in window-start order.
    pub fn annotations_in(&self, range: &TimeRange) -> Vec<&ContextAnnotation> {
        // Annotations are sorted by start; windows are short, so scan the
        // start-bounded prefix and filter by overlap.
        let end_idx = self
            .annotations
            .partition_point(|a| a.window.start < range.end);
        self.annotations[..end_idx]
            .iter()
            .filter(|a| a.window.overlaps(range))
            .collect()
    }

    /// All annotations, in window-start order.
    pub fn annotations(&self) -> &[ContextAnnotation] {
        &self.annotations
    }

    /// Storage statistics.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            merges: self.merges,
            annotations: self.annotations.len(),
            ..Default::default()
        };
        for series in self.series.values() {
            for seg in series.segments.values() {
                stats.segments += 1;
                stats.samples += seg.len();
                stats.approx_bytes += seg.approx_bytes();
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{CheckpointAccount, JournalConfig};
    use sensorsafe_types::{
        ChannelId, ChannelSpec, ContextKind, ContextState, GeoPoint, SegmentMeta, Timestamp, Timing,
    };
    use std::path::{Path, PathBuf};

    fn seg_at(start_ms: i64, rows: usize) -> WaveSegment {
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp::from_millis(start_ms),
                interval_secs: 0.02,
            },
            location: Some(GeoPoint::ucla()),
            format: vec![ChannelSpec::i16("ecg"), ChannelSpec::f32("respiration")],
        };
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|i| vec![(start_ms / 20 + i as i64) as f64, 300.0])
            .collect();
        WaveSegment::from_rows(meta, &data).unwrap()
    }

    fn ann_at(start_ms: i64) -> ContextAnnotation {
        ContextAnnotation::new(
            TimeRange::new(
                Timestamp::from_millis(start_ms),
                Timestamp::from_millis(start_ms + 60_000),
            ),
            vec![ContextState::on(ContextKind::Drive)],
        )
    }

    #[test]
    fn consecutive_packets_merge() {
        // The Zephyr scenario: 64-sample packets arriving back to back.
        let mut store = SegmentStore::in_memory(MergePolicy::default());
        for packet in 0..100 {
            store.insert_segment(seg_at(packet * 64 * 20, 64)).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.samples, 6400);
        assert_eq!(stats.segments, 1, "all packets merge into one segment");
        assert_eq!(stats.merges, 99);
    }

    #[test]
    fn merge_respects_max_rows() {
        let mut store = SegmentStore::in_memory(MergePolicy {
            enabled: true,
            max_rows: 128,
        });
        for packet in 0..10 {
            store.insert_segment(seg_at(packet * 64 * 20, 64)).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.samples, 640);
        assert_eq!(stats.segments, 5, "two packets per capped segment");
    }

    #[test]
    fn merge_disabled_keeps_packets() {
        let mut store = SegmentStore::in_memory(MergePolicy::disabled());
        for packet in 0..10 {
            store.insert_segment(seg_at(packet * 64 * 20, 64)).unwrap();
        }
        assert_eq!(store.stats().segments, 10);
        assert_eq!(store.stats().merges, 0);
    }

    #[test]
    fn gaps_prevent_merging() {
        let mut store = SegmentStore::in_memory(MergePolicy::default());
        store.insert_segment(seg_at(0, 64)).unwrap();
        store.insert_segment(seg_at(64 * 20 + 10_000, 64)).unwrap(); // 10 s gap
        assert_eq!(store.stats().segments, 2);
    }

    #[test]
    fn query_time_range() {
        let mut store = SegmentStore::in_memory(MergePolicy::disabled());
        for packet in 0..10 {
            store.insert_segment(seg_at(packet * 64 * 20, 64)).unwrap();
        }
        // 64 * 20 = 1280 ms per packet. Query the middle ~3 packets.
        let q = Query::all().in_time(TimeRange::new(
            Timestamp::from_millis(2_000),
            Timestamp::from_millis(6_000),
        ));
        let results = store.query(&q);
        let total: usize = results.iter().map(WaveSegment::len).sum();
        assert_eq!(total, 200, "4000 ms at 50 Hz");
        for seg in &results {
            let range = seg.time_range().unwrap();
            assert!(range.start.millis() >= 2_000 - 20);
            assert!(range.end.millis() <= 6_000 + 20);
        }
    }

    #[test]
    fn query_overlapping_segment_starting_before_range() {
        let mut store = SegmentStore::in_memory(MergePolicy::default());
        store.insert_segment(seg_at(0, 6400)).unwrap(); // one big segment: 128 s
        let q = Query::all().in_time(TimeRange::new(
            Timestamp::from_millis(60_000),
            Timestamp::from_millis(61_000),
        ));
        let results = store.query(&q);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].len(), 50);
    }

    #[test]
    fn query_channel_projection() {
        let mut store = SegmentStore::in_memory(MergePolicy::default());
        store.insert_segment(seg_at(0, 64)).unwrap();
        let q = Query::all().with_channels([ChannelId::new("respiration")]);
        let results = store.query(&q);
        assert_eq!(results.len(), 1);
        let names: Vec<&str> = results[0].channels().map(|c| c.as_str()).collect();
        assert_eq!(names, ["respiration"]);
        // A channel no segment carries yields nothing.
        let none = store.query(&Query::all().with_channels([ChannelId::new("gps_lat")]));
        assert!(none.is_empty());
    }

    #[test]
    fn query_region_filter() {
        let mut store = SegmentStore::in_memory(MergePolicy::default());
        store.insert_segment(seg_at(0, 64)).unwrap();
        let at_ucla =
            Query::all().in_region(sensorsafe_types::Region::around(GeoPoint::ucla(), 0.01));
        assert_eq!(store.query(&at_ucla).len(), 1);
        let elsewhere = Query::all().in_region(sensorsafe_types::Region::around(
            GeoPoint::new(40.0, -100.0),
            0.01,
        ));
        assert!(store.query(&elsewhere).is_empty());
    }

    #[test]
    fn query_limit() {
        let mut store = SegmentStore::in_memory(MergePolicy::disabled());
        for packet in 0..10 {
            store.insert_segment(seg_at(packet * 64 * 20, 64)).unwrap();
        }
        assert_eq!(store.query(&Query::all().with_limit(3)).len(), 3);
    }

    #[test]
    fn multiple_series_are_independent() {
        let mut store = SegmentStore::in_memory(MergePolicy::default());
        store.insert_segment(seg_at(0, 64)).unwrap();
        // A different format: accel only.
        let accel_meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp::from_millis(64 * 20),
                interval_secs: 0.02,
            },
            location: Some(GeoPoint::ucla()),
            format: vec![ChannelSpec::f32("accel_mag")],
        };
        let accel = WaveSegment::from_rows(accel_meta, &vec![vec![1.0]; 64]).unwrap();
        store.insert_segment(accel).unwrap();
        // Consecutive in time but different formats: no merge.
        assert_eq!(store.stats().segments, 2);
        assert_eq!(store.stats().merges, 0);
    }

    #[test]
    fn annotations_sorted_and_filtered() {
        let mut store = SegmentStore::in_memory(MergePolicy::default());
        store.insert_annotation(ann_at(120_000)).unwrap();
        store.insert_annotation(ann_at(0)).unwrap();
        store.insert_annotation(ann_at(60_000)).unwrap();
        let starts: Vec<i64> = store
            .annotations()
            .iter()
            .map(|a| a.window.start.millis())
            .collect();
        assert_eq!(starts, [0, 60_000, 120_000]);
        let hits = store.annotations_in(&TimeRange::new(
            Timestamp::from_millis(50_000),
            Timestamp::from_millis(70_000),
        ));
        assert_eq!(hits.len(), 2); // [0,60s) and [60s,120s)
    }

    #[test]
    fn empty_segment_ignored() {
        let mut store = SegmentStore::in_memory(MergePolicy::default());
        store.insert_segment(seg_at(0, 0)).unwrap();
        assert_eq!(store.stats().segments, 0);
    }

    /// A fresh directory for one test's journal.
    fn journal_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sensorsafe-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Opens (or, on a directory that already holds one, reopens) the
    /// journal in `dir` and the store of its one account, replaying what
    /// the journal recovered for it. Dropping both is the restart.
    fn open_with(
        dir: &Path,
        policy: MergePolicy,
        config: JournalConfig,
    ) -> (Arc<StoreJournal>, SegmentStore) {
        let journal = Arc::new(StoreJournal::open(dir, config).unwrap());
        let recovered = journal
            .take_account("alice")
            .map(|r| r.records)
            .unwrap_or_default();
        let store = SegmentStore::open_journal(journal.clone(), "alice", policy, recovered);
        (journal, store)
    }

    fn open_durable(dir: &Path, policy: MergePolicy) -> SegmentStore {
        open_with(dir, policy, JournalConfig::default()).1
    }

    /// A journal that seals its segment after every batch, so everything
    /// synced so far is eligible for a checkpoint.
    fn rotating() -> JournalConfig {
        JournalConfig {
            rotate_records: 1,
            ..JournalConfig::default()
        }
    }

    /// Checkpoints `store` as it stands and deletes every journal
    /// segment the checkpoint covers, so a reopen can only learn the
    /// covered state from [`SegmentStore::snapshot_records`].
    fn checkpoint_and_gc(journal: &StoreJournal, store: &mut SegmentStore) {
        let (records, high_seq, repl_head) = (
            store.snapshot_records(),
            journal.account_seq("alice"),
            store.repl_seal_head(),
        );
        journal.register_checkpoint_source(Box::new(move || {
            vec![CheckpointAccount {
                name: "alice".to_string(),
                records: records.clone(),
                high_seq,
                rule_epoch: 0,
                repl_head,
            }]
        }));
        // Synchronous, GC included; nothing is staging, so nothing races it.
        assert!(journal.checkpoint_now().unwrap(), "nothing sealed");
        for n in 1..=journal.stats().checkpointed_through {
            let segment = journal.dir().join(format!("journal.seg-{n}"));
            assert!(!segment.exists(), "seg-{n} kept");
        }
    }

    #[test]
    fn durable_store_replays_identically() {
        let dir = journal_dir("replay");
        let stats_before;
        {
            let mut store = open_durable(&dir, MergePolicy::default());
            for packet in 0..20 {
                store.insert_segment(seg_at(packet * 64 * 20, 64)).unwrap();
            }
            store.insert_annotation(ann_at(0)).unwrap();
            store.sync().unwrap();
            stats_before = store.stats();
        }
        let reopened = open_durable(&dir, MergePolicy::default());
        assert_eq!(reopened.stats(), stats_before);
        // Query result equality, not just counts.
        let q = Query::all();
        let results = reopened.query(&q);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].len(), 1280);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repl_applied_mark_survives_restart_and_compaction() {
        let dir = journal_dir("repl-hw");
        {
            let (_, mut store) = open_with(&dir, MergePolicy::default(), rotating());
            store.insert_segment(seg_at(0, 64)).unwrap();
            store.note_repl_applied(4).unwrap();
            // Stale marks are ignored; the high-water is monotonic.
            store.note_repl_applied(2).unwrap();
            store.sync().unwrap();
            assert_eq!(store.repl_applied(), 4);
        }
        {
            let (journal, mut reopened) = open_with(&dir, MergePolicy::default(), rotating());
            assert_eq!(reopened.repl_applied(), 4, "mark replays from the log");
            checkpoint_and_gc(&journal, &mut reopened);
        }
        let again = open_durable(&dir, MergePolicy::default());
        assert_eq!(again.repl_applied(), 4, "mark survives checkpoint + GC");
        assert_eq!(again.stats().samples, 64);
        drop(again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enable_replication_snapshots_existing_state() {
        let mut store = SegmentStore::in_memory(MergePolicy::default());
        for packet in 0..3 {
            store.insert_segment(seg_at(packet * 64 * 20, 64)).unwrap();
        }
        store.insert_annotation(ann_at(0)).unwrap();
        store.enable_replication(crate::repl::ReplConfig::default());
        let batches = store.repl_peek(16);
        assert_eq!(batches.len(), 1);
        // The three packets merged into one segment; the snapshot ships
        // the merged state plus the annotation.
        assert_eq!(batches[0].records.len(), 2);
        // Enabling again is a no-op (ack state preserved).
        store.repl_ack(1);
        store.enable_replication(crate::repl::ReplConfig::default());
        assert_eq!(store.repl_pending(), 0);
        // New inserts tail the live stream.
        store.insert_segment(seg_at(100_000, 64)).unwrap();
        store.repl_seal();
        assert_eq!(store.repl_peek(16).len(), 1);
        assert_eq!(store.repl_peek(16)[0].seq, 2);
    }

    #[test]
    fn repl_batch_applies_atomically_and_idempotently() {
        let dir = journal_dir("batch");
        {
            let mut store = open_durable(&dir, MergePolicy::default());
            let batch = vec![
                WalRecord::Segment(seg_at(0, 64)),
                WalRecord::Annotation(ann_at(0)),
            ];
            assert!(store.apply_repl_batch(1, batch.clone()).unwrap());
            // Re-sending the same sequence is a no-op, not a duplicate.
            assert!(!store.apply_repl_batch(1, batch).unwrap());
            assert_eq!(store.stats().samples, 64);
            assert_eq!(store.stats().annotations, 1);
            assert_eq!(store.repl_applied(), 1);
            // Bookkeeping records inside a batch are rejected outright.
            assert!(store
                .apply_repl_batch(2, vec![WalRecord::ReplApplied(9)])
                .is_err());
            assert_eq!(store.repl_applied(), 1);
            store.sync().unwrap();
        }
        // Crash replay: the batch's records and its high-water advance
        // arrive together.
        let reopened = open_durable(&dir, MergePolicy::default());
        assert_eq!(reopened.stats().samples, 64);
        assert_eq!(reopened.stats().annotations, 1);
        assert_eq!(reopened.repl_applied(), 1);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn assignment_epoch_survives_restart_and_compaction() {
        let dir = journal_dir("fence");
        {
            let (_, mut store) = open_with(&dir, MergePolicy::default(), rotating());
            store.insert_segment(seg_at(0, 64)).unwrap();
            store.note_assignment(2, true).unwrap();
            store.sync().unwrap();
            assert_eq!(store.assignment_epoch(), 2);
            assert!(store.fenced());
        }
        {
            let (journal, mut reopened) = open_with(&dir, MergePolicy::default(), rotating());
            assert_eq!(reopened.assignment_epoch(), 2, "fence replays from log");
            assert!(reopened.fenced());
            checkpoint_and_gc(&journal, &mut reopened);
        }
        let again = open_durable(&dir, MergePolicy::default());
        assert_eq!(
            again.assignment_epoch(),
            2,
            "fence survives checkpoint + GC"
        );
        assert!(again.fenced());
        drop(again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn upload_tokens_dedupe_across_restart_and_cap() {
        let dir = journal_dir("token");
        {
            let mut store = open_durable(&dir, MergePolicy::default());
            store.note_upload_token(vec![1, 2, 3], 5, 2).unwrap();
            assert_eq!(store.check_upload_token(&[1, 2, 3]), Some((5, 2)));
            assert_eq!(store.check_upload_token(&[9]), None);
            store.sync().unwrap();
        }
        let mut reopened = open_durable(&dir, MergePolicy::default());
        assert_eq!(
            reopened.check_upload_token(&[1, 2, 3]),
            Some((5, 2)),
            "token memory replays from the log"
        );
        // The deque is bounded: flooding evicts the oldest.
        for i in 0..super::UPLOAD_TOKEN_CAP {
            reopened
                .note_upload_token(vec![7, (i % 251) as u8, (i / 251) as u8], 1, 0)
                .unwrap();
        }
        assert_eq!(reopened.check_upload_token(&[1, 2, 3]), None);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repl_reset_wipes_data_but_keeps_fence() {
        let dir = journal_dir("reset");
        {
            let mut store = open_durable(&dir, MergePolicy::default());
            store
                .apply_repl_batch(3, vec![WalRecord::Segment(seg_at(0, 64))])
                .unwrap();
            store.note_assignment(2, false).unwrap();
            store.note_upload_token(vec![1], 1, 0).unwrap();
            store.repl_reset().unwrap();
            assert_eq!(store.stats().samples, 0);
            assert_eq!(store.repl_applied(), 0, "high-water resets with data");
            assert_eq!(store.check_upload_token(&[1]), None);
            assert_eq!(store.assignment_epoch(), 2, "epoch survives the wipe");
        }
        // The wipe is durable: a crash right after cannot resurrect the
        // old records (the reset marker was journaled, not just the
        // memory cleared).
        let reopened = open_durable(&dir, MergePolicy::default());
        assert_eq!(reopened.stats().samples, 0);
        assert_eq!(reopened.repl_applied(), 0);
        assert_eq!(reopened.assignment_epoch(), 2);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resnapshot_restarts_shipping_from_seq_one() {
        let mut store = SegmentStore::in_memory(MergePolicy::default());
        store.enable_replication(crate::repl::ReplConfig::default());
        store.insert_segment(seg_at(0, 64)).unwrap();
        store.repl_seal();
        store.repl_ack(1);
        store.insert_segment(seg_at(64 * 20, 64)).unwrap();
        store.repl_seal();
        assert_eq!(store.repl_peek(16)[0].seq, 2);
        // After a resync wiped the replica, the stream restarts at 1
        // with the full merged state.
        store.repl_resnapshot();
        assert_eq!(store.repl_acked_seq(), 0);
        let batches = store.repl_peek(16);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].seq, 1);
        let total: usize = batches[0]
            .records
            .iter()
            .map(|r| match r {
                WalRecord::Segment(s) => s.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(total, 128, "snapshot carries everything, not the tail");
    }

    #[test]
    fn compact_in_memory_is_noop() {
        let mut store = SegmentStore::in_memory(MergePolicy::default());
        store.insert_segment(seg_at(0, 64)).unwrap();
        store.compact().unwrap();
        assert_eq!(store.stats().samples, 64);
    }

    #[test]
    fn durable_store_truncates_torn_tail() {
        let dir = journal_dir("torn");
        {
            let mut store = open_durable(&dir, MergePolicy::disabled());
            store.insert_segment(seg_at(0, 64)).unwrap();
            store.insert_segment(seg_at(64 * 20, 64)).unwrap();
            store.sync().unwrap();
        }
        let tail = dir.join("journal.seg-1");
        let full = std::fs::metadata(&tail).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&tail).unwrap();
        file.set_len(full - 3).unwrap();
        drop(file);
        {
            let mut store = open_durable(&dir, MergePolicy::disabled());
            assert_eq!(store.stats().segments, 1, "torn record dropped");
            store.insert_segment(seg_at(10_000, 64)).unwrap();
            store.sync().unwrap();
        }
        let store = open_durable(&dir, MergePolicy::disabled());
        assert_eq!(store.stats().segments, 2);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Append-only write-ahead log, with single-writer and group-commit
//! front ends.
//!
//! Record framing (shared by both front ends; see DESIGN.md §8):
//!
//! ```text
//! u8  record tag (1 = segment, 2 = annotation, 3 = repl-applied mark,
//!     4 = assignment-epoch mark, 5 = repl batch, 6 = upload token,
//!     7 = account reset)
//! u32 payload length
//! u32 crc32(payload)
//! payload bytes
//! ```
//!
//! Replay stops at the first torn or corrupt record (a crash mid-append
//! leaves a valid prefix), reporting how many bytes were salvaged so the
//! caller can truncate.
//!
//! Two write paths share that on-disk format:
//!
//! * [`Wal`] — the single-writer handle: `&mut self` appends plus an
//!   explicit [`Wal::sync`]. Used by replay-side tooling, compaction
//!   rewrites, and anything single-threaded.
//! * [`GroupCommitWal`] — the concurrent front end: threads **stage**
//!   encoded records under a short mutex, then **wait** on a
//!   [`CommitTicket`]; the first waiter becomes the *leader*, gathers
//!   the batch (up to [`GroupCommitConfig::max_batch`] records or
//!   [`GroupCommitConfig::max_delay`]), and retires it with one
//!   `write` + `fsync` while followers sleep on a condvar. Concurrent
//!   durable uploads therefore cost ~one fsync per *batch*, not one per
//!   request.

use crate::codec::{self, crc32, CodecError};
use sensorsafe_types::{ContextAnnotation, WaveSegment};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A record recovered from (or appended to) the log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A stored wave segment.
    Segment(WaveSegment),
    /// A context annotation.
    Annotation(ContextAnnotation),
    /// Replica bookkeeping: the highest replication batch sequence this
    /// store has durably applied. Logged alongside the applied records
    /// so a restarted replica still skips batches it already holds
    /// (idempotent shipping rides the normal crash-replay path).
    ReplApplied(u64),
    /// The broker-assigned store epoch for this contributor, plus
    /// whether the store is fenced at that epoch. Persisting the
    /// transition closes the restart hole: a deposed primary that
    /// crashes and comes back must still reject contributor writes, and
    /// a promoted replica must still reject stale-epoch frames.
    AssignEpoch {
        /// Monotonic assignment epoch.
        epoch: u64,
        /// `true` when the store is fenced for the contributor.
        fenced: bool,
    },
    /// One replication batch applied as a unit. A replica logs the whole
    /// shipped batch as a single CRC-framed record, so crash replay
    /// applies it all-or-nothing: either the frame (records **and** the
    /// sequence they advance the high-water to) survives, or none of it
    /// does — a re-sent batch can never duplicate a partially applied
    /// one.
    ReplBatch {
        /// The batch sequence the apply advances `repl_applied` to.
        seq: u64,
        /// The data records, in ship order (segments and annotations
        /// only — bookkeeping records never ride inside a batch).
        records: Vec<WalRecord>,
    },
    /// An upload idempotency token with the response it produced. The
    /// store remembers recent tokens so a client retry of an upload
    /// whose ack was lost in transit (e.g. across a failover) returns
    /// the original response instead of storing the data twice.
    UploadToken {
        /// The client-chosen token bytes.
        token: Vec<u8>,
        /// Segments stored by the original request.
        stored: u32,
        /// Annotations stored by the original request.
        annotated: u32,
    },
    /// A durable account wipe marker. Replaying one clears every data
    /// record (segments, annotations, replication high-water, upload
    /// tokens) seen so far for the account, while the assignment
    /// epoch/fence survive. The per-account WAL never writes this —
    /// its `/repl/reset` path rewrites the log file instead — but the
    /// store-wide journal cannot rewrite a shared log for one account's
    /// reset, so it appends this marker.
    AccountReset,
}

/// Errors touching the log.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A record failed to decode after passing its checksum — indicates
    /// a codec version mismatch rather than corruption.
    Codec(CodecError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::Codec(e) => write!(f, "WAL codec error: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

const TAG_SEGMENT: u8 = 1;
const TAG_ANNOTATION: u8 = 2;
const TAG_REPL_APPLIED: u8 = 3;
const TAG_ASSIGN_EPOCH: u8 = 4;
const TAG_REPL_BATCH: u8 = 5;
const TAG_UPLOAD_TOKEN: u8 = 6;
const TAG_ACCOUNT_RESET: u8 = 7;

/// Whether `tag` names a known record type. Replay treats an unknown tag
/// as corruption (stop at the valid prefix) rather than a codec error.
pub(crate) fn tag_is_known(tag: u8) -> bool {
    (TAG_SEGMENT..=TAG_ACCOUNT_RESET).contains(&tag)
}

/// Encodes a [`WalRecord::ReplBatch`] payload: `u64 seq`, `u32 count`,
/// then per nested data record `u8 tag, u32 len, payload` (the same
/// sub-framing as the replication wire format, minus its checksum — the
/// enclosing WAL frame's CRC covers the whole batch).
fn encode_repl_batch(seq: u64, records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for record in records {
        let (tag, payload) = match record {
            WalRecord::Segment(seg) => (TAG_SEGMENT, codec::encode_segment(seg)),
            WalRecord::Annotation(ann) => (TAG_ANNOTATION, codec::encode_annotation(ann)),
            _ => unreachable!("bookkeeping records never ride inside a replication batch"),
        };
        out.push(tag);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Decodes the payload written by [`encode_repl_batch`].
fn decode_repl_batch(payload: &[u8]) -> Result<(u64, Vec<WalRecord>), CodecError> {
    let short = || CodecError("truncated repl batch record".into());
    if payload.len() < 12 {
        return Err(short());
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let count = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    let mut records = Vec::with_capacity(count.min(4096));
    let mut pos = 12usize;
    for _ in 0..count {
        if pos + 5 > payload.len() {
            return Err(short());
        }
        let tag = payload[pos];
        let len = u32::from_le_bytes(payload[pos + 1..pos + 5].try_into().unwrap()) as usize;
        pos += 5;
        if pos + len > payload.len() {
            return Err(short());
        }
        let body = &payload[pos..pos + len];
        pos += len;
        let record = match tag {
            TAG_SEGMENT => WalRecord::Segment(codec::decode_segment(body)?),
            TAG_ANNOTATION => WalRecord::Annotation(codec::decode_annotation(body)?),
            other => {
                return Err(CodecError(format!(
                    "unexpected tag {other} inside repl batch record"
                )))
            }
        };
        records.push(record);
    }
    if pos != payload.len() {
        return Err(CodecError("trailing bytes in repl batch record".into()));
    }
    Ok((seq, records))
}

/// Encodes one record's payload, returning `(tag, payload)`. Shared by
/// the per-account WAL frame ([`encode_frame`]) and the store-wide
/// journal's segment frames, so both log formats carry byte-identical
/// record payloads.
pub(crate) fn encode_record_payload(record: &WalRecord) -> (u8, Vec<u8>) {
    match record {
        WalRecord::Segment(seg) => (TAG_SEGMENT, codec::encode_segment(seg)),
        WalRecord::Annotation(ann) => (TAG_ANNOTATION, codec::encode_annotation(ann)),
        WalRecord::ReplApplied(seq) => (TAG_REPL_APPLIED, seq.to_le_bytes().to_vec()),
        WalRecord::AssignEpoch { epoch, fenced } => {
            let mut payload = epoch.to_le_bytes().to_vec();
            payload.push(u8::from(*fenced));
            (TAG_ASSIGN_EPOCH, payload)
        }
        WalRecord::ReplBatch { seq, records } => (TAG_REPL_BATCH, encode_repl_batch(*seq, records)),
        WalRecord::UploadToken {
            token,
            stored,
            annotated,
        } => {
            assert!(token.len() <= u16::MAX as usize, "upload token too long");
            let mut payload = Vec::with_capacity(2 + token.len() + 8);
            payload.extend_from_slice(&(token.len() as u16).to_le_bytes());
            payload.extend_from_slice(token);
            payload.extend_from_slice(&stored.to_le_bytes());
            payload.extend_from_slice(&annotated.to_le_bytes());
            (TAG_UPLOAD_TOKEN, payload)
        }
        WalRecord::AccountReset => (TAG_ACCOUNT_RESET, Vec::new()),
    }
}

/// Decodes a record payload written by [`encode_record_payload`]. The
/// caller has already verified the enclosing frame's CRC, so any failure
/// here is a codec version mismatch, not corruption.
pub(crate) fn decode_record_payload(tag: u8, payload: &[u8]) -> Result<WalRecord, WalError> {
    let record = match tag {
        TAG_SEGMENT => WalRecord::Segment(codec::decode_segment(payload).map_err(WalError::Codec)?),
        TAG_ANNOTATION => {
            WalRecord::Annotation(codec::decode_annotation(payload).map_err(WalError::Codec)?)
        }
        TAG_REPL_APPLIED => {
            let bytes: [u8; 8] = payload
                .try_into()
                .map_err(|_| WalError::Codec(CodecError("bad repl mark".into())))?;
            WalRecord::ReplApplied(u64::from_le_bytes(bytes))
        }
        TAG_ASSIGN_EPOCH => {
            if payload.len() != 9 {
                return Err(WalError::Codec(CodecError("bad assign-epoch mark".into())));
            }
            WalRecord::AssignEpoch {
                epoch: u64::from_le_bytes(payload[..8].try_into().unwrap()),
                fenced: payload[8] != 0,
            }
        }
        TAG_REPL_BATCH => {
            let (seq, batch) = decode_repl_batch(payload).map_err(WalError::Codec)?;
            WalRecord::ReplBatch {
                seq,
                records: batch,
            }
        }
        TAG_UPLOAD_TOKEN => {
            let bad = || WalError::Codec(CodecError("bad upload-token record".into()));
            if payload.len() < 10 {
                return Err(bad());
            }
            let token_len = u16::from_le_bytes(payload[..2].try_into().unwrap()) as usize;
            if payload.len() != 2 + token_len + 8 {
                return Err(bad());
            }
            let token = payload[2..2 + token_len].to_vec();
            let rest = &payload[2 + token_len..];
            WalRecord::UploadToken {
                token,
                stored: u32::from_le_bytes(rest[..4].try_into().unwrap()),
                annotated: u32::from_le_bytes(rest[4..8].try_into().unwrap()),
            }
        }
        TAG_ACCOUNT_RESET => {
            if !payload.is_empty() {
                return Err(WalError::Codec(CodecError(
                    "bad account-reset record".into(),
                )));
            }
            WalRecord::AccountReset
        }
        other => {
            return Err(WalError::Codec(CodecError(format!(
                "unknown record tag {other}"
            ))))
        }
    };
    Ok(record)
}

/// Encodes one record into its on-disk frame (tag, length, CRC, payload).
fn encode_frame(record: &WalRecord) -> Vec<u8> {
    let (tag, payload) = encode_record_payload(record);
    let mut frame = Vec::with_capacity(1 + 4 + 4 + payload.len());
    frame.push(tag);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

pub(crate) fn appends_counter() -> Arc<sensorsafe_obsv::Counter> {
    sensorsafe_obsv::global().counter(
        "sensorsafe_store_wal_appends_total",
        "Records appended to write-ahead logs.",
        &[],
    )
}

pub(crate) fn fsync_counter() -> Arc<sensorsafe_obsv::Counter> {
    sensorsafe_obsv::global().counter(
        "sensorsafe_store_wal_fsyncs_total",
        "fsync calls issued by write-ahead logs.",
        &[],
    )
}

/// An open, appendable write-ahead log (single-writer front end).
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending.
    ///
    /// # Examples
    ///
    /// ```
    /// use sensorsafe_store::Wal;
    ///
    /// let dir = std::env::temp_dir().join("sensorsafe-wal-open-doc");
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let wal = Wal::open(dir.join("doc.wal")).unwrap();
    /// assert!(wal.path().ends_with("doc.wal"));
    /// ```
    pub fn open(path: impl AsRef<Path>) -> Result<Wal, WalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Wal {
            path,
            writer: BufWriter::new(file),
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (buffered; call [`Wal::sync`] for durability).
    ///
    /// # Examples
    ///
    /// ```
    /// use sensorsafe_store::{Wal, WalRecord};
    /// use sensorsafe_types::{ContextAnnotation, ContextKind, ContextState, TimeRange, Timestamp};
    ///
    /// let dir = std::env::temp_dir().join("sensorsafe-wal-append-doc");
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let path = dir.join("doc.wal");
    /// let _ = std::fs::remove_file(&path);
    ///
    /// let record = WalRecord::Annotation(ContextAnnotation::new(
    ///     TimeRange::new(Timestamp::from_millis(0), Timestamp::from_millis(1000)),
    ///     vec![ContextState::on(ContextKind::Walk)],
    /// ));
    /// let mut wal = Wal::open(&path).unwrap();
    /// wal.append(&record).unwrap();
    /// wal.sync().unwrap(); // the record is durable only after this
    ///
    /// let (replayed, _) = Wal::replay(&path).unwrap();
    /// assert_eq!(replayed, vec![record]);
    /// ```
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.writer.write_all(&encode_frame(record))?;
        appends_counter().inc();
        Ok(())
    }

    /// Flushes buffers and fsyncs.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        fsync_counter().inc();
        Ok(())
    }

    /// Replays the log at `path`, returning the valid records plus the
    /// byte offset of the valid prefix (everything after it is torn or
    /// corrupt and should be truncated before further appends).
    pub fn replay(path: impl AsRef<Path>) -> Result<(Vec<WalRecord>, u64), WalError> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok((Vec::new(), 0));
        }
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        loop {
            let header_end = pos + 1 + 4 + 4;
            if header_end > data.len() {
                break; // torn header
            }
            let tag = data[pos];
            let len = u32::from_le_bytes(data[pos + 1..pos + 5].try_into().unwrap()) as usize;
            let expected_crc = u32::from_le_bytes(data[pos + 5..pos + 9].try_into().unwrap());
            let payload_end = header_end + len;
            if payload_end > data.len() {
                break; // torn payload
            }
            let payload = &data[header_end..payload_end];
            if crc32(payload) != expected_crc {
                break; // corrupt record: stop at the valid prefix
            }
            if !tag_is_known(tag) {
                break; // unknown tag: treat as corruption
            }
            records.push(decode_record_payload(tag, payload)?);
            pos = payload_end;
        }
        Ok((records, pos as u64))
    }

    /// Truncates the log to `len` bytes (dropping a torn suffix found by
    /// [`Wal::replay`]).
    pub fn truncate(path: impl AsRef<Path>, len: u64) -> Result<(), WalError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_data()?;
        Ok(())
    }
}

/// Caps on group-commit batching, for [`GroupCommitWal`] and the
/// store-wide [`StoreJournal`](crate::StoreJournal) alike.
///
/// Both are upper bounds on gathering, not a price every commit pays: a
/// batch is cut at `max_batch` staged records or `max_delay` after
/// gathering began at the latest, and earlier whenever the engine sees
/// nobody left to gather — a `GroupCommitWal` leader with no commit
/// siblings cuts at once, and the journal's commit thread cuts the
/// moment every request it believes in flight is waiting (see
/// `journal.rs`, "When a batch is cut"). A `flush` (and every
/// [`SegmentStore::sync`] / [`compact`]) cuts the batch immediately
/// regardless.
///
/// [`SegmentStore::sync`]: crate::SegmentStore::sync
/// [`compact`]: crate::SegmentStore::compact
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Cut the batch once this many records are staged. `1` degenerates
    /// to one fsync per record (the pre-group-commit behavior).
    pub max_batch: usize,
    /// The longest a batch is held open while company is expected, and
    /// (journal) the longest a staged record nobody waits on stays off
    /// the disk. `Duration::ZERO` disables gathering: whatever is
    /// staged is committed the moment the committer takes over
    /// (batching then comes only from records staged while the previous
    /// fsync was in flight).
    pub max_delay: Duration,
}

impl Default for GroupCommitConfig {
    /// 64-record batches gathered for at most 500 µs — enough to
    /// coalesce a fleet-shaped burst (≈ 20 uploads per fsync at 32 in
    /// flight, EXPERIMENTS.md C4). A lone writer never sees the 500 µs
    /// under either engine: it pays its handoff, the write and one
    /// fsync.
    fn default() -> Self {
        GroupCommitConfig {
            max_batch: 64,
            max_delay: Duration::from_micros(500),
        }
    }
}

impl GroupCommitConfig {
    /// Per-record commits: no gathering, one fsync per staged record
    /// batch of one. The A/B baseline for the C2 bench.
    pub fn unbatched() -> GroupCommitConfig {
        GroupCommitConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
        }
    }
}

/// Mutable batching state, guarded by one mutex; the condvar alongside
/// it wakes gathering leaders (batch filled / flush requested) and
/// waiting followers (batch retired).
struct GroupState {
    /// Encoded frames staged since the last batch was cut, in stage
    /// order (stage order is the on-disk order).
    buf: Vec<u8>,
    /// Records currently in `buf`.
    staged_count: usize,
    /// Sequence number of the newest staged record (0 = none yet).
    staged_seq: u64,
    /// Highest sequence number known durable on disk.
    durable_seq: u64,
    /// A leader is gathering or writing a batch.
    committing: bool,
    /// A flush wants the gathering leader to cut the batch now.
    flush_requested: bool,
    /// Threads currently inside `commit` (leader + followers). A leader
    /// only opens its `max_delay` gathering window when it has company
    /// (commit siblings); a lone writer cuts immediately, so batching
    /// never taxes an uncontended stream.
    waiters: usize,
    /// Sticky I/O failure: once a batch write fails, every subsequent
    /// wait reports it (acking after a failed fsync would be a lie).
    error: Option<String>,
}

/// The group-commit front end over one WAL file.
///
/// Records are **staged** (encoded and queued, assigning a sequence
/// number) and later **committed** (written + fsynced as a batch).
/// Staging requires external serialization — in the datastore each
/// account's WAL is staged only under that account's write lock — but
/// committing is free-threaded: any number of threads may wait on
/// tickets concurrently, and exactly one of them leads each batch.
///
/// See the module docs and DESIGN.md §8 for the durability contract.
pub struct GroupCommitWal {
    path: PathBuf,
    config: GroupCommitConfig,
    /// Leader-only append handle; the `state` lock's `committing` flag
    /// already serializes batch writes, this mutex just satisfies the
    /// borrow checker without `unsafe`.
    file: Mutex<File>,
    state: Mutex<GroupState>,
    cond: Condvar,
}

/// A claim on durability for every record staged up to a point.
///
/// Produced by [`GroupCommitWal::ticket`] (usually via
/// [`SegmentStore::commit_ticket`]); [`CommitTicket::wait`] returns once
/// all covered records are on disk. Tickets own an `Arc` of the log, so
/// they stay valid across store compaction and shutdown.
///
/// [`SegmentStore::commit_ticket`]: crate::SegmentStore::commit_ticket
pub struct CommitTicket {
    wal: Arc<GroupCommitWal>,
    seq: u64,
}

impl CommitTicket {
    /// Blocks until every record covered by this ticket is durable
    /// (written and fsynced), participating in group commit: the first
    /// waiter leads the batch, later waiters follow.
    pub fn wait(&self) -> Result<(), WalError> {
        self.wal.commit(self.seq, false)
    }

    /// The sequence number this ticket waits for.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

fn sticky_err(msg: &str) -> WalError {
    WalError::Io(std::io::Error::other(format!(
        "WAL group commit previously failed: {msg}"
    )))
}

impl GroupCommitWal {
    /// Opens (creating if absent) the log at `path` for group-commit
    /// appends with the given batching configuration.
    pub fn open(
        path: impl AsRef<Path>,
        config: GroupCommitConfig,
    ) -> Result<GroupCommitWal, WalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(GroupCommitWal {
            path,
            config,
            file: Mutex::new(file),
            state: Mutex::new(GroupState {
                buf: Vec::new(),
                staged_count: 0,
                staged_seq: 0,
                durable_seq: 0,
                committing: false,
                flush_requested: false,
                waiters: 0,
                error: None,
            }),
            cond: Condvar::new(),
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The batching configuration this log was opened with.
    pub fn config(&self) -> GroupCommitConfig {
        self.config
    }

    /// Stages one record for the next batch, returning its sequence
    /// number. The record is **not durable** until a commit covering
    /// that sequence completes ([`CommitTicket::wait`] /
    /// [`GroupCommitWal::flush`]).
    ///
    /// Callers must serialize staging (the datastore stages only under
    /// the owning account's write lock); commits need no serialization.
    pub fn stage(&self, record: &WalRecord) -> Result<u64, WalError> {
        let frame = encode_frame(record);
        let mut state = self.state.lock().expect("WAL state poisoned");
        if let Some(msg) = &state.error {
            return Err(sticky_err(msg));
        }
        state.staged_seq += 1;
        state.staged_count += 1;
        state.buf.extend_from_slice(&frame);
        appends_counter().inc();
        let seq = state.staged_seq;
        if state.staged_count >= self.config.max_batch {
            // Wake a leader gathering on max_delay: the batch is full.
            self.cond.notify_all();
        }
        Ok(seq)
    }

    /// A ticket covering everything staged so far. Waiting on it makes
    /// all of those records durable.
    pub fn ticket(self: &Arc<Self>) -> CommitTicket {
        let state = self.state.lock().expect("WAL state poisoned");
        CommitTicket {
            wal: Arc::clone(self),
            seq: state.staged_seq,
        }
    }

    /// Commits every staged record immediately (no gathering delay) and
    /// returns once they are durable. Used on shutdown and before
    /// compaction, and by [`SegmentStore::sync`].
    ///
    /// [`SegmentStore::sync`]: crate::SegmentStore::sync
    pub fn flush(&self) -> Result<(), WalError> {
        let seq = {
            let state = self.state.lock().expect("WAL state poisoned");
            state.staged_seq
        };
        self.commit(seq, true)
    }

    /// The highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.state.lock().expect("WAL state poisoned").durable_seq
    }

    /// The sticky I/O failure, if a batch commit has ever failed.
    ///
    /// Once set, every subsequent stage/commit on this log reports the
    /// same error; health endpoints surface it so operators learn about
    /// a store that can no longer ack durably.
    pub fn sticky_error(&self) -> Option<String> {
        self.state.lock().expect("WAL state poisoned").error.clone()
    }

    /// Waits until `seq` is durable. The first thread to find no commit
    /// in progress becomes the batch leader: it gathers (bounded by
    /// `max_batch` / `max_delay` / flush requests — and only when it has
    /// commit siblings), cuts the batch, and retires it with one
    /// `write` + `fsync`; every other thread sleeps until the leader's
    /// notify. `urgent` skips the gathering delay.
    fn commit(&self, seq: u64, urgent: bool) -> Result<(), WalError> {
        let mut state = self.state.lock().expect("WAL state poisoned");
        if urgent {
            state.flush_requested = true;
            self.cond.notify_all();
        }
        state.waiters += 1;
        let result = loop {
            if let Some(msg) = &state.error {
                break Err(sticky_err(msg));
            }
            if state.durable_seq >= seq {
                break Ok(());
            }
            if state.committing {
                // Follow: a leader is already gathering or writing.
                state = self.cond.wait(state).expect("WAL state poisoned");
                continue;
            }
            state.committing = true;
            // Gathering phase: give concurrent stagers a chance to join
            // this batch. Only worthwhile with commit siblings (other
            // threads inside commit right now) — a lone writer gains
            // nothing from waiting, so it cuts immediately and batching
            // costs an uncontended stream nothing. Also skipped when the
            // batch is already full, a flush wants immediate durability,
            // or delay is disabled.
            if !self.config.max_delay.is_zero() && state.waiters > 1 {
                let deadline = Instant::now() + self.config.max_delay;
                while state.staged_count < self.config.max_batch && !state.flush_requested {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, timeout) = self
                        .cond
                        .wait_timeout(state, deadline - now)
                        .expect("WAL state poisoned");
                    state = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            // Cut the batch.
            let batch = std::mem::take(&mut state.buf);
            let upto = state.staged_seq;
            let records = state.staged_count;
            state.staged_count = 0;
            state.flush_requested = false;
            drop(state);
            let wrote = if batch.is_empty() {
                Ok(())
            } else {
                self.write_batch(&batch, records)
            };
            state = self.state.lock().expect("WAL state poisoned");
            match wrote {
                Ok(()) => state.durable_seq = upto,
                Err(e) => state.error = Some(e.to_string()),
            }
            state.committing = false;
            self.cond.notify_all();
            // Loop: either our seq is now durable, the error is sticky,
            // or our record was staged after the cut and we wait for
            // (or lead) the next batch.
        };
        state.waiters -= 1;
        result
    }

    /// One batch write + fsync, with batch-size and latency metrics.
    fn write_batch(&self, batch: &[u8], records: usize) -> Result<(), WalError> {
        let started = Instant::now();
        {
            let mut file = self.file.lock().expect("WAL file poisoned");
            file.write_all(batch)?;
            file.sync_data()?;
        }
        fsync_counter().inc();
        let registry = sensorsafe_obsv::global();
        registry
            .histogram(
                "sensorsafe_store_wal_commit_batch_records",
                "Records retired per WAL group-commit batch.",
                &[],
                Some(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]),
            )
            .observe_secs(records as f64);
        registry
            .histogram(
                "sensorsafe_store_wal_commit_seconds",
                "WAL group-commit batch latency (write + fsync).",
                &[],
                None,
            )
            .observe(started.elapsed());
        Ok(())
    }
}

impl Drop for GroupCommitWal {
    /// Clean shutdown: a dropped log flushes whatever is staged (best
    /// effort — errors are unreportable here, and unacked records carry
    /// no durability promise anyway).
    fn drop(&mut self) {
        let (batch, records) = {
            let mut state = self.state.lock().expect("WAL state poisoned");
            if state.error.is_some() {
                return;
            }
            (std::mem::take(&mut state.buf), state.staged_count)
        };
        if !batch.is_empty() {
            let _ = self.write_batch(&batch, records);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_types::{
        ChannelSpec, ContextKind, ContextState, SegmentMeta, TimeRange, Timestamp, Timing,
    };

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sensorsafe-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seg(start: i64) -> WaveSegment {
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp::from_millis(start),
                interval_secs: 0.02,
            },
            location: None,
            format: vec![ChannelSpec::f32("ecg")],
        };
        let rows: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64]).collect();
        WaveSegment::from_rows(meta, &rows).unwrap()
    }

    fn ann(start: i64) -> ContextAnnotation {
        ContextAnnotation::new(
            TimeRange::new(
                Timestamp::from_millis(start),
                Timestamp::from_millis(start + 1000),
            ),
            vec![ContextState::on(ContextKind::Walk)],
        )
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tempdir("roundtrip");
        let path = dir.join("wal.log");
        let records = vec![
            WalRecord::Segment(seg(0)),
            WalRecord::Annotation(ann(0)),
            WalRecord::Segment(seg(320)),
        ];
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let (replayed, offset) = Wal::replay(&path).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(offset, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn bookkeeping_records_roundtrip() {
        let dir = tempdir("bookkeeping");
        let path = dir.join("wal.log");
        let records = vec![
            WalRecord::AssignEpoch {
                epoch: 7,
                fenced: true,
            },
            WalRecord::ReplBatch {
                seq: 42,
                records: vec![WalRecord::Segment(seg(0)), WalRecord::Annotation(ann(0))],
            },
            WalRecord::UploadToken {
                token: vec![0xab; 16],
                stored: 3,
                annotated: 1,
            },
            WalRecord::ReplBatch {
                seq: 43,
                records: Vec::new(),
            },
        ];
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let (replayed, offset) = Wal::replay(&path).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(offset, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn repl_batch_rejects_nested_bookkeeping_tags() {
        // Hand-craft a repl-batch payload whose nested record carries the
        // repl-applied tag: decode must reject it rather than recurse.
        let mut payload = Vec::new();
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(TAG_REPL_APPLIED);
        payload.extend_from_slice(&8u32.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        assert!(decode_repl_batch(&payload).is_err());
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let dir = tempdir("missing");
        let (records, offset) = Wal::replay(dir.join("nope.log")).unwrap();
        assert!(records.is_empty());
        assert_eq!(offset, 0);
    }

    #[test]
    fn replay_stops_at_torn_record() {
        let dir = tempdir("torn");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Segment(seg(0))).unwrap();
            wal.append(&WalRecord::Segment(seg(320))).unwrap();
            wal.sync().unwrap();
        }
        // Tear the last record.
        let full = std::fs::metadata(&path).unwrap().len();
        Wal::truncate(&path, full - 5).unwrap();
        let (records, offset) = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(offset < full - 5);
        // Truncate to the valid prefix and keep appending.
        Wal::truncate(&path, offset).unwrap();
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Annotation(ann(99))).unwrap();
            wal.sync().unwrap();
        }
        let (records, _) = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], WalRecord::Annotation(ann(99)));
    }

    #[test]
    fn replay_stops_at_corrupt_crc() {
        let dir = tempdir("corrupt");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Segment(seg(0))).unwrap();
            wal.append(&WalRecord::Segment(seg(320))).unwrap();
            wal.sync().unwrap();
        }
        // Flip a payload byte in the second record.
        let mut data = std::fs::read(&path).unwrap();
        let len = data.len();
        data[len - 3] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        let (records, offset) = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(offset > 0);
    }

    #[test]
    fn empty_log_replays_empty() {
        let dir = tempdir("empty");
        let path = dir.join("wal.log");
        Wal::open(&path).unwrap().sync().unwrap();
        let (records, offset) = Wal::replay(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(offset, 0);
    }

    #[test]
    fn interleaved_reopen_appends() {
        let dir = tempdir("reopen");
        let path = dir.join("wal.log");
        for i in 0..5 {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Segment(seg(i * 320))).unwrap();
            wal.sync().unwrap();
        }
        let (records, _) = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 5);
    }

    #[test]
    fn group_commit_stage_flush_replay() {
        let dir = tempdir("group-basic");
        let path = dir.join("wal.log");
        let wal = Arc::new(GroupCommitWal::open(&path, GroupCommitConfig::default()).unwrap());
        for i in 0..5 {
            wal.stage(&WalRecord::Segment(seg(i * 320))).unwrap();
        }
        assert_eq!(wal.durable_seq(), 0, "staged records are not durable yet");
        wal.flush().unwrap();
        assert_eq!(wal.durable_seq(), 5);
        let (records, offset) = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(offset, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn group_commit_ticket_covers_staged_prefix() {
        let dir = tempdir("group-ticket");
        let path = dir.join("wal.log");
        let wal = Arc::new(GroupCommitWal::open(&path, GroupCommitConfig::default()).unwrap());
        wal.stage(&WalRecord::Segment(seg(0))).unwrap();
        wal.stage(&WalRecord::Segment(seg(320))).unwrap();
        let ticket = wal.ticket();
        assert_eq!(ticket.seq(), 2);
        // A record staged after the ticket is not covered by it.
        wal.stage(&WalRecord::Segment(seg(640))).unwrap();
        ticket.wait().unwrap();
        assert!(wal.durable_seq() >= 2);
        // The straggler still gets committed by a flush.
        wal.flush().unwrap();
        assert_eq!(wal.durable_seq(), 3);
        let (records, _) = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn group_commit_concurrent_waiters_coalesce() {
        let dir = tempdir("group-coalesce");
        let path = dir.join("wal.log");
        let fsyncs_before = fsync_counter().get();
        let wal = Arc::new(
            GroupCommitWal::open(
                &path,
                GroupCommitConfig {
                    max_batch: 64,
                    max_delay: Duration::from_millis(20),
                },
            )
            .unwrap(),
        );
        // Stage a burst, then have 8 threads wait on per-record tickets
        // concurrently: the leader's gathering window should retire the
        // burst in far fewer fsyncs than records.
        let tickets: Vec<CommitTicket> = (0..8)
            .map(|i| {
                let s = wal.stage(&WalRecord::Segment(seg(i * 320))).unwrap();
                CommitTicket {
                    wal: Arc::clone(&wal),
                    seq: s,
                }
            })
            .collect();
        let handles: Vec<_> = tickets
            .into_iter()
            .map(|t| std::thread::spawn(move || t.wait()))
            .collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        let fsyncs = fsync_counter().get() - fsyncs_before;
        assert!(fsyncs < 8, "8 concurrent waiters took {fsyncs} fsyncs");
        let (records, _) = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 8);
    }

    #[test]
    fn group_commit_preserves_stage_order_on_disk() {
        let dir = tempdir("group-order");
        let path = dir.join("wal.log");
        let wal = Arc::new(GroupCommitWal::open(&path, GroupCommitConfig::default()).unwrap());
        let expected: Vec<WalRecord> = (0..20).map(|i| WalRecord::Segment(seg(i * 320))).collect();
        for (i, r) in expected.iter().enumerate() {
            wal.stage(r).unwrap();
            if i % 7 == 0 {
                wal.flush().unwrap(); // multiple batches
            }
        }
        wal.flush().unwrap();
        let (records, _) = Wal::replay(&path).unwrap();
        assert_eq!(records, expected);
    }

    #[test]
    fn group_commit_drop_flushes() {
        let dir = tempdir("group-drop");
        let path = dir.join("wal.log");
        {
            let wal = Arc::new(GroupCommitWal::open(&path, GroupCommitConfig::default()).unwrap());
            wal.stage(&WalRecord::Segment(seg(0))).unwrap();
            // No flush: Drop's clean-shutdown path writes the tail.
        }
        let (records, _) = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn unbatched_config_syncs_per_commit() {
        let dir = tempdir("group-unbatched");
        let path = dir.join("wal.log");
        let wal = Arc::new(GroupCommitWal::open(&path, GroupCommitConfig::unbatched()).unwrap());
        let fsyncs_before = fsync_counter().get();
        for i in 0..4 {
            wal.stage(&WalRecord::Segment(seg(i * 320))).unwrap();
            wal.flush().unwrap();
        }
        assert_eq!(fsync_counter().get() - fsyncs_before, 4);
    }
}

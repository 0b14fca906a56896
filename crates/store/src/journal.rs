//! The **store-wide journal** — one shared, segment-rotated,
//! checkpointed log for every contributor account a data store hosts,
//! and the store's only durability mechanism for contributor data.
//!
//! SensorSafe's deployment is fleets of thousands of *low-rate*
//! contributors (§6's studies stream ~1 Hz vitals). A log per account
//! would pay one fsync stream per account with no cross-account batching
//! — a thousand 1 Hz contributors cost a thousand fsyncs per second even
//! though each write is tiny (EXPERIMENTS.md C4 measured exactly that).
//! So every account **stages** encoded records into one shared buffer,
//! and a single commit thread retires the combined batch with one
//! `write` + `fsync`: the fsync cost amortizes across the fleet
//! (≪1 fsync per upload at 1000 contributors × 1 Hz).
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/journal.seg-1        sealed segment (oldest surviving)
//! <dir>/journal.seg-2        sealed segment
//! <dir>/journal.seg-3        active segment (frames, then zeros)
//! <dir>/journal.ckpt         latest checkpoint (atomic tmp+rename)
//! ```
//!
//! Each segment is a sequence of frames:
//!
//! ```text
//! u32 frame length
//! u32 crc32(frame payload)
//! payload:
//!   u16 account name length, name bytes
//!   u64 account sequence (1-based, per account, monotonic forever)
//!   u8  record tag + record payload (see crate::wal)
//! ```
//!
//! The active segment's frames are followed by a **zero extent**: blocks
//! already written with zeros and synced, up to a multiple of
//! `ZERO_STEP` (1 MiB). A commit writes its batch at the frames' end
//! with a positional write (no `O_APPEND`) over those zeros, then one
//! `sync_data`, so the flush carries data only and no file-size change.
//! A batch that would run past the extent writes zeros from its own end
//! to the next 1 MiB boundary in the same commit, before the flush: about
//! one commit per mebibyte of frames pays for a size change. So the
//! active file reads up to 1 MiB longer than its frames.
//!
//! Two rules keep the zeros out of replay's way. **A sealed segment is
//! exactly its frames**: rotation truncates the file to them and syncs
//! that before the next segment exists (replay treats a stop inside any
//! segment but the last as corruption), and a clean shutdown trims the
//! active segment the same way. **Recovery cuts**: replay stops at a zero
//! length word as it stops at a torn or corrupt frame, and the reopen
//! truncates the file to the valid prefix, so the next commit writes
//! right after the last valid frame — never after leftover zeros, which
//! would hide it from every later replay.
//!
//! # Rotation, checkpoints, and bounded replay
//!
//! The commit thread seals the active segment once it crosses
//! [`JournalConfig::rotate_bytes`] or [`JournalConfig::rotate_records`]
//! and opens the next one. A **checkpoint** is a snapshot of each
//! account's live state (compacted records + rule epoch +
//! replication/assignment bookkeeping + account-sequence high-water)
//! covering every sealed segment, streamed to `journal.ckpt` through a
//! small buffer and an incremental CRC with WAL discipline (tmp file,
//! fsync, rename, fsync dir).
//!
//! A checkpoint costs the size of the live store, so rotation does not
//! imply one. The journal tracks the size of the latest durable
//! checkpoint (`checkpoint_bytes`, 0 before the first) and the total
//! size of sealed segments above its coverage (`log_bytes`); a rotation
//! requests a checkpoint only once `log_bytes >= checkpoint_bytes`.
//! Each journaled byte is therefore rewritten into checkpoints about
//! once, amortized, however long it lives; a failed or skipped
//! checkpoint leaves both sizes alone, so the next rotation asks again. Explicit requests
//! ([`StoreJournal::request_checkpoint`], [`StoreJournal::checkpoint_now`])
//! ignore the rule.
//!
//! Replay after a crash is **bounded**: load the checkpoint, then apply
//! only frames from segments newer than its coverage whose account
//! sequence exceeds that account's checkpointed high-water — at most the
//! checkpoint's own size of sealed log plus the tail. Disk holds about
//! twice the checkpoint plus one segment. A ten-year account replays in
//! time proportional to its live state, flat in history length.
//!
//! # Garbage collection and replication
//!
//! Segments at or below the latest durable checkpoint's coverage are
//! redundant for recovery — but a replicated primary must not drop them
//! before the replica holds their records, or a crash-plus-failover
//! could lose the only copy in flight. GC therefore composes with
//! PR 6's ack low-water: the datastore registers a **GC gate** mapping
//! each account to its replica-acked batch sequence
//! ([`SegmentStore::repl_acked_seq`](crate::SegmentStore::repl_acked_seq)),
//! and the checkpoint records the shipping head each account had when
//! it was snapshotted. Segments are deleted only when every replicated
//! account's acked sequence has reached its checkpointed head;
//! otherwise GC defers (safe — deferral costs disk, never data) and is
//! re-attempted after the next shipper ack pass.
//!
//! # When a batch is cut
//!
//! By **demand** alone, the way the audit ledger's `ledger-sync` thread
//! runs its rounds: a batch is cut when a [`JournalTicket::wait`] (or a
//! [`StoreJournal::flush`], which waits on everything staged) needs a
//! record the commit thread has not taken yet, or at shutdown. The cut
//! takes everything staged; records staged while its fsync runs form the
//! next batch, so concurrent requests coalesce behind the fsync in
//! flight. Staging never wakes the commit thread and no timer runs: a
//! record nobody waits on becomes durable with the next wait on any
//! account, a flush, or a clean shutdown — and nothing acks it before.
//!
//! # Locking
//!
//! `stage` takes only the journal mutex and is called under one account
//! write lock (the crate's lock order allows account → journal). The
//! commit thread takes only the journal mutex — never an account lock —
//! so waiting for a ticket while holding an account lock cannot
//! deadlock. The checkpoint thread takes the checkpoint serialization
//! lock, then account locks **one at a time** (via the registered
//! source callback), then the journal mutex; nothing takes them in the
//! reverse order. [`SegmentStore::compact`](crate::SegmentStore::compact)
//! only *requests* an async checkpoint for exactly this reason: it runs
//! under an account lock, and checkpointing inline there would invert
//! the order.

use crate::codec::{crc32, Crc32};
use crate::wal::{
    appends_counter, decode_record_payload, encode_record_payload, fsync_counter, tag_is_known,
    WalError, WalRecord,
};
use sensorsafe_obsv::{event_line, Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Magic prefix of a checkpoint file (versioned: bump the digits for
/// incompatible layout changes).
const CKPT_MAGIC: &[u8; 8] = b"SSCKPT01";

/// Write buffer of the streamed checkpoint: what a checkpoint holds in
/// memory beyond its largest record.
const CKPT_BUF: usize = 64 * 1024;

/// The active segment's zero extent grows in steps of this many bytes:
/// a commit whose batch runs past it writes zeros up to the next
/// multiple, so about one commit per step changes the file's size.
const ZERO_STEP: u64 = 1024 * 1024;

/// What the zero extent is written from.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

/// Tuning knobs for a [`StoreJournal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Seal the active segment once it holds this many bytes.
    pub rotate_bytes: u64,
    /// Seal the active segment once it holds this many records.
    pub rotate_records: u64,
}

impl Default for JournalConfig {
    /// 8 MiB / 8192-record segments: large enough that rotation is
    /// rare, small enough that replay of one tail segment stays well
    /// under a second.
    fn default() -> Self {
        JournalConfig {
            rotate_bytes: 8 * 1024 * 1024,
            rotate_records: 8192,
        }
    }
}

/// One account's contribution to a checkpoint, as produced by the
/// registered checkpoint source (the datastore, holding that account's
/// write lock).
pub struct CheckpointAccount {
    /// The contributor account name (its journal staging key).
    pub name: String,
    /// The account's live state as compacted WAL records (what
    /// [`SegmentStore::snapshot_records`](crate::SegmentStore::snapshot_records)
    /// returns).
    pub records: Vec<WalRecord>,
    /// The account's staging-sequence high-water
    /// ([`StoreJournal::account_seq`]) **read under the same account
    /// lock as the record snapshot** — replay skips tail frames at or
    /// below this, so a high-water newer than the snapshot would drop
    /// records and an older one would apply them twice.
    pub high_seq: u64,
    /// The account's privacy-rule epoch, restored on recovery so a
    /// restarted store never hands the broker a regressed epoch.
    pub rule_epoch: u64,
    /// The replication shipping head (highest sealed batch sequence) at
    /// snapshot time; `0` when the account is not replicated. Segment
    /// GC waits until the replica has acked through this.
    pub repl_head: u64,
}

/// An account's state recovered from the journal (checkpoint + tail
/// replay), claimed once via [`StoreJournal::take_account`].
pub struct RecoveredAccount {
    /// The account's records in apply order (checkpoint snapshot first,
    /// then tail-segment records).
    pub records: Vec<WalRecord>,
    /// The privacy-rule epoch the checkpoint recorded.
    pub rule_epoch: u64,
}

/// Callback snapshotting every live account for a checkpoint. Called on
/// the checkpoint thread; takes each account's lock one at a time.
pub type CheckpointSource = Box<dyn Fn() -> Vec<CheckpointAccount> + Send + Sync>;

/// Callback mapping an account name to its current replica-acked batch
/// sequence (`None` = account unknown or no longer replicated, which
/// passes the gate: a re-enabled replication always starts from a full
/// snapshot, so old segments are not its source of truth).
pub type GcGate = Box<dyn Fn(&str) -> Option<u64> + Send + Sync>;

/// Internal recovered-account state (kept until claimed; carried
/// forward into every checkpoint so an unclaimed account's data
/// survives GC of the segments it was recovered from).
struct RecoveredState {
    records: Vec<WalRecord>,
    rule_epoch: u64,
    high_seq: u64,
    repl_head: u64,
}

/// Mutable journal state under the one journal mutex.
struct JournalState {
    /// Encoded frames staged since the last batch cut, in stage order.
    buf: Vec<u8>,
    /// Records currently in `buf`.
    staged_count: usize,
    /// Global sequence of the newest staged record (0 = none yet).
    staged_seq: u64,
    /// Global sequence through which the commit thread has taken staged
    /// records into a batch (`durable_seq..=cut_seq` is the batch in
    /// flight). A wait at or below this needs no further cut.
    cut_seq: u64,
    /// Highest global sequence known durable on disk.
    durable_seq: u64,
    /// A wait needs a record past `cut_seq`: the commit thread cuts the
    /// next batch (module docs, "When a batch is cut").
    demand: bool,
    /// Batches retired since open (one write + fsync each).
    batches: u64,
    /// Shutdown: the commit thread drains and exits, the checkpoint
    /// thread exits.
    stop: bool,
    /// Sticky I/O failure: after a failed batch write, nothing acks
    /// durably again (acking after a failed fsync would be a lie).
    error: Option<String>,
    /// Per-account staging sequence high-waters (monotonic forever,
    /// surviving restarts via checkpoint + replay).
    account_seqs: BTreeMap<String, u64>,
    /// Highest sealed (rotation-complete) segment number.
    last_sealed: u64,
    /// The active segment number (mirror of the commit thread's own;
    /// for stats).
    active_segment: u64,
    /// Durable frame bytes in the active segment (mirror, for stats).
    active_bytes: u64,
    /// An explicit request (compaction) asked for a checkpoint.
    checkpoint_requested: bool,
    /// A rotation found the uncovered log outweighing the latest
    /// checkpoint; the checkpoint thread re-weighs it before acting.
    trigger_tipped: bool,
    /// Coverage of the latest durable checkpoint (0 = none yet).
    checkpointed_through: u64,
    /// Size of the latest durable checkpoint file (0 = none yet).
    checkpoint_bytes: u64,
    /// Sealed segments above `checkpointed_through`, number → bytes:
    /// the log a checkpoint would retire. Their sum is `log_bytes`.
    uncovered: BTreeMap<u64, u64>,
    /// Replication shipping heads recorded by the latest checkpoint
    /// (only accounts with a non-zero head). The GC gate compares
    /// current acked sequences against these.
    ckpt_repl_heads: BTreeMap<String, u64>,
    /// Accounts recovered at open and not yet claimed.
    recovered: BTreeMap<String, RecoveredState>,
}

impl JournalState {
    /// Whether the commit thread takes a batch now: something is staged,
    /// and a wait needs it or the journal is shutting down.
    fn cut_due(&self) -> bool {
        self.staged_count > 0 && (self.demand || self.stop)
    }

    /// Bytes of sealed log the latest checkpoint does not cover.
    fn log_bytes(&self) -> u64 {
        self.uncovered.values().sum()
    }

    /// The checkpoint trigger (module docs): the sealed log since the
    /// last checkpoint has grown to at least that checkpoint's size.
    fn log_outweighs_checkpoint(&self) -> bool {
        self.log_bytes() >= self.checkpoint_bytes
    }

    /// Publishes the trigger's two inputs.
    fn publish_sizes(&self, metrics: &JournalMetrics) {
        metrics.checkpoint_bytes.set(self.checkpoint_bytes as i64);
        metrics.log_bytes.set(self.log_bytes() as i64);
    }
}

/// Metric handles `stage`, `wait` and the commit thread touch per record
/// or per batch, resolved once at open instead of by name under the
/// journal mutex.
struct JournalMetrics {
    appends: Arc<Counter>,
    fsyncs: Arc<Counter>,
    batch_records: Arc<Histogram>,
    commit_seconds: Arc<Histogram>,
    active_bytes: Arc<Gauge>,
    rotations: Arc<Counter>,
    /// Size of the latest durable checkpoint.
    checkpoint_bytes: Arc<Gauge>,
    /// Sealed log above the latest checkpoint's coverage.
    log_bytes: Arc<Gauge>,
    /// Staged records not yet taken by the commit thread. Sampled at
    /// stage and batch-take time; a persistently high value means the
    /// commit thread (write + fsync) is the bottleneck, not the stagers.
    queue_depth: Arc<Gauge>,
    /// [`JournalTicket::wait`] entry → durable.
    commit_wait: Arc<Histogram>,
}

impl JournalMetrics {
    fn resolve() -> JournalMetrics {
        let registry = sensorsafe_obsv::global();
        JournalMetrics {
            appends: appends_counter(),
            fsyncs: fsync_counter(),
            batch_records: registry.histogram(
                "sensorsafe_store_wal_commit_batch_records",
                "Records retired per WAL group-commit batch.",
                &[],
                Some(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]),
            ),
            commit_seconds: registry.histogram(
                "sensorsafe_store_wal_commit_seconds",
                "WAL group-commit batch latency (write + fsync).",
                &[],
                None,
            ),
            active_bytes: registry.gauge(
                "sensorsafe_store_journal_active_segment_bytes",
                "Bytes of frames in the journal's active segment (its zero extent not counted).",
                &[],
            ),
            rotations: registry.counter(
                "sensorsafe_store_journal_rotations_total",
                "Journal segment rotations (active segment sealed).",
                &[],
            ),
            checkpoint_bytes: registry.gauge(
                "sensorsafe_store_journal_checkpoint_bytes",
                "Size of the journal's latest durable checkpoint.",
                &[],
            ),
            log_bytes: registry.gauge(
                "sensorsafe_store_journal_log_bytes",
                "Bytes of sealed journal segments the latest checkpoint does not cover.",
                &[],
            ),
            queue_depth: registry.gauge(
                "sensorsafe_journal_commit_queue_depth",
                "Records staged in the store journal awaiting the commit thread.",
                &[],
            ),
            commit_wait: registry.histogram(
                "sensorsafe_journal_commit_wait_seconds",
                "Time a journal ticket wait took from entry until its records were durable.",
                &[],
                None,
            ),
        }
    }
}

struct JournalInner {
    dir: PathBuf,
    config: JournalConfig,
    metrics: JournalMetrics,
    state: Mutex<JournalState>,
    /// Wakes the commit thread (demand / stop).
    work: Condvar,
    /// Wakes ticket waiters (batch retired / sticky error).
    done: Condvar,
    /// Wakes the checkpoint thread (rotation / request / stop).
    ckpt_work: Condvar,
    /// Serializes checkpoint writes (thread + synchronous callers).
    ckpt_lock: Mutex<()>,
    source: Mutex<Option<CheckpointSource>>,
    gate: Mutex<Option<GcGate>>,
}

/// The store-wide journal: shared group commit, segment rotation,
/// checkpoints, and replication-gated GC. See the module docs.
///
/// Obtained once per data store ([`StoreJournal::open`]) and shared by
/// every hosted account
/// ([`SegmentStore::open_journal`](crate::SegmentStore::open_journal)).
/// Dropping the last handle flushes staged records and joins the
/// background threads.
pub struct StoreJournal {
    inner: Arc<JournalInner>,
    commit_thread: Option<JoinHandle<()>>,
    ckpt_thread: Option<JoinHandle<()>>,
}

/// A claim on durability for every record staged journal-wide up to a
/// point; [`JournalTicket::wait`] returns once the shared commit thread
/// has retired them all (one fsync covers many accounts' tickets).
pub struct JournalTicket {
    inner: Arc<JournalInner>,
    seq: u64,
}

/// A point-in-time summary of the journal's segment/checkpoint state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// The segment commits currently write to.
    pub active_segment: u64,
    /// Durable frame bytes in the active segment. Its file is longer
    /// while the journal is open: the zero extent ahead of the frames.
    pub active_bytes: u64,
    /// Highest rotation-sealed segment (0 = none yet).
    pub last_sealed: u64,
    /// Coverage of the latest durable checkpoint (0 = none yet).
    pub checkpointed_through: u64,
    /// Size of the latest durable checkpoint file (0 = none yet).
    pub checkpoint_bytes: u64,
    /// Bytes of sealed segments above `checkpointed_through`. A
    /// rotation checkpoints once this reaches `checkpoint_bytes`.
    pub log_bytes: u64,
    /// Segment files currently on disk (sealed + active).
    pub live_segments: usize,
    /// Global sequence of the newest staged record. Above `durable_seq`
    /// only while some record awaits the commit a wait will cut.
    pub staged_seq: u64,
    /// Highest global staging sequence known durable.
    pub durable_seq: u64,
    /// Batches retired since open (one write + fsync each).
    pub batches: u64,
}

fn sticky_err(msg: &str) -> WalError {
    WalError::Io(std::io::Error::other(format!(
        "journal commit previously failed: {msg}"
    )))
}

fn segment_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("journal.seg-{n}"))
}

fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("journal.ckpt")
}

/// fsyncs a directory so file creations/renames inside it are durable.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Lists existing segment numbers in `dir`, sorted ascending.
fn list_segments(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = name.strip_prefix("journal.seg-") {
            if let Ok(n) = n.parse::<u64>() {
                out.push(n);
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Opens segment `n` for positional writes, creating it if absent.
fn open_segment(dir: &Path, n: u64) -> std::io::Result<File> {
    OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(segment_path(dir, n))
}

/// Writes zeros over `from..to` of `file` from [`ZEROS`].
fn write_zeros(file: &File, mut from: u64, to: u64) -> std::io::Result<()> {
    while from < to {
        let n = (to - from).min(ZEROS.len() as u64);
        file.write_all_at(&ZEROS[..n as usize], from)?;
        from += n;
    }
    Ok(())
}

/// The commit thread's exclusive handle on the active segment.
struct ActiveSegment {
    dir: PathBuf,
    file: File,
    seg_no: u64,
    /// Bytes of frames: where the next batch is written.
    bytes: u64,
    /// End of the zero-filled extent ahead of the frames (the file's
    /// length).
    zeroed: u64,
    records: u64,
}

impl ActiveSegment {
    /// Opens segment `seg_no`, whose file recovery has already cut to its
    /// `bytes` of valid frames.
    fn open(dir: &Path, seg_no: u64, bytes: u64, records: u64) -> Result<ActiveSegment, WalError> {
        let file = open_segment(dir, seg_no)?;
        sync_dir(dir)?;
        Ok(ActiveSegment {
            dir: dir.to_path_buf(),
            file,
            seg_no,
            bytes,
            zeroed: bytes,
            records,
        })
    }

    /// One batch written over zeroed blocks + one `sync_data`. A batch
    /// that runs past the zeroed extent extends it to the next
    /// [`ZERO_STEP`] boundary in the same commit, so only that commit's
    /// flush carries a size change.
    fn write_batch(
        &mut self,
        batch: &[u8],
        records: usize,
        metrics: &JournalMetrics,
    ) -> Result<(), WalError> {
        let started = Instant::now();
        self.file.write_all_at(batch, self.bytes)?;
        let end = self.bytes + batch.len() as u64;
        let zeroed = if end > self.zeroed {
            let step_end = (end / ZERO_STEP + 1) * ZERO_STEP;
            write_zeros(&self.file, end, step_end)?;
            step_end
        } else {
            self.zeroed
        };
        self.file.sync_data()?;
        metrics.fsyncs.inc();
        self.bytes = end;
        self.zeroed = zeroed;
        self.records += records as u64;
        metrics.batch_records.observe_secs(records as f64);
        metrics.commit_seconds.observe(started.elapsed());
        metrics.active_bytes.set(self.bytes as i64);
        Ok(())
    }

    /// Cuts the zero extent off, leaving the file exactly its frames, and
    /// makes the cut durable.
    fn trim(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.bytes)?;
        self.file.sync_data()?;
        self.zeroed = self.bytes;
        Ok(())
    }

    /// Seals the current segment (its frames already fsynced by
    /// `write_batch`) and opens the next. The seal trims the zero extent
    /// before the next segment exists: replay treats a stop inside any
    /// segment but the last as corruption.
    fn rotate(&mut self, metrics: &JournalMetrics) -> Result<(), WalError> {
        self.trim()?;
        let next = self.seg_no + 1;
        let file = open_segment(&self.dir, next)?;
        sync_dir(&self.dir)?;
        self.file = file;
        self.seg_no = next;
        self.bytes = 0;
        self.zeroed = 0;
        self.records = 0;
        metrics.rotations.inc();
        metrics.active_bytes.set(0);
        Ok(())
    }
}

impl StoreJournal {
    /// Opens (creating if absent) the journal in `dir`: loads the
    /// latest checkpoint, replays tail segments into recoverable
    /// account states ([`StoreJournal::take_account`]), truncates any
    /// torn tail, and spawns the commit + checkpoint threads.
    pub fn open(dir: impl AsRef<Path>, config: JournalConfig) -> Result<StoreJournal, WalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A torn checkpoint write leaves only the tmp file (the rename
        // is atomic); it is garbage.
        let _ = std::fs::remove_file(dir.join("journal.ckpt.tmp"));

        let ckpt = load_checkpoint(&checkpoint_path(&dir))?;
        let (covers, checkpoint_bytes, mut accounts, ckpt_repl_heads) = match ckpt {
            Some(c) => (c.covers, c.file_bytes, c.accounts, c.repl_heads),
            None => (0, 0, BTreeMap::new(), BTreeMap::new()),
        };

        // Replay tail segments (those newer than the checkpoint covers).
        let seg_nos = list_segments(&dir)?;
        let mut active_no = 0u64;
        let mut active_bytes = 0u64;
        let mut active_records = 0u64;
        let mut torn_at: Option<(u64, u64)> = None;
        // Every replayed segment's size; all but the last are sealed log
        // the next checkpoint would retire.
        let mut uncovered = BTreeMap::new();
        for &n in &seg_nos {
            if n <= covers {
                continue; // fully covered by the checkpoint; GC-pending
            }
            let (replayed, valid_len, torn) =
                replay_segment(&segment_path(&dir, n), &mut accounts)?;
            active_no = n;
            active_bytes = valid_len;
            active_records = replayed;
            uncovered.insert(n, valid_len);
            if torn {
                torn_at = Some((n, valid_len));
                break;
            }
        }
        uncovered.remove(&active_no);
        if let Some((n, valid_len)) = torn_at {
            // Valid-prefix semantics: truncate the torn segment and drop
            // anything after it (a crash only ever tears the final
            // segment, so later files here mean external corruption —
            // the prefix contract says they are gone).
            let file = OpenOptions::new().write(true).open(segment_path(&dir, n))?;
            file.set_len(valid_len)?;
            file.sync_data()?;
            for &m in &seg_nos {
                if m > n {
                    std::fs::remove_file(segment_path(&dir, m))?;
                }
            }
            sync_dir(&dir)?;
        }
        if active_no == 0 {
            // Fresh journal, or every segment was checkpointed and
            // GC'd: numbering continues after the checkpoint coverage.
            active_no = covers + 1;
            active_bytes = 0;
            active_records = 0;
        }

        let account_seqs: BTreeMap<String, u64> = accounts
            .iter()
            .map(|(name, s)| (name.clone(), s.high_seq))
            .collect();
        let recovered: BTreeMap<String, RecoveredState> = accounts
            .into_iter()
            .filter(|(_, s)| !s.records.is_empty() || s.rule_epoch > 0)
            .map(|(name, s)| {
                let repl_head = ckpt_repl_heads.get(&name).copied().unwrap_or(0);
                (
                    name,
                    RecoveredState {
                        records: s.records,
                        rule_epoch: s.rule_epoch,
                        high_seq: s.high_seq,
                        repl_head,
                    },
                )
            })
            .collect();

        let active = ActiveSegment::open(&dir, active_no, active_bytes, active_records)?;
        let state = JournalState {
            buf: Vec::new(),
            staged_count: 0,
            staged_seq: 0,
            cut_seq: 0,
            durable_seq: 0,
            demand: false,
            batches: 0,
            stop: false,
            error: None,
            account_seqs,
            last_sealed: active_no.saturating_sub(1).max(covers),
            active_segment: active_no,
            active_bytes,
            // The log owed at open is remembered, not paid now: the
            // next rotation weighs it like any other.
            checkpoint_requested: false,
            trigger_tipped: false,
            checkpointed_through: covers,
            checkpoint_bytes,
            uncovered,
            ckpt_repl_heads,
            recovered,
        };
        let metrics = JournalMetrics::resolve();
        state.publish_sizes(&metrics);
        let inner = Arc::new(JournalInner {
            dir,
            config,
            metrics,
            state: Mutex::new(state),
            work: Condvar::new(),
            done: Condvar::new(),
            ckpt_work: Condvar::new(),
            ckpt_lock: Mutex::new(()),
            source: Mutex::new(None),
            gate: Mutex::new(None),
        });
        let commit_inner = Arc::clone(&inner);
        let commit_thread = std::thread::Builder::new()
            .name("journal-commit".to_string())
            .spawn(move || commit_loop(commit_inner, active))
            .expect("spawn journal-commit thread");
        let ckpt_inner = Arc::clone(&inner);
        let ckpt_thread = std::thread::Builder::new()
            .name("journal-ckpt".to_string())
            .spawn(move || checkpoint_loop(ckpt_inner))
            .expect("spawn journal-ckpt thread");
        Ok(StoreJournal {
            inner,
            commit_thread: Some(commit_thread),
            ckpt_thread: Some(ckpt_thread),
        })
    }

    /// The directory holding segments and checkpoints.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The configuration the journal was opened with.
    pub fn config(&self) -> JournalConfig {
        self.inner.config
    }

    /// Registers the checkpoint-source callback (the datastore's
    /// per-account snapshotter). Until one is registered, checkpoints
    /// cover only recovered-but-unclaimed accounts.
    pub fn register_checkpoint_source(&self, source: CheckpointSource) {
        *self.inner.source.lock().expect("journal source poisoned") = Some(source);
    }

    /// Registers the GC gate (current replica-acked sequence per
    /// account). Without one, GC treats every account as unreplicated.
    pub fn register_gc_gate(&self, gate: GcGate) {
        *self.inner.gate.lock().expect("journal gate poisoned") = Some(gate);
    }

    /// Claims one recovered account's state (records + rule epoch).
    /// Each account can be claimed once; unclaimed accounts are carried
    /// forward into future checkpoints so their data survives GC.
    pub fn take_account(&self, name: &str) -> Option<RecoveredAccount> {
        let mut state = self.inner.state.lock().expect("journal state poisoned");
        state.recovered.remove(name).map(|s| RecoveredAccount {
            records: s.records,
            rule_epoch: s.rule_epoch,
        })
    }

    /// Names of recovered accounts not yet claimed (restart bookkeeping
    /// for the datastore: it re-creates these accounts eagerly).
    pub fn recovered_accounts(&self) -> Vec<String> {
        let state = self.inner.state.lock().expect("journal state poisoned");
        state.recovered.keys().cloned().collect()
    }

    /// The account's staging-sequence high-water (0 = never staged).
    /// A checkpoint source must read this under the same account lock
    /// that serializes the account's staging, so the value is consistent
    /// with the record snapshot taken next to it.
    pub fn account_seq(&self, name: &str) -> u64 {
        let state = self.inner.state.lock().expect("journal state poisoned");
        state.account_seqs.get(name).copied().unwrap_or(0)
    }

    /// Stages one record for `account`, returning the global sequence a
    /// ticket must cover for it. Not durable until a commit covering
    /// that sequence completes. Callers serialize per-account staging
    /// (the datastore stages under the account's write lock); staging
    /// for different accounts may race freely.
    ///
    /// Staging neither cuts a batch nor wakes the commit thread — a wait
    /// does (module docs, "When a batch is cut").
    pub fn stage(&self, account: &str, record: &WalRecord) -> Result<u64, WalError> {
        let (tag, payload) = encode_record_payload(record);
        let name = account.as_bytes();
        assert!(name.len() <= u16::MAX as usize, "account name too long");
        let mut body = Vec::with_capacity(2 + name.len() + 8 + 1 + payload.len());
        body.extend_from_slice(&(name.len() as u16).to_le_bytes());
        body.extend_from_slice(name);
        body.extend_from_slice(&0u64.to_le_bytes()); // account_seq patched below
        body.push(tag);
        body.extend_from_slice(&payload);

        let inner = &*self.inner;
        let mut state = inner.state.lock().expect("journal state poisoned");
        if let Some(msg) = &state.error {
            return Err(sticky_err(msg));
        }
        let aseq = {
            let counter = state.account_seqs.entry(account.to_string()).or_insert(0);
            *counter += 1;
            *counter
        };
        let name_end = 2 + name.len();
        body[name_end..name_end + 8].copy_from_slice(&aseq.to_le_bytes());
        state.staged_seq += 1;
        state.staged_count += 1;
        inner.metrics.queue_depth.set(state.staged_count as i64);
        let seq = state.staged_seq;
        state
            .buf
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        state.buf.extend_from_slice(&crc32(&body).to_le_bytes());
        state.buf.extend_from_slice(&body);
        inner.metrics.appends.inc();
        Ok(seq)
    }

    /// A ticket covering everything staged journal-wide so far. Nothing
    /// commits a staged record until somebody waits for it, so a caller
    /// that stages must wait on its ticket before it acks.
    #[must_use = "staged records commit only when a wait asks for them"]
    pub fn ticket(&self) -> JournalTicket {
        let state = self.inner.state.lock().expect("journal state poisoned");
        JournalTicket {
            inner: Arc::clone(&self.inner),
            seq: state.staged_seq,
        }
    }

    /// Waits until every record staged so far is durable.
    pub fn flush(&self) -> Result<(), WalError> {
        wait_durable(&self.inner, self.ticket().seq)
    }

    /// The highest global staging sequence known durable.
    pub fn durable_seq(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("journal state poisoned")
            .durable_seq
    }

    /// The sticky I/O failure, if a batch commit has ever failed. Once
    /// set, every later stage and wait reports it; the data store's
    /// `/healthz` surfaces it so fleet monitoring sees a store that can
    /// no longer ack writes durably.
    pub fn sticky_error(&self) -> Option<String> {
        self.inner
            .state
            .lock()
            .expect("journal state poisoned")
            .error
            .clone()
    }

    /// Asks the checkpoint thread for a checkpoint soon (async; safe to
    /// call while holding an account lock).
    pub fn request_checkpoint(&self) {
        let mut state = self.inner.state.lock().expect("journal state poisoned");
        state.checkpoint_requested = true;
        self.inner.ckpt_work.notify_all();
    }

    /// Writes a checkpoint synchronously (if anything new is sealed)
    /// and attempts GC. Returns whether a checkpoint was written. Must
    /// **not** be called while holding an account lock — the checkpoint
    /// source takes account locks itself.
    pub fn checkpoint_now(&self) -> Result<bool, WalError> {
        let wrote = do_checkpoint(&self.inner)?;
        let _ = maybe_gc(&self.inner);
        Ok(wrote)
    }

    /// Attempts segment GC (delete segments covered by the latest
    /// durable checkpoint, gated on replication acks). Returns segments
    /// deleted. The replication shipper calls this after an ack pass.
    pub fn maybe_gc(&self) -> usize {
        maybe_gc(&self.inner)
    }

    /// Current segment/checkpoint summary. The directory is listed after
    /// the journal mutex is released: staging and commits never queue
    /// behind a `read_dir`.
    pub fn stats(&self) -> JournalStats {
        let mut stats = {
            let state = self.inner.state.lock().expect("journal state poisoned");
            JournalStats {
                active_segment: state.active_segment,
                active_bytes: state.active_bytes,
                last_sealed: state.last_sealed,
                checkpointed_through: state.checkpointed_through,
                checkpoint_bytes: state.checkpoint_bytes,
                log_bytes: state.log_bytes(),
                live_segments: 0,
                staged_seq: state.staged_seq,
                durable_seq: state.durable_seq,
                batches: state.batches,
            }
        };
        stats.live_segments = list_segments(&self.inner.dir).map_or(0, |v| v.len());
        stats
    }
}

impl Drop for StoreJournal {
    /// Clean shutdown: drains staged records (best effort), then joins
    /// both background threads.
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().expect("journal state poisoned");
            state.stop = true;
            self.inner.work.notify_all();
            self.inner.ckpt_work.notify_all();
        }
        if let Some(handle) = self.commit_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.ckpt_thread.take() {
            let _ = handle.join();
        }
    }
}

impl JournalTicket {
    /// Blocks until every record covered by this ticket is durable.
    /// Waiting is what asks the commit thread for a batch (module docs,
    /// "When a batch is cut").
    pub fn wait(&self) -> Result<(), WalError> {
        let entered = Instant::now();
        let result = wait_durable(&self.inner, self.seq);
        self.inner.metrics.commit_wait.observe(entered.elapsed());
        result
    }

    /// The global journal sequence this ticket waits for.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Blocks until `seq` is durable or the journal has failed. A wait on a
/// record the commit thread has not yet taken into a batch is demand and
/// wakes it; a wait on records already durable, or already in the batch
/// in flight, asks for nothing.
fn wait_durable(inner: &JournalInner, seq: u64) -> Result<(), WalError> {
    let mut state = inner.state.lock().expect("journal state poisoned");
    loop {
        if let Some(msg) = &state.error {
            return Err(sticky_err(msg));
        }
        if state.durable_seq >= seq {
            return Ok(());
        }
        if seq > state.cut_seq && !state.demand {
            state.demand = true;
            inner.work.notify_one();
        }
        state = inner.done.wait(state).expect("journal state poisoned");
    }
}

/// The commit thread: on demand, take everything staged across accounts,
/// retire it with one write + fsync, rotate when the active segment fills.
fn commit_loop(inner: Arc<JournalInner>, mut active: ActiveSegment) {
    loop {
        let (batch, upto, records) = {
            // Waiting for demand; distinguishes idle time from
            // write + fsync time in sampled profiles.
            let _idle = sensorsafe_obsv::prof_frame!("journal-idle");
            let mut state = inner.state.lock().expect("journal state poisoned");
            while !state.cut_due() {
                if state.stop {
                    drop(state);
                    // A clean shutdown leaves the segment exactly its
                    // frames; after a crash the reopen cuts the zeros.
                    let _ = active.trim();
                    return;
                }
                state = inner.work.wait(state).expect("journal state poisoned");
            }
            let batch = std::mem::take(&mut state.buf);
            let records = std::mem::take(&mut state.staged_count);
            inner.metrics.queue_depth.set(0);
            state.demand = false;
            state.cut_seq = state.staged_seq;
            (batch, state.staged_seq, records)
        };
        let _commit = sensorsafe_obsv::prof_frame!("journal-commit");
        let wrote = active.write_batch(&batch, records, &inner.metrics);
        let mut state = inner.state.lock().expect("journal state poisoned");
        let mut rotate = false;
        match wrote {
            Ok(()) => {
                state.durable_seq = upto;
                state.active_bytes = active.bytes;
                state.batches += 1;
                rotate = active.bytes >= inner.config.rotate_bytes
                    || active.records >= inner.config.rotate_records;
            }
            Err(e) => state.error = Some(e.to_string()),
        }
        inner.done.notify_all();
        if rotate {
            drop(state);
            let sealed_bytes = active.bytes;
            let rotated = active.rotate(&inner.metrics);
            let mut state = inner.state.lock().expect("journal state poisoned");
            match rotated {
                Ok(()) => {
                    let sealed = active.seg_no - 1;
                    state.last_sealed = sealed;
                    state.active_segment = active.seg_no;
                    state.active_bytes = 0;
                    state.uncovered.insert(sealed, sealed_bytes);
                    state.publish_sizes(&inner.metrics);
                    if state.log_outweighs_checkpoint() {
                        state.trigger_tipped = true;
                        inner.ckpt_work.notify_all();
                    }
                }
                Err(e) => {
                    // Losing the ability to open the next segment is as
                    // fatal as a failed write: appends would land in a
                    // sealed segment the checkpointer believes immutable.
                    state.error = Some(e.to_string());
                    inner.done.notify_all();
                }
            }
        }
    }
}

/// The checkpoint thread: wait for a rotation that tipped the trigger
/// (or an explicit request), write a checkpoint, attempt GC.
fn checkpoint_loop(inner: Arc<JournalInner>) {
    loop {
        {
            let mut state = inner.state.lock().expect("journal state poisoned");
            loop {
                if state.stop {
                    return;
                }
                let explicit = std::mem::take(&mut state.checkpoint_requested);
                // A rotation that landed while the last checkpoint ran
                // is weighed against that checkpoint, not the one before.
                let tipped =
                    std::mem::take(&mut state.trigger_tipped) && state.log_outweighs_checkpoint();
                if explicit || tipped {
                    break;
                }
                state = inner.ckpt_work.wait(state).expect("journal state poisoned");
            }
        }
        let _frame = sensorsafe_obsv::prof_frame!("journal-checkpoint");
        if let Err(e) = do_checkpoint(&inner) {
            // A failed checkpoint endangers no acked data (the segments
            // it would have covered stay on disk) and leaves the trigger
            // tipped: surface it, and the next rotation retries.
            eprintln!(
                "{}",
                event_line("journal_checkpoint_failed", &[("error", &e.to_string())])
            );
        }
        let _ = maybe_gc(&inner);
    }
}

/// In-flight checkpoint entry.
struct CkptEntry {
    name: String,
    high_seq: u64,
    repl_head: u64,
    rule_epoch: u64,
    records: Vec<WalRecord>,
}

/// Writes one checkpoint covering everything sealed so far. Returns
/// `false` when there is nothing new to cover.
fn do_checkpoint(inner: &JournalInner) -> Result<bool, WalError> {
    let _serialize = inner.ckpt_lock.lock().expect("journal ckpt lock poisoned");
    // Capture coverage BEFORE snapshotting: rotations that land while
    // we snapshot only mean the snapshot covers more than `covers`
    // claims — never less. (The converse order would lose data.)
    let covers = {
        let state = inner.state.lock().expect("journal state poisoned");
        if let Some(msg) = &state.error {
            return Err(sticky_err(msg));
        }
        if state.last_sealed <= state.checkpointed_through {
            return Ok(false);
        }
        state.last_sealed
    };
    let started = Instant::now();
    let source_accounts = {
        let guard = inner.source.lock().expect("journal source poisoned");
        match guard.as_ref() {
            Some(f) => f(),
            None => Vec::new(),
        }
    };
    let mut entries: Vec<CkptEntry> = Vec::with_capacity(source_accounts.len());
    {
        let state = inner.state.lock().expect("journal state poisoned");
        for acc in source_accounts {
            entries.push(CkptEntry {
                name: acc.name,
                high_seq: acc.high_seq,
                repl_head: acc.repl_head,
                rule_epoch: acc.rule_epoch,
                records: acc.records,
            });
        }
        // Recovered-but-unclaimed accounts ride along unchanged, so GC
        // of the segments they were recovered from cannot orphan them.
        for (name, rec) in &state.recovered {
            if entries.iter().any(|e| &e.name == name) {
                continue;
            }
            entries.push(CkptEntry {
                name: name.clone(),
                high_seq: rec.high_seq,
                repl_head: rec.repl_head,
                rule_epoch: rec.rule_epoch,
                records: rec.records.clone(),
            });
        }
        // Safety: replay skips every segment the checkpoint covers, so
        // an account that ever staged but is in neither the source
        // snapshot nor the recovered carry-forward would silently lose
        // its sealed records. Refuse to checkpoint rather than risk it
        // (an account staged concurrently with the snapshot only has
        // data in segments newer than `covers`, so skipping is always
        // safe — the next rotation retries).
        for name in state.account_seqs.keys() {
            if !entries.iter().any(|e| &e.name == name) {
                eprintln!(
                    "{}",
                    event_line(
                        "journal_checkpoint_skipped",
                        &[
                            ("reason", "account not covered by snapshot"),
                            ("account", name),
                        ],
                    )
                );
                return Ok(false);
            }
        }
    }

    let tmp = inner.dir.join("journal.ckpt.tmp");
    let file_bytes = {
        let mut file = File::create(&tmp)?;
        let written = write_checkpoint(&mut file, covers, &entries)?;
        file.sync_data()?;
        written
    };
    std::fs::rename(&tmp, checkpoint_path(&inner.dir))?;
    sync_dir(&inner.dir)?;

    {
        let mut state = inner.state.lock().expect("journal state poisoned");
        state.checkpointed_through = covers;
        state.checkpoint_bytes = file_bytes;
        state.uncovered = state.uncovered.split_off(&(covers + 1));
        state.publish_sizes(&inner.metrics);
        state.ckpt_repl_heads = entries
            .iter()
            .filter(|e| e.repl_head > 0)
            .map(|e| (e.name.clone(), e.repl_head))
            .collect();
    }
    let registry = sensorsafe_obsv::global();
    registry
        .counter(
            "sensorsafe_store_journal_checkpoints_total",
            "Journal checkpoints written.",
            &[],
        )
        .inc();
    registry
        .histogram(
            "sensorsafe_store_journal_checkpoint_seconds",
            "Journal checkpoint latency (snapshot + write + rename).",
            &[],
            None,
        )
        .observe(started.elapsed());
    Ok(true)
}

/// Deletes segments covered by the latest durable checkpoint, gated on
/// replication acks. Returns segments deleted.
fn maybe_gc(inner: &JournalInner) -> usize {
    let (through, repl_heads) = {
        let state = inner.state.lock().expect("journal state poisoned");
        (state.checkpointed_through, state.ckpt_repl_heads.clone())
    };
    if through == 0 {
        return 0;
    }
    let registry = sensorsafe_obsv::global();
    {
        let guard = inner.gate.lock().expect("journal gate poisoned");
        if let Some(gate) = guard.as_ref() {
            for (name, head) in &repl_heads {
                match gate(name) {
                    // The replica holds everything the checkpoint
                    // covers for this account: safe.
                    Some(acked) if acked >= *head => {}
                    // Account gone or no longer replicated: a future
                    // re-enable starts from a full snapshot, so old
                    // segments are not its source of truth.
                    None => {}
                    Some(_) => {
                        registry
                            .counter(
                                "sensorsafe_store_journal_gc_deferred_total",
                                "Segment GC passes deferred waiting for replication acks.",
                                &[],
                            )
                            .inc();
                        return 0;
                    }
                }
            }
        }
    }
    let Ok(seg_nos) = list_segments(&inner.dir) else {
        return 0;
    };
    let mut deleted = 0usize;
    for n in seg_nos {
        if n <= through && std::fs::remove_file(segment_path(&inner.dir, n)).is_ok() {
            deleted += 1;
            registry
                .counter(
                    "sensorsafe_store_journal_segments_gced_total",
                    "Journal segments deleted after checkpoint + replication ack.",
                    &[],
                )
                .inc();
        }
    }
    if deleted > 0 {
        let _ = sync_dir(&inner.dir);
    }
    deleted
}

/// Per-account state accumulated during replay.
struct ReplayAccount {
    records: Vec<WalRecord>,
    rule_epoch: u64,
    high_seq: u64,
}

/// A decoded checkpoint file.
struct Checkpoint {
    covers: u64,
    /// The file's size: the trigger's `checkpoint_bytes` after a reopen.
    file_bytes: u64,
    accounts: BTreeMap<String, ReplayAccount>,
    repl_heads: BTreeMap<String, u64>,
}

/// A checkpoint byte sink: buffered writes that fold every byte into a
/// running CRC on the way through.
struct CheckpointStream<W: Write> {
    out: BufWriter<W>,
    crc: Crc32,
    len: u64,
}

impl<W: Write> CheckpointStream<W> {
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.crc.update(bytes);
        self.len += bytes.len() as u64;
        self.out.write_all(bytes)
    }
}

/// Streams a checkpoint to `out` and returns its length. The layout is
/// `SSCKPT01`, `u64 covers`, `u32 account count`, then per account
/// `u16 name length, name, u64 high_seq, u64 repl_head, u64 rule_epoch,
/// u32 record count` and per record `u8 tag, u32 length, payload`, then
/// `u32 crc32` of everything before it. Memory beyond [`CKPT_BUF`] is
/// one record's payload at a time.
fn write_checkpoint<W: Write>(out: W, covers: u64, entries: &[CkptEntry]) -> std::io::Result<u64> {
    let mut s = CheckpointStream {
        out: BufWriter::with_capacity(CKPT_BUF, out),
        crc: Crc32::new(),
        len: 0,
    };
    s.put(CKPT_MAGIC)?;
    s.put(&covers.to_le_bytes())?;
    s.put(&(entries.len() as u32).to_le_bytes())?;
    for e in entries {
        let name = e.name.as_bytes();
        assert!(name.len() <= u16::MAX as usize, "account name too long");
        s.put(&(name.len() as u16).to_le_bytes())?;
        s.put(name)?;
        s.put(&e.high_seq.to_le_bytes())?;
        s.put(&e.repl_head.to_le_bytes())?;
        s.put(&e.rule_epoch.to_le_bytes())?;
        s.put(&(e.records.len() as u32).to_le_bytes())?;
        for record in &e.records {
            let (tag, payload) = encode_record_payload(record);
            s.put(&[tag])?;
            s.put(&(payload.len() as u32).to_le_bytes())?;
            s.put(&payload)?;
        }
    }
    let crc = s.crc.finish();
    s.out.write_all(&crc.to_le_bytes())?;
    s.out.flush()?;
    Ok(s.len + 4)
}

/// Loads and verifies the checkpoint at `path`. A missing file is a
/// fresh journal; a corrupt file is an error (checkpoint writes are
/// atomic, so corruption means disk damage, and silently ignoring it
/// could resurrect a pre-checkpoint world after its segments were
/// GC'd).
fn load_checkpoint(path: &Path) -> Result<Option<Checkpoint>, WalError> {
    if !path.exists() {
        return Ok(None);
    }
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let corrupt = |msg: &str| {
        WalError::Codec(crate::codec::CodecError(format!(
            "journal checkpoint: {msg}"
        )))
    };
    if data.len() < CKPT_MAGIC.len() + 8 + 4 + 4 {
        return Err(corrupt("file too short"));
    }
    let (body, crc_bytes) = data.split_at(data.len() - 4);
    let expected = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != expected {
        return Err(corrupt("checksum mismatch"));
    }
    if &body[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let mut pos = CKPT_MAGIC.len();
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], WalError> {
        if *pos + n > body.len() {
            return Err(corrupt("truncated"));
        }
        let s = &body[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let covers = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let mut accounts = BTreeMap::new();
    let mut repl_heads = BTreeMap::new();
    for _ in 0..count {
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let name = std::str::from_utf8(take(&mut pos, name_len)?)
            .map_err(|_| corrupt("account name not UTF-8"))?
            .to_string();
        let high_seq = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let repl_head = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let rule_epoch = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let record_count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let mut records = Vec::with_capacity(record_count.min(4096));
        for _ in 0..record_count {
            let tag = take(&mut pos, 1)?[0];
            let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let payload = take(&mut pos, len)?;
            records.push(decode_record_payload(tag, payload)?);
        }
        if repl_head > 0 {
            repl_heads.insert(name.clone(), repl_head);
        }
        accounts.insert(
            name,
            ReplayAccount {
                records,
                rule_epoch,
                high_seq,
            },
        );
    }
    if pos != body.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(Some(Checkpoint {
        covers,
        file_bytes: data.len() as u64,
        accounts,
        repl_heads,
    }))
}

/// Replays one segment file into the account map. Returns `(records
/// replayed, valid byte length, torn?)`.
fn replay_segment(
    path: &Path,
    accounts: &mut BTreeMap<String, ReplayAccount>,
) -> Result<(u64, u64, bool), WalError> {
    if !path.exists() {
        return Ok((0, 0, false));
    }
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let mut pos = 0usize;
    let mut replayed = 0u64;
    loop {
        let header_end = pos + 4 + 4;
        if header_end > data.len() {
            break; // torn header
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        if len == 0 {
            break; // the zero extent ahead of the active segment's frames
        }
        let expected_crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        let payload_end = header_end + len;
        if payload_end > data.len() {
            break; // torn payload
        }
        let payload = &data[header_end..payload_end];
        if crc32(payload) != expected_crc {
            break; // corrupt frame: stop at the valid prefix
        }
        // Frame payload: name, account_seq, tag, record payload.
        if payload.len() < 2 + 8 + 1 {
            break;
        }
        let name_len = u16::from_le_bytes(payload[..2].try_into().unwrap()) as usize;
        if 2 + name_len + 8 + 1 > payload.len() {
            break;
        }
        let Ok(name) = std::str::from_utf8(&payload[2..2 + name_len]) else {
            break;
        };
        let aseq_start = 2 + name_len;
        let account_seq =
            u64::from_le_bytes(payload[aseq_start..aseq_start + 8].try_into().unwrap());
        let tag = payload[aseq_start + 8];
        if !tag_is_known(tag) {
            break;
        }
        let record = decode_record_payload(tag, &payload[aseq_start + 9..])?;
        let entry = accounts.entry(name.to_string()).or_insert(ReplayAccount {
            records: Vec::new(),
            rule_epoch: 0,
            high_seq: 0,
        });
        // Skip frames the checkpoint already covers for this account
        // (its snapshot is a superset of segments ≤ covers and may even
        // include records staged into the tail before it was cut).
        if account_seq > entry.high_seq {
            entry.records.push(record);
            entry.high_seq = account_seq;
            replayed += 1;
        }
        pos = payload_end;
    }
    Ok((replayed, pos as u64, pos < data.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_types::{
        ChannelSpec, ContextAnnotation, ContextKind, ContextState, SegmentMeta, TimeRange,
        Timestamp, Timing, WaveSegment,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sensorsafe-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seg(start: i64) -> WalRecord {
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp::from_millis(start),
                interval_secs: 0.02,
            },
            location: None,
            format: vec![ChannelSpec::f32("ecg")],
        };
        let rows: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64]).collect();
        WalRecord::Segment(WaveSegment::from_rows(meta, &rows).unwrap())
    }

    fn ann(start: i64) -> WalRecord {
        WalRecord::Annotation(ContextAnnotation::new(
            TimeRange::new(
                Timestamp::from_millis(start),
                Timestamp::from_millis(start + 1000),
            ),
            vec![ContextState::on(ContextKind::Walk)],
        ))
    }

    fn quick_config() -> JournalConfig {
        JournalConfig {
            rotate_bytes: u64::MAX,
            rotate_records: u64::MAX,
        }
    }

    /// Seals the active segment after every batch.
    fn rotate_every_batch() -> JournalConfig {
        JournalConfig {
            rotate_bytes: 1,
            rotate_records: u64::MAX,
        }
    }

    /// An honest checkpoint source for one account: the test stages and
    /// updates the shared `(records, high_seq)` snapshot under the same
    /// mutex, mimicking the datastore snapshotting under the account
    /// write lock that also serializes staging.
    type Shared = Arc<Mutex<(Vec<WalRecord>, u64)>>;

    fn shared_source(name: &str, shared: &Shared) -> CheckpointSource {
        let name = name.to_string();
        let shared = Arc::clone(shared);
        Box::new(move || {
            let s = shared.lock().unwrap();
            vec![CheckpointAccount {
                name: name.clone(),
                records: s.0.clone(),
                high_seq: s.1,
                rule_epoch: 0,
                repl_head: 0,
            }]
        })
    }

    fn stage_tracked(journal: &StoreJournal, name: &str, shared: &Shared, record: WalRecord) {
        let mut s = shared.lock().unwrap();
        journal.stage(name, &record).unwrap();
        s.0.push(record);
        s.1 = journal.account_seq(name);
    }

    #[test]
    fn stage_flush_reopen_recovers_per_account() {
        let dir = tempdir("roundtrip");
        {
            let journal = StoreJournal::open(&dir, quick_config()).unwrap();
            journal.stage("alice", &seg(0)).unwrap();
            journal.stage("bob", &seg(1000)).unwrap();
            journal.stage("alice", &ann(0)).unwrap();
            journal.flush().unwrap();
        }
        let journal = StoreJournal::open(&dir, quick_config()).unwrap();
        let mut names = journal.recovered_accounts();
        names.sort();
        assert_eq!(names, vec!["alice", "bob"]);
        let alice = journal.take_account("alice").unwrap();
        assert_eq!(alice.records, vec![seg(0), ann(0)]);
        let bob = journal.take_account("bob").unwrap();
        assert_eq!(bob.records, vec![seg(1000)]);
        assert!(journal.take_account("alice").is_none(), "claimed once");
    }

    #[test]
    fn tickets_coalesce_across_accounts() {
        let dir = tempdir("coalesce");
        let journal = Arc::new(StoreJournal::open(&dir, quick_config()).unwrap());
        let mut handles = Vec::new();
        for i in 0..8 {
            journal.stage(&format!("acct-{i}"), &seg(i * 1000)).unwrap();
            let ticket = journal.ticket();
            handles.push(std::thread::spawn(move || ticket.wait()));
        }
        for h in handles {
            h.join().unwrap().unwrap();
        }
        let batches = journal.stats().batches;
        assert!(
            batches < 8,
            "8 accounts' waiters should share fsyncs, took {batches}"
        );
    }

    #[test]
    fn rotation_seals_and_checkpoint_bounds_replay() {
        let dir = tempdir("rotate");
        let config = rotate_every_batch();
        {
            let journal = StoreJournal::open(&dir, config).unwrap();
            let alice: Shared = Arc::new(Mutex::new((Vec::new(), 0)));
            journal.register_checkpoint_source(shared_source("alice", &alice));
            for i in 0..4 {
                stage_tracked(&journal, "alice", &alice, seg(i * 1000));
                journal.flush().unwrap();
            }
            let stats = journal.stats();
            assert_eq!(stats.batches, 4, "one write + fsync per flush");
            assert!(stats.active_segment > 1, "rotation advanced the segment");
            assert!(stats.last_sealed >= 1);
        }
        // Recovery sees all four records exactly once, in order —
        // whether each came from the checkpoint or from tail replay.
        let journal = StoreJournal::open(&dir, config).unwrap();
        let alice = journal.take_account("alice").unwrap();
        assert_eq!(alice.records.len(), 4);
        assert_eq!(alice.records[0], seg(0));
        assert_eq!(alice.records[3], seg(3000));
    }

    #[test]
    fn checkpoint_carries_unclaimed_accounts_through_gc() {
        let dir = tempdir("carry");
        let config = rotate_every_batch();
        {
            let journal = StoreJournal::open(&dir, config).unwrap();
            for record in [seg(0), ann(0), seg(1000)] {
                journal.stage("alice", &record).unwrap();
                journal.flush().unwrap();
            }
        }
        // Reopen WITHOUT claiming alice; checkpoint + GC must not lose
        // her records even though their source segments get deleted.
        {
            let journal = StoreJournal::open(&dir, config).unwrap();
            // The source covers only bob; alice rides along via the
            // recovered carry-forward.
            let bob: Shared = Arc::new(Mutex::new((Vec::new(), 0)));
            journal.register_checkpoint_source(shared_source("bob", &bob));
            stage_tracked(&journal, "bob", &bob, seg(2000));
            journal.flush().unwrap(); // rotation → sealed segment
            stage_tracked(&journal, "bob", &bob, seg(3000));
            journal.flush().unwrap();
            // Poll: the background checkpoint thread may beat the
            // synchronous call after the rotation above.
            let deadline = Instant::now() + Duration::from_secs(10);
            while journal.stats().checkpointed_through < 1 {
                let _ = journal.checkpoint_now().unwrap();
                assert!(Instant::now() < deadline, "checkpoint never covered");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let journal = StoreJournal::open(&dir, config).unwrap();
        let alice = journal.take_account("alice").unwrap();
        assert_eq!(alice.records, vec![seg(0), ann(0), seg(1000)]);
        let bob = journal.take_account("bob").unwrap();
        assert_eq!(bob.records, vec![seg(2000), seg(3000)]);
    }

    #[test]
    fn gc_deletes_checkpointed_segments() {
        let dir = tempdir("gc");
        let journal = StoreJournal::open(&dir, rotate_every_batch()).unwrap();
        let alice: Shared = Arc::new(Mutex::new((Vec::new(), 0)));
        journal.register_checkpoint_source(shared_source("alice", &alice));
        for i in 0..5 {
            stage_tracked(&journal, "alice", &alice, seg(i * 1000));
            journal.flush().unwrap();
        }
        // Rotation (and the checkpoint it requests) is asynchronous:
        // poll until everything sealed is checkpointed and GC'd. Only
        // the active segment (and possibly the newest sealed-after-
        // checkpoint one) may remain.
        let deadline = Instant::now() + Duration::from_secs(10);
        while journal.stats().live_segments > 2 {
            let _ = journal.checkpoint_now().unwrap();
            assert!(
                Instant::now() < deadline,
                "GC never pruned, kept {} segments",
                journal.stats().live_segments
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(journal.maybe_gc(), 0, "idempotent");
    }

    #[test]
    fn gc_defers_until_replication_acked() {
        let dir = tempdir("gc-gate");
        let journal = StoreJournal::open(&dir, rotate_every_batch()).unwrap();
        let acked = Arc::new(Mutex::new(0u64));
        let gate_acked = Arc::clone(&acked);
        journal.register_checkpoint_source(Box::new(|| {
            vec![CheckpointAccount {
                name: "alice".to_string(),
                records: Vec::new(),
                high_seq: 100, // never reopened; only GC gating matters here
                rule_epoch: 0,
                repl_head: 7,
            }]
        }));
        journal.register_gc_gate(Box::new(move |name| {
            assert_eq!(name, "alice");
            Some(*gate_acked.lock().unwrap())
        }));
        for i in 0..3 {
            journal.stage("alice", &seg(i * 1000)).unwrap();
            journal.flush().unwrap();
        }
        // Poll until a checkpoint covers at least one sealed segment
        // (rotation and the background checkpoint are asynchronous).
        let deadline = Instant::now() + Duration::from_secs(10);
        while journal.stats().checkpointed_through == 0 {
            let _ = journal.checkpoint_now().unwrap();
            assert!(Instant::now() < deadline, "checkpoint never covered");
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = journal.stats().live_segments;
        assert!(before > 1, "checkpointed segments awaiting GC");
        // Replica acked only batch 3 < head 7: GC must defer.
        *acked.lock().unwrap() = 3;
        assert_eq!(journal.maybe_gc(), 0);
        assert_eq!(journal.stats().live_segments, before);
        // Replica catches up: GC proceeds.
        *acked.lock().unwrap() = 7;
        while journal.stats().live_segments >= before {
            journal.maybe_gc();
            assert!(Instant::now() < deadline, "GC never ran after acks");
        }
    }

    /// Far above a handoff + write + fsync: a wait that takes longer
    /// waited for something other than its own commit.
    const PROMPT: Duration = Duration::from_millis(200);

    fn lock(journal: &StoreJournal) -> std::sync::MutexGuard<'_, JournalState> {
        journal.inner.state.lock().unwrap()
    }

    #[test]
    fn cut_rule_is_demand_alone() {
        let journal = StoreJournal::open(tempdir("cut-rule"), quick_config()).unwrap();
        let mut state = lock(&journal);
        // (records staged, a wait needs one, shutting down) => cut now?
        for (staged, demand, stop, cut) in [
            (0, false, false, false),
            (3, false, false, false),
            (64, false, false, false),
            (1, true, false, true),
            (3, true, false, true),
            (3, false, true, true),
            (0, true, false, false),
            (0, false, true, false),
        ] {
            state.staged_count = staged;
            state.demand = demand;
            state.stop = stop;
            assert_eq!(
                state.cut_due(),
                cut,
                "staged {staged}, demand {demand}, stop {stop}"
            );
        }
        // Leave nothing behind for the commit thread to act on.
        state.staged_count = 0;
        state.demand = false;
        state.stop = false;
    }

    #[test]
    fn lone_writer_gets_a_batch_per_wait() {
        let journal = StoreJournal::open(tempdir("lone"), quick_config()).unwrap();
        for i in 0..3 {
            let started = Instant::now();
            journal.stage("alice", &seg(i * 1000)).unwrap();
            journal.ticket().wait().unwrap();
            assert!(
                started.elapsed() < PROMPT,
                "lone durable wait {i} took {:?}",
                started.elapsed()
            );
        }
        assert_eq!(journal.stats().batches, 3);
    }

    #[test]
    fn one_callers_records_share_one_batch() {
        let journal = StoreJournal::open(tempdir("one-request"), quick_config()).unwrap();
        journal.stage("alice", &seg(0)).unwrap();
        // Long enough for a commit thread that cut on staging to have
        // taken the first record alone.
        std::thread::sleep(Duration::from_millis(50));
        journal.stage("alice", &ann(0)).unwrap();
        journal.ticket().wait().unwrap();
        let stats = journal.stats();
        assert_eq!(stats.durable_seq, 2);
        assert_eq!(stats.batches, 1, "one request split across two fsyncs");
    }

    #[test]
    fn unwaited_record_stays_staged_until_any_wait() {
        let dir = tempdir("unwaited");
        let journal = StoreJournal::open(&dir, quick_config()).unwrap();
        journal.stage("alice", &seg(0)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let stats = journal.stats();
        assert_eq!(
            (stats.batches, stats.staged_seq, stats.durable_seq),
            (0, 1, 0),
            "a record nobody waits on was committed"
        );
        // A wait on another account's record takes both in one batch.
        journal.stage("bob", &seg(1000)).unwrap();
        journal.ticket().wait().unwrap();
        let stats = journal.stats();
        assert_eq!((stats.batches, stats.durable_seq), (1, 2));
        drop(journal);
        let journal = StoreJournal::open(&dir, quick_config()).unwrap();
        assert_eq!(
            journal.take_account("alice").unwrap().records,
            vec![seg(0)],
            "alice's record rode bob's batch"
        );
    }

    #[test]
    fn barrier_released_threads_share_batches() {
        let journal = Arc::new(StoreJournal::open(tempdir("barrier"), quick_config()).unwrap());
        let n = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let journal = Arc::clone(&journal);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    journal
                        .stage(&format!("acct-{i}"), &seg(i as i64 * 1000))
                        .unwrap();
                    barrier.wait();
                    journal.ticket().wait()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        let stats = journal.stats();
        assert_eq!(stats.durable_seq, n as u64);
        // Every record was staged before the first wait, so the cut that
        // wait triggers takes them all, and the waits that arrive while
        // it is in flight ask for no second one.
        assert_eq!(
            stats.batches, 1,
            "{n} waiters took {} fsyncs",
            stats.batches
        );
    }

    #[test]
    fn wait_on_durable_records_asks_for_nothing() {
        let journal = StoreJournal::open(tempdir("durable-wait"), quick_config()).unwrap();
        journal.stage("alice", &seg(0)).unwrap();
        let ticket = journal.ticket();
        ticket.wait().unwrap();
        ticket.wait().unwrap();
        journal.ticket().wait().unwrap();
        journal.flush().unwrap();
        // Demand left behind would cut the next record on staging.
        let state = lock(&journal);
        assert!(!state.demand);
        assert_eq!(state.batches, 1);
    }

    #[test]
    fn drop_drains_staged_records() {
        let dir = tempdir("drop-drain");
        let started = Instant::now();
        {
            let journal = StoreJournal::open(&dir, quick_config()).unwrap();
            journal.stage("alice", &seg(0)).unwrap();
            journal.stage("alice", &ann(0)).unwrap();
        }
        assert!(started.elapsed() < PROMPT, "shutdown waited for something");
        let journal = StoreJournal::open(&dir, quick_config()).unwrap();
        assert_eq!(
            journal.take_account("alice").unwrap().records,
            vec![seg(0), ann(0)]
        );
    }

    #[test]
    fn sticky_error_reported_to_all_waiters() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let dir = tempdir("sticky");
        let journal = Arc::new(StoreJournal::open(&dir, rotate_every_batch()).unwrap());
        // The next segment is a device that refuses every write.
        std::os::unix::fs::symlink("/dev/full", segment_path(&dir, 2)).unwrap();
        journal.stage("alice", &seg(0)).unwrap();
        journal.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while journal.stats().active_segment < 2 {
            assert!(Instant::now() < deadline, "rotation never happened");
            std::thread::yield_now();
        }
        assert!(journal.sticky_error().is_none());

        let n = 4;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let journal = Arc::clone(&journal);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    journal
                        .stage(&format!("acct-{i}"), &seg(i as i64 * 1000))
                        .unwrap();
                    barrier.wait();
                    journal.ticket().wait()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap().is_err(), "acked after a failed write");
        }
        assert!(journal.sticky_error().is_some());
        assert!(journal.stage("alice", &seg(9000)).is_err());
        assert!(journal.ticket().wait().is_err());
        assert_eq!(journal.durable_seq(), 1);
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = tempdir("torn");
        let config = quick_config();
        {
            let journal = StoreJournal::open(&dir, config).unwrap();
            journal.stage("alice", &seg(0)).unwrap();
            journal.stage("alice", &seg(1000)).unwrap();
            journal.flush().unwrap();
        }
        // Tear the active segment mid-frame.
        let seg1 = segment_path(&dir, 1);
        let len = std::fs::metadata(&seg1).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg1).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);
        let journal = StoreJournal::open(&dir, config).unwrap();
        let alice = journal.take_account("alice").unwrap();
        assert_eq!(alice.records, vec![seg(0)], "torn record dropped");
        // And appends keep working after the truncation.
        journal.stage("alice", &seg(2000)).unwrap();
        journal.flush().unwrap();
        drop(journal);
        let journal = StoreJournal::open(&dir, config).unwrap();
        assert_eq!(
            journal.take_account("alice").unwrap().records,
            vec![seg(0), seg(2000)]
        );
    }

    #[test]
    fn corrupt_frame_ends_replay_at_the_valid_prefix() {
        let dir = tempdir("corrupt");
        {
            let journal = StoreJournal::open(&dir, quick_config()).unwrap();
            journal.stage("alice", &seg(0)).unwrap();
            journal.stage("alice", &seg(1000)).unwrap();
            journal.flush().unwrap();
        }
        // Flip a payload byte in the second frame: its CRC no longer
        // matches, so replay keeps the first frame only.
        let seg1 = segment_path(&dir, 1);
        let mut data = std::fs::read(&seg1).unwrap();
        let len = data.len();
        data[len - 3] ^= 0xff;
        std::fs::write(&seg1, &data).unwrap();
        let journal = StoreJournal::open(&dir, quick_config()).unwrap();
        assert_eq!(journal.take_account("alice").unwrap().records, vec![seg(0)]);
        assert!(std::fs::metadata(&seg1).unwrap().len() < len as u64);
    }

    /// The whole-store buffer encoder checkpoints were written with
    /// before they were streamed: the byte-for-byte reference.
    fn reference_encode_checkpoint(covers: u64, entries: &[CkptEntry]) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(CKPT_MAGIC);
        out.extend_from_slice(&covers.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for e in entries {
            let name = e.name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            out.extend_from_slice(&e.high_seq.to_le_bytes());
            out.extend_from_slice(&e.repl_head.to_le_bytes());
            out.extend_from_slice(&e.rule_epoch.to_le_bytes());
            out.extend_from_slice(&(e.records.len() as u32).to_le_bytes());
            for record in &e.records {
                let (tag, payload) = encode_record_payload(record);
                out.push(tag);
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(&payload);
            }
        }
        let crc = crate::codec::crc32_nibble(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn seg_rows(start: i64, rows: usize) -> WalRecord {
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp::from_millis(start),
                interval_secs: 0.02,
            },
            location: None,
            format: vec![ChannelSpec::f32("ecg")],
        };
        let rows: Vec<Vec<f64>> = (0..rows).map(|i| vec![i as f64]).collect();
        WalRecord::Segment(WaveSegment::from_rows(meta, &rows).unwrap())
    }

    /// Bytes one record adds to a segment: frame header + payload.
    fn frame_bytes(name: &str, record: &WalRecord) -> u64 {
        let (_, payload) = encode_record_payload(record);
        (4 + 4 + 2 + name.len() + 8 + 1 + payload.len()) as u64
    }

    /// Size of the checkpoint a one-account `shared_source` snapshot of
    /// `records` produces.
    fn checkpoint_size(name: &str, records: &[WalRecord]) -> u64 {
        let entry = CkptEntry {
            name: name.to_string(),
            high_seq: records.len() as u64,
            repl_head: 0,
            rule_epoch: 0,
            records: records.to_vec(),
        };
        reference_encode_checkpoint(0, &[entry]).len() as u64
    }

    /// Every flushed record seals a segment of its own.
    fn one_record_segments() -> JournalConfig {
        JournalConfig {
            rotate_bytes: u64::MAX,
            rotate_records: 1,
        }
    }

    fn wait_for(journal: &StoreJournal, what: &str, done: impl Fn(&JournalState) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done(&lock(journal)) {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stages and flushes one of alice's records, then waits for the
    /// rotation that seals it as segment `n`.
    fn seal(journal: &StoreJournal, alice: &Shared, record: WalRecord, n: u64) {
        stage_tracked(journal, "alice", alice, record);
        journal.flush().unwrap();
        wait_for(journal, "rotation", |s| s.last_sealed >= n);
    }

    /// A `shared_source` that also counts its calls (one per checkpoint
    /// attempt that got as far as snapshotting).
    fn counted_source(shared: &Shared) -> (CheckpointSource, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let source = shared_source("alice", shared);
        let counted: CheckpointSource = Box::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            source()
        });
        (counted, calls)
    }

    #[test]
    fn checkpoints_land_exactly_where_the_log_outweighs_the_last_one() {
        let journal = StoreJournal::open(tempdir("trigger"), one_record_segments()).unwrap();
        let alice: Shared = Arc::new(Mutex::new((Vec::new(), 0)));
        journal.register_checkpoint_source(shared_source("alice", &alice));
        // The rule, replayed beside the journal: uneven record sizes make
        // it tip at irregular rotations.
        let (mut ckpt_bytes, mut log_bytes, mut covers) = (0u64, 0u64, 0u64);
        let mut staged = Vec::new();
        let mut landed = Vec::new();
        for n in 1..=24u64 {
            let record = seg_rows(n as i64 * 1000, 1 + (n as usize * 7) % 23);
            log_bytes += frame_bytes("alice", &record);
            staged.push(record.clone());
            seal(&journal, &alice, record, n);
            if log_bytes >= ckpt_bytes {
                landed.push(n);
                ckpt_bytes = checkpoint_size("alice", &staged);
                log_bytes = 0;
                covers = n;
            }
            wait_for(&journal, "the expected checkpoint", |s| {
                s.checkpointed_through == covers
            });
            let stats = journal.stats();
            assert_eq!(
                (stats.checkpoint_bytes, stats.log_bytes),
                (ckpt_bytes, log_bytes),
                "after rotation {n} (checkpoints expected at {landed:?})"
            );
        }
        assert_eq!(landed[0], 1, "the first rotation checkpoints");
        assert!(
            (3..12).contains(&landed.len()),
            "checkpointed at {landed:?}: about once per doubling, not per rotation"
        );
    }

    #[test]
    fn a_failed_checkpoint_is_retried_at_the_next_rotation() {
        let dir = tempdir("ckpt-retry");
        let journal = StoreJournal::open(&dir, one_record_segments()).unwrap();
        let alice: Shared = Arc::new(Mutex::new((Vec::new(), 0)));
        let (source, calls) = counted_source(&alice);
        journal.register_checkpoint_source(source);
        let record = |n: u64| seg_rows(n as i64 * 1000, 16);
        seal(&journal, &alice, record(1), 1);
        wait_for(&journal, "first checkpoint", |s| {
            s.checkpointed_through == 1
        });
        let ckpt_bytes = journal.stats().checkpoint_bytes;

        // A directory where the tmp file goes: the next attempt fails.
        let blocker = dir.join("journal.ckpt.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let mut n = 1;
        let mut log_bytes = 0;
        while log_bytes < ckpt_bytes {
            n += 1;
            log_bytes += frame_bytes("alice", &record(n));
            seal(&journal, &alice, record(n), n);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while calls.load(Ordering::SeqCst) < 2 {
            assert!(Instant::now() < deadline, "the tipped trigger never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Let the failing attempt finish before looking.
        drop(journal.inner.ckpt_lock.lock().unwrap());
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let stats = journal.stats();
        assert_eq!(stats.checkpointed_through, 1, "the attempt failed");
        assert_eq!(
            (stats.checkpoint_bytes, stats.log_bytes),
            (ckpt_bytes, log_bytes),
            "a failure forgets nothing"
        );

        std::fs::remove_dir(&blocker).unwrap();
        seal(&journal, &alice, record(n + 1), n + 1);
        wait_for(&journal, "the retry", |s| s.checkpointed_through == n + 1);
        assert_eq!(journal.stats().log_bytes, 0);
    }

    #[test]
    fn a_reopen_neither_checkpoints_at_once_nor_forgets_the_log_it_owes() {
        let dir = tempdir("reopen-owes");
        let record = |n: u64| seg_rows(n as i64 * 1000, 16);
        let (s2, s3) = (
            frame_bytes("alice", &record(2)),
            frame_bytes("alice", &record(3)),
        );
        let ckpt_bytes = checkpoint_size("alice", &[record(1)]);
        assert!(
            s3 < ckpt_bytes && s2 + s3 >= ckpt_bytes,
            "sizes fit the story"
        );
        {
            let journal = StoreJournal::open(&dir, one_record_segments()).unwrap();
            let alice: Shared = Arc::new(Mutex::new((Vec::new(), 0)));
            journal.register_checkpoint_source(shared_source("alice", &alice));
            seal(&journal, &alice, record(1), 1);
            wait_for(&journal, "first checkpoint", |s| {
                s.checkpointed_through == 1
            });
            seal(&journal, &alice, record(2), 2);
            let stats = journal.stats();
            assert_eq!(stats.checkpointed_through, 1, "segment 2 alone is light");
            assert_eq!((stats.checkpoint_bytes, stats.log_bytes), (ckpt_bytes, s2));
        }

        let journal = StoreJournal::open(&dir, one_record_segments()).unwrap();
        let stats = journal.stats();
        assert_eq!(
            (
                stats.checkpointed_through,
                stats.checkpoint_bytes,
                stats.log_bytes
            ),
            (1, ckpt_bytes, s2),
            "both sizes recomputed from disk"
        );
        let recovered = journal.take_account("alice").unwrap().records;
        assert_eq!(recovered, vec![record(1), record(2)]);
        let alice: Shared = Arc::new(Mutex::new((recovered, journal.account_seq("alice"))));
        let (source, calls) = counted_source(&alice);
        journal.register_checkpoint_source(source);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(calls.load(Ordering::SeqCst), 0, "checkpointed at open");

        // Segment 3 alone is lighter than the checkpoint; with the owed
        // segment 2 it is not.
        seal(&journal, &alice, record(3), 3);
        wait_for(&journal, "the owed checkpoint", |s| {
            s.checkpointed_through == 3
        });
        assert_eq!(journal.stats().log_bytes, 0);
    }

    #[test]
    fn streamed_checkpoint_equals_the_whole_buffer_encoding() {
        // Larger than the stream buffer, with one record larger than it.
        let mut records: Vec<WalRecord> = (0..200).map(|i| seg_rows(i * 1000, 64)).collect();
        records.push(seg_rows(1_000_000, 20_000));
        records.push(ann(5));
        records.push(WalRecord::ReplApplied(9));
        records.push(WalRecord::AssignEpoch {
            epoch: 3,
            fenced: true,
        });
        let entries = vec![
            CkptEntry {
                name: "alice".to_string(),
                high_seq: 204,
                repl_head: 7,
                rule_epoch: 2,
                records,
            },
            CkptEntry {
                name: "bob \"the\" \\ unclaimed".to_string(),
                high_seq: 1,
                repl_head: 0,
                rule_epoch: 0,
                records: vec![ann(0)],
            },
            CkptEntry {
                name: "carol".to_string(),
                high_seq: 0,
                repl_head: 0,
                rule_epoch: 5,
                records: Vec::new(),
            },
        ];
        let reference = reference_encode_checkpoint(42, &entries);
        assert!(reference.len() > 2 * CKPT_BUF);
        let mut streamed = Vec::new();
        let len = write_checkpoint(&mut streamed, 42, &entries).unwrap();
        assert_eq!(len, reference.len() as u64);
        assert!(
            streamed == reference,
            "streamed bytes differ from the reference"
        );

        let path = tempdir("streamed").join("journal.ckpt");
        std::fs::write(&path, &streamed).unwrap();
        let loaded = load_checkpoint(&path).unwrap().unwrap();
        assert_eq!((loaded.covers, loaded.file_bytes), (42, len));
        assert_eq!(loaded.accounts["alice"].records, entries[0].records);
        assert_eq!(loaded.repl_heads.get("alice"), Some(&7));
    }

    #[test]
    fn stderr_event_lines_are_json_for_any_value() {
        let hostile = "a\"b\\c\nd";
        for (event, fields) in [
            ("journal_checkpoint_failed", vec!["error"]),
            ("journal_checkpoint_skipped", vec!["reason", "account"]),
            ("audit_ledger_sync_failed", vec!["path", "error"]),
        ] {
            let pairs: Vec<(&str, &str)> = fields.iter().map(|k| (*k, hostile)).collect();
            let line = event_line(event, &pairs);
            let parsed = sensorsafe_json::parse(&line)
                .unwrap_or_else(|e| panic!("{event}: {line} is not JSON: {e}"));
            assert_eq!(parsed["event"].as_str(), Some(event));
            for key in fields {
                assert_eq!(parsed[key].as_str(), Some(hostile), "{event}.{key}");
            }
            assert_eq!(
                parsed.as_object().unwrap().len(),
                pairs.len() + 1,
                "no injected fields"
            );
        }
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    fn frames_len(records: &[WalRecord]) -> u64 {
        records.iter().map(|r| frame_bytes("alice", r)).sum()
    }

    /// Commits inside the zero extent overwrite blocks the file already
    /// has, so none of them changes its size; only a batch that runs past
    /// the extent does, once, by whole steps.
    #[test]
    fn commits_inside_one_zero_extent_leave_the_file_size_alone() {
        let dir = tempdir("zero-extent");
        let seg1 = segment_path(&dir, 1);
        let journal = StoreJournal::open(&dir, quick_config()).unwrap();
        let mut records = Vec::new();
        for i in 0..32 {
            records.push(seg(i * 1000));
            journal.stage("alice", records.last().unwrap()).unwrap();
            journal.flush().unwrap();
            assert_eq!(file_len(&seg1), ZERO_STEP, "commit {i} changed the size");
        }
        assert_eq!(journal.stats().active_bytes, frames_len(&records));

        // A batch bigger than the step extends to the boundary past its end.
        records.push(seg_rows(32_000, ZERO_STEP as usize / 4));
        journal.stage("alice", records.last().unwrap()).unwrap();
        journal.flush().unwrap();
        let end = frames_len(&records);
        assert!(end > ZERO_STEP);
        assert_eq!(file_len(&seg1), (end / ZERO_STEP + 1) * ZERO_STEP);
        assert_eq!(journal.stats().active_bytes, end);
        assert_eq!(journal.stats().batches, 33);
    }

    #[test]
    fn a_sealed_segment_is_exactly_its_frames() {
        let dir = tempdir("sealed-trim");
        let records = vec![seg(0), ann(0), seg(1000)];
        {
            let journal = StoreJournal::open(&dir, rotate_every_batch()).unwrap();
            for r in &records {
                journal.stage("alice", r).unwrap();
            }
            journal.flush().unwrap();
            wait_for(&journal, "rotation", |s| s.last_sealed >= 1);
            assert_eq!(file_len(&segment_path(&dir, 1)), frames_len(&records));
            journal.stage("alice", &ann(1000)).unwrap();
            journal.flush().unwrap();
            wait_for(&journal, "rotation", |s| s.last_sealed >= 2);
            assert_eq!(
                file_len(&segment_path(&dir, 2)),
                frame_bytes("alice", &ann(1000))
            );
        }
        let journal = StoreJournal::open(&dir, rotate_every_batch()).unwrap();
        let mut all = records;
        all.push(ann(1000));
        assert_eq!(journal.take_account("alice").unwrap().records, all);
    }

    #[test]
    fn dropping_a_journal_trims_the_active_segment() {
        let dir = tempdir("drop-trim");
        let seg1 = segment_path(&dir, 1);
        let records = vec![seg(0), ann(0)];
        {
            let journal = StoreJournal::open(&dir, quick_config()).unwrap();
            for r in &records {
                journal.stage("alice", r).unwrap();
            }
            journal.flush().unwrap();
            assert_eq!(
                file_len(&seg1),
                ZERO_STEP,
                "an open journal keeps its extent"
            );
        }
        assert_eq!(file_len(&seg1), frames_len(&records));
    }

    /// A crash leaves the zero extent behind. The reopen cuts the file to
    /// its valid frames, so later commits follow the last valid frame with
    /// no zeros between, and a second crash replays every acked frame.
    #[test]
    fn commits_after_a_reopen_over_a_zero_tail_all_replay() {
        let dir = tempdir("zero-tail");
        let crashed = tempdir("zero-tail-crashed");
        let crashed_again = tempdir("zero-tail-crashed-again");
        let mut acked: Vec<WalRecord> = Vec::new();
        let journal = StoreJournal::open(&dir, quick_config()).unwrap();
        for i in 0..3 {
            acked.push(seg(i * 1000));
            journal.stage("alice", acked.last().unwrap()).unwrap();
            journal.flush().unwrap();
        }
        // The crash image is the live file, zero extent and all.
        std::fs::copy(segment_path(&dir, 1), segment_path(&crashed, 1)).unwrap();
        drop(journal);
        assert_eq!(file_len(&segment_path(&crashed, 1)), ZERO_STEP);

        let journal = StoreJournal::open(&crashed, quick_config()).unwrap();
        assert_eq!(
            file_len(&segment_path(&crashed, 1)),
            frames_len(&acked),
            "the reopen cut the zero tail"
        );
        assert_eq!(journal.take_account("alice").unwrap().records, acked);
        for i in 3..8 {
            acked.push(seg(i * 1000));
            journal.stage("alice", acked.last().unwrap()).unwrap();
            journal.flush().unwrap();
        }
        std::fs::copy(segment_path(&crashed, 1), segment_path(&crashed_again, 1)).unwrap();
        drop(journal);

        let journal = StoreJournal::open(&crashed_again, quick_config()).unwrap();
        assert_eq!(journal.take_account("alice").unwrap().records, acked);
    }
}

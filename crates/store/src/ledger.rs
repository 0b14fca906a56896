//! File-backed audit ledger: `sensorsafe_obsv::ledger`'s chain semantics
//! with the journal's durability discipline.
//!
//! Layout on disk: `<path>` holds the hash-chained record frames
//! (`u32 len | payload | 32-byte hash`, see `obsv::ledger`), and
//! `<path>.head` holds the 40-byte [`ChainHead`] (record count + final
//! chain hash). Appends are buffered under the ledger mutex; making them
//! durable is the `ledger-sync` thread's job, one *round* at a time:
//! flush the buffer and capture the head under the mutex, then — outside
//! it — `sync_data` the ledger file, and only *then* write and
//! `sync_data` the head sidecar, so the head never attests records that
//! are not yet durable. [`AuditLedger::sync_begin`] asks for a round and
//! returns; [`AuditLedger::sync`] asks and waits until a round has
//! covered everything appended before the call. Because the disk work
//! holds no lock, `append`/`len`/`recent`/`page`/`sync_error` never wait
//! on it, appends that arrive during a round ride the next one, and
//! concurrent waiters share rounds (same shape as the store journal's
//! stage-then-wait, DESIGN.md §8).
//!
//! The ledger owns the store's sharing-awareness plane and is its only
//! input ([`AuditLedger::awareness`]). [`FileLedger::open`] folds the
//! chain it has just verified; each round, once both of its syncs have
//! returned and before any waiter is released, folds the records it made
//! durable. The fold therefore follows chain order, counts only durable
//! decisions, survives a restart, and has covered a reply's decisions by
//! the time the reply leaves. A failed round folds nothing.
//!
//! The sidecar is created once (tmp file + rename, so it is never seen
//! short or empty) and from then on held open and overwritten in place:
//! its length never changes, so a round costs two data syncs and no
//! truncate or size-changing metadata commit. An I/O failure on either
//! file is sticky ([`AuditLedger::sync_error`]): after a failed fsync
//! the page cache can no longer be trusted, so the ledger stops writing,
//! releases every current and later waiter, and reports it rather than
//! retrying into an unknown state. Dropping the ledger runs a last round
//! for appends nobody synced and joins the thread.
//!
//! Tamper and truncation detection: [`FileLedger::open`] replays and
//! verifies the whole chain against the head (a store refuses to silently
//! adopt an edited audit trail), and [`verify_ledger_file`] runs the same
//! check offline. If the *head sidecar itself* is lost or torn (e.g. a
//! crash between the two syncs), the chain still verifies record-by-record
//! with `verify_frames(bytes, None)` — see docs/OPERATIONS.md for the
//! recovery procedure.

use sensorsafe_obsv::ledger::{encode_frame, verify_frames, ChainHead, GENESIS_HASH};
use sensorsafe_obsv::{
    event_line, AuditFilter, AuditLedger, AuditPage, AwarenessPlane, Counter, DecisionRecord,
    LedgerError,
};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

fn appends_counter() -> Arc<Counter> {
    sensorsafe_obsv::global().counter(
        "sensorsafe_audit_ledger_appends_total",
        "Enforcement decisions appended to an audit ledger.",
        &[],
    )
}

fn fsyncs_counter() -> Arc<Counter> {
    sensorsafe_obsv::global().counter(
        "sensorsafe_audit_ledger_fsyncs_total",
        "Durable sync operations completed by file-backed audit ledgers.",
        &[],
    )
}

fn sync_failures_counter() -> Arc<Counter> {
    sensorsafe_obsv::global().counter(
        "sensorsafe_audit_ledger_sync_failures_total",
        "File-backed audit ledgers that stopped persisting after an I/O failure.",
        &[],
    )
}

fn io_err(e: std::io::Error) -> LedgerError {
    LedgerError::Io(e.to_string())
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// The head sidecar's path for a ledger at `path`.
pub fn head_path(path: &Path) -> PathBuf {
    with_suffix(path, ".head")
}

/// Reads and verifies a ledger file (and its head sidecar when present)
/// without opening it for writing — the offline audit tool's entry point.
/// With the sidecar, frame-aligned tail truncation is detected too; a
/// missing sidecar verifies in-place integrity only.
pub fn verify_ledger_file(path: impl AsRef<Path>) -> Result<Vec<DecisionRecord>, LedgerError> {
    let path = path.as_ref();
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(e)),
    };
    let head = match std::fs::read(head_path(path)) {
        Ok(bytes) => Some(ChainHead::decode(&bytes)?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(io_err(e)),
    };
    verify_frames(&bytes, head.as_ref())
}

/// Creates the head sidecar holding `head_bytes` without ever exposing
/// a short or empty file at `path`: written and synced under a tmp name,
/// renamed into place, directory synced. Returns the handle later syncs
/// overwrite in place.
fn create_head(path: &Path, head_bytes: &[u8]) -> std::io::Result<File> {
    let tmp = with_suffix(path, ".tmp");
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(head_bytes)?;
    file.sync_data()?;
    std::fs::rename(&tmp, path)?;
    // A bare file name has the empty path as its parent.
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    crate::journal::sync_dir(dir.unwrap_or(Path::new(".")))?;
    Ok(file)
}

/// What the ledger mutex guards: the chain in memory, the buffered
/// writer, and the sync thread's mailbox.
struct State {
    writer: BufWriter<File>,
    /// In-memory mirror of every verified + appended record, for queries.
    records: Vec<DecisionRecord>,
    /// The chain's current end (covers buffered, not-yet-synced appends).
    head: ChainHead,
    /// Record count somebody has asked to be made durable.
    requested: u64,
    /// Record count the last completed round made durable (and the head
    /// on disk attests).
    durable: u64,
    /// Sticky failure: set by the first failed write or sync, after
    /// which nothing more is written (the in-memory mirror keeps
    /// serving reads).
    failed: Option<String>,
    /// The ledger is being dropped: exit once nothing is requested.
    stop: bool,
}

/// Metric handles, resolved once at open (`append` runs under the
/// ledger mutex).
struct Metrics {
    appends: Arc<Counter>,
    fsyncs: Arc<Counter>,
    sync_failures: Arc<Counter>,
}

struct Shared {
    path: PathBuf,
    state: Mutex<State>,
    /// Wakes the sync thread: a round was requested, or `stop`.
    work: Condvar,
    /// Wakes waiters: a round completed or the ledger failed.
    done: Condvar,
    /// The aggregates of every durable record, folded in chain order.
    awareness: AwarenessPlane,
    metrics: Metrics,
    /// Test-only pause point between a round's two syncs.
    #[cfg(test)]
    between_syncs: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("ledger state poisoned")
    }

    /// Makes the ledger sticky-failed (first failure only) and releases
    /// every waiter.
    fn fail(&self, state: &mut State, error: &std::io::Error) {
        if state.failed.is_some() {
            return;
        }
        eprintln!(
            "{}",
            event_line(
                "audit_ledger_sync_failed",
                &[
                    ("path", &self.path.display().to_string()),
                    ("error", &error.to_string()),
                ],
            )
        );
        self.metrics.sync_failures.inc();
        state.failed = Some(error.to_string());
        self.done.notify_all();
    }

    /// Asks the sync thread to cover everything appended so far; returns
    /// the record count to wait for, or `None` when there is nothing to
    /// wait for (already durable, or failed).
    fn request(&self, state: &mut State) -> Option<u64> {
        let target = state.head.count;
        if state.durable >= target || state.failed.is_some() {
            return None;
        }
        if state.requested < target {
            state.requested = target;
            self.work.notify_one();
        }
        Some(target)
    }
}

/// The sync thread's own handles: no lock is held while they are used.
struct Disk {
    /// A second handle on the ledger file (`sync_data` covers the inode).
    file: File,
    /// The head sidecar, held open and overwritten in place; `None`
    /// until the first round of a ledger that has none creates it.
    head_file: Option<File>,
}

impl Disk {
    /// Journal discipline: frames first, head second, a `sync_data`
    /// after each — the head on disk must never get ahead of durable
    /// frames. `head` was captured with the flush that precedes this.
    fn persist(&mut self, shared: &Shared, head: &ChainHead) -> std::io::Result<()> {
        self.file.sync_data()?;
        #[cfg(test)]
        {
            let hook = shared.between_syncs.lock().expect("hook lock").clone();
            if let Some(hook) = hook {
                hook();
            }
        }
        let head_bytes = head.encode();
        match &self.head_file {
            Some(file) => {
                file.write_all_at(&head_bytes, 0)?;
                file.sync_data()
            }
            None => {
                self.head_file = Some(create_head(&head_path(&shared.path), &head_bytes)?);
                Ok(())
            }
        }
    }
}

/// Releases waiters with a sticky error if the sync thread unwinds:
/// a wait must end in durable-or-failed, never hang.
struct DeathWatch<'a>(&'a Shared);

impl Drop for DeathWatch<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.failed.is_none() {
            // Not `eprintln!`: a second panic while unwinding aborts.
            let _ = writeln!(
                std::io::stderr(),
                "{{\"event\":\"audit_ledger_sync_thread_died\",\"path\":\"{}\"}}",
                self.0.path.display()
            );
            state.failed = Some("ledger-sync thread died".to_string());
        }
        self.0.done.notify_all();
    }
}

/// The `ledger-sync` thread: one round per wake-up covers every append
/// made before its flush, however many requests asked for it.
fn sync_loop(shared: Arc<Shared>, mut disk: Disk) {
    let _watch = DeathWatch(&shared);
    loop {
        let head = {
            let mut state = shared.lock();
            loop {
                if state.requested > state.durable && state.failed.is_none() {
                    break;
                }
                if state.stop {
                    return;
                }
                state = shared.work.wait(state).expect("ledger state poisoned");
            }
            if let Err(e) = state.writer.flush() {
                shared.fail(&mut state, &e);
                continue;
            }
            state.head
        };
        let _round = sensorsafe_obsv::prof_frame!("ledger-sync");
        let persisted = disk.persist(&shared, &head);
        let mut state = shared.lock();
        match persisted {
            Ok(()) => {
                let newly_durable = state.durable as usize..head.count as usize;
                shared.awareness.fold(&state.records[newly_durable]);
                state.durable = head.count;
                shared.metrics.fsyncs.inc();
                shared.done.notify_all();
            }
            Err(e) => shared.fail(&mut state, &e),
        }
    }
}

/// A durable [`AuditLedger`]: appends are hash-chained onto the verified
/// tail and made durable (file then head) by the ledger's sync thread,
/// on request.
pub struct FileLedger {
    shared: Arc<Shared>,
    sync_thread: Option<JoinHandle<()>>,
}

impl FileLedger {
    /// Opens (creating if absent) the ledger at `path`, verifying the
    /// existing chain against its head sidecar, folds the verified
    /// records into its awareness plane, and starts its `ledger-sync`
    /// thread. Errors mean the audit trail is torn,
    /// tampered, or truncated — the caller decides whether to refuse
    /// startup or quarantine the file; this code never silently repairs
    /// it.
    pub fn open(path: impl AsRef<Path>) -> Result<FileLedger, LedgerError> {
        let path = path.as_ref().to_path_buf();
        let records = verify_ledger_file(&path)?;
        let mut hash = GENESIS_HASH;
        // Recompute the running hash from the verified records so appends
        // continue the chain (cheaper than re-reading: re-encode each).
        for record in &records {
            hash = sensorsafe_obsv::ledger::chain_hash(&hash, &record.encode());
        }
        let head = ChainHead {
            count: records.len() as u64,
            hash,
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        // A missing sidecar was accepted by the verify above; the first
        // round creates it.
        let head_file = match OpenOptions::new().write(true).open(head_path(&path)) {
            Ok(file) => Some(file),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err(e)),
        };
        let disk = Disk {
            file: file.try_clone().map_err(io_err)?,
            head_file,
        };
        let awareness = AwarenessPlane::new();
        awareness.fold(&records);
        let shared = Arc::new(Shared {
            path,
            state: Mutex::new(State {
                writer: BufWriter::new(file),
                records,
                head,
                requested: head.count,
                durable: head.count,
                failed: None,
                stop: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            awareness,
            metrics: Metrics {
                appends: appends_counter(),
                fsyncs: fsyncs_counter(),
                sync_failures: sync_failures_counter(),
            },
            #[cfg(test)]
            between_syncs: Mutex::new(None),
        });
        let thread_shared = Arc::clone(&shared);
        let sync_thread = std::thread::Builder::new()
            .name("ledger-sync".to_string())
            .spawn(move || sync_loop(thread_shared, disk))
            .map_err(io_err)?;
        Ok(FileLedger {
            shared,
            sync_thread: Some(sync_thread),
        })
    }

    /// The ledger file's path.
    pub fn path(&self) -> &Path {
        &self.shared.path
    }

    /// Re-reads the file from disk and verifies the full chain — what
    /// `verify_chain` means operationally. (The in-memory mirror is *not*
    /// consulted: this checks what a restart would see.)
    pub fn verify_chain(&self) -> Result<Vec<DecisionRecord>, LedgerError> {
        // Flush buffered frames first so the on-disk image is complete
        // (verification, not durability — no fsync needed).
        let mut state = self.shared.lock();
        if state.writer.flush().is_err() {
            return Err(LedgerError::Io("flush before verify failed".into()));
        }
        // A verify between append and sync would see a head sidecar
        // behind the file; compare against the in-memory head instead.
        let bytes = std::fs::read(&self.shared.path).map_err(io_err)?;
        verify_frames(&bytes, Some(&state.head))
    }
}

impl Drop for FileLedger {
    /// Clean shutdown: the sync thread makes pending appends durable
    /// (best effort), then is joined.
    fn drop(&mut self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.requested = state.head.count;
            state.stop = true;
        }
        self.shared.work.notify_one();
        if let Some(handle) = self.sync_thread.take() {
            // A panic there was already reported by its `DeathWatch`.
            let _ = handle.join();
        }
    }
}

impl AuditLedger for FileLedger {
    fn append(&self, mut record: DecisionRecord) -> u64 {
        let shared = &*self.shared;
        let mut state = shared.lock();
        record.seq = state.head.count;
        let mut frame = Vec::with_capacity(96);
        let hash = encode_frame(&mut frame, &state.head.hash, &record);
        // An audit ledger must never drop a decision silently, but the
        // enforcement path cannot fail the data response over a full disk
        // either: a write error makes the ledger sticky-failed (a frame
        // missing from the file breaks the chain for every later one).
        if state.failed.is_none() {
            if let Err(e) = state.writer.write_all(&frame) {
                shared.fail(&mut state, &e);
            }
        }
        state.head = ChainHead {
            count: record.seq + 1,
            hash,
        };
        let seq = record.seq;
        state.records.push(record);
        shared.metrics.appends.inc();
        seq
    }

    fn sync_begin(&self) {
        self.shared.request(&mut self.shared.lock());
    }

    fn sync(&self) {
        let shared = &*self.shared;
        let mut state = shared.lock();
        let Some(target) = shared.request(&mut state) else {
            return;
        };
        while state.durable < target && state.failed.is_none() {
            state = shared.done.wait(state).expect("ledger state poisoned");
        }
    }

    fn sync_error(&self) -> Option<String> {
        self.shared.lock().failed.clone()
    }

    fn len(&self) -> u64 {
        self.shared.lock().head.count
    }

    fn recent(&self, limit: usize) -> Vec<DecisionRecord> {
        let state = self.shared.lock();
        let skip = state.records.len().saturating_sub(limit);
        state.records[skip..].to_vec()
    }

    fn page(&self, filter: &AuditFilter) -> AuditPage {
        sensorsafe_obsv::ledger::page_records(&self.shared.lock().records, filter)
    }

    fn awareness(&self) -> &AwarenessPlane {
        &self.shared.awareness
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_obsv::audit::Outcome;

    fn record(consumer: &str) -> DecisionRecord {
        DecisionRecord {
            seq: 0,
            unix_ms: 1_700_000_000_123,
            trace_id: 0xdead_beef,
            rule_epoch: 3,
            contributor: "alice".into(),
            consumer: consumer.into(),
            matched_rules: vec![0, 2],
            outcome: Outcome::Allowed,
            suppressed_channels: 0,
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sensorsafe-ledger-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.ledger");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(head_path(&path));
        path
    }

    #[test]
    fn appends_survive_reopen_exactly() {
        let path = temp_path("reopen");
        {
            let ledger = FileLedger::open(&path).unwrap();
            for i in 0..5 {
                ledger.append(record(&format!("c{i}")));
            }
            ledger.sync();
        }
        let reopened = FileLedger::open(&path).unwrap();
        assert_eq!(reopened.len(), 5);
        let records = reopened.recent(100);
        assert_eq!(records.len(), 5);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.consumer, format!("c{i}"));
        }
        // And the chain keeps extending across the restart boundary.
        reopened.append(record("late"));
        reopened.sync();
        assert_eq!(verify_ledger_file(&path).unwrap().len(), 6);
    }

    #[test]
    fn verify_chain_passes_between_append_and_sync() {
        let path = temp_path("presync");
        let ledger = FileLedger::open(&path).unwrap();
        ledger.append(record("bob"));
        assert_eq!(ledger.verify_chain().unwrap().len(), 1);
        ledger.sync();
        assert_eq!(ledger.verify_chain().unwrap().len(), 1);
    }

    #[test]
    fn tampered_file_is_rejected_on_open() {
        let path = temp_path("tamper");
        {
            let ledger = FileLedger::open(&path).unwrap();
            ledger.append(record("bob"));
            ledger.append(record("carol"));
            ledger.sync();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(FileLedger::open(&path).is_err());
    }

    #[test]
    fn frame_aligned_truncation_is_caught_by_the_head() {
        let path = temp_path("truncate");
        let first_frame_len;
        {
            let ledger = FileLedger::open(&path).unwrap();
            ledger.append(record("bob"));
            ledger.sync();
            first_frame_len = std::fs::metadata(&path).unwrap().len();
            ledger.append(record("carol"));
            ledger.sync();
        }
        // Drop the second record exactly at its frame boundary: the file
        // alone is a valid 1-record chain, but the head says 2.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..first_frame_len as usize]).unwrap();
        match verify_ledger_file(&path) {
            Err(LedgerError::HeadMismatch { expected, found }) => {
                assert_eq!((expected, found), (2, 1));
            }
            other => panic!("expected HeadMismatch, got {other:?}"),
        }
    }

    #[test]
    fn head_is_forty_bytes_overwritten_in_place() {
        use std::os::unix::fs::MetadataExt;
        let path = temp_path("in-place");
        let head = head_path(&path);
        let mut inode = None;
        for round in 0..2 {
            // Round 0 creates the sidecar (tmp + rename); round 1
            // reopens the ledger and adopts the existing one.
            let ledger = FileLedger::open(&path).unwrap();
            assert_eq!(ledger.len(), round * 5);
            for i in 0..5 {
                ledger.append(record(&format!("c{i}")));
                ledger.sync();
                let meta = std::fs::metadata(&head).unwrap();
                assert_eq!(meta.len(), 40, "head is exactly one ChainHead");
                assert_eq!(*inode.get_or_insert(meta.ino()), meta.ino(), "re-created");
                assert!(ledger.sync_error().is_none());
            }
            assert!(
                !with_suffix(&head, ".tmp").exists(),
                "creation left its tmp file"
            );
        }
        assert_eq!(verify_ledger_file(&path).unwrap().len(), 10);
    }

    #[test]
    fn stale_head_is_rejected_on_open() {
        let path = temp_path("stale-head");
        let old_head;
        {
            let ledger = FileLedger::open(&path).unwrap();
            ledger.append(record("bob"));
            ledger.sync();
            old_head = std::fs::read(head_path(&path)).unwrap();
            ledger.append(record("carol"));
            ledger.sync();
        }
        // A crash between the two syncs: frames durable, head one sync
        // behind. Not repaired silently — the operator removes the head.
        std::fs::write(head_path(&path), &old_head).unwrap();
        match FileLedger::open(&path) {
            Err(LedgerError::HeadMismatch { expected, found }) => {
                assert_eq!((expected, found), (1, 2));
            }
            other => panic!("expected HeadMismatch, got {:?}", other.map(|l| l.len())),
        }
    }

    #[test]
    fn sync_failure_is_sticky_counted_and_reported() {
        let path = temp_path("sync-fail");
        let _ = std::fs::remove_dir(head_path(&path));
        let ledger = FileLedger::open(&path).unwrap();
        // The sidecar cannot be created: its name is taken by a directory.
        std::fs::create_dir(head_path(&path)).unwrap();
        let failures = sync_failures_counter();
        let before = failures.get();
        ledger.append(record("bob"));
        ledger.sync();
        assert!(
            ledger.sync_error().is_some(),
            "a failed sync went unreported"
        );
        assert_eq!(failures.get() - before, 1);
        // Sticky: no retry into an unknown state, reads keep working.
        ledger.append(record("carol"));
        ledger.sync();
        assert_eq!(failures.get() - before, 1);
        assert_eq!(ledger.recent(10).len(), 2);
        // The frames that reached the file before the failure still
        // verify on their own.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(verify_frames(&bytes, None).unwrap().len(), 1);
        std::fs::remove_dir(head_path(&path)).unwrap();
    }

    /// Parks the sync thread between its two syncs: `paused` reports
    /// each round that got there (the first one blocks until `resume`),
    /// so a test can act while the disk is "busy" and count rounds.
    struct PausePoint {
        paused: std::sync::mpsc::Receiver<u32>,
        resume: std::sync::mpsc::Sender<()>,
    }

    fn pause_first_round(ledger: &FileLedger) -> PausePoint {
        let (paused_tx, paused) = std::sync::mpsc::channel();
        let (resume, resume_rx) = std::sync::mpsc::channel::<()>();
        let link = Mutex::new((paused_tx, resume_rx, 0u32));
        *ledger.shared.between_syncs.lock().unwrap() = Some(Arc::new(move || {
            let mut link = link.lock().unwrap();
            link.2 += 1;
            link.0.send(link.2).unwrap();
            if link.2 == 1 {
                link.1.recv().unwrap();
            }
        }));
        PausePoint { paused, resume }
    }

    const STUCK: std::time::Duration = std::time::Duration::from_secs(20);

    #[test]
    fn nobody_waits_on_the_disk_and_waiters_share_the_next_round() {
        let path = temp_path("overlap");
        let ledger = Arc::new(FileLedger::open(&path).unwrap());
        let pause = pause_first_round(&ledger);
        ledger.append(record("first"));
        ledger.sync_begin();
        assert_eq!(pause.paused.recv_timeout(STUCK), Ok(1));

        // Round 1 sits between its two syncs. Appenders and readers
        // go through regardless (on a helper thread, so that a
        // regression fails instead of hanging the suite).
        let (done_tx, done) = std::sync::mpsc::channel();
        let reader = {
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || {
                let seq = ledger.append(record("during"));
                let len = ledger.len();
                let page = ledger.page(&AuditFilter {
                    limit: 10,
                    ..AuditFilter::default()
                });
                let error = ledger.sync_error();
                done_tx.send((seq, len, page.matched, error)).unwrap();
            })
        };
        assert_eq!(done.recv_timeout(STUCK), Ok((1, 2, 2, None)));
        reader.join().unwrap();
        // The head on disk is still the one from before the round.
        assert!(!head_path(&path).exists());

        // Four requests arrive while the disk is busy: each appends,
        // then waits in `sync()`. None can be covered by round 1 (its
        // head was captured before they appended); one round 2 covers
        // them all.
        let appended = Arc::new(std::sync::Barrier::new(5));
        let (synced_tx, synced) = std::sync::mpsc::channel();
        let waiters: Vec<_> = (0..4)
            .map(|i| {
                let (ledger, appended, synced_tx) = (
                    Arc::clone(&ledger),
                    Arc::clone(&appended),
                    synced_tx.clone(),
                );
                std::thread::spawn(move || {
                    let seq = ledger.append(record(&format!("w{i}")));
                    appended.wait();
                    ledger.sync();
                    synced_tx.send(seq).unwrap();
                })
            })
            .collect();
        appended.wait();
        assert!(synced.try_recv().is_err(), "sync() returned mid-round");
        pause.resume.send(()).unwrap();
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert_eq!(pause.paused.recv_timeout(STUCK), Ok(2));
        let on_disk = verify_ledger_file(&path).unwrap();
        assert_eq!(on_disk.len(), 6, "round 2 covered every waiter");
        let mut seqs: Vec<u64> = synced.try_iter().collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [2, 3, 4, 5]);
        // Everything is durable: a further sync() starts no round.
        ledger.sync();
        assert!(pause.paused.try_recv().is_err(), "a round ran for nothing");
    }

    #[test]
    fn drop_flushes_pending_appends_and_joins_the_sync_thread() {
        let path = temp_path("drop");
        let ledger = FileLedger::open(&path).unwrap();
        let thread_alive = Arc::downgrade(&ledger.shared);
        for i in 0..3 {
            ledger.append(record(&format!("c{i}")));
        }
        drop(ledger);
        // The thread held the only other reference to the shared state.
        assert!(
            thread_alive.upgrade().is_none(),
            "ledger-sync outlived drop"
        );
        // Nobody called sync(), yet frames and head are both there.
        assert_eq!(verify_ledger_file(&path).unwrap().len(), 3);
        assert_eq!(std::fs::metadata(head_path(&path)).unwrap().len(), 40);
        assert_eq!(FileLedger::open(&path).unwrap().len(), 3);
    }

    #[test]
    fn dead_sync_thread_releases_waiters_with_a_sticky_error() {
        let path = temp_path("thread-death");
        let ledger = Arc::new(FileLedger::open(&path).unwrap());
        *ledger.shared.between_syncs.lock().unwrap() =
            Some(Arc::new(|| panic!("injected: ledger-sync dies mid-round")));
        ledger.append(record("bob"));
        let (done_tx, done) = std::sync::mpsc::channel();
        let waiter = {
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || {
                ledger.sync();
                done_tx.send(ledger.sync_error()).unwrap();
            })
        };
        let error = done
            .recv_timeout(STUCK)
            .expect("sync() hung on a dead thread");
        assert_eq!(error.as_deref(), Some("ledger-sync thread died"));
        waiter.join().unwrap();
        // Sticky: later appends and syncs return, nothing is written.
        let size = std::fs::metadata(&path).unwrap().len();
        ledger.append(record("carol"));
        ledger.sync();
        assert_eq!(ledger.len(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
    }

    #[test]
    fn missing_head_still_verifies_frames() {
        let path = temp_path("no-head");
        {
            let ledger = FileLedger::open(&path).unwrap();
            ledger.append(record("bob"));
            ledger.sync();
        }
        std::fs::remove_file(head_path(&path)).unwrap();
        // Recovery path: integrity of surviving frames is still provable.
        assert_eq!(verify_ledger_file(&path).unwrap().len(), 1);
        // Reopening rebuilds and (after a sync) rewrites the head.
        let ledger = FileLedger::open(&path).unwrap();
        ledger.append(record("carol"));
        ledger.sync();
        assert!(head_path(&path).exists());
        assert_eq!(verify_ledger_file(&path).unwrap().len(), 2);
    }
}

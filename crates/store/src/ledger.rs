//! File-backed audit ledger: `sensorsafe_obsv::ledger`'s chain semantics
//! with the WAL's durability discipline.
//!
//! Layout on disk: `<path>` holds the hash-chained record frames
//! (`u32 len | payload | 32-byte hash`, see `obsv::ledger`), and
//! `<path>.head` holds the 40-byte [`ChainHead`] (record count + final
//! chain hash). Appends are buffered; [`FileLedger::sync`] follows the WAL
//! pattern — flush, `sync_data` the ledger file, and only *then* write
//! and `sync_data` the head sidecar, so the head never attests records
//! that are not yet durable. The sidecar is created once (tmp file +
//! rename, so it is never seen short or empty) and from then on held
//! open and overwritten in place: its length never changes, so a sync
//! costs two data syncs and no truncate or size-changing metadata
//! commit. An I/O failure on either file is sticky
//! ([`AuditLedger::sync_error`]): after a failed fsync the page cache
//! can no longer be trusted, so the ledger stops writing and reports it
//! rather than retrying into an unknown state.
//!
//! Tamper and truncation detection: [`FileLedger::open`] replays and
//! verifies the whole chain against the head (a store refuses to silently
//! adopt an edited audit trail), and [`verify_ledger_file`] runs the same
//! check offline. If the *head sidecar itself* is lost or torn (e.g. a
//! crash between the two syncs), the chain still verifies record-by-record
//! with `verify_frames(bytes, None)` — see docs/OPERATIONS.md for the
//! recovery procedure.

use parking_lot::Mutex;
use sensorsafe_obsv::ledger::{encode_frame, verify_frames, ChainHead, GENESIS_HASH};
use sensorsafe_obsv::{AuditFilter, AuditLedger, AuditPage, DecisionRecord, LedgerError};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn appends_counter() -> Arc<sensorsafe_obsv::Counter> {
    sensorsafe_obsv::global().counter(
        "sensorsafe_audit_ledger_appends_total",
        "Enforcement decisions appended to an audit ledger.",
        &[],
    )
}

fn fsyncs_counter() -> Arc<sensorsafe_obsv::Counter> {
    sensorsafe_obsv::global().counter(
        "sensorsafe_audit_ledger_fsyncs_total",
        "Durable sync operations completed by file-backed audit ledgers.",
        &[],
    )
}

fn sync_failures_counter() -> Arc<sensorsafe_obsv::Counter> {
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

struct Inner {
    writer: BufWriter<File>,
    /// The head sidecar, held open and overwritten in place; `None`
    /// until the first sync of a ledger that has none creates it.
    head_file: Option<File>,
    /// In-memory mirror of every verified + appended record, for queries.
    records: Vec<DecisionRecord>,
    /// The chain's current end (covers buffered, not-yet-synced appends).
    head: ChainHead,
    /// Appends since the last completed sync.
    dirty: bool,
    /// Sticky I/O failure: set by the first failed write or sync, after
    /// which nothing more is written (the in-memory mirror keeps
    /// serving reads).
    failed: Option<String>,
}

impl Inner {
    /// WAL discipline: frames first, head second, a `sync_data` after
    /// each — the head on disk must never get ahead of durable frames.
    fn persist(&mut self, head_path: &Path) -> std::io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        let head_bytes = self.head.encode();
        match &self.head_file {
            Some(file) => {
                file.write_all_at(&head_bytes, 0)?;
                file.sync_data()
            }
            None => {
                self.head_file = Some(create_head(head_path, &head_bytes)?);
                Ok(())
            }
        }
    }

    fn fail(&mut self, path: &Path, e: std::io::Error) {
        eprintln!(
            "{{\"event\":\"audit_ledger_sync_failed\",\"path\":\"{}\",\"error\":\"{e}\"}}",
            path.display()
        );
        sync_failures_counter().inc();
        self.failed = Some(e.to_string());
    }
}

/// A durable [`AuditLedger`]: appends are hash-chained onto the verified
/// tail and made durable (file then head) on `sync`.
pub struct FileLedger {
    path: PathBuf,
    inner: Mutex<Inner>,
}

impl FileLedger {
    /// Opens (creating if absent) the ledger at `path`, verifying the
    /// existing chain against its head sidecar. Errors mean the audit
    /// trail is torn, tampered, or truncated — the caller decides whether
    /// to refuse startup or quarantine the file; this code never silently
    /// repairs it.
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
        // sync creates it.
        let head_file = match OpenOptions::new().write(true).open(head_path(&path)) {
            Ok(file) => Some(file),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err(e)),
        };
        Ok(FileLedger {
            path,
            inner: Mutex::new(Inner {
                writer: BufWriter::new(file),
                head_file,
                records,
                head,
                dirty: false,
                failed: None,
            }),
        })
    }

    /// The ledger file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-reads the file from disk and verifies the full chain — what
    /// `verify_chain` means operationally. (The in-memory mirror is *not*
    /// consulted: this checks what a restart would see.)
    pub fn verify_chain(&self) -> Result<Vec<DecisionRecord>, LedgerError> {
        // Flush buffered frames first so the on-disk image is complete
        // (verification, not durability — no fsync needed).
        let mut inner = self.inner.lock();
        if inner.writer.flush().is_err() {
            return Err(LedgerError::Io("flush before verify failed".into()));
        }
        // A verify between append and sync would see a head sidecar
        // behind the file; compare against the in-memory head instead.
        let bytes = std::fs::read(&self.path).map_err(io_err)?;
        verify_frames(&bytes, Some(&inner.head))
    }
}

impl AuditLedger for FileLedger {
    fn append(&self, mut record: DecisionRecord) -> u64 {
        let mut inner = self.inner.lock();
        record.seq = inner.head.count;
        let mut frame = Vec::with_capacity(96);
        let hash = encode_frame(&mut frame, &inner.head.hash, &record);
        // An audit ledger must never drop a decision silently, but the
        // enforcement path cannot fail the data response over a full disk
        // either: a write error makes the ledger sticky-failed (a frame
        // missing from the file breaks the chain for every later one).
        if inner.failed.is_none() {
            if let Err(e) = inner.writer.write_all(&frame) {
                inner.fail(&self.path, e);
            }
        }
        inner.head = ChainHead {
            count: record.seq + 1,
            hash,
        };
        inner.records.push(record);
        inner.dirty = true;
        appends_counter().inc();
        inner.head.count - 1
    }

    fn sync(&self) {
        let mut inner = self.inner.lock();
        if !inner.dirty || inner.failed.is_some() {
            return;
        }
        match inner.persist(&head_path(&self.path)) {
            Ok(()) => {
                inner.dirty = false;
                fsyncs_counter().inc();
            }
            Err(e) => inner.fail(&self.path, e),
        }
    }

    fn sync_error(&self) -> Option<String> {
        self.inner.lock().failed.clone()
    }

    fn len(&self) -> u64 {
        self.inner.lock().head.count
    }

    fn recent(&self, limit: usize) -> Vec<DecisionRecord> {
        let inner = self.inner.lock();
        let skip = inner.records.len().saturating_sub(limit);
        inner.records[skip..].to_vec()
    }

    fn page(&self, filter: &AuditFilter) -> AuditPage {
        sensorsafe_obsv::ledger::page_records(&self.inner.lock().records, filter)
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

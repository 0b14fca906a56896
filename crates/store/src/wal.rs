//! The log record: what the store-wide journal frames, what its
//! checkpoints snapshot, and what replication batches carry.
//!
//! Every durable byte a store writes about a contributor is one
//! [`WalRecord`], encoded as a tag plus a payload:
//!
//! ```text
//! u8  record tag (1 = segment, 2 = annotation, 3 = repl-applied mark,
//!     4 = assignment-epoch mark, 5 = repl batch, 6 = upload token,
//!     7 = account reset)
//! payload bytes (per-tag layout, see `encode_record_payload`)
//! ```
//!
//! The journal ([`crate::journal`]) wraps that in its own length + CRC
//! frame with the account name and sequence, and stores the same
//! tag + payload pairs in checkpoints, so a record reads back identically
//! from either place. This module also holds the two process-wide
//! append / fsync counters.

use crate::codec::{self, CodecError};
use sensorsafe_types::{ContextAnnotation, WaveSegment};
use std::sync::Arc;

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
    /// epoch/fence survive. The journal is shared by every account, so
    /// `/repl/reset` cannot rewrite it for one of them; it appends this
    /// marker instead.
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
/// enclosing journal frame's CRC covers the whole batch).
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
/// the journal's segment frames and its checkpoint entries, so both
/// carry byte-identical record payloads.
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

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_types::{
        ChannelSpec, ContextKind, ContextState, SegmentMeta, TimeRange, Timestamp, Timing,
    };

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
    fn bookkeeping_records_roundtrip() {
        let records = vec![
            WalRecord::Segment(seg(0)),
            WalRecord::Annotation(ann(0)),
            WalRecord::ReplApplied(11),
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
            WalRecord::AccountReset,
        ];
        for record in records {
            let (tag, payload) = encode_record_payload(&record);
            assert!(tag_is_known(tag));
            assert_eq!(decode_record_payload(tag, &payload).unwrap(), record);
        }
        assert!(!tag_is_known(0) && !tag_is_known(TAG_ACCOUNT_RESET + 1));
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
}

//! Replication shipping: sealed record batches and their wire codec.
//!
//! A replicated store keeps a [`ReplBuffer`] alongside its WAL. Every
//! record the store accepts is also observed by the buffer, which seals
//! the open batch once it crosses a record- or byte-count threshold
//! (rotation-lite: the active log is never rewritten, batches are cut
//! from the live stream). A background shipper drains sealed batches in
//! sequence order, pushes each to the replica as one `POST
//! /repl/segment` body, and acks the sequence once the replica has made
//! it durable. Acked batches are dropped; the lowest unacked sequence is
//! the buffer's **low-water mark**, which gates
//! [`SegmentStore::compact`](crate::SegmentStore::compact) — compaction
//! renumbers the shipping stream, so it must not run while the replica
//! is behind.
//!
//! Wire format of one shipped batch (little-endian, CRC-framed like the
//! WAL itself):
//!
//! ```text
//! u8  version (=1)
//! u16 contributor name length, name bytes
//! u64 assignment epoch of the shipping primary
//! u64 batch sequence number (1-based, per contributor)
//! u32 record count
//!     per record: u8 tag (1 = segment, 2 = annotation),
//!                 u32 payload length, payload bytes
//! u32 crc32 over every preceding byte
//! ```
//!
//! The replica rejects any frame whose CRC, version, tag set, or length
//! accounting is off — the proptests in `tests/repl_codec.rs` flip bytes
//! and truncate tails to prove it.

use crate::codec::{self, crc32, CodecError, Reader};
use crate::wal::WalRecord;
use std::collections::VecDeque;

/// Batch-sealing thresholds for a [`ReplBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplConfig {
    /// Seal the open batch once it holds this many records.
    pub seal_records: usize,
    /// Seal the open batch once its records sum to roughly this many
    /// bytes (approximate: segment blob sizes, not encoded frames).
    pub seal_bytes: usize,
}

impl Default for ReplConfig {
    /// 256 records or 256 KiB per batch: small enough that a replica
    /// catches up in many cheap requests, large enough to amortize the
    /// HTTP round trip.
    fn default() -> ReplConfig {
        ReplConfig {
            seal_records: 256,
            seal_bytes: 256 * 1024,
        }
    }
}

/// One sealed, shippable batch of records.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedBatch {
    /// 1-based batch sequence number, monotonic per contributor. The
    /// replica applies batches in order and skips any sequence at or
    /// below its durable high-water mark, making shipping idempotent.
    pub seq: u64,
    /// The records in stage order.
    pub records: Vec<WalRecord>,
}

/// The primary-side shipping buffer: an open batch being filled, sealed
/// batches awaiting replica acks, and the ack low-water mark.
pub struct ReplBuffer {
    config: ReplConfig,
    open: Vec<WalRecord>,
    open_bytes: usize,
    sealed: VecDeque<SealedBatch>,
    /// Sequence the next sealed batch will carry.
    next_seq: u64,
    /// Highest batch sequence the replica has acked.
    acked: u64,
}

impl ReplBuffer {
    /// An empty buffer with the given sealing thresholds.
    pub fn new(config: ReplConfig) -> ReplBuffer {
        ReplBuffer {
            config,
            open: Vec::new(),
            open_bytes: 0,
            sealed: VecDeque::new(),
            next_seq: 1,
            acked: 0,
        }
    }

    /// Observes one record accepted by the store, sealing the open
    /// batch if it crosses a threshold.
    pub fn observe(&mut self, record: WalRecord) {
        self.open_bytes += approx_record_bytes(&record);
        self.open.push(record);
        if self.open.len() >= self.config.seal_records || self.open_bytes >= self.config.seal_bytes
        {
            self.seal_open();
        }
    }

    /// Seals the open batch regardless of thresholds (the shipper calls
    /// this each pass so the live tail ships promptly). No-op when the
    /// open batch is empty.
    pub fn seal_open(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let batch = SealedBatch {
            seq: self.next_seq,
            records: std::mem::take(&mut self.open),
        };
        self.next_seq += 1;
        self.open_bytes = 0;
        self.sealed.push_back(batch);
        sensorsafe_obsv::global()
            .counter(
                "sensorsafe_store_repl_sealed_batches_total",
                "Replication batches sealed for shipping.",
                &[],
            )
            .inc();
    }

    /// Up to `max` sealed-but-unacked batches in sequence order
    /// (clones; the originals stay queued until acked).
    pub fn peek_unshipped(&self, max: usize) -> Vec<SealedBatch> {
        self.sealed.iter().take(max).cloned().collect()
    }

    /// Records the replica's durable high-water mark: every sealed
    /// batch at or below `seq` is dropped.
    pub fn ack(&mut self, seq: u64) {
        while self.sealed.front().is_some_and(|b| b.seq <= seq) {
            self.sealed.pop_front();
        }
        self.acked = self.acked.max(seq);
    }

    /// Batches not yet acked by the replica: sealed batches in the
    /// queue, plus one for a non-empty open batch. Zero means the
    /// replica has everything the store does (up to the open tail being
    /// empty) — the precondition for compaction.
    pub fn pending(&self) -> usize {
        self.sealed.len() + usize::from(!self.open.is_empty())
    }

    /// Highest batch sequence the replica has acked (the low-water
    /// mark: everything at or below it is safe to drop or rewrite).
    pub fn acked_seq(&self) -> u64 {
        self.acked
    }

    /// Sequence the next sealed batch will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The sealing thresholds this buffer was built with (used to build
    /// a replacement buffer when the shipping stream is re-snapshotted
    /// after a resync).
    pub fn config(&self) -> ReplConfig {
        self.config
    }
}

fn approx_record_bytes(record: &WalRecord) -> usize {
    match record {
        WalRecord::Segment(seg) => seg.approx_bytes(),
        WalRecord::Annotation(ann) => 24 + ann.states.len() * 2,
        WalRecord::ReplApplied(_) | WalRecord::AssignEpoch { .. } => 16,
        WalRecord::ReplBatch { records, .. } => {
            16 + records.iter().map(approx_record_bytes).sum::<usize>()
        }
        WalRecord::UploadToken { token, .. } => 16 + token.len(),
        WalRecord::AccountReset => 16,
    }
}

const WIRE_VERSION: u8 = 1;
const WIRE_TAG_SEGMENT: u8 = 1;
const WIRE_TAG_ANNOTATION: u8 = 2;

/// A decoded replication frame, as the replica sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplFrame {
    /// The contributor whose store this batch belongs to.
    pub contributor: String,
    /// The shipping primary's assignment epoch; the replica rejects
    /// frames from a fenced (stale-epoch) primary.
    pub epoch: u64,
    /// The batch sequence number.
    pub seq: u64,
    /// The records to apply, in stage order.
    pub records: Vec<WalRecord>,
}

fn err(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

/// Encodes one sealed batch for shipping (see the module docs for the
/// layout). Panics if the batch contains a bookkeeping record
/// ([`WalRecord::ReplApplied`] never enters a shipping buffer).
pub fn encode_batch(contributor: &str, epoch: u64, batch: &SealedBatch) -> Vec<u8> {
    let name = contributor.as_bytes();
    assert!(name.len() <= u16::MAX as usize, "contributor name too long");
    let mut out = Vec::with_capacity(64);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&batch.seq.to_le_bytes());
    out.extend_from_slice(&(batch.records.len() as u32).to_le_bytes());
    for record in &batch.records {
        let (tag, payload) = match record {
            WalRecord::Segment(seg) => (WIRE_TAG_SEGMENT, codec::encode_segment(seg)),
            WalRecord::Annotation(ann) => (WIRE_TAG_ANNOTATION, codec::encode_annotation(ann)),
            _ => unreachable!("bookkeeping records are never shipped"),
        };
        out.push(tag);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes (and integrity-checks) one shipped batch. Any CRC mismatch,
/// truncation, unknown tag, or trailing garbage is an error — a replica
/// never applies a frame it cannot fully account for.
pub fn decode_batch(buf: &[u8]) -> Result<ReplFrame, CodecError> {
    if buf.len() < 4 {
        return Err(err("frame shorter than its checksum"));
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let expected = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != expected {
        return Err(err("frame checksum mismatch"));
    }
    let mut r = Reader::new(body, "repl frame");
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(err(format!("unsupported repl frame version {version}")));
    }
    let name_len = r.u16()? as usize;
    let contributor = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| err("contributor name not UTF-8"))?
        .to_string();
    if contributor.is_empty() {
        return Err(err("empty contributor name"));
    }
    let epoch = r.u64()?;
    let seq = r.u64()?;
    if seq == 0 {
        return Err(err("batch sequence must be positive"));
    }
    let count = r.u32()? as usize;
    let mut records = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let tag = r.u8()?;
        let len = r.u32()? as usize;
        let payload = r.take(len)?;
        let record = match tag {
            WIRE_TAG_SEGMENT => WalRecord::Segment(codec::decode_segment(payload)?),
            WIRE_TAG_ANNOTATION => WalRecord::Annotation(codec::decode_annotation(payload)?),
            other => return Err(err(format!("unknown repl record tag {other}"))),
        };
        records.push(record);
    }
    r.finish()?;
    Ok(ReplFrame {
        contributor,
        epoch,
        seq,
        records,
    })
}

/// Hex-encodes a binary frame for embedding in a JSON request body.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes the hex form produced by [`to_hex`].
pub fn from_hex(s: &str) -> Result<Vec<u8>, CodecError> {
    if !s.len().is_multiple_of(2) {
        return Err(err("odd-length hex string"));
    }
    let digit = |c: u8| -> Result<u8, CodecError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(err("non-hex character")),
        }
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push(digit(pair[0])? << 4 | digit(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_types::{
        ChannelSpec, ContextAnnotation, ContextKind, ContextState, SegmentMeta, TimeRange,
        Timestamp, Timing, WaveSegment,
    };

    fn seg(start: i64, rows: usize) -> WaveSegment {
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp::from_millis(start),
                interval_secs: 0.02,
            },
            location: None,
            format: vec![ChannelSpec::f32("ecg")],
        };
        let data: Vec<Vec<f64>> = (0..rows).map(|i| vec![i as f64]).collect();
        WaveSegment::from_rows(meta, &data).unwrap()
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
    fn buffer_seals_at_record_threshold() {
        let mut buf = ReplBuffer::new(ReplConfig {
            seal_records: 3,
            seal_bytes: usize::MAX,
        });
        for i in 0..7 {
            buf.observe(WalRecord::Segment(seg(i * 320, 16)));
        }
        // 7 records: two sealed batches of 3, one open record.
        assert_eq!(buf.pending(), 3);
        let peeked = buf.peek_unshipped(10);
        assert_eq!(peeked.len(), 2);
        assert_eq!(peeked[0].seq, 1);
        assert_eq!(peeked[0].records.len(), 3);
        assert_eq!(peeked[1].seq, 2);
        buf.seal_open();
        assert_eq!(buf.peek_unshipped(10).len(), 3);
        assert_eq!(buf.peek_unshipped(10)[2].records.len(), 1);
    }

    #[test]
    fn buffer_seals_at_byte_threshold() {
        let mut buf = ReplBuffer::new(ReplConfig {
            seal_records: usize::MAX,
            seal_bytes: 1,
        });
        buf.observe(WalRecord::Segment(seg(0, 16)));
        buf.observe(WalRecord::Annotation(ann(0)));
        assert_eq!(buf.pending(), 2, "every record crosses one byte");
    }

    #[test]
    fn ack_drops_through_low_water() {
        let mut buf = ReplBuffer::new(ReplConfig {
            seal_records: 1,
            seal_bytes: usize::MAX,
        });
        for i in 0..5 {
            buf.observe(WalRecord::Segment(seg(i * 320, 16)));
        }
        assert_eq!(buf.pending(), 5);
        buf.ack(3);
        assert_eq!(buf.pending(), 2);
        assert_eq!(buf.acked_seq(), 3);
        assert_eq!(buf.peek_unshipped(10)[0].seq, 4);
        // Acks are monotonic: a stale ack changes nothing.
        buf.ack(1);
        assert_eq!(buf.acked_seq(), 3);
        assert_eq!(buf.pending(), 2);
        buf.ack(5);
        assert_eq!(buf.pending(), 0);
        // Sequences keep counting after a drain.
        buf.observe(WalRecord::Segment(seg(99_000, 16)));
        assert_eq!(buf.peek_unshipped(10)[0].seq, 6);
    }

    #[test]
    fn seal_open_on_empty_is_noop() {
        let mut buf = ReplBuffer::new(ReplConfig::default());
        buf.seal_open();
        assert_eq!(buf.pending(), 0);
        assert_eq!(buf.next_seq(), 1);
    }

    #[test]
    fn batch_roundtrip() {
        let batch = SealedBatch {
            seq: 7,
            records: vec![
                WalRecord::Segment(seg(0, 64)),
                WalRecord::Annotation(ann(0)),
                WalRecord::Segment(seg(1280, 64)),
            ],
        };
        let bytes = encode_batch("alice", 3, &batch);
        let frame = decode_batch(&bytes).unwrap();
        assert_eq!(frame.contributor, "alice");
        assert_eq!(frame.epoch, 3);
        assert_eq!(frame.seq, 7);
        assert_eq!(frame.records, batch.records);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let batch = SealedBatch {
            seq: 1,
            records: Vec::new(),
        };
        let frame = decode_batch(&encode_batch("a", 1, &batch)).unwrap();
        assert!(frame.records.is_empty());
    }

    #[test]
    fn decode_rejects_corruption() {
        let batch = SealedBatch {
            seq: 2,
            records: vec![WalRecord::Segment(seg(0, 8))],
        };
        let bytes = encode_batch("alice", 1, &batch);
        // Truncation at every prefix must error, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_batch(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Any single flipped byte must be caught by the CRC.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            assert!(decode_batch(&bad).is_err(), "flip at {i}");
        }
        // Trailing garbage shifts the checksum window: rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_batch(&long).is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let data = encode_batch(
            "alice",
            1,
            &SealedBatch {
                seq: 1,
                records: vec![WalRecord::Annotation(ann(5))],
            },
        );
        let hex = to_hex(&data);
        assert_eq!(from_hex(&hex).unwrap(), data);
        assert!(from_hex("zz").is_err());
        assert!(from_hex("abc").is_err());
    }
}

//! Binary codecs for the write-ahead log.
//!
//! Layout is little-endian throughout. Segment records:
//!
//! ```text
//! u8  version (=1)
//! u8  timing tag (0 = uniform, 1 = per-sample)
//!     uniform:    i64 start_ms, f64 interval_secs
//!     per-sample: u32 n, n × i64 stamps
//! u8  has_location; if 1: f64 lat, f64 lon
//! u16 channel count; per channel: u8 kind, u16 name_len, name bytes
//! u64 blob length, blob bytes
//! ```
//!
//! Annotation records:
//!
//! ```text
//! u8 version (=1), i64 window_start, i64 window_end,
//! u16 state count; per state: u8 kind index, u8 active
//! ```

use bytes::Bytes;
use sensorsafe_types::{
    ChannelId, ChannelSpec, ContextAnnotation, ContextKind, ContextState, GeoPoint, SegmentMeta,
    TimeRange, Timestamp, Timing, ValueKind, WaveSegment,
};

/// Errors decoding log records.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

const VERSION: u8 = 1;

/// Bounds-checked cursor over one encoded `what` (named in its errors):
/// every read is length-checked and [`Reader::finish`] rejects trailing
/// bytes. The replication frame codec ([`crate::repl`]) reads with it too.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, pos: 0, what }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(err(format!("truncated {}", self.what)));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn finish(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(err(format!("trailing bytes after {}", self.what)))
        }
    }
}

fn kind_tag(kind: ValueKind) -> u8 {
    match kind {
        ValueKind::F64 => 0,
        ValueKind::F32 => 1,
        ValueKind::I16 => 2,
    }
}

fn kind_from_tag(tag: u8) -> Result<ValueKind, CodecError> {
    match tag {
        0 => Ok(ValueKind::F64),
        1 => Ok(ValueKind::F32),
        2 => Ok(ValueKind::I16),
        other => Err(err(format!("unknown value kind tag {other}"))),
    }
}

/// Encodes a segment to its binary log form.
pub fn encode_segment(seg: &WaveSegment) -> Vec<u8> {
    let meta = seg.meta();
    let mut out = Vec::with_capacity(seg.blob().len() + 64);
    out.push(VERSION);
    match &meta.timing {
        Timing::Uniform {
            start,
            interval_secs,
        } => {
            out.push(0);
            out.extend_from_slice(&start.millis().to_le_bytes());
            out.extend_from_slice(&interval_secs.to_le_bytes());
        }
        Timing::PerSample(stamps) => {
            out.push(1);
            out.extend_from_slice(&(stamps.len() as u32).to_le_bytes());
            for t in stamps {
                out.extend_from_slice(&t.millis().to_le_bytes());
            }
        }
    }
    match meta.location {
        Some(p) => {
            out.push(1);
            out.extend_from_slice(&p.latitude.to_le_bytes());
            out.extend_from_slice(&p.longitude.to_le_bytes());
        }
        None => out.push(0),
    }
    out.extend_from_slice(&(meta.format.len() as u16).to_le_bytes());
    for spec in &meta.format {
        out.push(kind_tag(spec.kind));
        let name = spec.channel.as_str().as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
    }
    out.extend_from_slice(&(seg.blob().len() as u64).to_le_bytes());
    out.extend_from_slice(seg.blob());
    out
}

/// Decodes a segment from its binary log form.
pub fn decode_segment(buf: &[u8]) -> Result<WaveSegment, CodecError> {
    let mut r = Reader::new(buf, "record");
    let version = r.u8()?;
    if version != VERSION {
        return Err(err(format!("unsupported segment version {version}")));
    }
    let timing = match r.u8()? {
        0 => Timing::Uniform {
            start: Timestamp::from_millis(r.i64()?),
            interval_secs: r.f64()?,
        },
        1 => {
            let n = r.u32()? as usize;
            let mut stamps = Vec::with_capacity(n);
            for _ in 0..n {
                stamps.push(Timestamp::from_millis(r.i64()?));
            }
            Timing::PerSample(stamps)
        }
        other => return Err(err(format!("unknown timing tag {other}"))),
    };
    let location = match r.u8()? {
        0 => None,
        1 => Some(GeoPoint::new(r.f64()?, r.f64()?)),
        other => return Err(err(format!("bad location flag {other}"))),
    };
    let nchan = r.u16()? as usize;
    let mut format = Vec::with_capacity(nchan);
    for _ in 0..nchan {
        let kind = kind_from_tag(r.u8()?)?;
        let name_len = r.u16()? as usize;
        let name =
            std::str::from_utf8(r.take(name_len)?).map_err(|_| err("channel name not UTF-8"))?;
        format.push(ChannelSpec {
            channel: ChannelId::try_new(name).ok_or_else(|| err("empty channel name"))?,
            kind,
        });
    }
    let blob_len = r.u64()? as usize;
    let blob = Bytes::copy_from_slice(r.take(blob_len)?);
    r.finish()?;
    WaveSegment::from_blob(
        SegmentMeta {
            timing,
            location,
            format,
        },
        blob,
    )
    .map_err(|e| err(format!("invalid segment: {e}")))
}

fn context_tag(kind: ContextKind) -> u8 {
    ContextKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("ALL contains every kind") as u8
}

fn context_from_tag(tag: u8) -> Result<ContextKind, CodecError> {
    ContextKind::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| err(format!("unknown context tag {tag}")))
}

/// Encodes a context annotation to its binary log form.
pub fn encode_annotation(ann: &ContextAnnotation) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + ann.states.len() * 2);
    out.push(VERSION);
    out.extend_from_slice(&ann.window.start.millis().to_le_bytes());
    out.extend_from_slice(&ann.window.end.millis().to_le_bytes());
    out.extend_from_slice(&(ann.states.len() as u16).to_le_bytes());
    for s in &ann.states {
        out.push(context_tag(s.kind));
        out.push(s.active as u8);
    }
    out
}

/// Decodes a context annotation.
pub fn decode_annotation(buf: &[u8]) -> Result<ContextAnnotation, CodecError> {
    let mut r = Reader::new(buf, "record");
    let version = r.u8()?;
    if version != VERSION {
        return Err(err(format!("unsupported annotation version {version}")));
    }
    let start = Timestamp::from_millis(r.i64()?);
    let end = Timestamp::from_millis(r.i64()?);
    if end < start {
        return Err(err("annotation window end before start"));
    }
    let n = r.u16()? as usize;
    let mut states = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = context_from_tag(r.u8()?)?;
        let active = match r.u8()? {
            0 => false,
            1 => true,
            other => return Err(err(format!("bad active flag {other}"))),
        };
        states.push(ContextState { kind, active });
    }
    r.finish()?;
    Ok(ContextAnnotation::new(TimeRange::new(start, end), states))
}

/// Slicing-by-8 tables for the reflected IEEE polynomial: `CRC_TABLES[0]`
/// is the classic byte table, and `CRC_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight table reads retire eight
/// input bytes. Built at compile time (8 KiB).
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Incremental CRC-32 (IEEE 802.3, reflected): feeding a buffer in any
/// number of [`Crc32::update`] calls gives the same [`Crc32::finish`] as
/// [`crc32`] over the whole of it. A checkpoint checksums its stream
/// this way without holding the stream.
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A checksum over no bytes yet.
    pub(crate) const fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `data` into the checksum, eight bytes per step.
    pub(crate) fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub(crate) fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE 802.3, reflected) for log-record framing.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// A nibble-table CRC-32, one table read per four bits: the independent
/// bit-for-bit reference the slicing-by-8 kernel is tested against.
#[cfg(test)]
pub(crate) fn crc32_nibble(data: &[u8]) -> u32 {
    const TABLE: [u32; 16] = [
        0x0000_0000,
        0x1db7_1064,
        0x3b6e_20c8,
        0x26d9_30ac,
        0x76dc_4190,
        0x6b6b_51f4,
        0x4db2_6158,
        0x5005_713c,
        0xedb8_8320,
        0xf00f_9344,
        0xd6d6_a3e8,
        0xcb61_b38c,
        0x9b64_c2b0,
        0x86d3_d2d4,
        0xa00a_e278,
        0xbdbd_f21c,
    ];
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 4) ^ TABLE[((crc ^ (b as u32)) & 0xf) as usize];
        crc = (crc >> 4) ^ TABLE[((crc ^ ((b as u32) >> 4)) & 0xf) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segment() -> WaveSegment {
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp::from_millis(1_311_535_598_327),
                interval_secs: 0.02,
            },
            location: Some(GeoPoint::ucla()),
            format: vec![ChannelSpec::i16("ecg"), ChannelSpec::f32("respiration")],
        };
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, 300.0 - i as f64]).collect();
        WaveSegment::from_rows(meta, &rows).unwrap()
    }

    #[test]
    fn segment_roundtrip_uniform() {
        let seg = sample_segment();
        let bytes = encode_segment(&seg);
        let back = decode_segment(&bytes).unwrap();
        assert_eq!(back, seg);
    }

    #[test]
    fn segment_roundtrip_per_sample_no_location() {
        let meta = SegmentMeta {
            timing: Timing::PerSample(vec![Timestamp::from_millis(5), Timestamp::from_millis(9)]),
            location: None,
            format: vec![ChannelSpec::f64("x")],
        };
        let seg = WaveSegment::from_rows(meta, &[vec![1.5], vec![-2.5]]).unwrap();
        let back = decode_segment(&encode_segment(&seg)).unwrap();
        assert_eq!(back, seg);
    }

    #[test]
    fn segment_binary_is_compact() {
        // The binary form should be far smaller than the JSON form, even
        // on this header-heavy packet of one- to three-digit values that
        // JSON prints at column precision (`12`, `288.0`).
        let seg = sample_segment();
        let binary = encode_segment(&seg).len();
        let json = seg.to_json().to_string().len();
        assert!(
            binary * 3 < json * 2,
            "binary {binary} should be <2/3 of JSON {json}"
        );
    }

    #[test]
    fn segment_rejects_corruption() {
        let seg = sample_segment();
        let bytes = encode_segment(&seg);
        // Truncation at every prefix must error, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_segment(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Bad version.
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(decode_segment(&bad).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_segment(&long).is_err());
    }

    #[test]
    fn annotation_roundtrip() {
        let ann = ContextAnnotation::new(
            TimeRange::new(Timestamp::from_millis(100), Timestamp::from_millis(200)),
            vec![
                ContextState::on(ContextKind::Drive),
                ContextState::off(ContextKind::Stress),
                ContextState::on(ContextKind::Smoking),
            ],
        );
        let back = decode_annotation(&encode_annotation(&ann)).unwrap();
        assert_eq!(back, ann);
    }

    #[test]
    fn annotation_all_context_kinds_roundtrip() {
        for kind in ContextKind::ALL {
            let ann = ContextAnnotation::new(
                TimeRange::new(Timestamp::from_millis(0), Timestamp::from_millis(1)),
                vec![ContextState::on(kind)],
            );
            let back = decode_annotation(&encode_annotation(&ann)).unwrap();
            assert_eq!(back.states[0].kind, kind);
        }
    }

    #[test]
    fn annotation_rejects_corruption() {
        let ann = ContextAnnotation::new(
            TimeRange::new(Timestamp::from_millis(0), Timestamp::from_millis(1)),
            vec![ContextState::on(ContextKind::Walk)],
        );
        let bytes = encode_annotation(&ann);
        for cut in 0..bytes.len() {
            assert!(decode_annotation(&bytes[..cut]).is_err());
        }
        let mut bad_tag = bytes.clone();
        let len = bad_tag.len();
        bad_tag[len - 2] = 200; // context tag out of range
        assert!(decode_annotation(&bad_tag).is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_matches_the_nibble_reference_on_every_short_length() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), crc32_nibble(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn crc32_matches_the_nibble_reference_on_random_buffers() {
        use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed_c3c3);
        let mut buf = vec![0u8; 64 * 1024];
        for case in 0..1000 {
            let len = rng.gen_range(0..=buf.len());
            rng.fill_bytes(&mut buf[..len]);
            assert_eq!(
                crc32(&buf[..len]),
                crc32_nibble(&buf[..len]),
                "case {case}, len {len}"
            );
        }
    }

    #[test]
    fn crc32_incremental_update_splits_anywhere() {
        let data = encode_segment(&sample_segment());
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn crc32_detects_bitflips() {
        let data = encode_segment(&sample_segment());
        let good = crc32(&data);
        let mut flipped = data.clone();
        flipped[10] ^= 0x01;
        assert_ne!(crc32(&flipped), good);
    }
}

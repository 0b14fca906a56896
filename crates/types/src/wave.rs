//! Wave segments: the paper's compact time-series representation (Fig. 5).
//!
//! "A continuous stream of sensor data is divided into many segments,
//! called wave segments ... A wave segment consists of a sensor value blob
//! and additional metadata describing the value blob. The metadata
//! includes a start time, a sampling interval, a location, and a format of
//! tuples in the value blob."
//!
//! A [`WaveSegment`] stores its samples row-major in a [`bytes::Bytes`]
//! blob: one tuple per sample, one column per [`ChannelSpec`]. Two timing
//! modes mirror the paper:
//!
//! * [`Timing::Uniform`] — a start time and a sampling interval, the
//!   common case for periodically sampled sensors;
//! * [`Timing::PerSample`] — an explicit timestamp per sample, "necessary
//!   to represent sampling schemes such as adaptive, compressive, and
//!   episodic".

use crate::channel::{ChannelId, ChannelSpec, ValueKind};
use crate::location::GeoPoint;
use crate::time::{TimeRange, Timestamp};
use bytes::{Bytes, BytesMut};
use sensorsafe_json::{
    json, widen_f32, write_array, write_f32, write_f64, write_i64, write_str, Map, ParseError,
    Reader, Token, Value,
};

/// Errors constructing or decoding wave segments.
#[derive(Debug, Clone, PartialEq)]
pub enum WaveError {
    /// A row had the wrong number of columns.
    RowWidth {
        /// Expected column count (the format width).
        expected: usize,
        /// Actual column count supplied.
        actual: usize,
    },
    /// Per-sample timestamp count didn't match the row count.
    TimestampCount,
    /// Per-sample timestamps went backwards.
    TimestampsNotMonotonic,
    /// The blob length is not a multiple of the tuple width.
    BlobMisaligned,
    /// A JSON document was missing or mistyped a field.
    Json(String),
    /// Sampling interval must be positive and finite.
    BadInterval,
    /// The format (channel list) was empty.
    EmptyFormat,
    /// A value for an `f32` column narrows to an infinite `f32`: no JSON
    /// text could carry it back out.
    F32Overflow {
        /// Sample (row) index.
        row: usize,
        /// Column index.
        column: usize,
    },
}

impl std::fmt::Display for WaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaveError::RowWidth { expected, actual } => {
                write!(f, "row has {actual} values, format has {expected} channels")
            }
            WaveError::TimestampCount => write!(f, "timestamp count differs from row count"),
            WaveError::TimestampsNotMonotonic => write!(f, "timestamps must be non-decreasing"),
            WaveError::BlobMisaligned => write!(f, "blob length not a multiple of tuple width"),
            WaveError::Json(msg) => write!(f, "invalid wave-segment JSON: {msg}"),
            WaveError::BadInterval => write!(f, "sampling interval must be positive and finite"),
            WaveError::EmptyFormat => write!(f, "wave segment needs at least one channel"),
            WaveError::F32Overflow { row, column } => {
                write!(f, "row {row}, column {column}: value beyond the f32 range")
            }
        }
    }
}

impl std::error::Error for WaveError {}

/// How sample instants are represented.
#[derive(Debug, Clone, PartialEq)]
pub enum Timing {
    /// Samples at `start + i * interval`.
    Uniform {
        /// Time of sample 0.
        start: Timestamp,
        /// Seconds between samples (e.g. `0.02` for 50 Hz).
        interval_secs: f64,
    },
    /// An explicit, non-decreasing timestamp per sample.
    PerSample(Vec<Timestamp>),
}

/// Metadata describing a wave segment's blob (Fig. 5's header).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Sample timing.
    pub timing: Timing,
    /// Where the samples were taken, if known. Mobile traces with a moving
    /// location carry GPS as data channels instead (paper: "for mobile
    /// sensors, time and location stamps are stored in the value blob as
    /// additional sensor channels").
    pub location: Option<GeoPoint>,
    /// Tuple format: one column per channel.
    pub format: Vec<ChannelSpec>,
}

/// A compact, immutable segment of multi-channel time-series data.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveSegment {
    meta: SegmentMeta,
    /// Row-major encoded tuples; cheap to clone and slice (ref-counted).
    blob: Bytes,
    rows: usize,
    /// Byte offset of each column inside a tuple, then the tuple width:
    /// derived from `meta.format` when the segment is assembled, so cell
    /// access never re-walks the format. Not part of any wire form.
    offsets: Vec<usize>,
}

/// One decoded blob cell, still at its column's declared kind.
#[derive(Clone, Copy)]
enum Cell {
    F64(f64),
    F32(f32),
    I16(i16),
}

impl Cell {
    /// Decodes the cell that starts `bytes`.
    fn decode(bytes: &[u8], kind: ValueKind) -> Cell {
        match kind {
            ValueKind::F64 => Cell::F64(f64::from_le_bytes(cell_bytes(bytes))),
            ValueKind::F32 => Cell::F32(f32::from_le_bytes(cell_bytes(bytes))),
            ValueKind::I16 => Cell::I16(i16::from_le_bytes(cell_bytes(bytes))),
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Cell::F64(v) => v,
            Cell::F32(v) => v as f64,
            Cell::I16(v) => v as f64,
        }
    }
}

impl WaveSegment {
    /// Builds a segment from `rows` of `f64` values (one inner slice per
    /// sample, one value per format column). Values are narrowed to each
    /// column's [`ValueKind`]; a value an `f32` column would hold as an
    /// infinity is refused ([`WaveError::F32Overflow`]).
    pub fn from_rows(meta: SegmentMeta, rows: &[Vec<f64>]) -> Result<WaveSegment, WaveError> {
        if meta.format.is_empty() {
            return Err(WaveError::EmptyFormat);
        }
        check_timing(&meta.timing, rows.len())?;
        let offsets = column_offsets(&meta.format);
        let mut blob = Vec::with_capacity(offsets[meta.format.len()] * rows.len());
        for (r, row) in rows.iter().enumerate() {
            if row.len() != meta.format.len() {
                return Err(WaveError::RowWidth {
                    expected: meta.format.len(),
                    actual: row.len(),
                });
            }
            for (c, (value, spec)) in row.iter().zip(&meta.format).enumerate() {
                if !encode_value(&mut blob, *value, spec.kind) {
                    return Err(WaveError::F32Overflow { row: r, column: c });
                }
            }
        }
        Ok(WaveSegment {
            meta,
            blob: Bytes::from(blob),
            rows: rows.len(),
            offsets,
        })
    }

    /// Reassembles a segment from an already-encoded blob (the storage
    /// engine's read path). Validates alignment and timing invariants.
    pub fn from_blob(meta: SegmentMeta, blob: Bytes) -> Result<WaveSegment, WaveError> {
        if meta.format.is_empty() {
            return Err(WaveError::EmptyFormat);
        }
        let offsets = column_offsets(&meta.format);
        let width = offsets[meta.format.len()];
        if !blob.len().is_multiple_of(width) {
            return Err(WaveError::BlobMisaligned);
        }
        let rows = blob.len() / width;
        check_timing(&meta.timing, rows)?;
        Ok(WaveSegment {
            meta,
            blob,
            rows,
            offsets,
        })
    }

    /// The segment metadata.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// The raw encoded blob.
    pub fn blob(&self) -> &Bytes {
        &self.blob
    }

    /// Number of samples (tuples).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Bytes per tuple.
    pub fn tuple_width(&self) -> usize {
        self.offsets[self.meta.format.len()]
    }

    /// Approximate in-memory footprint in bytes (blob + timestamps).
    pub fn approx_bytes(&self) -> usize {
        let stamps = match &self.meta.timing {
            Timing::Uniform { .. } => 16,
            Timing::PerSample(v) => v.len() * 8,
        };
        self.blob.len() + stamps + std::mem::size_of::<SegmentMeta>()
    }

    /// The instant of sample `i`.
    pub fn time_at(&self, i: usize) -> Timestamp {
        assert!(i < self.rows, "sample index out of range");
        match &self.meta.timing {
            Timing::Uniform {
                start,
                interval_secs,
            } => start.plus_secs_f64(*interval_secs * i as f64),
            Timing::PerSample(stamps) => stamps[i],
        }
    }

    /// The instant of the first sample; `None` for empty segments.
    pub fn start_time(&self) -> Option<Timestamp> {
        (self.rows > 0).then(|| self.time_at(0))
    }

    /// The half-open time extent `[first, last + interval)`; per-sample
    /// segments use `last + 1ms` as the exclusive end.
    pub fn time_range(&self) -> Option<TimeRange> {
        if self.rows == 0 {
            return None;
        }
        let start = self.time_at(0);
        let end = match &self.meta.timing {
            Timing::Uniform {
                start,
                interval_secs,
            } => start.plus_secs_f64(*interval_secs * self.rows as f64),
            Timing::PerSample(stamps) => stamps[self.rows - 1].plus_millis(1),
        };
        Some(TimeRange::new(start, end))
    }

    /// Reads the value at `(row, col)` as `f64`.
    pub fn value(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows, "row out of range");
        assert!(col < self.meta.format.len(), "column out of range");
        let offset = row * self.tuple_width() + self.offsets[col];
        Cell::decode(&self.blob[offset..], self.meta.format[col].kind).as_f64()
    }

    /// The cells of `tuple` (a blob slice starting at a row), decoded at
    /// their declared kinds.
    fn cells<'a>(&'a self, tuple: &'a [u8]) -> impl Iterator<Item = Cell> + 'a {
        self.meta
            .format
            .iter()
            .zip(&self.offsets)
            .map(move |(spec, &offset)| Cell::decode(&tuple[offset..], spec.kind))
    }

    /// The cells of each tuple in turn.
    fn tuples(&self) -> impl Iterator<Item = impl Iterator<Item = Cell> + '_> + '_ {
        self.blob
            .chunks_exact(self.tuple_width())
            .map(|tuple| self.cells(tuple))
    }

    /// One sample as a `Vec<f64>`.
    pub fn row(&self, row: usize) -> Vec<f64> {
        assert!(row < self.rows, "row out of range");
        self.cells(&self.blob[row * self.tuple_width()..])
            .map(Cell::as_f64)
            .collect()
    }

    /// Column index of `channel`, if present.
    pub fn column_of(&self, channel: &ChannelId) -> Option<usize> {
        self.meta.format.iter().position(|s| &s.channel == channel)
    }

    /// All values of one channel.
    pub fn channel_values(&self, channel: &ChannelId) -> Option<Vec<f64>> {
        let col = self.column_of(channel)?;
        let (offset, kind) = (self.offsets[col], self.meta.format[col].kind);
        Some(
            self.blob
                .chunks_exact(self.tuple_width())
                .map(|tuple| Cell::decode(&tuple[offset..], kind).as_f64())
                .collect(),
        )
    }

    /// The channels carried by this segment, in column order.
    pub fn channels(&self) -> impl Iterator<Item = &ChannelId> {
        self.meta.format.iter().map(|s| &s.channel)
    }

    /// Projects the segment onto a subset of channels (used by rule
    /// enforcement to suppress columns). Returns `None` if no requested
    /// channel is present.
    pub fn select_channels(&self, keep: &[ChannelId]) -> Option<WaveSegment> {
        let cols: Vec<usize> = self
            .meta
            .format
            .iter()
            .enumerate()
            .filter(|(_, s)| keep.contains(&s.channel))
            .map(|(i, _)| i)
            .collect();
        if cols.is_empty() {
            return None;
        }
        if cols.len() == self.meta.format.len() {
            return Some(self.clone());
        }
        let format: Vec<ChannelSpec> = cols.iter().map(|&i| self.meta.format[i].clone()).collect();
        let offsets = column_offsets(&format);
        // The kept cells are copied as bytes: no decode, no re-encode.
        let mut blob = BytesMut::with_capacity(offsets[format.len()] * self.rows);
        for tuple in self.blob.chunks_exact(self.tuple_width()) {
            for &c in &cols {
                blob.extend_from_slice(&tuple[self.offsets[c]..self.offsets[c + 1]]);
            }
        }
        Some(WaveSegment {
            meta: SegmentMeta {
                timing: self.meta.timing.clone(),
                location: self.meta.location,
                format,
            },
            blob: blob.freeze(),
            rows: self.rows,
            offsets,
        })
    }

    /// Restricts the segment to samples inside `range`. Returns `None` if
    /// no sample falls inside. Uniform timing is preserved (the slice
    /// start shifts); per-sample timestamps are subset.
    pub fn slice_time(&self, range: &TimeRange) -> Option<WaveSegment> {
        if self.rows == 0 {
            return None;
        }
        match &self.meta.timing {
            Timing::Uniform {
                start,
                interval_secs,
            } => {
                let interval_ms = interval_secs * 1_000.0;
                // Saturating arithmetic: `TimeRange::all()` uses i64 extremes.
                // First index with time >= range.start.
                let lo_f = range.start.millis().saturating_sub(start.millis()) as f64 / interval_ms;
                let lo = lo_f.ceil().max(0.0) as usize;
                // First index with time >= range.end (exclusive bound).
                let hi_f = range.end.millis().saturating_sub(start.millis()) as f64 / interval_ms;
                let hi = (hi_f.ceil().max(0.0).min(self.rows as f64)) as usize;
                if lo >= hi {
                    return None;
                }
                let width = self.tuple_width();
                let meta = SegmentMeta {
                    timing: Timing::Uniform {
                        start: start.plus_secs_f64(interval_secs * lo as f64),
                        interval_secs: *interval_secs,
                    },
                    location: self.meta.location,
                    format: self.meta.format.clone(),
                };
                let blob = self.blob.slice(lo * width..hi * width);
                Some(WaveSegment {
                    meta,
                    blob,
                    rows: hi - lo,
                    offsets: self.offsets.clone(),
                })
            }
            Timing::PerSample(stamps) => {
                let lo = stamps.partition_point(|t| *t < range.start);
                let hi = stamps.partition_point(|t| *t < range.end);
                if lo >= hi {
                    return None;
                }
                let width = self.tuple_width();
                let meta = SegmentMeta {
                    timing: Timing::PerSample(stamps[lo..hi].to_vec()),
                    location: self.meta.location,
                    format: self.meta.format.clone(),
                };
                let blob = self.blob.slice(lo * width..hi * width);
                Some(WaveSegment {
                    meta,
                    blob,
                    rows: hi - lo,
                    offsets: self.offsets.clone(),
                })
            }
        }
    }

    /// Whether `next` can be appended to `self` to form one segment
    /// (§5.1's merge optimization): both uniform, same interval, same
    /// format, same location, and `next` starts within half an interval of
    /// where `self`'s sampling would place its next sample.
    pub fn can_merge(&self, next: &WaveSegment) -> bool {
        let (
            Timing::Uniform {
                start: s1,
                interval_secs: i1,
            },
            Timing::Uniform {
                start: s2,
                interval_secs: i2,
            },
        ) = (&self.meta.timing, &next.meta.timing)
        else {
            return false;
        };
        if self.rows == 0 || next.rows == 0 {
            return false;
        }
        if (i1 - i2).abs() > f64::EPSILON * i1.abs() {
            return false;
        }
        if self.meta.format != next.meta.format {
            return false;
        }
        if !location_eq(self.meta.location, next.meta.location) {
            return false;
        }
        let expected_next = s1.plus_secs_f64(i1 * self.rows as f64);
        let tolerance_ms = (i1 * 500.0).max(1.0); // half an interval
        (s2.millis() - expected_next.millis()).abs() as f64 <= tolerance_ms
    }

    /// Concatenates `next` onto `self`. Call [`WaveSegment::can_merge`]
    /// first; panics if the segments are incompatible.
    pub fn merge(&self, next: &WaveSegment) -> WaveSegment {
        assert!(self.can_merge(next), "segments are not mergeable");
        let mut blob = BytesMut::with_capacity(self.blob.len() + next.blob.len());
        blob.extend_from_slice(&self.blob);
        blob.extend_from_slice(&next.blob);
        WaveSegment {
            meta: self.meta.clone(),
            blob: blob.freeze(),
            rows: self.rows + next.rows,
            offsets: self.offsets.clone(),
        }
    }

    /// Appends the Fig. 5 JSON form to `out`: one pass over the blob, no
    /// intermediate [`Value`]. This text *is* the wire form — every number
    /// carries the precision of its column's declared kind (an `f32` cell
    /// prints the shortest decimal that identifies the `f32`, an `i16`
    /// cell prints integer digits), and [`WaveSegment::to_json`] builds
    /// the tree that serializes to exactly these bytes.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        out.reserve(self.json_size_hint());
        out.push(b'{');
        if let Some(loc) = self.meta.location {
            out.extend_from_slice(b"\"location\":{\"latitude\":");
            write_f64(out, loc.latitude);
            out.extend_from_slice(b",\"longitude\":");
            write_f64(out, loc.longitude);
            out.extend_from_slice(b"},");
        }
        match &self.meta.timing {
            Timing::Uniform {
                start,
                interval_secs,
            } => {
                out.extend_from_slice(b"\"start_time\":");
                write_i64(out, start.millis());
                out.extend_from_slice(b",\"sampling_interval\":");
                write_f64(out, *interval_secs);
            }
            Timing::PerSample(stamps) => {
                out.extend_from_slice(b"\"timestamps\":");
                write_array(out, stamps, |out, stamp| write_i64(out, stamp.millis()));
            }
        }
        out.extend_from_slice(b",\"format\":");
        write_array(out, &self.meta.format, |out, spec| {
            out.extend_from_slice(b"{\"channel\":");
            write_str(out, spec.channel.as_str());
            out.extend_from_slice(b",\"kind\":");
            write_str(out, spec.kind.as_str());
            out.push(b'}');
        });
        out.extend_from_slice(b",\"data\":[");
        // Each column's place in a tuple and its kind, resolved once: the
        // rows below are written from this plan, cell by cell, with every
        // separator written after its cell and the last one of a row or
        // of the array overwritten by the closing bracket.
        let plan: Vec<(usize, ValueKind)> = self
            .offsets
            .iter()
            .zip(&self.meta.format)
            .map(|(&offset, spec)| (offset, spec.kind))
            .collect();
        for tuple in self.blob.chunks_exact(self.tuple_width()) {
            out.push(b'[');
            for &(offset, kind) in &plan {
                let cell = &tuple[offset..];
                match kind {
                    ValueKind::F32 => write_f32(out, f32::from_le_bytes(cell_bytes(cell))),
                    ValueKind::F64 => write_f64(out, f64::from_le_bytes(cell_bytes(cell))),
                    ValueKind::I16 => write_i64(out, i16::from_le_bytes(cell_bytes(cell)) as i64),
                }
                out.push(b',');
            }
            *out.last_mut().expect("a format has a column") = b']';
            out.push(b',');
        }
        if self.rows > 0 {
            out.pop();
        }
        out.extend_from_slice(b"]}");
    }

    /// An upper estimate of the bytes [`WaveSegment::write_json`] appends
    /// for typical sensor data — what a cell of each kind usually prints
    /// to, every bracket and separator, and the header — so a reply
    /// reserved from the sum over its segments is not grown while it is
    /// written.
    pub fn json_size_hint(&self) -> usize {
        let cells: usize = self
            .meta
            .format
            .iter()
            .map(|spec| match spec.kind {
                ValueKind::F64 => 19,
                ValueKind::F32 => 12,
                ValueKind::I16 => 7,
            })
            .sum();
        // `[`, a comma after every cell but the last, `]`, the row's comma.
        let per_row = cells + self.meta.format.len() + 2;
        let stamps = match &self.meta.timing {
            Timing::Uniform { .. } => 0,
            Timing::PerSample(stamps) => stamps.len() * 14,
        };
        192 + self.meta.format.len() * 48 + stamps + self.rows * per_row
    }

    /// The Fig. 5 JSON form as a tree, serializing to the bytes of
    /// [`WaveSegment::write_json`]: `f32` cells enter it as the `f64`
    /// their shortest decimal reads as ([`sensorsafe_json::widen_f32`]),
    /// `i16` cells as integers.
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        if let Some(loc) = self.meta.location {
            obj.insert(
                "location".into(),
                json!({"latitude": (loc.latitude), "longitude": (loc.longitude)}),
            );
        }
        match &self.meta.timing {
            Timing::Uniform {
                start,
                interval_secs,
            } => {
                obj.insert("start_time".into(), Value::from(start.millis()));
                obj.insert("sampling_interval".into(), Value::from(*interval_secs));
            }
            Timing::PerSample(stamps) => {
                obj.insert(
                    "timestamps".into(),
                    Value::Array(stamps.iter().map(|t| Value::from(t.millis())).collect()),
                );
            }
        }
        obj.insert(
            "format".into(),
            Value::Array(
                self.meta
                    .format
                    .iter()
                    .map(|s| {
                        json!({
                            "channel": (s.channel.as_str()),
                            "kind": (s.kind.as_str()),
                        })
                    })
                    .collect(),
            ),
        );
        let data: Vec<Value> = self
            .tuples()
            .map(|tuple| {
                Value::Array(
                    tuple
                        .map(|cell| match cell {
                            Cell::F64(v) => Value::from(v),
                            Cell::F32(v) => Value::from(widen_f32(v)),
                            Cell::I16(v) => Value::from(v as i64),
                        })
                        .collect(),
                )
            })
            .collect();
        obj.insert("data".into(), Value::Array(data));
        Value::Object(obj)
    }

    /// Parses the Fig. 5 JSON form from a tree. Accepts `format` entries
    /// as either `{"channel": ..., "kind": ...}` objects or bare
    /// channel-name strings (defaulting to `f32`, matching the paper's
    /// figure which lists only names).
    ///
    /// No served path decodes through a tree ([`WaveSegment::read_json`]
    /// reads the text itself); this is the reference that reader is
    /// tested against.
    pub fn from_json(value: &Value) -> Result<WaveSegment, WaveError> {
        let obj = value
            .as_object()
            .ok_or_else(|| json_err("expected object"))?;
        let format = format_from_json(obj.get("format"))?;
        let stamps = obj
            .get("timestamps")
            .and_then(Value::as_array)
            .map(|stamps| {
                stamps
                    .iter()
                    .map(|v| v.as_i64().map(Timestamp::from_millis))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| json_err("non-integer timestamp"))
            });
        let timing = timing_from_json(obj, stamps)?;
        let location = location_from_json(obj.get("location"))?;
        let data = obj
            .get("data")
            .and_then(Value::as_array)
            .ok_or_else(|| json_err("missing data array"))?;
        let mut rows = Vec::with_capacity(data.len());
        for row in data {
            let cells = row
                .as_array()
                .ok_or_else(|| json_err("data row not an array"))?;
            let parsed: Option<Vec<f64>> = cells.iter().map(Value::as_f64).collect();
            rows.push(parsed.ok_or_else(|| json_err("non-numeric sample value"))?);
        }
        WaveSegment::from_rows(
            SegmentMeta {
                timing,
                location,
                format,
            },
            &rows,
        )
    }

    /// Reads one segment in the Fig. 5 JSON form from `reader`, filling
    /// the blob straight from the text: each cell is read as an `f64` and
    /// narrowed to its column's kind as [`WaveSegment::from_rows`] does,
    /// so the blob is bit for bit the one [`WaveSegment::from_json`]
    /// builds from the parsed tree, and any document one accepts the
    /// other accepts, with the same error.
    ///
    /// The outer error is the text's (the document is not JSON); the
    /// inner one the segment's, after its whole value has been read, so
    /// a caller can go on reading the document around it. Every member
    /// but `data` and `timestamps` is small and is read as a tree, where
    /// a repeated key's last value wins as in a parsed object. `data` is
    /// decoded under the format read before it (the order
    /// [`WaveSegment::write_json`] writes); a segment whose format comes
    /// after its data, or changes after it, is decoded again from where
    /// its data starts.
    pub fn read_json(
        reader: &mut Reader<'_>,
    ) -> Result<Result<WaveSegment, WaveError>, ParseError> {
        if reader.peek()? != Token::Object {
            reader.skip()?;
            return Ok(Err(json_err("expected object")));
        }
        let mut head = Map::new();
        let mut stamps = None;
        let mut data = None;
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                "data" => {
                    let at = reader.clone();
                    let cells = match format_from_json(head.get("format")) {
                        Ok(format) => Some((read_cells(reader, &format)?, format)),
                        Err(_) => {
                            reader.skip()?;
                            None
                        }
                    };
                    data = Some((at, cells));
                }
                "timestamps" => stamps = read_stamps(reader)?,
                "format" | "location" | "start_time" | "sampling_interval" => {
                    let value = reader.value()?;
                    head.insert(key.into_owned(), value);
                }
                _ => reader.skip()?,
            }
        }
        Ok(assemble(&head, stamps, data))
    }
}

/// Where a segment's `data` starts, and its cells if they were read
/// under the format known then (with that format).
type Data<'a> = (Reader<'a>, Option<(Cells, Vec<ChannelSpec>)>);

/// The segment one [`WaveSegment::read_json`] pass collected, checked in
/// [`WaveSegment::from_json`]'s order; the data is read again when it was
/// read under another format than the final one, or none.
fn assemble(
    head: &Map,
    stamps: Option<Result<Vec<Timestamp>, WaveError>>,
    data: Option<Data<'_>>,
) -> Result<WaveSegment, WaveError> {
    let format = format_from_json(head.get("format"))?;
    let timing = timing_from_json(head, stamps)?;
    let location = location_from_json(head.get("location"))?;
    let (at, cells) = data.ok_or_else(|| json_err("missing data array"))?;
    let cells = match cells {
        Some((cells, read_under)) if read_under == format => cells,
        _ => read_cells(&mut at.clone(), &format).expect("the data was read through once already"),
    };
    if let Some(e) = cells.data_error {
        return Err(e);
    }
    if format.is_empty() {
        return Err(WaveError::EmptyFormat);
    }
    check_timing(&timing, cells.rows)?;
    if let Some(e) = cells.row_error {
        return Err(e);
    }
    let offsets = column_offsets(&format);
    Ok(WaveSegment {
        meta: SegmentMeta {
            timing,
            location,
            format,
        },
        blob: Bytes::from(cells.blob),
        rows: cells.rows,
        offsets,
    })
}

/// A segment's `data` as [`read_cells`] found it: the blob under one
/// format, the row count, and the first error of each class
/// [`WaveSegment::from_json`] tells apart, in its order: a row that is
/// not an array or a cell that is not a number (found while reading the
/// tree), before a row of the wrong width or an `f32` overflow (found
/// by [`WaveSegment::from_rows`]).
struct Cells {
    blob: Vec<u8>,
    rows: usize,
    data_error: Option<WaveError>,
    row_error: Option<WaveError>,
}

/// Reads a `data` value under `format`, straight into a blob.
fn read_cells(reader: &mut Reader<'_>, format: &[ChannelSpec]) -> Result<Cells, ParseError> {
    let mut cells = Cells {
        blob: Vec::new(),
        rows: 0,
        data_error: None,
        row_error: None,
    };
    if reader.peek()? != Token::Array {
        reader.skip()?;
        cells.data_error = Some(json_err("missing data array"));
        return Ok(cells);
    }
    reader.begin_array()?;
    while reader.next_element()? {
        if cells.data_error.is_some() {
            reader.skip()?;
            continue;
        }
        if reader.peek()? != Token::Array {
            reader.skip()?;
            cells.data_error = Some(json_err("data row not an array"));
            continue;
        }
        reader.begin_array()?;
        let (mut column, mut overflow) = (0, None);
        while reader.next_element()? {
            if reader.peek()? != Token::Number {
                reader.skip()?;
                cells
                    .data_error
                    .get_or_insert_with(|| json_err("non-numeric sample value"));
                continue;
            }
            let value = reader.number()?.as_f64();
            if let Some(spec) = format.get(column) {
                if !encode_value(&mut cells.blob, value, spec.kind) {
                    overflow.get_or_insert(column);
                }
            }
            column += 1;
        }
        if cells.row_error.is_none() {
            cells.row_error = if column != format.len() {
                Some(WaveError::RowWidth {
                    expected: format.len(),
                    actual: column,
                })
            } else {
                overflow.map(|column| WaveError::F32Overflow {
                    row: cells.rows,
                    column,
                })
            };
        }
        cells.rows += 1;
    }
    Ok(cells)
}

/// Reads a `timestamps` value: `None` when it is not an array (the
/// segment then has uniform timing), else its stamps or the error for
/// one that is not an integer.
fn read_stamps(
    reader: &mut Reader<'_>,
) -> Result<Option<Result<Vec<Timestamp>, WaveError>>, ParseError> {
    reader.array_of(|reader| {
        let millis = match reader.peek()? {
            Token::Number => reader.number()?.as_i64(),
            _ => {
                reader.skip()?;
                None
            }
        };
        Ok(millis
            .map(Timestamp::from_millis)
            .ok_or_else(|| json_err("non-integer timestamp")))
    })
}

fn json_err(msg: &str) -> WaveError {
    WaveError::Json(msg.to_string())
}

/// The `format` member: channel objects or bare names (`f32`).
fn format_from_json(format: Option<&Value>) -> Result<Vec<ChannelSpec>, WaveError> {
    let entries = format
        .and_then(Value::as_array)
        .ok_or_else(|| json_err("missing format array"))?;
    let channel = |name: &str| ChannelId::try_new(name).ok_or_else(|| json_err("bad channel name"));
    entries
        .iter()
        .map(|entry| match entry {
            Value::String(name) => Ok(ChannelSpec::f32(channel(name)?)),
            Value::Object(_) => {
                let name = entry
                    .get("channel")
                    .and_then(Value::as_str)
                    .ok_or_else(|| json_err("format entry missing channel"))?;
                let kind = entry
                    .get("kind")
                    .and_then(Value::as_str)
                    .and_then(ValueKind::parse)
                    .unwrap_or(ValueKind::F32);
                Ok(ChannelSpec {
                    channel: channel(name)?,
                    kind,
                })
            }
            _ => Err(json_err("format entry must be string or object")),
        })
        .collect()
}

/// The timing: per-sample when the segment carries a `timestamps` array
/// (`stamps`, already decoded), else `start_time` + `sampling_interval`.
fn timing_from_json(
    obj: &Map,
    stamps: Option<Result<Vec<Timestamp>, WaveError>>,
) -> Result<Timing, WaveError> {
    if let Some(stamps) = stamps {
        return Ok(Timing::PerSample(stamps?));
    }
    let start = obj
        .get("start_time")
        .and_then(Value::as_i64)
        .ok_or_else(|| json_err("missing start_time"))?;
    let interval = obj
        .get("sampling_interval")
        .and_then(Value::as_f64)
        .ok_or_else(|| json_err("missing sampling_interval"))?;
    Ok(Timing::Uniform {
        start: Timestamp::from_millis(start),
        interval_secs: interval,
    })
}

/// The `location` member, if any.
fn location_from_json(location: Option<&Value>) -> Result<Option<GeoPoint>, WaveError> {
    let Some(loc) = location else {
        return Ok(None);
    };
    let coordinate = |name, missing| {
        loc.get(name)
            .and_then(Value::as_f64)
            .ok_or_else(|| json_err(missing))
    };
    let lat = coordinate("latitude", "location missing latitude")?;
    let lon = coordinate("longitude", "location missing longitude")?;
    Ok(Some(GeoPoint::new(lat, lon)))
}

/// The timing invariants for a segment of `rows` samples: a uniform
/// interval is positive and finite, per-sample stamps are one per row
/// and never go back.
fn check_timing(timing: &Timing, rows: usize) -> Result<(), WaveError> {
    match timing {
        Timing::Uniform { interval_secs, .. } => {
            if !(interval_secs.is_finite() && *interval_secs > 0.0) {
                return Err(WaveError::BadInterval);
            }
        }
        Timing::PerSample(stamps) => {
            if stamps.len() != rows {
                return Err(WaveError::TimestampCount);
            }
            if stamps.windows(2).any(|w| w[1] < w[0]) {
                return Err(WaveError::TimestampsNotMonotonic);
            }
        }
    }
    Ok(())
}

/// The `W` bytes a cell of width `W` starts with.
fn cell_bytes<const W: usize>(cell: &[u8]) -> [u8; W] {
    cell[..W].try_into().expect("blob aligned")
}

/// Byte offset of every column inside a tuple, followed by the tuple
/// width (so column `c` occupies `offsets[c]..offsets[c + 1]`).
fn column_offsets(format: &[ChannelSpec]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(format.len() + 1);
    let mut at = 0;
    for spec in format {
        offsets.push(at);
        at += spec.kind.width();
    }
    offsets.push(at);
    offsets
}

fn location_eq(a: Option<GeoPoint>, b: Option<GeoPoint>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// Appends `value` narrowed to `kind`: `false`, and nothing appended,
/// when an `f32` column would hold it as an infinity.
fn encode_value(out: &mut Vec<u8>, value: f64, kind: ValueKind) -> bool {
    match kind {
        ValueKind::F64 => out.extend_from_slice(&value.to_le_bytes()),
        ValueKind::F32 => {
            let narrowed = value as f32;
            if narrowed.is_infinite() {
                return false;
            }
            out.extend_from_slice(&narrowed.to_le_bytes());
        }
        ValueKind::I16 => {
            let clamped = value.round().clamp(i16::MIN as f64, i16::MAX as f64) as i16;
            out.extend_from_slice(&clamped.to_le_bytes());
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{CHAN_ECG, CHAN_RESPIRATION};

    fn ecg_rip_meta(start_ms: i64, hz: f64) -> SegmentMeta {
        SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp::from_millis(start_ms),
                interval_secs: 1.0 / hz,
            },
            location: Some(GeoPoint::ucla()),
            format: vec![
                ChannelSpec::i16(CHAN_ECG),
                ChannelSpec::f32(CHAN_RESPIRATION),
            ],
        }
    }

    fn sample_segment() -> WaveSegment {
        let rows = vec![vec![512.0, 301.5], vec![518.0, 300.25], vec![530.0, 298.0]];
        WaveSegment::from_rows(ecg_rip_meta(1_311_535_598_327, 50.0), &rows).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let seg = sample_segment();
        assert_eq!(seg.len(), 3);
        assert!(!seg.is_empty());
        assert_eq!(seg.tuple_width(), 2 + 4);
        assert_eq!(seg.value(0, 0), 512.0);
        assert_eq!(seg.value(1, 1), 300.25);
        assert_eq!(seg.row(2), vec![530.0, 298.0]);
    }

    #[test]
    fn i16_rounding_and_clamping() {
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp(0),
                interval_secs: 1.0,
            },
            location: None,
            format: vec![ChannelSpec::i16(CHAN_ECG)],
        };
        let seg =
            WaveSegment::from_rows(meta, &[vec![1.6], vec![-1.6], vec![1e9], vec![-1e9]]).unwrap();
        assert_eq!(seg.value(0, 0), 2.0);
        assert_eq!(seg.value(1, 0), -2.0);
        assert_eq!(seg.value(2, 0), i16::MAX as f64);
        assert_eq!(seg.value(3, 0), i16::MIN as f64);
    }

    #[test]
    fn timing_uniform() {
        let seg = sample_segment();
        assert_eq!(seg.time_at(0), Timestamp(1_311_535_598_327));
        assert_eq!(seg.time_at(1), Timestamp(1_311_535_598_347));
        assert_eq!(seg.time_at(2), Timestamp(1_311_535_598_367));
        let range = seg.time_range().unwrap();
        assert_eq!(range.start, Timestamp(1_311_535_598_327));
        assert_eq!(range.end, Timestamp(1_311_535_598_387));
    }

    #[test]
    fn timing_per_sample() {
        let meta = SegmentMeta {
            timing: Timing::PerSample(vec![Timestamp(10), Timestamp(15), Timestamp(100)]),
            location: None,
            format: vec![ChannelSpec::f32("x")],
        };
        let seg = WaveSegment::from_rows(meta, &[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        assert_eq!(seg.time_at(2), Timestamp(100));
        assert_eq!(
            seg.time_range().unwrap(),
            TimeRange::new(Timestamp(10), Timestamp(101))
        );
    }

    #[test]
    fn invariant_violations() {
        let meta = ecg_rip_meta(0, 50.0);
        assert_eq!(
            WaveSegment::from_rows(meta.clone(), &[vec![1.0]]),
            Err(WaveError::RowWidth {
                expected: 2,
                actual: 1
            })
        );
        let bad_stamp_meta = SegmentMeta {
            timing: Timing::PerSample(vec![Timestamp(5), Timestamp(3)]),
            location: None,
            format: vec![ChannelSpec::f32("x")],
        };
        assert_eq!(
            WaveSegment::from_rows(bad_stamp_meta, &[vec![1.0], vec![2.0]]),
            Err(WaveError::TimestampsNotMonotonic)
        );
        let count_meta = SegmentMeta {
            timing: Timing::PerSample(vec![Timestamp(5)]),
            location: None,
            format: vec![ChannelSpec::f32("x")],
        };
        assert_eq!(
            WaveSegment::from_rows(count_meta, &[vec![1.0], vec![2.0]]),
            Err(WaveError::TimestampCount)
        );
        let zero_interval = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp(0),
                interval_secs: 0.0,
            },
            location: None,
            format: vec![ChannelSpec::f32("x")],
        };
        assert_eq!(
            WaveSegment::from_rows(zero_interval, &[vec![1.0]]),
            Err(WaveError::BadInterval)
        );
        let empty_format = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp(0),
                interval_secs: 1.0,
            },
            location: None,
            format: vec![],
        };
        assert_eq!(
            WaveSegment::from_rows(empty_format, &[]),
            Err(WaveError::EmptyFormat)
        );
    }

    #[test]
    fn from_blob_alignment_check() {
        let meta = ecg_rip_meta(0, 50.0);
        let blob = Bytes::from(vec![0u8; 7]); // width is 6
        assert_eq!(
            WaveSegment::from_blob(meta.clone(), blob),
            Err(WaveError::BlobMisaligned)
        );
        let good = WaveSegment::from_blob(meta, Bytes::from(vec![0u8; 12])).unwrap();
        assert_eq!(good.len(), 2);
    }

    #[test]
    fn channel_selection() {
        let seg = sample_segment();
        let only_ecg = seg.select_channels(&[ChannelId::new(CHAN_ECG)]).unwrap();
        assert_eq!(only_ecg.meta().format.len(), 1);
        assert_eq!(only_ecg.len(), 3);
        assert_eq!(only_ecg.value(2, 0), 530.0);
        // Selecting everything returns an identical segment.
        let both = seg
            .select_channels(&[ChannelId::new(CHAN_ECG), ChannelId::new(CHAN_RESPIRATION)])
            .unwrap();
        assert_eq!(both, seg);
        // Selecting nothing present returns None.
        assert!(seg.select_channels(&[ChannelId::new("gps_lat")]).is_none());
    }

    #[test]
    fn channel_values_lookup() {
        let seg = sample_segment();
        assert_eq!(
            seg.channel_values(&ChannelId::new(CHAN_ECG)).unwrap(),
            vec![512.0, 518.0, 530.0]
        );
        assert!(seg.channel_values(&ChannelId::new("missing")).is_none());
        let names: Vec<&str> = seg.channels().map(|c| c.as_str()).collect();
        assert_eq!(names, ["ecg", "respiration"]);
    }

    #[test]
    fn slice_time_uniform() {
        let seg = sample_segment(); // samples at 327, 347, 367 (+1311535598000)
        let base = 1_311_535_598_000;
        // Window covering only the middle sample.
        let mid = seg
            .slice_time(&TimeRange::new(
                Timestamp(base + 340),
                Timestamp(base + 360),
            ))
            .unwrap();
        assert_eq!(mid.len(), 1);
        assert_eq!(mid.value(0, 0), 518.0);
        assert_eq!(mid.time_at(0), Timestamp(base + 347));
        // Window covering everything.
        let all = seg.slice_time(&TimeRange::all()).unwrap();
        assert_eq!(all.len(), 3);
        // Window before the data.
        assert!(seg
            .slice_time(&TimeRange::new(Timestamp(0), Timestamp(base)))
            .is_none());
        // Exclusive end: window ending exactly at a sample's time excludes it.
        let upto = seg
            .slice_time(&TimeRange::new(Timestamp(base), Timestamp(base + 347)))
            .unwrap();
        assert_eq!(upto.len(), 1);
    }

    #[test]
    fn slice_time_per_sample() {
        let meta = SegmentMeta {
            timing: Timing::PerSample(vec![Timestamp(10), Timestamp(20), Timestamp(30)]),
            location: None,
            format: vec![ChannelSpec::f64("x")],
        };
        let seg = WaveSegment::from_rows(meta, &[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let mid = seg
            .slice_time(&TimeRange::new(Timestamp(15), Timestamp(30)))
            .unwrap();
        assert_eq!(mid.len(), 1);
        assert_eq!(mid.value(0, 0), 2.0);
        assert_eq!(mid.time_at(0), Timestamp(20));
    }

    #[test]
    fn merge_consecutive_segments() {
        // The Zephyr case: two 64-sample packets back to back.
        let hz = 50.0;
        let rows_a: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, 0.0]).collect();
        let rows_b: Vec<Vec<f64>> = (64..128).map(|i| vec![i as f64, 0.0]).collect();
        let a = WaveSegment::from_rows(ecg_rip_meta(0, hz), &rows_a).unwrap();
        let b = WaveSegment::from_rows(ecg_rip_meta(64 * 20, hz), &rows_b).unwrap();
        assert!(a.can_merge(&b));
        let merged = a.merge(&b);
        assert_eq!(merged.len(), 128);
        assert_eq!(merged.value(127, 0), 127.0);
        assert_eq!(merged.time_at(127), Timestamp(127 * 20));
    }

    #[test]
    fn merge_tolerates_jitter_within_half_interval() {
        let hz = 50.0; // 20ms interval
        let a = WaveSegment::from_rows(ecg_rip_meta(0, hz), &[vec![1.0, 0.0]]).unwrap();
        let on_time = WaveSegment::from_rows(ecg_rip_meta(20, hz), &[vec![2.0, 0.0]]).unwrap();
        let jittered = WaveSegment::from_rows(ecg_rip_meta(28, hz), &[vec![2.0, 0.0]]).unwrap();
        let late = WaveSegment::from_rows(ecg_rip_meta(45, hz), &[vec![2.0, 0.0]]).unwrap();
        assert!(a.can_merge(&on_time));
        assert!(a.can_merge(&jittered));
        assert!(!a.can_merge(&late));
    }

    #[test]
    fn merge_rejects_mismatches() {
        let a = WaveSegment::from_rows(ecg_rip_meta(0, 50.0), &[vec![1.0, 0.0]]).unwrap();
        // Different interval.
        let slow = WaveSegment::from_rows(ecg_rip_meta(20, 25.0), &[vec![2.0, 0.0]]).unwrap();
        assert!(!a.can_merge(&slow));
        // Different location.
        let mut meta = ecg_rip_meta(20, 50.0);
        meta.location = None;
        let elsewhere = WaveSegment::from_rows(meta, &[vec![2.0, 0.0]]).unwrap();
        assert!(!a.can_merge(&elsewhere));
        // Different format.
        let mut meta = ecg_rip_meta(20, 50.0);
        meta.format = vec![
            ChannelSpec::f32(CHAN_ECG),
            ChannelSpec::f32(CHAN_RESPIRATION),
        ];
        let other_fmt = WaveSegment::from_rows(meta, &[vec![2.0, 0.0]]).unwrap();
        assert!(!a.can_merge(&other_fmt));
        // Gap (not consecutive).
        let gap = WaveSegment::from_rows(ecg_rip_meta(500, 50.0), &[vec![2.0, 0.0]]).unwrap();
        assert!(!a.can_merge(&gap));
        // Overlap going backwards.
        let overlap = WaveSegment::from_rows(ecg_rip_meta(-40, 50.0), &[vec![2.0, 0.0]]).unwrap();
        assert!(!a.can_merge(&overlap));
    }

    #[test]
    #[should_panic(expected = "not mergeable")]
    fn merge_panics_on_incompatible() {
        let a = WaveSegment::from_rows(ecg_rip_meta(0, 50.0), &[vec![1.0, 0.0]]).unwrap();
        let b = WaveSegment::from_rows(ecg_rip_meta(900, 50.0), &[vec![2.0, 0.0]]).unwrap();
        let _ = a.merge(&b);
    }

    #[test]
    fn json_roundtrip_uniform() {
        let seg = sample_segment();
        let v = seg.to_json();
        assert_eq!(v["start_time"].as_i64(), Some(1_311_535_598_327));
        assert_eq!(v["sampling_interval"].as_f64(), Some(0.02));
        assert_eq!(v["format"][0]["channel"].as_str(), Some("ecg"));
        let back = WaveSegment::from_json(&v).unwrap();
        assert_eq!(back, seg);
    }

    #[test]
    fn json_roundtrip_per_sample() {
        let meta = SegmentMeta {
            timing: Timing::PerSample(vec![Timestamp(1), Timestamp(5)]),
            location: None,
            format: vec![ChannelSpec::f64("x")],
        };
        let seg = WaveSegment::from_rows(meta, &[vec![0.5], vec![-0.5]]).unwrap();
        let back = WaveSegment::from_json(&seg.to_json()).unwrap();
        assert_eq!(back, seg);
    }

    fn streamed(seg: &WaveSegment) -> String {
        let mut out = Vec::new();
        seg.write_json(&mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn json_numbers_carry_column_precision() {
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp(1_311_535_598_327),
                interval_secs: 0.02,
            },
            location: Some(GeoPoint::ucla()),
            format: vec![
                ChannelSpec::i16(CHAN_ECG),
                ChannelSpec::f32(CHAN_RESPIRATION),
                ChannelSpec::f64("gps_lat"),
            ],
        };
        let seg = WaveSegment::from_rows(meta, &[vec![512.0, 0.1, 0.1], vec![-7.0, 298.0, -0.0]])
            .unwrap();
        let text = streamed(&seg);
        assert_eq!(
            text,
            concat!(
                r#"{"location":{"latitude":34.0722,"longitude":-118.4441},"#,
                r#""start_time":1311535598327,"sampling_interval":0.02,"#,
                r#""format":[{"channel":"ecg","kind":"i16"},"#,
                r#"{"channel":"respiration","kind":"f32"},{"channel":"gps_lat","kind":"f64"}],"#,
                r#""data":[[512,0.1,0.1],[-7,298.0,-0.0]]}"#,
            )
        );
        assert_eq!(sensorsafe_json::to_string(&seg.to_json()), text);
        let parsed = sensorsafe_json::parse(&text).unwrap();
        assert_eq!(WaveSegment::from_json(&parsed).unwrap(), seg);
    }

    #[test]
    fn non_finite_cells_print_null_in_both_forms() {
        // JSON has no text for an infinite f32 or a NaN f64. `from_rows`
        // refuses the first, so the blob is assembled by hand.
        let meta = SegmentMeta {
            timing: Timing::PerSample(vec![Timestamp(1), Timestamp(2)]),
            location: None,
            format: vec![ChannelSpec::f32("x"), ChannelSpec::f64("y")],
        };
        let mut blob = Vec::new();
        for (x, y) in [(f32::INFINITY, f64::NAN), (1.5, 2.5)] {
            blob.extend_from_slice(&x.to_le_bytes());
            blob.extend_from_slice(&y.to_le_bytes());
        }
        let seg = WaveSegment::from_blob(meta, Bytes::from(blob)).unwrap();
        let text = streamed(&seg);
        assert!(
            text.ends_with(r#""data":[[null,null],[1.5,2.5]]}"#),
            "{text}"
        );
        assert!(text.contains(r#""timestamps":[1,2]"#));
        assert_eq!(sensorsafe_json::to_string(&seg.to_json()), text);
    }

    #[test]
    fn f32_cells_beyond_the_f32_range_are_refused() {
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp(0),
                interval_secs: 1.0,
            },
            location: None,
            format: vec![ChannelSpec::f64("a"), ChannelSpec::f32("b")],
        };
        assert_eq!(
            WaveSegment::from_rows(meta.clone(), &[vec![1e39, 1.5], vec![2.0, -1e39]]),
            Err(WaveError::F32Overflow { row: 1, column: 1 })
        );
        // The text of f32::MAX reads back as an f64 above it, which still
        // narrows to f32::MAX.
        let max = sensorsafe_json::widen_f32(f32::MAX);
        assert!(max > f32::MAX as f64);
        let seg = WaveSegment::from_rows(meta, &[vec![0.0, max], vec![0.0, -max]]).unwrap();
        assert_eq!(seg.value(0, 1), f32::MAX as f64);
        assert_eq!(seg.value(1, 1), f32::MIN as f64);
    }

    /// `read_json` over `text`, which must be one JSON document.
    fn read(text: &str) -> Result<WaveSegment, WaveError> {
        let mut reader = Reader::new(text);
        let segment = WaveSegment::read_json(&mut reader).unwrap();
        reader.finish().unwrap();
        segment
    }

    #[test]
    fn reader_decodes_like_the_tree_whatever_the_member_order() {
        let seg = sample_segment();
        let text = streamed(&seg);
        assert_eq!(read(&text).unwrap().blob(), seg.blob());
        assert_eq!(read(&text), Ok(seg));
        let tree = |text: &str| WaveSegment::from_json(&sensorsafe_json::parse(text).unwrap());
        for text in [
            // Data before its format, and a format replaced after the data.
            r#"{"data": [[1, 2.5]], "format": ["a", {"channel": "b", "kind": "i16"}], "start_time": 0, "sampling_interval": 1}"#,
            r#"{"format": ["a"], "data": [[1.5], [2.25]], "format": [{"channel": "a", "kind": "i16"}], "start_time": 0, "sampling_interval": 1}"#,
            r#"{"format": ["a"], "data": [["x"]], "data": [[3]], "start_time": 0, "sampling_interval": 1, "junk": [[{}]]}"#,
            r#"{"format": ["a"], "timestamps": [1, 2], "timestamps": {}, "data": [[3]], "start_time": 5, "sampling_interval": 1}"#,
            r#"{"format": ["a"], "timestamps": [1, 2], "data": [[3], [4]], "location": {"latitude": 1, "longitude": 2}}"#,
            // Errors, each one of the tree's, in the tree's order.
            r#"{"format": ["a"], "data": [[1, 2], ["x"]], "start_time": 0, "sampling_interval": 1}"#,
            r#"{"format": ["a"], "data": [[1e39], 7], "start_time": 0, "sampling_interval": 1}"#,
            r#"{"format": ["a"], "data": [[1e39], [1, 2]], "start_time": 0, "sampling_interval": 1}"#,
            r#"{"format": [], "data": [[1]], "start_time": 0, "sampling_interval": -1}"#,
            r#"{"format": ["a"], "data": [[1]], "timestamps": [2.5], "sampling_interval": 1}"#,
            r#"{"format": ["a"], "data": [[1]], "timestamps": [2, 1], "location": {"latitude": 1}}"#,
            r#"{"format": ["a"], "data": [[1]], "timestamps": [2, 1]}"#,
            r#"{"format": ["a"], "data": {}, "start_time": 0}"#,
            r#"{"format": 7, "data": [[1]], "start_time": 0, "sampling_interval": 1}"#,
            r#"[{"format": ["a"]}]"#,
        ] {
            assert_eq!(read(text), tree(text), "{text}");
        }
    }

    #[test]
    fn json_accepts_bare_channel_names() {
        let v = sensorsafe_json::parse(
            r#"{
                "start_time": 0,
                "sampling_interval": 0.5,
                "format": ["ecg", "respiration"],
                "data": [[1, 2], [3, 4]]
            }"#,
        )
        .unwrap();
        let seg = WaveSegment::from_json(&v).unwrap();
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.meta().format[0].kind, ValueKind::F32);
        assert_eq!(seg.value(1, 1), 4.0);
    }

    #[test]
    fn json_rejects_malformed() {
        for bad in [
            r#"{"sampling_interval": 0.5, "format": ["x"], "data": []}"#, // no start_time
            r#"{"start_time": 0, "sampling_interval": 0.5, "data": []}"#, // no format
            r#"{"start_time": 0, "sampling_interval": 0.5, "format": ["x"]}"#, // no data
            r#"{"start_time": 0, "sampling_interval": 0.5, "format": ["x"], "data": [["a"]]}"#,
            r#"{"start_time": 0, "sampling_interval": 0.5, "format": [7], "data": []}"#,
            r#"{"start_time": 0, "sampling_interval": 0.5, "format": ["x"], "data": [[1, 2]]}"#,
            r#"{"start_time": 0, "sampling_interval": 0.5, "format": ["x"], "data": [[1]], "location": {"latitude": 1}}"#,
            r#"[1, 2]"#,
        ] {
            let v = sensorsafe_json::parse(bad).unwrap();
            assert!(WaveSegment::from_json(&v).is_err(), "should reject {bad}");
            assert_eq!(read(bad), WaveSegment::from_json(&v), "{bad}");
        }
    }

    #[test]
    fn approx_bytes_scales_with_rows() {
        let small = sample_segment();
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64, 0.0]).collect();
        let big = WaveSegment::from_rows(ecg_rip_meta(0, 50.0), &rows).unwrap();
        // 1000 rows × 6-byte tuples dominate the fixed metadata overhead.
        assert!(big.approx_bytes() >= 6_000);
        assert!(big.approx_bytes() > small.approx_bytes() * 20);
    }

    #[test]
    fn empty_segment() {
        let seg = WaveSegment::from_rows(ecg_rip_meta(0, 50.0), &[]).unwrap();
        assert!(seg.is_empty());
        assert!(seg.start_time().is_none());
        assert!(seg.time_range().is_none());
        assert!(seg.slice_time(&TimeRange::all()).is_none());
    }
}

//! Fixed-capacity time-series retention.
//!
//! The awareness plane keeps a bucketed decision trend per (contributor,
//! outcome) and must not let memory grow with uptime or with the number
//! of contributors. This module provides:
//!
//! * [`SeriesRing`] — a fixed-capacity ring buffer of `(time, value)`
//!   samples. All storage is allocated at construction; [`SeriesRing::push`]
//!   never allocates.
//! * [`SeriesTable`] — a bounded map of named series. New keys allocate
//!   once; keys past the configured cap are dropped and counted rather
//!   than admitted.
//!
//! Timestamps are plain `f64` seconds on a caller-chosen clock. Keeping
//! the clock out of this module makes every computation deterministic
//! under test.

use std::collections::BTreeMap;

/// One retained observation: a value at a point in time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Seconds on the caller's monotonic clock.
    pub at_secs: f64,
    /// The sampled value (counter reading, gauge level, …).
    pub value: f64,
}

/// A fixed-capacity ring buffer of time-ordered samples.
///
/// Pushing past capacity overwrites the oldest sample. The buffer is
/// fully allocated up front; `push` is allocation-free.
#[derive(Debug)]
pub struct SeriesRing {
    samples: Vec<Sample>,
    head: usize,
    len: usize,
}

impl SeriesRing {
    /// Creates a ring retaining at most `capacity` samples (must be > 0).
    pub fn new(capacity: usize) -> SeriesRing {
        assert!(capacity > 0, "SeriesRing capacity must be positive");
        SeriesRing {
            samples: vec![
                Sample {
                    at_secs: 0.0,
                    value: 0.0
                };
                capacity
            ],
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.samples.len()
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a sample, overwriting the oldest when full. Never allocates.
    pub fn push(&mut self, at_secs: f64, value: f64) {
        let cap = self.samples.len();
        self.samples[self.head] = Sample { at_secs, value };
        self.head = (self.head + 1) % cap;
        if self.len < cap {
            self.len += 1;
        }
    }

    /// Adds `delta` to the latest sample when it sits exactly at
    /// `at_secs`, else pushes a fresh `(at_secs, delta)` sample. This is
    /// the time-*bucketed* update: callers quantize timestamps to a bucket
    /// boundary and every event inside a bucket accumulates into one
    /// sample, so a ring of N samples retains N buckets of history rather
    /// than N raw events.
    pub fn accumulate(&mut self, at_secs: f64, delta: f64) {
        if self.len > 0 {
            let cap = self.samples.len();
            let last = (self.head + cap - 1) % cap;
            if self.samples[last].at_secs == at_secs {
                self.samples[last].value += delta;
                return;
            }
        }
        self.push(at_secs, delta);
    }

    /// Samples in chronological order, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        let cap = self.samples.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len).map(move |i| self.samples[(start + i) % cap])
    }
}

/// A bounded collection of named [`SeriesRing`]s.
///
/// Keys are caller-chosen canonical series identifiers. The first push
/// for a key allocates its ring; once `max_series` distinct keys exist,
/// pushes for *new* keys are dropped and counted, so retention memory is
/// hard-bounded.
#[derive(Debug)]
pub struct SeriesTable {
    ring_capacity: usize,
    max_series: usize,
    series: BTreeMap<String, SeriesRing>,
    dropped: u64,
}

impl SeriesTable {
    /// Creates a table of at most `max_series` rings, each retaining
    /// `ring_capacity` samples.
    pub fn new(ring_capacity: usize, max_series: usize) -> SeriesTable {
        SeriesTable {
            ring_capacity,
            max_series,
            series: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// Pushes a sample into the named series, creating the ring on first
    /// sight. Returns `false` (and counts the drop) when the key is new
    /// but the table is at its series cap.
    pub fn push(&mut self, key: &str, at_secs: f64, value: f64) -> bool {
        if let Some(ring) = self.series.get_mut(key) {
            ring.push(at_secs, value);
            return true;
        }
        if self.series.len() >= self.max_series {
            self.dropped += 1;
            return false;
        }
        let mut ring = SeriesRing::new(self.ring_capacity);
        ring.push(at_secs, value);
        self.series.insert(key.to_string(), ring);
        true
    }

    /// Accumulates `delta` into the named series' bucket at `at_secs`
    /// (see [`SeriesRing::accumulate`]), creating the ring on first sight.
    /// Returns `false` (and counts the drop) when the key is new but the
    /// table is at its series cap.
    pub fn accumulate(&mut self, key: &str, at_secs: f64, delta: f64) -> bool {
        if let Some(ring) = self.series.get_mut(key) {
            ring.accumulate(at_secs, delta);
            return true;
        }
        if self.series.len() >= self.max_series {
            self.dropped += 1;
            return false;
        }
        let mut ring = SeriesRing::new(self.ring_capacity);
        ring.push(at_secs, delta);
        self.series.insert(key.to_string(), ring);
        true
    }

    /// The ring for `key`, if any samples were admitted.
    pub fn get(&self, key: &str) -> Option<&SeriesRing> {
        self.series.get(key)
    }

    /// Iterates `(key, ring)` pairs whose key starts with `prefix`.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a SeriesRing)> + 'a {
        self.series
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, r)| (k.as_str(), r))
    }

    /// Number of distinct series currently retained.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Pushes refused because the series cap was reached.
    pub fn dropped_series_pushes(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let mut ring = SeriesRing::new(3);
        for i in 0..5 {
            ring.push(i as f64, (i * 10) as f64);
        }
        let got: Vec<Sample> = ring.iter().collect();
        assert_eq!(got.len(), 3);
        assert_eq!(
            got[0],
            Sample {
                at_secs: 2.0,
                value: 20.0
            }
        );
        assert_eq!(
            got[2],
            Sample {
                at_secs: 4.0,
                value: 40.0
            }
        );
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn accumulate_merges_same_bucket_and_advances_on_new_buckets() {
        let mut ring = SeriesRing::new(4);
        ring.accumulate(60.0, 1.0);
        ring.accumulate(60.0, 2.0);
        ring.accumulate(120.0, 5.0);
        let got: Vec<Sample> = ring.iter().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].value, 3.0);
        assert_eq!(got[1].value, 5.0);
        // Going back in time never merges into an older bucket: a fresh
        // sample is appended (time only moves forward for callers).
        ring.accumulate(60.0, 1.0);
        assert_eq!(ring.iter().count(), 3);

        let mut table = SeriesTable::new(4, 1);
        assert!(table.accumulate("a|x", 60.0, 1.0));
        assert!(table.accumulate("a|x", 60.0, 1.0));
        let sums: Vec<f64> = table.get("a|x").unwrap().iter().map(|s| s.value).collect();
        assert_eq!(sums, [2.0]);
        // Series cap still applies to new keys.
        assert!(!table.accumulate("b|x", 60.0, 1.0));
        assert_eq!(table.dropped_series_pushes(), 1);
    }

    #[test]
    fn table_caps_distinct_series() {
        let mut table = SeriesTable::new(4, 2);
        assert!(table.push("store-1|up", 0.0, 1.0));
        assert!(table.push("store-2|up", 0.0, 1.0));
        assert!(!table.push("store-3|up", 0.0, 1.0));
        // existing keys still accept samples at the cap
        assert!(table.push("store-1|up", 1.0, 0.0));
        assert_eq!(table.series_count(), 2);
        assert_eq!(table.dropped_series_pushes(), 1);
        assert_eq!(table.get("store-1|up").unwrap().len(), 2);
        let keys: Vec<&str> = table.with_prefix("store-1|").map(|(k, _)| k).collect();
        assert_eq!(keys, ["store-1|up"]);
        assert_eq!(table.with_prefix("store-").count(), 2);
        assert_eq!(table.with_prefix("store-3|").count(), 0);
    }
}

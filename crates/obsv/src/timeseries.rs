//! Fixed-capacity time-series retention for scraped fleet metrics.
//!
//! The broker's fleet scraper polls every registered store's `/metrics`
//! and needs to keep *recent history* — enough to compute deltas, rates,
//! and windowed quantiles for SLO burn-rate evaluation — without letting
//! memory grow with uptime or fleet size. This module provides:
//!
//! * [`SeriesRing`] — a fixed-capacity ring buffer of `(time, value)`
//!   samples. All storage is allocated at construction; [`SeriesRing::push`]
//!   never allocates, so the scrape hot path is allocation-free.
//! * [`SeriesTable`] — a bounded map of named series (one ring per
//!   `(store, family)` key). New keys allocate once; keys past the
//!   configured cap are dropped and counted rather than admitted, so a
//!   misbehaving store cannot balloon the broker's retention.
//! * [`histogram_quantile`] — quantile interpolation over windowed
//!   cumulative-bucket increases, the standard way to turn scraped
//!   histogram counters into a latency percentile.
//!
//! Timestamps are plain `f64` seconds on a caller-chosen monotonic clock
//! (the broker uses seconds since service start). Keeping the clock out of
//! this module makes every computation deterministic under test.

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

    /// The most recently pushed sample.
    pub fn latest(&self) -> Option<Sample> {
        if self.len == 0 {
            return None;
        }
        let cap = self.samples.len();
        Some(self.samples[(self.head + cap - 1) % cap])
    }

    /// Samples with `at_secs >= now_secs - window_secs`, oldest first.
    pub fn window(&self, now_secs: f64, window_secs: f64) -> impl Iterator<Item = Sample> + '_ {
        let cutoff = now_secs - window_secs;
        self.iter().filter(move |s| s.at_secs >= cutoff)
    }

    /// Number of samples inside the window.
    pub fn window_count(&self, now_secs: f64, window_secs: f64) -> usize {
        self.window(now_secs, window_secs).count()
    }

    /// Sum of sample values inside the window.
    pub fn window_sum(&self, now_secs: f64, window_secs: f64) -> f64 {
        self.window(now_secs, window_secs).map(|s| s.value).sum()
    }

    /// Counter increase over the window, tolerant of counter resets.
    ///
    /// Sums positive increments between consecutive samples; a decrease is
    /// treated as a process restart (the counter restarted from zero), so
    /// the new reading counts as the whole increment. Needs ≥ 2 samples in
    /// the window to report anything.
    pub fn delta(&self, now_secs: f64, window_secs: f64) -> Option<f64> {
        let mut prev: Option<Sample> = None;
        let mut total = 0.0;
        let mut pairs = 0usize;
        for s in self.window(now_secs, window_secs) {
            if let Some(p) = prev {
                total += if s.value >= p.value {
                    s.value - p.value
                } else {
                    s.value
                };
                pairs += 1;
            }
            prev = Some(s);
        }
        if pairs == 0 {
            None
        } else {
            Some(total)
        }
    }

    /// Per-second rate of a counter over the window (delta / elapsed).
    pub fn rate(&self, now_secs: f64, window_secs: f64) -> Option<f64> {
        let mut first: Option<Sample> = None;
        let mut last: Option<Sample> = None;
        for s in self.window(now_secs, window_secs) {
            if first.is_none() {
                first = Some(s);
            }
            last = Some(s);
        }
        let (first, last) = (first?, last?);
        let elapsed = last.at_secs - first.at_secs;
        if elapsed <= 0.0 {
            return None;
        }
        Some(self.delta(now_secs, window_secs)? / elapsed)
    }

    /// Windowed quantile of sample *values* (for gauges), `q` in `[0, 1]`.
    ///
    /// `scratch` is the caller-owned sort buffer, reused across
    /// evaluations so the steady state allocates nothing.
    pub fn windowed_quantile(
        &self,
        now_secs: f64,
        window_secs: f64,
        q: f64,
        scratch: &mut Vec<f64>,
    ) -> Option<f64> {
        scratch.clear();
        scratch.extend(self.window(now_secs, window_secs).map(|s| s.value));
        if scratch.is_empty() {
            return None;
        }
        scratch.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = (q.clamp(0.0, 1.0) * (scratch.len() - 1) as f64).round() as usize;
        Some(scratch[rank.min(scratch.len() - 1)])
    }
}

/// Interpolated quantile from windowed histogram-bucket increases.
///
/// `buckets` is `(upper_bound, cumulative_increase)` sorted by bound, one
/// entry per `le` bucket *including* `+Inf` (`f64::INFINITY`). The
/// increases are cumulative, Prometheus-style: each bucket counts every
/// event at or below its bound. Returns `None` when no events landed in
/// the window. Events above the largest finite bound report that bound —
/// the same convention as the in-process histogram snapshot.
pub fn histogram_quantile(buckets: &[(f64, f64)], q: f64) -> Option<f64> {
    let total = buckets.last().map(|&(_, c)| c)?;
    if total <= 0.0 {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * total;
    let mut prev_bound = 0.0;
    let mut prev_cum = 0.0;
    let mut largest_finite = 0.0f64;
    for &(bound, _) in buckets {
        if bound.is_finite() {
            largest_finite = largest_finite.max(bound);
        }
    }
    for &(bound, cum) in buckets {
        if cum >= target {
            if !bound.is_finite() {
                return Some(largest_finite);
            }
            let in_bucket = cum - prev_cum;
            if in_bucket <= 0.0 {
                return Some(bound);
            }
            let frac = (target - prev_cum) / in_bucket;
            return Some(prev_bound + (bound - prev_bound) * frac.clamp(0.0, 1.0));
        }
        prev_bound = bound;
        prev_cum = cum;
    }
    Some(largest_finite)
}

/// A bounded collection of named [`SeriesRing`]s.
///
/// Keys are caller-chosen canonical series identifiers (the broker uses
/// `store-addr|family` strings). The first push for a key allocates its
/// ring; once `max_series` distinct keys exist, pushes for *new* keys are
/// dropped and counted, so retention memory is hard-bounded.
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
        assert_eq!(ring.latest().unwrap().value, 40.0);
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
        assert_eq!(table.get("a|x").unwrap().latest().unwrap().value, 2.0);
        // Series cap still applies to new keys.
        assert!(!table.accumulate("b|x", 60.0, 1.0));
        assert_eq!(table.dropped_series_pushes(), 1);
    }

    #[test]
    fn delta_and_rate_over_window() {
        let mut ring = SeriesRing::new(16);
        ring.push(0.0, 100.0); // outside the 10s window at now=12
        ring.push(4.0, 110.0);
        ring.push(8.0, 140.0);
        ring.push(12.0, 150.0);
        assert_eq!(ring.delta(12.0, 10.0), Some(40.0));
        assert!((ring.rate(12.0, 10.0).unwrap() - 5.0).abs() < 1e-9);
        // one sample in window -> no delta
        assert_eq!(ring.delta(12.0, 0.5), None);
    }

    #[test]
    fn delta_survives_counter_reset() {
        let mut ring = SeriesRing::new(8);
        ring.push(0.0, 90.0);
        ring.push(1.0, 100.0);
        ring.push(2.0, 5.0); // process restarted: counter reset to ~0
        ring.push(3.0, 9.0);
        // 10 (0->1) + 5 (reset, count the new reading) + 4 (2->3)
        assert_eq!(ring.delta(3.0, 10.0), Some(19.0));
    }

    #[test]
    fn windowed_quantile_reuses_scratch() {
        let mut ring = SeriesRing::new(8);
        for (i, v) in [5.0, 1.0, 9.0, 3.0, 7.0].iter().enumerate() {
            ring.push(i as f64, *v);
        }
        let mut scratch = Vec::new();
        assert_eq!(
            ring.windowed_quantile(4.0, 100.0, 0.5, &mut scratch),
            Some(5.0)
        );
        assert_eq!(
            ring.windowed_quantile(4.0, 100.0, 1.0, &mut scratch),
            Some(9.0)
        );
        assert_eq!(
            ring.windowed_quantile(4.0, 0.5, 0.5, &mut scratch),
            Some(7.0)
        );
        assert_eq!(ring.windowed_quantile(4.0, -1.0, 0.5, &mut scratch), None);
    }

    #[test]
    fn histogram_quantile_interpolates() {
        // 10 events <= 0.01, 30 <= 0.1 (20 in bucket), 40 total (10 above).
        let buckets = [(0.01, 10.0), (0.1, 30.0), (f64::INFINITY, 40.0)];
        let p50 = histogram_quantile(&buckets, 0.5).unwrap();
        assert!(p50 > 0.01 && p50 <= 0.1, "{p50}");
        // p99 lands above the largest finite bound -> reports that bound.
        assert_eq!(histogram_quantile(&buckets, 0.99), Some(0.1));
        assert_eq!(histogram_quantile(&[], 0.5), None);
        assert_eq!(
            histogram_quantile(&[(0.1, 0.0), (f64::INFINITY, 0.0)], 0.5),
            None
        );
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

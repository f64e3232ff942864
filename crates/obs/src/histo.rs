//! Log-linear latency histogram.
//!
//! Values below `LINEAR_MAX` are recorded exactly (one bucket per value);
//! above it each power-of-two octave is split into [`SUBBUCKETS`] linear
//! sub-buckets, bounding the relative quantisation error of any recorded
//! value by `1 / SUBBUCKETS` (≈ 1.6%) and the error of the reported bucket
//! midpoint by half that. The layout is the classic HdrHistogram scheme
//! specialised to `u64` nanoseconds: every histogram addresses the same
//! [`HISTO_BUCKETS`] logical buckets, but stores counters only for the
//! octave-aligned bucket range it has touched — a window's few hundred
//! samples span a handful of octaves, not all 59. The stored range is an
//! implementation detail: equality, merging and every query are defined on
//! bucket *content*, so two histograms of the same samples are equal however
//! their storage grew.

/// Linear sub-buckets per power-of-two octave.
const SUBBUCKETS: u64 = 64;
/// Values strictly below this are exact (identity-bucketed).
const LINEAR_MAX: u64 = SUBBUCKETS;
/// Logical bucket count: 64 exact buckets + 58 octaves × 64 sub-buckets.
pub const HISTO_BUCKETS: usize = (SUBBUCKETS + (63 - 6) * SUBBUCKETS + SUBBUCKETS) as usize;
/// Storage grows in whole octaves of this many buckets.
const OCTAVE: usize = SUBBUCKETS as usize;

/// Bucket index for a value. Exact below `LINEAR_MAX`; log-linear above.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    // Highest set bit h >= 6; the octave [2^h, 2^(h+1)) is cut into 64
    // sub-buckets of width 2^(h-6).
    let h = 63 - v.leading_zeros() as u64;
    let sub = (v >> (h - 6)) - SUBBUCKETS;
    ((h - 5) * SUBBUCKETS + sub) as usize
}

/// Inclusive lower bound of a bucket.
fn bucket_lower(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBBUCKETS {
        return idx;
    }
    let h = (idx >> 6) + 5;
    let sub = idx & 63;
    (1u64 << h) + sub * (1u64 << (h - 6))
}

/// Width of a bucket (1 for the exact region).
fn bucket_width(idx: usize) -> u64 {
    if (idx as u64) < 2 * SUBBUCKETS {
        1
    } else {
        1u64 << ((idx as u64 >> 6) + 5 - 6)
    }
}

/// A mergeable latency histogram over `u64` nanoseconds, sized by the bucket
/// range its samples touched.
///
/// `count`, `sum`, `min` and `max` are tracked exactly; quantiles are
/// answered from the bucket midpoint (clamped to the observed `[min, max]`
/// range), so `value_at_quantile` is within ~0.8% of the exact
/// nearest-rank answer.
#[derive(Clone)]
pub struct LatencyHisto {
    /// Logical index of `counts[0]`; a multiple of [`OCTAVE`].
    lo: usize,
    /// Counters of logical buckets `lo..lo + counts.len()`; the length is a
    /// multiple of [`OCTAVE`]. Buckets outside the range hold zero.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        Self::new()
    }
}

/// Content equality: the same samples give equal histograms whatever range
/// either side happens to store (growth order, a [`LatencyHisto::clear`]ed
/// past, a merge that widened one of them).
impl PartialEq for LatencyHisto {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.occupied() == other.occupied()
    }
}

impl Eq for LatencyHisto {}

impl std::fmt::Debug for LatencyHisto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHisto")
            .field("count", &self.count)
            .field("mean_ns", &self.mean_ns())
            .field("min_ns", &self.min_ns())
            .field("max_ns", &self.max_ns())
            .field("p50_ns", &self.value_at_quantile(0.50))
            .field("p99_ns", &self.value_at_quantile(0.99))
            .finish()
    }
}

impl LatencyHisto {
    /// An empty histogram. Allocates nothing until the first sample.
    pub fn new() -> Self {
        Self {
            lo: 0,
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Builds a histogram from an iterator of nanosecond samples.
    pub fn from_samples<I: IntoIterator<Item = u64>>(samples: I) -> Self {
        let mut h = Self::new();
        for s in samples {
            h.record(s);
        }
        h
    }

    /// Forgets every sample but keeps the storage and the range it covers,
    /// so recording into the same range again allocates nothing.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Widens the stored range to cover logical buckets `from..to`, in whole
    /// octaves.
    #[cold]
    fn cover(&mut self, from: usize, to: usize) {
        debug_assert!(from < to && to <= HISTO_BUCKETS);
        let from = from / OCTAVE * OCTAVE;
        let to = to.div_ceil(OCTAVE) * OCTAVE;
        if self.counts.is_empty() {
            self.lo = from;
            self.counts.resize(to - from, 0);
            return;
        }
        let hi = self.lo + self.counts.len();
        if to > hi {
            self.counts.resize(to - self.lo, 0);
        }
        if from < self.lo {
            let shift = self.lo - from;
            let len = self.counts.len();
            self.counts.resize(len + shift, 0);
            self.counts.copy_within(..len, shift);
            self.counts[..shift].fill(0);
            self.lo = from;
        }
    }

    /// The stored counters trimmed to the first and last non-empty bucket,
    /// with the logical index of the first: the histogram's bucket content.
    fn occupied(&self) -> (usize, &[u64]) {
        let Some(first) = self.counts.iter().position(|&c| c != 0) else {
            return (0, &[]);
        };
        let last = self.counts.iter().rposition(|&c| c != 0).unwrap_or(first);
        (self.lo + first, &self.counts[first..=last])
    }

    /// Samples recorded into logical bucket `idx`.
    pub(crate) fn bucket_count(&self, idx: usize) -> u64 {
        idx.checked_sub(self.lo)
            .and_then(|off| self.counts.get(off))
            .copied()
            .unwrap_or(0)
    }

    /// Records one nanosecond sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let idx = bucket_index(ns);
        // One compare covers both ends of the stored range: below `lo` the
        // offset wraps to a huge value.
        match self.counts.get_mut(idx.wrapping_sub(self.lo)) {
            Some(slot) => *slot += 1,
            None => {
                self.cover(idx, idx + 1);
                self.counts[idx - self.lo] += 1;
            }
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Bucket-wise merge: afterwards `self` equals the histogram of the
    /// concatenated sample streams.
    pub fn merge(&mut self, other: &LatencyHisto) {
        let (from, counts) = other.occupied();
        if !counts.is_empty() {
            if from < self.lo || from + counts.len() > self.lo + self.counts.len() {
                self.cover(from, from + counts.len());
            }
            let at = from - self.lo;
            for (a, b) in self.counts[at..at + counts.len()].iter_mut().zip(counts) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Exact mean in nanoseconds (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), answered from the bucket
    /// midpoint and clamped to the observed `[min, max]`. Returns 0 on an
    /// empty histogram rather than panicking — zero-sample inputs are a
    /// legitimate state (e.g. a tenant that issued no requests).
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in (self.lo..).zip(&self.counts) {
            seen += c;
            if seen >= rank {
                let mid = bucket_lower(idx) + bucket_width(idx) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Number of recorded samples above `ns`, answered from the buckets:
    /// every bucket whose lower bound exceeds `ns` counts in full, the
    /// bucket containing `ns` does not. Exact in the linear region (values
    /// below `LINEAR_MAX`); above it the boundary bucket introduces at
    /// most the histogram's ≤ ~1.6% relative quantisation error. The answer
    /// is a pure function of the bucket counts, so merged histograms agree
    /// with single-recorder ones bit for bit.
    pub fn count_above(&self, ns: u64) -> u64 {
        if self.count == 0 || ns >= self.max {
            return 0;
        }
        let first = (bucket_index(ns) + 1).saturating_sub(self.lo);
        self.counts
            .get(first..)
            .map_or(0, |above| above.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHisto::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        for v in 0..LINEAR_MAX {
            let q = (v + 1) as f64 / LINEAR_MAX as f64;
            assert_eq!(h.value_at_quantile(q), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut probes: Vec<u64> = Vec::new();
        for exp in 0..64u32 {
            for off in [0u64, 1, 3] {
                probes.push((1u64 << exp).saturating_add(off << exp.saturating_sub(7)));
            }
        }
        probes.sort_unstable();
        let mut last = 0usize;
        for v in probes {
            let idx = bucket_index(v);
            assert!(idx < HISTO_BUCKETS, "idx {idx} out of range for {v}");
            assert!(idx >= last, "index must not decrease ({v})");
            assert!(bucket_lower(idx) <= v);
            assert!(v - bucket_lower(idx) < bucket_width(idx), "v {v} idx {idx}");
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), HISTO_BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_exact_within_bucket_error() {
        let samples: Vec<u64> = (0..10_000u64).map(|i| (i * i) % 9_999_991 + 1).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let h = LatencyHisto::from_samples(samples.iter().copied());
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let approx = h.value_at_quantile(q) as f64;
            assert!(
                (approx - exact).abs() <= exact / SUBBUCKETS as f64 + 1.0,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let a: Vec<u64> = (0..500u64).map(|i| i * 37 + 5).collect();
        let b: Vec<u64> = (0..700u64).map(|i| i * 101 + 60_000).collect();
        let mut ha = LatencyHisto::from_samples(a.iter().copied());
        let hb = LatencyHisto::from_samples(b.iter().copied());
        ha.merge(&hb);
        let hc = LatencyHisto::from_samples(a.into_iter().chain(b));
        assert_eq!(ha, hc);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = LatencyHisto::new();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn count_above_is_exact_in_the_linear_region() {
        let h = LatencyHisto::from_samples(0..LINEAR_MAX);
        for t in 0..LINEAR_MAX {
            assert_eq!(h.count_above(t), LINEAR_MAX - t - 1, "threshold {t}");
        }
        assert_eq!(h.count_above(LINEAR_MAX), 0);
        assert_eq!(LatencyHisto::new().count_above(0), 0);
    }

    #[test]
    fn count_above_tracks_exact_within_bucket_error() {
        let samples: Vec<u64> = (0..10_000u64).map(|i| (i * i) % 9_999_991 + 1).collect();
        let h = LatencyHisto::from_samples(samples.iter().copied());
        for t in [100u64, 10_000, 1_000_000, 8_000_000] {
            let exact = samples.iter().filter(|&&s| s > t).count() as u64;
            let approx = h.count_above(t);
            // The only disagreement is samples sharing the threshold's
            // bucket, bounded by that single bucket's population.
            let slack = samples
                .iter()
                .filter(|&&s| super::bucket_index(s) == super::bucket_index(t))
                .count() as u64;
            assert!(
                approx <= exact && exact - approx <= slack,
                "t={t}: approx {approx} exact {exact} slack {slack}"
            );
        }
        assert_eq!(h.count_above(u64::MAX), 0);
        assert_eq!(h.count_above(0), 10_000);
    }

    /// The same samples recorded forwards, backwards, after a `clear`, and
    /// through merges of disjoint, overlapping and empty parts.
    fn same_content_different_histories(samples: &[u64]) -> Vec<LatencyHisto> {
        let forwards = LatencyHisto::from_samples(samples.iter().copied());
        let backwards = LatencyHisto::from_samples(samples.iter().rev().copied());
        // Grown over the whole bucket space first, then cleared: stores far
        // more range than the samples touch.
        let mut recycled = LatencyHisto::from_samples([0, u64::MAX]);
        recycled.clear();
        samples.iter().for_each(|&s| recycled.record(s));
        // Low half merged into high half, and the other way round.
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let (low, high) = sorted.split_at(sorted.len() / 2);
        let mut up = LatencyHisto::from_samples(low.iter().copied());
        up.merge(&LatencyHisto::from_samples(high.iter().copied()));
        let mut down = LatencyHisto::from_samples(high.iter().copied());
        down.merge(&LatencyHisto::from_samples(low.iter().copied()));
        // Interleaved parts share their whole range; an empty part and a
        // cleared wide one add nothing.
        let (even, odd): (Vec<u64>, Vec<u64>) = samples.iter().partition(|&&s| s % 2 == 0);
        let mut interleaved = LatencyHisto::new();
        interleaved.merge(&LatencyHisto::from_samples(odd));
        interleaved.merge(&LatencyHisto::new());
        interleaved.merge(&LatencyHisto::from_samples(even));
        let mut wide = LatencyHisto::from_samples([1, 1 << 60]);
        wide.clear();
        interleaved.merge(&wide);
        vec![forwards, backwards, recycled, up, down, interleaved]
    }

    #[test]
    fn equality_and_merge_ignore_growth_history_and_stored_range() {
        let samples: Vec<u64> = (0..2_000u64)
            .map(|i| (i * i * 7) % 90_000_017 + 3)
            .collect();
        let histories = same_content_different_histories(&samples);
        for h in &histories[1..] {
            assert_eq!(h, &histories[0]);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(h.value_at_quantile(q), histories[0].value_at_quantile(q));
            }
            for t in [0, 2, 40_000, 90_000_020, u64::MAX] {
                assert_eq!(h.count_above(t), histories[0].count_above(t));
            }
        }
        // One sample apart is unequal, wherever it lands relative to the
        // stored range.
        for extra in [0, 50_000, u64::MAX] {
            let mut more = histories[0].clone();
            more.record(extra);
            assert_ne!(more, histories[0]);
        }
        // Emptiness is content too.
        let mut cleared = histories[0].clone();
        cleared.clear();
        assert_eq!(cleared, LatencyHisto::new());
        assert_eq!(cleared.value_at_quantile(0.5), 0);
    }

    #[test]
    fn count_above_outside_the_stored_range() {
        // Samples in one octave around 1 ms: the stored range is that octave.
        let h = LatencyHisto::from_samples((0..100u64).map(|i| 1_000_000 + i * 1_000));
        assert!(h.counts.len() <= 2 * OCTAVE, "{} buckets", h.counts.len());
        // A threshold below `lo` counts everything, one above the range
        // (but below max, which the early return would catch) nothing.
        assert_eq!(h.count_above(0), 100);
        assert_eq!(h.count_above(500), 100);
        assert_eq!(h.count_above(900_000), 100);
        assert_eq!(h.count_above(h.max_ns()), 0);
        assert_eq!(h.count_above(1 << 40), 0);
        let mut wide = h.clone();
        wide.record(1 << 50);
        assert_eq!(wide.count_above(1 << 40), 1);
        assert_eq!(wide.count_above(500), 101);
    }

    #[test]
    fn storage_follows_the_touched_range() {
        let mut h = LatencyHisto::new();
        assert_eq!(h.counts.capacity(), 0, "an empty histogram owns no heap");
        h.record(1_000_000);
        assert_eq!(h.counts.len(), OCTAVE);
        // Growing downwards keeps what was recorded.
        h.record(10);
        h.record(1 << 30);
        assert_eq!(h.lo, 0);
        assert_eq!(h.counts.len() % OCTAVE, 0);
        assert!(h.counts.len() < HISTO_BUCKETS / 2);
        assert_eq!(h, LatencyHisto::from_samples([10, 1_000_000, 1 << 30]));
    }

    #[test]
    fn clear_keeps_storage_so_the_old_range_records_in_place() {
        let samples: Vec<u64> = (0..500u64).map(|i| 20_000 + i * 977).collect();
        let mut h = LatencyHisto::from_samples(samples.iter().copied());
        let (lo, len, ptr, cap) = (h.lo, h.counts.len(), h.counts.as_ptr(), h.counts.capacity());
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        samples.iter().for_each(|&s| h.record(s));
        // Same buffer, same range: nothing was allocated or moved.
        assert_eq!(
            (h.lo, h.counts.len(), h.counts.as_ptr(), h.counts.capacity()),
            (lo, len, ptr, cap)
        );
        assert_eq!(h, LatencyHisto::from_samples(samples));
    }
}

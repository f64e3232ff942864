//! Windowed telemetry: fixed virtual-time aggregation windows and the SLO
//! evaluation layer on top of them.
//!
//! A [`WindowedSeries`] cuts virtual time into fixed windows of
//! `window_ns` nanoseconds and accumulates per-window statistics:
//! arrival/completion counters, a completion-latency histogram, per-stage
//! dwell and wait sums, queue-depth and occupancy samples, and admission
//! deferrals and rejections. Every field is an integer add or max, so a
//! window's contents do not depend on the order its events were recorded
//! in.
//!
//! [`SloSpec`] + [`evaluate_slo`] turn a series into an [`SloReport`]: how
//! many evaluation windows broke the tenant's p99 target, how many
//! individual completions exceeded it, and the burn rate — the rate the
//! tenant consumes its 1% tail error budget (1.0 = exactly on budget,
//! above 1.0 the budget depletes early).

use crate::histo::LatencyHisto;
use crate::span::{Stage, STAGE_COUNT};

/// One window's worth of accumulated telemetry. Every field is either a sum
/// or a max of `u64`s (the histogram is an element-wise counter sum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowStats {
    /// Requests that arrived in this window.
    pub arrivals: u64,
    /// Requests that completed in this window.
    pub completions: u64,
    /// End-to-end latencies of the window's completions.
    pub latency: LatencyHisto,
    /// Per-stage dwell nanoseconds closed in this window
    /// (indexed by [`Stage::index`]).
    pub stage_dwell_ns: Vec<u64>,
    /// Per-stage wait (dwell minus service) nanoseconds closed in this
    /// window (indexed by [`Stage::index`]).
    pub stage_wait_ns: Vec<u64>,
    /// Sum of sampled queue-pair occupancies.
    pub occupancy_sum: u64,
    /// Number of occupancy samples.
    pub occupancy_samples: u64,
    /// Largest sampled queue-pair occupancy.
    pub occupancy_max: u64,
    /// Sum of sampled in-flight depths.
    pub depth_sum: u64,
    /// Number of depth samples.
    pub depth_samples: u64,
    /// Largest sampled in-flight depth.
    pub depth_max: u64,
    /// Admission-controller deferrals issued in this window (a request may
    /// be deferred more than once; each backoff counts).
    pub deferrals: u64,
    /// Requests the admission controller rejected in this window.
    pub rejections: u64,
}

impl Default for WindowStats {
    fn default() -> Self {
        Self {
            arrivals: 0,
            completions: 0,
            latency: LatencyHisto::new(),
            stage_dwell_ns: vec![0; STAGE_COUNT],
            stage_wait_ns: vec![0; STAGE_COUNT],
            occupancy_sum: 0,
            occupancy_samples: 0,
            occupancy_max: 0,
            depth_sum: 0,
            depth_samples: 0,
            depth_max: 0,
            deferrals: 0,
            rejections: 0,
        }
    }
}

impl WindowStats {
    /// Mean sampled in-flight depth (0.0 when no samples).
    pub fn depth_mean(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        }
    }

    /// Mean sampled queue-pair occupancy (0.0 when no samples).
    pub fn occupancy_mean(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }
}

/// Fixed-window virtual-time telemetry aggregator.
///
/// Windows are keyed by `timestamp / window_ns` and held in a vector sorted
/// by key, so only windows that saw an event cost memory and iteration is
/// in time order. A cursor remembers the window last recorded into: a
/// timestamp inside it costs one compare, and moving on to the next window
/// (the common case, since the engine records in time order) one more;
/// anything else binary-searches, inserting the window if it is new.
/// A `window_ns` of zero disables the series: every `record_*` call is a
/// no-op and the series stays empty (the engine uses this for runs without
/// telemetry so the record path costs one branch).
#[derive(Debug, Clone)]
pub struct WindowedSeries {
    window_ns: u64,
    /// Populated windows as `(timestamp / window_ns, stats)`, sorted by key.
    windows: Vec<(u64, WindowStats)>,
    /// Index into `windows` of the window last recorded into.
    cursor: usize,
    /// Start of the cursor's window in nanoseconds.
    cursor_start_ns: u64,
}

/// Content equality: the cursor is where recording last happened, not what
/// was recorded.
impl PartialEq for WindowedSeries {
    fn eq(&self, other: &Self) -> bool {
        self.window_ns == other.window_ns && self.windows == other.windows
    }
}

impl Eq for WindowedSeries {}

impl WindowedSeries {
    /// A series cutting time into `window_ns`-sized windows (0 disables).
    pub fn new(window_ns: u64) -> Self {
        Self {
            window_ns,
            windows: Vec::new(),
            cursor: 0,
            cursor_start_ns: 0,
        }
    }

    /// The configured window size in nanoseconds (0 = disabled).
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Number of windows that saw at least one event.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no window saw any event.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    #[inline]
    fn window(&mut self, at_ns: u64) -> Option<&mut WindowStats> {
        if self.window_ns == 0 {
            return None;
        }
        // An instant before the cursor's window wraps to a huge offset.
        if self.windows.is_empty() || at_ns.wrapping_sub(self.cursor_start_ns) >= self.window_ns {
            self.seek(at_ns);
        }
        Some(&mut self.windows[self.cursor].1)
    }

    /// Points the cursor at the window holding `at_ns`, inserting it empty
    /// if no event reached it yet.
    fn seek(&mut self, at_ns: u64) {
        let key = at_ns / self.window_ns;
        let next = self.cursor + 1;
        self.cursor = match self.windows.get(next) {
            Some(&(k, _)) if k == key => next,
            _ => self
                .windows
                .binary_search_by_key(&key, |&(k, _)| k)
                .unwrap_or_else(|at| {
                    self.windows.insert(at, (key, WindowStats::default()));
                    at
                }),
        };
        self.cursor_start_ns = key * self.window_ns;
    }

    /// Records one request arrival at `at_ns`.
    pub fn record_arrival(&mut self, at_ns: u64) {
        if let Some(w) = self.window(at_ns) {
            w.arrivals += 1;
        }
    }

    /// Records one request completion at `at_ns` with its end-to-end
    /// latency.
    pub fn record_completion(&mut self, at_ns: u64, latency_ns: u64) {
        if let Some(w) = self.window(at_ns) {
            w.completions += 1;
            w.latency.record(latency_ns);
        }
    }

    /// Attributes one closed stage (dwell and its wait share) to the window
    /// of the stage's closing instant.
    pub fn record_stage(&mut self, at_ns: u64, stage: Stage, dwell_ns: u64, wait_ns: u64) {
        if let Some(w) = self.window(at_ns) {
            w.stage_dwell_ns[stage.index()] += dwell_ns;
            w.stage_wait_ns[stage.index()] += wait_ns;
        }
    }

    /// Records one queue-pair occupancy sample.
    pub fn record_occupancy(&mut self, at_ns: u64, occupancy: u64) {
        if let Some(w) = self.window(at_ns) {
            w.occupancy_sum += occupancy;
            w.occupancy_samples += 1;
            w.occupancy_max = w.occupancy_max.max(occupancy);
        }
    }

    /// Records one in-flight depth sample.
    pub fn record_depth(&mut self, at_ns: u64, depth: u32) {
        if let Some(w) = self.window(at_ns) {
            w.depth_sum += u64::from(depth);
            w.depth_samples += 1;
            w.depth_max = w.depth_max.max(u64::from(depth));
        }
    }

    /// Records one admission-controller deferral at `at_ns`.
    pub fn record_deferral(&mut self, at_ns: u64) {
        if let Some(w) = self.window(at_ns) {
            w.deferrals += 1;
        }
    }

    /// Records one admission-controller rejection at `at_ns`.
    pub fn record_rejection(&mut self, at_ns: u64) {
        if let Some(w) = self.window(at_ns) {
            w.rejections += 1;
        }
    }

    /// Iterates the populated windows in time order as
    /// `(window start ns, stats)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &WindowStats)> + '_ {
        self.windows
            .iter()
            .map(|(idx, w)| (idx * self.window_ns, w))
    }
}

/// A tenant's service-level objective: a p99 latency target checked over
/// fixed evaluation windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Target 99th-percentile latency in microseconds.
    pub target_p99_us: f64,
    /// Evaluation window in virtual nanoseconds.
    pub window_ns: u64,
}

/// The outcome of evaluating an [`SloSpec`] over a [`WindowedSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloReport {
    /// The evaluated target, echoed for reports.
    pub target_p99_us: f64,
    /// The evaluation window, echoed for reports.
    pub window_ns: u64,
    /// Windows that saw at least one completion.
    pub windows: u64,
    /// Windows whose p99 exceeded the target.
    pub violations: u64,
    /// Total completions across all windows.
    pub completions: u64,
    /// Completions whose latency exceeded the target (histogram-resolved:
    /// counted from buckets entirely above the target, so within the
    /// histogram's ≤ ~1.6% bucket error of the exact count).
    pub over_target: u64,
    /// Rate of tail-budget consumption against a 1% error budget:
    /// `(over_target / completions) / 0.01`. 1.0 means the tenant breaks
    /// its target on exactly 1% of requests; 2.0 burns the budget twice as
    /// fast. 0.0 when no requests completed.
    pub burn_rate: f64,
    /// The worst window's p99 in microseconds (0.0 when no windows).
    pub worst_window_p99_us: f64,
    /// Start of the worst window in nanoseconds (earliest on ties).
    pub worst_window_start_ns: u64,
}

/// The error budget the burn rate is measured against: a p99 target
/// tolerates 1% of requests over the line.
const SLO_ERROR_BUDGET: f64 = 0.01;

/// Evaluates `spec` over the completion telemetry of `series`.
///
/// A window counts as a violation when the p99 of its own completions
/// exceeds the target. The burn rate is population-based (per-request, not
/// per-window), so a single catastrophic window and a uniform trickle of
/// stragglers read on the same scale.
///
/// `series` must have been recorded with `spec.window_ns` (the engines
/// guarantee this by constructing the series from the spec).
pub fn evaluate_slo(series: &WindowedSeries, spec: &SloSpec) -> SloReport {
    let target_ns = (spec.target_p99_us * 1e3).round().max(0.0) as u64;
    let mut windows = 0u64;
    let mut violations = 0u64;
    let mut completions = 0u64;
    let mut over_target = 0u64;
    let mut worst_p99_ns = 0u64;
    let mut worst_start_ns = 0u64;
    let mut seen_any = false;
    for (start_ns, stats) in series.iter() {
        if stats.completions == 0 {
            continue;
        }
        windows += 1;
        completions += stats.completions;
        over_target += stats.latency.count_above(target_ns);
        let p99_ns = stats.latency.value_at_quantile(0.99);
        if p99_ns as f64 / 1e3 > spec.target_p99_us {
            violations += 1;
        }
        if !seen_any || p99_ns > worst_p99_ns {
            seen_any = true;
            worst_p99_ns = p99_ns;
            worst_start_ns = start_ns;
        }
    }
    SloReport {
        target_p99_us: spec.target_p99_us,
        window_ns: spec.window_ns,
        windows,
        violations,
        completions,
        over_target,
        burn_rate: if completions == 0 {
            0.0
        } else {
            (over_target as f64 / completions as f64) / SLO_ERROR_BUDGET
        },
        worst_window_p99_us: worst_p99_ns as f64 / 1e3,
        worst_window_start_ns: worst_start_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> WindowedSeries {
        let mut s = WindowedSeries::new(1_000);
        s.record_arrival(100);
        s.record_arrival(1_100);
        s.record_completion(900, 800);
        s.record_completion(1_900, 1_600);
        s.record_stage(900, Stage::Media, 500, 100);
        s.record_stage(1_900, Stage::Media, 700, 300);
        s.record_occupancy(100, 3);
        s.record_occupancy(150, 5);
        s.record_depth(100, 2);
        s.record_deferral(1_200);
        s.record_rejection(1_300);
        s
    }

    #[test]
    fn windows_are_keyed_by_fixed_boundaries() {
        let s = sample_series();
        let windows: Vec<(u64, &WindowStats)> = s.iter().collect();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].0, 0);
        assert_eq!(windows[1].0, 1_000);
        assert_eq!(windows[0].1.arrivals, 1);
        assert_eq!(windows[0].1.completions, 1);
        assert_eq!(windows[0].1.stage_dwell_ns[Stage::Media.index()], 500);
        assert_eq!(windows[0].1.stage_wait_ns[Stage::Media.index()], 100);
        assert_eq!(windows[0].1.occupancy_max, 5);
        assert_eq!(windows[0].1.occupancy_sum, 8);
        assert_eq!(windows[1].1.deferrals, 1);
        assert_eq!(windows[1].1.rejections, 1);
    }

    #[test]
    fn zero_window_disables_recording() {
        let mut s = WindowedSeries::new(0);
        s.record_arrival(100);
        s.record_completion(200, 100);
        s.record_depth(100, 4);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn slo_counts_violating_windows_and_burn_rate() {
        let mut s = WindowedSeries::new(1_000_000);
        // Window 0: 99 fast + 1 slow → p99 at the fast value, one request
        // over target.
        for i in 0..99u64 {
            s.record_completion(i * 1_000, 50_000);
        }
        s.record_completion(200_000, 400_000);
        // Window 1: all slow → violating window.
        for i in 0..100u64 {
            s.record_completion(1_000_000 + i * 1_000, 300_000);
        }
        let spec = SloSpec {
            target_p99_us: 100.0,
            window_ns: 1_000_000,
        };
        let report = evaluate_slo(&s, &spec);
        assert_eq!(report.windows, 2);
        assert_eq!(report.violations, 1);
        assert_eq!(report.completions, 200);
        assert_eq!(report.over_target, 101);
        // 101 of 200 over target against a 1% budget.
        assert!((report.burn_rate - (101.0 / 200.0) / 0.01).abs() < 1e-9);
        assert!(report.worst_window_p99_us > 100.0);
        assert_eq!(report.worst_window_start_ns, 1_000_000);
    }

    #[test]
    fn slo_on_empty_series_is_zeroed_and_nan_free() {
        let spec = SloSpec {
            target_p99_us: 100.0,
            window_ns: 1_000_000,
        };
        let report = evaluate_slo(&WindowedSeries::new(1_000_000), &spec);
        assert_eq!(report.windows, 0);
        assert_eq!(report.violations, 0);
        assert_eq!(report.completions, 0);
        assert_eq!(report.burn_rate, 0.0);
        assert_eq!(report.worst_window_p99_us, 0.0);
        assert!(!report.burn_rate.is_nan());
    }
}

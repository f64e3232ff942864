//! Run results: latency percentiles, in-flight-depth timelines, queue
//! occupancy, per-stage dwell breakdowns, and the Little's-law cross-check.

use bam_obs::{
    BlameAccumulator, BlameReport, LatencyHisto, PromWriter, SloReport, StageBreakdown,
    WindowedSeries,
};

use crate::clock::SimTime;

/// Summary statistics over the per-request latency samples of a run.
///
/// Percentiles are answered from a [`LatencyHisto`] (log-linear buckets,
/// ≤ ~1.6% relative error); `count`, `mean_us` and `max_us` stay exact.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of completed requests.
    pub count: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Median (p50) latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile latency in microseconds.
    pub p999_us: f64,
    /// Worst observed latency in microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarises a histogram of nanosecond samples. Empty histograms give
    /// the all-zero default — zero-request inputs are legal, not a panic.
    pub fn from_histo(histo: &LatencyHisto) -> Self {
        if histo.is_empty() {
            return Self::default();
        }
        Self {
            count: histo.count(),
            mean_us: histo.mean_ns() / 1e3,
            p50_us: histo.value_at_quantile(0.50) as f64 / 1e3,
            p95_us: histo.value_at_quantile(0.95) as f64 / 1e3,
            p99_us: histo.value_at_quantile(0.99) as f64 / 1e3,
            p999_us: histo.value_at_quantile(0.999) as f64 / 1e3,
            max_us: histo.max_ns() as f64 / 1e3,
        }
    }
}

/// The number of requests in flight over time, as a change list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DepthTimeline {
    /// `(instant, depth-after-change)` points, in time order.
    points: Vec<(SimTime, u32)>,
    /// End of the observation interval.
    end: SimTime,
}

impl DepthTimeline {
    /// An empty timeline with room for a run of `requests`: every request
    /// contributes at most two points (admission and completion), so sizing
    /// once up front means the point list never reallocates — growth by
    /// doubling would hold 1.5× the final list live at its last step and
    /// retain up to 2×.
    pub(crate) fn for_requests(requests: u64) -> Self {
        let points = usize::try_from(requests.saturating_mul(2)).expect("run fits in memory");
        Self {
            points: Vec::with_capacity(points),
            end: SimTime::ZERO,
        }
    }

    pub(crate) fn record(&mut self, at: SimTime, depth: u32) {
        self.points.push((at, depth));
    }

    pub(crate) fn close(&mut self, end: SimTime) {
        self.end = end;
    }

    /// Time-weighted mean depth over `[from, to]`.
    pub fn time_weighted_mean(&self, from: SimTime, to: SimTime) -> f64 {
        let window = to - from;
        if window == 0 || self.points.is_empty() {
            return 0.0;
        }
        let mut integral = 0u128;
        let mut depth = 0u32;
        let mut cursor = from;
        for &(at, d) in &self.points {
            if at <= from {
                depth = d;
                continue;
            }
            if at >= to {
                break;
            }
            integral += u128::from(at - cursor) * u128::from(depth);
            cursor = at;
            depth = d;
        }
        integral += u128::from(to - cursor) * u128::from(depth);
        integral as f64 / window as f64
    }

    /// Mean depth over the middle half of the run (warm-up and drain
    /// excluded) — the engine's steady-state operating point.
    pub fn steady_state_mean(&self) -> f64 {
        let span = self.end - SimTime::ZERO;
        self.time_weighted_mean(
            SimTime::from_ns(span / 4),
            SimTime::from_ns(span - span / 4),
        )
    }

    /// Peak depth ever observed.
    pub fn max_depth(&self) -> u32 {
        self.points.iter().map(|&(_, d)| d).max().unwrap_or(0)
    }

    /// Folds every depth-change point into `series` as a depth sample. The
    /// timeline comes from the timing spine, which is identical for both
    /// engines, so the folded samples are too.
    pub(crate) fn fold_into(&self, series: &mut WindowedSeries) {
        for &(at, d) in &self.points {
            series.record_depth(at.as_ns(), d);
        }
    }

    /// At most `n` evenly spaced `(seconds, depth)` samples for plotting.
    pub fn sampled(&self, n: usize) -> Vec<(f64, u32)> {
        if self.points.is_empty() || n == 0 {
            return Vec::new();
        }
        let step = self.points.len().div_ceil(n);
        self.points
            .iter()
            .step_by(step)
            .map(|&(at, d)| (at.as_secs_f64(), d))
            .collect()
    }
}

/// Everything a simulation run produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Latency summary over completed requests.
    pub latency: LatencySummary,
    /// Requests completed.
    pub completed: u64,
    /// Discrete events the engine processed to produce this run — the unit
    /// the benchmark's `sim.engine.events_per_s_*` rows are measured in.
    /// Identical wherever the run's accounting was applied.
    pub events: u64,
    /// Total simulated duration in seconds.
    pub sim_time_s: f64,
    /// Completed requests per simulated second.
    pub throughput_per_s: f64,
    /// In-flight depth over time.
    pub depth: DepthTimeline,
    /// Mean queue-pair occupancy (waiting + in service), averaged over time
    /// and over queue pairs.
    pub queue_occupancy_mean: f64,
    /// Peak occupancy of any single queue pair.
    pub queue_occupancy_max: u64,
    /// Latency summary over the run's reads alone.
    pub read_latency: LatencySummary,
    /// Latency summary over the run's writes alone (includes the
    /// journal-flush stage when enabled — the durability cost lands here).
    pub write_latency: LatencySummary,
    /// End-to-end latency histogram over all completed requests.
    pub histogram: LatencyHisto,
    /// Per-stage dwell-time histograms: where each request's latency went.
    pub stages: StageBreakdown,
}

impl SimReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        read_latency: &LatencyHisto,
        write_latency: &LatencyHisto,
        mut depth: DepthTimeline,
        end: SimTime,
        events: u64,
        queue_occupancy_mean: f64,
        queue_occupancy_max: u64,
        stages: StageBreakdown,
    ) -> Self {
        depth.close(end);
        let sim_time_s = end.as_secs_f64();
        let mut histogram = read_latency.clone();
        histogram.merge(write_latency);
        let completed = histogram.count();
        Self {
            latency: LatencySummary::from_histo(&histogram),
            completed,
            events,
            sim_time_s,
            throughput_per_s: if sim_time_s > 0.0 {
                completed as f64 / sim_time_s
            } else {
                0.0
            },
            depth,
            queue_occupancy_mean,
            queue_occupancy_max,
            read_latency: LatencySummary::from_histo(read_latency),
            write_latency: LatencySummary::from_histo(write_latency),
            histogram,
            stages,
        }
    }

    /// The Little's-law reading of this run: `throughput × mean latency`,
    /// which must agree with the measured steady-state mean in-flight depth
    /// (`self.depth.steady_state_mean()`) — the same identity
    /// `bam_timing::littles::required_queue_depth` applies analytically.
    pub fn littles_in_flight(&self) -> f64 {
        self.throughput_per_s * self.latency.mean_us * 1e-6
    }
}

/// What a tenant class's admission controller did over one run (see
/// [`crate::TenantClass`] and [`crate::AdmissionSpec`]). All counters are in
/// requests; `offered` counts each request once regardless of how many times
/// it was re-offered after deferral, so
/// `offered == admitted + rejected`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionReport {
    /// Requests offered to the controller (first offers only).
    pub offered: u64,
    /// Requests that entered the pipeline (possibly after deferrals).
    pub admitted: u64,
    /// Deferral decisions (one request may defer several times).
    pub deferrals: u64,
    /// Requests dropped after exhausting their deferral budget.
    pub rejected: u64,
    /// The in-flight depth threshold the Little's-law control law derived
    /// from the class's SLO budget.
    pub depth_limit: u64,
}

/// One synthetic member's share of a tenant class, attributed by
/// deterministic thinning (see [`crate::TenantClass::member_of`]). Present
/// only on class runs that requested attribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemberSummary {
    /// The member's index within its class (`0..members`).
    pub member: u32,
    /// Requests attributed to this member that completed.
    pub completed: u64,
    /// Latency summary over the member's completions.
    pub latency: LatencySummary,
    /// The member's full latency histogram; member histograms merge exactly
    /// to the class's aggregate.
    pub histogram: LatencyHisto,
}

/// Per-tenant accounting of one multi-tenant run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantSummary {
    /// The tenant's stable identifier.
    pub id: u32,
    /// The tenant's name.
    pub name: String,
    /// The tenant's queue-pair weight.
    pub weight: u32,
    /// Queue pairs the allocation policy granted this tenant.
    pub queue_pairs: u32,
    /// Latency summary over the tenant's own completed requests.
    pub latency: LatencySummary,
    /// Requests the tenant completed.
    pub completed: u64,
    /// Completions per second over the tenant's active span (first arrival
    /// to last completion).
    pub throughput_per_s: f64,
    /// When the tenant's first request arrived, in seconds.
    pub first_arrival_s: f64,
    /// When the tenant's last request completed, in seconds.
    pub last_completion_s: f64,
    /// Per-stage dwell-time histograms over the tenant's own requests.
    pub stages: StageBreakdown,
    /// The tenant's SLO evaluation, when its [`crate::TenantSpec`] carries
    /// a [`bam_obs::SloSpec`]. For class runs this is evaluated over the
    /// *achieved* completions, so with a controller armed it reads as the
    /// post-control burn rate.
    pub slo: Option<SloReport>,
    /// The class's admission-controller accounting, when this summary row is
    /// a [`crate::TenantClass`] with an [`crate::AdmissionSpec`] armed.
    pub admission: Option<AdmissionReport>,
    /// Thinned per-member attribution, when this summary row is a class run
    /// through [`crate::engine::Run::classes_attributed`]. Sorted by member
    /// index; members with no completions are absent.
    pub members: Vec<MemberSummary>,
}

/// Everything a multi-tenant simulation run produces: the merged view plus
/// one [`TenantSummary`] per tenant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiTenantReport {
    /// The run seen as one merged stream (overall percentiles, throughput,
    /// depth timeline, queue occupancy).
    pub overall: SimReport,
    /// Per-tenant accounting, in tenant declaration order.
    pub tenants: Vec<TenantSummary>,
}

impl MultiTenantReport {
    /// The summary for tenant `id`, if present.
    pub fn tenant(&self, id: u32) -> Option<&TenantSummary> {
        self.tenants.iter().find(|t| t.id == id)
    }

    /// Renders the report as a Prometheus text exposition: overall counters,
    /// per-tenant latency/throughput families, and — for tenants carrying an
    /// SLO — the violation counters and burn-rate gauges an alerting rule
    /// would scrape. Deterministic: same report, same bytes.
    pub fn prom_export(&self) -> String {
        let mut w = PromWriter::new();
        w.counter(
            "bam_sim_completed",
            "Requests completed across all tenants.",
            self.overall.completed,
        );
        w.gauge(
            "bam_sim_throughput_per_s",
            "Completed requests per simulated second.",
            self.overall.throughput_per_s,
        );
        w.gauge(
            "bam_sim_p99_us",
            "Overall 99th-percentile latency in microseconds.",
            self.overall.latency.p99_us,
        );
        let names: Vec<&str> = self.tenants.iter().map(|t| t.name.as_str()).collect();
        let labels: Vec<[(&str, &str); 1]> = names.iter().map(|n| [("tenant", *n)]).collect();
        let completed: Vec<(&[(&str, &str)], u64)> = self
            .tenants
            .iter()
            .zip(&labels)
            .map(|(t, l)| (l.as_slice(), t.completed))
            .collect();
        w.counter_family(
            "bam_tenant_completed",
            "Requests completed per tenant.",
            &completed,
        );
        let p99: Vec<(&[(&str, &str)], f64)> = self
            .tenants
            .iter()
            .zip(&labels)
            .map(|(t, l)| (l.as_slice(), t.latency.p99_us))
            .collect();
        w.gauge_family(
            "bam_tenant_p99_us",
            "Per-tenant 99th-percentile latency in microseconds.",
            &p99,
        );
        let throughput: Vec<(&[(&str, &str)], f64)> = self
            .tenants
            .iter()
            .zip(&labels)
            .map(|(t, l)| (l.as_slice(), t.throughput_per_s))
            .collect();
        w.gauge_family(
            "bam_tenant_throughput_per_s",
            "Per-tenant completions per second over the tenant's span.",
            &throughput,
        );
        let slo: Vec<(&[(&str, &str)], SloReport)> = self
            .tenants
            .iter()
            .zip(&labels)
            .filter_map(|(t, l)| t.slo.map(|s| (l.as_slice(), s)))
            .collect();
        if !slo.is_empty() {
            let targets: Vec<(&[(&str, &str)], f64)> =
                slo.iter().map(|(l, s)| (*l, s.target_p99_us)).collect();
            w.gauge_family(
                "bam_slo_target_p99_us",
                "The tenant's p99 latency target in microseconds.",
                &targets,
            );
            let violations: Vec<(&[(&str, &str)], u64)> =
                slo.iter().map(|(l, s)| (*l, s.violations)).collect();
            w.counter_family(
                "bam_slo_window_violations",
                "Evaluation windows whose p99 exceeded the tenant's target.",
                &violations,
            );
            let over: Vec<(&[(&str, &str)], u64)> =
                slo.iter().map(|(l, s)| (*l, s.over_target)).collect();
            w.counter_family(
                "bam_slo_requests_over_target",
                "Completions whose latency exceeded the tenant's target.",
                &over,
            );
            let burn: Vec<(&[(&str, &str)], f64)> =
                slo.iter().map(|(l, s)| (*l, s.burn_rate)).collect();
            w.gauge_family(
                "bam_slo_burn_rate",
                "Tail-error-budget burn rate (1.0 = exactly on a 1% budget).",
                &burn,
            );
        }
        let admission: Vec<(&[(&str, &str)], AdmissionReport)> = self
            .tenants
            .iter()
            .zip(&labels)
            .filter_map(|(t, l)| t.admission.map(|a| (l.as_slice(), a)))
            .collect();
        if !admission.is_empty() {
            let offered: Vec<(&[(&str, &str)], u64)> =
                admission.iter().map(|(l, a)| (*l, a.offered)).collect();
            w.counter_family(
                "bam_admission_offered",
                "Requests offered to the class's admission controller.",
                &offered,
            );
            let admitted: Vec<(&[(&str, &str)], u64)> =
                admission.iter().map(|(l, a)| (*l, a.admitted)).collect();
            w.counter_family(
                "bam_admission_admitted",
                "Requests the controller let into the pipeline.",
                &admitted,
            );
            let deferrals: Vec<(&[(&str, &str)], u64)> =
                admission.iter().map(|(l, a)| (*l, a.deferrals)).collect();
            w.counter_family(
                "bam_admission_deferrals",
                "Deferral decisions (a request may defer more than once).",
                &deferrals,
            );
            let rejected: Vec<(&[(&str, &str)], u64)> =
                admission.iter().map(|(l, a)| (*l, a.rejected)).collect();
            w.counter_family(
                "bam_admission_rejected",
                "Requests dropped after exhausting their deferral budget.",
                &rejected,
            );
            let depth: Vec<(&[(&str, &str)], f64)> = admission
                .iter()
                .map(|(l, a)| (*l, a.depth_limit as f64))
                .collect();
            w.gauge_family(
                "bam_admission_depth_limit",
                "In-flight depth threshold derived from the class's SLO.",
                &depth,
            );
        }
        w.finish()
    }
}

/// Run-level telemetry of one observed run: the windowed series plus the
/// blame decomposition described by the run's
/// [`crate::engine::TelemetrySpec`]. Bit-identical between inline and
/// sharded accounting at any shard count — the property
/// `tests/parallel_equivalence.rs` asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunTelemetry {
    /// Fixed-window counters and samples over virtual time.
    pub series: WindowedSeries,
    /// Per-resource service/wait decomposition with tail slice and
    /// exemplars.
    pub blame: BlameReport,
}

/// Assembles a [`RunTelemetry`] from the engine output: folds the (engine-
/// independent) depth timeline into the series and finishes the streamed
/// blame (an unobserved run's report is the empty one).
pub(crate) fn build_run_telemetry(
    mut series: WindowedSeries,
    blame: Option<BlameAccumulator>,
    depth: &DepthTimeline,
) -> RunTelemetry {
    depth.fold_into(&mut series);
    RunTelemetry {
        series,
        blame: blame
            .unwrap_or_else(|| BlameAccumulator::new(0, 0))
            .finish(),
    }
}

/// The interference metric: how much a tenant's co-run p99 inflated over its
/// solo p99 under the same configuration and policy (1.0 = perfect
/// isolation; 2.0 = the neighbours doubled its tail).
///
/// Empty-sample inputs are guarded NaN-free: a tenant with no solo baseline
/// and no co-run tail (zero requests everywhere) reads as perfect isolation
/// (`1.0`); a tenant with co-run samples but no baseline reads as infinite
/// inflation (`f64::INFINITY`) so the anomaly stays visible in tables and
/// JSON instead of poisoning comparisons the way NaN does.
pub fn interference_ratio(corun_p99_us: f64, solo_p99_us: f64) -> f64 {
    if solo_p99_us <= 0.0 {
        return if corun_p99_us <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        };
    }
    corun_p99_us / solo_p99_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles_are_ordered() {
        let ns: Vec<u64> = (1..=1000).map(|i| i * 1_000).collect();
        let s = LatencySummary::from_histo(&LatencyHisto::from_samples(ns));
        assert_eq!(s.count, 1000);
        // Histogram-backed percentiles are within the bucket error (~2%).
        assert!((s.p50_us / 500.0 - 1.0).abs() < 0.02, "{}", s.p50_us);
        assert!((s.p95_us / 950.0 - 1.0).abs() < 0.02, "{}", s.p95_us);
        assert!((s.p99_us / 990.0 - 1.0).abs() < 0.02, "{}", s.p99_us);
        assert!((s.p999_us / 999.0 - 1.0).abs() < 0.02, "{}", s.p999_us);
        // Max stays exact.
        assert_eq!(s.max_us, 1000.0);
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us && s.p99_us <= s.p999_us);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        assert_eq!(
            LatencySummary::from_histo(&LatencyHisto::new()),
            LatencySummary::default()
        );
    }

    #[test]
    fn depth_time_weighted_mean_is_exact_on_a_step() {
        let mut t = DepthTimeline::default();
        // Depth 2 on [0, 100), depth 4 on [100, 200).
        t.record(SimTime::from_ns(0), 2);
        t.record(SimTime::from_ns(100), 4);
        t.close(SimTime::from_ns(200));
        let m = t.time_weighted_mean(SimTime::from_ns(0), SimTime::from_ns(200));
        assert!((m - 3.0).abs() < 1e-12, "{m}");
        // A window entirely in the second step sees depth 4.
        let m2 = t.time_weighted_mean(SimTime::from_ns(150), SimTime::from_ns(200));
        assert!((m2 - 4.0).abs() < 1e-12, "{m2}");
        assert_eq!(t.max_depth(), 4);
    }

    #[test]
    fn sampled_respects_the_cap() {
        let mut t = DepthTimeline::default();
        for i in 0..1999u64 {
            t.record(SimTime::from_ns(i), (i % 7) as u32);
        }
        t.close(SimTime::from_ns(2000));
        assert!(t.sampled(1000).len() <= 1000);
        assert_eq!(t.sampled(1999).len(), 1999);
        assert!(t.sampled(0).is_empty());
    }

    #[test]
    fn interference_is_a_p99_ratio_with_guarded_zero() {
        assert!((interference_ratio(22.0, 11.0) - 2.0).abs() < 1e-12);
        assert!((interference_ratio(11.0, 11.0) - 1.0).abs() < 1e-12);
        // Empty-sample guards are NaN-free: no baseline and no co-run tail
        // reads as perfect isolation; a co-run tail with no baseline is an
        // explicit infinity, never NaN.
        assert_eq!(interference_ratio(0.0, 0.0), 1.0);
        assert_eq!(interference_ratio(11.0, 0.0), f64::INFINITY);
        assert!(!interference_ratio(0.0, 11.0).is_nan());
    }

    #[test]
    fn report_build_computes_throughput_and_littles() {
        let mut depth = DepthTimeline::default();
        depth.record(SimTime::from_ns(0), 1);
        let r = SimReport::build(
            &LatencyHisto::from_samples(vec![10_000; 80]),
            &LatencyHisto::from_samples(vec![10_000; 20]),
            depth,
            SimTime::from_us(1000.0),
            700,
            1.0,
            2,
            StageBreakdown::new(),
        );
        assert_eq!(r.completed, 100);
        assert_eq!(r.events, 700);
        assert!((r.throughput_per_s - 100.0 / 1e-3).abs() < 1e-6);
        // 100k/s × 10us = 1 request in flight.
        assert!((r.littles_in_flight() - 1.0).abs() < 1e-9);
        assert_eq!(r.read_latency.count, 80);
        assert_eq!(r.write_latency.count, 20);
        assert_eq!(r.histogram, LatencyHisto::from_samples(vec![10_000; 100]));
    }
}

//! Event-driven experiments: tail-latency CDFs and the simulated half of the
//! Figure 11 queue-pair sweep.
//!
//! These harnesses drive `bam-sim` — the reproduction's third methodology
//! layer — and print the matching analytic numbers alongside, so every
//! simulated result is cross-checked against the closed-form envelope it
//! must agree with in the mean.

use std::collections::HashMap;

use bam_nvme_sim::SsdSpec;
use bam_pcie::LinkSpec;
use bam_sim::{
    engine, interference_ratio, ArrivalProcess, Mmpp2, PipelineParams, QueuePairPolicy, Run,
    SimConfig, SimReport, SpanEvent, SpanRecorder, TenantSpec, Workload,
};
use bam_timing::{required_queue_depth, SsdArrayModel};

/// Requests simulated per configuration. The stream is a steady-state sample:
/// rates measured over it are applied to full-scale request counts.
pub const SAMPLE_REQUESTS: u64 = 30_000;

/// Outstanding requests for saturated closed-loop sweeps — far above every
/// knee in play (the largest is the 980 Pro's ~1K bandwidth-latency product)
/// yet cheap to simulate.
pub const SWEEP_IN_FLIGHT: u32 = 2048;

/// One row of the `latency_cdf` experiment: one device technology at one
/// closed-loop depth.
#[derive(Debug, Clone)]
pub struct LatencyCdfRow {
    /// Device name (Table 2 row).
    pub device: String,
    /// Closed-loop depth as a multiple of the bandwidth-latency product.
    pub depth_multiplier: f64,
    /// Concurrently outstanding requests.
    pub in_flight: u32,
    /// Simulated throughput in million IOPS.
    pub achieved_miops: f64,
    /// Simulated mean in-flight depth (steady state).
    pub mean_in_flight: f64,
    /// Simulated latency percentiles, in microseconds.
    pub p50_us: f64,
    /// 95th percentile (µs).
    pub p95_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// 99.9th percentile (µs).
    pub p999_us: f64,
    /// Simulated mean latency (µs).
    pub mean_us: f64,
    /// Analytic check: the array's peak IOPS envelope (millions).
    pub analytic_peak_miops: f64,
    /// Analytic check: the spec's published mean latency (µs).
    pub analytic_latency_us: f64,
    /// Analytic check: `required_queue_depth` at the peak (§2.2).
    pub analytic_depth: u64,
}

/// Tail-latency CDFs for the three Table-2 SSD technologies behind a 4-SSD
/// array at `access_bytes` granularity, each at 0.5×, 1×, and 2× its
/// bandwidth-latency product (Fig 9 / Table 2, event-driven).
pub fn latency_cdf(num_ssds: usize, access_bytes: u64, seed: u64) -> Vec<LatencyCdfRow> {
    let mut rows = Vec::new();
    for spec in [
        SsdSpec::intel_optane_p5800x(),
        SsdSpec::samsung_pm1735(),
        SsdSpec::samsung_980pro(),
    ] {
        let model = SsdArrayModel::prototype(spec.clone(), num_ssds);
        let peak = model.peak_read_iops(access_bytes);
        let qd = required_queue_depth(peak, spec.read_latency_us).max(1);
        for multiplier in [0.5, 1.0, 2.0] {
            let in_flight = ((qd as f64 * multiplier).round() as u32).max(1);
            let config = SimConfig {
                seed,
                num_ssds: num_ssds as u32,
                queue_pairs_per_ssd: spec.max_queue_pairs,
                pipeline: PipelineParams::from_specs(
                    &spec,
                    &LinkSpec::gen4_x4(),
                    &LinkSpec::gen4_x16(),
                    access_bytes,
                ),
            };
            let reqs = engine::uniform_reads(&config, SAMPLE_REQUESTS);
            let (report, _) = Run::new(&config)
                .single(Workload::ClosedLoop { in_flight }, &reqs)
                .expect("valid sweep cell");
            rows.push(LatencyCdfRow {
                device: spec.name.clone(),
                depth_multiplier: multiplier,
                in_flight,
                achieved_miops: report.throughput_per_s / 1e6,
                mean_in_flight: report.depth.steady_state_mean(),
                p50_us: report.latency.p50_us,
                p95_us: report.latency.p95_us,
                p99_us: report.latency.p99_us,
                p999_us: report.latency.p999_us,
                mean_us: report.latency.mean_us,
                analytic_peak_miops: peak / 1e6,
                analytic_latency_us: spec.read_latency_us,
                analytic_depth: qd,
            });
        }
    }
    rows
}

/// Span events of one representative `latency_cdf` cell — Optane at 1× its
/// bandwidth-latency product — re-run under tracing (which changes nothing:
/// the report is identical to the untraced cell's). This is what
/// `latency_cdf --trace-out` exports; deterministic per seed.
pub fn latency_cdf_traced_events(num_ssds: usize, access_bytes: u64, seed: u64) -> Vec<SpanEvent> {
    let spec = SsdSpec::intel_optane_p5800x();
    let model = SsdArrayModel::prototype(spec.clone(), num_ssds);
    let qd = required_queue_depth(model.peak_read_iops(access_bytes), spec.read_latency_us).max(1);
    let config = SimConfig {
        seed,
        num_ssds: num_ssds as u32,
        queue_pairs_per_ssd: spec.max_queue_pairs,
        pipeline: PipelineParams::from_specs(
            &spec,
            &LinkSpec::gen4_x4(),
            &LinkSpec::gen4_x16(),
            access_bytes,
        ),
    };
    let reqs = engine::uniform_reads(&config, SAMPLE_REQUESTS);
    let recorder = SpanRecorder::new();
    let workload = Workload::ClosedLoop {
        in_flight: qd as u32,
    };
    Run::new(&config)
        .trace(&recorder)
        .single(workload, &reqs)
        .expect("valid sweep cell");
    recorder.events()
}

/// Simulated storage phase of one Figure-11 configuration: a 4-SSD Optane
/// array limited to `queue_pairs_total` queue pairs serving the measured
/// read/write mix. Returns the simulated seconds for the full-scale request
/// counts plus the run report.
///
/// # Panics
///
/// Panics unless `queue_pairs_total` is a positive multiple of `num_ssds` —
/// the engine models identical devices, so an uneven split would silently
/// simulate a different configuration than requested.
pub fn simulated_storage_time(
    spec: SsdSpec,
    num_ssds: usize,
    queue_pairs_total: u32,
    access_bytes: u64,
    reads: u64,
    writes: u64,
    seed: u64,
) -> (f64, SimReport) {
    assert!(
        queue_pairs_total > 0 && queue_pairs_total.is_multiple_of(num_ssds as u32),
        "queue_pairs_total ({queue_pairs_total}) must be a positive multiple of num_ssds ({num_ssds})"
    );
    let queue_pairs_per_ssd = queue_pairs_total / num_ssds as u32;
    let config = SimConfig {
        seed,
        num_ssds: num_ssds as u32,
        queue_pairs_per_ssd,
        pipeline: PipelineParams::from_specs(
            &spec,
            &LinkSpec::gen4_x4(),
            &LinkSpec::gen4_x16(),
            access_bytes,
        ),
    };
    let total = reads + writes;
    let sample_writes = if total == 0 {
        0
    } else {
        (SAMPLE_REQUESTS as u128 * writes as u128 / total as u128) as u64
    };
    let reqs = engine::mixed_requests(&config, SAMPLE_REQUESTS, sample_writes);
    let workload = Workload::ClosedLoop {
        in_flight: SWEEP_IN_FLIGHT,
    };
    let (report, _) = Run::new(&config)
        .single(workload, &reqs)
        .expect("a positive queue-pair count and a non-empty sample");
    let seconds = total as f64 / report.throughput_per_s;
    (seconds, report)
}

// --- Multi-tenant interference and fairness ------------------------------

/// Access granularity of the tenant experiment (the graph experiments' 4 KB
/// lines).
pub const TENANT_ACCESS_BYTES: u64 = 4096;

/// Requests each steady tenant issues in the sweep.
pub const TENANT_STEADY_REQUESTS: u64 = 6_000;

/// Arrival rate of one steady tenant, in requests per second. Far below any
/// capacity limit: a steady tenant only suffers when a neighbour's backlog
/// lands in front of its commands.
pub const TENANT_STEADY_RATE_PER_S: f64 = 100.0e3;

/// Stable id of the bursty antagonist (its arrival stream is a pure function
/// of run seed and id, so solo and co-run streams are identical).
pub const ANTAGONIST_ID: u32 = 100;

/// The antagonist's MMPP: long calm stretches at 50 K/s punctuated by ~1 ms
/// bursts at 1.6 M/s — above the 8-queue-pair protocol ceiling
/// (8 × 150 K/s = 1.2 M/s) but below every array's media envelope, so the
/// damage happens in the queue pairs, exactly where the allocation policy
/// acts.
pub fn antagonist_mmpp() -> Mmpp2 {
    Mmpp2 {
        calm_rate_per_s: 50.0e3,
        burst_rate_per_s: 1.6e6,
        mean_calm_s: 4.0e-3,
        mean_burst_s: 1.0e-3,
    }
}

/// A steady read-only Poisson tenant.
pub fn steady_tenant(id: u32, requests: u64) -> TenantSpec {
    TenantSpec::new(
        id,
        &format!("steady-{id}"),
        ArrivalProcess::Poisson {
            rate_per_s: TENANT_STEADY_RATE_PER_S,
        },
        requests,
    )
}

/// The bursty antagonist, sized so it stays active for roughly the same span
/// as a steady tenant with `steady_requests` (its mean rate is 3.6× higher).
pub fn bursty_antagonist(steady_requests: u64) -> TenantSpec {
    let m = antagonist_mmpp();
    let requests =
        (steady_requests as f64 * m.mean_rate_per_s() / TENANT_STEADY_RATE_PER_S).round() as u64;
    TenantSpec::new(
        ANTAGONIST_ID,
        "antagonist",
        ArrivalProcess::Mmpp(m),
        requests,
    )
}

/// The tenant experiment's array: 4 SSDs with only 2 queue pairs each — the
/// queue-pair-starved regime of Fig 11, where submission slots (not media)
/// are the contended resource.
pub fn tenant_config(spec: &SsdSpec, seed: u64) -> SimConfig {
    SimConfig {
        seed,
        num_ssds: 4,
        queue_pairs_per_ssd: 2,
        pipeline: PipelineParams::from_specs(
            spec,
            &LinkSpec::gen4_x4(),
            &LinkSpec::gen4_x16(),
            TENANT_ACCESS_BYTES,
        ),
    }
}

/// One per-tenant row of the multi-tenant sweep.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Device name (Table 2 row).
    pub device: String,
    /// Queue-pair allocation policy label.
    pub policy: &'static str,
    /// Workload scenario: `"steady"` (all tenants steady) or `"bursty"`
    /// (last tenant is the MMPP antagonist).
    pub scenario: &'static str,
    /// Tenants co-running in this configuration.
    pub num_tenants: usize,
    /// This tenant's name.
    pub tenant: String,
    /// This tenant's queue-pair weight.
    pub weight: u32,
    /// Queue pairs the policy granted this tenant.
    pub queue_pairs: u32,
    /// Requests the tenant completed.
    pub completed: u64,
    /// Completions per second over the tenant's active span.
    pub throughput_per_s: f64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Median latency (µs).
    pub p50_us: f64,
    /// 95th percentile (µs).
    pub p95_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// 99.9th percentile (µs).
    pub p999_us: f64,
    /// The tenant's p99 when running alone under the same configuration and
    /// policy (µs).
    pub solo_p99_us: f64,
    /// Interference metric: co-run p99 over solo p99 (1.0 = perfect
    /// isolation).
    pub interference: f64,
}

/// The tenant list of one scenario: `n` tenants, the last replaced by the
/// bursty antagonist when `bursty` is set.
fn scenario_tenants(n: usize, bursty: bool, steady_requests: u64) -> Vec<TenantSpec> {
    let mut tenants: Vec<TenantSpec> = (0..n as u32)
        .map(|i| steady_tenant(i, steady_requests))
        .collect();
    if bursty {
        tenants.pop();
        tenants.push(bursty_antagonist(steady_requests));
    }
    tenants
}

/// The full multi-tenant sweep: 1/2/4/8 tenants × (all-steady, bursty
/// antagonist) × shared vs weighted-fair queue pairs × the three Table-2
/// devices, with each tenant's solo p99 as the interference baseline.
pub fn tenant_matrix(seed: u64) -> Vec<TenantRow> {
    tenant_matrix_scaled(seed, TENANT_STEADY_REQUESTS)
}

/// [`tenant_matrix`] with an explicit per-steady-tenant request count (the
/// unit tests run a reduced scale; the `tenants` binary runs the full one).
pub fn tenant_matrix_scaled(seed: u64, steady_requests: u64) -> Vec<TenantRow> {
    let mut rows = Vec::new();
    // Solo-run p99 baselines, keyed by (device, policy, tenant id).
    let mut solo_p99: HashMap<(String, &'static str, u32), f64> = HashMap::new();
    for spec in [
        SsdSpec::intel_optane_p5800x(),
        SsdSpec::samsung_pm1735(),
        SsdSpec::samsung_980pro(),
    ] {
        let config = tenant_config(&spec, seed);
        let run = Run::new(&config);
        for policy in [QueuePairPolicy::Shared, QueuePairPolicy::WeightedFair] {
            for num_tenants in [1usize, 2, 4, 8] {
                for bursty in [false, true] {
                    let tenants = scenario_tenants(num_tenants, bursty, steady_requests);
                    let (report, _) = run.tenants(&tenants, policy).expect("valid scenario");
                    for (t, summary) in tenants.iter().zip(&report.tenants) {
                        let key = (spec.name.clone(), policy.label(), t.id);
                        // An n=1 run *is* the tenant's solo run (the engine
                        // is deterministic), so it seeds its own baseline.
                        let solo = if num_tenants == 1 {
                            *solo_p99.entry(key).or_insert(summary.latency.p99_us)
                        } else {
                            *solo_p99.entry(key).or_insert_with(|| {
                                let solo = run.tenants(std::slice::from_ref(t), policy);
                                solo.expect("valid scenario").0.tenants[0].latency.p99_us
                            })
                        };
                        rows.push(TenantRow {
                            device: spec.name.clone(),
                            policy: policy.label(),
                            scenario: if bursty { "bursty" } else { "steady" },
                            num_tenants,
                            tenant: summary.name.clone(),
                            weight: summary.weight,
                            queue_pairs: summary.queue_pairs,
                            completed: summary.completed,
                            throughput_per_s: summary.throughput_per_s,
                            mean_us: summary.latency.mean_us,
                            p50_us: summary.latency.p50_us,
                            p95_us: summary.latency.p95_us,
                            p99_us: summary.latency.p99_us,
                            p999_us: summary.latency.p999_us,
                            solo_p99_us: solo,
                            interference: interference_ratio(summary.latency.p99_us, solo),
                        });
                    }
                }
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_cdf_shapes_match_table2() {
        let rows = latency_cdf(4, 4096, 11);
        assert_eq!(rows.len(), 9, "3 devices x 3 depths");
        let at = |device: &str, mult: f64| {
            rows.iter()
                .find(|r| r.device.contains(device) && r.depth_multiplier == mult)
                .unwrap()
        };
        // At half the bandwidth-latency product the device is unsaturated and
        // p50 sits near the published latency; at 2x the queues double the
        // sojourn time while throughput stays pinned at the peak.
        for device in ["Optane", "PM1735", "980pro"] {
            let half = at(device, 0.5);
            let double = at(device, 2.0);
            assert!(
                half.p50_us <= half.analytic_latency_us * 1.5,
                "{device}: unsaturated p50 {} vs latency {}",
                half.p50_us,
                half.analytic_latency_us
            );
            assert!(
                double.mean_us > half.mean_us * 1.5,
                "{device}: overdriving must inflate latency"
            );
            assert!(
                double.achieved_miops <= double.analytic_peak_miops * 1.10,
                "{device}: sim must respect the analytic envelope"
            );
        }
        // Tails order by technology: NAND flash >> Z-NAND > Optane.
        assert!(at("980pro", 1.0).p999_us > at("Optane", 1.0).p999_us * 5.0);
        assert!(at("PM1735", 1.0).p999_us > at("Optane", 1.0).p999_us);
    }

    #[test]
    fn latency_cdf_is_deterministic() {
        let a = latency_cdf(4, 4096, 5);
        let b = latency_cdf(4, 4096, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.p999_us, y.p999_us);
            assert_eq!(x.achieved_miops, y.achieved_miops);
        }
    }

    #[test]
    fn bursty_antagonist_degrades_steady_p99_only_under_shared_queue_pairs() {
        // The PR's headline scenario: a steady tenant co-runs with an MMPP
        // antagonist whose bursts exceed the array's queue-pair protocol
        // ceiling. Shared queue pairs let the burst backlog land in front of
        // the steady tenant's commands; weighted-fair allocation keeps the
        // backlog in the antagonist's own partition.
        let spec = SsdSpec::intel_optane_p5800x();
        let config = tenant_config(&spec, 17);
        let tenants = [
            steady_tenant(0, TENANT_STEADY_REQUESTS),
            bursty_antagonist(TENANT_STEADY_REQUESTS),
        ];
        let run = Run::new(&config);
        let measure = |policy: QueuePairPolicy| {
            let (solo, _) = run.tenants(&tenants[..1], policy).unwrap();
            let solo = solo.tenants[0].latency.p99_us;
            let (corun, _) = run.tenants(&tenants, policy).unwrap();
            let steady = corun.tenant(0).unwrap().latency.p99_us;
            interference_ratio(steady, solo)
        };
        let shared = measure(QueuePairPolicy::Shared);
        let fair = measure(QueuePairPolicy::WeightedFair);
        assert!(
            shared > 2.0,
            "shared queue pairs must let the antagonist inflate the steady \
             tenant's p99 (interference {shared:.2})"
        );
        assert!(
            fair < 1.4,
            "weighted-fair allocation must isolate the steady tenant \
             (interference {fair:.2})"
        );
        assert!(
            shared > fair * 2.0,
            "isolation gap: shared {shared:.2} vs fair {fair:.2}"
        );
    }

    #[test]
    fn antagonist_pays_for_its_own_bursts_under_weighted_fair() {
        // Fairness is not free lunch: under weighted-fair the antagonist's
        // bursts queue in its own partition, so its p99 is worse than under
        // the shared free-for-all where it could spill onto everyone.
        let spec = SsdSpec::intel_optane_p5800x();
        let config = tenant_config(&spec, 18);
        let tenants = [
            steady_tenant(0, TENANT_STEADY_REQUESTS),
            bursty_antagonist(TENANT_STEADY_REQUESTS),
        ];
        let p99 = |policy| {
            let (report, _) = Run::new(&config).tenants(&tenants, policy).unwrap();
            report.tenant(ANTAGONIST_ID).unwrap().latency.p99_us
        };
        assert!(p99(QueuePairPolicy::WeightedFair) > p99(QueuePairPolicy::Shared));
    }

    #[test]
    fn tenant_matrix_covers_the_sweep_and_is_deterministic() {
        let rows = tenant_matrix_scaled(19, 800);
        // 3 devices × 2 policies × (1+2+4+8 tenants) × 2 scenarios.
        assert_eq!(rows.len(), 3 * 2 * 15 * 2);
        let again = tenant_matrix_scaled(19, 800);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.p99_us, b.p99_us);
            assert_eq!(a.throughput_per_s, b.throughput_per_s);
            assert_eq!(a.interference, b.interference);
        }
        // Solo rows are their own baseline: interference exactly 1.
        for r in rows.iter().filter(|r| r.num_tenants == 1) {
            assert!((r.interference - 1.0).abs() < 1e-12, "{r:?}");
        }
        // Weighted-fair partitions sum to the array's 8 queue pairs.
        for n in [1usize, 2, 4, 8] {
            let total: u32 = rows
                .iter()
                .filter(|r| {
                    r.policy == "weighted-fair"
                        && r.scenario == "steady"
                        && r.num_tenants == n
                        && r.device.contains("Optane")
                })
                .map(|r| r.queue_pairs)
                .sum();
            assert_eq!(total, 8, "{n} tenants");
        }
    }

    #[test]
    fn queue_pair_sweep_storage_time_degrades_below_the_knee() {
        let spec = SsdSpec::intel_optane_p5800x;
        let (t128, _) = simulated_storage_time(spec(), 4, 128, 4096, 10_000_000, 0, 3);
        let (t48, _) = simulated_storage_time(spec(), 4, 48, 4096, 10_000_000, 0, 3);
        let (t32, r32) = simulated_storage_time(spec(), 4, 32, 4096, 10_000_000, 0, 3);
        assert!(
            (t48 / t128 - 1.0).abs() < 0.10,
            "flat region: {t48} vs {t128}"
        );
        assert!(t32 > t128 * 1.1, "below the knee: {t32} vs {t128}");
        // The starved queue pairs are visibly backed up.
        assert!(r32.queue_occupancy_mean > 1.0);
    }
}

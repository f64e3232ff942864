//! Tail root-cause attribution: the flagship observed run and its exports.
//!
//! One seeded multi-tenant run — four steady Poisson tenants carrying a p99
//! SLO co-run with the MMPP bursty antagonist on the queue-pair-starved
//! Optane array, under *shared* queue pairs so the bursts land in front of
//! everyone — executed with full telemetry: a windowed virtual-time series,
//! the per-resource blame decomposition (service vs. wait per stage, tail
//! slice above the population p99, top-k exemplar waterfalls), and
//! per-tenant SLO violation / burn-rate reports. The JSON renderers here
//! feed both `BENCH_timeline.json` (the drift-gated trajectory file) and
//! the `--timeline-out` exports of the `breakdown` and `tenants` binaries;
//! every integer field is deterministic per seed and bit-identical at every
//! engine worker count.

use bam_sim::{
    engine, BlameReport, MultiTenantReport, QueuePairPolicy, Run, RunTelemetry, SimReport, Stage,
    TelemetrySpec, WindowedSeries,
};

use crate::breakdown_exp;
use crate::jsonout::{json_array, JsonObject};
use crate::sim_exp;

/// Seed of the timeline runs.
pub const TIMELINE_SEED: u64 = 37;

/// Telemetry window: 1 ms of virtual time — fine enough to resolve the
/// antagonist's ~1 ms bursts, coarse enough that every window holds a
/// meaningful completion population.
pub const TIMELINE_WINDOW_NS: u64 = 1_000_000;

/// Exemplars kept: the k slowest requests with full span waterfalls.
pub const TIMELINE_TOP_K: usize = 5;

/// The steady tenants' SLO target: p99 at most 30 µs per evaluation window
/// — comfortably met solo on Optane, broken when the antagonist bursts.
pub const TIMELINE_SLO_TARGET_P99_US: f64 = 30.0;

/// SLO evaluation window (aligned with the telemetry window).
pub const TIMELINE_SLO_WINDOW_NS: u64 = 1_000_000;

/// Steady tenants co-running with the antagonist.
pub const TIMELINE_STEADY_TENANTS: usize = 4;

/// The timeline scenario's tenant list: SLO-carrying steady tenants plus
/// the bursty antagonist (no SLO — it is the cause, not the victim).
pub fn timeline_tenants() -> Vec<bam_sim::TenantSpec> {
    let mut tenants: Vec<bam_sim::TenantSpec> = (0..TIMELINE_STEADY_TENANTS as u32)
        .map(|i| {
            sim_exp::steady_tenant(i, sim_exp::TENANT_STEADY_REQUESTS)
                .with_slo(TIMELINE_SLO_TARGET_P99_US, TIMELINE_SLO_WINDOW_NS)
        })
        .collect();
    tenants.push(sim_exp::bursty_antagonist(sim_exp::TENANT_STEADY_REQUESTS));
    tenants
}

/// The telemetry spec every timeline run uses.
pub fn timeline_spec() -> TelemetrySpec {
    TelemetrySpec::full(TIMELINE_WINDOW_NS, TIMELINE_TOP_K)
}

/// Runs the flagship observed scenario.
pub fn timeline_run(seed: u64) -> (MultiTenantReport, RunTelemetry) {
    let spec = bam_nvme_sim::SsdSpec::intel_optane_p5800x();
    let config = sim_exp::tenant_config(&spec, seed);
    Run::new(&config)
        .telemetry(timeline_spec())
        .tenants(&timeline_tenants(), QueuePairPolicy::Shared)
        .expect("valid scenario")
}

/// The observed single-tenant breakdown run (what `breakdown
/// --timeline-out` exports): the Optane stage-attribution workload with
/// full telemetry.
pub fn observed_breakdown_run(seed: u64) -> (SimReport, RunTelemetry) {
    let spec = bam_nvme_sim::SsdSpec::intel_optane_p5800x();
    let config = breakdown_exp::breakdown_config(&spec, seed);
    let reqs = engine::mixed_requests(
        &config,
        breakdown_exp::BREAKDOWN_REQUESTS,
        breakdown_exp::BREAKDOWN_WRITES,
    );
    let workload = bam_sim::Workload::ClosedLoop {
        in_flight: breakdown_exp::BREAKDOWN_IN_FLIGHT,
    };
    Run::new(&config)
        .telemetry(timeline_spec())
        .single(workload, &reqs)
        .expect("valid workload")
}

/// Renders the windowed series as a JSON array, one object per populated
/// window in time order.
pub fn windows_json(series: &WindowedSeries) -> String {
    json_array(series.iter().map(|(start_ns, w)| {
        let dwell: u64 = w.stage_dwell_ns.iter().sum();
        let wait: u64 = w.stage_wait_ns.iter().sum();
        JsonObject::new()
            .int("start_ns", start_ns)
            .int("arrivals", w.arrivals)
            .int("completions", w.completions)
            .num("p50_us", w.latency.value_at_quantile(0.50) as f64 / 1e3)
            .num("p99_us", w.latency.value_at_quantile(0.99) as f64 / 1e3)
            .num("depth_mean", w.depth_mean())
            .int("depth_max", w.depth_max)
            .num("occupancy_mean", w.occupancy_mean())
            .int("dwell_ns", dwell)
            .int("wait_ns", wait)
            .build()
    }))
}

/// Renders the blame decomposition as a JSON object: per-stage service/wait
/// totals for the population and the tail slice, plus the exemplar
/// waterfalls.
pub fn blame_json(blame: &BlameReport) -> String {
    let stages = json_array(blame.overall.active_stages().map(|stage| {
        JsonObject::new()
            .str("stage", stage.label())
            .int("service_ns", blame.overall.service_ns(stage))
            .int("wait_ns", blame.overall.wait_ns(stage))
            .int("tail_service_ns", blame.tail.service_ns(stage))
            .int("tail_wait_ns", blame.tail.wait_ns(stage))
            .build()
    }));
    let exemplars = json_array(blame.exemplars.iter().map(|ex| {
        let waterfall = json_array(ex.waterfall.iter().map(|w| {
            JsonObject::new()
                .str("stage", w.stage.label())
                .int("start_ns", w.start_ns)
                .int("end_ns", w.end_ns)
                .int("service_ns", w.service_ns)
                .int("wait_ns", w.wait_ns)
                .build()
        }));
        JsonObject::new()
            .int("id", ex.id)
            .int("arrive_ns", ex.arrive_ns)
            .int("latency_ns", ex.latency_ns)
            .raw("waterfall", waterfall)
            .build()
    }));
    JsonObject::new()
        .int("requests", blame.requests)
        .int("p99_cut_ns", blame.p99_cut_ns)
        .int("tail_requests", blame.tail_requests)
        .raw("stages", stages)
        .raw("exemplars", exemplars)
        .build()
}

/// Renders the per-tenant SLO outcomes as a JSON array (tenants without an
/// SLO are omitted). Tenant-class rows with an armed admission controller
/// append an `admission` object; plain tenants render exactly as before.
pub fn slo_json(report: &MultiTenantReport) -> String {
    json_array(report.tenants.iter().filter_map(|t| {
        t.slo.map(|s| {
            let mut obj = JsonObject::new()
                .str("tenant", &t.name)
                .num("target_p99_us", s.target_p99_us)
                .int("window_ns", s.window_ns)
                .int("windows", s.windows)
                .int("violations", s.violations)
                .int("completions", s.completions)
                .int("over_target", s.over_target)
                .num("burn_rate", s.burn_rate)
                .num("worst_window_p99_us", s.worst_window_p99_us)
                .int("worst_window_start_ns", s.worst_window_start_ns);
            if let Some(a) = t.admission {
                obj = obj.raw(
                    "admission",
                    JsonObject::new()
                        .int("offered", a.offered)
                        .int("admitted", a.admitted)
                        .int("deferrals", a.deferrals)
                        .int("rejected", a.rejected)
                        .int("depth_limit", a.depth_limit)
                        .build(),
                );
            }
            obj.build()
        })
    }))
}

/// The full timeline document of the flagship multi-tenant run — the body
/// of `BENCH_timeline.json` and of `tenants --timeline-out`.
pub fn timeline_body(seed: u64, report: &MultiTenantReport, tel: &RunTelemetry) -> String {
    JsonObject::new()
        .str("bench", "timeline")
        .int("seed", seed)
        .str("scenario", "bursty-shared")
        .int("window_ns", TIMELINE_WINDOW_NS)
        .int("completed", report.overall.completed)
        .num("overall_p99_us", report.overall.latency.p99_us)
        .raw("windows", windows_json(&tel.series))
        .raw("blame", blame_json(&tel.blame))
        .raw("slo", slo_json(report))
        .build()
}

/// The timeline document of the observed single-tenant breakdown run (no
/// SLO section) — the body of `breakdown --timeline-out`.
pub fn breakdown_timeline_body(seed: u64, report: &SimReport, tel: &RunTelemetry) -> String {
    JsonObject::new()
        .str("bench", "breakdown-timeline")
        .int("seed", seed)
        .int("window_ns", TIMELINE_WINDOW_NS)
        .int("completed", report.completed)
        .num("overall_p99_us", report.latency.p99_us)
        .raw("windows", windows_json(&tel.series))
        .raw("blame", blame_json(&tel.blame))
        .build()
}

/// The stage with the largest total (service + wait) share of one
/// exemplar's waterfall — the printed "dominant" column.
pub fn dominant_stage(ex: &bam_sim::Exemplar) -> Stage {
    Stage::ALL
        .into_iter()
        .max_by_key(|s| {
            ex.waterfall
                .iter()
                .filter(|w| w.stage == *s)
                .map(|w| w.service_ns + w.wait_ns)
                .sum::<u64>()
        })
        .expect("Stage::ALL is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift;

    #[test]
    fn timeline_run_attributes_and_violates_as_designed() {
        let (report, tel) = timeline_run(TIMELINE_SEED);
        // Blame tiles the whole run's latency to the nanosecond.
        let total = report.overall.histogram.sum_ns();
        assert_eq!(tel.blame.overall.total_ns(), total);
        assert_eq!(tel.blame.requests, report.overall.completed);
        // The tail's wait is queue-pair-dominated: the antagonist's backlog
        // sits in the shared submission slots, not in the media.
        let tail_qp_wait = tel.blame.tail.wait_ns(Stage::QueuePair);
        let tail_media_wait = tel.blame.tail.wait_ns(Stage::Media);
        assert!(
            tail_qp_wait > tail_media_wait,
            "tail blame must point at the queue pairs \
             (qp wait {tail_qp_wait} vs media wait {tail_media_wait})"
        );
        // Every steady tenant's SLO is violated and burning budget; the
        // antagonist carries no SLO.
        let mut with_slo = 0;
        for t in &report.tenants {
            if let Some(slo) = &t.slo {
                with_slo += 1;
                assert!(slo.violations > 0, "{}: no violations", t.name);
                assert!(slo.burn_rate > 1.0, "{}: burn {}", t.name, slo.burn_rate);
                assert_eq!(slo.completions, t.completed);
            }
        }
        assert_eq!(with_slo, TIMELINE_STEADY_TENANTS);
        assert!(report.tenants.last().unwrap().slo.is_none());
        // The series reconciles with the run aggregates.
        let completions: u64 = tel.series.iter().map(|(_, w)| w.completions).sum();
        assert_eq!(completions, report.overall.completed);
    }

    #[test]
    fn timeline_is_deterministic() {
        let (ra, ta) = timeline_run(TIMELINE_SEED);
        let (rb, tb) = timeline_run(TIMELINE_SEED);
        assert_eq!(ra, rb);
        assert_eq!(ta, tb);
        assert_eq!(
            timeline_body(TIMELINE_SEED, &ra, &ta),
            timeline_body(TIMELINE_SEED, &rb, &tb),
            "the exported document must be byte-identical"
        );
    }

    #[test]
    fn exported_documents_parse_and_carry_every_section() {
        let (report, tel) = timeline_run(TIMELINE_SEED);
        let body = timeline_body(TIMELINE_SEED, &report, &tel);
        let doc = drift::parse(&body).expect("timeline JSON must parse");
        let drift::JsonValue::Object(fields) = doc else {
            panic!("not an object");
        };
        for key in ["bench", "windows", "blame", "slo"] {
            assert!(fields.iter().any(|(k, _)| k == key), "missing {key}");
        }

        let (sreport, stel) = observed_breakdown_run(breakdown_exp::BREAKDOWN_SEED);
        let sbody = breakdown_timeline_body(breakdown_exp::BREAKDOWN_SEED, &sreport, &stel);
        drift::parse(&sbody).expect("breakdown timeline JSON must parse");
        assert_eq!(stel.blame.overall.total_ns(), sreport.histogram.sum_ns());
    }
}

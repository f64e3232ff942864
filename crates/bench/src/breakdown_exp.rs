//! Stage-attribution breakdown of simulated request latency.
//!
//! One seeded closed-loop run per Table-2 device — journal-flush stage
//! enabled, 3:1 read/write mix — drives the event engine, which measures
//! each request's dwell time in every pipeline stage it passes through. The
//! harness reports where the end-to-end latency went: per stage, how many
//! requests dwelled there, the dwell-time distribution, and the stage's
//! share of all attributed nanoseconds. The dwells tile each request's
//! latency exactly (the marks are taken at the same virtual instants the
//! latency is), so the shares sum to 100% — the attribution property the
//! unit test asserts.

use bam_nvme_sim::SsdSpec;
use bam_pcie::LinkSpec;
use bam_sim::{
    engine, PipelineParams, Run, SimConfig, SimReport, SpanEvent, SpanRecorder, Workload,
};

/// Seed of the breakdown runs.
pub const BREAKDOWN_SEED: u64 = 23;

/// Requests simulated per device.
pub const BREAKDOWN_REQUESTS: u64 = 20_000;

/// Writes among them (each one pays the journal-flush stage).
pub const BREAKDOWN_WRITES: u64 = 5_000;

/// Closed-loop depth.
pub const BREAKDOWN_IN_FLIGHT: u32 = 256;

/// Access granularity (the graph experiments' 4 KB lines).
pub const BREAKDOWN_ACCESS_BYTES: u64 = 4096;

/// Journal record overhead charged per durable write (bam-core's framing).
pub const BREAKDOWN_JOURNAL_OVERHEAD_BYTES: u64 = 48;

/// One stage row of one device's breakdown table.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Device name (Table 2 row).
    pub device: String,
    /// Stage label (see [`bam_sim::Stage::label`]).
    pub stage: &'static str,
    /// Requests that dwelled in this stage.
    pub count: u64,
    /// Mean dwell time (µs).
    pub mean_us: f64,
    /// Median dwell time (µs).
    pub p50_us: f64,
    /// 99th-percentile dwell time (µs).
    pub p99_us: f64,
    /// This stage's share of all attributed nanoseconds, in percent.
    pub share_pct: f64,
}

/// The simulation configuration of one device's run: a 4-SSD array in the
/// queue-pair-starved regime (2 QPs each), so queueing is visible in the
/// attribution, with the journal-flush stage enabled.
pub fn breakdown_config(spec: &SsdSpec, seed: u64) -> SimConfig {
    SimConfig {
        seed,
        num_ssds: 4,
        queue_pairs_per_ssd: 2,
        pipeline: PipelineParams::from_specs(
            spec,
            &LinkSpec::gen4_x4(),
            &LinkSpec::gen4_x16(),
            BREAKDOWN_ACCESS_BYTES,
        )
        .with_journal_flush(BREAKDOWN_JOURNAL_OVERHEAD_BYTES),
    }
}

/// Runs one device's seeded breakdown workload, optionally recording every
/// stage interval as span events (the `--trace-out` export).
fn breakdown_report(spec: &SsdSpec, seed: u64, recorder: Option<&SpanRecorder>) -> SimReport {
    let config = breakdown_config(spec, seed);
    let reqs = engine::mixed_requests(&config, BREAKDOWN_REQUESTS, BREAKDOWN_WRITES);
    let workload = Workload::ClosedLoop {
        in_flight: BREAKDOWN_IN_FLIGHT,
    };
    let run = Run::new(&config);
    let run = recorder.map_or(run, |rec| run.trace(rec));
    run.single(workload, &reqs).expect("valid workload").0
}

/// Flattens one report's stage breakdown into table rows, in pipeline order
/// (stages with no samples are omitted).
fn stage_rows(device: &str, report: &SimReport) -> Vec<BreakdownRow> {
    let total = report.stages.total_ns();
    report
        .stages
        .active_stages()
        .map(|stage| {
            let h = report.stages.histo(stage);
            BreakdownRow {
                device: device.to_string(),
                stage: stage.label(),
                count: h.count(),
                mean_us: h.mean_ns() / 1e3,
                p50_us: h.value_at_quantile(0.50) as f64 / 1e3,
                p99_us: h.value_at_quantile(0.99) as f64 / 1e3,
                share_pct: if total == 0 {
                    0.0
                } else {
                    h.sum_ns() as f64 / total as f64 * 100.0
                },
            }
        })
        .collect()
}

/// The full breakdown: the three Table-2 devices, each returning its run
/// report and stage table.
pub fn breakdown(seed: u64) -> Vec<(SsdSpec, SimReport, Vec<BreakdownRow>)> {
    [
        SsdSpec::intel_optane_p5800x(),
        SsdSpec::samsung_pm1735(),
        SsdSpec::samsung_980pro(),
    ]
    .into_iter()
    .map(|spec| {
        let report = breakdown_report(&spec, seed, None);
        let rows = stage_rows(&spec.name, &report);
        (spec, report, rows)
    })
    .collect()
}

/// The Optane run's span events (what `breakdown --trace-out` exports):
/// bounded to the recorder's default capacity, deterministic per seed.
pub fn traced_events(seed: u64) -> Vec<SpanEvent> {
    let rec = SpanRecorder::new();
    breakdown_report(&SsdSpec::intel_optane_p5800x(), seed, Some(&rec));
    rec.events()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_dwells_attribute_all_of_the_latency() {
        // The acceptance bar is >= 95% of each request's end-to-end latency
        // attributed to named stages; the engine's marks tile the latency
        // exactly, so the attribution is in fact 100%.
        for (spec, report, rows) in breakdown(BREAKDOWN_SEED) {
            let latency_total = report.histogram.sum_ns();
            let attributed = report.stages.total_ns();
            assert!(
                attributed as f64 >= latency_total as f64 * 0.95,
                "{}: attributed {attributed} of {latency_total}",
                spec.name
            );
            assert_eq!(
                attributed, latency_total,
                "{}: dwells must tile the latency exactly",
                spec.name
            );
            let share_sum: f64 = rows.iter().map(|r| r.share_pct).sum();
            assert!((share_sum - 100.0).abs() < 1e-9, "{share_sum}");
            // Only writes pay the journal flush.
            let flush = rows.iter().find(|r| r.stage == "journal_flush").unwrap();
            assert_eq!(flush.count, BREAKDOWN_WRITES);
            let media = rows.iter().find(|r| r.stage == "media").unwrap();
            assert_eq!(media.count, BREAKDOWN_REQUESTS);
        }
    }

    #[test]
    fn breakdown_and_trace_are_deterministic() {
        let a = breakdown(BREAKDOWN_SEED);
        let b = breakdown(BREAKDOWN_SEED);
        for ((_, ra, rows_a), (_, rb, rows_b)) in a.iter().zip(&b) {
            assert_eq!(ra.stages, rb.stages);
            for (x, y) in rows_a.iter().zip(rows_b) {
                assert_eq!(x.stage, y.stage);
                assert!(x.mean_us == y.mean_us);
                assert!(x.share_pct == y.share_pct);
            }
        }
        let ta = traced_events(BREAKDOWN_SEED);
        let tb = traced_events(BREAKDOWN_SEED);
        assert!(!ta.is_empty());
        assert_eq!(ta, tb, "trace must be bit-identical per seed");
    }
}

//! Stage-attribution breakdown: where each request's latency goes.
//!
//! One seeded closed-loop run per Table-2 device (journal-flush stage
//! enabled, 3:1 read/write mix) with per-stage dwell-time accounting; the
//! dwells tile each request's end-to-end latency exactly, so every table's
//! shares sum to 100%. Pass `--json` to also write `BENCH_breakdown.json`,
//! `--trace-out <path>` to export the Optane run's spans as Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`), and
//! `--timeline-out <path>` to export the Optane run's full timeline
//! document (windowed telemetry + per-resource blame decomposition).

use bam_bench::breakdown_exp::{
    breakdown, traced_events, BREAKDOWN_ACCESS_BYTES, BREAKDOWN_IN_FLIGHT,
    BREAKDOWN_JOURNAL_OVERHEAD_BYTES, BREAKDOWN_REQUESTS, BREAKDOWN_SEED, BREAKDOWN_WRITES,
};
use bam_bench::jsonout::{emit_bench_json, json_array, json_mode, JsonObject};
use bam_bench::timeline_exp::{breakdown_timeline_body, observed_breakdown_run};
use bam_bench::{flag_value, print_table};
use bam_sim::chrome_trace_json;

fn main() {
    let results = breakdown(BREAKDOWN_SEED);
    for (spec, report, rows) in &results {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.stage.to_string(),
                    r.count.to_string(),
                    format!("{:.2}", r.mean_us),
                    format!("{:.2}", r.p50_us),
                    format!("{:.2}", r.p99_us),
                    format!("{:.1}%", r.share_pct),
                ]
            })
            .collect();
        print_table(
            &format!(
                "{}: stage attribution of {} requests ({} writes), p50 latency {:.1} us",
                spec.name, report.completed, BREAKDOWN_WRITES, report.latency.p50_us
            ),
            &[
                "Stage",
                "Count",
                "Mean (us)",
                "p50 (us)",
                "p99 (us)",
                "Share",
            ],
            &table,
        );
    }
    println!(
        "\nCheck: each table's shares sum to 100% — the per-stage dwells tile every request's \
         end-to-end latency exactly. Queue-pair share grows as media gets slower only where \
         submission slots, not media, are the bottleneck."
    );
    if let Some(path) = flag_value("--trace-out") {
        let trace = chrome_trace_json(&traced_events(BREAKDOWN_SEED));
        std::fs::write(&path, trace).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if let Some(path) = flag_value("--timeline-out") {
        let (report, telemetry) = observed_breakdown_run(BREAKDOWN_SEED);
        let body = breakdown_timeline_body(BREAKDOWN_SEED, &report, &telemetry);
        std::fs::write(&path, format!("{body}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if json_mode() {
        let body = JsonObject::new()
            .str("bench", "breakdown")
            .int("seed", BREAKDOWN_SEED)
            .int("requests", BREAKDOWN_REQUESTS)
            .int("writes", BREAKDOWN_WRITES)
            .int("in_flight", u64::from(BREAKDOWN_IN_FLIGHT))
            .int("access_bytes", BREAKDOWN_ACCESS_BYTES)
            .int("journal_overhead_bytes", BREAKDOWN_JOURNAL_OVERHEAD_BYTES)
            .raw(
                "rows",
                json_array(results.iter().flat_map(|(_, _, rows)| {
                    rows.iter().map(|r| {
                        JsonObject::new()
                            .str("device", &r.device)
                            .str("stage", r.stage)
                            .int("count", r.count)
                            .num("mean_us", r.mean_us)
                            .num("p50_us", r.p50_us)
                            .num("p99_us", r.p99_us)
                            .num("share_pct", r.share_pct)
                            .build()
                    })
                })),
            )
            .build();
        emit_bench_json("breakdown", &body);
    }
}

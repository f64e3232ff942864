//! Tail-latency CDFs for the three Table-2 SSD technologies (event-driven).
//!
//! A 4-SSD array of each device is driven closed-loop at 0.5×, 1×, and 2× of
//! its bandwidth-latency product (§2.2) and the per-request latency
//! distribution is reported alongside the analytic envelope it must agree
//! with in the mean — the dynamics behind the Fig 9 slowdowns. Pass `--json`
//! to also write `BENCH_latency_cdf.json`, `--trace-out <path>` to export
//! the Optane 1×-depth cell's spans as Chrome trace-event JSON.
use bam_bench::jsonout::{emit_bench_json, json_array, json_mode, JsonObject};
use bam_bench::{flag_value, print_table, sim_exp};
use bam_sim::chrome_trace_json;

/// Access granularity of the sweep (the graph experiments' 4 KB lines).
const ACCESS_BYTES: u64 = 4096;
const SEED: u64 = 9;

fn main() {
    let rows = sim_exp::latency_cdf(4, ACCESS_BYTES, SEED);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.device.clone(),
                format!("{:.1}x", r.depth_multiplier),
                r.in_flight.to_string(),
                format!("{:.2}", r.achieved_miops),
                format!("{:.2}", r.analytic_peak_miops),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p95_us),
                format!("{:.1}", r.p99_us),
                format!("{:.1}", r.p999_us),
                format!("{:.1}", r.analytic_latency_us),
                format!("{:.0}", r.mean_in_flight),
                r.analytic_depth.to_string(),
            ]
        })
        .collect();
    print_table(
        "Tail-latency CDFs: 4-SSD arrays, 4KB reads, closed loop at 0.5/1/2x the \
         bandwidth-latency product (simulated vs analytic)",
        &[
            "Device",
            "Depth",
            "In flight",
            "Sim MIOPS",
            "Peak MIOPS",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "p999 (us)",
            "Spec lat",
            "Sim Qd",
            "T*L Qd",
        ],
        &table,
    );
    println!(
        "\nCheck: at 1x depth the simulated mean in-flight must sit near the analytic T*L \
         product (Little's law); at 2x, throughput stays at the peak while every percentile \
         roughly doubles — latency bought nothing."
    );
    if let Some(path) = flag_value("--trace-out") {
        let events = sim_exp::latency_cdf_traced_events(4, ACCESS_BYTES, SEED);
        std::fs::write(&path, chrome_trace_json(&events))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if json_mode() {
        let body = JsonObject::new()
            .str("bench", "latency_cdf")
            .int("seed", SEED)
            .int("access_bytes", ACCESS_BYTES)
            .int("sample_requests", sim_exp::SAMPLE_REQUESTS)
            .raw(
                "rows",
                json_array(rows.iter().map(|r| {
                    JsonObject::new()
                        .str("device", &r.device)
                        .num("depth_multiplier", r.depth_multiplier)
                        .int("in_flight", u64::from(r.in_flight))
                        .num("achieved_miops", r.achieved_miops)
                        .num("analytic_peak_miops", r.analytic_peak_miops)
                        .num("mean_us", r.mean_us)
                        .num("p50_us", r.p50_us)
                        .num("p95_us", r.p95_us)
                        .num("p99_us", r.p99_us)
                        .num("p999_us", r.p999_us)
                        .num("analytic_latency_us", r.analytic_latency_us)
                        .num("mean_in_flight", r.mean_in_flight)
                        .int("analytic_depth", r.analytic_depth)
                        .build()
                })),
            )
            .build();
        emit_bench_json("latency_cdf", &body);
    }
}

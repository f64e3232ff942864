//! Multi-tenant interference and fairness sweep (event-driven).
//!
//! 1/2/4/8 tenants — all steady, or with the last replaced by an MMPP bursty
//! antagonist — co-run on a queue-pair-starved 4-SSD array of each Table-2
//! device, under shared vs weighted-fair queue-pair allocation. Each row
//! reports a tenant's co-run tail percentiles next to its solo baseline and
//! the interference ratio (co-run p99 / solo p99; 1.0 = perfect isolation).
//! Pass `--json` to also write `BENCH_tenants.json`, `--timeline-out
//! <path>` to export the flagship bursty-shared run's full timeline
//! document (windowed telemetry, per-resource blame decomposition, and
//! per-tenant SLO outcomes — see `bam_bench::timeline_exp`).
use bam_bench::jsonout::{emit_bench_json, json_array, json_mode, JsonObject};
use bam_bench::timeline_exp::{timeline_body, timeline_run, TIMELINE_SEED};
use bam_bench::{flag_value, print_table, sim_exp};

const SEED: u64 = 13;

fn main() {
    let rows = sim_exp::tenant_matrix(SEED);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.device.clone(),
                r.policy.to_string(),
                r.scenario.to_string(),
                r.num_tenants.to_string(),
                r.tenant.clone(),
                r.queue_pairs.to_string(),
                format!("{:.0}", r.throughput_per_s / 1e3),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                format!("{:.1}", r.p999_us),
                format!("{:.1}", r.solo_p99_us),
                format!("{:.2}x", r.interference),
            ]
        })
        .collect();
    print_table(
        "Multi-tenant fairness: 4-SSD arrays, 2 queue pairs per SSD, steady Poisson tenants \
         vs an MMPP bursty antagonist, shared vs weighted-fair queue pairs",
        &[
            "Device",
            "Policy",
            "Scenario",
            "Tenants",
            "Tenant",
            "QPs",
            "KIOPS",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "Solo p99",
            "Interference",
        ],
        &table,
    );
    println!(
        "\nCheck: under shared queue pairs the antagonist's bursts inflate every steady \
         tenant's p99 (interference >> 1); under weighted-fair allocation the backlog stays \
         in the antagonist's own partition and steady interference sits near 1.0x."
    );
    if let Some(path) = flag_value("--timeline-out") {
        let (report, telemetry) = timeline_run(TIMELINE_SEED);
        let body = timeline_body(TIMELINE_SEED, &report, &telemetry);
        std::fs::write(&path, format!("{body}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if json_mode() {
        let body = JsonObject::new()
            .str("bench", "tenants")
            .int("seed", SEED)
            .int("access_bytes", sim_exp::TENANT_ACCESS_BYTES)
            .int("steady_requests", sim_exp::TENANT_STEADY_REQUESTS)
            .num("steady_rate_per_s", sim_exp::TENANT_STEADY_RATE_PER_S)
            .raw(
                "rows",
                json_array(rows.iter().map(|r| {
                    JsonObject::new()
                        .str("device", &r.device)
                        .str("policy", r.policy)
                        .str("scenario", r.scenario)
                        .int("num_tenants", r.num_tenants as u64)
                        .str("tenant", &r.tenant)
                        .int("weight", u64::from(r.weight))
                        .int("queue_pairs", u64::from(r.queue_pairs))
                        .int("completed", r.completed)
                        .num("throughput_per_s", r.throughput_per_s)
                        .num("mean_us", r.mean_us)
                        .num("p50_us", r.p50_us)
                        .num("p95_us", r.p95_us)
                        .num("p99_us", r.p99_us)
                        .num("p999_us", r.p999_us)
                        .num("solo_p99_us", r.solo_p99_us)
                        .num("interference", r.interference)
                        .build()
                })),
            )
            .build();
        emit_bench_json("tenants", &body);
    }
}

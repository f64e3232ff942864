//! Million-tenant SLO admission-control knee sweep (event-driven).
//!
//! A single tenant class of 10k / 100k / 1M logical tenants offers load
//! around the knee of a queue-pair-starved 4-SSD Optane array, with and
//! without the class's SLO admission controller armed. Class aggregation is
//! closed-form, so every cell costs O(classes) event-loop work — the
//! million-tenant rows run as fast as the ten-thousand-tenant ones. Pass
//! `--json` to also write `BENCH_slo.json`.
use bam_bench::jsonout::{emit_bench_json, json_array, json_mode, JsonObject};
use bam_bench::{print_table, slo_exp};

const SEED: u64 = 37;

fn main() {
    let rows = slo_exp::slo_sweep(SEED);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.members.to_string(),
                format!("{:.2}", r.load),
                format!("{:.0}", r.offered_rate_per_s / 1e3),
                if r.controlled { "on" } else { "off" }.to_string(),
                if r.controlled {
                    r.depth_limit.to_string()
                } else {
                    "-".to_string()
                },
                r.offered.to_string(),
                r.rejected.to_string(),
                format!("{:.0}", r.throughput_per_s / 1e3),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                format!("{:.1}", r.p999_us),
                format!("{:.2}", r.burn_rate),
            ]
        })
        .collect();
    print_table(
        "SLO admission control: one tenant class of N logical members vs the knee of a \
         4-SSD x 2-QP Optane array, controller off/on (p99 budget 30us per 1ms window)",
        &[
            "Members",
            "Load",
            "Offered K/s",
            "Ctl",
            "Depth",
            "Offered",
            "Rejected",
            "KIOPS",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "Burn",
        ],
        &table,
    );
    println!(
        "\nCheck: member count never changes a row (class cost is O(classes): the 1M-tenant \
         cells match the 10k-tenant shape); from just below the knee onward the uncontrolled \
         burn rate blows past 1.0 while the controller sheds load and holds it at 0.0 — a \
         ceiling the conservative depth clamp also prices below the knee as surrendered \
         throughput."
    );
    if json_mode() {
        let body = JsonObject::new()
            .str("bench", "slo")
            .int("seed", SEED)
            .int("access_bytes", slo_exp::SLO_ACCESS_BYTES)
            .int("requests", slo_exp::SLO_REQUESTS)
            .num("knee_rate_per_s", slo_exp::SLO_KNEE_RATE_PER_S)
            .num("target_p99_us", slo_exp::SLO_TARGET_P99_US)
            .int("window_ns", slo_exp::SLO_WINDOW_NS)
            .raw(
                "rows",
                json_array(rows.iter().map(|r| {
                    JsonObject::new()
                        .int("members", u64::from(r.members))
                        .num("load", r.load)
                        .num("offered_rate_per_s", r.offered_rate_per_s)
                        .str("controlled", if r.controlled { "on" } else { "off" })
                        .int("depth_limit", r.depth_limit)
                        .int("offered", r.offered)
                        .int("admitted", r.admitted)
                        .int("deferrals", r.deferrals)
                        .int("rejected", r.rejected)
                        .int("completed", r.completed)
                        .num("throughput_per_s", r.throughput_per_s)
                        .num("p50_us", r.p50_us)
                        .num("p99_us", r.p99_us)
                        .num("p999_us", r.p999_us)
                        .num("burn_rate", r.burn_rate)
                        .build()
                })),
            )
            .build();
        emit_bench_json("slo", &body);
    }
}

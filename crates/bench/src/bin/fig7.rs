//! Regenerates Figure 7: BFS/CC end-to-end time, Target vs BaM, 1 vs 4 SSDs.
//!
//! The functional phase runs single-worker so the output is bit-identical
//! per seed (the CI drift gate diffs it). Pass `--json` to also write
//! `BENCH_fig7.json`.
use bam_bench::jsonout::{emit_bench_json, json_array, json_mode, JsonObject};
use bam_bench::{graph_exp, print_table, scale::GRAPH_SCALE};

const SEED: u64 = 7;

fn main() {
    assert!(
        graph_exp::verify_bfs_against_reference(GRAPH_SCALE, SEED),
        "functional BFS must match the host reference before reporting times"
    );
    let rows = graph_exp::figure7(GRAPH_SCALE, SEED, 1);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}_T/B_{}I", r.dataset, r.num_ssds),
                r.workload.label().to_string(),
                format!("{:.2}", r.target.total_s()),
                format!("{:.2}", r.bam.total_s()),
                format!("{:.2}", r.bam.compute_s),
                format!("{:.2}", r.bam.cache_api_s),
                format!("{:.2}", r.bam.storage_io_s),
                format!("{:.2}x", r.bam.speedup_vs(&r.target)),
            ]
        })
        .collect();
    print_table(
        "Figure 7: graph analytics, Target (T) vs BaM (B), 1 and 4 Intel Optane SSDs (seconds)",
        &[
            "Config",
            "Workload",
            "Target",
            "BaM",
            "BaM compute",
            "BaM cache",
            "BaM storage",
            "Speedup",
        ],
        &table,
    );
    if json_mode() {
        let body = JsonObject::new()
            .str("bench", "fig7")
            .int("seed", SEED)
            .raw(
                "rows",
                json_array(rows.iter().map(|r| {
                    JsonObject::new()
                        .str("dataset", r.dataset)
                        .str("workload", r.workload.label())
                        .int("num_ssds", r.num_ssds as u64)
                        .num("target_total_s", r.target.total_s())
                        .num("bam_total_s", r.bam.total_s())
                        .num("bam_compute_s", r.bam.compute_s)
                        .num("bam_cache_s", r.bam.cache_api_s)
                        .num("bam_storage_s", r.bam.storage_io_s)
                        .num("speedup", r.bam.speedup_vs(&r.target))
                        .build()
                })),
            )
            .build();
        emit_bench_json("fig7", &body);
    }
}

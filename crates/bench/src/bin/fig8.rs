//! Regenerates Figure 8: sources of performance improvement in BaM.
//!
//! The functional phase runs single-worker so the output is bit-identical
//! per seed, as Figure 7's is.
use bam_bench::scale::GRAPH_SCALE;
use bam_bench::{graph_exp, print_table};

fn main() {
    let rows = graph_exp::figure8(&["K", "U", "F", "M", "Uk"], GRAPH_SCALE, 8, 1);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                r.workload.label().to_string(),
                format!("{:?}", r.config),
                format!("{:.2}", r.breakdown.total_s()),
                format!("{:.1}x", r.io_amplification),
            ]
        })
        .collect();
    print_table(
        "Figure 8: no cache -> naive cache -> optimized (seconds, 4 Optane SSDs)",
        &[
            "Graph",
            "Workload",
            "Config",
            "Time (s)",
            "I/O amplification",
        ],
        &table,
    );
}

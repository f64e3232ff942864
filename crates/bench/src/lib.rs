//! # bam-bench — experiment harnesses for every table and figure
//!
//! Each experiment of the paper's evaluation is implemented as a library
//! function that returns structured rows; the `src/bin/*` binaries print
//! those rows in the same form the paper reports, and the unit tests
//! exercise the same functions at reduced scale. (Host cost — ns/op,
//! events/s, allocations — is measured by `benchmark/`, not here.)
//!
//! Methodology (see DESIGN.md): workloads execute *functionally* on the
//! simulated BaM stack at a reduced scale, and measured ratios (cache hit
//! rates, I/O per unit of work, amplification) are combined with the
//! calibrated analytical envelopes to produce full-scale numbers. Absolute
//! values are not expected to match the authors' testbed; the shapes — who
//! wins, by what factor, where the knees are — are.
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`misc_exp::table2`] | Table 2 (SSD technology comparison) |
//! | [`misc_exp::table3`] | Table 3 (graph datasets) |
//! | [`micro_exp::figure4`] | Fig 4 (512 B random IOPS scaling) |
//! | [`micro_exp::figure5`] | Fig 5 (BaM vs GDS bandwidth vs granularity) |
//! | [`micro_exp::figure6`] | Fig 6 (BaM vs ActivePointers) |
//! | [`graph_exp::figure7`] | Fig 7 (BFS/CC vs Target, 1 vs 4 SSDs) |
//! | [`graph_exp::figure8`] | Fig 8 (sources of improvement) |
//! | [`graph_exp::figure9`] | Fig 9 (SSD technology slowdown) |
//! | [`graph_exp::figure10`] | Fig 10 (cache-size sensitivity) |
//! | [`graph_exp::figure11`] | Fig 11 (queue-pair sensitivity, analytic + event-driven) |
//! | [`sim_exp::latency_cdf`] | Tail-latency CDFs per SSD technology (event-driven; extends Fig 9 / Table 2) |
//! | [`sim_exp::tenant_matrix`] | Multi-tenant interference/fairness sweep (event-driven; beyond the paper) |
//! | [`slo_exp::slo_sweep`] | Million-tenant class knee sweep: SLO admission control on/off (beyond the paper) |
//! | [`breakdown_exp::breakdown`] | Per-stage latency attribution + span traces (event-driven; beyond the paper) |
//! | [`timeline_exp::timeline_run`] | Tail root-cause attribution: windowed telemetry, per-resource blame, SLO burn rates (beyond the paper) |
//! | [`analytics_exp::figure12`] | Fig 12 (BaM vs RAPIDS, I/O amplification) |
//! | [`misc_exp::figure13`] | Fig 13 (register usage) |
//! | [`analytics_exp::figure14`] | Fig 14 (RAPIDS breakdown) |
//! | [`misc_exp::figure15`] | Fig 15 (UVM vs ZeroCopy) |
//! | [`misc_exp::vectoradd_eval`] | §5.4 (vectorAdd) |
//! | [`recovery_exp::recovery_sweep`] | Crash-recovery sweep (journal replay; beyond the paper) |

pub mod analytics_exp;
pub mod breakdown_exp;
pub mod drift;
pub mod graph_exp;
pub mod jsonout;
pub mod micro_exp;
pub mod misc_exp;
pub mod recovery_exp;
pub mod scale;
pub mod sim_exp;
pub mod slo_exp;
pub mod timeline_exp;

/// The value following flag `name` (`--workers`, `--trace-out`,
/// `--timeline-out`, …) in the process arguments, or `None` when the flag is
/// absent.
///
/// # Panics
///
/// Panics if the flag is the last argument.
pub fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip_while(|a| a != name);
    args.next().map(|_| {
        args.next()
            .unwrap_or_else(|| panic!("{name} needs a value"))
    })
}

/// The worker count following `--workers`, or 1 when absent — what the
/// event-driven binaries hand to [`bam_sim::Run::workers`]: up to one worker
/// accounts inline on the engine's own thread, more run that many accounting
/// shards. Output is byte-identical at every count.
///
/// # Panics
///
/// Panics if the value is not an integer.
pub fn workers_arg() -> usize {
    flag_value("--workers").map_or(1, |v| v.parse().expect("--workers must be an integer"))
}

/// Prints a table of rows as aligned columns on stdout (shared by the
/// figure binaries).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<width$}  ",
                c,
                width = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn print_table_does_not_panic() {
        super::print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}

//! Tail root-cause attribution: windowed telemetry, per-resource blame,
//! and SLO burn rates for the flagship multi-tenant run.
//!
//! Four SLO-carrying steady tenants co-run with the MMPP bursty antagonist
//! on the queue-pair-starved Optane array under *shared* queue pairs. The
//! report shows, window by window, when the tail happened; the blame
//! decomposition shows *which resource's queueing* produced it (service
//! vs. wait per stage, population and tail slice); the SLO table shows what
//! it cost each tenant in violations and error-budget burn. Pass `--json`
//! to also write `BENCH_timeline.json`, `--timeline-out <path>` to export
//! the full timeline document to a file, and `--workers N` to run the
//! engine's accounting on N shard threads (default 1 = inline; every output
//! is bit-identical at any worker count).

use bam_bench::jsonout::{emit_bench_json, json_mode};
use bam_bench::timeline_exp::{dominant_stage, timeline_body, timeline_run, TIMELINE_SEED};
use bam_bench::{flag_value, print_table, workers_arg};
use bam_sim::Stage;

fn main() {
    let workers = workers_arg();
    let (report, telemetry) = timeline_run(TIMELINE_SEED, workers);

    // Window-by-window: when did the tail happen, and was it queueing?
    let table: Vec<Vec<String>> = telemetry
        .series
        .iter()
        .map(|(start_ns, w)| {
            let dwell: u64 = w.stage_dwell_ns.iter().sum();
            let wait: u64 = w.stage_wait_ns.iter().sum();
            vec![
                format!("{:.1}", start_ns as f64 / 1e6),
                w.arrivals.to_string(),
                w.completions.to_string(),
                format!("{:.1}", w.latency.value_at_quantile(0.99) as f64 / 1e3),
                format!("{:.1}", w.depth_mean()),
                format!(
                    "{:.0}%",
                    if dwell == 0 {
                        0.0
                    } else {
                        wait as f64 / dwell as f64 * 100.0
                    }
                ),
            ]
        })
        .collect();
    print_table(
        "Timeline: 1 ms windows, 4 SLO'd steady tenants + MMPP antagonist, shared queue pairs \
         (Optane, 4 SSDs x 2 QPs)",
        &[
            "t (ms)",
            "Arrivals",
            "Done",
            "p99 (us)",
            "Depth",
            "Wait share",
        ],
        &table,
    );

    // Per-resource blame: population vs tail.
    let blame = &telemetry.blame;
    let blame_table: Vec<Vec<String>> = blame
        .overall
        .active_stages()
        .map(|stage| {
            let svc = blame.overall.service_ns(stage);
            let wait = blame.overall.wait_ns(stage);
            let tsvc = blame.tail.service_ns(stage);
            let twait = blame.tail.wait_ns(stage);
            let tail_total = blame.tail.total_ns().max(1);
            vec![
                stage.label().to_string(),
                format!("{:.2}", svc as f64 / 1e6),
                format!("{:.2}", wait as f64 / 1e6),
                format!("{:.2}", tsvc as f64 / 1e6),
                format!("{:.2}", twait as f64 / 1e6),
                format!("{:.1}%", (tsvc + twait) as f64 / tail_total as f64 * 100.0),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Blame decomposition: {} requests, tail = {} above p99 cut {:.1} us",
            blame.requests,
            blame.tail_requests,
            blame.p99_cut_ns as f64 / 1e3
        ),
        &[
            "Stage",
            "Service (ms)",
            "Wait (ms)",
            "Tail svc (ms)",
            "Tail wait (ms)",
            "Tail share",
        ],
        &blame_table,
    );

    // The slowest requests, with their dominant resource.
    let ex_table: Vec<Vec<String>> = blame
        .exemplars
        .iter()
        .map(|ex| {
            vec![
                ex.id.to_string(),
                format!("{:.2}", ex.arrive_ns as f64 / 1e6),
                format!("{:.1}", ex.latency_ns as f64 / 1e3),
                dominant_stage(ex).label().to_string(),
                ex.waterfall.len().to_string(),
            ]
        })
        .collect();
    print_table(
        "Slowest requests (exemplars with full span waterfalls)",
        &[
            "Request",
            "Arrive (ms)",
            "Latency (us)",
            "Dominant",
            "Stages",
        ],
        &ex_table,
    );

    // Per-tenant SLO outcomes.
    let slo_table: Vec<Vec<String>> = report
        .tenants
        .iter()
        .filter_map(|t| {
            t.slo.map(|s| {
                vec![
                    t.name.clone(),
                    format!("{:.0}", s.target_p99_us),
                    format!("{}/{}", s.violations, s.windows),
                    format!("{:.2}x", s.burn_rate),
                    format!("{:.1}", s.worst_window_p99_us),
                    format!("{:.1}", s.worst_window_start_ns as f64 / 1e6),
                ]
            })
        })
        .collect();
    print_table(
        "SLO burn: p99 target per 1 ms window, burn rate vs a 1% error budget",
        &[
            "Tenant",
            "Target (us)",
            "Violations",
            "Burn rate",
            "Worst p99 (us)",
            "Worst at (ms)",
        ],
        &slo_table,
    );

    let tail_wait_share = blame.tail.total_wait_ns() as f64 / blame.tail.total_ns().max(1) as f64;
    println!(
        "\nCheck: blame attributes 100% of every request's latency (service + wait tile each \
         span). The tail slice is {:.0}% wait — and the wait concentrates in the {} stage: the \
         antagonist's burst backlog in the shared queue pairs, not the media, produces the tail.",
        tail_wait_share * 100.0,
        Stage::QueuePair.label()
    );

    let body = timeline_body(TIMELINE_SEED, &report, &telemetry);
    if let Some(path) = flag_value("--timeline-out") {
        std::fs::write(&path, format!("{body}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if json_mode() {
        emit_bench_json("timeline", &body);
    }
}

//! The metric tables — the names every later performance or simplicity
//! claim is made with — and the three renderings of a run: lines for a
//! person, the results document for `compare`, and the one-line result the
//! driver reads.

use crate::json::Json;
use crate::measure::{nproc, Summary};
use crate::workload::{Outcome, StackCounts, WORKLOADS};
use Better::{Higher, Lower};

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: `(name, unit, direction, bound)`. The bound is the
/// share of the parent's median by which the metric may get worse before a
/// change counts as a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("ops_per_s", "ops/s", Better::Higher, 0.25),
    ("cpu_ns_per_op", "ns", Better::Lower, 0.25),
    ("peak_heap_bytes", "bytes", Better::Lower, 0.06),
    ("allocs_per_kop", "allocs/kop", Better::Lower, 0.12),
];

/// Per-layer metrics measured by the layer rows (`layers::measure`), the
/// same on every workload.
pub const LAYER_ROWS: [(&str, &str, Better); 54] = [
    ("bench.timer_ns", "ns", Lower),
    ("mem.region.copy_ns_per_kib", "ns", Lower),
    ("nvme.controller.process_ns_per_cmd", "ns", Lower),
    ("gpu.exec.launch_ns_per_warp", "ns", Lower),
    ("core.queue.submit_wait_ns_t1", "ns", Lower),
    ("core.queue.submit_wait_ns_tN", "ns", Lower),
    ("core.queue.parallel_efficiency", "ratio", Higher),
    ("core.queue.submissions_per_doorbell_tN", "ratio", Higher),
    ("core.iostack.read_line_ns", "ns", Lower),
    ("core.iostack.write_line_ns", "ns", Lower),
    ("core.cache.acquire_hit_ns_t1", "ns", Lower),
    ("core.cache.acquire_hit_ns_tN", "ns", Lower),
    ("core.cache.hit_parallel_efficiency", "ratio", Higher),
    ("core.cache.miss_evict_ns", "ns", Lower),
    ("core.cache.miss_evict_dirty_ns", "ns", Lower),
    ("core.cache.flush_ns_per_dirty_line", "ns", Lower),
    ("core.journal.append_ns", "ns", Lower),
    ("core.journal.bytes_per_user_byte", "ratio", Lower),
    ("core.journal.decode_ns_per_record", "ns", Lower),
    ("core.journal.recover_ns_per_record", "ns", Lower),
    ("core.array.read_hit_ns_t1", "ns", Lower),
    ("core.array.read_hit_ns_tN", "ns", Lower),
    ("core.array.read_run64_hit_ns_per_elem", "ns", Lower),
    ("core.array.gather_warp_ns_per_lane", "ns", Lower),
    ("core.array.write_hit_ns", "ns", Lower),
    ("core.array.read_miss_ns", "ns", Lower),
    ("core.array.read_miss_p50_ns", "ns", Lower),
    ("core.array.read_miss_p99_ns", "ns", Lower),
    ("core.array.read_miss_samples", "count", Higher),
    ("core.system.new_ms", "ms", Lower),
    ("core.system.preload_ns_per_kib", "ns", Lower),
    ("workloads.bfs_edges_per_s", "edges/s", Higher),
    ("workloads.cc_edges_per_s", "edges/s", Higher),
    ("workloads.bfs_reference_edges_per_s", "edges/s", Higher),
    ("sim.tenant.generate_ns_per_req", "ns", Lower),
    ("sim.engine.events_per_s_inline", "events/s", Higher),
    ("sim.engine.events_per_s_w1", "events/s", Higher),
    ("sim.engine.events_per_s_w2", "events/s", Higher),
    ("sim.engine.events_per_s_w4", "events/s", Higher),
    ("sim.engine.parallel_efficiency_w2", "ratio", Higher),
    ("sim.engine.parallel_efficiency_w4", "ratio", Higher),
    ("sim.engine.ns_per_event_single", "ns", Lower),
    ("sim.engine.traced_cost_ratio", "ratio", Lower),
    ("sim.engine.observed_cost_ratio", "ratio", Lower),
    ("sim.engine.bytes_per_request", "bytes", Lower),
    ("sim.engine.allocs_per_request", "count", Lower),
    ("sim.report.prom_export_ns", "ns", Lower),
    ("obs.histo.record_ns", "ns", Lower),
    ("obs.histo.merge_ns", "ns", Lower),
    ("obs.histo.quantile_ns", "ns", Lower),
    ("obs.span.record_ns", "ns", Lower),
    ("obs.export.chrome_trace_ns_per_span", "ns", Lower),
    // Derived from three of the rows above (`layers::residual`).
    ("core.array.read_miss_residual_ns", "ns", Lower),
    ("core.array.read_miss_explained", "ratio", Higher),
];

/// Per-layer metrics read from public counters over the timed phase of the
/// workload being run. Zero where a counter does not apply to the workload
/// (the functional-stack counters on the sim workloads and the reverse).
pub const WORKLOAD_COUNTS: [(&str, &str, Better); 14] = [
    ("io_amplification", "ratio", Lower),
    ("nvme.commands_per_op", "ratio", Lower),
    ("core.queue.submissions_per_doorbell", "ratio", Higher),
    ("core.iostack.reads_per_op", "ratio", Lower),
    ("core.iostack.writes_per_op", "ratio", Lower),
    ("core.iostack.retries", "count", Lower),
    ("core.cache.hit_ratio", "ratio", Higher),
    ("core.cache.evictions_per_op", "ratio", Lower),
    ("core.cache.writebacks_per_op", "ratio", Lower),
    ("core.journal.appends_per_op", "ratio", Lower),
    ("core.journal.bytes_per_op", "bytes", Lower),
    ("core.array.coalesced_ratio", "ratio", Higher),
    ("sim.engine.events_per_request", "ratio", Lower),
    ("bench.trace_overhead_ratio", "ratio", Lower),
];

/// The workload-count values of one outcome, in [`WORKLOAD_COUNTS`] order:
/// each the median over the timed repetitions of that repetition's ratio.
pub fn workload_counts(o: &Outcome) -> Vec<f64> {
    fn ratio(a: u64, b: u64) -> f64 {
        if b == 0 {
            0.0
        } else {
            a as f64 / b as f64
        }
    }
    let stack = |f: fn(&StackCounts, u64) -> f64| {
        o.over_reps(|r| r.stack.map_or(0.0, |s| f(&s, r.ops)))
            .median
    };
    let values = [
        (
            "io_amplification",
            stack(|s, _| {
                ratio(
                    s.metrics.bytes_read + s.metrics.bytes_written,
                    s.metrics.bytes_requested,
                )
            }),
        ),
        (
            "nvme.commands_per_op",
            stack(|s, ops| ratio(s.ssd_commands, ops)),
        ),
        (
            "core.queue.submissions_per_doorbell",
            stack(|s, _| ratio(s.submissions, s.doorbells)),
        ),
        (
            "core.iostack.reads_per_op",
            stack(|s, ops| ratio(s.metrics.read_requests, ops)),
        ),
        (
            "core.iostack.writes_per_op",
            stack(|s, ops| ratio(s.metrics.write_requests, ops)),
        ),
        (
            "core.iostack.retries",
            stack(|s, _| s.metrics.storage_retries as f64),
        ),
        (
            "core.cache.hit_ratio",
            stack(|s, _| {
                ratio(
                    s.metrics.cache_hits,
                    s.metrics.cache_hits + s.metrics.cache_misses,
                )
            }),
        ),
        (
            "core.cache.evictions_per_op",
            stack(|s, ops| ratio(s.metrics.cache_evictions, ops)),
        ),
        (
            "core.cache.writebacks_per_op",
            stack(|s, ops| ratio(s.metrics.cache_writebacks, ops)),
        ),
        (
            "core.journal.appends_per_op",
            stack(|s, ops| ratio(s.metrics.journal_appends, ops)),
        ),
        (
            "core.journal.bytes_per_op",
            stack(|s, ops| ratio(s.metrics.journal_bytes, ops)),
        ),
        // Share of element accesses served without a cache probe of their
        // own (warp coalescing plus line-reference reuse).
        (
            "core.array.coalesced_ratio",
            stack(|s, _| 1.0 - ratio(s.metrics.probe_attempts.min(s.accesses), s.accesses)),
        ),
        (
            "sim.engine.events_per_request",
            o.over_reps(|r| ratio(r.ops, r.sim_requests)).median,
        ),
        (
            "bench.trace_overhead_ratio",
            o.trace_overhead_ratio.unwrap_or(0.0),
        ),
    ];
    assert!(
        values
            .iter()
            .map(|v| v.0)
            .eq(WORKLOAD_COUNTS.iter().map(|c| c.0)),
        "counts come in table order"
    );
    values.iter().map(|v| v.1).collect()
}

/// The end-to-end summaries of one outcome, in [`END_TO_END`] order.
pub fn end_to_end(o: &Outcome) -> [Summary; 5] {
    let peak = o.peak_heap_bytes as f64;
    [
        o.setup_s,
        o.ops_per_s(),
        o.cpu_ns_per_op(),
        Summary::of(&[peak]),
        o.allocs_per_kop(),
    ]
}

fn summary_json(unit: &str, s: &Summary) -> Json {
    Json::obj([
        ("unit", Json::str(unit)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("n", Json::Num(s.n as f64)),
    ])
}

fn value_json(unit: &str, value: f64) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// `name: {value, unit}` pairs of a per-layer table and its values.
fn values_json<'a>(
    table: &'a [(&'static str, &'static str, Better)],
    values: &'a [f64],
) -> impl Iterator<Item = (&'static str, Json)> + 'a {
    table
        .iter()
        .zip(values)
        .map(|((name, unit, _), v)| (*name, value_json(unit, *v)))
}

/// Prints every metric of one outcome by name with its unit.
pub fn print_outcome(o: &Outcome, counts: &[f64]) {
    let fail_ratio = o.failed as f64 / o.attempted as f64;
    println!(
        "== {}: {} repetitions of {} ops; {} attempted, {} failed (fail_ratio {fail_ratio})",
        o.name,
        o.reps.len(),
        o.reps[0].ops,
        o.attempted,
        o.failed,
    );
    for ((name, unit, _, _), s) in END_TO_END.iter().zip(end_to_end(o)) {
        println!(
            "{name:<44} {:>16.4} {unit:<10} q1 {:.4} q3 {:.4} min {:.4} max {:.4} n {}",
            s.median, s.q1, s.q3, s.min, s.max, s.n
        );
    }
    for ((name, unit, _), v) in WORKLOAD_COUNTS.iter().zip(counts) {
        println!("{name:<44} {v:>16.4} {unit}");
    }
    if let Some(d) = o.sim_digest() {
        println!("sim_digest  {d}");
    }
}

/// Prints every layer row by name with its unit.
pub fn print_layers(rows: &[f64]) {
    println!("== layer rows");
    for ((name, unit, _), value) in LAYER_ROWS.iter().zip(rows) {
        println!("{name:<44} {value:>16.4} {unit}");
    }
}

/// The per-workload part of the results document.
pub fn outcome_json(o: &Outcome, counts: &[f64]) -> Json {
    let why = WORKLOADS.iter().find(|w| w.0 == o.name).map_or("", |w| w.1);
    Json::obj([
        ("why", Json::str(why)),
        ("sizes", o.sizes.clone()),
        ("repetitions", Json::Num(o.reps.len() as f64)),
        ("ops_per_repetition", Json::Num(o.reps[0].ops as f64)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        (
            "fail_ratio",
            Json::Num(o.failed as f64 / o.attempted as f64),
        ),
        ("sim_digest", o.sim_digest().map_or(Json::Null, Json::str)),
        (
            "end_to_end",
            Json::obj(
                END_TO_END
                    .iter()
                    .zip(end_to_end(o))
                    .map(|((name, unit, _, _), s)| (*name, summary_json(unit, &s))),
            ),
        ),
        ("counts", Json::obj(values_json(&WORKLOAD_COUNTS, counts))),
    ])
}

/// The results document `--out` writes and `compare` reads.
pub fn results_json(
    seed: u64,
    seconds: f64,
    workloads: Vec<(&'static str, Json)>,
    layers: Option<&[f64]>,
) -> Json {
    let mut doc = vec![
        ("schema".to_string(), Json::str("bam-benchmark/1")),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("machine".to_string(), machine()),
        ("workloads".to_string(), Json::obj(workloads)),
    ];
    if let Some(rows) = layers {
        let rows = Json::obj(values_json(&LAYER_ROWS, rows));
        doc.push(("layers".to_string(), rows));
    }
    Json::Obj(doc)
}

/// What the numbers were measured on.
fn machine() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("rustc", Json::str(env!("BAM_BENCHMARK_RUSTC"))),
    ])
}

/// The driver's result line: `--trace 0` carries every end-to-end metric,
/// `--trace 1` every per-layer metric.
pub fn driver_line(o: &Outcome, counts: &[f64], layers: Option<&[f64]>) -> String {
    let metrics: Vec<(&str, Json)> = match layers {
        None => END_TO_END
            .iter()
            .zip(end_to_end(o))
            .map(|((name, unit, _, _), s)| (*name, value_json(unit, s.median)))
            .collect(),
        Some(rows) => values_json(&LAYER_ROWS, rows)
            .chain(values_json(&WORKLOAD_COUNTS, counts))
            .collect(),
    };
    Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is hand-written to the driver's contract; this keeps
    /// its names, units, directions and bounds equal to the tables above.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key} is an array, got {other:?}"),
        };
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

        let e2e: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b, bound)| (n.to_string(), u.to_string(), b.label().to_string(), *bound))
            .collect();
        assert_eq!(e2e, want);

        let per_layer: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<_> = LAYER_ROWS
            .iter()
            .chain(&WORKLOAD_COUNTS)
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.label().to_string()))
            .collect();
        assert_eq!(per_layer, want);

        let workloads: Vec<_> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<_> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }
}

//! What a workload is, and the loop that measures one.
//!
//! A workload is built from a seed (that is its set-up: system, data, index
//! streams, tenant specs) and then repeats a fixed amount of work. Each
//! repetition times its own hot region and checks its own outputs outside
//! that region, so a wrong answer can never look like a fast one.

use std::time::Instant;

use bam_core::{BamSystem, MetricsSnapshot};

use crate::alloc;
use crate::json::Json;
use crate::measure::{time_ns, Phase, Summary};
use crate::trace::{Ctx, Tracer};
use crate::{functional, simload};

/// Name and one-line reason of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "hot_reads",
        "1 client, random BamArray::read on a warmed array half the cache: all hits, so core.array and the core.cache probe path do all the work and queue, nvme and journal none",
    ),
    (
        "miss_stream",
        "1 client, random reads on an array 128x the cache: every op misses and crosses cache evict, iostack, queue, the nvme controller thread and the mem copy",
    ),
    (
        "write_flush",
        "1 client, 70% writes with the journal on and a flush every 4096 ops: dirty evictions, write-back intent/commit, journal append and growth",
    ),
    (
        "graph_bfs_cc",
        "BFS from two sources and CC on a uniform random graph with the cache at 25% of the edge list, nproc GPU workers: the mixed case where no layer dominates",
    ),
    (
        "sim_tenants",
        "8-tenant discrete-event run with telemetry off: the sim.engine spine, shards and sim.tenant arrival generation, and the O(requests) memory",
    ),
    (
        "sim_observed",
        "the same scenario with SLOs, full telemetry and the Prometheus export: prices obs; an obs change must move this and not sim_tenants",
    ),
];

/// Fewest set-ups timed per run; `setup_s` is the median of all of them.
pub const MIN_SETUPS: usize = 5;
/// Set-ups repeat past [`MIN_SETUPS`] until this share of `--seconds` is
/// spent or [`MAX_SETUPS`] are done: a set-up of a few milliseconds needs
/// many samples for a steady median, a slow one cannot afford them.
const SETUP_SHARE: f64 = 0.1;
const MAX_SETUPS: usize = 200;
/// Fewest timed repetitions, however short `--seconds` is.
pub const MIN_REPS: usize = 5;

/// Public counters of the functional stack over one timed region.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackCounts {
    pub metrics: MetricsSnapshot,
    pub ssd_commands: u64,
    pub submissions: u64,
    pub doorbells: u64,
    /// Element accesses requested (`bytes_requested` ÷ element size).
    pub accesses: u64,
}

/// An open counting window over one system's public counters.
pub struct StackWindow<'a> {
    sys: &'a BamSystem,
    elem_bytes: u64,
    /// The device and queue counters have no reset: their starting values.
    start: [u64; 3],
}

fn device_counters(sys: &BamSystem) -> [u64; 3] {
    [
        sys.ssd_stats().iter().map(|d| d.total_commands()).sum(),
        sys.total_submissions(),
        sys.total_doorbell_writes(),
    ]
}

impl StackCounts {
    /// Opens a window: zeroes the software metrics (`reset_metrics`) and
    /// notes the counters that cannot be reset. `elem_bytes` turns
    /// `bytes_requested` into element accesses.
    pub fn begin(sys: &BamSystem, elem_bytes: u64) -> StackWindow<'_> {
        sys.reset_metrics();
        StackWindow {
            sys,
            elem_bytes,
            start: device_counters(sys),
        }
    }
}

impl StackWindow<'_> {
    /// Closes the window and returns what was counted inside it.
    pub fn end(self) -> StackCounts {
        let metrics = self.sys.metrics();
        let [ssd_commands, submissions, doorbells] = device_counters(self.sys);
        StackCounts {
            metrics,
            ssd_commands: ssd_commands - self.start[0],
            submissions: submissions - self.start[1],
            doorbells: doorbells - self.start[2],
            accesses: metrics.bytes_requested / self.elem_bytes,
        }
    }
}

/// One repetition's outcome.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host cost of the timed region.
    pub phase: Phase,
    /// Ops done in the timed region (the op is stated per workload).
    pub ops: u64,
    /// Ops plus output checks attempted.
    pub attempted: u64,
    /// Ops that returned `Err` plus output checks that did not match.
    pub failed: u64,
    /// Functional-stack counter deltas over the timed region.
    pub stack: Option<StackCounts>,
    /// Simulated requests completed (sim workloads).
    pub sim_requests: u64,
    /// Simulated statistics that must not move (sim workloads).
    pub sim_digest: Option<String>,
}

/// A built workload: repeats a fixed amount of work on demand.
pub trait Workload {
    /// Runs one repetition; `cx` is where its spans open from.
    fn rep(&mut self, cx: Ctx<'_>) -> Rep;
    /// The sizes actually used, for the results file.
    fn sizes(&self) -> Json;
}

/// Builds workload `name` from `seed`. `scale_div` divides the op counts
/// (1 = the committed sizes; the self-tests use 100).
///
/// # Panics
///
/// Panics on a name not in [`WORKLOADS`]; the CLI checks names first.
pub fn build(name: &str, seed: u64, scale_div: u64, cx: Ctx<'_>) -> Box<dyn Workload> {
    match name {
        "hot_reads" => Box::new(functional::Reads::hot(seed, scale_div, cx)),
        "miss_stream" => Box::new(functional::Reads::miss(seed, scale_div, cx)),
        "write_flush" => Box::new(functional::WriteFlush::new(seed, scale_div, cx)),
        "graph_bfs_cc" => Box::new(functional::Graph::new(seed, scale_div, cx)),
        "sim_tenants" => Box::new(simload::Tenants::new(seed, scale_div, false, cx)),
        "sim_observed" => Box::new(simload::Tenants::new(seed, scale_div, true, cx)),
        other => panic!("unknown workload {other}"),
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub name: &'static str,
    pub sizes: Json,
    pub setup_s: Summary,
    pub reps: Vec<Rep>,
    pub peak_heap_bytes: u64,
    /// Totals over warm-up and timed repetitions.
    pub attempted: u64,
    pub failed: u64,
    /// Traced ÷ untraced median wall time, when a traced pass ran.
    pub trace_overhead_ratio: Option<f64>,
    /// The traced pass's spans as a Chrome trace-event document.
    pub trace: Option<Json>,
}

impl Outcome {
    /// Summary over repetitions of a per-repetition value.
    pub fn over_reps(&self, f: impl Fn(&Rep) -> f64) -> Summary {
        Summary::of(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    pub fn ops_per_s(&self) -> Summary {
        self.over_reps(|r| r.ops as f64 / (r.phase.wall_ns as f64 / 1e9))
    }

    pub fn cpu_ns_per_op(&self) -> Summary {
        self.over_reps(|r| r.phase.cpu_ns as f64 / r.ops as f64)
    }

    pub fn allocs_per_kop(&self) -> Summary {
        self.over_reps(|r| r.phase.allocs as f64 * 1000.0 / r.ops as f64)
    }

    pub fn sim_digest(&self) -> Option<&str> {
        self.reps[0].sim_digest.as_deref()
    }
}

/// Runs workload `name`: at least [`MIN_SETUPS`] timed set-ups, one untimed
/// warm-up repetition, then timed repetitions until `seconds` have passed (at
/// least [`MIN_REPS`]). With `traced`, a second pass builds the workload
/// again under the span recorder and alternates untraced and traced
/// repetitions.
pub fn run(name: &'static str, seed: u64, seconds: f64, scale_div: u64, traced: bool) -> Outcome {
    let off = Tracer::off();
    alloc::reset_peak();
    let mut setup_s = Vec::new();
    let mut built = None;
    let started = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < seconds * SETUP_SHARE)
    {
        // The previous build is dropped before the next is timed, so peak
        // heap is that of one system, not of several.
        drop(built.take());
        let (w, ns) = time_ns(|| build(name, seed, scale_div, off.root()));
        setup_s.push(ns as f64 / 1e9);
        built = Some(w);
    }
    let mut w = built.expect("MIN_SETUPS > 0");

    let warm = w.rep(off.root());
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let mut reps = Vec::new();
    let started = Instant::now();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let rep = w.rep(off.root());
        attempted += rep.attempted;
        failed += rep.failed;
        reps.push(rep);
    }
    let peak_heap_bytes = alloc::peak();
    let sizes = w.sizes();

    let (mut trace_overhead_ratio, mut trace) = (None, None);
    if traced {
        // A fresh build under the recorder, so that set-up calls get spans
        // too, and a traced warm-up, so that what only a first repetition
        // does (host references, the one-worker sim run) gets them as well.
        drop(w);
        let tracer = Tracer::on();
        let root = tracer.root();
        let mut w = root.span("setup", None, |cx| build(name, seed, scale_div, cx));
        let mut tally = |rep: Rep| {
            attempted += rep.attempted;
            failed += rep.failed;
            rep.phase.wall_ns as f64
        };
        tally(root.span("warm-up", None, |cx| w.rep(cx)));
        let (mut plain, mut under) = (Vec::new(), Vec::new());
        for pair in 1..=TRACED_PAIRS {
            plain.push(tally(w.rep(off.root())));
            let cx = root.request(pair as u64);
            under.push(tally(cx.span("repetition", None, |cx| w.rep(cx))));
        }
        trace_overhead_ratio = Some(Summary::of(&under).median / Summary::of(&plain).median);
        trace = Some(tracer.chrome_trace(name));
    }

    Outcome {
        name,
        sizes,
        setup_s: Summary::of(&setup_s),
        reps,
        peak_heap_bytes,
        attempted,
        failed,
        trace_overhead_ratio,
        trace,
    }
}

/// Untraced/traced repetition pairs of the traced pass.
const TRACED_PAIRS: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_completes_at_a_hundredth_of_the_scale_without_failures() {
        for (name, _) in WORKLOADS {
            let o = run(name, 3, 0.0, 100, false);
            assert_eq!(o.failed, 0, "{name}");
            assert_eq!(o.reps.len(), MIN_REPS, "{name}");
            assert!(
                o.reps.iter().all(|r| r.ops > 0 && r.phase.wall_ns > 0),
                "{name}"
            );
            assert!(
                o.attempted > o.reps.iter().map(|r| r.ops).sum::<u64>(),
                "{name}"
            );
            assert_eq!(o.setup_s.n, MIN_SETUPS, "{name}");
            assert!(o.peak_heap_bytes > 0, "{name}");
            assert_eq!(o.sim_digest().is_some(), name.starts_with("sim_"), "{name}");
        }
    }

    #[test]
    fn same_seed_same_counts_and_digest_other_seed_other_inputs() {
        let (a, b, c) = (
            run("sim_tenants", 5, 0.0, 100, false),
            run("sim_tenants", 5, 0.0, 100, false),
            run("sim_tenants", 6, 0.0, 100, false),
        );
        assert_eq!(a.sim_digest(), b.sim_digest());
        assert_ne!(a.sim_digest(), c.sim_digest());
        let misses = |seed| {
            let o = run("miss_stream", seed, 0.0, 100, false);
            o.reps[0].stack.expect("functional").metrics.cache_misses
        };
        assert_eq!(misses(5), misses(5));
    }

    #[test]
    fn a_flipped_element_makes_the_checksum_check_fail() {
        let off = Tracer::off();
        let mut reads = functional::Reads::hot(3, 100, off.root());
        assert_eq!(reads.rep(off.root()).failed, 0);
        reads.corrupt_one_element();
        assert!(reads.rep(off.root()).failed >= 1);
    }

    #[test]
    fn a_traced_pass_records_the_calls_into_each_layer() {
        let o = run("write_flush", 3, 0.0, 100, true);
        assert_eq!(o.failed, 0);
        assert!(o.trace_overhead_ratio.expect("traced pass ran") > 0.0);
        let text = o.trace.expect("trace was produced").render();
        let doc = Json::parse(&text).expect("trace is valid JSON");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents is an array");
        };
        let named = |n: &str| {
            events
                .iter()
                .filter(|e| e.get("name") == Some(&Json::str(n)))
                .count()
        };
        // One build in set-up plus one per traced repetition and warm-up.
        assert_eq!(named("BamSystem::new"), 2 + TRACED_PAIRS);
        assert_eq!(named("warm-up"), 1);
        assert_eq!(named("repetition"), TRACED_PAIRS);
        assert!(named("BamSystem::flush") >= TRACED_PAIRS);
        assert!(named("BamArray::read/write x1024") >= TRACED_PAIRS);
        let flush = events
            .iter()
            .find(|e| e.get("name") == Some(&Json::str("BamSystem::flush")))
            .expect("a flush span");
        let args = flush.get("args").expect("spans carry args");
        assert!(
            args.get("parent").and_then(Json::as_f64).is_some(),
            "flush has a parent"
        );
        assert!(
            args.get("cache_writebacks").is_some(),
            "counter deltas are recorded"
        );
    }
}

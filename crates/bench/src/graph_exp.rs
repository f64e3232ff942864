//! Graph-analytics experiments: Figures 7, 8, 9, 10, and 11.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bam_baselines::{AccessDemand, BamPerformanceModel, TargetSystem};
use bam_core::{BamArray, BamError, BamSystem, MetricsSnapshot};
use bam_gpu_sim::{GpuExecutor, GpuSpec};
use bam_nvme_sim::SsdSpec;
use bam_timing::{ExecutionBreakdown, SsdArrayModel};
use bam_workloads::graph::{
    bfs_bam, bfs_reference, cc_bam, upload_edge_list, CsrGraph, DatasetDescriptor,
};

use crate::scale::{experiment_config, PAPER_CACHE_FRACTION, WORKERS};

/// Cache-line size of the paper's graph experiments (full-scale model).
const FULL_SCALE_LINE: u64 = 4096;
/// Concurrent GPU threads assumed when converting counts to time.
const PARALLELISM: u64 = 1 << 17;

/// Which graph workload an experiment row refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphWorkload {
    /// Breadth-first search.
    Bfs,
    /// Connected components.
    Cc,
}

impl GraphWorkload {
    /// Short label used in printed tables.
    pub fn label(self) -> &'static str {
        match self {
            GraphWorkload::Bfs => "BFS",
            GraphWorkload::Cc => "CC",
        }
    }
}

/// The access-path configuration of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessConfig {
    /// Every element access issues a storage request (no software cache).
    NoCache,
    /// The cache absorbs redundant requests, but accesses neither coalesce
    /// nor reuse line references (one probe per element).
    NaiveCache,
    /// Full BaM: coalescing plus cache-line reference reuse.
    Optimized,
}

/// A functional measurement of one (dataset, workload) pair at reduced scale.
#[derive(Debug, Clone)]
pub struct GraphMeasurement {
    /// Dataset descriptor (original Table 3 sizes).
    pub dataset: DatasetDescriptor,
    /// Workload measured.
    pub workload: GraphWorkload,
    /// Stored (directed) edges of the scaled instance.
    pub scaled_edges: u64,
    /// Neighbour-list entries read during the run.
    pub edges_traversed: u64,
    /// BaM software metrics of the scaled functional run.
    pub metrics: MetricsSnapshot,
    /// Cache-line size used by the functional run.
    pub run_line_bytes: u64,
}

impl GraphMeasurement {
    /// Scale factor from the functional instance to the original dataset.
    fn scale_factor(&self) -> f64 {
        self.dataset.original_edges as f64 / self.scaled_edges.max(1) as f64
    }

    /// Edges the full-scale run would traverse.
    fn full_edges_traversed(&self) -> u64 {
        (self.edges_traversed as f64 * self.scale_factor()) as u64
    }

    /// Rescales the measured counts to the original dataset size and to the
    /// full-scale cache-line granularity: byte counts scale with the dataset;
    /// request/probe counts additionally shrink by the line-size ratio
    /// (larger lines mean fewer, larger requests for the same bytes).
    pub fn full_scale_metrics(&self) -> MetricsSnapshot {
        let f = self.scale_factor();
        let line_ratio = self.run_line_bytes as f64 / FULL_SCALE_LINE as f64;
        let m = &self.metrics;
        MetricsSnapshot {
            cache_hits: (m.cache_hits as f64 * f * line_ratio) as u64,
            cache_misses: (m.cache_misses as f64 * f * line_ratio) as u64,
            cache_evictions: (m.cache_evictions as f64 * f * line_ratio) as u64,
            cache_writebacks: (m.cache_writebacks as f64 * f * line_ratio) as u64,
            probe_attempts: (m.probe_attempts as f64 * f * line_ratio) as u64,
            coalesced_accesses: (m.coalesced_accesses as f64 * f) as u64,
            reused_references: (m.reused_references as f64 * f) as u64,
            read_requests: (m.bytes_read as f64 * f / FULL_SCALE_LINE as f64) as u64,
            write_requests: (m.bytes_written as f64 * f / FULL_SCALE_LINE as f64) as u64,
            bytes_read: (m.bytes_read as f64 * f) as u64,
            bytes_written: (m.bytes_written as f64 * f) as u64,
            bytes_requested: (m.bytes_requested as f64 * f) as u64,
            // Retry and journal traffic scale like their request counts.
            storage_retries: (m.storage_retries as f64 * f * line_ratio) as u64,
            journal_appends: (m.journal_appends as f64 * f * line_ratio) as u64,
            journal_bytes: (m.journal_bytes as f64 * f) as u64,
        }
    }

    /// The demand this run places on a DRAM-only system at full scale.
    pub fn full_scale_demand(&self) -> AccessDemand {
        AccessDemand {
            dataset_bytes: (self.dataset.original_size_gb * 1e9) as u64,
            bytes_touched: self.full_edges_traversed() * 4,
            on_demand_accesses: self.full_edges_traversed() * 4 / FULL_SCALE_LINE,
            access_bytes: FULL_SCALE_LINE,
            bytes_written: 0,
            compute_ops: self.full_edges_traversed(),
            phases: 1,
            parallelism: PARALLELISM,
        }
    }
}

/// BFS with one probe per element (no coalescing, no reference reuse) — the
/// "naive"/"no cache" access path of Figure 8.
fn bfs_per_element(
    offsets: &[u64],
    edges: &BamArray<u32>,
    source: u32,
    exec: &GpuExecutor,
) -> Result<(u64, u32), BamError> {
    let n = offsets.len() - 1;
    let distances: Vec<std::sync::atomic::AtomicU32> = (0..n)
        .map(|_| std::sync::atomic::AtomicU32::new(u32::MAX))
        .collect();
    distances[source as usize].store(0, Ordering::Relaxed);
    let edges_traversed = AtomicU64::new(0);
    let first_error: Mutex<Option<BamError>> = Mutex::new(None);
    let mut frontier = vec![source];
    let mut level = 0u32;
    while !frontier.is_empty() {
        let next = Mutex::new(Vec::new());
        let fr = &frontier;
        exec.launch(frontier.len(), |warp| {
            let mut local = Vec::new();
            for (_lane, tid) in warp.lanes() {
                let u = fr[tid];
                for e in offsets[u as usize]..offsets[u as usize + 1] {
                    match edges.read(e) {
                        Ok(v) => {
                            edges_traversed.fetch_add(1, Ordering::Relaxed);
                            if distances[v as usize]
                                .compare_exchange(
                                    u32::MAX,
                                    level + 1,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_ok()
                            {
                                local.push(v);
                            }
                        }
                        Err(err) => {
                            first_error.lock().expect("poisoned").get_or_insert(err);
                        }
                    }
                }
            }
            if !local.is_empty() {
                next.lock().expect("poisoned").append(&mut local);
            }
        });
        if let Some(e) = first_error.lock().expect("poisoned").take() {
            return Err(e);
        }
        frontier = next.into_inner().expect("poisoned");
        level += 1;
    }
    Ok((edges_traversed.into_inner(), level))
}

/// Picks a BFS source the way the paper does (a node with more than two
/// neighbours), deterministically.
fn pick_source(graph: &CsrGraph) -> u32 {
    graph
        .nodes_with_degree_at_least(3)
        .first()
        .copied()
        .unwrap_or(0)
}

/// Runs one (dataset, workload) pair functionally at `scale` using the given
/// access path, with the software cache sized to `cache_fraction` of the
/// generated edge list (the paper's 8 GB cache against ~30 GB datasets is
/// [`PAPER_CACHE_FRACTION`]).
///
/// The functional phase always runs against simulated Optane devices: the
/// cache/queue behaviour it measures does not depend on the device's speed,
/// which only enters through the analytic models applied afterwards.
///
/// `workers` is the executor width ([`WORKERS`] unless the caller needs
/// reproducible counts): one worker makes the functional counts fully
/// deterministic (no cross-thread interleaving in the cache), which the
/// simulation-driven harnesses require for reproducible output at a fixed
/// seed.
#[allow(clippy::too_many_arguments)]
pub fn measure_graph(
    dataset: &DatasetDescriptor,
    workload: GraphWorkload,
    cache_fraction: f64,
    scale: f64,
    access: AccessConfig,
    seed: u64,
    workers: usize,
) -> GraphMeasurement {
    let graph = dataset.generate(scale, seed);
    let mut config = experiment_config(
        SsdSpec::intel_optane_p5800x(),
        4,
        graph.edge_list_bytes(),
        cache_fraction,
        8,
    );
    if access == AccessConfig::NoCache {
        config.use_cache = false;
    }
    if access != AccessConfig::Optimized {
        config.warp_coalescing = false;
    }
    let run_line_bytes = config.cache_line_bytes;
    let system = BamSystem::new(config).expect("system");
    let edges = upload_edge_list(&system, &graph).expect("upload");
    system.reset_metrics();
    let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), workers);
    let source = pick_source(&graph);
    let edges_traversed = match (workload, access) {
        (GraphWorkload::Bfs, AccessConfig::Optimized) => {
            bfs_bam(&graph.offsets, &edges, source, &exec)
                .expect("bfs")
                .edges_traversed
        }
        (GraphWorkload::Bfs, _) => {
            bfs_per_element(&graph.offsets, &edges, source, &exec)
                .expect("bfs")
                .0
        }
        (GraphWorkload::Cc, _) => {
            // CC always uses the run-based kernel; the naive/no-cache variants
            // differ only through the system configuration.
            cc_bam(&graph.offsets, &edges, &exec)
                .expect("cc")
                .edges_traversed
        }
    };
    GraphMeasurement {
        dataset: dataset.clone(),
        workload,
        scaled_edges: graph.num_edges(),
        edges_traversed,
        metrics: system.metrics(),
        run_line_bytes,
    }
}

/// Converts a measurement into a full-scale BaM execution breakdown for an
/// array of `num_ssds` devices of `spec`.
fn bam_breakdown(
    measurement: &GraphMeasurement,
    spec: SsdSpec,
    num_ssds: usize,
    queue_pairs: Option<u32>,
) -> ExecutionBreakdown {
    let mut storage = SsdArrayModel::prototype(spec, num_ssds);
    if let Some(qp) = queue_pairs {
        storage = storage.with_queue_pairs(qp);
    }
    let model = BamPerformanceModel::new(storage, FULL_SCALE_LINE, PARALLELISM);
    model.evaluate(
        &measurement.full_scale_metrics(),
        measurement.full_edges_traversed(),
    )
}

/// Converts a measurement into the Target-system breakdown with `num_ssds`
/// devices available for the initial file load.
fn target_breakdown(measurement: &GraphMeasurement, num_ssds: usize) -> ExecutionBreakdown {
    let storage = SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), num_ssds);
    TargetSystem::prototype(storage).evaluate(&measurement.full_scale_demand())
}

/// One bar group of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Dataset short name (K, U, F, M, Uk).
    pub dataset: &'static str,
    /// Workload (BFS or CC).
    pub workload: GraphWorkload,
    /// Number of Optane SSDs (1 or 4).
    pub num_ssds: usize,
    /// Target-system breakdown.
    pub target: ExecutionBreakdown,
    /// BaM breakdown.
    pub bam: ExecutionBreakdown,
}

/// Figure 7: BFS and CC end-to-end time, Target vs BaM, 1 vs 4 Optane SSDs,
/// on an executor `workers` wide. The `fig7` binary runs single-worker so
/// its output (and `BENCH_fig7.json`) is bit-identical per seed — the same
/// determinism contract `figure11` honours for the CI drift gate.
pub fn figure7(scale: f64, seed: u64, workers: usize) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for dataset in DatasetDescriptor::table3() {
        for workload in [GraphWorkload::Bfs, GraphWorkload::Cc] {
            if workload == GraphWorkload::Cc && !dataset.used_for_cc() {
                continue;
            }
            let m = measure_graph(
                &dataset,
                workload,
                PAPER_CACHE_FRACTION,
                scale,
                AccessConfig::Optimized,
                seed,
                workers,
            );
            for num_ssds in [1usize, 4] {
                rows.push(Fig7Row {
                    dataset: dataset.short_name,
                    workload,
                    num_ssds,
                    target: target_breakdown(&m, num_ssds),
                    bam: bam_breakdown(&m, SsdSpec::intel_optane_p5800x(), num_ssds, None),
                });
            }
        }
    }
    rows
}

/// One bar of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Dataset short name.
    pub dataset: &'static str,
    /// Workload.
    pub workload: GraphWorkload,
    /// Access-path configuration.
    pub config: AccessConfig,
    /// Full-scale execution breakdown with 4 Optane SSDs.
    pub breakdown: ExecutionBreakdown,
    /// I/O amplification measured in the functional run.
    pub io_amplification: f64,
}

/// Figure 8: sources of improvement (no cache → naive cache → optimized) for
/// the given datasets, on an executor `workers` wide (one worker makes the
/// functional counts, and so every total, deterministic per seed).
pub fn figure8(datasets: &[&str], scale: f64, seed: u64, workers: usize) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for dataset in DatasetDescriptor::table3() {
        if !datasets.contains(&dataset.short_name) {
            continue;
        }
        for workload in [GraphWorkload::Bfs, GraphWorkload::Cc] {
            if workload == GraphWorkload::Cc && !dataset.used_for_cc() {
                continue;
            }
            for access in [
                AccessConfig::NoCache,
                AccessConfig::NaiveCache,
                AccessConfig::Optimized,
            ] {
                let m = measure_graph(
                    &dataset,
                    workload,
                    PAPER_CACHE_FRACTION,
                    scale,
                    access,
                    seed,
                    workers,
                );
                rows.push(Fig8Row {
                    dataset: dataset.short_name,
                    workload,
                    config: access,
                    breakdown: bam_breakdown(&m, SsdSpec::intel_optane_p5800x(), 4, None),
                    io_amplification: m.metrics.io_amplification(),
                });
            }
        }
    }
    rows
}

/// One bar of Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Dataset short name.
    pub dataset: &'static str,
    /// Workload.
    pub workload: GraphWorkload,
    /// Slowdown of 4× Samsung PM1735 relative to 4× Intel Optane.
    pub pm1735_slowdown: f64,
    /// Slowdown of 4× Samsung 980pro relative to 4× Intel Optane.
    pub s980pro_slowdown: f64,
}

/// Figure 9: slowdown of BaM when the Optane SSDs are replaced by Samsung
/// PM1735 or 980pro devices.
pub fn figure9(scale: f64, seed: u64) -> Vec<Fig9Row> {
    let mut rows = Vec::new();
    for dataset in DatasetDescriptor::table3() {
        if dataset.short_name == "Uk" {
            continue; // the paper's Fig 9 covers K, U, F, M
        }
        for workload in [GraphWorkload::Bfs, GraphWorkload::Cc] {
            let m = measure_graph(
                &dataset,
                workload,
                PAPER_CACHE_FRACTION,
                scale,
                AccessConfig::Optimized,
                seed,
                WORKERS,
            );
            let optane = bam_breakdown(&m, SsdSpec::intel_optane_p5800x(), 4, None).total_s();
            let pm1735 = bam_breakdown(&m, SsdSpec::samsung_pm1735(), 4, None).total_s();
            let s980 = bam_breakdown(&m, SsdSpec::samsung_980pro(), 4, None).total_s();
            rows.push(Fig9Row {
                dataset: dataset.short_name,
                workload,
                pm1735_slowdown: pm1735 / optane,
                s980pro_slowdown: s980 / optane,
            });
        }
    }
    rows
}

/// One point of Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Workload.
    pub workload: GraphWorkload,
    /// Cache capacity expressed in the paper's units (GB against the ~30 GB
    /// K dataset).
    pub cache_gb_equivalent: f64,
    /// Slowdown relative to the 8 GB-equivalent configuration.
    pub slowdown: f64,
    /// Measured cache hit rate.
    pub hit_rate: f64,
}

/// Figure 10: cache-capacity sensitivity on the K dataset. The sweep runs the
/// same functional workload with the cache sized to the same *fraction* of
/// the dataset as each of the paper's capacities (1–64 GB against ~30 GB).
/// The functional phase runs single-worker, so the hit rates and slowdowns
/// are exact per seed.
pub fn figure10(scale: f64, seed: u64) -> Vec<Fig10Row> {
    let dataset = DatasetDescriptor::table3().remove(0); // K
    let capacities_gb = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    let mut rows = Vec::new();
    for workload in [GraphWorkload::Bfs, GraphWorkload::Cc] {
        let mut totals = Vec::new();
        for &gb in &capacities_gb {
            let fraction = gb / 30.0;
            let m = measure_graph(
                &dataset,
                workload,
                fraction,
                scale,
                AccessConfig::Optimized,
                seed,
                1,
            );
            let total = bam_breakdown(&m, SsdSpec::intel_optane_p5800x(), 4, None).total_s();
            totals.push((gb, total, m.metrics.hit_rate()));
        }
        let baseline = totals
            .iter()
            .find(|(gb, _, _)| *gb == 8.0)
            .map(|(_, t, _)| *t)
            .unwrap();
        for (gb, total, hit_rate) in totals {
            rows.push(Fig10Row {
                workload,
                cache_gb_equivalent: gb,
                slowdown: total / baseline,
                hit_rate,
            });
        }
    }
    rows
}

/// One point of Figure 11: the analytic projection and the event-driven
/// simulation, side by side.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Workload.
    pub workload: GraphWorkload,
    /// Total NVMe queue pairs across the 4-SSD array.
    pub queue_pairs: u32,
    /// Analytic slowdown relative to 128 queue pairs (closed-form envelope).
    pub slowdown: f64,
    /// Simulated slowdown relative to 128 queue pairs (`bam-sim` dynamics).
    pub sim_slowdown: f64,
    /// Analytic end-to-end seconds at full scale.
    pub analytic_total_s: f64,
    /// Simulated end-to-end seconds at full scale (GPU-side time analytic,
    /// storage phase event-driven).
    pub sim_total_s: f64,
    /// Simulated p99 request latency (µs) at this queue-pair count.
    pub sim_p99_us: f64,
}

/// Figure 11: sensitivity to the number of NVMe queue pairs on the K dataset.
///
/// The functional phase runs single-worker (deterministic counts); each sweep
/// point is then projected two ways: through the closed-form envelope
/// (`bam-timing`, as the seed reproduction did) and through the `bam-sim`
/// event engine, whose queue-pair serialization produces the knee
/// *dynamically* rather than as a `min()` term.
pub fn figure11(scale: f64, seed: u64) -> Vec<Fig11Row> {
    let dataset = DatasetDescriptor::table3().remove(0); // K
                                                         // The first entry is the baseline every slowdown is relative to.
    let sweep = [128u32, 96, 80, 64, 48, 40, 32];
    let mut rows = Vec::new();
    for workload in [GraphWorkload::Bfs, GraphWorkload::Cc] {
        let m = measure_graph(
            &dataset,
            workload,
            PAPER_CACHE_FRACTION,
            scale,
            AccessConfig::Optimized,
            seed,
            1,
        );
        let full = m.full_scale_metrics();
        let per_qp = |qp: u32| {
            let analytic = bam_breakdown(&m, SsdSpec::intel_optane_p5800x(), 4, Some(qp));
            let (storage_s, report) = crate::sim_exp::simulated_storage_time(
                SsdSpec::intel_optane_p5800x(),
                4,
                qp,
                FULL_SCALE_LINE,
                full.read_requests,
                full.write_requests,
                seed,
            );
            let sim_total =
                ExecutionBreakdown::overlapped(analytic.compute_s, analytic.cache_api_s, storage_s)
                    .total_s();
            (analytic.total_s(), sim_total, report.latency.p99_us)
        };
        // The sweep leads with 128 queue pairs, which doubles as the
        // baseline — evaluate each point once.
        let points: Vec<(f64, f64, f64)> = sweep.iter().map(|&qp| per_qp(qp)).collect();
        let (analytic_baseline, sim_baseline, _) = points[0];
        for (&qp, &(analytic_total_s, sim_total_s, sim_p99_us)) in sweep.iter().zip(&points) {
            rows.push(Fig11Row {
                workload,
                queue_pairs: qp,
                slowdown: analytic_total_s / analytic_baseline,
                sim_slowdown: sim_total_s / sim_baseline,
                analytic_total_s,
                sim_total_s,
                sim_p99_us,
            });
        }
    }
    rows
}

/// Shared sanity check: a BFS functional run at reduced scale agrees with the
/// host reference (used by the binaries before printing results).
pub fn verify_bfs_against_reference(scale: f64, seed: u64) -> bool {
    let dataset = DatasetDescriptor::table3().remove(1); // U (uniform random)
    let graph = dataset.generate(scale, seed);
    let config = experiment_config(SsdSpec::intel_optane_p5800x(), 2, 4 << 20, 0.25, 4);
    let system = BamSystem::new(config).expect("system");
    let edges = upload_edge_list(&system, &graph).expect("upload");
    let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), WORKERS);
    let source = pick_source(&graph);
    let bam = bfs_bam(&graph.offsets, &edges, source, &exec).expect("bfs");
    let reference = bfs_reference(&graph, source);
    bam.distances == reference.distances
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast scale for unit tests (smaller than the harness default).
    const TEST_SCALE: f64 = 4.0e-6;

    #[test]
    fn figure7_shape_bam_competitive_with_target_at_4_ssds() {
        let rows = figure7(TEST_SCALE, 1, WORKERS);
        assert!(!rows.is_empty());
        // Average BFS speedup of BaM over Target with 4 SSDs ~1.0x (>=0.7),
        // and CC speedup >= BFS speedup (CC benefits more).
        let avg = |workload, ssds: usize| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.workload == workload && r.num_ssds == ssds)
                .map(|r| r.bam.speedup_vs(&r.target))
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let bfs4 = avg(GraphWorkload::Bfs, 4);
        let cc4 = avg(GraphWorkload::Cc, 4);
        // Paper: BaM is on par with (1.00x, BFS) or better than (1.49x, CC)
        // the Target system once four SSDs match the x16 link.
        assert!(bfs4 > 0.8, "BFS speedup vs Target at 4 SSDs = {bfs4}");
        assert!(cc4 > 1.0, "CC speedup vs Target at 4 SSDs = {cc4}");
        // 4 SSDs are faster than 1 SSD for BaM.
        for r4 in rows.iter().filter(|r| r.num_ssds == 4) {
            let r1 = rows
                .iter()
                .find(|r| r.num_ssds == 1 && r.dataset == r4.dataset && r.workload == r4.workload)
                .unwrap();
            assert!(
                r1.bam.total_s() >= r4.bam.total_s(),
                "{} {:?}: 1 SSD must not beat 4",
                r4.dataset,
                r4.workload
            );
        }
    }

    #[test]
    fn figure8_shape_each_optimization_helps() {
        // One worker: the totals are exact per seed, so the test can assert
        // equality where the optimizations have nothing to give.
        let rows = figure8(&["K"], TEST_SCALE, 2, 1);
        let total = |cfg: AccessConfig, w: GraphWorkload| {
            rows.iter()
                .find(|r| r.config == cfg && r.workload == w)
                .map(|r| r.breakdown.total_s())
                .unwrap()
        };
        for w in [GraphWorkload::Bfs, GraphWorkload::Cc] {
            let none = total(AccessConfig::NoCache, w);
            let naive = total(AccessConfig::NaiveCache, w);
            let opt = total(AccessConfig::Optimized, w);
            assert!(none > naive, "{w:?}: cache must help ({none} vs {naive})");
            assert!(none / opt > 3.0, "{w:?}: end-to-end gain {:.1}", none / opt);
        }
        // BFS gains from the warp-batched kernel and coalescing. CC runs the
        // same run-based kernel either way and differs only in coalescing,
        // which gives it nothing at this scale, so its two totals are equal.
        let (bfs_naive, bfs_opt) = (
            total(AccessConfig::NaiveCache, GraphWorkload::Bfs),
            total(AccessConfig::Optimized, GraphWorkload::Bfs),
        );
        assert!(bfs_naive > bfs_opt, "BFS: {bfs_naive} vs {bfs_opt}");
        assert_eq!(
            total(AccessConfig::NaiveCache, GraphWorkload::Cc),
            total(AccessConfig::Optimized, GraphWorkload::Cc),
        );
        // No-cache amplification is large (4-byte elements through 512B I/O).
        let nocache = rows
            .iter()
            .find(|r| r.config == AccessConfig::NoCache)
            .unwrap();
        assert!(nocache.io_amplification > 10.0);
    }

    #[test]
    fn figure9_shape_consumer_flash_slower_znand_close() {
        let rows = figure9(TEST_SCALE, 3);
        assert!(!rows.is_empty());
        for r in &rows {
            // Shape: consumer flash is clearly slower, Z-NAND stays close to
            // Optane. (The paper's magnitudes are 2.7-3.2x and ~1x; the
            // scaled runs are less storage-bound, so the gap narrows — see
            // EXPERIMENTS.md.)
            assert!(
                r.s980pro_slowdown > 1.15,
                "{} {:?}: 980pro slowdown {}",
                r.dataset,
                r.workload,
                r.s980pro_slowdown
            );
            assert!(r.pm1735_slowdown < r.s980pro_slowdown);
            assert!(
                r.pm1735_slowdown < 1.4,
                "PM1735 close to Optane: {}",
                r.pm1735_slowdown
            );
        }
    }

    #[test]
    fn figure10_shape_flat_small_caches() {
        let rows = figure10(TEST_SCALE, 4);
        let bfs: Vec<&Fig10Row> = rows
            .iter()
            .filter(|r| r.workload == GraphWorkload::Bfs)
            .collect();
        let at = |gb: f64| bfs.iter().find(|r| r.cache_gb_equivalent == gb).unwrap();
        // 1 GB performs like 8 GB (the paper sees no degradation; the scaled
        // run tolerates a modest band — see EXPERIMENTS.md).
        assert!(
            (at(1.0).slowdown - 1.0).abs() < 0.25,
            "slowdown at 1GB {}",
            at(1.0).slowdown
        );
        // A cache larger than the dataset is never slower.
        assert!(at(64.0).slowdown <= at(1.0).slowdown + 0.15);
    }

    #[test]
    fn figure11_shape_flat_then_degrades() {
        let rows = figure11(TEST_SCALE, 5);
        let bfs: Vec<&Fig11Row> = rows
            .iter()
            .filter(|r| r.workload == GraphWorkload::Bfs)
            .collect();
        let at = |qp: u32| bfs.iter().find(|r| r.queue_pairs == qp).unwrap();
        assert!(
            (at(64).slowdown - 1.0).abs() < 0.1,
            "64 QPs {}",
            at(64).slowdown
        );
        assert!(
            at(32).slowdown >= at(128).slowdown,
            "32 QPs must not be faster than 128"
        );
        // The event-driven projection reproduces the same shape: flat at 64
        // queue pairs, never faster when starved, and its absolute seconds
        // stay within 25% of the closed-form envelope.
        assert!(
            (at(64).sim_slowdown - 1.0).abs() < 0.15,
            "sim 64 QPs {}",
            at(64).sim_slowdown
        );
        assert!(at(32).sim_slowdown >= at(128).sim_slowdown * 0.99);
        for r in &bfs {
            let ratio = r.sim_total_s / r.analytic_total_s;
            assert!(
                (0.75..1.35).contains(&ratio),
                "qp {}: sim {}s vs analytic {}s",
                r.queue_pairs,
                r.sim_total_s,
                r.analytic_total_s
            );
            assert!(r.sim_p99_us > 0.0);
        }
    }

    #[test]
    fn figure11_is_deterministic_at_fixed_seed() {
        let a = figure11(TEST_SCALE, 5);
        let b = figure11(TEST_SCALE, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.slowdown, y.slowdown);
            assert_eq!(x.sim_slowdown, y.sim_slowdown);
            assert_eq!(x.sim_total_s, y.sim_total_s);
        }
    }

    #[test]
    fn bfs_verification_passes() {
        assert!(verify_bfs_against_reference(TEST_SCALE, 6));
    }
}

//! Remaining experiments: Tables 2 and 3, Figures 13 and 15, and the
//! vectorAdd evaluation (§5.4).

use bam_baselines::{BamPerformanceModel, ProactiveTiling, TargetSystem, UvmModel};
use bam_gpu_sim::{GpuExecutor, GpuSpec, OccupancyModel, RegisterUsage};
use bam_nvme_sim::SsdSpec;
use bam_timing::cost::Table2Row;
use bam_timing::{CostModel, SsdArrayModel};
use bam_workloads::graph::DatasetDescriptor;
use bam_workloads::vectoradd::{setup, vectoradd_bam, vectoradd_demand};

use crate::graph_exp::{measure_graph, AccessConfig, GraphWorkload};
use crate::scale::{experiment_config, PAPER_CACHE_FRACTION, WORKERS};

/// Table 2: the SSD technology comparison.
pub fn table2() -> Vec<Table2Row> {
    CostModel::default().table2_rows()
}

/// One row of the regenerated Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Dataset short name.
    pub short_name: &'static str,
    /// Dataset full name.
    pub name: &'static str,
    /// Original node count.
    pub original_nodes: u64,
    /// Original edge count.
    pub original_edges: u64,
    /// Original edge-list size in GB.
    pub original_size_gb: f64,
    /// Nodes generated at the harness scale.
    pub generated_nodes: u32,
    /// Edges generated at the harness scale (directed, post-symmetrization).
    pub generated_edges: u64,
}

/// Table 3: the graph datasets, original sizes plus the scaled instances the
/// functional runs use.
pub fn table3(scale: f64, seed: u64) -> Vec<Table3Row> {
    DatasetDescriptor::table3()
        .into_iter()
        .map(|d| {
            let g = d.generate(scale, seed);
            Table3Row {
                short_name: d.short_name,
                name: d.name,
                original_nodes: d.original_nodes,
                original_edges: d.original_edges,
                original_size_gb: d.original_size_gb,
                generated_nodes: g.num_nodes(),
                generated_edges: g.num_edges(),
            }
        })
        .collect()
}

/// Figure 13: per-thread register usage with and without BaM.
pub fn figure13() -> Vec<RegisterUsage> {
    OccupancyModel::default().figure13()
}

/// One dataset's entry in Figure 15.
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// Dataset short name.
    pub dataset: &'static str,
    /// UVM effective bandwidth in GB/s.
    pub uvm_gbps: f64,
    /// ZeroCopy (Target) effective bandwidth in GB/s.
    pub zerocopy_gbps: f64,
    /// Measured peak of the PCIe Gen4 ×16 link in GB/s.
    pub peak_gbps: f64,
}

/// Figure 15: UVM vs ZeroCopy host-memory bandwidth during BFS, per dataset.
pub fn figure15(scale: f64, seed: u64) -> Vec<Fig15Row> {
    let uvm = {
        // UVM migrates in larger-than-4 KB chunks once its prefetcher kicks
        // in; the paper's measured average corresponds to ~32 KB effective
        // granularity (see `bam-baselines::uvm` for the calibration note).
        let mut m = UvmModel::prototype();
        m.page_bytes = 32 * 1024;
        m
    };
    let mut rows = Vec::new();
    for dataset in DatasetDescriptor::table3() {
        let m = measure_graph(
            &dataset,
            GraphWorkload::Bfs,
            PAPER_CACHE_FRACTION,
            scale,
            AccessConfig::Optimized,
            seed,
            WORKERS,
        );
        let demand = m.full_scale_demand();
        let storage = SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), 4);
        let target = TargetSystem::prototype(storage);
        rows.push(Fig15Row {
            dataset: dataset.short_name,
            uvm_gbps: uvm.effective_bandwidth_gbps(&demand),
            zerocopy_gbps: target.zerocopy_bandwidth_gbps(&demand),
            peak_gbps: target.gpu_link.effective_bandwidth_gbps(),
        });
    }
    rows
}

/// Result of the vectorAdd evaluation (§5.4).
#[derive(Debug, Clone)]
pub struct VectorAddEval {
    /// Elements per input vector in the full-scale experiment.
    pub full_elements: u64,
    /// BaM end-to-end seconds (full scale, 4 Optane SSDs).
    pub bam_seconds: f64,
    /// Proactive-tiling baseline seconds.
    pub tiling_seconds: f64,
    /// BaM slowdown relative to the baseline (the paper reports 1.51×).
    pub bam_slowdown: f64,
}

/// §5.4: vectorAdd through BaM vs the proactive-tiling baseline.
///
/// `functional_elements` elements are run through the real stack to measure
/// per-element cache/I/O behaviour; the result is scaled to `full_elements`
/// (the paper uses 4 billion).
pub fn vectoradd_eval(functional_elements: u64, full_elements: u64) -> VectorAddEval {
    let config = experiment_config(
        SsdSpec::intel_optane_p5800x(),
        4,
        functional_elements * 8 * 4,
        0.25,
        8,
    );
    let line = config.cache_line_bytes;
    let system = bam_core::BamSystem::new(config).expect("system");
    let (a, b, out) = setup(&system, functional_elements).expect("setup");
    system.reset_metrics();
    let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), WORKERS);
    vectoradd_bam(&system, &a, &b, &out, &exec).expect("vectoradd");
    let metrics = system.metrics();

    // Scale the measured counts to the full experiment.
    let f = full_elements as f64 / functional_elements as f64;
    let full_line = 4096u64;
    let line_ratio = line as f64 / full_line as f64;
    let full_metrics = bam_core::MetricsSnapshot {
        cache_hits: (metrics.cache_hits as f64 * f * line_ratio) as u64,
        cache_misses: (metrics.cache_misses as f64 * f * line_ratio) as u64,
        probe_attempts: (metrics.probe_attempts as f64 * f * line_ratio) as u64,
        read_requests: (metrics.bytes_read as f64 * f / full_line as f64) as u64,
        write_requests: (metrics.bytes_written as f64 * f / full_line as f64) as u64,
        bytes_read: (metrics.bytes_read as f64 * f) as u64,
        bytes_written: (metrics.bytes_written as f64 * f) as u64,
        bytes_requested: (metrics.bytes_requested as f64 * f) as u64,
        ..Default::default()
    };
    let model = BamPerformanceModel::new(
        SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), 4),
        full_line,
        1 << 17,
    );
    // BaM exposes the write-back latency (no read/write overlap, §5.4): add
    // the write-back time serially rather than overlapping it.
    let reads_only = bam_core::MetricsSnapshot {
        write_requests: 0,
        ..full_metrics
    };
    let read_breakdown = model.evaluate(&reads_only, full_elements);
    let write_time = model
        .storage
        .write_time_s(full_metrics.write_requests, full_line, 1 << 17);
    let bam_seconds = read_breakdown.total_s() + write_time;

    let demand = vectoradd_demand(full_elements, full_line, 1 << 17);
    let mut tiling = ProactiveTiling::new(
        Some(SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), 4)),
        demand.dataset_bytes / demand.phases,
    );
    // The vectorAdd baseline stages flat binary tiles: its CPU cost is a
    // handful of pointer setups per tile, not the per-MiB row-group
    // marshalling the RAPIDS baseline pays.
    tiling.cpu.staging_overhead_us_per_mib = 2.0;
    let tiling_seconds = tiling.evaluate(&demand).total_s();
    VectorAddEval {
        full_elements,
        bam_seconds,
        tiling_seconds,
        bam_slowdown: bam_seconds / tiling_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reproduces_cost_gains() {
        let rows = table2();
        assert_eq!(rows.len(), 4);
        let nand = rows.iter().find(|r| r.name.contains("980")).unwrap();
        assert!((20.0..23.0).contains(&nand.gain));
    }

    #[test]
    fn table3_generates_scaled_instances() {
        let rows = table3(4.0e-6, 1);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.generated_nodes >= 16);
            assert!(r.generated_edges > 0);
        }
    }

    #[test]
    fn figure13_bam_adds_registers() {
        let rows = figure13();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.with_bam >= r.without_bam));
    }

    #[test]
    fn figure15_shape_uvm_well_below_zerocopy_and_peak() {
        let rows = figure15(4.0e-6, 2);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.uvm_gbps < r.peak_gbps * 0.75,
                "{}: uvm {}",
                r.dataset,
                r.uvm_gbps
            );
            assert!(
                r.zerocopy_gbps > r.uvm_gbps,
                "{}: zerocopy must beat uvm",
                r.dataset
            );
            assert!(r.zerocopy_gbps <= r.peak_gbps + 1e-9);
        }
    }

    #[test]
    fn vectoradd_shape_bam_slower_than_tiling_but_close() {
        let e = vectoradd_eval(20_000, 4_000_000_000);
        assert!(e.bam_slowdown > 1.0, "slowdown {}", e.bam_slowdown);
        assert!(e.bam_slowdown < 3.0, "slowdown {}", e.bam_slowdown);
    }
}

//! ActivePointers + GPUfs model (Fig 6 baseline, §5.1).
//!
//! ActivePointers layers a memory-map-style abstraction on GPUfs: GPU threads
//! get a software cache in GPU memory, but cache misses are serviced by
//! *CPU* threads that GPUfs signals from the GPU. The paper measures a peak
//! miss-handling throughput of 823 K IOPS (with data already in the CPU page
//! cache, i.e. no storage latency at all) and a peak hot-cache delivery
//! bandwidth ~11.2× lower than BaM's.

use bam_timing::{CpuStackModel, GpuRateModel};

/// The ActivePointers/GPUfs system.
#[derive(Debug, Clone)]
pub struct ActivePointersModel {
    /// CPU stack servicing misses (the GPUfs RPC path).
    pub cpu: CpuStackModel,
    /// GPU rates for the hot-cache path.
    pub gpu: GpuRateModel,
    /// Ratio of ActivePointers' software-translation overhead to BaM's
    /// coalesced probe path. Calibrated from Fig 6's hot-cache comparison
    /// (430 GB/s vs ≈38 GB/s ⇒ ≈11.2×).
    pub hot_path_overhead_factor: f64,
}

impl ActivePointersModel {
    /// The configuration measured in Figure 6.
    pub fn prototype() -> Self {
        Self {
            cpu: CpuStackModel::epyc_host(),
            gpu: GpuRateModel::a100(),
            hot_path_overhead_factor: 11.2,
        }
    }

    /// Peak miss-handling throughput in IOPS (independent of cache-line size;
    /// the CPU RPC path is the bottleneck).
    pub fn miss_iops(&self) -> f64 {
        self.cpu.gpufs_miss_rate_per_s
    }

    /// Cold-cache effective bandwidth (GB/s) for the given line size: every
    /// access misses and is serviced from CPU memory by the GPUfs path.
    pub fn cold_bandwidth_gbps(&self, line_bytes: u64) -> f64 {
        self.miss_iops() * line_bytes as f64 / 1e9
    }

    /// Hot-cache effective bandwidth (GB/s) for the given line size.
    pub fn hot_bandwidth_gbps(&self, line_bytes: u64) -> f64 {
        self.gpu.hot_cache_bandwidth_gbps(line_bytes) / self.hot_path_overhead_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_throughput_matches_measured_peak() {
        let ap = ActivePointersModel::prototype();
        assert!((ap.miss_iops() - 823e3).abs() < 1.0);
        // 8 KB transfers out of CPU memory ⇒ ~4.4 GB/s effective (paper).
        let bw = ap.cold_bandwidth_gbps(8192);
        assert!((4.0..8.0).contains(&bw), "bw {bw}");
    }

    #[test]
    fn hot_bandwidth_is_an_order_of_magnitude_below_bam() {
        let ap = ActivePointersModel::prototype();
        let bam_hot = ap.gpu.hot_cache_bandwidth_gbps(4096);
        let ap_hot = ap.hot_bandwidth_gbps(4096);
        let ratio = bam_hot / ap_hot;
        assert!((10.0..13.0).contains(&ratio), "ratio {ratio}");
    }
}

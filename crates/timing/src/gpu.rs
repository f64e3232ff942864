//! GPU-side service rates.
//!
//! These constants turn counts observed in the functional simulation (cache
//! probes, hits, atomics) into GPU time. They are calibrated against two
//! paper measurements: the hot-cache delivery bandwidth of 430 GB/s
//! (Fig 6) and the 2–45 % cache-API overhead observed in the Fig 7
//! breakdown.

/// Service rates of the GPU executing BaM's software cache and I/O stack.
#[derive(Debug, Clone)]
pub struct GpuRateModel {
    /// Peak HBM bandwidth in GB/s (A100-80GB: ~2,039 GB/s).
    pub hbm_bandwidth_gbps: f64,
    /// Aggregate rate at which the GPU can execute cache probes
    /// (coalesced-group leaders querying line metadata), in probes/s.
    ///
    /// Calibrated so that a fully hot cache delivers ≈430 GB/s with 4 KB
    /// lines (Fig 6): ~105 M probes/s × 4 KB ≈ 430 GB/s.
    pub cache_probe_rate_per_s: f64,
    /// Aggregate rate of I/O-stack submissions (enqueue + doorbell protocol +
    /// completion polling bookkeeping), in requests/s. BaM demonstrates this
    /// comfortably exceeds 10 SSDs' worth of IOPS (§4.3), so it only matters
    /// when the storage is not the bottleneck.
    pub io_submission_rate_per_s: f64,
    /// Effective compute throughput used to convert a workload's declared
    /// work (edges relaxed, rows scanned, elements added) into seconds, in
    /// operations/s. Workloads provide their own op counts. Calibrated so
    /// that the graph workloads remain storage-I/O bound on the A100, as the
    /// paper observes (§5.2: 5-6.2 M IOPS, >80 % of peak, even with 4 SSDs).
    pub compute_ops_per_s: f64,
}

impl GpuRateModel {
    /// Rates for the NVIDIA A100-80GB used in the prototype (Table 1).
    pub fn a100() -> Self {
        Self {
            hbm_bandwidth_gbps: 2039.0,
            cache_probe_rate_per_s: 105.0e6,
            io_submission_rate_per_s: 120.0e6,
            compute_ops_per_s: 2.5e10,
        }
    }

    /// Time to execute `probes` cache probes (group leaders only).
    pub fn cache_probe_time_s(&self, probes: u64) -> f64 {
        probes as f64 / self.cache_probe_rate_per_s
    }

    /// Time to deliver `bytes` from cache lines resident in GPU memory.
    pub fn hot_delivery_time_s(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.hbm_bandwidth_gbps * 1e9)
    }

    /// Time to execute `ops` units of workload compute.
    pub fn compute_time_s(&self, ops: u64) -> f64 {
        ops as f64 / self.compute_ops_per_s
    }

    /// Effective bandwidth (GB/s) of serving `accesses` hot-cache accesses of
    /// `line_bytes` each: bounded by probe rate and HBM bandwidth. This is
    /// the quantity plotted as the "hot" bars of Fig 6.
    pub fn hot_cache_bandwidth_gbps(&self, line_bytes: u64) -> f64 {
        let probe_limited = self.cache_probe_rate_per_s * line_bytes as f64 / 1e9;
        probe_limited.min(self.hbm_bandwidth_gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_cache_bandwidth_matches_fig6() {
        let g = GpuRateModel::a100();
        let bw = g.hot_cache_bandwidth_gbps(4096);
        assert!((380.0..480.0).contains(&bw), "bw={bw}");
        // With 512B lines the probe rate limits harder.
        assert!(g.hot_cache_bandwidth_gbps(512) < bw);
        // Huge lines are HBM-limited.
        assert!(g.hot_cache_bandwidth_gbps(1 << 20) <= g.hbm_bandwidth_gbps);
    }

    #[test]
    fn io_stack_exceeds_ten_ssds() {
        let g = GpuRateModel::a100();
        assert!(g.io_submission_rate_per_s > 45.8e6 * 2.0);
    }

    #[test]
    fn times_scale_linearly() {
        let g = GpuRateModel::a100();
        assert!(
            (g.cache_probe_time_s(2_000_000) / g.cache_probe_time_s(1_000_000) - 2.0).abs() < 1e-9
        );
        assert!(g.compute_time_s(0) == 0.0);
    }
}

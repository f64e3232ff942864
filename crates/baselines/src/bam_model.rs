//! Turning a BaM functional execution into time.
//!
//! Workloads run *functionally* on the real `bam-core` stack (real cache,
//! real queues, real data movement) and collect a
//! [`bam_core::MetricsSnapshot`]. This model converts those measured counts
//! into the execution-time breakdown the paper reports, using the same
//! Little's-law storage envelope and GPU service rates as every other system
//! model, so BaM and its baselines are compared under one methodology.

use bam_core::MetricsSnapshot;
use bam_timing::{ExecutionBreakdown, GpuRateModel, SsdArrayModel};

/// The BaM performance model.
#[derive(Debug, Clone)]
pub struct BamPerformanceModel {
    /// GPU service rates (cache probes, hot delivery, compute).
    pub gpu: GpuRateModel,
    /// Storage envelope of the SSD array behind the cache.
    pub storage: SsdArrayModel,
    /// Cache-line / I/O granularity in bytes.
    pub line_bytes: u64,
    /// Concurrent GPU threads sustaining outstanding requests.
    pub parallelism: u64,
}

impl BamPerformanceModel {
    /// Creates a model for an array of `storage` devices accessed at
    /// `line_bytes` granularity by `parallelism` concurrent threads.
    pub fn new(storage: SsdArrayModel, line_bytes: u64, parallelism: u64) -> Self {
        Self {
            gpu: GpuRateModel::a100(),
            storage,
            line_bytes,
            parallelism,
        }
    }

    /// Seconds the storage system needs to serve the measured misses and
    /// write-backs.
    pub fn storage_time_s(&self, metrics: &MetricsSnapshot) -> f64 {
        self.storage.mixed_time_s(
            metrics.read_requests,
            metrics.write_requests,
            self.line_bytes,
            self.parallelism,
        )
    }

    /// Seconds of cache-API overhead implied by the measured probe counts and
    /// hit traffic.
    fn cache_api_time_s(&self, metrics: &MetricsSnapshot) -> f64 {
        let probe = self.gpu.cache_probe_time_s(metrics.probe_attempts);
        let hit_bytes = metrics.cache_hits * self.line_bytes;
        probe + self.gpu.hot_delivery_time_s(hit_bytes)
    }

    /// Full breakdown for a run with `compute_ops` of workload compute.
    ///
    /// Storage latency overlaps with compute from other warps (the BaM
    /// computation model of Figure 3b), so the exposed storage component is
    /// whatever exceeds the GPU-side time.
    pub fn evaluate(&self, metrics: &MetricsSnapshot, compute_ops: u64) -> ExecutionBreakdown {
        let compute = self.gpu.compute_time_s(compute_ops);
        let cache_api = self.cache_api_time_s(metrics);
        let storage = self.storage_time_s(metrics);
        ExecutionBreakdown::overlapped(compute, cache_api, storage)
    }

    /// Effective application-perceived bandwidth (GB/s): bytes the
    /// application requested divided by end-to-end time.
    pub fn effective_bandwidth_gbps(&self, metrics: &MetricsSnapshot, compute_ops: u64) -> f64 {
        let t = self.evaluate(metrics, compute_ops).total_s();
        if t == 0.0 {
            return 0.0;
        }
        metrics.bytes_requested as f64 / t / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bam_nvme_sim::SsdSpec;

    fn metrics(hits: u64, misses: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            cache_hits: hits,
            cache_misses: misses,
            probe_attempts: hits + misses,
            read_requests: misses,
            bytes_read: misses * 4096,
            bytes_requested: (hits + misses) * 8,
            ..Default::default()
        }
    }

    fn model(ssds: usize) -> BamPerformanceModel {
        BamPerformanceModel::new(
            SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), ssds),
            4096,
            1 << 20,
        )
    }

    #[test]
    fn storage_bound_runs_expose_storage_time() {
        let m = model(1);
        let b = m.evaluate(&metrics(0, 10_000_000), 1_000_000);
        assert!(b.storage_io_s > b.compute_s);
    }

    #[test]
    fn hits_are_much_cheaper_than_misses() {
        let m = model(4);
        let hot = m.evaluate(&metrics(10_000_000, 0), 0).total_s();
        let cold = m.evaluate(&metrics(0, 10_000_000), 0).total_s();
        assert!(cold > hot * 5.0, "cold {cold} hot {hot}");
    }

    #[test]
    fn four_ssds_scale_storage_time_down() {
        let one = model(1).evaluate(&metrics(0, 8_000_000), 0).total_s();
        let four = model(4).evaluate(&metrics(0, 8_000_000), 0).total_s();
        let ratio = one / four;
        assert!((3.0..4.5).contains(&ratio), "scaling {ratio}");
    }

    #[test]
    fn compute_hides_modest_storage_traffic() {
        let m = model(4);
        // Heavy compute, light storage: storage fully hidden.
        let b = m.evaluate(&metrics(1_000, 1_000), 10_000_000_000);
        assert_eq!(b.storage_io_s, 0.0);
    }

    #[test]
    fn effective_bandwidth_reflects_requested_bytes() {
        let m = model(4);
        let met = metrics(1_000_000, 10_000);
        assert!(m.effective_bandwidth_gbps(&met, 0) > 0.0);
    }
}

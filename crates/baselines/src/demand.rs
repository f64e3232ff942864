//! The workload demand description consumed by every system model.

/// What a workload asks of the memory/storage system, independent of which
/// system serves it.
///
/// Workloads produce this from their functional execution (graph traversals,
/// query scans, ...); system models turn it into time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessDemand {
    /// Total size of the dataset as stored (what a load-everything system
    /// must move).
    pub dataset_bytes: u64,
    /// Unique bytes the computation actually dereferences.
    pub bytes_touched: u64,
    /// Number of on-demand accesses an on-demand system would make (cache
    /// misses at `access_bytes` granularity).
    pub on_demand_accesses: u64,
    /// Granularity of on-demand accesses in bytes (the BaM cache-line size).
    pub access_bytes: u64,
    /// Output bytes written back to storage (zero for read-only analytics).
    pub bytes_written: u64,
    /// Abstract compute work (edges relaxed, rows scanned, elements added);
    /// converted to seconds by [`bam_timing::GpuRateModel::compute_time_s`].
    pub compute_ops: u64,
    /// Number of kernel launches / processing phases (BFS iterations, tiles,
    /// row groups).
    pub phases: u64,
    /// Concurrent GPU threads available to overlap latency (for Little's-law
    /// throughput limits).
    pub parallelism: u64,
}

impl AccessDemand {
    /// A demand with everything zeroed except the dataset size — useful as a
    /// starting point in tests and builders.
    pub fn for_dataset(dataset_bytes: u64) -> Self {
        Self {
            dataset_bytes,
            bytes_touched: dataset_bytes,
            on_demand_accesses: 0,
            access_bytes: 4096,
            bytes_written: 0,
            compute_ops: 0,
            phases: 1,
            parallelism: 1 << 20,
        }
    }

    /// Fraction of the dataset the computation actually uses.
    pub fn selectivity(&self) -> f64 {
        if self.dataset_bytes == 0 {
            return 0.0;
        }
        self.bytes_touched as f64 / self.dataset_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity() {
        let mut d = AccessDemand::for_dataset(1000);
        d.bytes_touched = 100;
        assert!((d.selectivity() - 0.1).abs() < 1e-12);
        assert_eq!(AccessDemand::for_dataset(0).selectivity(), 0.0);
    }
}

//! CPU software-stack rates used by the CPU-centric baselines.
//!
//! The paper attributes the poor performance of CPU-centric approaches to a
//! handful of CPU-side rate limits; each constant here is tied to the paper
//! measurement it reproduces.

/// Rates and overheads of the host CPU software stack.
#[derive(Debug, Clone)]
pub struct CpuStackModel {
    /// Maximum UVM/far-fault page-fault handling rate, faults/s. The paper
    /// measures the UVM fault handler saturating at ~500 K IOPS with the CPU
    /// 100 % utilized (Appendix B.2).
    pub page_fault_rate_per_s: f64,
    /// Per-I/O software overhead of the kernel storage stack (file system +
    /// block layer + driver), in microseconds per request per thread. The
    /// paper reports OS overhead reaching 36.4 % of access latency on fast
    /// SSDs (§2.2) and GDS only saturating PCIe at ≥32 KB granularity
    /// (Fig 5); 20 µs per I/O with 16 threads reproduces both.
    pub io_software_overhead_us: f64,
    /// Number of CPU threads concurrently driving storage I/O.
    pub io_threads: u32,
    /// Cost of one CPU→GPU kernel-launch + synchronization round trip, in
    /// microseconds (tiling pays this per tile).
    pub kernel_launch_sync_us: f64,
    /// CPU-side cost to find, allocate, and stage one tile/row-group for
    /// transfer, in microseconds per MiB staged. Calibrated so that RAPIDS'
    /// row-group init + cleanup dominates its query time (Fig 14: >73 % +
    /// 23 %).
    pub staging_overhead_us_per_mib: f64,
    /// Rate at which a CPU-mediated GPU file cache (ActivePointers/GPUfs) can
    /// serve misses, requests/s. The paper measures 823 K IOPS peak (§5.1).
    pub gpufs_miss_rate_per_s: f64,
}

impl CpuStackModel {
    /// The dual-EPYC host of the prototype (Table 1).
    pub fn epyc_host() -> Self {
        Self {
            page_fault_rate_per_s: 500.0e3,
            io_software_overhead_us: 20.0,
            io_threads: 16,
            kernel_launch_sync_us: 30.0,
            staging_overhead_us_per_mib: 110.0,
            gpufs_miss_rate_per_s: 823.0e3,
        }
    }

    /// Time for the CPU stack to issue `requests` storage I/Os (overheads
    /// overlap across `io_threads`).
    pub fn io_issue_time_s(&self, requests: u64) -> f64 {
        requests as f64 * self.io_software_overhead_us * 1e-6 / f64::from(self.io_threads)
    }

    /// Time to handle `faults` GPU page faults.
    pub fn page_fault_time_s(&self, faults: u64) -> f64 {
        faults as f64 / self.page_fault_rate_per_s
    }

    /// Time for `launches` kernel-launch/sync round trips.
    pub fn launch_sync_time_s(&self, launches: u64) -> f64 {
        launches as f64 * self.kernel_launch_sync_us * 1e-6
    }

    /// CPU time to stage `bytes` of tiles/row groups for transfer.
    pub fn staging_time_s(&self, bytes: u64) -> f64 {
        bytes as f64 / (1u64 << 20) as f64 * self.staging_overhead_us_per_mib * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvm_cannot_feed_one_consumer_ssd() {
        // Appendix B.2: 500K faults/s * 4KB pages ≈ 2 GB/s < one 980pro.
        let cpu = CpuStackModel::epyc_host();
        let faults_per_s = 1.0 / cpu.page_fault_time_s(1);
        let bw = faults_per_s * 4096.0 / 1e9;
        assert!(bw < 2.5, "bw={bw}");
    }

    #[test]
    fn gds_software_bound_at_4kb() {
        let cpu = CpuStackModel::epyc_host();
        // 128 GB at 4KB: issue time dominates wire time on a 26 GB/s link.
        let reqs = (128u64 << 30) / 4096;
        let issue = cpu.io_issue_time_s(reqs);
        let wire = (128u64 << 30) as f64 / 26e9;
        assert!(issue > 2.0 * wire, "issue={issue} wire={wire}");
    }

    #[test]
    fn staging_and_launch_costs_scale() {
        let cpu = CpuStackModel::epyc_host();
        assert!(cpu.staging_time_s(1 << 30) > cpu.staging_time_s(1 << 20));
        assert_eq!(cpu.launch_sync_time_s(0), 0.0);
    }
}

//! The "Target" (T) host-memory system (Fig 7) and the ZeroCopy path of
//! Fig 15.
//!
//! The Target system holds the whole dataset in host DRAM and lets GPU
//! threads perform fine-grained coalesced (zero-copy) accesses over PCIe —
//! the strongest DRAM-only baseline the paper considers (EMOGI-style). Its
//! end-to-end cost has two parts the paper is explicit about (§2.1, §5.2):
//! the *file-loading* phase that must finish before any GPU compute starts,
//! and the compute phase whose memory traffic is limited by the PCIe link.

use bam_pcie::LinkSpec;
use bam_timing::{CpuStackModel, ExecutionBreakdown, GpuRateModel, SsdArrayModel};

use crate::demand::AccessDemand;

/// The host-memory Target system.
#[derive(Debug, Clone)]
pub struct TargetSystem {
    /// GPU service rates.
    pub gpu: GpuRateModel,
    /// CPU software stack (file loading path).
    pub cpu: CpuStackModel,
    /// Storage the dataset is initially loaded from.
    pub storage: SsdArrayModel,
    /// Host↔GPU link used by zero-copy accesses.
    pub gpu_link: LinkSpec,
    /// Whether to charge the initial file-loading phase (the paper reports
    /// Target both ways; end-to-end comparisons include it).
    pub include_load_time: bool,
}

impl TargetSystem {
    /// The configuration used in Figure 7: load from the same SSD array BaM
    /// uses, then serve zero-copy accesses over Gen4 ×16.
    pub fn prototype(storage: SsdArrayModel) -> Self {
        Self {
            gpu: GpuRateModel::a100(),
            cpu: CpuStackModel::epyc_host(),
            storage,
            gpu_link: LinkSpec::gen4_x16(),
            include_load_time: true,
        }
    }

    /// Seconds to load the dataset file from storage into host memory.
    fn load_time_s(&self, demand: &AccessDemand) -> f64 {
        // Sequential file read: large blocks, so the device bandwidth and the
        // host link are the limits, plus the CPU issue cost at 1 MiB I/Os.
        let chunk = 1 << 20;
        let reqs = demand.dataset_bytes.div_ceil(chunk);
        let device = self.storage.read_time_s(reqs, chunk, 1 << 16);
        let cpu = self.cpu.io_issue_time_s(reqs);
        device.max(cpu)
    }

    /// Seconds of the GPU compute phase: compute overlapped with zero-copy
    /// traffic for the bytes actually touched.
    fn compute_phase_s(&self, demand: &AccessDemand) -> f64 {
        let compute = self.gpu.compute_time_s(demand.compute_ops);
        let traffic = demand.bytes_touched as f64 / self.gpu_link.effective_bandwidth_bps();
        compute.max(traffic)
    }

    /// End-to-end execution breakdown.
    pub fn evaluate(&self, demand: &AccessDemand) -> ExecutionBreakdown {
        let load = if self.include_load_time {
            self.load_time_s(demand)
        } else {
            0.0
        };
        // Reported with the storage (load) component exposed, compute-phase
        // time under "compute", and no cache-API component.
        ExecutionBreakdown::serial(self.compute_phase_s(demand), 0.0, load)
    }

    /// Effective PCIe bandwidth achieved by the zero-copy compute phase in
    /// GB/s — the "ZeroCopy" series of Figure 15.
    pub fn zerocopy_bandwidth_gbps(&self, demand: &AccessDemand) -> f64 {
        let t = self.compute_phase_s(demand);
        if t == 0.0 {
            return 0.0;
        }
        demand.bytes_touched as f64 / t / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bam_nvme_sim::SsdSpec;

    fn demand_32gb() -> AccessDemand {
        let mut d = AccessDemand::for_dataset(32 << 30);
        d.bytes_touched = 24 << 30;
        d.compute_ops = 4_000_000_000;
        d
    }

    #[test]
    fn load_time_dominates_for_graph_scale_datasets() {
        let storage = SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), 4);
        let t = TargetSystem::prototype(storage);
        let d = demand_32gb();
        let load = t.load_time_s(&d);
        let compute = t.compute_phase_s(&d);
        // Loading 32 GB over ~4 SSDs takes seconds; this is the "initial file
        // loading can be the main performance bottleneck" observation (§2.1).
        assert!(load > 1.0, "load={load}");
        assert!(load > compute * 0.3);
        let b = t.evaluate(&d);
        assert!((b.total_s() - (load + compute)).abs() < 1e-9);
    }

    #[test]
    fn excluding_load_time_reduces_total() {
        let storage = SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), 4);
        let mut t = TargetSystem::prototype(storage);
        let with_load = t.evaluate(&demand_32gb()).total_s();
        t.include_load_time = false;
        let without = t.evaluate(&demand_32gb()).total_s();
        assert!(with_load > without);
    }

    #[test]
    fn zerocopy_bandwidth_capped_by_pcie() {
        let storage = SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), 4);
        let t = TargetSystem::prototype(storage);
        let mut d = demand_32gb();
        d.compute_ops = 0; // pure traffic
        let bw = t.zerocopy_bandwidth_gbps(&d);
        assert!(bw <= LinkSpec::gen4_x16().effective_bandwidth_gbps() + 1e-9);
        assert!(bw > 20.0);
    }
}

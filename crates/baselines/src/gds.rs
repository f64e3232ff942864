//! NVIDIA GPUDirect Storage model (Fig 5 baseline).
//!
//! GDS removes the CPU *data* path (SSD DMA goes straight to GPU memory) but
//! keeps the CPU *control* path: every I/O is issued through the Linux
//! storage stack by CPU threads. The paper's fio-based measurement shows GDS
//! saturating the GPU's PCIe link only at I/O sizes of 32 KB and above,
//! reaching just 23.6 % of link bandwidth at 4 KB.

use bam_pcie::{LinkSpec, TransferModel};
use bam_timing::{CpuStackModel, SsdArrayModel};

/// The GPUDirect Storage system.
#[derive(Debug, Clone)]
pub struct GdsModel {
    /// CPU software stack issuing the I/Os.
    pub cpu: CpuStackModel,
    /// The SSD array data is read from.
    pub storage: SsdArrayModel,
    /// The GPU's PCIe link.
    pub gpu_link: LinkSpec,
}

impl GdsModel {
    /// The Fig 5 configuration: 4 SSDs, 16 CPU threads driving fio.
    pub fn prototype(storage: SsdArrayModel) -> Self {
        Self {
            cpu: CpuStackModel::epyc_host(),
            storage,
            gpu_link: LinkSpec::gen4_x16(),
        }
    }

    /// Seconds to transfer `total_bytes` sequentially at `io_bytes`
    /// granularity.
    fn transfer_time_s(&self, total_bytes: u64, io_bytes: u64) -> f64 {
        let transfers = total_bytes.div_ceil(io_bytes);
        // CPU issue path limits small I/Os; wire and device limit large ones.
        let issue = TransferModel::with_overhead(
            self.gpu_link,
            self.cpu.io_software_overhead_us,
            self.cpu.io_threads,
        )
        .total_seconds(transfers, io_bytes);
        let device = self.storage.read_time_s(transfers, io_bytes, 1 << 16);
        issue.max(device)
    }

    /// Achieved bandwidth (GB/s) for the given granularity — one point of the
    /// GDS series in Figure 5.
    pub fn achieved_bandwidth_gbps(&self, total_bytes: u64, io_bytes: u64) -> f64 {
        total_bytes as f64 / self.transfer_time_s(total_bytes, io_bytes) / 1e9
    }

    /// Fraction of the GPU link's peak achieved at the given granularity.
    pub fn link_utilization(&self, total_bytes: u64, io_bytes: u64) -> f64 {
        self.achieved_bandwidth_gbps(total_bytes, io_bytes)
            / self.gpu_link.effective_bandwidth_gbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bam_nvme_sim::SsdSpec;

    fn gds() -> GdsModel {
        GdsModel::prototype(SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), 4))
    }

    #[test]
    fn fig5_shape_small_ios_cannot_saturate() {
        let g = gds();
        let total = 128u64 << 30;
        let at_4k = g.link_utilization(total, 4 << 10);
        let at_32k = g.link_utilization(total, 32 << 10);
        let at_256k = g.link_utilization(total, 256 << 10);
        // Paper: 23.6% at 4KB, saturation from 32KB upward.
        assert!((0.1..0.45).contains(&at_4k), "4KB util {at_4k}");
        assert!(at_32k > 0.8, "32KB util {at_32k}");
        assert!(at_256k > 0.9, "256KB util {at_256k}");
        assert!(at_4k < at_32k && at_32k <= at_256k + 1e-9);
    }

    #[test]
    fn sweep_is_monotone() {
        let g = gds();
        let sweep: Vec<f64> = [4096, 8192, 16384, 32768, 65536]
            .iter()
            .map(|&io| g.link_utilization(16 << 30, io))
            .collect();
        for pair in sweep.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9);
        }
    }
}

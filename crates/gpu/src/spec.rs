//! GPU hardware specifications.

use bam_pcie::LinkSpec;

/// Resource envelope of a GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum registers addressable per thread.
    pub max_registers_per_thread: u32,
    /// HBM capacity in bytes.
    pub memory_bytes: u64,
    /// HBM bandwidth in GB/s.
    pub memory_bandwidth_gbps: f64,
    /// Host PCIe link.
    pub pcie: LinkSpec,
}

impl GpuSpec {
    /// The NVIDIA A100-80GB PCIe card used in the prototype (Table 1).
    pub fn a100_80gb() -> Self {
        Self {
            name: "NVIDIA A100-80GB PCIe".into(),
            num_sms: 108,
            max_threads_per_sm: 2048,
            registers_per_sm: 65_536,
            max_registers_per_thread: 255,
            memory_bytes: 80 << 30,
            memory_bandwidth_gbps: 2039.0,
            pcie: LinkSpec::gen4_x16(),
        }
    }

    /// Maximum resident threads per SM when each thread uses
    /// `registers_per_thread` registers (the occupancy limiter discussed with
    /// Figure 13). The result is quantized to whole warps.
    pub fn occupancy_threads_per_sm(&self, registers_per_thread: u32) -> u32 {
        if registers_per_thread == 0 {
            return self.max_threads_per_sm;
        }
        let by_registers = self.registers_per_sm / registers_per_thread;
        let quantized = (by_registers / 32) * 32;
        quantized.min(self.max_threads_per_sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_envelope() {
        let g = GpuSpec::a100_80gb();
        assert_eq!(g.memory_bytes, 80 << 30);
        assert!(g.pcie.effective_bandwidth_gbps() > 20.0);
    }

    #[test]
    fn occupancy_drops_with_register_pressure() {
        let g = GpuSpec::a100_80gb();
        assert_eq!(g.occupancy_threads_per_sm(0), 2048);
        assert_eq!(g.occupancy_threads_per_sm(32), 2048);
        let at_64 = g.occupancy_threads_per_sm(64);
        let at_128 = g.occupancy_threads_per_sm(128);
        let at_255 = g.occupancy_threads_per_sm(255);
        assert!(at_64 <= 1024 && at_64 > at_128);
        assert!(at_128 > at_255);
        assert_eq!(at_255 % 32, 0);
    }
}

//! PCIe link specifications.

/// PCIe generation (signalling rate per lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcieGeneration {
    /// PCIe 3.0 — 8 GT/s per lane (~0.985 GB/s usable per lane).
    Gen3,
    /// PCIe 4.0 — 16 GT/s per lane (~1.969 GB/s usable per lane).
    Gen4,
    /// PCIe 5.0 — 32 GT/s per lane.
    Gen5,
}

impl PcieGeneration {
    /// Raw per-lane bandwidth in GB/s after 128b/130b encoding, before
    /// protocol overhead.
    fn per_lane_gbps(self) -> f64 {
        match self {
            PcieGeneration::Gen3 => 0.985,
            PcieGeneration::Gen4 => 1.969,
            PcieGeneration::Gen5 => 3.938,
        }
    }
}

/// A PCIe link: generation × lane count, with an efficiency factor capturing
/// TLP/DLLP protocol overhead.
///
/// The paper measures ~26 GB/s on the A100's Gen4 ×16 link and ~25 GB/s
/// delivered to the application (Fig 5); [`LinkSpec::gen4_x16`] reproduces
/// that envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Link generation.
    pub generation: PcieGeneration,
    /// Number of lanes (1, 2, 4, 8, 16).
    pub lanes: u8,
    /// Fraction of raw bandwidth actually achievable by DMA traffic
    /// (protocol + payload efficiency). The paper's measured 26 GB/s on a
    /// 31.5 GB/s raw Gen4 ×16 link corresponds to ~0.82.
    pub efficiency: f64,
    /// One-way link latency in microseconds (switch + flight time). Doorbell
    /// writes and small MMIO reads are dominated by this.
    pub latency_us: f64,
}

impl LinkSpec {
    /// The GPU's host link in the BaM prototype: Gen4 ×16, ~26 GB/s measured.
    pub fn gen4_x16() -> Self {
        Self {
            generation: PcieGeneration::Gen4,
            lanes: 16,
            efficiency: 0.82,
            latency_us: 0.9,
        }
    }

    /// A single NVMe SSD's link: Gen4 ×4, ~6.5 GB/s raw.
    pub fn gen4_x4() -> Self {
        Self {
            generation: PcieGeneration::Gen4,
            lanes: 4,
            efficiency: 0.82,
            latency_us: 0.9,
        }
    }

    /// Raw bandwidth in GB/s (lanes × per-lane rate).
    fn raw_bandwidth_gbps(&self) -> f64 {
        self.generation.per_lane_gbps() * f64::from(self.lanes)
    }

    /// Bandwidth achievable by bulk DMA in GB/s.
    pub fn effective_bandwidth_gbps(&self) -> f64 {
        self.raw_bandwidth_gbps() * self.efficiency
    }

    /// Effective bandwidth in bytes per second.
    pub fn effective_bandwidth_bps(&self) -> f64 {
        self.effective_bandwidth_gbps() * 1e9
    }

    /// Time in seconds to move `bytes` across this link at full utilization,
    /// excluding per-transfer latency.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.effective_bandwidth_bps()
    }

    /// Maximum IOPS the link can carry for accesses of `access_bytes` each.
    ///
    /// This is the Little's-law "T" term from §2.2 of the paper: a ×16 Gen4
    /// link at ~26 GB/s supports ~51 M/s 512 B accesses and ~6.35 M/s 4 KB
    /// accesses.
    pub fn max_iops(&self, access_bytes: u64) -> f64 {
        self.effective_bandwidth_bps() / access_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen4_x16_matches_paper_envelope() {
        let l = LinkSpec::gen4_x16();
        let bw = l.effective_bandwidth_gbps();
        assert!((24.0..28.0).contains(&bw), "bw={bw}");
        // §2.2: 26 GB/s / 512 B ≈ 51 M/s, / 4 KB ≈ 6.35 M/s.
        let iops_512 = l.max_iops(512) / 1e6;
        let iops_4k = l.max_iops(4096) / 1e6;
        assert!((45.0..55.0).contains(&iops_512), "{iops_512}");
        assert!((5.5..7.0).contains(&iops_4k), "{iops_4k}");
    }

    #[test]
    fn x4_is_quarter_of_x16() {
        let x16 = LinkSpec::gen4_x16().effective_bandwidth_gbps();
        let x4 = LinkSpec::gen4_x4().effective_bandwidth_gbps();
        assert!((x16 / x4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let l = LinkSpec::gen4_x16();
        let t1 = l.transfer_seconds(1 << 30);
        let t2 = l.transfer_seconds(2 << 30);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn generations_ordered() {
        assert!(PcieGeneration::Gen5.per_lane_gbps() > PcieGeneration::Gen4.per_lane_gbps());
        assert!(PcieGeneration::Gen4.per_lane_gbps() > PcieGeneration::Gen3.per_lane_gbps());
    }
}

//! SSD technology specifications (paper Table 2).

/// The storage technology behind a device, ordered roughly by latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SsdTechnology {
    /// Host DRAM exposed as a pseudo block device (cost baseline only).
    Dram,
    /// Intel Optane (3D XPoint) — lowest latency, highest endurance.
    Optane,
    /// Samsung Z-NAND — low-latency SLC-like NAND.
    ZNand,
    /// Consumer/datacenter NAND flash (TLC).
    NandFlash,
}

/// Performance, endurance, and cost envelope of one device model.
///
/// Numbers are taken from Table 2 of the paper and are used both to
/// parameterize the analytical timing model and to regenerate Table 2
/// itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdSpec {
    /// Marketing name of the device.
    pub name: String,
    /// Underlying media technology.
    pub technology: SsdTechnology,
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Peak random-read IOPS at 512 B.
    pub read_iops_512: f64,
    /// Peak random-read IOPS at 4 KB.
    pub read_iops_4k: f64,
    /// Peak random-write IOPS at 512 B.
    pub write_iops_512: f64,
    /// Peak random-write IOPS at 4 KB.
    pub write_iops_4k: f64,
    /// Average read latency at full throughput, in microseconds.
    pub read_latency_us: f64,
    /// Average write latency at full throughput, in microseconds.
    pub write_latency_us: f64,
    /// Drive writes per day endurance rating.
    pub dwpd: f64,
    /// Street price per GB in USD (device + share of expansion hardware).
    pub cost_per_gb: f64,
    /// Maximum number of I/O queue pairs the controller exposes.
    pub max_queue_pairs: u32,
    /// Maximum queue depth per queue pair.
    pub max_queue_depth: u32,
}

impl SsdSpec {
    /// Intel Optane P5800X (Table 2 row "Optane").
    pub fn intel_optane_p5800x() -> Self {
        Self {
            name: "Intel Optane P5800X".into(),
            technology: SsdTechnology::Optane,
            capacity_bytes: 1600 << 30,
            read_iops_512: 5.1e6,
            read_iops_4k: 1.5e6,
            write_iops_512: 1.0e6,
            write_iops_4k: 1.5e6,
            read_latency_us: 11.0,
            write_latency_us: 11.0,
            dwpd: 100.0,
            cost_per_gb: 2.54,
            max_queue_pairs: 128,
            max_queue_depth: 1024,
        }
    }

    /// Samsung PM1735 (Z-NAND; Table 2 row "Z-NAND").
    pub fn samsung_pm1735() -> Self {
        Self {
            name: "Samsung PM1735".into(),
            technology: SsdTechnology::ZNand,
            capacity_bytes: 1600 << 30,
            read_iops_512: 1.1e6,
            read_iops_4k: 1.6e6,
            write_iops_512: 351e3,
            write_iops_4k: 351e3,
            read_latency_us: 25.0,
            write_latency_us: 25.0,
            dwpd: 3.0,
            cost_per_gb: 2.56,
            max_queue_pairs: 128,
            max_queue_depth: 1024,
        }
    }

    /// Samsung 980pro (consumer NAND flash; Table 2 row "NAND Flash").
    pub fn samsung_980pro() -> Self {
        Self {
            name: "Samsung 980pro".into(),
            technology: SsdTechnology::NandFlash,
            capacity_bytes: 1000 << 30,
            read_iops_512: 750e3,
            read_iops_4k: 750e3,
            write_iops_512: 172e3,
            write_iops_4k: 172e3,
            read_latency_us: 324.0,
            write_latency_us: 324.0,
            dwpd: 0.3,
            cost_per_gb: 0.51,
            max_queue_pairs: 128,
            max_queue_depth: 1024,
        }
    }

    /// DDR4 DRAM DIMM pseudo-device (Table 2 row "DRAM"); used only for the
    /// cost/performance comparison and the DRAM-only baselines.
    fn dram_dimm() -> Self {
        Self {
            name: "DDR4-3200 DIMM".into(),
            technology: SsdTechnology::Dram,
            capacity_bytes: 64 << 30,
            read_iops_512: 10.0e6,
            read_iops_4k: 10.0e6,
            write_iops_512: 10.0e6,
            write_iops_4k: 10.0e6,
            read_latency_us: 0.1,
            write_latency_us: 0.1,
            dwpd: 1000.0,
            cost_per_gb: 11.13,
            max_queue_pairs: 128,
            max_queue_depth: 1024,
        }
    }

    /// All Table 2 rows, in the paper's order.
    pub fn table2() -> Vec<Self> {
        vec![
            Self::dram_dimm(),
            Self::intel_optane_p5800x(),
            Self::samsung_pm1735(),
            Self::samsung_980pro(),
        ]
    }

    /// Peak read IOPS for a given access size in bytes (piecewise between the
    /// 512 B and 4 KB points, bandwidth-limited above 4 KB).
    pub fn read_iops(&self, access_bytes: u64) -> f64 {
        Self::interp_iops(access_bytes, self.read_iops_512, self.read_iops_4k)
    }

    /// Peak write IOPS for a given access size in bytes.
    pub fn write_iops(&self, access_bytes: u64) -> f64 {
        Self::interp_iops(access_bytes, self.write_iops_512, self.write_iops_4k)
    }

    fn interp_iops(access_bytes: u64, iops_512: f64, iops_4k: f64) -> f64 {
        if access_bytes <= 512 {
            iops_512
        } else if access_bytes >= 4096 {
            // Above 4 KB the device is bandwidth-bound: scale IOPS down so
            // that bytes/s stays at the 4 KB level.
            iops_4k * 4096.0 / access_bytes as f64
        } else {
            // Log-linear interpolation between the two published points.
            let t = ((access_bytes as f64).ln() - 512f64.ln()) / (4096f64.ln() - 512f64.ln());
            iops_512 + t * (iops_4k - iops_512)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iops_interpolation_is_monotone_and_bounded() {
        let s = SsdSpec::intel_optane_p5800x();
        assert_eq!(s.read_iops(512), s.read_iops_512);
        assert_eq!(s.read_iops(4096), s.read_iops_4k);
        let mid = s.read_iops(2048);
        assert!(mid < s.read_iops_512 && mid > s.read_iops_4k);
        // Above 4 KB bandwidth stays constant.
        let bw_4k = s.read_iops(4096) * 4096.0;
        let bw_8k = s.read_iops(8192) * 8192.0;
        assert!((bw_4k - bw_8k).abs() / bw_4k < 1e-9);
    }

    #[test]
    fn optane_is_fastest_nand_is_cheapest() {
        let optane = SsdSpec::intel_optane_p5800x();
        let znand = SsdSpec::samsung_pm1735();
        let nand = SsdSpec::samsung_980pro();
        assert!(optane.read_latency_us < znand.read_latency_us);
        assert!(znand.read_latency_us < nand.read_latency_us);
        assert!(nand.cost_per_gb < optane.cost_per_gb);
        assert!(nand.cost_per_gb < znand.cost_per_gb);
    }

    #[test]
    fn table2_has_four_rows() {
        assert_eq!(SsdSpec::table2().len(), 4);
    }
}

//! Cost model behind Table 2 and the "21.7× cheaper than DRAM" headline.

use bam_nvme_sim::SsdSpec;

/// Hardware cost model: each device's $/GB against host DRAM's (the
/// DRAM-only baselines). Table 2's $/GB figures already include the share
/// of the PCIe expansion chassis.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// DRAM price per GB (Table 2).
    pub dram_cost_per_gb: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            dram_cost_per_gb: 11.13,
        }
    }
}

impl CostModel {
    /// Renders Table 2 as rows of
    /// `(name, read IOPS @512B/4K, write IOPS @512B/4K, latency, DWPD, $/GB, gain)`.
    pub fn table2_rows(&self) -> Vec<Table2Row> {
        SsdSpec::table2()
            .into_iter()
            .map(|s| Table2Row {
                gain: self.dram_cost_per_gb / s.cost_per_gb,
                name: s.name.clone(),
                read_iops_512: s.read_iops_512,
                read_iops_4k: s.read_iops_4k,
                write_iops_512: s.write_iops_512,
                write_iops_4k: s.write_iops_4k,
                latency_us: s.read_latency_us,
                dwpd: s.dwpd,
                cost_per_gb: s.cost_per_gb,
            })
            .collect()
    }
}

/// One row of the regenerated Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Device name.
    pub name: String,
    /// Random-read IOPS at 512 B.
    pub read_iops_512: f64,
    /// Random-read IOPS at 4 KB.
    pub read_iops_4k: f64,
    /// Random-write IOPS at 512 B.
    pub write_iops_512: f64,
    /// Random-write IOPS at 4 KB.
    pub write_iops_4k: f64,
    /// Access latency in microseconds.
    pub latency_us: f64,
    /// Drive writes per day.
    pub dwpd: f64,
    /// Price per GB in USD.
    pub cost_per_gb: f64,
    /// Cost gain relative to DRAM.
    pub gain: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_match_the_paper() {
        // Paper: Optane 4.4x, Z-NAND 4.3x, NAND flash 21.8x; the abstract's
        // "reducing hardware costs by up to 21.7x" is the NAND flash row.
        let rows = CostModel::default().table2_rows();
        assert_eq!(rows.len(), 4);
        let expected = [(1.0, 1e-9), (4.38, 0.1), (4.35, 0.1), (21.8, 0.5)];
        for (row, (gain, tolerance)) in rows.iter().zip(expected) {
            assert!(
                (row.gain - gain).abs() < tolerance,
                "{}: {}",
                row.name,
                row.gain
            );
        }
    }
}

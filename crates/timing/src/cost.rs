//! Cost model behind Table 2 and the "21.7× cheaper than DRAM" headline.

use bam_nvme_sim::SsdSpec;

/// Hardware cost model for provisioning a given dataset capacity either in
/// host DRAM (the DRAM-only baselines) or on an SSD array (BaM).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// DRAM price per GB (Table 2).
    pub dram_cost_per_gb: f64,
    /// Fixed cost of the PCIe expansion chassis + risers, in USD, amortized
    /// over the SSDs it hosts. Table 2's $/GB figures already include this
    /// share; the explicit field lets sensitivity studies vary it.
    pub expansion_chassis_usd: f64,
    /// Number of SSDs the chassis hosts when amortizing its cost.
    pub chassis_ssd_slots: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            dram_cost_per_gb: 11.13,
            expansion_chassis_usd: 0.0,
            chassis_ssd_slots: 20,
        }
    }
}

impl CostModel {
    /// Cost in USD of provisioning `capacity_gb` of host DRAM.
    pub fn dram_cost_usd(&self, capacity_gb: f64) -> f64 {
        capacity_gb * self.dram_cost_per_gb
    }

    /// Cost in USD of provisioning `capacity_gb` on devices of `spec`
    /// (device cost includes the chassis share per Table 2, plus any extra
    /// chassis cost configured here).
    pub fn ssd_cost_usd(&self, spec: &SsdSpec, capacity_gb: f64) -> f64 {
        let device_cost = capacity_gb * spec.cost_per_gb;
        let num_devices = (capacity_gb * 1e9 / spec.capacity_bytes as f64).ceil();
        let chassis_share = self.expansion_chassis_usd / f64::from(self.chassis_ssd_slots);
        device_cost + num_devices * chassis_share
    }

    /// Cost advantage of an SSD solution over DRAM for the same capacity
    /// (Table 2 "Gain" column; 4.3–21.8×).
    pub fn gain_vs_dram(&self, spec: &SsdSpec, capacity_gb: f64) -> f64 {
        self.dram_cost_usd(capacity_gb) / self.ssd_cost_usd(spec, capacity_gb)
    }

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
    fn headline_cost_ratio() {
        // The abstract's "reducing hardware costs by up to 21.7x" comes from
        // the consumer NAND flash row.
        let m = CostModel::default();
        let gain = m.gain_vs_dram(&SsdSpec::samsung_980pro(), 10_000.0);
        assert!((20.0..23.0).contains(&gain), "gain={gain}");
    }

    #[test]
    fn optane_gain_is_over_4x() {
        let m = CostModel::default();
        let gain = m.gain_vs_dram(&SsdSpec::intel_optane_p5800x(), 10_000.0);
        assert!((4.0..5.0).contains(&gain), "gain={gain}");
    }

    #[test]
    fn chassis_cost_reduces_gain() {
        let base = CostModel::default();
        let pricey = CostModel {
            expansion_chassis_usd: 40_000.0,
            ..CostModel::default()
        };
        let spec = SsdSpec::samsung_980pro();
        assert!(pricey.gain_vs_dram(&spec, 10_000.0) < base.gain_vs_dram(&spec, 10_000.0));
    }

    #[test]
    fn table2_rows_complete() {
        let rows = CostModel::default().table2_rows();
        assert_eq!(rows.len(), 4);
        assert!((rows[0].gain - 1.0).abs() < 1e-9, "DRAM row gain is 1.0");
    }
}

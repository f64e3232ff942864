//! Achievable throughput of an SSD array behind a PCIe switch.

use bam_nvme_sim::SsdSpec;
use bam_pcie::LinkSpec;

use crate::littles::achievable_throughput;

/// Peak command rate one NVMe queue pair can sustain.
///
/// Every queue pair serializes doorbell updates and head/tail maintenance; the
/// paper observes that BaM's performance only starts degrading below ~40
/// queue pairs for a 4-SSD configuration sustaining ~6 M IOPS (Fig 11),
/// i.e. ≈150 K IOPS per queue pair.
pub const PER_QUEUE_PAIR_IOPS: f64 = 150.0e3;

/// Analytical throughput model of `num_ssds` identical SSDs attached to a GPU
/// through per-device ×4 links and a shared GPU-side ×16 link.
#[derive(Debug, Clone)]
pub struct SsdArrayModel {
    /// Device specification (Table 2 row).
    pub spec: SsdSpec,
    /// Number of devices in the array.
    pub num_ssds: usize,
    /// Per-device PCIe link.
    pub ssd_link: LinkSpec,
    /// GPU-side PCIe link shared by all devices.
    pub gpu_link: LinkSpec,
    /// Total number of NVMe queue pairs across the array.
    pub queue_pairs: u32,
    /// Queue depth per queue pair.
    pub queue_depth: u32,
}

impl SsdArrayModel {
    /// A model of the BaM prototype's storage side: `num_ssds` devices of
    /// `spec`, 128 queue pairs of depth 1024 per device, Gen4 links.
    pub fn prototype(spec: SsdSpec, num_ssds: usize) -> Self {
        Self {
            queue_pairs: spec.max_queue_pairs * num_ssds as u32,
            queue_depth: spec.max_queue_depth,
            spec,
            num_ssds,
            ssd_link: LinkSpec::gen4_x4(),
            gpu_link: LinkSpec::gen4_x16(),
        }
    }

    /// Replaces the total queue-pair count (used by the Fig 11 sweep).
    pub fn with_queue_pairs(mut self, queue_pairs: u32) -> Self {
        self.queue_pairs = queue_pairs;
        self
    }

    /// Maximum in-flight requests the queues can hold.
    fn max_outstanding(&self) -> u64 {
        u64::from(self.queue_pairs) * u64::from(self.queue_depth)
    }

    /// Peak read IOPS of the array for `access_bytes` accesses, before
    /// considering parallelism: bounded by media, per-device link, GPU link,
    /// and queue-pair protocol serialization.
    pub fn peak_read_iops(&self, access_bytes: u64) -> f64 {
        let media = self.spec.read_iops(access_bytes) * self.num_ssds as f64;
        let ssd_links = self.ssd_link.max_iops(access_bytes) * self.num_ssds as f64;
        let gpu_link = self.gpu_link.max_iops(access_bytes);
        let queues = f64::from(self.queue_pairs) * PER_QUEUE_PAIR_IOPS;
        media.min(ssd_links).min(gpu_link).min(queues)
    }

    /// Peak write IOPS of the array for `access_bytes` accesses.
    fn peak_write_iops(&self, access_bytes: u64) -> f64 {
        let media = self.spec.write_iops(access_bytes) * self.num_ssds as f64;
        let ssd_links = self.ssd_link.max_iops(access_bytes) * self.num_ssds as f64;
        let gpu_link = self.gpu_link.max_iops(access_bytes);
        let queues = f64::from(self.queue_pairs) * PER_QUEUE_PAIR_IOPS;
        media.min(ssd_links).min(gpu_link).min(queues)
    }

    /// Read IOPS achieved with `in_flight` concurrently outstanding requests
    /// (Little's-law limited below the knee, peak above it).
    pub fn read_iops(&self, access_bytes: u64, in_flight: u64) -> f64 {
        let in_flight = in_flight.min(self.max_outstanding()) as f64;
        achievable_throughput(
            in_flight,
            self.spec.read_latency_us,
            self.peak_read_iops(access_bytes),
        )
    }

    /// Write IOPS achieved with `in_flight` concurrently outstanding requests.
    pub fn write_iops(&self, access_bytes: u64, in_flight: u64) -> f64 {
        let in_flight = in_flight.min(self.max_outstanding()) as f64;
        achievable_throughput(
            in_flight,
            self.spec.write_latency_us,
            self.peak_write_iops(access_bytes),
        )
    }

    /// Time in seconds to serve `num_requests` random reads of `access_bytes`
    /// with `in_flight` requests kept outstanding.
    pub fn read_time_s(&self, num_requests: u64, access_bytes: u64, in_flight: u64) -> f64 {
        if num_requests == 0 {
            return 0.0;
        }
        let iops = self.read_iops(access_bytes, in_flight);
        // Even a single request pays the device latency.
        (num_requests as f64 / iops).max(self.spec.read_latency_us * 1e-6)
    }

    /// Time in seconds to serve `num_requests` random writes.
    pub fn write_time_s(&self, num_requests: u64, access_bytes: u64, in_flight: u64) -> f64 {
        if num_requests == 0 {
            return 0.0;
        }
        let iops = self.write_iops(access_bytes, in_flight);
        (num_requests as f64 / iops).max(self.spec.write_latency_us * 1e-6)
    }

    /// Time for a mixed read+write demand, assuming reads and writes share
    /// the devices (sum of service demands).
    pub fn mixed_time_s(&self, reads: u64, writes: u64, access_bytes: u64, in_flight: u64) -> f64 {
        self.read_time_s(reads, access_bytes, in_flight)
            + self.write_time_s(writes, access_bytes, in_flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optane(n: usize) -> SsdArrayModel {
        SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), n)
    }

    #[test]
    fn ten_optane_reach_paper_peak_iops() {
        // §4.3: 10 Optane SSDs reach 45.8M read IOPS at 512B (90% of the
        // measured Gen4 x16 peak) and ~10.6M write IOPS.
        let m = optane(10);
        let read = m.read_iops(512, 1 << 22) / 1e6;
        let write = m.write_iops(512, 1 << 22) / 1e6;
        assert!((40.0..52.0).contains(&read), "read {read} MIOPS");
        assert!((9.0..11.0).contains(&write), "write {write} MIOPS");
    }

    #[test]
    fn single_ssd_read_iops_match_spec() {
        let m = optane(1);
        let iops = m.read_iops(512, 1 << 20);
        assert!((iops / 5.1e6 - 1.0).abs() < 0.01, "{iops}");
    }

    #[test]
    fn scaling_is_linear_until_gpu_link() {
        let one = optane(1).read_iops(512, 1 << 22);
        let four = optane(4).read_iops(512, 1 << 22);
        let ten = optane(10).read_iops(512, 1 << 22);
        assert!((four / one - 4.0).abs() < 0.05);
        // Ten SSDs would be 51M by media but the x16 link caps near 50M;
        // still at least 9x of one SSD.
        assert!(ten / one > 8.9);
    }

    #[test]
    fn few_threads_cannot_saturate() {
        // Fig 4 / §4.3: it takes ~16K-64K threads (in-flight requests) to
        // reach peak on one SSD; with only 1024 in flight throughput is lower.
        let m = optane(1);
        let peak = m.read_iops(512, 1 << 20);
        // 16 requests in flight over 11 µs ≈ 1.45 M/s, well below the 5.1 M
        // peak — the left edge of the Fig 4 curves.
        let tiny = m.read_iops(512, 16);
        assert!(tiny < peak * 0.5, "tiny={tiny} peak={peak}");
        // 1024 in flight is already enough for one Optane SSD, matching the
        // paper's note that only 16K-64K GPU threads saturate one drive.
        assert!((m.read_iops(512, 1024) / peak - 1.0).abs() < 1e-9);
    }

    #[test]
    fn queue_pair_sweep_matches_fig11_shape() {
        // With 4 SSDs at 4KB, peak is ~6M IOPS; at 128..48 queue pairs the
        // queue term (150K * qp) is not the bottleneck, below ~40 it is.
        let base = SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), 4);
        let at_128 = base.clone().with_queue_pairs(128).read_iops(4096, 1 << 22);
        let at_48 = base.clone().with_queue_pairs(48).read_iops(4096, 1 << 22);
        let at_32 = base.clone().with_queue_pairs(32).read_iops(4096, 1 << 22);
        assert!((at_128 - at_48).abs() / at_128 < 0.05, "flat region");
        assert!(at_32 < at_128 * 0.9, "degrades below 40 QPs");
    }

    #[test]
    fn write_time_accounts_for_lower_write_iops() {
        let m = optane(1);
        let r = m.read_time_s(1_000_000, 512, 1 << 20);
        let w = m.write_time_s(1_000_000, 512, 1 << 20);
        assert!(w > r * 3.0, "Optane 512B write IOPS is ~5x lower than read");
    }

    #[test]
    fn nand_flash_array_is_slower_than_optane() {
        let o = SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), 4);
        let n = SsdArrayModel::prototype(SsdSpec::samsung_980pro(), 4);
        let t_o = o.read_time_s(10_000_000, 4096, 1 << 22);
        let t_n = n.read_time_s(10_000_000, 4096, 1 << 22);
        // Fig 9: 980pro is ~2.7-3.2x slower end to end; on pure storage time
        // the ratio is roughly the 4KB IOPS ratio (1.5M vs 750K) = 2x.
        assert!(t_n / t_o > 1.8, "ratio {}", t_n / t_o);
    }
}

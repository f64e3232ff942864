//! Transfer-time accounting over a PCIe path.

use crate::link::LinkSpec;

/// An analytical model of data movement over a single PCIe path.
///
/// Used by the timing layer to turn byte counts measured in the functional
/// simulation into transfer times, including the per-transaction overhead
/// that penalizes small transfers (the effect behind Fig 5: CPU-mediated GDS
/// pays a large fixed cost per I/O, so small granularities cannot saturate
/// the link).
#[derive(Debug, Clone, Copy)]
pub struct TransferModel {
    /// The bottleneck link of the path.
    pub link: LinkSpec,
    /// Fixed per-transaction overhead in microseconds (software + protocol).
    pub per_transfer_overhead_us: f64,
    /// Number of transfers that can be in flight concurrently (DMA engines /
    /// outstanding requests); overheads of concurrent transfers overlap.
    pub concurrency: u32,
}

impl TransferModel {
    /// A model with no per-transfer software overhead (pure DMA, fully
    /// pipelined) — the envelope BaM operates in.
    pub fn pipelined(link: LinkSpec, concurrency: u32) -> Self {
        Self {
            link,
            per_transfer_overhead_us: 0.0,
            concurrency: concurrency.max(1),
        }
    }

    /// A model with per-transfer overhead, e.g. a CPU software stack issuing
    /// each I/O (GDS / page-fault paths).
    pub fn with_overhead(link: LinkSpec, per_transfer_overhead_us: f64, concurrency: u32) -> Self {
        Self {
            link,
            per_transfer_overhead_us,
            concurrency: concurrency.max(1),
        }
    }

    /// Total time (seconds) to move `num_transfers` transfers of
    /// `transfer_bytes` each.
    ///
    /// Wire time uses the full link bandwidth; overhead time is serialized
    /// over the available concurrency; the two overlap, so the result is the
    /// max of the two — the standard bandwidth/overhead bound.
    pub fn total_seconds(&self, num_transfers: u64, transfer_bytes: u64) -> f64 {
        let wire = self
            .link
            .transfer_seconds(num_transfers.saturating_mul(transfer_bytes));
        let overhead = (num_transfers as f64 * self.per_transfer_overhead_us * 1e-6)
            / f64::from(self.concurrency);
        wire.max(overhead)
    }

    /// Achieved bandwidth in GB/s for the given transfer pattern.
    pub fn achieved_bandwidth_gbps(&self, num_transfers: u64, transfer_bytes: u64) -> f64 {
        let secs = self.total_seconds(num_transfers, transfer_bytes);
        if secs == 0.0 {
            return 0.0;
        }
        (num_transfers as f64 * transfer_bytes as f64) / secs / 1e9
    }

    /// Fraction of the link's effective bandwidth achieved for the pattern.
    pub fn utilization(&self, num_transfers: u64, transfer_bytes: u64) -> f64 {
        self.achieved_bandwidth_gbps(num_transfers, transfer_bytes)
            / self.link.effective_bandwidth_gbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_model_saturates_at_any_granularity() {
        let m = TransferModel::pipelined(LinkSpec::gen4_x16(), 1024);
        for shift in [12u32, 14, 16, 18] {
            let sz = 1u64 << shift;
            let n = (128u64 << 30) / sz;
            let util = m.utilization(n, sz);
            assert!(util > 0.99, "granularity {sz}: util {util}");
        }
    }

    #[test]
    fn overhead_model_penalizes_small_transfers() {
        // 16 CPU threads each taking ~20 us of software time per I/O — the
        // regime GDS operates in for Fig 5.
        let m = TransferModel::with_overhead(LinkSpec::gen4_x16(), 20.0, 16);
        let total: u64 = 128 << 30;
        let util_4k = m.utilization(total / 4096, 4096);
        let util_256k = m.utilization(total / (256 * 1024), 256 * 1024);
        assert!(util_4k < 0.35, "4KB util {util_4k}");
        assert!(util_256k > 0.9, "256KB util {util_256k}");
        assert!(util_256k > util_4k * 2.5);
    }

    #[test]
    fn bandwidth_is_monotonic_in_granularity_under_overhead() {
        let m = TransferModel::with_overhead(LinkSpec::gen4_x16(), 20.0, 16);
        let total: u64 = 16 << 30;
        let mut prev = 0.0;
        for shift in 12..=18 {
            let sz = 1u64 << shift;
            let bw = m.achieved_bandwidth_gbps(total / sz, sz);
            assert!(bw >= prev);
            prev = bw;
        }
    }
}

//! Per-request pipeline parameters, derived from the Table-2 device specs
//! and the PCIe link specs.
//!
//! A request's life (paper Figure 2) is modelled as five stages:
//!
//! ```text
//! queue pair ──▶ controller fetch ──▶ media ──▶ SSD link ──▶ GPU link ──▶ CQ
//!  (serialized)     (pure delay)    (c channels)  (per-dev)    (shared)
//! ```
//!
//! Stage means are chosen so the *unloaded* end-to-end latency equals the
//! spec's published average latency, and stage capacities so the saturated
//! throughput matches the analytic envelope in [`bam_timing::ssd`]:
//!
//! * each queue pair forwards a command after a short protocol window but
//!   stays busy for `1 / PER_QUEUE_PAIR_IOPS` — the Fig-11 serialization —
//!   so per-QP latency stays small while per-QP throughput is capped;
//! * the media has `ceil(peak_iops × mean_service)` parallel channels, so
//!   its saturated rate reproduces the Table-2 IOPS points;
//! * each PCIe hop is a FIFO whose occupancy is `bytes / bandwidth`.

use bam_nvme_sim::{SsdSpec, SsdTechnology};
use bam_pcie::LinkSpec;
use bam_timing::ssd::PER_QUEUE_PAIR_IOPS;

use crate::dist::LatencyDist;
use crate::engine::SimError;

/// GPU-side protocol time to win an SQ slot, write the entry, and (amortized)
/// ring the doorbell, in nanoseconds.
const QP_FORWARD_NS: u64 = 200;

/// How the array's queue pairs are allocated among tenants in a multi-tenant
/// run ([`crate::engine::Run::tenants`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueuePairPolicy {
    /// Free-for-all: every tenant round-robins across every queue pair, so a
    /// bursty tenant's backlog sits in front of everyone else's commands.
    #[default]
    Shared,
    /// Weighted-fair: the global queue-pair space is partitioned among
    /// tenants in proportion to their weights ([`fair_shares`]); each tenant
    /// round-robins only within its own partition, so backlog stays with the
    /// tenant that caused it.
    ///
    /// Partitions are contiguous slices of the global queue-pair index
    /// space, and queue pairs map to devices as `qp / queue_pairs_per_ssd` —
    /// so when a tenant's share is smaller than the array, its media
    /// channels and per-device link are partitioned along with its queue
    /// pairs (an SR-IOV-style hard slice, not submission-slot arbitration
    /// over shared media).
    WeightedFair,
}

impl QueuePairPolicy {
    /// Short label used in printed tables and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            QueuePairPolicy::Shared => "shared",
            QueuePairPolicy::WeightedFair => "weighted-fair",
        }
    }
}

/// Splits `total` queue pairs among tenants in proportion to `weights`
/// (largest-remainder method), guaranteeing every tenant at least one queue
/// pair. Deterministic: remainder ties break toward lower indices. No
/// tenants get no shares.
///
/// # Errors
///
/// [`SimError::ZeroWeight`] if any weight is zero, and
/// [`SimError::TooFewQueuePairs`] if `total` is smaller than the number of
/// tenants.
pub fn fair_shares(total: u32, weights: &[u32]) -> Result<Vec<u32>, SimError> {
    if let Some(stream) = weights.iter().position(|&w| w == 0) {
        return Err(SimError::ZeroWeight(stream));
    }
    if (total as usize) < weights.len() {
        return Err(SimError::TooFewQueuePairs {
            queue_pairs: total,
            streams: weights.len(),
        });
    }
    if weights.is_empty() {
        return Ok(Vec::new());
    }
    let sum: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    let mut shares: Vec<u32> = weights
        .iter()
        .map(|&w| (u64::from(total) * u64::from(w) / sum) as u32)
        .collect();
    // Hand out the remainder by largest fractional part (lower index wins
    // ties), then lift any zero share to one by taking from the largest.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| {
        let frac = u64::from(total) * u64::from(weights[i]) % sum;
        (std::cmp::Reverse(frac), i)
    });
    let assigned: u32 = shares.iter().sum();
    for &i in order.iter().take((total - assigned) as usize) {
        shares[i] += 1;
    }
    for i in 0..shares.len() {
        while shares[i] == 0 {
            let largest = (0..shares.len()).max_by_key(|&j| shares[j]).unwrap();
            debug_assert!(shares[largest] > 1);
            shares[largest] -= 1;
            shares[i] += 1;
        }
    }
    debug_assert_eq!(shares.iter().sum::<u32>(), total);
    Ok(shares)
}

/// Stage parameters of one SSD's request pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineParams {
    /// Latency a request spends winning its queue pair (protocol window).
    pub qp_forward_ns: u64,
    /// Time the queue pair stays serialized per command (throughput cap:
    /// `1e9 / qp_recovery_ns` commands per second per queue pair).
    pub qp_recovery_ns: u64,
    /// Doorbell flight plus controller SQ-entry fetch (pure delay).
    pub ctrl_fetch_ns: u64,
    /// Media service time for reads, per channel.
    pub read_media: LatencyDist,
    /// Media service time for writes, per channel.
    pub write_media: LatencyDist,
    /// Parallel media channels per SSD (internal NAND/Optane parallelism).
    pub media_channels: u32,
    /// Per-device link occupancy in ns per byte (x4 link).
    pub ssd_link_ns_per_byte: f64,
    /// Shared GPU-side link occupancy in ns per byte (x16 link).
    pub gpu_link_ns_per_byte: f64,
    /// Completion-entry flight plus polling pickup (pure delay).
    pub completion_ns: u64,
    /// Access size the link occupancies were derived for.
    pub access_bytes: u64,
    /// Write-ahead journal persist time charged to every *write* before it
    /// enters the queue pair (0 = journalling off). This is a vNV-Heap-style
    /// *bound*: a fixed worst-case persist latency, not a sampled
    /// distribution, so the durability cost in a sim run is deterministic.
    pub journal_flush_ns: u64,
}

/// Lognormal shape parameter per media technology: Optane's latency is
/// near-deterministic, NAND's collides with erases and garbage collection.
pub fn tail_sigma(technology: SsdTechnology) -> f64 {
    match technology {
        SsdTechnology::Dram => 0.02,
        SsdTechnology::Optane => 0.08,
        SsdTechnology::ZNand => 0.18,
        SsdTechnology::NandFlash => 0.45,
    }
}

impl PipelineParams {
    /// Derives a pipeline from a Table-2 device spec and the prototype's
    /// links, for `access_bytes` accesses. Media service is lognormal with
    /// the technology's [`tail_sigma`]; use [`PipelineParams::deterministic`]
    /// afterwards for fixed-latency validation runs.
    pub fn from_specs(
        spec: &SsdSpec,
        ssd_link: &LinkSpec,
        gpu_link: &LinkSpec,
        access_bytes: u64,
    ) -> Self {
        let qp_recovery_ns = (1e9 / PER_QUEUE_PAIR_IOPS).round() as u64;
        // Doorbell reaches the device across both hops; the controller then
        // fetches the 64-byte SQ entry from GPU memory (one round trip).
        let ctrl_fetch_ns = ((gpu_link.latency_us + ssd_link.latency_us) * 1e3).round() as u64;
        let completion_ns = ctrl_fetch_ns;
        let ssd_link_ns_per_byte = 1e9 / ssd_link.effective_bandwidth_bps();
        let gpu_link_ns_per_byte = 1e9 / gpu_link.effective_bandwidth_bps();
        let dma_ns = (access_bytes as f64 * (ssd_link_ns_per_byte + gpu_link_ns_per_byte)).round();
        // Everything that is not media, in microseconds.
        let overhead_us =
            (QP_FORWARD_NS + ctrl_fetch_ns + completion_ns) as f64 / 1e3 + dma_ns / 1e3;
        let sigma = tail_sigma(spec.technology);
        // The spec's published read latency is the unloaded end-to-end mean;
        // the media stage gets whatever the protocol overheads leave (floored
        // so ultra-low-latency pseudo-devices stay well-formed).
        let read_media_us = (spec.read_latency_us - overhead_us).max(0.5);
        // Channels sized so channels / read_service = peak read IOPS.
        let media_channels = (spec.read_iops(access_bytes) * read_media_us * 1e-6)
            .ceil()
            .max(1.0);
        // Reads and writes share the channel pool (they share the media), so
        // the write service time is sized for the published write-IOPS
        // ceiling: `channels / write_service = write_peak`. Devices whose
        // write path is slower than their read path (Optane's 1M vs 5.1M at
        // 512B) thus serve writes with longer channel occupancy — modelling
        // program time — with the spec's write latency as a lower bound.
        let write_latency_floor = (spec.write_latency_us - overhead_us).max(0.5);
        let write_media_us =
            (media_channels / spec.write_iops(access_bytes) * 1e6).max(write_latency_floor);
        let media_channels = media_channels as u32;
        Self {
            qp_forward_ns: QP_FORWARD_NS,
            qp_recovery_ns,
            ctrl_fetch_ns,
            read_media: LatencyDist::lognormal_mean_us(read_media_us, sigma),
            write_media: LatencyDist::lognormal_mean_us(write_media_us, sigma),
            media_channels,
            ssd_link_ns_per_byte,
            gpu_link_ns_per_byte,
            completion_ns,
            access_bytes,
            journal_flush_ns: 0,
        }
    }

    /// Charges every write a journal-persist stage before its queue pair: one
    /// redo record (header/checksum overhead of `record_overhead_bytes` plus
    /// the `access_bytes` payload) pushed over both links to the durable
    /// journal device, plus the controller-fetch round trip. The bound is
    /// fixed per configuration (vNV-Heap's worst-case persist discipline), so
    /// enabling the journal shifts write latency deterministically.
    pub fn with_journal_flush(mut self, record_overhead_bytes: u64) -> Self {
        let record_bytes = (record_overhead_bytes + self.access_bytes) as f64;
        let link_ns = record_bytes * (self.ssd_link_ns_per_byte + self.gpu_link_ns_per_byte);
        self.journal_flush_ns = self.ctrl_fetch_ns + link_ns.round() as u64;
        self
    }

    /// Replaces both media distributions with their fixed means (for
    /// deterministic validation runs).
    pub fn deterministic(mut self) -> Self {
        self.read_media = LatencyDist::Fixed {
            ns: self.read_media.mean_ns().round() as u64,
        };
        self.write_media = LatencyDist::Fixed {
            ns: self.write_media.mean_ns().round() as u64,
        };
        self
    }

    /// Link occupancy of one request on the per-device link, in ns.
    pub(crate) fn ssd_link_ns(&self) -> u64 {
        (self.access_bytes as f64 * self.ssd_link_ns_per_byte).round() as u64
    }

    /// Link occupancy of one request on the shared GPU link, in ns.
    pub(crate) fn gpu_link_ns(&self) -> u64 {
        (self.access_bytes as f64 * self.gpu_link_ns_per_byte).round() as u64
    }

    /// Mean unloaded end-to-end read latency of this pipeline, in µs.
    pub fn unloaded_read_latency_us(&self) -> f64 {
        (self.qp_forward_ns + self.ctrl_fetch_ns + self.completion_ns) as f64 / 1e3
            + self.read_media.mean_ns() / 1e3
            + (self.ssd_link_ns() + self.gpu_link_ns()) as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency_matches_table2() {
        for spec in [
            SsdSpec::intel_optane_p5800x(),
            SsdSpec::samsung_pm1735(),
            SsdSpec::samsung_980pro(),
        ] {
            let p =
                PipelineParams::from_specs(&spec, &LinkSpec::gen4_x4(), &LinkSpec::gen4_x16(), 512);
            let l = p.unloaded_read_latency_us();
            assert!(
                (l / spec.read_latency_us - 1.0).abs() < 0.01,
                "{}: unloaded {l}us vs spec {}us",
                spec.name,
                spec.read_latency_us
            );
        }
    }

    #[test]
    fn media_channels_reproduce_peak_iops() {
        let spec = SsdSpec::intel_optane_p5800x();
        let p = PipelineParams::from_specs(&spec, &LinkSpec::gen4_x4(), &LinkSpec::gen4_x16(), 512);
        let rate = p.media_channels as f64 / (p.read_media.mean_ns() * 1e-9);
        // The ceil() on channels may overshoot slightly, never undershoot.
        assert!(rate >= spec.read_iops_512 * 0.999, "rate {rate}");
        assert!(rate <= spec.read_iops_512 * 1.10, "rate {rate}");
    }

    #[test]
    fn write_service_caps_write_throughput() {
        let spec = SsdSpec::intel_optane_p5800x();
        let p = PipelineParams::from_specs(&spec, &LinkSpec::gen4_x4(), &LinkSpec::gen4_x16(), 512);
        let rate = f64::from(p.media_channels) / (p.write_media.mean_ns() * 1e-9);
        assert!(
            (rate / spec.write_iops_512 - 1.0).abs() < 0.05,
            "saturated write rate {rate} vs spec {}",
            spec.write_iops_512
        );
    }

    #[test]
    fn qp_recovery_caps_per_queue_throughput() {
        let spec = SsdSpec::samsung_980pro();
        let p =
            PipelineParams::from_specs(&spec, &LinkSpec::gen4_x4(), &LinkSpec::gen4_x16(), 4096);
        let per_qp = 1e9 / p.qp_recovery_ns as f64;
        assert!((per_qp / PER_QUEUE_PAIR_IOPS - 1.0).abs() < 0.01);
    }

    #[test]
    fn nand_tail_is_heavier_than_optane() {
        assert!(tail_sigma(SsdTechnology::NandFlash) > tail_sigma(SsdTechnology::Optane));
    }

    #[test]
    fn fair_shares_proportional_and_exhaustive() {
        assert_eq!(fair_shares(8, &[1, 1]), Ok(vec![4, 4]));
        assert_eq!(fair_shares(8, &[3, 1]), Ok(vec![6, 2]));
        assert_eq!(fair_shares(8, &[1, 1, 1, 1, 1, 1, 1, 1]), Ok(vec![1; 8]));
        // Remainders go to the largest fractional parts, lower index first.
        assert_eq!(fair_shares(10, &[1, 1, 1]), Ok(vec![4, 3, 3]));
        // Every allocation is exhaustive.
        for (total, weights) in [(7u32, vec![2u32, 5]), (128, vec![1, 2, 3, 4])] {
            let shares = fair_shares(total, &weights).unwrap();
            assert_eq!(shares.iter().sum::<u32>(), total);
        }
    }

    #[test]
    fn fair_shares_guarantees_a_queue_pair_to_tiny_weights() {
        let shares = fair_shares(8, &[1000, 1, 1]).unwrap();
        assert_eq!(shares.iter().sum::<u32>(), 8);
        assert!(shares.iter().all(|&s| s >= 1), "{shares:?}");
        assert!(shares[0] >= 6);
    }

    #[test]
    fn fair_shares_rejects_what_it_cannot_split() {
        assert_eq!(
            fair_shares(2, &[1, 1, 1]),
            Err(SimError::TooFewQueuePairs {
                queue_pairs: 2,
                streams: 3
            })
        );
        assert_eq!(fair_shares(8, &[1, 0, 1]), Err(SimError::ZeroWeight(1)));
        assert_eq!(fair_shares(0, &[]), Ok(Vec::new()));
    }

    #[test]
    fn journal_flush_defaults_off_and_scales_with_record_size() {
        let spec = SsdSpec::intel_optane_p5800x();
        let p =
            PipelineParams::from_specs(&spec, &LinkSpec::gen4_x4(), &LinkSpec::gen4_x16(), 4096);
        assert_eq!(p.journal_flush_ns, 0, "journalling must be opt-in");
        let small = p.clone().with_journal_flush(48);
        let large = p.with_journal_flush(4096);
        assert!(small.journal_flush_ns > small.ctrl_fetch_ns);
        assert!(large.journal_flush_ns > small.journal_flush_ns);
    }

    #[test]
    fn deterministic_strips_randomness_but_keeps_means() {
        let spec = SsdSpec::samsung_pm1735();
        let p =
            PipelineParams::from_specs(&spec, &LinkSpec::gen4_x4(), &LinkSpec::gen4_x16(), 4096)
                .deterministic();
        assert!(matches!(p.read_media, LatencyDist::Fixed { .. }));
        let l = p.unloaded_read_latency_us();
        assert!((l / spec.read_latency_us - 1.0).abs() < 0.01, "{l}");
    }
}

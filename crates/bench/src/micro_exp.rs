//! Microbenchmark experiments: Figures 4, 5, and 6.

use bam_baselines::{ActivePointersModel, GdsModel};
use bam_nvme_sim::SsdSpec;
use bam_pcie::LinkSpec;
use bam_timing::{GpuRateModel, SsdArrayModel};
use bam_workloads::micro;

/// One point of Figure 4: IOPS at a given SSD count and outstanding-request
/// count.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// Number of Optane SSDs.
    pub num_ssds: usize,
    /// Outstanding 512 B requests (the x-axis).
    pub requests: u64,
    /// Random-read throughput in million IOPS.
    pub read_miops: f64,
    /// Random-write throughput in million IOPS.
    pub write_miops: f64,
}

/// Figure 4: 512 B random read/write IOPS, scaling over SSDs and request
/// counts.
///
/// The `functional_requests` parameter controls how many requests are
/// actually pushed through the simulated stack per configuration (to verify
/// the 1:1 command mapping and doorbell behaviour); the reported IOPS come
/// from the calibrated storage envelope at the full request count.
pub fn figure4(
    ssd_counts: &[usize],
    request_counts: &[u64],
    functional_requests: u64,
) -> Vec<Fig4Row> {
    let mut rows = Vec::new();
    for &num_ssds in ssd_counts {
        // Functional validation run at this SSD count (small, cache off).
        if functional_requests > 0 {
            let sys = micro::build_raw_system(
                SsdSpec::intel_optane_p5800x(),
                num_ssds,
                4,
                64,
                512,
                8 << 20,
            )
            .expect("raw system");
            let n = (4 << 20) / 8;
            let arr = sys.create_array::<u64>(n).expect("array");
            arr.preload(&vec![7u64; n as usize]).expect("preload");
            let run = micro::random_read(&sys, &arr, functional_requests, 256, 4, 42)
                .expect("functional run");
            assert_eq!(
                run.commands, functional_requests,
                "1:1 request-to-command mapping"
            );
        }
        let model = SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), num_ssds);
        for &requests in request_counts {
            rows.push(Fig4Row {
                num_ssds,
                requests,
                read_miops: model.read_iops(512, requests) / 1e6,
                write_miops: model.write_iops(512, requests) / 1e6,
            });
        }
    }
    rows
}

/// One point of Figure 5: achieved bandwidth as a fraction of the ×16 link.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// I/O granularity in bytes.
    pub io_bytes: u64,
    /// GDS utilization of the ×16 link (0–1).
    pub gds_utilization: f64,
    /// BaM utilization of the ×16 link (0–1).
    pub bam_utilization: f64,
}

/// Figure 5: BaM vs GPUDirect Storage across I/O granularities, transferring
/// `total_bytes` from 4 Optane SSDs.
pub fn figure5(total_bytes: u64, granularities: &[u64]) -> Vec<Fig5Row> {
    let storage = SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), 4);
    let gds = GdsModel::prototype(storage.clone());
    let link = LinkSpec::gen4_x16();
    granularities
        .iter()
        .map(|&g| {
            let transfers = total_bytes / g;
            // BaM keeps tens of thousands of requests outstanding; its
            // utilization is whatever the storage + link envelope allows.
            let bam_time = storage.read_time_s(transfers, g, 1 << 20);
            let bam_bw = total_bytes as f64 / bam_time / 1e9;
            Fig5Row {
                io_bytes: g,
                gds_utilization: gds.link_utilization(total_bytes, g),
                bam_utilization: (bam_bw / link.effective_bandwidth_gbps()).min(1.0),
            }
        })
        .collect()
}

/// One configuration of Figure 6.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Number of GPU threads issuing accesses.
    pub threads: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// `true` for the hot-cache configuration, `false` for cold.
    pub hot: bool,
    /// BaM effective bandwidth in GB/s.
    pub bam_gbps: f64,
    /// ActivePointers effective bandwidth in GB/s.
    pub activepointers_gbps: f64,
    /// BaM miss-handling throughput in million IOPS (cold only; 0 when hot).
    pub bam_miss_miops: f64,
    /// ActivePointers miss-handling throughput in million IOPS.
    pub ap_miss_miops: f64,
}

/// Figure 6: BaM vs ActivePointers for 64 K / 1 M threads, hot and cold
/// caches, 512 B / 4 KB / 8 KB lines, with 4 Optane SSDs behind BaM and the
/// CPU page cache behind ActivePointers (its best case).
pub fn figure6(thread_counts: &[u64], line_sizes: &[u64]) -> Vec<Fig6Row> {
    let ap = ActivePointersModel::prototype();
    let gpu = GpuRateModel::a100();
    let mut rows = Vec::new();
    for &threads in thread_counts {
        for &line in line_sizes {
            let storage = SsdArrayModel::prototype(SsdSpec::intel_optane_p5800x(), 4);
            let bam_miss_iops = storage.read_iops(line, threads);
            for hot in [false, true] {
                let (bam_gbps, bam_miss_miops) = if hot {
                    (gpu.hot_cache_bandwidth_gbps(line), 0.0)
                } else {
                    (bam_miss_iops * line as f64 / 1e9, bam_miss_iops / 1e6)
                };
                let (ap_gbps, ap_miss) = if hot {
                    (ap.hot_bandwidth_gbps(line), 0.0)
                } else {
                    (ap.cold_bandwidth_gbps(line), ap.miss_iops() / 1e6)
                };
                rows.push(Fig6Row {
                    threads,
                    line_bytes: line,
                    hot,
                    bam_gbps,
                    activepointers_gbps: ap_gbps,
                    bam_miss_miops,
                    ap_miss_miops: ap_miss,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_shape_peak_and_linear_scaling() {
        let rows = figure4(&[1, 4, 10], &[1024, 65_536, 1 << 22], 200);
        let at = |ssds: usize, reqs: u64| {
            rows.iter()
                .find(|r| r.num_ssds == ssds && r.requests == reqs)
                .copied()
                .unwrap()
        };
        // §4.3: ~45.8M read / ~10.6M write IOPS with 10 SSDs at full load.
        let ten = at(10, 1 << 22);
        assert!((40.0..52.0).contains(&ten.read_miops), "{}", ten.read_miops);
        assert!(
            (9.0..12.0).contains(&ten.write_miops),
            "{}",
            ten.write_miops
        );
        // Linear scaling from 1 to 4 SSDs.
        let one = at(1, 1 << 22);
        let four = at(4, 1 << 22);
        assert!((four.read_miops / one.read_miops - 4.0).abs() < 0.2);
        // 16K-64K requests already saturate a single SSD.
        assert!((at(1, 65_536).read_miops / one.read_miops - 1.0).abs() < 0.05);
    }

    #[test]
    fn figure5_shape_gds_needs_32kb_bam_saturates_at_4kb() {
        let rows = figure5(
            32 << 30,
            &[4096, 8192, 16384, 32768, 65536, 131_072, 262_144],
        );
        let at = |g: u64| rows.iter().find(|r| r.io_bytes == g).copied().unwrap();
        assert!(at(4096).gds_utilization < 0.45);
        assert!(at(32768).gds_utilization > 0.8);
        assert!(
            at(4096).bam_utilization > 0.9,
            "{}",
            at(4096).bam_utilization
        );
    }

    #[test]
    fn figure6_shape_bam_leads_by_an_order_of_magnitude() {
        let rows = figure6(&[65_536, 1 << 20], &[512, 4096, 8192]);
        // Cold, 512B: BaM ~17+ MIOPs vs AP 0.823 MIOPs (≥20x).
        let cold_512 = rows
            .iter()
            .find(|r| !r.hot && r.line_bytes == 512 && r.threads == 1 << 20)
            .unwrap();
        assert!(cold_512.bam_miss_miops / cold_512.ap_miss_miops > 15.0);
        // Hot, 4KB: BaM ~430 GB/s, ~11x AP.
        let hot_4k = rows
            .iter()
            .find(|r| r.hot && r.line_bytes == 4096 && r.threads == 1 << 20)
            .unwrap();
        assert!((9.0..14.0).contains(&(hot_4k.bam_gbps / hot_4k.activepointers_gbps)));
        assert!(hot_4k.bam_gbps > 350.0);
    }
}

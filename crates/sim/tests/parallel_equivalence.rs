//! Differential suite: accounting on shard threads must be bit-identical to
//! inline accounting at every shard count.
//!
//! Every assertion is full-structure equality (`SimReport` /
//! `MultiTenantReport` derive `PartialEq` over every field, including depth
//! timelines, latency vectors, histograms, and stage breakdowns), plus
//! byte-equality of the exported Chrome traces — the contract is *bit*
//! identity, not statistical agreement. Shard counts past the device count
//! are legal (shards clamp to `num_ssds`) and must change nothing either.

use bam_nvme_sim::SsdSpec;
use bam_pcie::LinkSpec;
use bam_sim::{
    chrome_trace_json, engine, ArrivalProcess, Mmpp2, PipelineParams, QueuePairPolicy, Run,
    SimConfig, SpanRecorder, TelemetrySpec, TenantSpec, Workload,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn optane_config(num_ssds: u32, queue_pairs_per_ssd: u32, bytes: u64, seed: u64) -> SimConfig {
    SimConfig {
        seed,
        num_ssds,
        queue_pairs_per_ssd,
        pipeline: PipelineParams::from_specs(
            &SsdSpec::intel_optane_p5800x(),
            &LinkSpec::gen4_x4(),
            &LinkSpec::gen4_x16(),
            bytes,
        ),
    }
}

/// One single-tenant workload checked across every shard count, untraced
/// and traced.
fn check_single(name: &str, cfg: &SimConfig, workload: Workload, reqs: &[engine::RequestDesc]) {
    let run = Run::new(cfg);
    let (inline, _) = run.single(workload, reqs).unwrap();
    assert!(inline.completed == reqs.len() as u64, "{name}: sanity");
    let rec_inline = SpanRecorder::with_capacity(1 << 20);
    let (traced, _) = run.trace(&rec_inline).single(workload, reqs).unwrap();
    assert_eq!(inline, traced, "{name}: tracing must not perturb");
    for workers in SHARD_COUNTS {
        let run = run.shards(workers);
        let (sharded, _) = run.single(workload, reqs).unwrap();
        assert_eq!(inline, sharded, "{name}: report, workers={workers}");
        let rec_sharded = SpanRecorder::with_capacity(1 << 20);
        let (sharded_traced, _) = run.trace(&rec_sharded).single(workload, reqs).unwrap();
        assert_eq!(
            inline, sharded_traced,
            "{name}: traced report, workers={workers}"
        );
        assert_eq!(
            rec_inline.events(),
            rec_sharded.events(),
            "{name}: span stream, workers={workers}"
        );
        assert_eq!(
            rec_inline.dropped(),
            rec_sharded.dropped(),
            "{name}: drop counts, workers={workers}"
        );
        assert_eq!(
            chrome_trace_json(&rec_inline.events()),
            chrome_trace_json(&rec_sharded.events()),
            "{name}: chrome trace, workers={workers}"
        );
    }
}

#[test]
fn fig11_queue_pair_starved_closed_loop_is_identical() {
    // The fig11 knee configuration: a 4-SSD array starved to 2 queue pairs
    // per device, saturated closed loop.
    let cfg = optane_config(4, 2, 4096, 4);
    let reqs = engine::uniform_reads(&cfg, 12_000);
    check_single(
        "fig11",
        &cfg,
        Workload::ClosedLoop { in_flight: 2048 },
        &reqs,
    );
}

#[test]
fn latency_cdf_depth_sweep_is_identical() {
    // The latency_cdf harness shape: Optane at its bandwidth-latency
    // product, plus an open-loop point (pre-scheduled arrival streams
    // exercise the cursor-fed spine hardest).
    let cfg = optane_config(4, 128, 4096, 9);
    let reqs = engine::uniform_reads(&cfg, 12_000);
    check_single(
        "latency_cdf/closed",
        &cfg,
        Workload::ClosedLoop { in_flight: 64 },
        &reqs,
    );
    check_single(
        "latency_cdf/open",
        &cfg,
        Workload::OpenLoop { rate_per_s: 3.0e6 },
        &reqs,
    );
}

#[test]
fn recovery_shaped_journalled_writes_are_identical() {
    // The recovery workload shape: journal flush enabled, write-heavy mix —
    // exercises the JournalFlushed event path and write-latency accounting.
    let base = optane_config(2, 4, 4096, 23);
    let cfg = SimConfig {
        pipeline: base.pipeline.with_journal_flush(48),
        ..base
    };
    let reqs = engine::mixed_requests(&cfg, 8_000, 3_000);
    check_single(
        "recovery",
        &cfg,
        Workload::ClosedLoop { in_flight: 128 },
        &reqs,
    );
}

#[test]
fn multi_tenant_antagonist_sweep_is_identical() {
    // The tenants harness shape: steady Poisson tenants with an MMPP
    // antagonist, under both queue-pair policies — per-tenant summaries,
    // stage histograms, and the merged overall report must all match.
    let cfg = optane_config(4, 2, 4096, 13);
    let mmpp = Mmpp2 {
        calm_rate_per_s: 50.0e3,
        burst_rate_per_s: 1.6e6,
        mean_calm_s: 4.0e-3,
        mean_burst_s: 1.0e-3,
    };
    let mut tenants: Vec<TenantSpec> = (0..6u32)
        .map(|i| {
            TenantSpec::new(
                i,
                &format!("steady-{i}"),
                ArrivalProcess::Poisson {
                    rate_per_s: 100.0e3,
                },
                1_500,
            )
        })
        .collect();
    tenants.push(TenantSpec::new(
        100,
        "antagonist",
        ArrivalProcess::Mmpp(mmpp),
        5_400,
    ));
    // A closed-loop tenant exercises cross-shard refill determinism.
    tenants.push(TenantSpec::new(
        200,
        "closed",
        ArrivalProcess::ClosedLoop { in_flight: 32 },
        3_000,
    ));
    for policy in [QueuePairPolicy::Shared, QueuePairPolicy::WeightedFair] {
        let run = Run::new(&cfg);
        let (inline, _) = run.tenants(&tenants, policy).unwrap();
        let rec_inline = SpanRecorder::with_capacity(1 << 20);
        let (traced, _) = run.trace(&rec_inline).tenants(&tenants, policy).unwrap();
        assert_eq!(inline, traced, "{policy:?}: tracing must not perturb");
        for workers in SHARD_COUNTS {
            let run = run.shards(workers);
            let (sharded, _) = run.tenants(&tenants, policy).unwrap();
            assert_eq!(inline, sharded, "{policy:?}: workers={workers}");
            let rec_sharded = SpanRecorder::with_capacity(1 << 20);
            let traced = run.trace(&rec_sharded).tenants(&tenants, policy);
            assert_eq!(inline, traced.unwrap().0, "{policy:?}: workers={workers}");
            assert_eq!(
                chrome_trace_json(&rec_inline.events()),
                chrome_trace_json(&rec_sharded.events()),
                "{policy:?}: chrome trace, workers={workers}"
            );
        }
    }
}

#[test]
fn timeline_and_blame_are_identical_across_worker_counts() {
    // Full telemetry (windowed series + blame rows + exemplars) folded from
    // per-shard recorders must be bit-identical to the inline recorder's,
    // on both the single-tenant and journalled-write shapes.
    let spec = TelemetrySpec::full(50_000, 16);
    let cfg = optane_config(4, 2, 4096, 4);
    let reqs = engine::uniform_reads(&cfg, 12_000);
    let workload = Workload::ClosedLoop { in_flight: 2048 };
    let run = Run::new(&cfg).telemetry(spec);
    let (inline, inline_tel) = run.single(workload, &reqs).unwrap();
    for workers in SHARD_COUNTS {
        let (sharded, sharded_tel) = run.shards(workers).single(workload, &reqs).unwrap();
        assert_eq!(inline, sharded, "report, workers={workers}");
        assert_eq!(inline_tel, sharded_tel, "telemetry, workers={workers}");
    }

    let base = optane_config(2, 4, 4096, 23);
    let jcfg = SimConfig {
        pipeline: base.pipeline.with_journal_flush(48),
        ..base
    };
    let jreqs = engine::mixed_requests(&jcfg, 8_000, 3_000);
    let jworkload = Workload::ClosedLoop { in_flight: 128 };
    let jrun = Run::new(&jcfg).telemetry(spec);
    let (jinline, jinline_tel) = jrun.single(jworkload, &jreqs).unwrap();
    for workers in SHARD_COUNTS {
        let (sharded, sharded_tel) = jrun.shards(workers).single(jworkload, &jreqs).unwrap();
        assert_eq!(jinline, sharded, "journalled report, workers={workers}");
        assert_eq!(
            jinline_tel, sharded_tel,
            "journalled telemetry, workers={workers}"
        );
    }
}

#[test]
fn tenant_slo_and_telemetry_are_identical_across_worker_counts() {
    // The antagonist sweep with SLOs attached: per-tenant SLO reports, the
    // merged timeline, and the blame decomposition must match the inline
    // run bit for bit at every shard count and under both policies.
    let cfg = optane_config(4, 2, 4096, 13);
    let mmpp = Mmpp2 {
        calm_rate_per_s: 50.0e3,
        burst_rate_per_s: 1.6e6,
        mean_calm_s: 4.0e-3,
        mean_burst_s: 1.0e-3,
    };
    let mut tenants: Vec<TenantSpec> = (0..4u32)
        .map(|i| {
            TenantSpec::new(
                i,
                &format!("steady-{i}"),
                ArrivalProcess::Poisson {
                    rate_per_s: 100.0e3,
                },
                1_500,
            )
            .with_slo(30.0, 500_000)
        })
        .collect();
    tenants.push(TenantSpec::new(
        100,
        "antagonist",
        ArrivalProcess::Mmpp(mmpp),
        5_400,
    ));
    let spec = TelemetrySpec::full(100_000, 8);
    for policy in [QueuePairPolicy::Shared, QueuePairPolicy::WeightedFair] {
        let run = Run::new(&cfg).telemetry(spec);
        let (inline, inline_tel) = run.tenants(&tenants, policy).unwrap();
        assert!(
            inline.tenants[0].slo.is_some(),
            "SLO'd tenant must carry a report"
        );
        for workers in SHARD_COUNTS {
            let (sharded, sharded_tel) = run.shards(workers).tenants(&tenants, policy).unwrap();
            assert_eq!(inline, sharded, "{policy:?}: report, workers={workers}");
            assert_eq!(
                inline_tel, sharded_tel,
                "{policy:?}: telemetry, workers={workers}"
            );
            assert_eq!(
                inline.prom_export(),
                sharded.prom_export(),
                "{policy:?}: prom export, workers={workers}"
            );
        }
    }
}

#[test]
fn span_ring_overflow_drops_identically() {
    // A recorder smaller than the span stream: the sharded replay must wrap
    // the ring and count drops exactly like the inline run.
    let cfg = optane_config(2, 8, 4096, 77);
    let reqs = engine::uniform_reads(&cfg, 2_000);
    let workload = Workload::ClosedLoop { in_flight: 64 };
    let rec_inline = SpanRecorder::with_capacity(1024);
    let run = Run::new(&cfg);
    run.trace(&rec_inline).single(workload, &reqs).unwrap();
    assert!(rec_inline.dropped() > 0, "stream must overflow the ring");
    for workers in SHARD_COUNTS {
        let rec_sharded = SpanRecorder::with_capacity(1024);
        let sharded = run.shards(workers).trace(&rec_sharded);
        sharded.single(workload, &reqs).unwrap();
        assert_eq!(
            rec_inline.events(),
            rec_sharded.events(),
            "workers={workers}"
        );
        assert_eq!(
            rec_inline.dropped(),
            rec_sharded.dropped(),
            "workers={workers}"
        );
    }
}

//! Differential suite: accounting on shard threads must be bit-identical to
//! inline accounting at every shard count.
//!
//! The engine shards only observed runs, so these tests force the placement
//! through [`Run::shards`] to compare both on every run shape. Every
//! assertion is full-structure equality (`SimReport` / `MultiTenantReport` /
//! `RunTelemetry` derive `PartialEq` over every field, including depth
//! timelines, histograms, stage breakdowns, windowed series and blame) —
//! the contract is *bit* identity, not statistical agreement. Shard counts
//! past the device count are legal (shards clamp to `num_ssds`) and must
//! change nothing either. Traced runs always account inline, so tracing is
//! checked against the plain inline run.

use bam_obs::{SpanRecorder, Stage};

use super::tests::optane_config;
use super::{mixed_requests, uniform_reads, RequestDesc, Run, SimConfig, TelemetrySpec, Workload};
use crate::dist::Mmpp2;
use crate::pipeline::QueuePairPolicy;
use crate::tenant::{AdmissionSpec, ArrivalProcess, TenantClass, TenantSpec};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One single-stream workload checked across every shard count, plus the
/// traced run against the plain one.
fn check_single(name: &str, cfg: &SimConfig, workload: Workload, reqs: &[RequestDesc]) {
    let run = Run::new(cfg);
    let (inline, _) = run.single(workload, reqs).unwrap();
    assert!(inline.completed == reqs.len() as u64, "{name}: sanity");
    let recorder = SpanRecorder::with_capacity(1 << 20);
    let (traced, _) = run.trace(&recorder).single(workload, reqs).unwrap();
    assert_eq!(inline, traced, "{name}: tracing must not perturb");
    for workers in SHARD_COUNTS {
        let (sharded, _) = run.shards(workers).single(workload, reqs).unwrap();
        assert_eq!(inline, sharded, "{name}: report, workers={workers}");
    }
}

#[test]
fn sharded_report_matches_inline_bit_for_bit() {
    // A mixed closed-loop run.
    let cfg = optane_config(2, 16, 4096, 42);
    let reqs = mixed_requests(&cfg, 10_000, 1_000);
    let workload = Workload::ClosedLoop { in_flight: 256 };
    let (inline, _) = Run::new(&cfg).single(workload, &reqs).unwrap();
    for shards in [1, 2, 4] {
        let (sharded, _) = Run::new(&cfg)
            .shards(shards)
            .single(workload, &reqs)
            .unwrap();
        assert_eq!(inline, sharded, "shards={shards}");
    }
}

#[test]
fn fig11_queue_pair_starved_closed_loop_is_identical() {
    // The fig11 knee configuration: a 4-SSD array starved to 2 queue pairs
    // per device, saturated closed loop.
    let cfg = optane_config(4, 2, 4096, 4);
    let reqs = uniform_reads(&cfg, 12_000);
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
    let reqs = uniform_reads(&cfg, 12_000);
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
    let reqs = mixed_requests(&cfg, 8_000, 3_000);
    check_single(
        "recovery",
        &cfg,
        Workload::ClosedLoop { in_flight: 128 },
        &reqs,
    );
}

fn antagonist() -> Mmpp2 {
    Mmpp2 {
        calm_rate_per_s: 50.0e3,
        burst_rate_per_s: 1.6e6,
        mean_calm_s: 4.0e-3,
        mean_burst_s: 1.0e-3,
    }
}

#[test]
fn multi_tenant_antagonist_sweep_is_identical() {
    // The tenants harness shape: steady Poisson tenants with an MMPP
    // antagonist, under both queue-pair policies — per-tenant summaries,
    // stage histograms, and the merged overall report must all match.
    let cfg = optane_config(4, 2, 4096, 13);
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
        ArrivalProcess::Mmpp(antagonist()),
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
        let recorder = SpanRecorder::with_capacity(1 << 20);
        let (traced, _) = run.trace(&recorder).tenants(&tenants, policy).unwrap();
        assert_eq!(inline, traced, "{policy:?}: tracing must not perturb");
        for workers in SHARD_COUNTS {
            let (sharded, _) = run.shards(workers).tenants(&tenants, policy).unwrap();
            assert_eq!(inline, sharded, "{policy:?}: workers={workers}");
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
    let reqs = uniform_reads(&cfg, 12_000);
    let workload = Workload::ClosedLoop { in_flight: 2048 };
    let run = Run::new(&cfg).telemetry(spec);
    let (inline, inline_tel) = run.shards(0).single(workload, &reqs).unwrap();
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
    let jreqs = mixed_requests(&jcfg, 8_000, 3_000);
    let jworkload = Workload::ClosedLoop { in_flight: 128 };
    let jrun = Run::new(&jcfg).telemetry(spec);
    let (jinline, jinline_tel) = jrun.shards(0).single(jworkload, &jreqs).unwrap();
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
        ArrivalProcess::Mmpp(antagonist()),
        5_400,
    ));
    let spec = TelemetrySpec::full(100_000, 8);
    for policy in [QueuePairPolicy::Shared, QueuePairPolicy::WeightedFair] {
        let run = Run::new(&cfg).telemetry(spec);
        let (inline, inline_tel) = run.shards(0).tenants(&tenants, policy).unwrap();
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
fn class_runs_are_identical_across_worker_counts() {
    // Classes with SLOs and an armed controller: the report, telemetry, and
    // Prometheus exposition must be bit-identical at any shard count.
    let cfg = optane_config(4, 2, 4096, 21);
    let classes = vec![
        TenantClass::new(
            0,
            "steady",
            10_000,
            ArrivalProcess::Poisson { rate_per_s: 150.0 },
            20_000,
        )
        .with_slo(30.0, 1_000_000)
        .with_admission(AdmissionSpec {
            burst: 8,
            refill_per_s: 1_000.0,
            defer_ns: 200_000,
            max_defers: 2,
        }),
        TenantClass::new(
            5,
            "background",
            1_000,
            ArrivalProcess::Poisson { rate_per_s: 50.0 },
            2_000,
        )
        .with_slo(60.0, 1_000_000),
    ];
    let spec = TelemetrySpec::full(100_000, 8);
    for policy in [QueuePairPolicy::Shared, QueuePairPolicy::WeightedFair] {
        let run = Run::new(&cfg).telemetry(spec);
        let (inline, inline_tel) = run.shards(0).classes(&classes, policy).unwrap();
        let adm = inline.tenants[0]
            .admission
            .expect("armed class must report admission");
        assert_eq!(adm.offered, 20_000, "{policy:?}");
        assert_eq!(adm.admitted + adm.rejected, adm.offered, "{policy:?}");
        assert_eq!(inline.tenants[0].completed, adm.admitted, "{policy:?}");
        assert!(adm.deferrals > 0, "{policy:?}: overload must defer");
        // Admit-after-deferral surfaces as the admission stage.
        assert!(
            inline.tenants[0].stages.histo(Stage::Admission).count() > 0,
            "{policy:?}: deferred admissions must carry the admission stage"
        );
        assert!(inline.tenants[1].admission.is_none(), "{policy:?}");
        for workers in SHARD_COUNTS {
            let (sharded, sharded_tel) = run.shards(workers).classes(&classes, policy).unwrap();
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
fn observation_does_not_perturb_the_report() {
    let cfg = optane_config(4, 8, 4096, 11);
    let reqs = uniform_reads(&cfg, 6_000);
    let workload = Workload::ClosedLoop { in_flight: 256 };
    let (plain, _) = Run::new(&cfg).single(workload, &reqs).unwrap();
    for shards in [0, 4] {
        let observed = Run::new(&cfg)
            .shards(shards)
            .telemetry(TelemetrySpec::full(50_000, 8));
        let (observed, telemetry) = observed.single(workload, &reqs).unwrap();
        assert_eq!(plain, observed, "telemetry must be a pure observer");
        assert!(!telemetry.series.is_empty(), "series must have recorded");
        assert_eq!(telemetry.blame.requests, plain.completed);
    }
}

#[test]
fn slo_evaluation_is_identical_inline_and_sharded() {
    let cfg = optane_config(4, 2, 4096, 29);
    let arrival = ArrivalProcess::Poisson {
        rate_per_s: 200.0e3,
    };
    let tenants = vec![
        TenantSpec::new(0, "a", arrival, 1_500).with_slo(20.0, 500_000),
        TenantSpec::new(1, "b", arrival, 1_500).with_slo(15.0, 250_000),
        TenantSpec::new(2, "c", arrival, 1_500),
    ];
    let run = Run::new(&cfg).telemetry(TelemetrySpec::full(50_000, 8));
    let policy = QueuePairPolicy::WeightedFair;
    let (inline, inline_tel) = run.shards(0).tenants(&tenants, policy).unwrap();
    for workers in [2, 4, 8] {
        let (sharded, sharded_tel) = run.shards(workers).tenants(&tenants, policy).unwrap();
        assert_eq!(inline, sharded, "workers={workers}");
        assert_eq!(inline_tel, sharded_tel, "telemetry, workers={workers}");
    }
}

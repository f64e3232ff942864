//! Differential suite for tenant-class aggregation and SLO admission
//! control.
//!
//! Three contracts:
//!
//! 1. **Closed-form merge is exact.** A class's engine-level stream is the
//!    closed-form superposition of its members, so a class run must be
//!    bit-identical to the explicit runs it aggregates: a one-member class
//!    *is* its `TenantSpec` (the engine runs an explicit tenant as exactly
//!    that class, so the fact is checked on the data), and an M-member
//!    class equals the member *oracle* (`Run::class_members` — one
//!    accounting slot per logical member over the identical merged stream).
//! 2. **Thinned attribution is consistent.** Per-member histograms from
//!    `Run::classes_attributed` must equal the oracle's per-member accounts
//!    and merge exactly back to the class aggregate.
//! 3. **Admission control is deterministic and actually works.** Reports
//!    are bit-identical at any shard count, and under sustained overload
//!    the controller holds the class's p99 burn rate under budget while the
//!    uncontrolled run blows through it.

use bam_nvme_sim::SsdSpec;
use bam_pcie::LinkSpec;
use bam_sim::{
    AdmissionSpec, ArrivalProcess, LatencyHisto, Mmpp2, PipelineParams, QueuePairPolicy, Run,
    Stage, TelemetrySpec, TenantClass, TenantSpec,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn optane_config(
    num_ssds: u32,
    queue_pairs_per_ssd: u32,
    bytes: u64,
    seed: u64,
) -> bam_sim::SimConfig {
    bam_sim::SimConfig {
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

#[test]
fn explicit_tenant_is_its_single_member_class() {
    // `Run::tenants` runs each tenant as `TenantClass::from(tenant)`; that
    // is sound because the class merges back to the tenant, field for field
    // and for every arrival process (scaling by one member is exact).
    let mmpp = Mmpp2 {
        calm_rate_per_s: 12.5e3,
        burst_rate_per_s: 400.0e3,
        mean_calm_s: 4.0e-3,
        mean_burst_s: 1.0e-3,
    };
    let processes = [
        ArrivalProcess::FixedRate { rate_per_s: 3.0e5 },
        ArrivalProcess::Poisson { rate_per_s: 2.0e5 },
        ArrivalProcess::ClosedLoop { in_flight: 32 },
        ArrivalProcess::Mmpp(mmpp),
    ];
    for (id, arrival) in processes.into_iter().enumerate() {
        let mut spec = TenantSpec::new(id as u32, "solo", arrival, 3_000).with_slo(40.0, 500_000);
        spec.writes = 700;
        spec.weight = 3;
        let class = TenantClass::from(&spec);
        assert_eq!((class.members, class.admission), (1, None));
        assert_eq!(class.merged_spec(), spec, "{arrival:?}");
    }
}

#[test]
fn closed_loop_class_matches_the_merged_explicit_tenant() {
    // ClosedLoop(w) members merge to ClosedLoop(M·w): the class run must be
    // bitwise the explicit merged tenant's, refills included.
    let cfg = optane_config(4, 2, 4096, 29);
    let class = TenantClass::new(
        0,
        "cl",
        4,
        ArrivalProcess::ClosedLoop { in_flight: 8 },
        6_000,
    );
    let spec = TenantSpec::new(0, "cl", ArrivalProcess::ClosedLoop { in_flight: 32 }, 6_000);
    let run = Run::new(&cfg);
    let via_class = run.classes(&[class], QueuePairPolicy::Shared).unwrap();
    let via_spec = run.tenants(&[spec], QueuePairPolicy::Shared).unwrap();
    assert_eq!(via_class, via_spec);
}

/// The ISSUE's equivalence scenario: an 8-member class vs the explicit
/// per-member accounting of the same merged stream. One Poisson class plus
/// an MMPP flash-crowd class keep the oracle honest across process shapes.
fn oracle_classes() -> Vec<TenantClass> {
    vec![
        TenantClass::new(
            0,
            "pool",
            8,
            ArrivalProcess::Poisson { rate_per_s: 12.5e3 },
            4_000,
        ),
        TenantClass::new(
            9,
            "crowd",
            4,
            ArrivalProcess::Mmpp(Mmpp2 {
                calm_rate_per_s: 12.5e3,
                burst_rate_per_s: 400.0e3,
                mean_calm_s: 4.0e-3,
                mean_burst_s: 1.0e-3,
            }),
            3_000,
        ),
    ]
}

#[test]
fn eight_member_class_matches_the_member_oracle_bit_for_bit() {
    let cfg = optane_config(4, 2, 4096, 13);
    let classes = oracle_classes();
    for policy in [QueuePairPolicy::Shared, QueuePairPolicy::WeightedFair] {
        let (class_run, _) = Run::new(&cfg).classes(&classes, policy).unwrap();
        let (oracle, _) = Run::new(&cfg).class_members(&classes, policy).unwrap();
        // Same merged stream, same routing, different accounting granularity
        // — the overall report must not budge by a bit.
        assert_eq!(class_run.overall, oracle.overall, "{policy:?}");
        // The oracle sees one tenant per member.
        assert_eq!(oracle.tenants.len(), 12, "{policy:?}");
        assert_eq!(
            class_run.tenants.iter().map(|t| t.completed).sum::<u64>(),
            oracle.tenants.iter().map(|t| t.completed).sum::<u64>(),
            "{policy:?}"
        );
    }
}

#[test]
fn thinned_member_attribution_equals_the_oracle_accounts() {
    let cfg = optane_config(4, 2, 4096, 13);
    let classes = oracle_classes();
    let (run, shared) = (Run::new(&cfg), QueuePairPolicy::Shared);
    let (attributed, _) = run.classes_attributed(&classes, shared).unwrap();
    let (oracle, _) = run.class_members(&classes, shared).unwrap();
    // Attribution must not perturb the run itself.
    let (plain, _) = run.classes(&classes, shared).unwrap();
    assert_eq!(attributed.overall, plain.overall);

    let mut oracle_rows = oracle.tenants.iter();
    for (class, summary) in classes.iter().zip(&attributed.tenants) {
        // Member histograms merge exactly back to the class aggregate.
        let mut merged = LatencyHisto::new();
        let mut total = 0u64;
        for m in &summary.members {
            merged.merge(&m.histogram);
            total += m.completed;
        }
        assert_eq!(total, summary.completed, "class {}", class.id);
        assert_eq!(
            bam_sim::LatencySummary::from_histo(&merged),
            summary.latency,
            "class {}",
            class.id
        );
        // Each member's attributed account equals its oracle tenant (the
        // oracle emits rows in (class, member) order, absent members and
        // all).
        let mut members = summary.members.iter().peekable();
        for m in 0..class.members {
            let row = oracle_rows.next().expect("oracle row per member");
            let (completed, latency) = match members.peek() {
                Some(ms) if ms.member == m => {
                    let ms = members.next().unwrap();
                    (ms.completed, ms.latency)
                }
                _ => (0, bam_sim::LatencySummary::default()),
            };
            assert_eq!(row.completed, completed, "class {} member {m}", class.id);
            assert_eq!(row.latency, latency, "class {} member {m}", class.id);
        }
        assert!(members.next().is_none(), "class {}", class.id);
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
        let (inline, inline_tel) = run.classes(&classes, policy).unwrap();
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
        // Attribution at every shard count matches inline exactly.
        let run = Run::new(&cfg);
        let attributed = run.classes_attributed(&classes, policy).unwrap();
        for workers in SHARD_COUNTS {
            assert_eq!(
                attributed,
                run.shards(workers)
                    .classes_attributed(&classes, policy)
                    .unwrap(),
                "{policy:?}: attribution, workers={workers}"
            );
        }
    }
}

#[test]
fn admission_control_caps_the_burn_rate_under_overload() {
    // Sustained overload past the starved array's knee: uncontrolled, the
    // open-loop queue grows without bound and the class torches its error
    // budget; controlled, the Little's-law depth clamp keeps admitted
    // requests near unloaded latency at the cost of rejections.
    let cfg = optane_config(4, 2, 4096, 37);
    let uncontrolled = TenantClass::new(
        0,
        "steady",
        10_000,
        ArrivalProcess::Poisson { rate_per_s: 150.0 },
        40_000,
    )
    .with_slo(30.0, 1_000_000);
    let controlled = uncontrolled.clone().with_admission(AdmissionSpec {
        burst: 8,
        refill_per_s: 1_000.0,
        defer_ns: 200_000,
        max_defers: 0,
    });

    let run = Run::new(&cfg);
    let (base, _) = run
        .classes(&[uncontrolled], QueuePairPolicy::Shared)
        .unwrap();
    let (capped, _) = run.classes(&[controlled], QueuePairPolicy::Shared).unwrap();

    let burn_base = base.tenants[0].slo.expect("slo").burn_rate;
    let burn_capped = capped.tenants[0].slo.expect("slo").burn_rate;
    assert!(
        burn_base > 1.0,
        "uncontrolled overload must exceed budget (burn {burn_base})"
    );
    assert!(
        burn_capped < 1.0,
        "controller must hold the burn rate under budget (burn {burn_capped})"
    );
    assert!(
        capped.tenants[0].latency.p99_us < base.tenants[0].latency.p99_us / 2.0,
        "controlled p99 {} vs uncontrolled {}",
        capped.tenants[0].latency.p99_us,
        base.tenants[0].latency.p99_us
    );
    let adm = capped.tenants[0].admission.expect("admission report");
    assert!(adm.rejected > 0, "sustained overload must shed load");
    assert!(adm.depth_limit >= 1);
    assert_eq!(adm.offered, 40_000);
}

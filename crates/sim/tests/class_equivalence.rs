//! Differential suite for tenant-class aggregation and SLO admission
//! control.
//!
//! Two contracts:
//!
//! 1. **Closed-form merge is exact.** A class's engine-level stream is the
//!    closed-form superposition of its members, so a class run must be
//!    bit-identical to the run of the explicit tenant it merges to: a
//!    one-member class *is* its `TenantSpec` (the engine runs an explicit
//!    tenant as exactly that class, so the fact is checked on the data), and
//!    an M-member class equals its merged tenant for every arrival shape.
//! 2. **Admission control actually works.** Under sustained overload the
//!    controller holds the class's p99 burn rate under budget while the
//!    uncontrolled run blows through it.

use bam_nvme_sim::SsdSpec;
use bam_pcie::LinkSpec;
use bam_sim::{
    AdmissionSpec, ArrivalProcess, Mmpp2, PipelineParams, QueuePairPolicy, Run, TenantClass,
    TenantSpec,
};

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
fn class_matches_the_merged_explicit_tenant() {
    // M members merge in closed form: Poisson(λ) to Poisson(M·λ), MMPP
    // state rates scaled by M (the shared flash-crowd environment) and
    // ClosedLoop(w) to ClosedLoop(M·w). Each class run must be bitwise the
    // run of the explicit tenant written with the merged process by hand,
    // closed-loop refills included.
    let cfg = optane_config(4, 2, 4096, 29);
    let crowd = |scale: f64| Mmpp2 {
        calm_rate_per_s: 12.5e3 * scale,
        burst_rate_per_s: 400.0e3 * scale,
        mean_calm_s: 4.0e-3,
        mean_burst_s: 1.0e-3,
    };
    let shapes = [
        (
            0,
            "cl",
            4,
            ArrivalProcess::ClosedLoop { in_flight: 8 },
            ArrivalProcess::ClosedLoop { in_flight: 32 },
            6_000,
        ),
        (
            0,
            "pool",
            8,
            ArrivalProcess::Poisson { rate_per_s: 12.5e3 },
            ArrivalProcess::Poisson { rate_per_s: 1.0e5 },
            4_000,
        ),
        (
            9,
            "crowd",
            4,
            ArrivalProcess::Mmpp(crowd(1.0)),
            ArrivalProcess::Mmpp(crowd(4.0)),
            3_000,
        ),
    ];
    let (run, shared) = (Run::new(&cfg), QueuePairPolicy::Shared);
    for (id, name, members, member_arrival, merged, requests) in shapes {
        let class = TenantClass::new(id, name, members, member_arrival, requests);
        let spec = TenantSpec::new(id, name, merged, requests);
        let via_class = run.classes(&[class], shared).unwrap();
        let via_spec = run.tenants(&[spec], shared).unwrap();
        assert_eq!(via_class, via_spec, "{name}");
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

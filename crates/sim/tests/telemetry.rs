//! Integration tests of the observed engine: blame must attribute 100% of
//! every request's latency against the engine's own latency population,
//! windowed series must reconcile with the run aggregates, and per-tenant
//! SLO evaluation must follow the specs. (That telemetry is a pure observer,
//! inline or sharded, is checked in-crate, where the placement can be
//! forced.)

use bam_nvme_sim::SsdSpec;
use bam_pcie::LinkSpec;
use bam_sim::{
    engine, ArrivalProcess, PipelineParams, QueuePairPolicy, Run, SimConfig, Stage, TelemetrySpec,
    TenantSpec, Workload,
};

const WINDOW_NS: u64 = 50_000;

fn optane_config(num_ssds: u32, queue_pairs_per_ssd: u32, seed: u64) -> SimConfig {
    SimConfig {
        seed,
        num_ssds,
        queue_pairs_per_ssd,
        pipeline: PipelineParams::from_specs(
            &SsdSpec::intel_optane_p5800x(),
            &LinkSpec::gen4_x4(),
            &LinkSpec::gen4_x16(),
            4096,
        ),
    }
}

#[test]
fn blame_attributes_every_request_latency_exactly() {
    // Journalled write-heavy mix so every pipeline stage (journal flush
    // included) appears in the decomposition; top_k covers the whole
    // population so each request's waterfall is checked individually.
    let base = optane_config(2, 4, 23);
    let cfg = SimConfig {
        pipeline: base.pipeline.with_journal_flush(48),
        ..base
    };
    let reqs = engine::mixed_requests(&cfg, 4_000, 1_500);
    let workload = Workload::ClosedLoop { in_flight: 128 };
    let observed = Run::new(&cfg).telemetry(TelemetrySpec::full(WINDOW_NS, reqs.len()));
    let (report, telemetry) = observed.single(workload, &reqs).unwrap();

    // The decomposition's total equals the engine's own latency population
    // to the nanosecond: blame attributes 100% of every request.
    let blame = &telemetry.blame;
    assert_eq!(blame.requests, report.completed);
    assert_eq!(
        blame.overall.total_ns(),
        report.histogram.sum_ns(),
        "blame must tile the run"
    );

    // Every request's waterfall is gapless from arrival to completion and
    // its service + wait steps tile the latency exactly.
    assert_eq!(blame.exemplars.len(), reqs.len());
    for ex in &blame.exemplars {
        assert_eq!(ex.waterfall.first().unwrap().start_ns, ex.arrive_ns);
        let attributed: u64 = ex.waterfall.iter().map(|w| w.service_ns + w.wait_ns).sum();
        assert_eq!(attributed, ex.latency_ns, "request {} must tile", ex.id);
        for w in ex.waterfall.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns, "request {} has a gap", ex.id);
        }
    }

    // The tail slice sits strictly above the population p99 cut (every
    // request is an exemplar here, so the exemplars are the population).
    let above = blame
        .exemplars
        .iter()
        .filter(|ex| ex.latency_ns > blame.p99_cut_ns)
        .count() as u64;
    assert_eq!(blame.tail_requests, above);
    assert!(blame.tail_requests > 0, "a 4k-request run must have a tail");
    // Journalled writes must show up as journal-flush blame.
    assert!(blame.overall.service_ns(Stage::JournalFlush) > 0);
}

#[test]
fn windowed_series_reconciles_with_run_aggregates() {
    let cfg = optane_config(4, 8, 7);
    let reqs = engine::uniform_reads(&cfg, 5_000);
    let workload = Workload::OpenLoop { rate_per_s: 2.0e6 };
    let observed = Run::new(&cfg).telemetry(TelemetrySpec::full(WINDOW_NS, 4));
    let (report, telemetry) = observed.single(workload, &reqs).unwrap();

    let mut arrivals = 0u64;
    let mut completions = 0u64;
    let mut stage_dwell = 0u64;
    let mut depth_max = 0u64;
    for (_, w) in telemetry.series.iter() {
        arrivals += w.arrivals;
        completions += w.completions;
        stage_dwell += w.stage_dwell_ns.iter().sum::<u64>();
        depth_max = depth_max.max(w.depth_max);
    }
    assert_eq!(arrivals, reqs.len() as u64);
    assert_eq!(completions, report.completed);
    // Stage dwells tile every request, so their sum equals the summed
    // end-to-end latency — the same population blame tiles.
    assert_eq!(stage_dwell, report.histogram.sum_ns());
    assert_eq!(depth_max, u64::from(report.depth.max_depth()));
    // Wait never exceeds dwell in any window.
    for (_, w) in telemetry.series.iter() {
        for (d, q) in w.stage_dwell_ns.iter().zip(&w.stage_wait_ns) {
            assert!(q <= d, "wait cannot exceed dwell");
        }
    }
}

#[test]
fn slo_reports_follow_tenant_specs() {
    let cfg = optane_config(4, 2, 13);
    // Three steady tenants: one with an unreachable (tight) target, one with
    // a generous target, one with no SLO at all.
    let arrival = ArrivalProcess::Poisson {
        rate_per_s: 150.0e3,
    };
    let tenants = vec![
        TenantSpec::new(0, "tight", arrival, 2_000).with_slo(1.0, 1_000_000),
        TenantSpec::new(1, "loose", arrival, 2_000).with_slo(100_000.0, 1_000_000),
        TenantSpec::new(2, "unbound", arrival, 2_000),
    ];
    let (report, _) = Run::new(&cfg)
        .tenants(&tenants, QueuePairPolicy::Shared)
        .unwrap();

    let tight = report.tenants[0].slo.expect("tight tenant has an SLO");
    let loose = report.tenants[1].slo.expect("loose tenant has an SLO");
    assert!(report.tenants[2].slo.is_none(), "no spec, no report");

    assert_eq!(tight.completions, report.tenants[0].completed);
    assert_eq!(tight.target_p99_us, 1.0);
    // A 1us target against a ~10us+ pipeline: every window violates and the
    // burn rate is far past budget.
    assert_eq!(tight.violations, tight.windows);
    assert!(tight.windows > 0);
    assert!(tight.burn_rate > 1.0, "burn rate {}", tight.burn_rate);
    assert!(tight.worst_window_p99_us > 1.0);

    // A 100ms target is never violated and burns no budget.
    assert_eq!(loose.violations, 0);
    assert_eq!(loose.over_target, 0);
    assert_eq!(loose.burn_rate, 0.0);
}

#[test]
fn prom_export_carries_slo_metrics_for_spec_tenants_only() {
    let cfg = optane_config(2, 2, 31);
    let arrival = ArrivalProcess::Poisson {
        rate_per_s: 100.0e3,
    };
    let tenants = vec![
        TenantSpec::new(0, "with-slo", arrival, 1_000).with_slo(25.0, 500_000),
        TenantSpec::new(1, "without", arrival, 1_000),
    ];
    let (report, _) = Run::new(&cfg)
        .tenants(&tenants, QueuePairPolicy::Shared)
        .unwrap();
    let text = report.prom_export();
    assert!(text.ends_with('\n') && !text.ends_with("\n\n"));
    assert!(text.contains("bam_sim_completed_total"));
    assert!(text.contains("bam_tenant_completed_total{tenant=\"with-slo\"}"));
    assert!(text.contains("bam_slo_burn_rate{tenant=\"with-slo\"}"));
    assert!(!text.contains("bam_slo_burn_rate{tenant=\"without\"}"));
    // Every sample line belongs to a declared metric family and every
    // counter keeps its _total suffix.
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let name = line.split(['{', ' ']).next().unwrap();
        assert!(
            text.contains(&format!("# TYPE {name} ")),
            "undeclared metric {name}"
        );
    }
}

// ---------------------------------------------------------------------------
// Property: thinned member attribution is exact, for arbitrary class shapes.
// ---------------------------------------------------------------------------

mod attribution_properties {
    use super::optane_config;
    use bam_sim::{
        ArrivalProcess, LatencyHisto, LatencySummary, QueuePairPolicy, Run, TenantClass,
    };
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

        /// For any member count and seed, the thinned per-member accounts of
        /// `Run::classes_attributed` sum exactly to the class aggregate: the
        /// completed counts add up, and merging the member latency histograms
        /// reproduces the class's latency summary bit for bit.
        #[test]
        fn thinned_attribution_sums_to_the_class_aggregate(
            members in 1u32..48,
            seed in any::<u64>(),
            requests in 300u64..900,
        ) {
            let cfg = optane_config(2, 2, seed);
            // Fixed aggregate rate: the class stream (and run length) stays
            // the same while the thinning fan-out varies.
            let class = TenantClass::new(
                0,
                "pool",
                members,
                ArrivalProcess::Poisson { rate_per_s: 4.0e5 / f64::from(members) },
                requests,
            );
            let (report, _) = Run::new(&cfg)
                .classes_attributed(std::slice::from_ref(&class), QueuePairPolicy::Shared)
                .unwrap();
            let class_row = &report.tenants[0];
            prop_assert_eq!(class_row.completed, requests);

            let mut merged = LatencyHisto::new();
            let mut total = 0u64;
            for m in &class_row.members {
                prop_assert!(m.member < members, "member id out of range");
                prop_assert!(m.completed > 0, "attributed member must have work");
                prop_assert_eq!(m.histogram.count(), m.completed);
                prop_assert_eq!(&LatencySummary::from_histo(&m.histogram), &m.latency);
                merged.merge(&m.histogram);
                total += m.completed;
            }
            prop_assert_eq!(total, class_row.completed, "member counts must sum to the class");
            prop_assert_eq!(merged.count(), class_row.completed);
            prop_assert_eq!(
                &LatencySummary::from_histo(&merged),
                &class_row.latency,
                "merged member histograms must reproduce the class aggregate"
            );

            // The thinning stream itself is a pure function of (class, seed):
            // recomputing it yields the same per-member counts the engine
            // attributed.
            let assignment = class.member_of(cfg.seed);
            prop_assert_eq!(assignment.len(), requests as usize);
            let mut counts = vec![0u64; members as usize];
            for &m in &assignment {
                prop_assert!(m < members);
                counts[m as usize] += 1;
            }
            for m in &class_row.members {
                prop_assert_eq!(counts[m.member as usize], m.completed);
            }
            prop_assert_eq!(
                counts.iter().sum::<u64>(),
                class_row.completed,
                "every request must be attributed to exactly one member"
            );
        }
    }
}

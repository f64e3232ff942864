//! Cross-validation of the event engine against the analytic layer.
//!
//! Two independent methodologies must agree on the paper's §2.2 worked
//! examples: the closed-form `bam_timing::littles` queue-depth sizing and the
//! engine's *measured* steady-state in-flight population. The examples are
//! the ones the paper works through — Optane (11 µs) and 980 Pro (324 µs)
//! latencies against the ×16 link's 512 B (51 M IOPS) and 4 KB (6.35 M IOPS)
//! command rates.

use bam_sim::{
    engine, ArrivalProcess, Mmpp2, QueuePairPolicy, Run, SimConfig, TenantSpec, Workload,
};
use bam_timing::{required_queue_depth, steady_state_in_flight};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs one worked example open-loop and returns the measured steady-state
/// mean in-flight depth.
fn simulate(latency_us: f64, rate_per_s: f64) -> bam_sim::SimReport {
    // Long enough that warm-up/drain (one latency each) is a tiny fraction
    // of the middle-half measurement window even at 324 µs × 51 M/s.
    let expected = steady_state_in_flight(rate_per_s, latency_us);
    let requests = ((expected * 16.0) as u64).max(50_000);
    let config = SimConfig::worked_example(latency_us, 0xBA4);
    let reqs = engine::uniform_reads(&config, requests);
    let open = Workload::OpenLoop { rate_per_s };
    Run::new(&config).single(open, &reqs).unwrap().0
}

#[test]
fn paper_worked_examples_agree_with_littles_law() {
    // (latency_us, rate, the paper's quoted depth)
    let cases = [
        (11.0, 51.0e6, 561),
        (11.0, 6.35e6, 70),
        (324.0, 51.0e6, 16524),
        (324.0, 6.35e6, 2057),
    ];
    for (latency_us, rate, quoted) in cases {
        let analytic = required_queue_depth(rate, latency_us);
        assert_eq!(analytic, quoted, "analytic model drifted from the paper");
        let report = simulate(latency_us, rate);
        let measured = report.depth.steady_state_mean();
        let rel = (measured / analytic as f64 - 1.0).abs();
        assert!(
            rel < 0.05,
            "{latency_us}us @ {rate}: simulated {measured:.1} vs analytic {analytic} \
             ({:.2}% off)",
            rel * 100.0
        );
    }
}

#[test]
fn littles_identity_holds_inside_the_engine() {
    // mean latency × throughput ≈ mean in-flight, measured entirely inside
    // one simulation run (the engine's internal consistency check).
    for (latency_us, rate) in [(11.0, 6.35e6), (324.0, 6.35e6)] {
        let report = simulate(latency_us, rate);
        let littles = report.littles_in_flight();
        let measured = report.depth.steady_state_mean();
        assert!(
            (measured / littles - 1.0).abs() < 0.05,
            "measured {measured:.1} vs T*L {littles:.1}"
        );
        // The pure-delay scenario adds no queueing: the simulated latency is
        // the configured one.
        assert!((report.latency.mean_us / latency_us - 1.0).abs() < 0.01);
    }
}

#[test]
fn mmpp_dwell_statistics_match_the_configured_transition_rates() {
    // The modulating chain's observed mean dwells must reproduce the
    // configured ones — the MMPP is only a valid burst model if its state
    // process has the right time constants.
    let m = Mmpp2 {
        calm_rate_per_s: 200.0e3,
        burst_rate_per_s: 2.0e6,
        mean_calm_s: 2.0e-3,
        mean_burst_s: 0.5e-3,
    };
    let mut rng = StdRng::seed_from_u64(0xD11);
    let (arrivals, stats) = m.arrival_times(600_000, &mut rng);
    assert_eq!(arrivals.len(), 600_000);
    assert!(
        stats.calm_visits > 300 && stats.burst_visits > 300,
        "need enough completed dwells for stable statistics \
         ({} calm, {} burst)",
        stats.calm_visits,
        stats.burst_visits
    );
    let calm_rel = (stats.mean_calm_s() / m.mean_calm_s - 1.0).abs();
    let burst_rel = (stats.mean_burst_s() / m.mean_burst_s - 1.0).abs();
    assert!(
        calm_rel < 0.10,
        "calm dwell {} vs configured {} ({:.1}% off)",
        stats.mean_calm_s(),
        m.mean_calm_s,
        calm_rel * 100.0
    );
    assert!(
        burst_rel < 0.10,
        "burst dwell {} vs configured {} ({:.1}% off)",
        stats.mean_burst_s(),
        m.mean_burst_s,
        burst_rel * 100.0
    );
}

#[test]
fn superposed_poisson_streams_agree_with_littles_law() {
    // Four independent Poisson tenants at 1.5M/s each against a pure 11us
    // delay: the merged stream is Poisson at 6M/s, so the measured
    // steady-state in-flight population must pin to T*L = 66 within 5% —
    // the same identity `bam_timing::littles` applies analytically.
    let per_tenant_rate = 1.5e6;
    let tenants: Vec<TenantSpec> = (0..4)
        .map(|id| {
            TenantSpec::new(
                id,
                &format!("poisson-{id}"),
                ArrivalProcess::Poisson {
                    rate_per_s: per_tenant_rate,
                },
                60_000,
            )
        })
        .collect();
    let config = SimConfig::worked_example(11.0, 0xBA5);
    let (report, _) = Run::new(&config)
        .tenants(&tenants, QueuePairPolicy::Shared)
        .unwrap();
    let aggregate = 4.0 * per_tenant_rate;
    let analytic = steady_state_in_flight(aggregate, 11.0);
    let measured = report.overall.depth.steady_state_mean();
    let rel = (measured / analytic - 1.0).abs();
    assert!(
        rel < 0.05,
        "superposed in-flight {measured:.1} vs analytic {analytic:.1} ({:.2}% off)",
        rel * 100.0
    );
    // Each tenant individually sustains its own rate and sees the same
    // unloaded latency (pure delay adds no cross-tenant queueing).
    for t in &report.tenants {
        assert!((t.throughput_per_s / per_tenant_rate - 1.0).abs() < 0.05);
        assert!((t.latency.mean_us / 11.0 - 1.0).abs() < 0.01);
    }
}

#[test]
fn depth_timeline_ramps_to_plateau() {
    let report = simulate(324.0, 6.35e6);
    let samples = report.depth.sampled(1000);
    assert!(!samples.is_empty());
    // Early depth is far below the plateau; the middle sits near 2057.
    let early = samples[1].1;
    let mid = samples[samples.len() / 2].1;
    assert!(u64::from(early) < 500, "early depth {early}");
    assert!((1800..2300).contains(&mid), "mid depth {mid}");
}

//! The two workloads on the discrete-event engine (`bam-sim` + `bam-obs`).
//!
//! The scenario is the repository's hardest multi-tenant cell — seven steady
//! Poisson tenants plus the MMPP bursty antagonist on a queue-pair-starved
//! 4-SSD Optane array — rebuilt here from `bam-sim`'s public types rather
//! than imported from `bam-bench`, so the benchmark does not depend on the
//! experiment harness it may later help retire.

use bam_nvme_sim::SsdSpec;
use bam_pcie::LinkSpec;
use bam_sim::{
    engine, ArrivalProcess, Mmpp2, MultiTenantReport, PipelineParams, QueuePairPolicy, SimConfig,
    Superposition, TelemetrySpec, TenantSpec,
};

use crate::json::Json;
use crate::measure::{nproc, PhaseTimer};
use crate::trace::Ctx;
use crate::workload::{Rep, Workload};

const STEADY_TENANTS: u32 = 7;
const STEADY_RATE_PER_S: f64 = 100.0e3;
const ACCESS_BYTES: u64 = 4096;
const SLO_P99_US: f64 = 200.0;
const WINDOW_NS: u64 = 1_000_000;

/// 4 Optane SSDs × 2 queue pairs, 4 KiB accesses.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        num_ssds: 4,
        queue_pairs_per_ssd: 2,
        pipeline: PipelineParams::from_specs(
            &SsdSpec::intel_optane_p5800x(),
            &LinkSpec::gen4_x4(),
            &LinkSpec::gen4_x16(),
            ACCESS_BYTES,
        ),
    }
}

/// Seven Poisson tenants at 100 K req/s × `steady_requests`, plus the
/// antagonist (50 K/s calm, 1.6 M/s bursts, 4 ms / 1 ms dwells) sized to the
/// same span. With `slo`, each steady tenant carries a 200 µs-p99 SLO over
/// 1 ms windows.
pub fn tenants(steady_requests: u64, slo: bool) -> Vec<TenantSpec> {
    let antagonist = Mmpp2 {
        calm_rate_per_s: 50.0e3,
        burst_rate_per_s: 1.6e6,
        mean_calm_s: 4.0e-3,
        mean_burst_s: 1.0e-3,
    };
    let mut out: Vec<TenantSpec> = (0..STEADY_TENANTS)
        .map(|id| {
            let t = TenantSpec::new(
                id,
                &format!("steady-{id}"),
                ArrivalProcess::Poisson {
                    rate_per_s: STEADY_RATE_PER_S,
                },
                steady_requests,
            );
            if slo {
                t.with_slo(SLO_P99_US, WINDOW_NS)
            } else {
                t
            }
        })
        .collect();
    let requests =
        (steady_requests as f64 * antagonist.mean_rate_per_s() / STEADY_RATE_PER_S).round() as u64;
    out.push(TenantSpec::new(
        100,
        "antagonist",
        ArrivalProcess::Mmpp(antagonist),
        requests,
    ));
    out
}

/// Each tenant's first global request index (requests are contiguous per
/// tenant, in declaration order), as `Superposition::generate` takes them.
pub fn first_request_indices(tenants: &[TenantSpec]) -> Vec<u64> {
    tenants
        .iter()
        .scan(0, |next, t| {
            let base = *next;
            *next += t.requests;
            Some(base)
        })
        .collect()
}

/// The simulated statistics that must not move: between repetitions, between
/// worker counts, and — compared exactly by `compare` — between commits.
pub fn digest(report: &MultiTenantReport) -> String {
    let h = &report.overall.histogram;
    let per_tenant: Vec<String> = report
        .tenants
        .iter()
        .map(|t| t.completed.to_string())
        .collect();
    format!(
        "events={} completed={} p50_ns={} p99_ns={} p999_ns={} tenants={}",
        report.overall.events,
        report.overall.completed,
        h.value_at_quantile(0.5),
        h.value_at_quantile(0.99),
        h.value_at_quantile(0.999),
        per_tenant.join(",")
    )
}

/// `sim_tenants` (telemetry off) and `sim_observed` (SLOs, full telemetry
/// and the Prometheus export).
pub struct Tenants {
    config: SimConfig,
    tenants: Vec<TenantSpec>,
    observed: bool,
    workers: usize,
    /// Arrivals the generator pre-schedules; every one must complete.
    expected_requests: u64,
    /// Digest of the `workers = 1` run, taken by the first repetition.
    reference: Option<String>,
}

impl Tenants {
    pub fn new(seed: u64, scale_div: u64, observed: bool, cx: Ctx<'_>) -> Self {
        let steady = if observed { 30_000 } else { 60_000 } / scale_div;
        let config = sim_config(seed);
        let tenants = tenants(steady, observed);
        let bases = first_request_indices(&tenants);
        // The engine generates the same schedule internally; generating it
        // here as well gives the completion check its expected count from
        // the public generator instead of from the engine under test.
        let schedule = cx.span("Superposition::generate", None, |_| {
            Superposition::generate(seed, &tenants, &bases)
        });
        Self {
            config,
            tenants,
            observed,
            workers: nproc(),
            expected_requests: schedule.len() as u64,
            reference: None,
        }
    }

    /// Runs the scenario on `workers`; for `sim_observed` the export is part
    /// of the work, and its length is returned so it cannot be elided.
    fn simulate(&self, cx: Ctx<'_>, workers: usize) -> (MultiTenantReport, usize) {
        let (config, tenants, policy) = (&self.config, &self.tenants, QueuePairPolicy::Shared);
        if self.observed {
            let (report, telemetry) = cx.span("run_tenants_observed", None, |_| {
                let spec = TelemetrySpec::full(WINDOW_NS, 8);
                engine::run_tenants_observed(config, tenants, policy, workers, spec)
            });
            let text = cx.span("MultiTenantReport::prom_export", None, |_| {
                report.prom_export()
            });
            let slos = report.tenants.iter().filter(|t| t.slo.is_some()).count();
            std::hint::black_box(&telemetry);
            // Zero marks an export that lost its SLO families.
            let exported = if slos == STEADY_TENANTS as usize {
                text.len()
            } else {
                0
            };
            (report, exported)
        } else {
            let report = cx.span("run_tenants_with_workers", None, |_| {
                engine::run_tenants_with_workers(config, tenants, policy, workers)
            });
            (report, 1)
        }
    }
}

impl Workload for Tenants {
    fn rep(&mut self, cx: Ctx<'_>) -> Rep {
        if self.reference.is_none() {
            let (report, _) = self.simulate(cx, 1);
            self.reference = Some(digest(&report));
        }

        let timer = PhaseTimer::start();
        let (report, exported) = self.simulate(cx, self.workers);
        let phase = timer.stop();

        let got = digest(&report);
        let failed = u64::from(Some(&got) != self.reference.as_ref())
            + u64::from(report.overall.completed != self.expected_requests)
            + u64::from(exported == 0);
        let events = report.overall.events;
        Rep {
            phase,
            ops: events,
            attempted: events + 3,
            failed,
            sim_requests: report.overall.completed,
            sim_digest: Some(got),
            ..Rep::default()
        }
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("ssds", Json::Num(f64::from(self.config.num_ssds))),
            (
                "queue_pairs_per_ssd",
                Json::Num(f64::from(self.config.queue_pairs_per_ssd)),
            ),
            ("access_bytes", Json::Num(ACCESS_BYTES as f64)),
            ("tenants", Json::Num(self.tenants.len() as f64)),
            (
                "requests_per_steady_tenant",
                Json::Num(self.tenants[0].requests as f64),
            ),
            ("requests", Json::Num(self.expected_requests as f64)),
            ("workers", Json::Num(self.workers as f64)),
        ])
    }
}

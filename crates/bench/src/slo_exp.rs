//! SLO admission-control knee sweep over tenant classes (event-driven).
//!
//! A single [`bam_sim::TenantClass`] of 10 thousand to one million logical
//! tenants offers load around the knee of a queue-pair-starved 4-SSD Optane
//! array, with and without the class's SLO admission controller armed. The
//! class merges its members in closed form, so the event-loop cost is
//! O(classes) — the one-million-tenant cells run in the same time as the
//! ten-thousand-tenant cells, which is what makes the sweep CI-feasible.
//!
//! The shape to check: from just below the knee onward the uncontrolled
//! class's open-loop queue grows without bound and its p99 burn rate blows
//! past 1.0 (1.37 at 0.9x, ~99 past the knee), while the controlled class
//! sheds load (rejections, not deferrals — `max_defers: 0`, the
//! reject-biased configuration that protects the SLO under *sustained*
//! overload) and holds the burn rate at 0.0 at every load. The guarantee is
//! priced below the knee: the Little's-law depth clamp converts the p99
//! budget to a mean target through the exponential-tail factor ln(100), so
//! it is conservative for this pipeline's tighter-than-exponential tail and
//! trades admitted throughput for the ceiling even when the array could
//! have kept up.

use bam_sim::{AdmissionSpec, ArrivalProcess, QueuePairPolicy, Run, SimConfig, TenantClass};

/// Transfer size of every request in the sweep.
pub const SLO_ACCESS_BYTES: u64 = 4096;

/// Requests per cell. Class cost is O(classes), not O(members): every cell
/// runs the same number of events regardless of the logical tenant count.
pub const SLO_REQUESTS: u64 = 30_000;

/// The class's SLO: p99 under this budget, per evaluation window.
pub const SLO_TARGET_P99_US: f64 = 30.0;

/// SLO evaluation window (virtual ns).
pub const SLO_WINDOW_NS: u64 = 1_000_000;

/// Aggregate offered rate at load 1.0 — the measured knee of the starved
/// 4-SSD x 2-queue-pair array at 4 KiB (see `sim_exp`'s queue-pair
/// sensitivity sweep; beyond this the open-loop backlog grows without
/// bound).
pub const SLO_KNEE_RATE_PER_S: f64 = 1.2e6;

/// Offered-load multipliers swept around the knee.
pub const SLO_LOAD_MULTIPLIERS: [f64; 4] = [0.6, 0.9, 1.05, 1.2];

/// Logical tenant counts per class. The largest cell aggregates one million
/// members.
pub const SLO_MEMBER_SCALES: [u32; 3] = [10_000, 100_000, 1_000_000];

/// The controller armed on the controlled cells: a small admit burst, a slow
/// token refill, and no deferral retries — under sustained overload the
/// deferral path only moves latency around, so the knee sweep uses the
/// reject-biased configuration (deferrals exist for transient bursts; see
/// DESIGN.md).
pub fn slo_admission() -> AdmissionSpec {
    AdmissionSpec {
        burst: 8,
        refill_per_s: 1_000.0,
        defer_ns: 200_000,
        max_defers: 0,
    }
}

/// One cell of the sweep: a member scale x load multiplier x controller
/// on/off, reporting the achieved tail against the class's SLO budget.
#[derive(Debug, Clone)]
pub struct SloRow {
    /// Logical tenants aggregated by the class.
    pub members: u32,
    /// Offered load as a multiple of the knee rate.
    pub load: f64,
    /// Aggregate offered arrival rate (requests per second).
    pub offered_rate_per_s: f64,
    /// Whether the admission controller was armed.
    pub controlled: bool,
    /// Little's-law depth clamp the controller derived from the SLO budget
    /// (0 when uncontrolled).
    pub depth_limit: u64,
    /// Requests offered to the class.
    pub offered: u64,
    /// Requests admitted into the engine.
    pub admitted: u64,
    /// Deferral decisions (re-offers after a controller-imposed wait).
    pub deferrals: u64,
    /// Requests rejected outright.
    pub rejected: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completions per second over the class's active span.
    pub throughput_per_s: f64,
    /// Median latency of admitted requests (us).
    pub p50_us: f64,
    /// 99th-percentile latency of admitted requests (us).
    pub p99_us: f64,
    /// 99.9th-percentile latency of admitted requests (us).
    pub p999_us: f64,
    /// Post-control SLO burn rate (violating windows x completion share
    /// against the error budget; > 1.0 = budget blown).
    pub burn_rate: f64,
}

fn slo_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        num_ssds: 4,
        queue_pairs_per_ssd: 2,
        pipeline: bam_sim::PipelineParams::from_specs(
            &bam_nvme_sim::SsdSpec::intel_optane_p5800x(),
            &bam_pcie::LinkSpec::gen4_x4(),
            &bam_pcie::LinkSpec::gen4_x16(),
            SLO_ACCESS_BYTES,
        ),
    }
}

/// The class for one cell: `members` logical tenants whose merged stream
/// offers `load x knee` aggregate, with the controller optionally armed.
fn slo_class(members: u32, load: f64, controlled: bool) -> TenantClass {
    let class = TenantClass::new(
        0,
        "steady",
        members,
        ArrivalProcess::Poisson {
            rate_per_s: load * SLO_KNEE_RATE_PER_S / f64::from(members),
        },
        SLO_REQUESTS,
    )
    .with_slo(SLO_TARGET_P99_US, SLO_WINDOW_NS);
    if controlled {
        class.with_admission(slo_admission())
    } else {
        class
    }
}

/// Runs the full sweep. The rows are deterministic per seed and contain no
/// wall-clock values.
pub fn slo_sweep(seed: u64) -> Vec<SloRow> {
    let cfg = slo_config(seed);
    let run = Run::new(&cfg);
    let mut rows = Vec::new();
    for &members in &SLO_MEMBER_SCALES {
        for &load in &SLO_LOAD_MULTIPLIERS {
            for controlled in [false, true] {
                let class = slo_class(members, load, controlled);
                let offered_rate_per_s = class.offered_rate_per_s().expect("open process");
                let (report, _) = run
                    .classes(std::slice::from_ref(&class), QueuePairPolicy::Shared)
                    .expect("valid class");
                let t = &report.tenants[0];
                let slo = t.slo.expect("class carries an SLO");
                let adm = t.admission.unwrap_or_default();
                rows.push(SloRow {
                    members,
                    load,
                    offered_rate_per_s,
                    controlled,
                    depth_limit: adm.depth_limit,
                    offered: if controlled { adm.offered } else { t.completed },
                    admitted: if controlled {
                        adm.admitted
                    } else {
                        t.completed
                    },
                    deferrals: adm.deferrals,
                    rejected: adm.rejected,
                    completed: t.completed,
                    throughput_per_s: t.throughput_per_s,
                    p50_us: t.latency.p50_us,
                    p99_us: t.latency.p99_us,
                    p999_us: t.latency.p999_us,
                    burn_rate: slo.burn_rate,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduced-scale shape check: one member scale, the extreme loads only.
    /// The full sweep (all scales, the CI-facing assertions) runs in the
    /// `slo` binary and the `class_equivalence` suite.
    #[test]
    fn controller_holds_the_budget_at_every_load_and_overload_blows_it() {
        let cfg = slo_config(37);
        for (load, overloaded) in [(0.6, false), (1.2, true)] {
            let run = |controlled| {
                let class = slo_class(10_000, load, controlled);
                let (report, _) = Run::new(&cfg)
                    .classes(&[class], QueuePairPolicy::Shared)
                    .unwrap();
                report
            };
            let (base, capped) = (run(false), run(true));
            let adm = capped.tenants[0].admission.expect("controller armed");
            assert_eq!(adm.offered, SLO_REQUESTS);
            assert_eq!(adm.admitted + adm.rejected, adm.offered);
            let burn_base = base.tenants[0].slo.unwrap().burn_rate;
            let burn_capped = capped.tenants[0].slo.unwrap().burn_rate;
            assert!(
                burn_capped < 1.0,
                "controller must hold the budget at load {load} (burn {burn_capped})"
            );
            if overloaded {
                assert!(adm.rejected > 0, "overload must shed");
                assert!(
                    burn_base > 1.0,
                    "uncontrolled overload must blow the budget (burn {burn_base})"
                );
            } else {
                assert!(
                    burn_base < 1.0,
                    "below the knee the uncontrolled class meets its SLO (burn {burn_base})"
                );
            }
        }
    }
}

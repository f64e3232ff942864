//! Multi-tenant workloads: per-tenant arrival processes and their
//! superposition into one merged request stream.
//!
//! A [`TenantSpec`] describes one independent traffic source — its arrival
//! process, request mix, and queue-pair weight. The open streams of N tenants
//! merge into a single time-ordered arrival schedule (closed-loop tenants
//! refill event-driven inside the engine instead), with each tenant driven by
//! its own seeded RNG so adding a tenant never perturbs another tenant's
//! stream. The merge is lazy (the private `arrivals` module: it runs a
//! bounded chunk ahead of its consumer and the engine pulls from it as
//! virtual time advances), and [`Superposition`] is the same merge
//! collected, for callers that want the whole schedule at once.
//!
//! Explicit tenants top out at a handful of streams because generation is
//! O(tenants). [`TenantClass`] scales past that: a class describes `members`
//! statistically identical logical tenants whose merged stream is superposed
//! in *closed form* — M independent Poisson(λ) sources merge to one
//! Poisson(Mλ) source, exactly — so a million logical tenants cost one
//! engine-level stream, accounted as one tenant. On top, an optional
//! [`AdmissionSpec`] arms the engine's per-class SLO admission controller
//! (see [`crate::engine::Run::classes`]).

use bam_obs::SloSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arrivals::ArrivalMerge;
use crate::clock::SimTime;
use crate::dist::Mmpp2;
use crate::engine::SimError;

/// How one tenant's requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Deterministic arrivals at a fixed rate (the legacy open loop).
    FixedRate {
        /// Arrival rate in requests per second.
        rate_per_s: f64,
    },
    /// Poisson arrivals: exponential interarrival gaps at `rate_per_s`.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_per_s: f64,
    },
    /// A fixed number of outstanding requests; every completion immediately
    /// launches the next (the GPU-threads-keep-queues-full model of §2.2).
    ClosedLoop {
        /// Concurrently outstanding requests.
        in_flight: u32,
    },
    /// Markov-modulated Poisson bursts ([`Mmpp2`]): the bursty-antagonist
    /// model.
    Mmpp(Mmpp2),
}

impl ArrivalProcess {
    /// Checks the process's parameters: rates and dwell means positive (NaN
    /// is not), a closed loop with room for at least one request.
    pub fn validate(&self) -> Result<(), SimError> {
        match *self {
            ArrivalProcess::FixedRate { rate_per_s } | ArrivalProcess::Poisson { rate_per_s } => {
                // A NaN rate lands in the `else` too.
                if rate_per_s > 0.0 {
                    Ok(())
                } else {
                    Err(SimError::NonPositiveRate)
                }
            }
            ArrivalProcess::ClosedLoop { in_flight: 0 } => Err(SimError::EmptyClosedLoop),
            ArrivalProcess::ClosedLoop { .. } => Ok(()),
            ArrivalProcess::Mmpp(mmpp) => mmpp.validate(),
        }
    }

    /// How many of a tenant's `requests` arrivals are pre-scheduled before
    /// the engine starts: everything for open streams, only the initial
    /// in-flight window for closed loops (the rest refill event-driven on
    /// completion). The single source of truth keeping the arrival
    /// generators and the engine's issued-count bookkeeping in sync.
    pub(crate) fn prescheduled(self, requests: u64) -> u64 {
        match self {
            ArrivalProcess::ClosedLoop { in_flight } => u64::from(in_flight).min(requests),
            _ => requests,
        }
    }
}

/// One independent traffic source in a multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Stable identifier; also salts the tenant's private RNG stream.
    pub id: u32,
    /// Human-readable name for reports.
    pub name: String,
    /// How this tenant's requests arrive.
    pub arrival: ArrivalProcess,
    /// Total requests the tenant issues over the run.
    pub requests: u64,
    /// How many of those requests are writes (Bresenham-interleaved).
    pub writes: u64,
    /// Relative queue-pair weight under
    /// [`crate::pipeline::QueuePairPolicy::WeightedFair`].
    pub weight: u32,
    /// Optional service-level objective: a p99 target evaluated over fixed
    /// virtual-time windows, reported per tenant (see
    /// [`crate::report::TenantSummary::slo`]).
    pub slo: Option<SloSpec>,
}

impl TenantSpec {
    /// A read-only tenant with weight 1 and the given arrival process.
    pub fn new(id: u32, name: &str, arrival: ArrivalProcess, requests: u64) -> Self {
        Self {
            id,
            name: name.to_string(),
            arrival,
            requests,
            writes: 0,
            weight: 1,
            slo: None,
        }
    }

    /// Attaches a p99 SLO (`target_p99_us` over `window_ns` evaluation
    /// windows) to the tenant.
    pub fn with_slo(mut self, target_p99_us: f64, window_ns: u64) -> Self {
        self.slo = Some(SloSpec {
            target_p99_us,
            window_ns,
        });
        self
    }

    /// The tenant's private RNG, derived from the run seed and its id so
    /// streams are independent and adding a tenant never shifts another's
    /// arrivals.
    pub(crate) fn rng(&self, run_seed: u64) -> StdRng {
        StdRng::seed_from_u64(
            run_seed ^ (u64::from(self.id) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }
}

/// An explicit tenant is the one-member, admission-free class of the same id:
/// its [`TenantClass::merged_spec`] is the tenant again, so the engine runs
/// both through one path.
impl From<&TenantSpec> for TenantClass {
    fn from(tenant: &TenantSpec) -> Self {
        Self {
            id: tenant.id,
            name: tenant.name.clone(),
            members: 1,
            member_arrival: tenant.arrival,
            requests: tenant.requests,
            writes: tenant.writes,
            weight: tenant.weight,
            slo: tenant.slo,
            admission: None,
        }
    }
}

/// Token-bucket admission policy of one [`TenantClass`], actuating its SLO.
///
/// The engine derives the controller's depth threshold from the class's SLO
/// budget via Little's law (see `engine::admission`): while the class's
/// in-flight population projects a p99 under the budget, requests are
/// admitted freely. Over budget, each admission costs one token; the bucket
/// refills at `refill_per_s` in *virtual* time up to `burst` tokens, so
/// short bursts ride through. Out of tokens, a request is deferred by
/// `defer_ns` (re-offered later, its wait surfaced as the
/// [`bam_obs::Stage::Admission`] dwell) at most `max_defers` times, then
/// rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSpec {
    /// Token-bucket capacity: over-budget admissions a burst may borrow.
    pub burst: u32,
    /// Token refill rate in tokens per virtual second.
    pub refill_per_s: f64,
    /// Deferral backoff in virtual nanoseconds.
    pub defer_ns: u64,
    /// Deferrals a request tolerates before it is rejected.
    pub max_defers: u32,
}

/// A class of `members` statistically identical logical tenants, merged
/// into one engine-level stream in closed form.
///
/// `member_arrival` is the process of *one* member; the merged process of
/// [`merged_spec`] (closed-form superposition) is what the engine actually
/// schedules and accounts, so event-loop cost is O(classes) regardless of
/// `members`.
///
/// [`merged_spec`]: TenantClass::merged_spec
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Stable identifier; also salts the class's RNG stream. A class and a
    /// [`TenantSpec`] with the same id draw identical arrival times for the
    /// same process — a class of one member *is* its explicit tenant.
    pub id: u32,
    /// Human-readable name for reports.
    pub name: String,
    /// Logical tenants aggregated by this class.
    pub members: u32,
    /// The arrival process of one individual member.
    pub member_arrival: ArrivalProcess,
    /// Total requests the whole class offers over the run.
    pub requests: u64,
    /// How many of those requests are writes (Bresenham-interleaved).
    pub writes: u64,
    /// Relative queue-pair weight under
    /// [`crate::pipeline::QueuePairPolicy::WeightedFair`].
    pub weight: u32,
    /// Optional class-level service-level objective (evaluated over the
    /// class's merged completions).
    pub slo: Option<SloSpec>,
    /// Optional admission controller actuating the SLO in the arrival path.
    pub admission: Option<AdmissionSpec>,
}

impl TenantClass {
    /// A read-only class of `members` tenants, each arriving per
    /// `member_arrival`, offering `requests` in total.
    pub fn new(
        id: u32,
        name: &str,
        members: u32,
        member_arrival: ArrivalProcess,
        requests: u64,
    ) -> Self {
        Self {
            id,
            name: name.to_string(),
            members,
            member_arrival,
            requests,
            writes: 0,
            weight: 1,
            slo: None,
            admission: None,
        }
    }

    /// Attaches a p99 SLO (`target_p99_us` over `window_ns` evaluation
    /// windows) to the class.
    pub fn with_slo(mut self, target_p99_us: f64, window_ns: u64) -> Self {
        self.slo = Some(SloSpec {
            target_p99_us,
            window_ns,
        });
        self
    }

    /// Arms the class's admission controller. Requires an SLO (the
    /// controller's budget) — the engine asserts both are present.
    pub fn with_admission(mut self, admission: AdmissionSpec) -> Self {
        self.admission = Some(admission);
        self
    }

    /// The closed-form superposition of `members` independent
    /// `member_arrival` processes:
    ///
    /// * `Poisson(λ)` → `Poisson(Mλ)` — exact (superposition theorem).
    /// * `FixedRate(r)` → `FixedRate(Mr)` — the members' deterministic
    ///   combs merge to one comb at the aggregate rate.
    /// * [`Mmpp2`] → both state rates scaled by `M`, dwell times kept — the
    ///   *shared modulating environment* reading (all members calm or
    ///   bursty together: a flash crowd), under which the merge is again
    ///   closed-form.
    /// * `ClosedLoop(w)` → `ClosedLoop(Mw)` — each member keeps `w`
    ///   requests in flight.
    fn merged_arrival(&self) -> ArrivalProcess {
        assert!(self.members > 0, "a class needs at least one member");
        let m = f64::from(self.members);
        match self.member_arrival {
            ArrivalProcess::FixedRate { rate_per_s } => ArrivalProcess::FixedRate {
                rate_per_s: rate_per_s * m,
            },
            ArrivalProcess::Poisson { rate_per_s } => ArrivalProcess::Poisson {
                rate_per_s: rate_per_s * m,
            },
            ArrivalProcess::ClosedLoop { in_flight } => ArrivalProcess::ClosedLoop {
                in_flight: in_flight.saturating_mul(self.members),
            },
            ArrivalProcess::Mmpp(p) => ArrivalProcess::Mmpp(Mmpp2 {
                calm_rate_per_s: p.calm_rate_per_s * m,
                burst_rate_per_s: p.burst_rate_per_s * m,
                ..p
            }),
        }
    }

    /// Mean offered rate of the merged stream in requests per second —
    /// the admission controller's λ. `None` for closed loops (their rate is
    /// completion-driven, so there is no open-loop λ to project from;
    /// admission control requires an open process).
    pub fn offered_rate_per_s(&self) -> Option<f64> {
        let m = f64::from(self.members);
        match self.member_arrival {
            ArrivalProcess::FixedRate { rate_per_s } | ArrivalProcess::Poisson { rate_per_s } => {
                Some(rate_per_s * m)
            }
            ArrivalProcess::ClosedLoop { .. } => None,
            ArrivalProcess::Mmpp(p) => Some(p.mean_rate_per_s() * m),
        }
    }

    /// The class as one merged engine-level tenant running the members'
    /// superposed arrival process, under the same id (so the arrival RNG
    /// stream matches an explicit [`TenantSpec`] of that process).
    pub fn merged_spec(&self) -> TenantSpec {
        TenantSpec {
            id: self.id,
            name: self.name.clone(),
            arrival: self.merged_arrival(),
            requests: self.requests,
            writes: self.writes,
            weight: self.weight,
            slo: self.slo,
        }
    }
}

/// The merged arrival schedule of N tenants: every open-stream arrival with
/// its global request index, in time order, plus the initial batch of each
/// closed-loop tenant (scheduled at time zero; refills are event-driven).
///
/// The engine never materialises this — it pulls the same merge lazily —
/// so the eager form exists for callers that want the whole schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Superposition {
    /// `(instant, global request index)` for every pre-generated arrival,
    /// sorted by time (ties keep tenant declaration order).
    pub arrivals: Vec<(SimTime, u64)>,
}

impl Superposition {
    /// Generates and merges the arrival streams of `tenants`. `bases[t]` is
    /// tenant `t`'s first global request index (its requests are contiguous).
    ///
    /// # Panics
    ///
    /// Panics on an arrival process that fails
    /// [`ArrivalProcess::validate`], or `bases` not matching `tenants` in
    /// length.
    pub fn generate(run_seed: u64, tenants: &[TenantSpec], bases: &[u64]) -> Self {
        assert_eq!(tenants.len(), bases.len(), "one base index per tenant");
        for t in tenants {
            if let Err(e) = t.arrival.validate() {
                panic!("tenant {}: {e}", t.id);
            }
        }
        let mut next = bases.to_vec();
        let arrivals = ArrivalMerge::of_tenants(run_seed, tenants)
            .map(|(at, tenant)| {
                let req = next[tenant as usize];
                next[tenant as usize] += 1;
                (at, req)
            })
            .collect();
        Self { arrivals }
    }

    /// Arrivals a tenant contributes before the engine starts (everything for
    /// open streams, the initial window for closed loops).
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` when no tenant contributed any arrival.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_matches_the_legacy_spacing() {
        let t = TenantSpec::new(0, "t0", ArrivalProcess::FixedRate { rate_per_s: 1.0e6 }, 4);
        let s = Superposition::generate(1, &[t], &[0]);
        let times: Vec<u64> = s.arrivals.iter().map(|&(at, _)| at.as_ns()).collect();
        assert_eq!(times, vec![0, 1000, 2000, 3000]);
    }

    #[test]
    fn superposition_merges_in_time_order_with_stable_ties() {
        let a = TenantSpec::new(0, "a", ArrivalProcess::FixedRate { rate_per_s: 1.0e6 }, 3);
        let b = TenantSpec::new(1, "b", ArrivalProcess::FixedRate { rate_per_s: 1.0e6 }, 3);
        let s = Superposition::generate(1, &[a, b], &[0, 3]);
        assert_eq!(s.len(), 6);
        // Ties at 0, 1000, 2000 ns: tenant 0's request precedes tenant 1's.
        let reqs: Vec<u64> = s.arrivals.iter().map(|&(_, r)| r).collect();
        assert_eq!(reqs, vec![0, 3, 1, 4, 2, 5]);
        assert!(s.arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn closed_loop_contributes_only_the_initial_window() {
        let t = TenantSpec::new(0, "cl", ArrivalProcess::ClosedLoop { in_flight: 4 }, 100);
        let s = Superposition::generate(1, &[t], &[0]);
        assert_eq!(s.len(), 4);
        assert!(s.arrivals.iter().all(|&(at, _)| at == SimTime::ZERO));
    }

    #[test]
    fn class_stream_is_bitwise_the_merged_explicit_tenant() {
        // A Poisson class of M members must schedule exactly what an
        // explicit TenantSpec with the merged rate (same id) schedules.
        let class = TenantClass::new(
            3,
            "pool",
            1000,
            ArrivalProcess::Poisson { rate_per_s: 50.0 },
            400,
        );
        let explicit = TenantSpec::new(
            3,
            "pool",
            ArrivalProcess::Poisson {
                rate_per_s: 50.0 * 1000.0,
            },
            400,
        );
        let via_class = Superposition::generate(9, &[class.merged_spec()], &[0]);
        let via_spec = Superposition::generate(9, &[explicit], &[0]);
        assert_eq!(via_class, via_spec);
    }

    #[test]
    fn single_member_class_is_its_explicit_tenant() {
        let class = TenantClass::new(
            1,
            "solo",
            1,
            ArrivalProcess::Poisson { rate_per_s: 2.0e5 },
            64,
        );
        let spec = TenantSpec::new(1, "solo", ArrivalProcess::Poisson { rate_per_s: 2.0e5 }, 64);
        let via_class = Superposition::generate(5, &[class.merged_spec()], &[0]);
        let via_spec = Superposition::generate(5, &[spec], &[0]);
        assert_eq!(via_class, via_spec);
    }

    #[test]
    fn merged_arrival_scales_rates_by_member_count() {
        let c = TenantClass::new(
            0,
            "c",
            4,
            ArrivalProcess::FixedRate { rate_per_s: 250.0 },
            8,
        );
        match c.merged_arrival() {
            ArrivalProcess::FixedRate { rate_per_s } => assert!((rate_per_s - 1000.0).abs() < 1e-9),
            other => panic!("unexpected merge: {other:?}"),
        }
        assert_eq!(c.offered_rate_per_s(), Some(1000.0));
        let cl = TenantClass::new(0, "cl", 3, ArrivalProcess::ClosedLoop { in_flight: 2 }, 8);
        assert_eq!(
            cl.merged_arrival(),
            ArrivalProcess::ClosedLoop { in_flight: 6 }
        );
        assert_eq!(cl.offered_rate_per_s(), None);
    }

    #[test]
    fn tenant_streams_are_independent_of_neighbours() {
        let mk = |id| TenantSpec::new(id, "p", ArrivalProcess::Poisson { rate_per_s: 1.0e5 }, 50);
        let solo = Superposition::generate(7, &[mk(1)], &[0]);
        let pair = Superposition::generate(7, &[mk(0), mk(1)], &[0, 50]);
        let solo_times: Vec<SimTime> = solo.arrivals.iter().map(|&(at, _)| at).collect();
        let pair_times: Vec<SimTime> = pair
            .arrivals
            .iter()
            .filter(|&&(_, r)| r >= 50)
            .map(|&(at, _)| at)
            .collect();
        assert_eq!(solo_times, pair_times, "tenant 1's stream must not move");
    }
}

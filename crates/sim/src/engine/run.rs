//! The one driver behind every [`Run`] terminal: validate the input, build
//! the scenario (streams, arrival merge, admission state, SLO windows), pick
//! the accounting's [`placement`], call [`execute`] once, and assemble the
//! report.

use bam_obs::{evaluate_slo, LatencyHisto, SloSpec, SpanRecorder, StageBreakdown, WindowedSeries};

use super::admission::{AdmissionCtl, AdmissionState};
use super::spine::drive_events;
use super::stream::{block_bases, queue_pair_shares, Shape, Stream};
use super::{RequestDesc, Run, SimConfig, SimError, TelemetrySpec, Workload};
use crate::arrivals::ArrivalMerge;
use crate::clock::SimTime;
use crate::coordinator;
use crate::pipeline::QueuePairPolicy;
use crate::report::{
    build_run_telemetry, AdmissionReport, DepthTimeline, LatencySummary, MemberSummary,
    MultiTenantReport, RunTelemetry, SimReport, TenantSummary,
};
use crate::shard::{occupancy_stats, Accounting, ObsPlan, TenantAcc};
use crate::tenant::{ArrivalProcess, TenantClass, TenantSpec};

/// What a run hands back to the report builders, identical wherever the
/// accounting ran.
pub(crate) struct EngineOutput {
    pub(crate) end: SimTime,
    pub(crate) depth: DepthTimeline,
    pub(crate) events: u64,
    /// Most events ever simultaneously pending in the spine's heap. Not part
    /// of any report; read only by the footprint-bound tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) peak_queued: usize,
    /// Most in-flight slots ever simultaneously live (see `peak_queued`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) peak_slots: usize,
    pub(crate) occupancy_mean: f64,
    pub(crate) occupancy_max: u64,
    /// Latency histogram over completed reads.
    pub(crate) read_latency: LatencyHisto,
    /// Latency histogram over completed writes. Includes the journal-flush
    /// stage when enabled — latency is measured from arrival.
    pub(crate) write_latency: LatencyHisto,
    /// Per-tenant accounting, in tenant declaration order.
    pub(crate) tenants: Vec<TenantAcc>,
    /// Run-level windowed telemetry (empty when the plan disabled it).
    pub(crate) series: WindowedSeries,
    /// Streamed blame over every settled request, shard accumulators
    /// merged (`None` when the plan disabled blame).
    pub(crate) blame: Option<bam_obs::BlameAccumulator>,
}

/// How many accounting shards a run gets (0 = inline on the spine's thread).
///
/// Observed runs (a windowed series or blame) shard onto
/// `min(cpus, num_ssds)` threads; everything else runs inline — plain runs,
/// traced runs (spans are recorded in emission order, which only the inline
/// engine has) and hosts with one CPU. Measured on the benchmark's 8-tenant
/// scenario on 2 vCPUs: telemetry off, inline accounting runs 11.2–14.0 M
/// requests/s against two shards' 9.5–10.5 M; with full telemetry, two shards
/// run 9.2–12.2 M against inline's 7.7–8.2 M. `cpus` is only asked for when
/// the run would shard.
fn placement(
    telemetry: TelemetrySpec,
    traced: bool,
    num_ssds: u32,
    cpus: impl FnOnce() -> usize,
) -> usize {
    let observed = telemetry.window_ns > 0 || telemetry.blame;
    if !observed || traced {
        return 0;
    }
    match cpus() {
        0 | 1 => 0,
        cpus => cpus.min(num_ssds as usize),
    }
}

/// Runs the spine over `streams` with accounting applied inline on the
/// spine's thread (`shards == 0`) or on that many accounting shards (see
/// [`crate::coordinator`]), returning identical output either way. Only an
/// inline run records spans.
pub(crate) fn execute(
    config: &SimConfig,
    streams: &mut [Stream<'_>],
    arrivals: &mut ArrivalMerge,
    admission: &mut AdmissionState,
    recorder: Option<&SpanRecorder>,
    shards: usize,
    plan: &ObsPlan<'_>,
) -> EngineOutput {
    if shards > 0 {
        assert!(recorder.is_none(), "span tracing runs inline");
        return coordinator::run_sharded_core(config, streams, arrivals, admission, shards, plan);
    }
    let mut acct = Accounting::new(config.total_queue_pairs(), plan, recorder);
    let spine = drive_events(config, streams, arrivals, admission, &mut |rec| {
        acct.apply(rec)
    });
    let (occupancy_mean, occupancy_max) = occupancy_stats(&acct.meters, spine.end);
    let blame = acct.take_blame();
    EngineOutput {
        end: spine.end,
        depth: spine.depth,
        events: spine.events,
        peak_queued: spine.peak_queued,
        peak_slots: spine.peak_slots,
        occupancy_mean,
        occupancy_max,
        read_latency: acct.read_latency,
        write_latency: acct.write_latency,
        tenants: acct.tenants,
        series: acct.series,
        blame,
    }
}

/// Which terminal of [`Run`] a scenario came in through (names the input in
/// errors), carrying the caller's own descriptors for the single stream.
#[derive(Debug, Clone, Copy)]
pub(super) enum Input<'a> {
    /// [`Run::single`]: the one class's stream is these requests.
    Requests(&'a [RequestDesc]),
    /// [`Run::tenants`]: each class is one explicit tenant.
    Tenants,
    /// The class terminals.
    Classes,
}

/// Accounting granularity of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ClassGranularity {
    /// One engine tenant per class — the production mode, O(classes)
    /// accounting regardless of member count. With `attribution` the
    /// thinned per-member histograms are collected too.
    Class { attribution: bool },
    /// One engine tenant per logical member: the *oracle* mode the
    /// equivalence suite compares against. The merged stream, routing and
    /// request table are identical to `Class` mode — only accounting
    /// granularity changes — so the overall report must match bit for bit.
    Member,
}

/// The single stream of [`Run::single`] as a one-member class: the legacy
/// workloads are the single-stream cases of the tenant processes — same
/// spacing formula, same time-zero initial window — and neither draws from
/// its arrival RNG.
pub(super) fn single_class(workload: Workload, requests: u64) -> TenantClass {
    let arrival = match workload {
        Workload::OpenLoop { rate_per_s } => ArrivalProcess::FixedRate { rate_per_s },
        Workload::ClosedLoop { in_flight } => ArrivalProcess::ClosedLoop { in_flight },
    };
    TenantClass::new(0, "", 1, arrival, requests)
}

/// The one input check: everything a caller can get wrong that the engine
/// would otherwise trip over mid-run.
fn validate(
    config: &SimConfig,
    input: Input<'_>,
    classes: &[TenantClass],
    granularity: ClassGranularity,
) -> Result<(), SimError> {
    match input {
        Input::Requests([]) => return Err(SimError::NoRequests),
        Input::Tenants if classes.is_empty() => return Err(SimError::NoTenants),
        Input::Classes if classes.is_empty() => return Err(SimError::NoClasses),
        _ => {}
    }
    if config.total_queue_pairs() == 0 {
        return Err(SimError::NoQueuePairs);
    }
    for (i, c) in classes.iter().enumerate() {
        c.member_arrival.validate()?;
        if classes[..i].iter().any(|u| u.id == c.id) {
            return Err(match input {
                Input::Tenants => SimError::DuplicateTenantId(c.id),
                _ => SimError::DuplicateClassId(c.id),
            });
        }
        if c.members == 0 {
            return Err(SimError::NoMembers(c.id));
        }
        if c.admission.is_some() {
            if !c.slo.is_some_and(|slo| slo.target_p99_us > 0.0) {
                return Err(SimError::AdmissionWithoutSlo(c.id));
            }
            if c.offered_rate_per_s().is_none() {
                return Err(SimError::AdmissionOnClosedLoop(c.id));
            }
        }
        let open = !matches!(c.member_arrival, ArrivalProcess::ClosedLoop { .. });
        if granularity == ClassGranularity::Member && !(open && c.admission.is_none()) {
            return Err(SimError::OracleOnControlledClass(c.id));
        }
    }
    Ok(())
}

/// A finished simulation before report assembly: the engine's output plus
/// the two facts of the scenario the summaries quote.
pub(super) struct Simulated {
    pub(super) outcome: EngineOutput,
    /// Queue pairs `policy` granted each class.
    shares: Vec<u32>,
    admission: AdmissionState,
}

impl Run<'_> {
    /// Validates the input, builds its scenario and runs it — the only
    /// caller of [`execute`]. Each class is one engine-level stream owning a
    /// contiguous block of global request indices; what a request looks like
    /// and where it routes is a closed form of the stream's own arrival
    /// counter, so the schedule is independent of accounting granularity.
    pub(super) fn simulate(
        &self,
        input: Input<'_>,
        classes: &[TenantClass],
        policy: QueuePairPolicy,
        granularity: ClassGranularity,
    ) -> Result<Simulated, SimError> {
        let config = self.config;
        validate(config, input, classes, granularity)?;
        let per_member = granularity == ClassGranularity::Member;
        let attribution = granularity == ClassGranularity::Class { attribution: true };

        let weights: Vec<u32> = classes.iter().map(|c| c.weight).collect();
        let (shares, routes) = queue_pair_shares(config, policy, &weights)?;
        let bases = block_bases(classes.iter().map(|c| c.requests));
        let specs: Vec<TenantSpec> = classes.iter().map(TenantClass::merged_spec).collect();

        // One accounting tenant per class — or, for the member oracle, one
        // per logical member in (class, member) order.
        let mut accounts = 0u32;
        let mut streams: Vec<Stream> = classes
            .iter()
            .zip(&specs)
            .zip(bases.iter().zip(&routes))
            .map(|((c, spec), (&base, &route))| {
                let shape = match input {
                    Input::Requests(requests) => Shape::Explicit(requests),
                    _ => Shape::Mixed {
                        writes: spec.writes.min(spec.requests),
                        bytes: config.pipeline.access_bytes,
                        route,
                    },
                };
                let stream = Stream::new(base, spec.requests, spec.arrival, shape, accounts);
                accounts += if per_member { c.members } else { 1 };
                if per_member || attribution {
                    stream.thinned(c, config.seed, per_member)
                } else {
                    stream
                }
            })
            .collect();
        let mut arrivals = ArrivalMerge::of_tenants(config.seed, &specs);

        let slo_windows: Vec<u64> = if per_member {
            vec![0; accounts as usize]
        } else {
            classes
                .iter()
                .map(|c| c.slo.map_or(0, |s| s.window_ns))
                .collect()
        };
        let mut admission = AdmissionState::new(
            classes
                .iter()
                .map(|c| {
                    c.admission.as_ref().map(|spec| {
                        AdmissionCtl::new(
                            spec,
                            c.offered_rate_per_s().expect("validated open"),
                            c.slo.expect("validated SLO").target_p99_us,
                        )
                    })
                })
                .collect(),
        );

        let plan = ObsPlan {
            telemetry: self.telemetry,
            requests: streams.iter().map(|s| s.count).sum(),
            tenant_slo_windows: &slo_windows,
            attribution,
        };
        let shards = self.shards.unwrap_or_else(|| {
            let cpus = || std::thread::available_parallelism().map_or(1, usize::from);
            placement(
                self.telemetry,
                self.recorder.is_some(),
                config.num_ssds,
                cpus,
            )
        });
        let outcome = execute(
            config,
            &mut streams,
            &mut arrivals,
            &mut admission,
            self.recorder,
            shards,
            &plan,
        );
        Ok(Simulated {
            outcome,
            shares,
            admission,
        })
    }

    /// [`Run::simulate`] plus report assembly: one summary row per class (or
    /// per member, for the oracle) and the merged overall view.
    pub(super) fn drive(
        &self,
        input: Input<'_>,
        classes: &[TenantClass],
        policy: QueuePairPolicy,
        granularity: ClassGranularity,
    ) -> Result<(MultiTenantReport, RunTelemetry), SimError> {
        let Simulated {
            mut outcome,
            shares,
            admission,
        } = self.simulate(input, classes, policy, granularity)?;
        let run_telemetry = take_run_telemetry(&mut outcome);

        let mut overall_stages = StageBreakdown::new();
        let mut summaries: Vec<TenantSummary> = Vec::new();
        let mut accounts = std::mem::take(&mut outcome.tenants).into_iter();
        for (ci, (c, &share)) in classes.iter().zip(&shares).enumerate() {
            if granularity == ClassGranularity::Member {
                for m in 0..c.members {
                    let acc = accounts.next().expect("one account per member");
                    overall_stages.merge(&acc.stages);
                    let name = format!("{}#{m}", c.name);
                    summaries.push(tenant_summary(m, name, c.weight, share, None, acc));
                }
                continue;
            }
            let mut acc = accounts.next().expect("one account per class");
            overall_stages.merge(&acc.stages);
            let admission_report = c.admission.map(|_| AdmissionReport {
                offered: acc.offered,
                admitted: acc.offered - acc.rejected,
                deferrals: acc.deferrals,
                rejected: acc.rejected,
                depth_limit: admission.depth_limit(ci),
            });
            let members = std::mem::take(&mut acc.members)
                .into_iter()
                .map(|(member, histo)| MemberSummary {
                    member,
                    completed: histo.count(),
                    latency: LatencySummary::from_histo(&histo),
                    histogram: histo,
                })
                .collect();
            summaries.push(TenantSummary {
                admission: admission_report,
                members,
                ..tenant_summary(c.id, c.name.clone(), c.weight, share, c.slo.as_ref(), acc)
            });
        }
        let report = MultiTenantReport {
            overall: build_report(outcome, overall_stages),
            tenants: summaries,
        };
        Ok((report, run_telemetry))
    }
}

/// Moves the run-level telemetry out of `outcome` and assembles it.
fn take_run_telemetry(outcome: &mut EngineOutput) -> RunTelemetry {
    let series = std::mem::replace(&mut outcome.series, WindowedSeries::new(0));
    let blame = outcome.blame.take();
    build_run_telemetry(series, blame, &outcome.depth)
}

/// The run seen as one merged stream.
fn build_report(outcome: EngineOutput, stages: StageBreakdown) -> SimReport {
    SimReport::build(
        &outcome.read_latency,
        &outcome.write_latency,
        outcome.depth,
        outcome.end,
        outcome.events,
        outcome.occupancy_mean,
        outcome.occupancy_max,
        stages,
    )
}

/// One summary row from a merged account (`admission` and `members` start
/// empty; class rows fill them in).
fn tenant_summary(
    id: u32,
    name: String,
    weight: u32,
    queue_pairs: u32,
    slo: Option<&SloSpec>,
    acc: TenantAcc,
) -> TenantSummary {
    let first_arrival = acc.first_arrival.unwrap_or(SimTime::ZERO);
    let span_s = (acc.last_completion - first_arrival) as f64 / 1e9;
    let completed = acc.latency.count();
    TenantSummary {
        id,
        name,
        weight,
        queue_pairs,
        latency: LatencySummary::from_histo(&acc.latency),
        completed,
        throughput_per_s: if span_s > 0.0 {
            completed as f64 / span_s
        } else {
            0.0
        },
        first_arrival_s: first_arrival.as_secs_f64(),
        last_completion_s: acc.last_completion.as_secs_f64(),
        slo: slo.map(|spec| evaluate_slo(&acc.slo_series, spec)),
        stages: acc.stages,
        admission: None,
        members: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::spine::HEAP_SLACK;
    use crate::engine::tests::optane_config;
    use crate::engine::{mixed_requests, uniform_reads, TelemetrySpec};
    use crate::tenant::AdmissionSpec;
    use bam_obs::Stage;

    const PLAIN: ClassGranularity = ClassGranularity::Class { attribution: false };

    fn steady(id: u32, rate_per_s: f64, requests: u64) -> TenantSpec {
        TenantSpec::new(
            id,
            &format!("steady-{id}"),
            ArrivalProcess::Poisson { rate_per_s },
            requests,
        )
    }

    /// The report of an untraced, unobserved, inline tenant run.
    fn tenants(
        cfg: &SimConfig,
        tenants: &[TenantSpec],
        policy: QueuePairPolicy,
    ) -> MultiTenantReport {
        let (report, _) = Run::new(cfg).tenants(tenants, policy).expect("valid input");
        report
    }

    #[test]
    fn tenant_runs_are_deterministic_per_seed() {
        let cfg = optane_config(4, 2, 4096, 21);
        let specs = [
            steady(0, 100.0e3, 4_000),
            TenantSpec::new(
                1,
                "burst",
                ArrivalProcess::Mmpp(crate::dist::Mmpp2 {
                    calm_rate_per_s: 50.0e3,
                    burst_rate_per_s: 1.6e6,
                    mean_calm_s: 4.0e-3,
                    mean_burst_s: 1.0e-3,
                }),
                8_000,
            ),
        ];
        for policy in [QueuePairPolicy::Shared, QueuePairPolicy::WeightedFair] {
            assert_eq!(tenants(&cfg, &specs, policy), tenants(&cfg, &specs, policy));
        }
    }

    #[test]
    fn superposed_fixed_streams_add_their_rates() {
        // Two 1M/s tenants behave like one 2M/s stream: overall throughput
        // matches the aggregate arrival rate (the array is unsaturated).
        let cfg = optane_config(1, 64, 512, 22);
        let fixed = ArrivalProcess::FixedRate { rate_per_s: 1.0e6 };
        let specs = [
            TenantSpec::new(0, "a", fixed, 20_000),
            TenantSpec::new(1, "b", fixed, 20_000),
        ];
        let report = tenants(&cfg, &specs, QueuePairPolicy::Shared);
        assert_eq!(report.overall.completed, 40_000);
        assert!(
            (report.overall.throughput_per_s / 2.0e6 - 1.0).abs() < 0.02,
            "aggregate throughput {}",
            report.overall.throughput_per_s
        );
        for t in &report.tenants {
            assert!((t.throughput_per_s / 1.0e6 - 1.0).abs() < 0.02);
            assert!(t.latency.p50_us > 0.0);
        }
    }

    #[test]
    fn weighted_fair_shares_follow_weights() {
        let cfg = optane_config(4, 2, 4096, 23);
        let mut heavy = steady(0, 100.0e3, 2_000);
        heavy.weight = 3;
        let specs = [heavy, steady(1, 100.0e3, 2_000)];
        let report = tenants(&cfg, &specs, QueuePairPolicy::WeightedFair);
        assert_eq!(report.tenants[0].queue_pairs, 6);
        assert_eq!(report.tenants[1].queue_pairs, 2);
        // Shared policy reports the whole array for everyone.
        let shared = tenants(&cfg, &specs, QueuePairPolicy::Shared);
        assert!(shared.tenants.iter().all(|t| t.queue_pairs == 8));
    }

    #[test]
    fn closed_loop_tenant_coexists_with_open_stream() {
        let cfg = optane_config(1, 32, 512, 24);
        let specs = [
            TenantSpec::new(
                0,
                "cl",
                ArrivalProcess::ClosedLoop { in_flight: 64 },
                20_000,
            ),
            steady(1, 200.0e3, 2_000),
        ];
        let report = tenants(&cfg, &specs, QueuePairPolicy::Shared);
        assert_eq!(report.overall.completed, 22_000);
        let cl = report.tenant(0).unwrap();
        let open = report.tenant(1).unwrap();
        // The closed loop saturates its window; the Poisson tenant trickles.
        assert!(cl.throughput_per_s > open.throughput_per_s * 5.0);
        assert_eq!(cl.completed, 20_000);
        assert_eq!(open.completed, 2_000);
    }

    #[test]
    fn tenant_write_mix_is_bresenham_interleaved() {
        let cfg = optane_config(1, 8, 512, 25);
        let mut t = steady(0, 1.0e6, 10);
        t.writes = 3;
        let report = tenants(&cfg, &[t], QueuePairPolicy::Shared);
        assert_eq!(report.overall.completed, 10);
        // The run exercises the write path (slower media): latency spread
        // between p50 and max reflects the two service classes.
        assert!(report.overall.latency.max_us > report.overall.latency.p50_us);
    }

    #[test]
    fn zero_request_tenant_is_legal_and_zeroed() {
        let cfg = optane_config(4, 2, 4096, 33);
        let specs = [steady(0, 100.0e3, 2_000), steady(1, 100.0e3, 0)];
        let report = tenants(&cfg, &specs, QueuePairPolicy::Shared);
        assert_eq!(report.overall.completed, 2_000);
        let idle = report.tenant(1).unwrap();
        assert_eq!(idle.completed, 0);
        assert_eq!(idle.latency, LatencySummary::default());
        assert_eq!(idle.throughput_per_s, 0.0);
        assert!(idle.stages.is_empty());
        // Its interference ratio is a NaN-free sentinel, not a panic.
        let ratio = crate::report::interference_ratio(idle.latency.p99_us, idle.latency.p99_us);
        assert_eq!(ratio, 1.0);
    }

    #[test]
    fn bad_input_is_a_typed_error_from_every_terminal() {
        let cfg = optane_config(1, 8, 512, 26);
        let run = Run::new(&cfg);
        let shared = QueuePairPolicy::Shared;
        let closed = Workload::ClosedLoop { in_flight: 4 };
        let reqs = uniform_reads(&cfg, 8);
        assert_eq!(run.single(closed, &[]).err(), Some(SimError::NoRequests));
        for rate_per_s in [0.0, -1.0, f64::NAN] {
            let open = Workload::OpenLoop { rate_per_s };
            assert_eq!(
                run.single(open, &reqs).err(),
                Some(SimError::NonPositiveRate)
            );
        }
        let no_qps = SimConfig {
            queue_pairs_per_ssd: 0,
            ..cfg.clone()
        };
        assert_eq!(
            Run::new(&no_qps).single(closed, &reqs).err(),
            Some(SimError::NoQueuePairs)
        );
        assert_eq!(run.tenants(&[], shared).err(), Some(SimError::NoTenants));
        let twins = [steady(7, 1.0e5, 10), steady(7, 1.0e5, 10)];
        assert_eq!(
            run.tenants(&twins, shared).err(),
            Some(SimError::DuplicateTenantId(7))
        );

        // Arrival parameters the generators cannot run on.
        let mmpp = crate::dist::Mmpp2 {
            calm_rate_per_s: 50.0e3,
            burst_rate_per_s: 1.6e6,
            mean_calm_s: 4.0e-3,
            mean_burst_s: 1.0e-3,
        };
        let silent = crate::dist::Mmpp2 {
            calm_rate_per_s: 0.0,
            burst_rate_per_s: 0.0,
            ..mmpp
        };
        let negative = crate::dist::Mmpp2 {
            calm_rate_per_s: -1.0,
            ..mmpp
        };
        let instant = crate::dist::Mmpp2 {
            mean_burst_s: 0.0,
            ..mmpp
        };
        let unsettled = crate::dist::Mmpp2 {
            mean_calm_s: f64::NAN,
            ..mmpp
        };
        let arrivals = [
            (
                ArrivalProcess::Poisson { rate_per_s: 0.0 },
                SimError::NonPositiveRate,
            ),
            (
                ArrivalProcess::FixedRate {
                    rate_per_s: f64::NAN,
                },
                SimError::NonPositiveRate,
            ),
            (ArrivalProcess::Mmpp(silent), SimError::InvalidMmppRates),
            (ArrivalProcess::Mmpp(negative), SimError::InvalidMmppRates),
            (
                ArrivalProcess::Mmpp(instant),
                SimError::NonPositiveMmppDwell,
            ),
            (
                ArrivalProcess::Mmpp(unsettled),
                SimError::NonPositiveMmppDwell,
            ),
            (
                ArrivalProcess::ClosedLoop { in_flight: 0 },
                SimError::EmptyClosedLoop,
            ),
        ];
        for (arrival, error) in arrivals {
            let tenant = TenantSpec::new(1, "bad", arrival, 10);
            let specs = [steady(0, 1.0e5, 10), tenant];
            assert_eq!(
                run.tenants(&specs, shared).err(),
                Some(error),
                "{arrival:?}"
            );
        }
        assert_eq!(
            run.single(Workload::ClosedLoop { in_flight: 0 }, &reqs)
                .err(),
            Some(SimError::EmptyClosedLoop)
        );

        // A weighted-fair split the 8-queue-pair array cannot honour.
        let fair = QueuePairPolicy::WeightedFair;
        let crowd: Vec<TenantSpec> = (0..9).map(|id| steady(id, 1.0e5, 10)).collect();
        assert_eq!(
            run.tenants(&crowd, fair).err(),
            Some(SimError::TooFewQueuePairs {
                queue_pairs: 8,
                streams: 9
            })
        );
        assert!(run.tenants(&crowd, shared).is_ok());
        let mut weightless = steady(1, 1.0e5, 10);
        weightless.weight = 0;
        let specs = [steady(0, 1.0e5, 10), weightless];
        assert_eq!(
            run.tenants(&specs, fair).err(),
            Some(SimError::ZeroWeight(1))
        );
        assert!(run.tenants(&specs, shared).is_ok());

        let poisson = ArrivalProcess::Poisson { rate_per_s: 1.0e3 };
        let class = |id, members| TenantClass::new(id, "c", members, poisson, 10);
        let admission = AdmissionSpec {
            burst: 1,
            refill_per_s: 1.0,
            defer_ns: 1,
            max_defers: 0,
        };
        let closed_class =
            TenantClass::new(3, "cl", 2, ArrivalProcess::ClosedLoop { in_flight: 1 }, 10);
        let cases = [
            (vec![], SimError::NoClasses),
            (
                vec![class(2, 1), class(2, 1)],
                SimError::DuplicateClassId(2),
            ),
            (vec![class(4, 0)], SimError::NoMembers(4)),
            (
                vec![class(5, 1).with_admission(admission)],
                SimError::AdmissionWithoutSlo(5),
            ),
            (
                vec![class(5, 1).with_slo(0.0, 1_000).with_admission(admission)],
                SimError::AdmissionWithoutSlo(5),
            ),
            (
                vec![closed_class
                    .clone()
                    .with_slo(30.0, 1_000)
                    .with_admission(admission)],
                SimError::AdmissionOnClosedLoop(3),
            ),
        ];
        for (classes, error) in cases {
            assert_eq!(run.classes(&classes, shared).err(), Some(error));
            assert_eq!(run.classes_attributed(&classes, shared).err(), Some(error));
            assert_eq!(run.class_members(&classes, shared).err(), Some(error));
        }
        let controlled = class(6, 2).with_slo(30.0, 1_000).with_admission(admission);
        for (class, id) in [(closed_class, 3), (controlled, 6)] {
            assert_eq!(
                run.class_members(&[class], shared).err(),
                Some(SimError::OracleOnControlledClass(id))
            );
        }
        assert_eq!(
            SimError::DuplicateTenantId(7).to_string(),
            "duplicate tenant id 7"
        );
    }

    #[test]
    fn only_observed_untraced_runs_on_a_multicore_host_shard() {
        let (off, full) = (TelemetrySpec::disabled(), TelemetrySpec::full(100_000, 8));
        let series_only = TelemetrySpec {
            window_ns: 100_000,
            ..off
        };
        let blame_only = TelemetrySpec { blame: true, ..off };
        let no_cpus = || -> usize { panic!("an inline run needs no CPU count") };
        assert_eq!(placement(off, false, 4, no_cpus), 0, "plain");
        assert_eq!(placement(off, true, 4, no_cpus), 0, "traced");
        assert_eq!(placement(full, true, 4, no_cpus), 0, "traced and observed");
        assert_eq!(placement(full, false, 4, || 1), 0, "one CPU");
        for spec in [full, series_only, blame_only] {
            assert_eq!(placement(spec, false, 4, || 2), 2, "{spec:?}");
            assert_eq!(placement(spec, false, 4, || 16), 4, "{spec:?}");
            assert_eq!(placement(spec, false, 1, || 2), 1, "{spec:?}");
        }
    }

    /// Two overloaded classes, one behind an armed controller that both
    /// defers and rejects.
    fn controlled_classes() -> [TenantClass; 2] {
        let poisson = ArrivalProcess::Poisson { rate_per_s: 150.0 };
        [
            TenantClass::new(0, "steady", 10_000, poisson, 5_000)
                .with_slo(30.0, 1_000_000)
                .with_admission(AdmissionSpec {
                    burst: 8,
                    refill_per_s: 1_000.0,
                    defer_ns: 200_000,
                    max_defers: 2,
                }),
            TenantClass::new(5, "background", 1_000, poisson, 1_000),
        ]
    }

    /// Runs one stream and returns the engine's raw output, so tests can
    /// read spine internals (peak slot and heap occupancy) that reports
    /// deliberately omit.
    fn probe(run: Run<'_>, workload: Workload, requests: &[RequestDesc]) -> EngineOutput {
        let class = single_class(workload, requests.len() as u64);
        let input = Input::Requests(requests);
        run.simulate(input, &[class], QueuePairPolicy::Shared, PLAIN)
            .expect("valid input")
            .outcome
    }

    /// The heap half of the footprint bound (`drive_events` asserts the same
    /// inequality at the end of every run).
    fn assert_heap_bound(out: &EngineOutput, cfg: &SimConfig) {
        assert!(out.peak_queued > 0);
        assert!(
            out.peak_queued <= out.peak_slots + 2 * cfg.total_queue_pairs() as usize + HEAP_SLACK,
            "peak {} events vs {} slots",
            out.peak_queued,
            out.peak_slots
        );
    }

    #[test]
    fn footprint_is_bounded_by_in_flight_work_not_run_length() {
        // A deterministic pipeline under a sub-capacity fixed-rate stream
        // settles into a periodic schedule, so the in-flight population — and
        // with it every structure the spine owns — peaks at the same value
        // however long the run.
        let cfg = optane_config(4, 4, 4096, 52);
        let cfg = SimConfig {
            pipeline: cfg.pipeline.deterministic(),
            ..cfg
        };
        let open = Workload::OpenLoop { rate_per_s: 1.0e6 };
        for shards in [0, 2] {
            let run = Run::new(&cfg).shards(shards);
            let short = probe(run, open, &uniform_reads(&cfg, 20_000));
            let long = probe(run, open, &uniform_reads(&cfg, 80_000));
            for out in [&short, &long] {
                // No controller: a request holds a slot exactly while it is
                // in the depth timeline.
                assert_eq!(out.peak_slots, out.depth.max_depth() as usize);
                assert_heap_bound(out, &cfg);
            }
            assert!(short.peak_slots < 100, "sub-capacity: {}", short.peak_slots);
            assert_eq!(short.peak_slots, long.peak_slots, "shards={shards}");
            assert_eq!(short.peak_queued, long.peak_queued, "shards={shards}");
        }
        // A closed loop holds exactly its window.
        let closed = Workload::ClosedLoop { in_flight: 2048 };
        let out = probe(Run::new(&cfg), closed, &uniform_reads(&cfg, 20_000));
        assert_eq!(out.peak_slots, 2048);
        assert_eq!(out.depth.max_depth(), 2048);
        assert_heap_bound(&out, &cfg);
    }

    #[test]
    fn deferred_requests_hold_slots_beyond_the_depth_timeline() {
        // With a controller armed, a deferred request owns a slot but is not
        // yet in the depth timeline: peak slots = peak depth plus requests
        // deferred and not yet admitted. A fixed-rate class bounds the latter
        // by the arrivals of one full deferral budget.
        let cfg = optane_config(4, 2, 4096, 53);
        let (rate_per_s, defer_ns, max_defers) = (4.0e6, 20_000u64, 3u32);
        let class = TenantClass::new(
            0,
            "overloaded",
            1000,
            ArrivalProcess::FixedRate {
                rate_per_s: rate_per_s / 1000.0,
            },
            30_000,
        )
        .with_slo(100.0, 1_000_000)
        .with_admission(AdmissionSpec {
            burst: 8,
            refill_per_s: 1.0e6,
            defer_ns,
            max_defers,
        });
        let classes = std::slice::from_ref(&class);
        let out = Run::new(&cfg)
            .simulate(Input::Classes, classes, QueuePairPolicy::Shared, PLAIN)
            .unwrap()
            .outcome;
        let acc = &out.tenants[0];
        assert!(
            acc.deferrals > 0 && acc.rejected > 0,
            "controller must bite"
        );
        assert_eq!(acc.latency.count() + acc.rejected, class.requests);
        let max_depth = out.depth.max_depth() as usize;
        let deferral_window_ns = defer_ns * u64::from(max_defers);
        let max_deferred = (rate_per_s * deferral_window_ns as f64 / 1e9).ceil() as usize + 1;
        assert!(
            (max_depth..=max_depth + max_deferred).contains(&out.peak_slots),
            "peak slots {} vs depth {max_depth} + at most {max_deferred} deferred",
            out.peak_slots
        );
        assert!(out.peak_slots > max_depth, "deferred requests hold slots");
        assert_heap_bound(&out, &cfg);
    }

    /// Every completed request closes its Completion stage exactly once and
    /// its stage spans tile `[arrival, completion]` without a gap (their
    /// dwells are the run's latencies, bucket for bucket); a request that
    /// never completed — a rejection — left no span at all.
    fn assert_spans_tile_latencies(recorder: &SpanRecorder, out: &EngineOutput, requests: u64) {
        let mut completions = vec![0u32; requests as usize];
        let mut dwell_ns = vec![0u64; requests as usize];
        let mut last_end = vec![None; requests as usize];
        for span in recorder.events() {
            let id = span.span.0 as usize;
            if span.stage == Stage::Completion {
                completions[id] += 1;
            }
            if let Some(end) = last_end[id] {
                assert_eq!(span.start_ns, end, "request {id} has a gap");
            }
            last_end[id] = Some(span.end_ns);
            dwell_ns[id] += span.end_ns - span.start_ns;
        }
        assert_eq!(recorder.dropped(), 0);
        let dwells = LatencyHisto::from_samples(
            (0..requests as usize)
                .filter(|&id| last_end[id].is_some())
                .map(|id| {
                    assert_eq!(completions[id], 1, "request {id}");
                    dwell_ns[id]
                }),
        );
        let mut latencies = out.read_latency.clone();
        latencies.merge(&out.write_latency);
        assert_eq!(dwells, latencies);
        let attributed: u64 = out.tenants.iter().map(|t| t.stages.total_ns()).sum();
        assert_eq!(attributed, latencies.sum_ns());
    }

    #[test]
    fn recycled_slots_serve_every_request_exactly_once() {
        // 6 000 requests through a 32-request closed-loop window: each slot
        // is reused ~190 times, wherever accounting runs.
        let cfg = optane_config(2, 4, 4096, 54);
        let cfg = SimConfig {
            pipeline: cfg.pipeline.with_journal_flush(48),
            ..cfg
        };
        let n = 6_000u64;
        let window = 32u32;
        assert!(n > 64 * u64::from(window));
        let reqs = mixed_requests(&cfg, n, 1_500);
        let closed = Workload::ClosedLoop { in_flight: window };
        for shards in [0, 4] {
            let out = probe(Run::new(&cfg).shards(shards), closed, &reqs);
            assert_eq!(out.peak_slots, window as usize, "shards={shards}");
            let completed = out.read_latency.count() + out.write_latency.count();
            assert_eq!(completed, n, "shards={shards}");
        }

        // Traced (so inline): every request's spans tile its latency. With a
        // controller armed, deferred admissions add `Stage::Admission` spans
        // and rejections leave none.
        let recorder = SpanRecorder::with_capacity(1 << 20);
        let out = probe(Run::new(&cfg).trace(&recorder), closed, &reqs);
        assert_spans_tile_latencies(&recorder, &out, n);

        let recorder = SpanRecorder::with_capacity(1 << 20);
        let out = Run::new(&cfg)
            .trace(&recorder)
            .simulate(
                Input::Classes,
                &controlled_classes(),
                QueuePairPolicy::Shared,
                PLAIN,
            )
            .unwrap()
            .outcome;
        let controlled = &out.tenants[0];
        assert!(controlled.rejected > 0);
        let admitted_late = controlled.stages.histo(Stage::Admission).count();
        assert!(admitted_late > 0);
        let admission_spans = recorder
            .events()
            .iter()
            .filter(|span| span.stage == Stage::Admission)
            .count() as u64;
        assert_eq!(admission_spans, admitted_late);
        let completed = out.read_latency.count() + out.write_latency.count();
        assert_eq!(completed + controlled.rejected, 6_000);
        assert_spans_tile_latencies(&recorder, &out, 6_000);
    }

    #[test]
    fn blame_retention_follows_the_tail_not_the_run() {
        // A saturated array (latencies spread over many buckets): the
        // accumulator ends a run holding about a hundredth of it, wherever
        // accounting ran. `Accounting::take_blame` asserts the exact bound
        // on every shard of every observed run; this pins its scale.
        let cfg = optane_config(4, 2, 4096, 56);
        let classes: Vec<TenantClass> = [steady(0, 2.0e6, 30_000), steady(1, 2.0e6, 30_000)]
            .iter()
            .map(TenantClass::from)
            .collect();
        for shards in [0, 4] {
            let run = Run::new(&cfg)
                .shards(shards)
                .telemetry(TelemetrySpec::full(100_000, 8));
            let blame = run
                .simulate(Input::Tenants, &classes, QueuePairPolicy::Shared, PLAIN)
                .unwrap()
                .outcome
                .blame
                .expect("blame was asked for");
            let retained = blame.retained();
            assert!(retained <= blame.retained_bound(), "shards={shards}");
            assert!(
                (600..3_000).contains(&retained),
                "shards={shards}: {retained} of 60000 rows retained"
            );
            assert_eq!(blame.finish().requests, 60_000);
        }
    }

    #[test]
    fn tracing_and_observing_together_equal_each_alone() {
        let cfg = optane_config(4, 2, 4096, 55);
        let classes = controlled_classes();
        let shared = QueuePairPolicy::Shared;
        let spec = TelemetrySpec::full(100_000, 8);
        let run = Run::new(&cfg);
        let (plain, _) = run.classes(&classes, shared).unwrap();
        let traced_rec = SpanRecorder::with_capacity(1 << 20);
        let (traced, _) = run.trace(&traced_rec).classes(&classes, shared).unwrap();
        let both_rec = SpanRecorder::with_capacity(1 << 20);
        let both = run.trace(&both_rec).telemetry(spec);
        let (report, both_telemetry) = both.classes(&classes, shared).unwrap();
        assert_eq!(report, plain);
        assert_eq!(report, traced);
        assert!(!both_rec.is_empty());
        assert_eq!(both_rec.events(), traced_rec.events());
        for shards in [0, 4] {
            let observed = run.shards(shards).telemetry(spec);
            let (observed, telemetry) = observed.classes(&classes, shared).unwrap();
            assert_eq!(report, observed, "shards={shards}");
            assert!(!telemetry.series.is_empty());
            assert_eq!(both_telemetry, telemetry, "shards={shards}");
        }
    }
}

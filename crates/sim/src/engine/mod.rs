//! The discrete-event engine.
//!
//! Requests flow through the five-stage pipeline of
//! [`crate::pipeline::PipelineParams`] over a virtual nanosecond clock. Every
//! resource (queue pairs, media channel pools, per-device links, the shared
//! GPU link) is a FIFO service center; contention shows up as queueing delay
//! and therefore in the latency distribution — the dynamics the closed-form
//! models in `bam-timing` average away.
//!
//! Runs are deterministic: the event heap breaks ties by insertion order and
//! all randomness comes from one seeded SplitMix64 generator.
//!
//! [`Run`] is the one entry point: configure it (a span recorder, a
//! [`TelemetrySpec`]) and finish with the terminal matching the input — one
//! request stream, explicit tenants, or tenant classes. Behind it sit one
//! driver (`run`), one timing spine (`spine`) that pulls arrivals lazily
//! from the per-stream generators (the private `arrivals` module) and keys
//! all per-request state by a recycled in-flight slot, so everything the
//! engine owns per request is proportional to the requests *in flight*,
//! never to the run length (asserted at the end of every run), the
//! closed-form request streams (`stream`) and the per-class admission
//! controller (`admission`). The spine's accounting records are applied as
//! they are emitted, on the spine's thread (the private `shard` module).

pub(crate) mod admission;
pub(crate) mod run;
pub(crate) mod spine;
pub(crate) mod stream;

use bam_obs::SpanRecorder;

use crate::dist::LatencyDist;
use crate::pipeline::{PipelineParams, QueuePairPolicy};
use crate::report::{MultiTenantReport, RunTelemetry, SimReport};
use crate::tenant::{TenantClass, TenantSpec};
use run::{single_class, Input};

/// What run-level telemetry a run collects.
///
/// The disabled spec costs one predictable branch per accounting record;
/// enabled telemetry perturbs nothing — the report of an observed run is
/// bit-identical to the unobserved run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Windowed-series window size in virtual nanoseconds (0 = no series).
    pub window_ns: u64,
    /// Collect per-request blame rows (service/wait decomposition).
    pub blame: bool,
    /// Slowest-request exemplars kept in the blame report.
    pub blame_top_k: usize,
}

impl TelemetrySpec {
    /// No telemetry: empty series, no blame rows.
    pub const fn disabled() -> Self {
        Self {
            window_ns: 0,
            blame: false,
            blame_top_k: 0,
        }
    }

    /// Full telemetry: a windowed series on `window_ns` plus blame
    /// decomposition keeping `blame_top_k` exemplars.
    pub const fn full(window_ns: u64, blame_top_k: usize) -> Self {
        Self {
            window_ns,
            blame: true,
            blame_top_k,
        }
    }
}

/// Static description of one simulated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestDesc {
    /// `true` for a write (uses the write media distribution).
    pub write: bool,
    /// Payload bytes (link occupancy scales with this).
    pub bytes: u64,
    /// Device to route to; `None` round-robins across the array.
    pub device: Option<u32>,
    /// Queue pair within the device; `None` round-robins.
    pub queue: Option<u32>,
}

impl RequestDesc {
    /// A round-robin-routed read of `bytes`.
    pub fn read(bytes: u64) -> Self {
        Self {
            write: false,
            bytes,
            device: None,
            queue: None,
        }
    }

    /// A round-robin-routed write of `bytes`.
    pub fn write(bytes: u64) -> Self {
        Self {
            write: true,
            bytes,
            device: None,
            queue: None,
        }
    }
}

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Arrivals at a fixed rate regardless of completions (queue growth is
    /// possible — that is the point).
    OpenLoop {
        /// Arrival rate in requests per second.
        rate_per_s: f64,
    },
    /// A fixed number of outstanding requests; every completion immediately
    /// launches the next (the GPU-threads-keep-queues-full model of §2.2).
    ClosedLoop {
        /// Concurrently outstanding requests.
        in_flight: u32,
    },
}

/// Engine configuration: the array geometry plus the per-SSD pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Devices in the array.
    pub num_ssds: u32,
    /// Queue pairs per device.
    pub queue_pairs_per_ssd: u32,
    /// Per-SSD stage parameters.
    pub pipeline: PipelineParams,
}

impl SimConfig {
    /// Total queue pairs across the array.
    pub fn total_queue_pairs(&self) -> u32 {
        self.num_ssds * self.queue_pairs_per_ssd
    }

    /// A configuration with *pure-delay* service of `latency_us` and no
    /// bandwidth or serialization constraints: the §2.2 worked examples,
    /// where only Little's law governs the in-flight population.
    pub fn worked_example(latency_us: f64, seed: u64) -> Self {
        Self {
            seed,
            num_ssds: 1,
            queue_pairs_per_ssd: 1024,
            pipeline: PipelineParams {
                qp_forward_ns: 0,
                qp_recovery_ns: 0,
                ctrl_fetch_ns: 0,
                read_media: LatencyDist::fixed_us(latency_us),
                write_media: LatencyDist::fixed_us(latency_us),
                media_channels: u32::MAX,
                ssd_link_ns_per_byte: 0.0,
                gpu_link_ns_per_byte: 0.0,
                completion_ns: 0,
                access_bytes: 512,
                journal_flush_ns: 0,
            },
        }
    }
}

/// Why a [`Run`] refused its input. `Display` is the one-line reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// [`Run::single`] was given no requests.
    NoRequests,
    /// [`Run::tenants`] was given no tenants.
    NoTenants,
    /// [`Run::classes`] was given no classes.
    NoClasses,
    /// The configuration has zero queue pairs.
    NoQueuePairs,
    /// A fixed or Poisson arrival rate is zero, negative or NaN.
    NonPositiveRate,
    /// An MMPP rate is negative or NaN, or both states are silent.
    InvalidMmppRates,
    /// An MMPP mean dwell is zero, negative or NaN.
    NonPositiveMmppDwell,
    /// A closed loop keeps zero requests in flight, so it never issues.
    EmptyClosedLoop,
    /// Under [`QueuePairPolicy::WeightedFair`], the stream at this position
    /// (declaration order) has weight zero.
    ZeroWeight(usize),
    /// [`QueuePairPolicy::WeightedFair`] cannot give each of `streams` its
    /// own queue pair out of `queue_pairs`.
    TooFewQueuePairs {
        /// Queue pairs in the array.
        queue_pairs: u32,
        /// Streams to split them among.
        streams: usize,
    },
    /// Two tenants share this id.
    DuplicateTenantId(u32),
    /// Two classes share this id.
    DuplicateClassId(u32),
    /// This class has zero members.
    NoMembers(u32),
    /// This class arms admission control without a positive p99 budget.
    AdmissionWithoutSlo(u32),
    /// This class arms admission control on a closed loop, which has no
    /// open-loop offered rate to project from.
    AdmissionOnClosedLoop(u32),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimError::NoRequests => write!(f, "nothing to simulate"),
            SimError::NoTenants => write!(f, "no tenants to simulate"),
            SimError::NoClasses => write!(f, "no classes to simulate"),
            SimError::NoQueuePairs => write!(f, "need at least one queue pair"),
            SimError::NonPositiveRate => write!(f, "arrival rate must be positive"),
            SimError::InvalidMmppRates => write!(
                f,
                "MMPP needs non-negative rates, positive in at least one state"
            ),
            SimError::NonPositiveMmppDwell => write!(f, "MMPP dwell means must be positive"),
            SimError::EmptyClosedLoop => {
                write!(f, "closed loop needs at least one request in flight")
            }
            SimError::ZeroWeight(stream) => write!(f, "stream {stream} has weight zero"),
            SimError::TooFewQueuePairs {
                queue_pairs,
                streams,
            } => write!(
                f,
                "need at least one queue pair per stream ({queue_pairs} for {streams})"
            ),
            SimError::DuplicateTenantId(id) => write!(f, "duplicate tenant id {id}"),
            SimError::DuplicateClassId(id) => write!(f, "duplicate class id {id}"),
            SimError::NoMembers(id) => write!(f, "class {id} has no members"),
            SimError::AdmissionWithoutSlo(id) => {
                write!(f, "class {id} arms admission without an SLO budget")
            }
            SimError::AdmissionOnClosedLoop(id) => {
                write!(f, "class {id} arms admission on a closed loop")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// One simulation run over a [`SimConfig`]: set an optional span recorder
/// and the telemetry to collect, then finish with the terminal matching the
/// input. Every terminal returns the report together with the run's
/// [`RunTelemetry`] (empty under [`TelemetrySpec::disabled`]).
///
/// Tracing or observing a run perturbs nothing: the spine decides every
/// instant, and the accounting only reads what it emits.
///
/// The terminals report every bad input as a [`SimError`], before any
/// simulation runs.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    config: &'a SimConfig,
    recorder: Option<&'a SpanRecorder>,
    telemetry: TelemetrySpec,
}

impl<'a> Run<'a> {
    /// A run of `config` with no tracing and no telemetry.
    pub fn new(config: &'a SimConfig) -> Self {
        Self {
            config,
            recorder: None,
            telemetry: TelemetrySpec::disabled(),
        }
    }

    /// Records every request's stage intervals into `recorder` as
    /// [`bam_obs::SpanEvent`]s with virtual-nanosecond timestamps.
    pub fn trace(mut self, recorder: &'a SpanRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Collects the windowed series and blame decomposition `spec`
    /// describes.
    pub fn telemetry(mut self, spec: TelemetrySpec) -> Self {
        self.telemetry = spec;
        self
    }

    /// Runs `requests` as one stream arriving per `workload`.
    pub fn single(
        &self,
        workload: Workload,
        requests: &[RequestDesc],
    ) -> Result<(SimReport, RunTelemetry), SimError> {
        let class = single_class(workload, requests.len() as u64);
        let (report, telemetry) =
            self.drive(Input::Requests(requests), &[class], QueuePairPolicy::Shared)?;
        Ok((report.overall, telemetry))
    }

    /// Runs the superposed workloads of `tenants`, with queue pairs allocated
    /// by `policy`: per-tenant accounting (including SLO evaluations for
    /// tenants carrying a [`bam_obs::SloSpec`]) plus the merged view.
    ///
    /// Each tenant's `requests` block uses the pipeline's access size with
    /// its writes Bresenham-interleaved, routed round-robin across the
    /// tenant's queue-pair allocation. Arrival streams are generated from
    /// per-tenant RNGs, so a tenant's stream is invariant under changes to
    /// its neighbours. An explicit tenant is a one-member, admission-free
    /// class ([`TenantClass::from`]). A tenant with zero requests is legal:
    /// it contributes nothing to the run and gets an all-zero summary.
    pub fn tenants(
        &self,
        tenants: &[TenantSpec],
        policy: QueuePairPolicy,
    ) -> Result<(MultiTenantReport, RunTelemetry), SimError> {
        let classes: Vec<TenantClass> = tenants.iter().map(TenantClass::from).collect();
        self.drive(Input::Tenants, &classes, policy)
    }

    /// Runs the closed-form-merged streams of `classes`: one engine-level
    /// stream per class, so a million logical tenants cost O(classes) in the
    /// event loop. Classes with an [`crate::AdmissionSpec`] get per-class SLO
    /// admission control in the arrival path (reported via
    /// [`crate::TenantSummary::admission`]).
    pub fn classes(
        &self,
        classes: &[TenantClass],
        policy: QueuePairPolicy,
    ) -> Result<(MultiTenantReport, RunTelemetry), SimError> {
        self.drive(Input::Classes, classes, policy)
    }
}

// The frozen surface. `benchmark/` (its own package, not edited between
// benchmark re-cuts) links against exactly these six functions, so they keep
// their signatures and panics as one-expression spellings of `Run`; nothing
// in this workspace calls them, and they go when the benchmark is next
// re-cut.

fn or_panic<T>(result: Result<T, SimError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// [`Run::single`] with inline accounting, panicking on a [`SimError`].
pub fn run(config: &SimConfig, workload: Workload, requests: &[RequestDesc]) -> SimReport {
    or_panic(Run::new(config).single(workload, requests)).0
}

/// [`Run::tenants`] with inline accounting, panicking on a [`SimError`].
pub fn run_tenants(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
) -> MultiTenantReport {
    or_panic(Run::new(config).tenants(tenants, policy)).0
}

/// [`run_tenants`]; `workers` is ignored (accounting runs on the spine's
/// thread).
///
/// # Panics
///
/// Panics on a [`SimError`], or if `workers` is zero.
pub fn run_tenants_sharded(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    workers: usize,
) -> MultiTenantReport {
    assert!(workers > 0, "need at least one worker");
    run_tenants(config, tenants, policy)
}

/// [`run_tenants`] with span tracing into `recorder` ([`Run::trace`]).
pub fn run_tenants_traced(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    recorder: &SpanRecorder,
) -> MultiTenantReport {
    or_panic(Run::new(config).trace(recorder).tenants(tenants, policy)).0
}

/// [`run_tenants`] with `telemetry`; `workers` is ignored (accounting runs
/// on the spine's thread).
pub fn run_tenants_observed(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    _workers: usize,
    telemetry: TelemetrySpec,
) -> (MultiTenantReport, RunTelemetry) {
    or_panic(
        Run::new(config)
            .telemetry(telemetry)
            .tenants(tenants, policy),
    )
}

/// [`run_tenants`]; `workers` is ignored (accounting runs on the spine's
/// thread).
pub fn run_tenants_with_workers(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    _workers: usize,
) -> MultiTenantReport {
    run_tenants(config, tenants, policy)
}

/// Convenience: `n` identical round-robin reads of the pipeline's access
/// size.
pub fn uniform_reads(config: &SimConfig, n: u64) -> Vec<RequestDesc> {
    vec![RequestDesc::read(config.pipeline.access_bytes); n as usize]
}

/// Convenience: `n` round-robin requests of which an evenly interleaved
/// `writes` are writes (deterministic Bresenham spread).
pub fn mixed_requests(config: &SimConfig, n: u64, writes: u64) -> Vec<RequestDesc> {
    let writes = writes.min(n);
    (0..n)
        .map(|i| {
            if stream::is_mixed_write(i, n, writes) {
                RequestDesc::write(config.pipeline.access_bytes)
            } else {
                RequestDesc::read(config.pipeline.access_bytes)
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tenant::ArrivalProcess;
    use bam_nvme_sim::SsdSpec;
    use bam_obs::Stage;
    use bam_pcie::LinkSpec;

    pub(crate) fn optane_config(
        num_ssds: u32,
        queue_pairs_per_ssd: u32,
        bytes: u64,
        seed: u64,
    ) -> SimConfig {
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

    /// The report of an untraced, unobserved single-stream run.
    fn single(cfg: &SimConfig, workload: Workload, reqs: &[RequestDesc]) -> SimReport {
        Run::new(cfg).single(workload, reqs).expect("valid input").0
    }

    #[test]
    fn single_request_sees_unloaded_latency() {
        let cfg = optane_config(1, 8, 512, 1);
        let cfg = SimConfig {
            pipeline: cfg.pipeline.deterministic(),
            ..cfg
        };
        let reqs = uniform_reads(&cfg, 1);
        let report = single(&cfg, Workload::ClosedLoop { in_flight: 1 }, &reqs);
        assert_eq!(report.completed, 1);
        let expected = cfg.pipeline.unloaded_read_latency_us();
        assert!(
            (report.latency.mean_us / expected - 1.0).abs() < 0.01,
            "mean {} vs unloaded {expected}",
            report.latency.mean_us
        );
    }

    #[test]
    fn closed_loop_saturates_near_media_peak() {
        // 1 Optane SSD at 512B: media peak 5.1M IOPS. With ample outstanding
        // requests the simulated throughput should come within ~10%.
        let cfg = optane_config(1, 128, 512, 2);
        let reqs = uniform_reads(&cfg, 60_000);
        let report = single(&cfg, Workload::ClosedLoop { in_flight: 1024 }, &reqs);
        let miops = report.throughput_per_s / 1e6;
        assert!((4.6..5.7).contains(&miops), "throughput {miops} MIOPS");
    }

    #[test]
    fn few_outstanding_requests_cannot_saturate() {
        // The left edge of Fig 4: 16 in flight over ~11us is ~1.45M IOPS.
        let cfg = optane_config(1, 128, 512, 3);
        let reqs = uniform_reads(&cfg, 20_000);
        let low = single(&cfg, Workload::ClosedLoop { in_flight: 16 }, &reqs);
        let high = single(&cfg, Workload::ClosedLoop { in_flight: 1024 }, &reqs);
        assert!(
            low.throughput_per_s < high.throughput_per_s * 0.5,
            "low {} high {}",
            low.throughput_per_s,
            high.throughput_per_s
        );
    }

    #[test]
    fn queue_pair_starvation_reproduces_fig11_knee() {
        // 4 SSDs at 4KB: media-bound near 6M IOPS with plentiful queue
        // pairs; 8 total QPs serialize at ~150K each → ~1.2M.
        let plenty = optane_config(4, 32, 4096, 4);
        let starved = optane_config(4, 2, 4096, 4);
        let reqs = uniform_reads(&plenty, 40_000);
        let fast = single(&plenty, Workload::ClosedLoop { in_flight: 2048 }, &reqs);
        let slow = single(&starved, Workload::ClosedLoop { in_flight: 2048 }, &reqs);
        assert!(
            slow.throughput_per_s < fast.throughput_per_s * 0.4,
            "starved {} vs plenty {}",
            slow.throughput_per_s,
            fast.throughput_per_s
        );
        // The starved run's queue pairs are visibly backed up.
        assert!(slow.queue_occupancy_mean > fast.queue_occupancy_mean);
    }

    #[test]
    fn deterministic_across_runs_same_seed() {
        let cfg = optane_config(2, 16, 4096, 42);
        let reqs = mixed_requests(&cfg, 10_000, 1_000);
        let a = single(&cfg, Workload::ClosedLoop { in_flight: 256 }, &reqs);
        let b = single(&cfg, Workload::ClosedLoop { in_flight: 256 }, &reqs);
        assert_eq!(a, b);
        let c = single(
            &SimConfig {
                seed: 43,
                ..cfg.clone()
            },
            Workload::ClosedLoop { in_flight: 256 },
            &reqs,
        );
        assert_ne!(a.histogram, c.histogram);
    }

    #[test]
    fn open_loop_below_capacity_tracks_littles_law() {
        let cfg = optane_config(1, 64, 512, 5);
        let reqs = uniform_reads(&cfg, 50_000);
        // 2M/s against ~11us → ~22 in flight.
        let report = single(&cfg, Workload::OpenLoop { rate_per_s: 2.0e6 }, &reqs);
        let measured = report.depth.steady_state_mean();
        let littles = report.littles_in_flight();
        assert!(
            (measured / littles - 1.0).abs() < 0.1,
            "measured {measured} vs littles {littles}"
        );
    }

    #[test]
    fn mixed_requests_spread_writes_evenly() {
        let cfg = optane_config(1, 8, 512, 6);
        let reqs = mixed_requests(&cfg, 10, 3);
        assert_eq!(reqs.iter().filter(|r| r.write).count(), 3);
        // Not all bunched at one end.
        assert!(reqs[..5].iter().any(|r| r.write));
        assert!(reqs[5..].iter().any(|r| r.write));
    }

    #[test]
    fn journal_flush_charges_writes_and_leaves_reads_alone() {
        // Pure-delay pipeline so the shift is exact: every write pays the
        // journal-flush bound on top of its service time, reads never do.
        let base = SimConfig::worked_example(10.0, 9);
        let journalled = SimConfig {
            pipeline: PipelineParams {
                journal_flush_ns: 5_000,
                ..base.pipeline.clone()
            },
            ..base.clone()
        };
        let reqs = mixed_requests(&base, 1_000, 250);
        let plain = single(&base, Workload::OpenLoop { rate_per_s: 1.0e6 }, &reqs);
        let durable = single(&journalled, Workload::OpenLoop { rate_per_s: 1.0e6 }, &reqs);
        assert_eq!(plain.read_latency.count, 750);
        assert_eq!(plain.write_latency.count, 250);
        assert_eq!(durable.read_latency, plain.read_latency);
        assert!(
            (durable.write_latency.mean_us - plain.write_latency.mean_us - 5.0).abs() < 1e-9,
            "write mean shifted by {} us",
            durable.write_latency.mean_us - plain.write_latency.mean_us
        );
    }

    #[test]
    fn zero_journal_flush_is_bit_identical_to_the_unjournalled_engine() {
        // `journal_flush_ns: 0` must add no events: the report — including
        // the event-order-sensitive depth timeline — is exactly what the
        // engine produced before the stage existed.
        let cfg = optane_config(2, 16, 4096, 11);
        let zeroed = SimConfig {
            pipeline: PipelineParams {
                journal_flush_ns: 0,
                ..cfg.pipeline.clone()
            },
            ..cfg.clone()
        };
        let reqs = mixed_requests(&cfg, 8_000, 2_000);
        let a = single(&cfg, Workload::ClosedLoop { in_flight: 256 }, &reqs);
        let b = single(&zeroed, Workload::ClosedLoop { in_flight: 256 }, &reqs);
        assert_eq!(a, b);
    }

    #[test]
    fn stage_dwells_tile_every_request_latency() {
        // The breakdown must attribute (well over) 95% of each request's
        // end-to-end latency to named stages; by construction the dwell
        // times tile the request's life, so the sums agree exactly.
        let cfg = optane_config(2, 4, 4096, 31);
        let cfg = SimConfig {
            pipeline: cfg.pipeline.with_journal_flush(48),
            ..cfg
        };
        let reqs = mixed_requests(&cfg, 5_000, 1_500);
        let report = single(&cfg, Workload::ClosedLoop { in_flight: 128 }, &reqs);
        assert_eq!(report.stages.total_ns(), report.histogram.sum_ns());
        // Every pipeline stage saw every request; journal flush only writes.
        for stage in [
            Stage::QueuePair,
            Stage::CtrlFetch,
            Stage::Media,
            Stage::SsdLink,
            Stage::GpuLink,
            Stage::Completion,
        ] {
            assert_eq!(report.stages.histo(stage).count(), 5_000, "{stage:?}");
        }
        assert_eq!(report.stages.histo(Stage::JournalFlush).count(), 1_500);
        assert!(report.stages.histo(Stage::CacheProbe).is_empty());
    }

    #[test]
    fn tracing_changes_nothing_and_is_deterministic() {
        let cfg = optane_config(2, 8, 4096, 32);
        let reqs = mixed_requests(&cfg, 3_000, 600);
        let workload = Workload::ClosedLoop { in_flight: 256 };
        let plain = single(&cfg, workload, &reqs);
        let rec_a = SpanRecorder::with_capacity(1 << 20);
        let (traced, _) = Run::new(&cfg)
            .trace(&rec_a)
            .single(workload, &reqs)
            .unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let rec_b = SpanRecorder::with_capacity(1 << 20);
        Run::new(&cfg)
            .trace(&rec_b)
            .single(workload, &reqs)
            .unwrap();
        assert_eq!(
            rec_a.events(),
            rec_b.events(),
            "traces must be bit-identical"
        );
        assert_eq!(rec_a.dropped(), 0);
        // 6 pipeline stages per request (journalling is off in this config).
        assert_eq!(rec_a.len(), 3_000 * 6);
        assert_eq!(
            bam_obs::chrome_trace_json(&rec_a.events()),
            bam_obs::chrome_trace_json(&rec_b.events())
        );
    }

    #[test]
    fn observation_does_not_perturb_the_report() {
        let cfg = optane_config(4, 8, 4096, 11);
        let reqs = uniform_reads(&cfg, 6_000);
        let workload = Workload::ClosedLoop { in_flight: 256 };
        let plain = single(&cfg, workload, &reqs);
        let observed = Run::new(&cfg).telemetry(TelemetrySpec::full(50_000, 8));
        let (observed, telemetry) = observed.single(workload, &reqs).unwrap();
        assert_eq!(plain, observed, "telemetry must be a pure observer");
        assert!(!telemetry.series.is_empty(), "series must have recorded");
        assert_eq!(telemetry.blame.requests, plain.completed);
    }

    /// A traced run of one stream reports exactly what the plain run does.
    fn assert_tracing_does_not_perturb(
        name: &str,
        cfg: &SimConfig,
        workload: Workload,
        reqs: &[RequestDesc],
    ) {
        let plain = single(cfg, workload, reqs);
        assert_eq!(plain.completed, reqs.len() as u64, "{name}: sanity");
        let recorder = SpanRecorder::with_capacity(1 << 20);
        let (traced, _) = Run::new(cfg)
            .trace(&recorder)
            .single(workload, reqs)
            .unwrap();
        assert_eq!(plain, traced, "{name}: tracing must not perturb");
    }

    #[test]
    fn tracing_does_not_perturb_the_harness_shapes() {
        // The fig11 knee: a 4-SSD array starved to 2 queue pairs per device,
        // saturated closed loop.
        let cfg = optane_config(4, 2, 4096, 4);
        let reqs = uniform_reads(&cfg, 12_000);
        let saturated = Workload::ClosedLoop { in_flight: 2048 };
        assert_tracing_does_not_perturb("fig11", &cfg, saturated, &reqs);

        // The latency_cdf shape: Optane at its bandwidth-latency product,
        // plus an open-loop point.
        let cfg = optane_config(4, 128, 4096, 9);
        let reqs = uniform_reads(&cfg, 12_000);
        let closed = Workload::ClosedLoop { in_flight: 64 };
        assert_tracing_does_not_perturb("latency_cdf/closed", &cfg, closed, &reqs);
        let open = Workload::OpenLoop { rate_per_s: 3.0e6 };
        assert_tracing_does_not_perturb("latency_cdf/open", &cfg, open, &reqs);

        // The recovery shape: journal flush on, write-heavy mix.
        let base = optane_config(2, 4, 4096, 23);
        let cfg = SimConfig {
            pipeline: base.pipeline.with_journal_flush(48),
            ..base
        };
        let reqs = mixed_requests(&cfg, 8_000, 3_000);
        let closed = Workload::ClosedLoop { in_flight: 128 };
        assert_tracing_does_not_perturb("recovery", &cfg, closed, &reqs);

        // The tenants harness shape: steady Poisson tenants, the MMPP
        // antagonist and a closed-loop tenant, under both policies.
        let cfg = optane_config(4, 2, 4096, 13);
        let poisson = ArrivalProcess::Poisson {
            rate_per_s: 100.0e3,
        };
        let mut tenants: Vec<TenantSpec> = (0..6)
            .map(|id| TenantSpec::new(id, "steady", poisson, 1_500))
            .collect();
        let antagonist = crate::dist::Mmpp2 {
            calm_rate_per_s: 50.0e3,
            burst_rate_per_s: 1.6e6,
            mean_calm_s: 4.0e-3,
            mean_burst_s: 1.0e-3,
        };
        tenants.push(TenantSpec::new(
            100,
            "antagonist",
            ArrivalProcess::Mmpp(antagonist),
            5_400,
        ));
        let closed = ArrivalProcess::ClosedLoop { in_flight: 32 };
        tenants.push(TenantSpec::new(200, "closed", closed, 3_000));
        for policy in [QueuePairPolicy::Shared, QueuePairPolicy::WeightedFair] {
            let (plain, _) = Run::new(&cfg).tenants(&tenants, policy).unwrap();
            let recorder = SpanRecorder::with_capacity(1 << 20);
            let traced = Run::new(&cfg).trace(&recorder);
            let (traced, _) = traced.tenants(&tenants, policy).unwrap();
            assert_eq!(
                plain, traced,
                "tenants/{policy:?}: tracing must not perturb"
            );
        }
    }

    #[test]
    fn writes_are_slower_than_reads_on_optane_512b() {
        // Optane 512B write IOPS (1M) is 5x below read (5.1M); a write-heavy
        // closed loop must take longer.
        let cfg = optane_config(1, 64, 512, 7);
        let reads = uniform_reads(&cfg, 30_000);
        let writes: Vec<RequestDesc> = reads
            .iter()
            .map(|r| RequestDesc { write: true, ..*r })
            .collect();
        let r = single(&cfg, Workload::ClosedLoop { in_flight: 1024 }, &reads);
        let w = single(&cfg, Workload::ClosedLoop { in_flight: 1024 }, &writes);
        assert!(
            w.sim_time_s > r.sim_time_s * 2.0,
            "writes {} reads {}",
            w.sim_time_s,
            r.sim_time_s
        );
    }

    fn steady_pair() -> [TenantSpec; 2] {
        let poisson = ArrivalProcess::Poisson { rate_per_s: 1.0e5 };
        [0, 1].map(|id| TenantSpec::new(id, "steady", poisson, 1_500))
    }

    #[test]
    fn frozen_functions_are_spellings_of_run() {
        let cfg = optane_config(4, 2, 4096, 26);
        let tenants = steady_pair();
        let policy = QueuePairPolicy::Shared;
        let (expected, _) = Run::new(&cfg).tenants(&tenants, policy).unwrap();
        assert_eq!(run_tenants(&cfg, &tenants, policy), expected);
        for workers in [1, 4] {
            assert_eq!(
                run_tenants_sharded(&cfg, &tenants, policy, workers),
                expected
            );
            assert_eq!(
                run_tenants_with_workers(&cfg, &tenants, policy, workers),
                expected
            );
        }
        let recorder = SpanRecorder::with_capacity(1 << 16);
        assert_eq!(
            run_tenants_traced(&cfg, &tenants, policy, &recorder),
            expected
        );
        assert!(!recorder.is_empty());
        let spec = TelemetrySpec::full(100_000, 4);
        let via_run = Run::new(&cfg).telemetry(spec);
        let via_run = via_run.tenants(&tenants, policy).unwrap();
        for workers in [1, 2] {
            let observed = run_tenants_observed(&cfg, &tenants, policy, workers, spec);
            assert_eq!(observed, via_run);
        }
        let reqs = uniform_reads(&cfg, 500);
        let workload = Workload::ClosedLoop { in_flight: 16 };
        assert_eq!(run(&cfg, workload, &reqs), single(&cfg, workload, &reqs));
    }

    #[test]
    #[should_panic(expected = "duplicate tenant id")]
    fn frozen_functions_panic_with_the_error_text() {
        let cfg = optane_config(1, 8, 512, 26);
        let mut tenants = steady_pair();
        tenants[1].id = 0;
        run_tenants(&cfg, &tenants, QueuePairPolicy::Shared);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn frozen_sharded_entry_rejects_zero_workers() {
        let cfg = optane_config(1, 8, 512, 26);
        run_tenants_sharded(&cfg, &steady_pair(), QueuePairPolicy::Shared, 0);
    }
}

//! # bam-sim — discrete-event latency engine
//!
//! The reproduction's third methodology layer. The functional layer
//! (`bam-core` over the simulated substrates) answers *what happens*; the
//! analytic layer (`bam-timing`) answers *how long on average*; this crate
//! answers *when* — per-request latency distributions, tail percentiles,
//! in-flight-depth timelines, and queue dynamics that closed-form models
//! average away.
//!
//! * [`clock::SimTime`] — the virtual nanosecond clock.
//! * [`dist::LatencyDist`] — seedable fixed / uniform / lognormal service
//!   distributions.
//! * [`pipeline::PipelineParams`] — the doorbell → controller-fetch →
//!   media → DMA → completion pipeline, parameterized from the Table-2
//!   [`bam_nvme_sim::SsdSpec`]s and [`bam_pcie::LinkSpec`] occupancies.
//! * [`engine`] — the event loop: FIFO service centers per queue pair,
//!   media-channel pool per SSD, per-device and shared PCIe links.
//!   [`engine::Run`] is the one entry point (one request stream, explicit
//!   tenants, or tenant classes; optionally traced and observed) over one
//!   driver and one timing spine; the spine pulls arrivals lazily and keys
//!   per-request state by a recycled in-flight slot, so the engine's own
//!   memory follows the requests in flight, not the run length (asserted
//!   at the end of every run). The spine's accounting records are applied
//!   as they are emitted, on the spine's thread. Bad input is a typed
//!   [`engine::SimError`].
//! * [`tenant`] — multi-tenant workloads: [`tenant::TenantSpec`] arrival
//!   sources (fixed-rate, Poisson, closed-loop, and [`dist::Mmpp2`] bursts)
//!   superposed lazily into one stream ([`tenant::Superposition`] is the
//!   merge collected), with queue
//!   pairs allocated shared or weighted-fair
//!   ([`pipeline::QueuePairPolicy`]); [`tenant::TenantClass`] merges
//!   millions of statistically identical logical tenants in closed form
//!   (O(classes) event-loop cost) with optional SLO admission control
//!   ([`tenant::AdmissionSpec`]).
//! * [`report::SimReport`] — percentiles, depth timelines, occupancy, and
//!   the Little's-law cross-check against `bam_timing::littles`;
//!   [`report::MultiTenantReport`] adds per-tenant accounting and the
//!   interference metric.
//! * [`trace`] — a [`bam_nvme_sim::SimHook`] implementation that captures
//!   the I/O stream of a functional run at its one tap, the I/O stack
//!   (one entry per completed command, 1:1 with the stack's request
//!   metrics), for replay under the engine.
//!
//! ## Example: the paper's §2.2 worked example, event-driven
//!
//! ```
//! use bam_sim::{engine, Run, SimConfig, Workload};
//!
//! // 512B reads at 6.35M IOPS against 11us latency...
//! let config = SimConfig::worked_example(11.0, 1);
//! let requests = engine::uniform_reads(&config, 20_000);
//! let (report, _telemetry) =
//!     Run::new(&config).single(Workload::OpenLoop { rate_per_s: 6.35e6 }, &requests)?;
//! // ...needs ~70 requests in flight (T x L, Little's law).
//! let in_flight = report.depth.steady_state_mean();
//! let analytic = bam_timing::required_queue_depth(6.35e6, 11.0) as f64;
//! assert!((in_flight / analytic - 1.0).abs() < 0.05);
//! # Ok::<(), bam_sim::SimError>(())
//! ```

mod arrivals;
pub mod clock;
pub mod dist;
pub mod engine;
mod event;
pub mod pipeline;
pub mod report;
mod shard;
pub mod tenant;
pub mod trace;

pub use bam_obs::{
    chrome_trace_json, evaluate_slo, BlameBreakdown, BlameReport, Exemplar, LatencyHisto,
    PromWriter, SloReport, SloSpec, SpanEvent, SpanId, SpanRecorder, Stage, StageBreakdown,
    WaterfallStep, WindowStats, WindowedSeries,
};
pub use clock::SimTime;
pub use dist::{LatencyDist, Mmpp2, MmppDwellStats};
pub use engine::{uniform_reads, RequestDesc, Run, SimConfig, SimError, TelemetrySpec, Workload};
pub use pipeline::{fair_shares, tail_sigma, PipelineParams, QueuePairPolicy};
pub use report::{
    interference_ratio, AdmissionReport, DepthTimeline, LatencySummary, MultiTenantReport,
    RunTelemetry, SimReport, TenantSummary,
};
pub use tenant::{AdmissionSpec, ArrivalProcess, Superposition, TenantClass, TenantSpec};
pub use trace::{IoTrace, TraceRecorder};

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
//! One timing spine (`drive_events`) serves every entry point. It pulls
//! arrivals lazily from the per-stream generators ([`crate::tenant`]) and
//! keys all per-request state by a recycled in-flight slot, so everything
//! the engine owns per request is proportional to the requests *in flight*,
//! never to the run length; the footprint bound is asserted at the end of
//! every run. What differs between `workers <= 1` and `workers > 1` is only
//! where the spine's accounting records are applied: inline in the event
//! loop, or on per-SSD worker shards (the private `shard` and `coordinator`
//! modules) whose merged results are bit-identical at any worker count.

use std::collections::VecDeque;

use bam_obs::{
    evaluate_slo, LatencyHisto, SloSpec, SpanRecorder, Stage, StageBreakdown, WindowedSeries,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::SimTime;
use crate::coordinator;
use crate::dist::LatencyDist;
use crate::event::{Event, EventQueue};
use crate::pipeline::{fair_shares, PipelineParams, QueuePairPolicy};
use crate::report::{
    build_run_telemetry, DepthTimeline, LatencySummary, MultiTenantReport, RunTelemetry, SimReport,
    TenantSummary,
};
use crate::shard::{occupancy_stats, Accounting, ObsPlan, Rec, RequestInfo, SpanOut, TenantAcc};
use crate::tenant::{ArrivalMerge, ArrivalProcess, ArrivalTimes, TenantClass, TenantSpec};

/// What run-level telemetry the engines collect.
///
/// The disabled spec costs one predictable branch per accounting record;
/// enabled telemetry perturbs nothing — the report of an observed run is
/// bit-identical to the unobserved run's, on either engine.
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

/// A FIFO service center with `capacity` parallel servers. Waiters are
/// in-flight slots.
#[derive(Debug)]
struct Center {
    busy: u32,
    capacity: u32,
    waiting: VecDeque<u32>,
}

impl Center {
    fn new(capacity: u32) -> Self {
        Self {
            busy: 0,
            capacity,
            waiting: VecDeque::new(),
        }
    }

    /// Admits `slot`: returns `true` if a server was free (caller schedules
    /// the departure), otherwise queues it.
    fn admit(&mut self, slot: u32) -> bool {
        if self.busy < self.capacity {
            self.busy += 1;
            true
        } else {
            self.waiting.push_back(slot);
            false
        }
    }

    /// Releases one server; if a request was waiting it is started
    /// immediately (the caller schedules its departure).
    fn release(&mut self) -> Option<u32> {
        let next = self.waiting.pop_front();
        if next.is_none() {
            self.busy -= 1;
        }
        next
    }

    /// Requests currently at this center (in service + waiting).
    fn occupancy(&self) -> u64 {
        u64::from(self.busy) + self.waiting.len() as u64
    }
}

/// `k mod m` as a `u32` (lossless: the remainder is below `m`).
fn rem_u32(k: u64, m: u32) -> u32 {
    (k % u64::from(m)) as u32
}

/// The legacy spread of a stream's `k`-th request over the whole array, as
/// `(device, local queue)`: devices first, local queues second.
fn spread(config: &SimConfig, k: u64) -> (u32, u32) {
    (
        rem_u32(k, config.num_ssds),
        rem_u32(k / u64::from(config.num_ssds), config.queue_pairs_per_ssd),
    )
}

/// Where a stream's requests are routed, as a closed form of the stream's
/// own arrival counter.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Route {
    /// [`spread`] over the whole array ([`QueuePairPolicy::Shared`]).
    Spread,
    /// Round-robin within the stream's partition of the global queue-pair
    /// space ([`QueuePairPolicy::WeightedFair`]).
    Partition { base: u32, share: u32 },
}

/// What a stream's `k`-th request looks like.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Shape<'a> {
    /// The caller's own descriptors (the single-stream entry points):
    /// explicit device/queue overrides win, everything else spreads.
    Explicit(&'a [RequestDesc]),
    /// `writes` Bresenham-interleaved writes among the stream's requests,
    /// all of `bytes` (the pipeline's access size), routed by `route`.
    Mixed {
        writes: u64,
        bytes: u64,
        route: Route,
    },
}

/// Thinned member attribution of a class stream: each arrival draws its
/// synthetic member from the class's dedicated thinning RNG, in arrival
/// order — the sequence [`TenantClass::member_of`] lists.
#[derive(Debug)]
pub(crate) struct Thinning {
    rng: StdRng,
    members: u32,
    /// Account each member as its own tenant (`tenant + member`): the
    /// member-oracle granularity.
    per_member_tenants: bool,
}

/// Spine-side state of one engine-level stream (an explicit tenant, a
/// merged class, or the single legacy workload): which requests exist, how
/// closed-loop completions refill them, and the closed forms every
/// per-request fact is derived from when the request arrives. Accounting
/// state lives in [`TenantAcc`].
#[derive(Debug)]
pub(crate) struct Stream<'a> {
    /// Global index of the stream's first request (its block is
    /// contiguous).
    base: u64,
    /// Requests in the block.
    count: u64,
    /// Requests whose first offer has been scheduled so far: everything
    /// pre-scheduled, plus closed-loop refills.
    issued: u64,
    /// Requests first-offered so far — the stream's own arrival counter.
    arrived: u64,
    /// Closed-loop stream: completions launch the next request.
    refill: bool,
    shape: Shape<'a>,
    /// Accounting tenant of the stream's requests.
    tenant: u32,
    thinning: Option<Thinning>,
}

impl<'a> Stream<'a> {
    pub(crate) fn new(
        base: u64,
        count: u64,
        arrival: ArrivalProcess,
        shape: Shape<'a>,
        tenant: u32,
    ) -> Self {
        Self {
            base,
            count,
            issued: arrival.prescheduled(count),
            arrived: 0,
            refill: matches!(arrival, ArrivalProcess::ClosedLoop { .. }),
            shape,
            tenant,
            thinning: None,
        }
    }

    /// The stream of `spec` (an explicit tenant, or a class's merged spec):
    /// its block starts at `base`, its writes are Bresenham-interleaved at
    /// the pipeline's access size, and `route` places them.
    fn of_tenant(
        config: &SimConfig,
        spec: &TenantSpec,
        base: u64,
        route: Route,
        tenant: u32,
    ) -> Stream<'static> {
        let shape = Shape::Mixed {
            writes: spec.writes.min(spec.requests),
            bytes: config.pipeline.access_bytes,
            route,
        };
        Stream::new(base, spec.requests, spec.arrival, shape, tenant)
    }

    /// Draws each arrival's member from `class`'s thinning stream.
    fn thinned(mut self, class: &TenantClass, run_seed: u64, per_member_tenants: bool) -> Self {
        self.thinning = Some(Thinning {
            rng: class.thinning_rng(run_seed),
            members: class.members,
            per_member_tenants,
        });
        self
    }

    /// The static facts of the stream's next request, advancing its arrival
    /// counter.
    fn next_request(&mut self, config: &SimConfig) -> RequestInfo {
        let k = self.arrived;
        self.arrived += 1;
        let (write, bytes, qp) = match self.shape {
            Shape::Explicit(requests) => {
                let index = usize::try_from(k).expect("explicit requests are indexable");
                let desc = &requests[index];
                let (device, local) = spread(config, k);
                let device = desc.device.map_or(device, |d| d % config.num_ssds);
                let local = desc.queue.map_or(local, |q| q % config.queue_pairs_per_ssd);
                (
                    desc.write,
                    desc.bytes,
                    device * config.queue_pairs_per_ssd + local,
                )
            }
            Shape::Mixed {
                writes,
                bytes,
                route,
            } => {
                let qp = match route {
                    Route::Spread => {
                        let (device, local) = spread(config, k);
                        device * config.queue_pairs_per_ssd + local
                    }
                    Route::Partition { base, share } => base + rem_u32(k, share),
                };
                (is_mixed_write(k, self.count, writes), bytes, qp)
            }
        };
        let mut tenant = self.tenant;
        let member = self.thinning.as_mut().map_or(0, |t| {
            let member = t.rng.gen_range(0..t.members);
            if t.per_member_tenants {
                tenant += member;
            }
            member
        });
        RequestInfo {
            req: self.base + k,
            bytes,
            qp,
            tenant,
            member,
            write,
        }
    }
}

/// Queue-pair shares and partition bases of `weights` under `policy`.
fn queue_pair_shares(
    config: &SimConfig,
    policy: QueuePairPolicy,
    weights: &[u32],
) -> (Vec<u32>, Vec<Route>) {
    let total_qps = config.total_queue_pairs();
    match policy {
        QueuePairPolicy::Shared => (
            vec![total_qps; weights.len()],
            vec![Route::Spread; weights.len()],
        ),
        QueuePairPolicy::WeightedFair => {
            let shares = fair_shares(total_qps, weights);
            let routes = shares
                .iter()
                .scan(0u32, |base, &share| {
                    let route = Route::Partition { base: *base, share };
                    *base += share;
                    Some(route)
                })
                .collect();
            (shares, routes)
        }
    }
}

/// First global request index of each block of `counts` requests.
///
/// # Panics
///
/// Panics if the run's total overflows a `u64` — request indices are 64-bit
/// end to end, so any smaller run is addressable.
fn block_bases(counts: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut total = 0u64;
    counts
        .map(|count| {
            let base = total;
            total = total
                .checked_add(count)
                .unwrap_or_else(|| panic!("run of {base} + {count} requests overflows u64"));
            base
        })
        .collect()
}

/// `ln(100)`: the p99-to-mean ratio of an exponential sojourn tail
/// (`P[T > t] = e^(-t/mean)` crosses 1% at `t = mean·ln 100`). Hardcoded so
/// controller thresholds never depend on the platform's `ln`.
const LN_100: f64 = 4.605_170_185_988_092;

/// The admission controller of one tenant class, actuating its SLO in the
/// arrival path.
///
/// The control law inverts Little's law: with offered rate λ and an
/// exponential-tail projection, the class's p99 stays under `target_p99_us`
/// while its in-flight population stays under
/// `steady_state_in_flight(λ, target_p99_us / ln 100)`. Below that depth
/// every request is admitted. Above it, admissions draw from a token bucket
/// (so transient bursts ride through); an empty bucket defers the request by
/// `defer_ns`, and a request that exhausts `max_defers` is rejected.
///
/// All decisions run on the sequential timing spine over virtual time, so
/// they are deterministic and invariant under the engine's worker count.
#[derive(Debug)]
pub(crate) struct AdmissionCtl {
    /// In-flight depth below which admission is unconditional.
    depth_limit: u64,
    /// The class's currently admitted-but-incomplete requests.
    in_flight: u64,
    /// Token bucket: current fill, capacity, and virtual-time refill rate.
    tokens: f64,
    burst: f64,
    refill_per_s: f64,
    last_refill: SimTime,
    /// Deferral backoff and per-request deferral budget.
    defer_ns: u64,
    max_defers: u32,
}

/// What the admission controller decided for one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Enter the pipeline now.
    Admit,
    /// Re-offer after the class's deferral backoff.
    Defer { until_ns: u64 },
    /// Drop the request; it never enters the pipeline.
    Reject,
}

impl AdmissionCtl {
    fn new(
        spec: &crate::tenant::AdmissionSpec,
        offered_rate_per_s: f64,
        target_p99_us: f64,
    ) -> Self {
        assert!(
            offered_rate_per_s > 0.0,
            "admission control needs a positive offered rate"
        );
        assert!(target_p99_us > 0.0, "admission control needs a p99 budget");
        let depth_limit =
            bam_timing::steady_state_in_flight(offered_rate_per_s, target_p99_us / LN_100).floor()
                as u64;
        Self {
            depth_limit: depth_limit.max(1),
            in_flight: 0,
            tokens: f64::from(spec.burst),
            burst: f64::from(spec.burst),
            refill_per_s: spec.refill_per_s,
            last_refill: SimTime::ZERO,
            defer_ns: spec.defer_ns,
            max_defers: spec.max_defers,
        }
    }

    /// The depth threshold the control law derived from the class's SLO.
    pub(crate) fn depth_limit(&self) -> u64 {
        self.depth_limit
    }

    fn decide(&mut self, now: SimTime, defers_so_far: u32) -> Admission {
        let elapsed_ns = now - self.last_refill;
        self.tokens = (self.tokens + elapsed_ns as f64 * self.refill_per_s / 1e9).min(self.burst);
        self.last_refill = now;
        if self.in_flight < self.depth_limit {
            self.in_flight += 1;
            return Admission::Admit;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.in_flight += 1;
            return Admission::Admit;
        }
        if defers_so_far < self.max_defers {
            Admission::Defer {
                until_ns: now.as_ns() + self.defer_ns,
            }
        } else {
            Admission::Reject
        }
    }
}

/// Per-run admission state: one optional controller per stream (a request's
/// deferral count lives in its slot). [`AdmissionState::none`] (every
/// non-class entry point) is a zero-cost pass-through — the spine's event
/// schedule is byte-identical to the pre-admission engine's.
pub(crate) struct AdmissionState {
    ctls: Vec<Option<AdmissionCtl>>,
}

impl AdmissionState {
    /// No admission control anywhere: every offer admits immediately.
    pub(crate) fn none() -> Self {
        Self { ctls: Vec::new() }
    }

    pub(crate) fn new(ctls: Vec<Option<AdmissionCtl>>) -> Self {
        Self { ctls }
    }

    /// Runs `stream`'s controller (if armed) on an offer of a request that
    /// has absorbed `defers` deferrals so far, counting a new one.
    fn offer(&mut self, stream: u32, defers: &mut u32, now: SimTime) -> Admission {
        let Some(ctl) = self.ctls.get_mut(stream as usize).and_then(Option::as_mut) else {
            return Admission::Admit;
        };
        let decision = ctl.decide(now, *defers);
        if let Admission::Defer { .. } = decision {
            *defers += 1;
        }
        decision
    }

    /// Releases one in-flight unit of `stream`'s controller on completion.
    fn complete(&mut self, stream: u32) {
        if let Some(ctl) = self.ctls.get_mut(stream as usize).and_then(Option::as_mut) {
            ctl.in_flight -= 1;
        }
    }
}

/// Spine-side state of one in-flight request: everything a later event needs,
/// fixed when the request arrives (except the media sample and the deferral
/// count, which accrue).
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The request's stream (refill and admission bookkeeping).
    stream: u32,
    /// Global queue pair.
    qp: u32,
    /// Payload bytes (link occupancy scales with this).
    bytes: u64,
    /// Media service time, drawn when the channel is seized; the departure
    /// event reports it as the stage's service share (every other stage's
    /// service is a pipeline constant).
    media_service: u64,
    /// Deferrals absorbed so far.
    defers: u32,
    write: bool,
}

/// The recycled in-flight slots: a request takes one at its first offer and
/// frees it at `Complete` / `Reject`, so the table's size is the peak
/// in-flight population however long the run. Freed slots are reused
/// last-freed-first.
#[derive(Debug, Default)]
struct SlotTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl SlotTable {
    fn take(&mut self, slot: Slot) -> u32 {
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = slot;
            id
        } else {
            let id = u32::try_from(self.slots.len())
                .unwrap_or_else(|_| panic!("more than {} requests in flight", u32::MAX));
            self.slots.push(slot);
            id
        }
    }

    fn release(&mut self, id: u32) {
        self.free.push(id);
    }

    /// Most slots ever simultaneously live: slots are only minted when none
    /// is free, so this is the table's length.
    fn peak_live(&self) -> usize {
        self.slots.len()
    }
}

impl std::ops::Index<u32> for SlotTable {
    type Output = Slot;

    fn index(&self, id: u32) -> &Slot {
        &self.slots[id as usize]
    }
}

impl std::ops::IndexMut<u32> for SlotTable {
    fn index_mut(&mut self, id: u32) -> &mut Slot {
        &mut self.slots[id as usize]
    }
}

/// What the timing spine hands back to its wrappers.
pub(crate) struct SpineOutcome {
    pub(crate) end: SimTime,
    pub(crate) depth: DepthTimeline,
    /// Events processed (identical at any worker count).
    pub(crate) events: u64,
    /// Most events ever simultaneously pending in the heap.
    pub(crate) peak_queued: usize,
    /// Most in-flight slots ever simultaneously live.
    pub(crate) peak_slots: usize,
}

/// Slack in the footprint bound, beyond one pending event per live slot and
/// two per queue pair.
const HEAP_SLACK: usize = 16;

/// The timing spine: drives every request of `streams` from its lazily
/// merged `arrivals` through the five-stage pipeline, refilling closed-loop
/// streams on completion, and emits every accounting fact as a [`Rec`]
/// through `sink` in global `(time, seq)` order.
///
/// Pre-scheduled arrivals are pulled from `arrivals` one at a time; a pending
/// arrival fires before any heap event at the same instant (the order a heap
/// pre-loaded with every arrival would produce, since those would carry the
/// lowest insertion sequences). Per-request state lives in a recycled
/// [`SlotTable`] slot from first offer to `Complete` / `Reject`, so the
/// spine's footprint is bounded by the in-flight population — asserted
/// before returning.
pub(crate) fn drive_events(
    config: &SimConfig,
    streams: &mut [Stream<'_>],
    arrivals: &mut ArrivalMerge,
    admission: &mut AdmissionState,
    sink: &mut impl FnMut(Rec),
) -> SpineOutcome {
    let n: u64 = streams.iter().map(|s| s.count).sum();
    let total_qps = config.total_queue_pairs();
    let p = &config.pipeline;
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut queue_pairs: Vec<Center> = (0..total_qps).map(|_| Center::new(1)).collect();
    let mut media: Vec<Center> = (0..config.num_ssds)
        .map(|_| Center::new(p.media_channels))
        .collect();
    let mut ssd_links: Vec<Center> = (0..config.num_ssds).map(|_| Center::new(1)).collect();
    let mut gpu_link = Center::new(1);

    let device_of = |slot: &Slot| (slot.qp / config.queue_pairs_per_ssd) as usize;
    let media_dist = |write: bool| {
        if write {
            &p.write_media
        } else {
            &p.read_media
        }
    };
    let ssd_link_ns = |slot: &Slot| (slot.bytes as f64 * p.ssd_link_ns_per_byte).round() as u64;
    let gpu_link_ns = |slot: &Slot| (slot.bytes as f64 * p.gpu_link_ns_per_byte).round() as u64;

    let mut slots = SlotTable::default();
    let mut events = EventQueue::default();
    let mut completed: u64 = 0;
    let mut rejected: u64 = 0;
    let mut depth_timeline = DepthTimeline::for_requests(n);
    let mut depth: u32 = 0;
    let mut now = SimTime::ZERO;
    let mut processed: u64 = 0;
    let mut rec_idx: u64 = 0;

    // Closes one stage of the request in `slot` at the current instant
    // (dwell measured from the request's previous boundary — the shard owns
    // that state). The third operand is the stage's pure service time: the
    // spine scheduled the departure, so it knows it exactly, and the shard
    // splits the dwell into service vs wait without re-deriving any timing
    // decision.
    macro_rules! mark {
        ($slot:expr, $stage:expr, $service:expr) => {{
            let idx = rec_idx;
            rec_idx += 1;
            sink(Rec::Stage {
                slot: $slot,
                stage: $stage,
                at: now,
                idx,
                service_ns: $service,
            });
        }};
    }
    macro_rules! meter {
        ($qp:expr) => {
            sink(Rec::Meter {
                qp: $qp,
                at: now,
                occupancy: queue_pairs[$qp as usize].occupancy(),
            })
        };
    }
    // Offers `slot` to its queue pair; a winner rings the doorbell and starts
    // the pair's serialization window.
    macro_rules! enqueue {
        ($slot:expr) => {{
            let qp = slots[$slot].qp;
            if queue_pairs[qp as usize].admit($slot) {
                events.schedule(now + p.qp_forward_ns, Event::QpForwarded { slot: $slot });
                events.schedule(now + p.qp_recovery_ns, Event::QpRecovered { qp });
            }
            meter!(qp);
        }};
    }
    // Offers the request in `slot` to its stream's admission controller (a
    // first offer or a re-offer after deferral).
    macro_rules! offer {
        ($slot:expr) => {{
            let slot: u32 = $slot;
            let state = &mut slots[slot];
            let deferred_before = state.defers > 0;
            match admission.offer(state.stream, &mut state.defers, now) {
                Admission::Admit => {
                    if deferred_before {
                        // The whole dwell since first offer is admission
                        // wait (zero service), so stage dwells still tile
                        // the request's latency exactly.
                        mark!(slot, Stage::Admission, 0);
                    }
                    depth += 1;
                    depth_timeline.record(now, depth);
                    // A write's journal record must be durable before the
                    // request may ring its doorbell; when journalling is off
                    // (`journal_flush_ns == 0`) no extra event exists and the
                    // schedule is identical to the unjournalled engine.
                    if state.write && p.journal_flush_ns > 0 {
                        events.schedule(now + p.journal_flush_ns, Event::JournalFlushed { slot });
                    } else {
                        enqueue!(slot);
                    }
                }
                Admission::Defer { until_ns } => {
                    sink(Rec::Defer { slot, at: now });
                    events.schedule(SimTime::from_ns(until_ns), Event::Reoffer { slot });
                }
                Admission::Reject => {
                    sink(Rec::Reject { slot, at: now });
                    slots.release(slot);
                    rejected += 1;
                }
            }
        }};
    }

    loop {
        let take_arrival = arrivals
            .peek_time()
            .is_some_and(|due| events.peek_time().is_none_or(|t| due <= t));
        let (at, event) = if take_arrival {
            let (at, stream) = arrivals.next().expect("peeked an arrival");
            (at, Event::Issue { stream })
        } else if let Some(popped) = events.pop() {
            popped
        } else {
            break;
        };
        debug_assert!(at >= now, "time went backwards");
        now = at;
        processed += 1;
        match event {
            Event::Issue { stream } => {
                // Latency is measured from this first offer: a deferred
                // request's re-offers don't re-arm its arrival record, so
                // its admission wait counts against its latency.
                let info = streams[stream as usize].next_request(config);
                let slot = slots.take(Slot {
                    stream,
                    qp: info.qp,
                    bytes: info.bytes,
                    media_service: 0,
                    defers: 0,
                    write: info.write,
                });
                sink(Rec::Arrive {
                    slot,
                    at: now,
                    info,
                });
                offer!(slot);
            }
            Event::Reoffer { slot } => offer!(slot),
            Event::JournalFlushed { slot } => {
                mark!(slot, Stage::JournalFlush, p.journal_flush_ns);
                enqueue!(slot);
            }
            Event::QpRecovered { qp } => {
                if let Some(next) = queue_pairs[qp as usize].release() {
                    events.schedule(now + p.qp_forward_ns, Event::QpForwarded { slot: next });
                    events.schedule(now + p.qp_recovery_ns, Event::QpRecovered { qp });
                }
                meter!(qp);
            }
            Event::QpForwarded { slot } => {
                mark!(slot, Stage::QueuePair, p.qp_forward_ns);
                events.schedule(now + p.ctrl_fetch_ns, Event::FetchDone { slot });
            }
            Event::FetchDone { slot } => {
                mark!(slot, Stage::CtrlFetch, p.ctrl_fetch_ns);
                let state = &mut slots[slot];
                if media[device_of(state)].admit(slot) {
                    state.media_service = media_dist(state.write).sample(&mut rng);
                    events.schedule(now + state.media_service, Event::MediaDone { slot });
                }
            }
            Event::MediaDone { slot } => {
                let state = slots[slot];
                mark!(slot, Stage::Media, state.media_service);
                let dev = device_of(&state);
                if let Some(next) = media[dev].release() {
                    let waiter = &mut slots[next];
                    waiter.media_service = media_dist(waiter.write).sample(&mut rng);
                    events.schedule(now + waiter.media_service, Event::MediaDone { slot: next });
                }
                if ssd_links[dev].admit(slot) {
                    events.schedule(now + ssd_link_ns(&state), Event::SsdLinkDone { slot });
                }
            }
            Event::SsdLinkDone { slot } => {
                let state = slots[slot];
                mark!(slot, Stage::SsdLink, ssd_link_ns(&state));
                if let Some(next) = ssd_links[device_of(&state)].release() {
                    events.schedule(
                        now + ssd_link_ns(&slots[next]),
                        Event::SsdLinkDone { slot: next },
                    );
                }
                if gpu_link.admit(slot) {
                    events.schedule(now + gpu_link_ns(&state), Event::GpuLinkDone { slot });
                }
            }
            Event::GpuLinkDone { slot } => {
                mark!(slot, Stage::GpuLink, gpu_link_ns(&slots[slot]));
                if let Some(next) = gpu_link.release() {
                    events.schedule(
                        now + gpu_link_ns(&slots[next]),
                        Event::GpuLinkDone { slot: next },
                    );
                }
                events.schedule(now + p.completion_ns, Event::Complete { slot });
            }
            Event::Complete { slot } => {
                let idx = rec_idx;
                rec_idx += 1;
                sink(Rec::Complete {
                    slot,
                    at: now,
                    idx,
                    service_ns: p.completion_ns,
                });
                let stream = slots[slot].stream;
                slots.release(slot);
                completed += 1;
                depth -= 1;
                depth_timeline.record(now, depth);
                admission.complete(stream);
                // Closed-loop streams launch their next request immediately.
                let s = &mut streams[stream as usize];
                if s.refill && s.issued < s.count {
                    s.issued += 1;
                    events.schedule(now, Event::Issue { stream });
                }
            }
        }
        // Once every request has either completed or been rejected, anything
        // still queued is bookkeeping for finished requests (events pop in
        // time order, so the last settlement is necessarily final).
        if completed + rejected == n {
            break;
        }
    }

    // The footprint bound: at most one pending event per live slot (its next
    // stage boundary or re-offer; a pending closed-loop refill stands in for
    // the slot its completion just freed) and a `QpForwarded` +
    // `QpRecovered` pair per queue pair. A structure that grows with run
    // length instead of in-flight work trips this.
    let peak_slots = slots.peak_live();
    assert!(
        events.peak_len() <= peak_slots + 2 * total_qps as usize + HEAP_SLACK,
        "event heap outgrew the in-flight bound: peak {} events vs {} slots, {} queue pairs",
        events.peak_len(),
        peak_slots,
        total_qps
    );

    SpineOutcome {
        end: now,
        depth: depth_timeline,
        events: processed,
        peak_queued: events.peak_len(),
        peak_slots,
    }
}

/// Where a run's accounting records are applied.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EngineMode {
    /// In the event loop, on the spine's own thread (`workers <= 1`).
    Inline,
    /// On `min(workers, num_ssds)` accounting shards the spine streams
    /// records to (see [`crate::coordinator`]).
    Sharded(usize),
}

impl EngineMode {
    /// Dispatch by worker count: `workers <= 1` accounts inline, anything
    /// larger on shards.
    fn for_workers(workers: usize) -> Self {
        if workers <= 1 {
            EngineMode::Inline
        } else {
            EngineMode::Sharded(workers)
        }
    }
}

/// What a run hands back to the report builders, identical in either mode.
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
    /// Every completed request's latency (completion order inline,
    /// shard-concatenated on shards — the report builder sorts): the one
    /// exact-sample vector, behind `SimReport::sorted_latencies_ns`.
    pub(crate) latencies: Vec<u64>,
    /// Latency histogram over completed reads.
    pub(crate) read_latency: LatencyHisto,
    /// Latency histogram over completed writes. Includes the journal-flush
    /// stage when enabled — latency is measured from arrival.
    pub(crate) write_latency: LatencyHisto,
    /// Per-tenant accounting, in tenant declaration order.
    pub(crate) tenants: Vec<TenantAcc>,
    /// Run-level windowed telemetry (empty when the plan disabled it).
    pub(crate) series: WindowedSeries,
    /// Per-request blame rows (empty when the plan disabled blame;
    /// settlement order inline, shard-concatenated on shards — the report
    /// builder sorts).
    pub(crate) blame_rows: Vec<bam_obs::BlameRow>,
}

/// Runs the spine over `streams` with accounting applied inline or via the
/// shard coordinator, returning identical output either way.
pub(crate) fn execute(
    config: &SimConfig,
    streams: &mut [Stream<'_>],
    arrivals: &mut ArrivalMerge,
    admission: &mut AdmissionState,
    recorder: Option<&SpanRecorder>,
    mode: EngineMode,
    plan: &ObsPlan<'_>,
) -> EngineOutput {
    match mode {
        EngineMode::Inline => {
            let spans = recorder.map_or(SpanOut::None, SpanOut::Direct);
            let requests: u64 = streams.iter().map(|s| s.count).sum();
            let mut acct = Accounting::new(
                usize::try_from(requests).expect("run fits in memory"),
                config.total_queue_pairs(),
                plan,
                spans,
            );
            let spine = drive_events(config, streams, arrivals, admission, &mut |rec| {
                acct.apply(rec)
            });
            let (occupancy_mean, occupancy_max) = occupancy_stats(&acct.meters, spine.end);
            let blame_rows = acct.take_blame_rows();
            EngineOutput {
                end: spine.end,
                depth: spine.depth,
                events: spine.events,
                peak_queued: spine.peak_queued,
                peak_slots: spine.peak_slots,
                occupancy_mean,
                occupancy_max,
                latencies: acct.latencies,
                read_latency: acct.read_latency,
                write_latency: acct.write_latency,
                tenants: acct.tenants,
                series: acct.series,
                blame_rows,
            }
        }
        EngineMode::Sharded(workers) => coordinator::run_sharded_core(
            config, streams, arrivals, admission, recorder, workers, plan,
        ),
    }
}

/// Runs `requests` through the pipeline under the given arrival process and
/// returns the run's report.
///
/// # Panics
///
/// Panics if `requests` is empty, the configuration has no queue pairs, or an
/// open-loop rate is not positive.
pub fn run(config: &SimConfig, workload: Workload, requests: &[RequestDesc]) -> SimReport {
    run_with(
        config,
        workload,
        requests,
        None,
        EngineMode::Inline,
        TelemetrySpec::disabled(),
    )
    .0
}

/// [`run`] with run-level telemetry: alongside the (bit-identical) report,
/// returns the windowed series and blame decomposition described by
/// `telemetry`. `workers` dispatches the engine as in [`run_with_workers`];
/// the telemetry is bit-identical at any worker count.
pub fn run_observed(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    workers: usize,
    telemetry: TelemetrySpec,
) -> (SimReport, RunTelemetry) {
    let mode = EngineMode::for_workers(workers);
    run_with(config, workload, requests, None, mode, telemetry)
}

/// [`run`] with span tracing: every request's stage intervals are recorded
/// into `recorder` as [`bam_obs::SpanEvent`]s with virtual-nanosecond
/// timestamps. Tracing changes no simulation state — the report is identical
/// to the untraced run's.
pub fn run_traced(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    recorder: &SpanRecorder,
) -> SimReport {
    run_with(
        config,
        workload,
        requests,
        Some(recorder),
        EngineMode::Inline,
        TelemetrySpec::disabled(),
    )
    .0
}

/// [`run`] on the sharded engine: the timing spine streams accounting to
/// `min(workers, num_ssds)` per-SSD shards applied by a worker pool. The
/// report is bit-identical to [`run`]'s at any worker count.
///
/// # Panics
///
/// Panics on [`run`]'s conditions, or if `workers` is zero.
pub fn run_sharded(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    workers: usize,
) -> SimReport {
    assert!(workers > 0, "need at least one worker");
    run_with(
        config,
        workload,
        requests,
        None,
        EngineMode::Sharded(workers),
        TelemetrySpec::disabled(),
    )
    .0
}

/// [`run_sharded`] with span tracing: shards buffer their span events and
/// the coordinator merges them back in global emission order, so the
/// recorder's contents are bit-identical to [`run_traced`]'s.
pub fn run_sharded_traced(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    workers: usize,
    recorder: &SpanRecorder,
) -> SimReport {
    assert!(workers > 0, "need at least one worker");
    run_with(
        config,
        workload,
        requests,
        Some(recorder),
        EngineMode::Sharded(workers),
        TelemetrySpec::disabled(),
    )
    .0
}

/// Engine dispatch by worker count: `workers <= 1` runs the inline engine,
/// anything larger the sharded one. The report is identical either way —
/// this is what the benchmark binaries' `--workers` flag calls.
pub fn run_with_workers(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    workers: usize,
) -> SimReport {
    if workers <= 1 {
        run(config, workload, requests)
    } else {
        run_sharded(config, workload, requests, workers)
    }
}

/// [`run_with_workers`] with span tracing.
pub fn run_traced_with_workers(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    workers: usize,
    recorder: &SpanRecorder,
) -> SimReport {
    if workers <= 1 {
        run_traced(config, workload, requests, recorder)
    } else {
        run_sharded_traced(config, workload, requests, workers, recorder)
    }
}

/// A legacy single-stream workload as the spine sees it: the one stream over
/// the caller's `requests` and its arrival generator. The legacy workloads
/// are the single-stream cases of the tenant processes — same spacing
/// formula, same time-zero initial window.
fn single_stream<'a>(
    config: &SimConfig,
    workload: Workload,
    requests: &'a [RequestDesc],
) -> ([Stream<'a>; 1], ArrivalMerge) {
    let n = requests.len() as u64;
    let arrival = match workload {
        Workload::OpenLoop { rate_per_s } => {
            assert!(rate_per_s > 0.0, "open-loop rate must be positive");
            ArrivalProcess::FixedRate { rate_per_s }
        }
        Workload::ClosedLoop { in_flight } => ArrivalProcess::ClosedLoop { in_flight },
    };
    // Neither process draws from the generator's RNG.
    let rng = StdRng::seed_from_u64(config.seed);
    (
        [Stream::new(0, n, arrival, Shape::Explicit(requests), 0)],
        ArrivalMerge::new(vec![ArrivalTimes::new(arrival, n, rng)]),
    )
}

fn run_with(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    recorder: Option<&SpanRecorder>,
    mode: EngineMode,
    telemetry: TelemetrySpec,
) -> (SimReport, RunTelemetry) {
    assert!(!requests.is_empty(), "nothing to simulate");
    assert!(
        config.total_queue_pairs() > 0,
        "need at least one queue pair"
    );
    let (mut streams, mut arrivals) = single_stream(config, workload, requests);
    let plan = ObsPlan {
        telemetry,
        tenant_slo_windows: &[0],
        attribution: false,
    };
    let mut outcome = execute(
        config,
        &mut streams,
        &mut arrivals,
        &mut AdmissionState::none(),
        recorder,
        mode,
        &plan,
    );
    let run_telemetry = take_run_telemetry(&mut outcome, telemetry);
    let acc = outcome.tenants.remove(0);
    let report = build_report(outcome, acc.stages);
    (report, run_telemetry)
}

/// Moves the run-level telemetry out of `outcome` and assembles it.
fn take_run_telemetry(outcome: &mut EngineOutput, telemetry: TelemetrySpec) -> RunTelemetry {
    let series = std::mem::replace(&mut outcome.series, WindowedSeries::new(0));
    let blame_rows = std::mem::take(&mut outcome.blame_rows);
    build_run_telemetry(series, blame_rows, &outcome.depth, telemetry.blame_top_k)
}

/// The run seen as one merged stream.
fn build_report(outcome: EngineOutput, stages: StageBreakdown) -> SimReport {
    SimReport::build(
        outcome.latencies,
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

/// One summary row from a tenant's merged account (`admission` and
/// `members` start empty; class runs fill them in).
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

/// Runs the superposed workloads of `tenants` through the pipeline, with
/// queue pairs allocated by `policy`, and returns per-tenant accounting plus
/// the merged view.
///
/// Each tenant's `requests` block uses the pipeline's access size with its
/// writes Bresenham-interleaved, routed round-robin across the tenant's
/// queue-pair allocation. Arrival streams are generated from per-tenant RNGs
/// (`TenantSpec::rng`), so a tenant's stream is invariant under changes to
/// its neighbours.
///
/// # Panics
///
/// Panics if `tenants` is empty, ids repeat, or
/// ([`QueuePairPolicy::WeightedFair`] only) there are fewer queue pairs than
/// tenants. A tenant with zero requests is legal: it contributes nothing to
/// the run and gets an all-zero summary.
pub fn run_tenants(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
) -> MultiTenantReport {
    run_tenants_with(
        config,
        tenants,
        policy,
        None,
        EngineMode::Inline,
        TelemetrySpec::disabled(),
    )
    .0
}

/// [`run_tenants`] with run-level telemetry (see [`run_observed`]): returns
/// the multi-tenant report — including per-tenant SLO evaluations for
/// tenants carrying a [`bam_obs::SloSpec`] — plus the run's windowed series
/// and blame decomposition. Bit-identical at any worker count.
pub fn run_tenants_observed(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    workers: usize,
    telemetry: TelemetrySpec,
) -> (MultiTenantReport, RunTelemetry) {
    let mode = EngineMode::for_workers(workers);
    run_tenants_with(config, tenants, policy, None, mode, telemetry)
}

/// [`run_tenants`] with span tracing into `recorder` (see [`run_traced`]).
pub fn run_tenants_traced(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    recorder: &SpanRecorder,
) -> MultiTenantReport {
    run_tenants_with(
        config,
        tenants,
        policy,
        Some(recorder),
        EngineMode::Inline,
        TelemetrySpec::disabled(),
    )
    .0
}

/// [`run_tenants`] on the sharded engine (see [`run_sharded`]); the report
/// is bit-identical to [`run_tenants`]'s at any worker count.
///
/// # Panics
///
/// Panics on [`run_tenants`]'s conditions, or if `workers` is zero.
pub fn run_tenants_sharded(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    workers: usize,
) -> MultiTenantReport {
    assert!(workers > 0, "need at least one worker");
    run_tenants_with(
        config,
        tenants,
        policy,
        None,
        EngineMode::Sharded(workers),
        TelemetrySpec::disabled(),
    )
    .0
}

/// [`run_tenants_sharded`] with span tracing (see [`run_sharded_traced`]).
pub fn run_tenants_sharded_traced(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    workers: usize,
    recorder: &SpanRecorder,
) -> MultiTenantReport {
    assert!(workers > 0, "need at least one worker");
    run_tenants_with(
        config,
        tenants,
        policy,
        Some(recorder),
        EngineMode::Sharded(workers),
        TelemetrySpec::disabled(),
    )
    .0
}

/// Engine dispatch by worker count for multi-tenant runs (see
/// [`run_with_workers`]).
pub fn run_tenants_with_workers(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    workers: usize,
) -> MultiTenantReport {
    if workers <= 1 {
        run_tenants(config, tenants, policy)
    } else {
        run_tenants_sharded(config, tenants, policy, workers)
    }
}

fn run_tenants_with(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    recorder: Option<&SpanRecorder>,
    mode: EngineMode,
    telemetry: TelemetrySpec,
) -> (MultiTenantReport, RunTelemetry) {
    assert!(!tenants.is_empty(), "no tenants to simulate");
    assert!(
        config.total_queue_pairs() > 0,
        "need at least one queue pair"
    );
    for (i, t) in tenants.iter().enumerate() {
        assert!(
            tenants[..i].iter().all(|u| u.id != t.id),
            "duplicate tenant id {}",
            t.id
        );
    }
    let weights: Vec<u32> = tenants.iter().map(|t| t.weight).collect();
    let (shares, routes) = queue_pair_shares(config, policy, &weights);

    // Each tenant owns a contiguous block of global request indices; what a
    // request looks like and where it routes is a closed form of the
    // tenant's own arrival counter, evaluated when the request arrives.
    let bases = block_bases(tenants.iter().map(|t| t.requests));
    let mut streams: Vec<Stream> = tenants
        .iter()
        .zip(bases.iter().zip(&routes))
        .enumerate()
        .map(|(ti, (t, (&base, &route)))| Stream::of_tenant(config, t, base, route, ti as u32))
        .collect();
    let mut arrivals = ArrivalMerge::of_tenants(config.seed, tenants);

    let slo_windows: Vec<u64> = tenants
        .iter()
        .map(|t| t.slo.map_or(0, |s| s.window_ns))
        .collect();
    let plan = ObsPlan {
        telemetry,
        tenant_slo_windows: &slo_windows,
        attribution: false,
    };
    let mut outcome = execute(
        config,
        &mut streams,
        &mut arrivals,
        &mut AdmissionState::none(),
        recorder,
        mode,
        &plan,
    );
    let run_telemetry = take_run_telemetry(&mut outcome, telemetry);

    let mut overall_stages = StageBreakdown::new();
    let mut summaries: Vec<TenantSummary> = Vec::with_capacity(tenants.len());
    let accounts = std::mem::take(&mut outcome.tenants);
    for ((t, acc), &share) in tenants.iter().zip(accounts).zip(&shares) {
        overall_stages.merge(&acc.stages);
        summaries.push(tenant_summary(
            t.id,
            t.name.clone(),
            t.weight,
            share,
            t.slo.as_ref(),
            acc,
        ));
    }
    let report = MultiTenantReport {
        overall: build_report(outcome, overall_stages),
        tenants: summaries,
    };
    (report, run_telemetry)
}

/// Accounting granularity of a class run (see [`run_classes`]).
enum ClassGranularity {
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

/// Runs the closed-form-merged streams of `classes` through the pipeline:
/// one engine-level stream per class, so a million logical tenants cost
/// O(classes) in the event loop. Classes with an [`crate::AdmissionSpec`]
/// get per-class SLO admission control in the arrival path (reported via
/// [`TenantSummary::admission`]).
///
/// # Panics
///
/// Panics if `classes` is empty, ids repeat, a class has zero members, or a
/// class arms admission without an SLO or with a closed-loop process (a
/// closed loop has no open-loop offered rate to project from).
pub fn run_classes(
    config: &SimConfig,
    classes: &[TenantClass],
    policy: QueuePairPolicy,
    workers: usize,
) -> MultiTenantReport {
    run_classes_core(
        config,
        classes,
        policy,
        EngineMode::for_workers(workers),
        TelemetrySpec::disabled(),
        ClassGranularity::Class { attribution: false },
    )
    .0
}

/// [`run_classes`] with run-level telemetry (see [`run_observed`]).
/// Bit-identical at any worker count.
pub fn run_classes_observed(
    config: &SimConfig,
    classes: &[TenantClass],
    policy: QueuePairPolicy,
    workers: usize,
    telemetry: TelemetrySpec,
) -> (MultiTenantReport, RunTelemetry) {
    run_classes_core(
        config,
        classes,
        policy,
        EngineMode::for_workers(workers),
        telemetry,
        ClassGranularity::Class { attribution: false },
    )
}

/// [`run_classes`] with thinned per-member attribution: each class's
/// [`TenantSummary::members`] carries one [`crate::report::MemberSummary`]
/// per synthetic member that completed a request. The report is otherwise
/// bit-identical to [`run_classes`]'s — attribution reads the thinning
/// stream, never the arrival stream.
pub fn run_classes_attributed(
    config: &SimConfig,
    classes: &[TenantClass],
    policy: QueuePairPolicy,
    workers: usize,
) -> MultiTenantReport {
    run_classes_core(
        config,
        classes,
        policy,
        EngineMode::for_workers(workers),
        TelemetrySpec::disabled(),
        ClassGranularity::Class { attribution: true },
    )
    .0
}

/// The equivalence oracle: runs the *same* merged streams as
/// [`run_classes`], but accounts each logical member as its own engine
/// tenant (one [`TenantSummary`] per member, in `(class, member)` order).
/// The overall report is bit-identical to [`run_classes`]'s, and each
/// member's latencies equal its [`run_classes_attributed`] histogram — the
/// property `tests/class_equivalence.rs` asserts.
///
/// O(total members) accounting: meant for small oracle runs, not the
/// million-tenant path.
///
/// # Panics
///
/// Panics on [`run_classes`]'s conditions, or if any class is closed-loop or
/// arms admission (the oracle covers open, uncontrolled streams).
pub fn run_class_members(
    config: &SimConfig,
    classes: &[TenantClass],
    policy: QueuePairPolicy,
    workers: usize,
) -> MultiTenantReport {
    run_classes_core(
        config,
        classes,
        policy,
        EngineMode::for_workers(workers),
        TelemetrySpec::disabled(),
        ClassGranularity::Member,
    )
    .0
}

fn run_classes_core(
    config: &SimConfig,
    classes: &[TenantClass],
    policy: QueuePairPolicy,
    mode: EngineMode,
    telemetry: TelemetrySpec,
    granularity: ClassGranularity,
) -> (MultiTenantReport, RunTelemetry) {
    assert!(!classes.is_empty(), "no classes to simulate");
    assert!(
        config.total_queue_pairs() > 0,
        "need at least one queue pair"
    );
    for (i, c) in classes.iter().enumerate() {
        assert!(
            classes[..i].iter().all(|u| u.id != c.id),
            "duplicate class id {}",
            c.id
        );
        assert!(c.members > 0, "class {} has no members", c.id);
        if c.admission.is_some() {
            assert!(
                c.slo.is_some(),
                "class {} arms admission without an SLO budget",
                c.id
            );
            assert!(
                c.offered_rate_per_s().is_some(),
                "class {} arms admission on a closed loop",
                c.id
            );
        }
        if matches!(granularity, ClassGranularity::Member) {
            assert!(
                c.admission.is_none()
                    && !matches!(c.member_arrival, ArrivalProcess::ClosedLoop { .. }),
                "the member oracle covers open, uncontrolled classes (class {})",
                c.id
            );
        }
    }

    let weights: Vec<u32> = classes.iter().map(|c| c.weight).collect();
    let (shares, routes) = queue_pair_shares(config, policy, &weights);
    let bases = block_bases(classes.iter().map(|c| c.requests));

    // One accounting tenant per class — or, for the member oracle, one per
    // logical member in (class, member) order.
    let per_member = matches!(granularity, ClassGranularity::Member);
    let attribution = matches!(granularity, ClassGranularity::Class { attribution: true });
    let specs: Vec<TenantSpec> = classes.iter().map(TenantClass::merged_spec).collect();
    let mut accounts = 0u32;
    // Routed exactly as a merged explicit tenant would be: the class's own
    // arrival counter drives the round-robin, so the schedule is independent
    // of accounting granularity.
    let mut streams: Vec<Stream> = classes
        .iter()
        .zip(&specs)
        .zip(bases.iter().zip(&routes))
        .map(|((c, spec), (&base, &route))| {
            let stream = Stream::of_tenant(config, spec, base, route, accounts);
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
    let mut admission = if per_member {
        AdmissionState::none()
    } else {
        AdmissionState::new(
            classes
                .iter()
                .map(|c| {
                    c.admission.as_ref().map(|spec| {
                        AdmissionCtl::new(
                            spec,
                            c.offered_rate_per_s().expect("asserted open"),
                            c.slo.expect("asserted SLO").target_p99_us,
                        )
                    })
                })
                .collect(),
        )
    };

    let plan = ObsPlan {
        telemetry,
        tenant_slo_windows: &slo_windows,
        attribution,
    };
    let mut outcome = execute(
        config,
        &mut streams,
        &mut arrivals,
        &mut admission,
        None,
        mode,
        &plan,
    );
    let run_telemetry = take_run_telemetry(&mut outcome, telemetry);

    let mut overall_stages = StageBreakdown::new();
    let mut summaries: Vec<TenantSummary> = Vec::new();
    let mut accounts = std::mem::take(&mut outcome.tenants).into_iter();
    for (ci, (c, &share)) in classes.iter().zip(&shares).enumerate() {
        if per_member {
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
        let admission_report = c.admission.map(|_| crate::report::AdmissionReport {
            offered: acc.offered,
            admitted: acc.offered - acc.rejected,
            deferrals: acc.deferrals,
            rejected: acc.rejected,
            depth_limit: admission.ctls[ci]
                .as_ref()
                .map_or(0, AdmissionCtl::depth_limit),
        });
        let members = std::mem::take(&mut acc.members)
            .into_iter()
            .map(|(member, histo)| crate::report::MemberSummary {
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
    (report, run_telemetry)
}

/// Convenience: `n` identical round-robin reads of the pipeline's access
/// size.
pub fn uniform_reads(config: &SimConfig, n: u64) -> Vec<RequestDesc> {
    vec![RequestDesc::read(config.pipeline.access_bytes); n as usize]
}

/// Whether request `i` of `n` is one of its `writes` evenly interleaved
/// writes (deterministic Bresenham spread; `writes <= n`).
fn is_mixed_write(i: u64, n: u64, writes: u64) -> bool {
    (i + 1) * writes / n != i * writes / n
}

/// Convenience: `n` round-robin requests of which an evenly interleaved
/// `writes` are writes (deterministic Bresenham spread).
pub fn mixed_requests(config: &SimConfig, n: u64, writes: u64) -> Vec<RequestDesc> {
    let writes = writes.min(n);
    (0..n)
        .map(|i| {
            if is_mixed_write(i, n, writes) {
                RequestDesc::write(config.pipeline.access_bytes)
            } else {
                RequestDesc::read(config.pipeline.access_bytes)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bam_nvme_sim::SsdSpec;
    use bam_pcie::LinkSpec;

    fn optane_config(num_ssds: u32, queue_pairs_per_ssd: u32, bytes: u64, seed: u64) -> SimConfig {
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

    #[test]
    fn single_request_sees_unloaded_latency() {
        let cfg = optane_config(1, 8, 512, 1);
        let cfg = SimConfig {
            pipeline: cfg.pipeline.deterministic(),
            ..cfg
        };
        let reqs = uniform_reads(&cfg, 1);
        let report = run(&cfg, Workload::ClosedLoop { in_flight: 1 }, &reqs);
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
        let report = run(&cfg, Workload::ClosedLoop { in_flight: 1024 }, &reqs);
        let miops = report.throughput_per_s / 1e6;
        assert!((4.6..5.7).contains(&miops), "throughput {miops} MIOPS");
    }

    #[test]
    fn few_outstanding_requests_cannot_saturate() {
        // The left edge of Fig 4: 16 in flight over ~11us is ~1.45M IOPS.
        let cfg = optane_config(1, 128, 512, 3);
        let reqs = uniform_reads(&cfg, 20_000);
        let low = run(&cfg, Workload::ClosedLoop { in_flight: 16 }, &reqs);
        let high = run(&cfg, Workload::ClosedLoop { in_flight: 1024 }, &reqs);
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
        let fast = run(&plenty, Workload::ClosedLoop { in_flight: 2048 }, &reqs);
        let slow = run(&starved, Workload::ClosedLoop { in_flight: 2048 }, &reqs);
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
        let a = run(&cfg, Workload::ClosedLoop { in_flight: 256 }, &reqs);
        let b = run(&cfg, Workload::ClosedLoop { in_flight: 256 }, &reqs);
        assert_eq!(a, b);
        let c = run(
            &SimConfig {
                seed: 43,
                ..cfg.clone()
            },
            Workload::ClosedLoop { in_flight: 256 },
            &reqs,
        );
        assert_ne!(a.sorted_latencies_ns, c.sorted_latencies_ns);
    }

    #[test]
    fn open_loop_below_capacity_tracks_littles_law() {
        let cfg = optane_config(1, 64, 512, 5);
        let reqs = uniform_reads(&cfg, 50_000);
        // 2M/s against ~11us → ~22 in flight.
        let report = run(&cfg, Workload::OpenLoop { rate_per_s: 2.0e6 }, &reqs);
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

    fn steady(id: u32, rate_per_s: f64, requests: u64) -> TenantSpec {
        TenantSpec::new(
            id,
            &format!("steady-{id}"),
            ArrivalProcess::Poisson { rate_per_s },
            requests,
        )
    }

    #[test]
    fn run_tenants_is_deterministic_per_seed() {
        let cfg = optane_config(4, 2, 4096, 21);
        let tenants = [
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
            let a = run_tenants(&cfg, &tenants, policy);
            let b = run_tenants(&cfg, &tenants, policy);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn superposed_fixed_streams_add_their_rates() {
        // Two 1M/s tenants behave like one 2M/s stream: overall throughput
        // matches the aggregate arrival rate (the array is unsaturated).
        let cfg = optane_config(1, 64, 512, 22);
        let tenants = [
            TenantSpec::new(
                0,
                "a",
                ArrivalProcess::FixedRate { rate_per_s: 1.0e6 },
                20_000,
            ),
            TenantSpec::new(
                1,
                "b",
                ArrivalProcess::FixedRate { rate_per_s: 1.0e6 },
                20_000,
            ),
        ];
        let report = run_tenants(&cfg, &tenants, QueuePairPolicy::Shared);
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
        let light = steady(1, 100.0e3, 2_000);
        let report = run_tenants(&cfg, &[heavy, light], QueuePairPolicy::WeightedFair);
        assert_eq!(report.tenants[0].queue_pairs, 6);
        assert_eq!(report.tenants[1].queue_pairs, 2);
        // Shared policy reports the whole array for everyone.
        let heavy = {
            let mut t = steady(0, 100.0e3, 2_000);
            t.weight = 3;
            t
        };
        let shared = run_tenants(
            &cfg,
            &[heavy, steady(1, 100.0e3, 2_000)],
            QueuePairPolicy::Shared,
        );
        assert!(shared.tenants.iter().all(|t| t.queue_pairs == 8));
    }

    #[test]
    fn closed_loop_tenant_coexists_with_open_stream() {
        let cfg = optane_config(1, 32, 512, 24);
        let tenants = [
            TenantSpec::new(
                0,
                "cl",
                ArrivalProcess::ClosedLoop { in_flight: 64 },
                20_000,
            ),
            steady(1, 200.0e3, 2_000),
        ];
        let report = run_tenants(&cfg, &tenants, QueuePairPolicy::Shared);
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
        let report = run_tenants(&cfg, &[t], QueuePairPolicy::Shared);
        assert_eq!(report.overall.completed, 10);
        // The run exercises the write path (slower media): latency spread
        // between p50 and max reflects the two service classes.
        assert!(report.overall.latency.max_us > report.overall.latency.p50_us);
    }

    #[test]
    #[should_panic(expected = "duplicate tenant id")]
    fn run_tenants_rejects_duplicate_ids() {
        let cfg = optane_config(1, 8, 512, 26);
        let tenants = [steady(0, 1.0e5, 10), steady(0, 1.0e5, 10)];
        run_tenants(&cfg, &tenants, QueuePairPolicy::Shared);
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
        let plain = run(&base, Workload::OpenLoop { rate_per_s: 1.0e6 }, &reqs);
        let durable = run(&journalled, Workload::OpenLoop { rate_per_s: 1.0e6 }, &reqs);
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
        let a = run(&cfg, Workload::ClosedLoop { in_flight: 256 }, &reqs);
        let b = run(&zeroed, Workload::ClosedLoop { in_flight: 256 }, &reqs);
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
        let report = run(&cfg, Workload::ClosedLoop { in_flight: 128 }, &reqs);
        let total_latency_ns: u64 = report.sorted_latencies_ns.iter().sum();
        assert_eq!(report.stages.total_ns(), total_latency_ns);
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
        let plain = run(&cfg, Workload::ClosedLoop { in_flight: 256 }, &reqs);
        let rec_a = SpanRecorder::with_capacity(1 << 20);
        let traced = run_traced(&cfg, Workload::ClosedLoop { in_flight: 256 }, &reqs, &rec_a);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let rec_b = SpanRecorder::with_capacity(1 << 20);
        run_traced(&cfg, Workload::ClosedLoop { in_flight: 256 }, &reqs, &rec_b);
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
    fn zero_request_tenant_is_legal_and_zeroed() {
        let cfg = optane_config(4, 2, 4096, 33);
        let tenants = [steady(0, 100.0e3, 2_000), steady(1, 100.0e3, 0)];
        let report = run_tenants(&cfg, &tenants, QueuePairPolicy::Shared);
        assert_eq!(report.overall.completed, 2_000);
        let idle = report.tenant(1).unwrap();
        assert_eq!(idle.completed, 0);
        assert_eq!(idle.latency, crate::report::LatencySummary::default());
        assert_eq!(idle.throughput_per_s, 0.0);
        assert!(idle.stages.is_empty());
        // Its interference ratio is a NaN-free sentinel, not a panic.
        let ratio = crate::report::interference_ratio(idle.latency.p99_us, idle.latency.p99_us);
        assert_eq!(ratio, 1.0);
    }

    /// Drives `execute` directly so tests can read spine internals (peak
    /// slot and heap occupancy) that reports deliberately omit.
    fn probe(
        cfg: &SimConfig,
        workload: Workload,
        requests: &[RequestDesc],
        recorder: Option<&SpanRecorder>,
        mode: EngineMode,
    ) -> EngineOutput {
        let (mut streams, mut arrivals) = single_stream(cfg, workload, requests);
        execute(
            cfg,
            &mut streams,
            &mut arrivals,
            &mut AdmissionState::none(),
            recorder,
            mode,
            &ObsPlan {
                telemetry: TelemetrySpec::disabled(),
                tenant_slo_windows: &[0],
                attribution: false,
            },
        )
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
        for mode in [EngineMode::Inline, EngineMode::Sharded(2)] {
            let short = probe(&cfg, open, &uniform_reads(&cfg, 20_000), None, mode);
            let long = probe(&cfg, open, &uniform_reads(&cfg, 80_000), None, mode);
            for out in [&short, &long] {
                // No controller: a request holds a slot exactly while it is
                // in the depth timeline.
                assert_eq!(out.peak_slots, out.depth.max_depth() as usize);
                assert_heap_bound(out, &cfg);
            }
            assert!(short.peak_slots < 100, "sub-capacity: {}", short.peak_slots);
            assert_eq!(short.peak_slots, long.peak_slots, "{mode:?}");
            assert_eq!(short.peak_queued, long.peak_queued, "{mode:?}");
        }
        // A closed loop holds exactly its window.
        let closed = Workload::ClosedLoop { in_flight: 2048 };
        let out = probe(
            &cfg,
            closed,
            &uniform_reads(&cfg, 20_000),
            None,
            EngineMode::Inline,
        );
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
        .with_admission(crate::tenant::AdmissionSpec {
            burst: 8,
            refill_per_s: 1.0e6,
            defer_ns,
            max_defers,
        });
        let spec = class.merged_spec();
        let mut streams = [Stream::of_tenant(&cfg, &spec, 0, Route::Spread, 0)];
        let mut arrivals = ArrivalMerge::of_tenants(cfg.seed, std::slice::from_ref(&spec));
        let ctl = AdmissionCtl::new(
            class.admission.as_ref().unwrap(),
            class.offered_rate_per_s().unwrap(),
            class.slo.unwrap().target_p99_us,
        );
        let out = execute(
            &cfg,
            &mut streams,
            &mut arrivals,
            &mut AdmissionState::new(vec![Some(ctl)]),
            None,
            EngineMode::Inline,
            &ObsPlan {
                telemetry: TelemetrySpec::disabled(),
                tenant_slo_windows: &[0],
                attribution: false,
            },
        );
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

    #[test]
    fn recycled_slots_serve_every_request_exactly_once() {
        // 6 000 requests through a 32-request closed-loop window: each slot
        // is reused ~190 times, under both accounting modes.
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
        for mode in [EngineMode::Inline, EngineMode::Sharded(2)] {
            let recorder = SpanRecorder::with_capacity(1 << 20);
            let out = probe(&cfg, closed, &reqs, Some(&recorder), mode);
            assert_eq!(out.peak_slots, window as usize, "{mode:?}");
            assert_eq!(out.latencies.len() as u64, n);

            // Every request id closes its Completion stage exactly once, and
            // its stage spans tile [arrival, completion] without a gap.
            let mut completions = vec![0u32; n as usize];
            let mut dwell_ns = vec![0u64; n as usize];
            let mut last_end = vec![None; n as usize];
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
            assert!(completions.iter().all(|&c| c == 1), "{mode:?}");
            let mut latencies = out.latencies.clone();
            latencies.sort_unstable();
            dwell_ns.sort_unstable();
            assert_eq!(dwell_ns, latencies, "{mode:?}");
            let total: u64 = latencies.iter().sum();
            assert_eq!(out.tenants[0].stages.total_ns(), total);
        }
    }

    #[test]
    fn sharded_report_matches_inline_bit_for_bit() {
        // The full differential suite lives in tests/parallel_equivalence.rs;
        // this is the in-crate smoke check on a mixed closed-loop run.
        let cfg = optane_config(2, 16, 4096, 42);
        let reqs = mixed_requests(&cfg, 10_000, 1_000);
        let inline = run(&cfg, Workload::ClosedLoop { in_flight: 256 }, &reqs);
        for workers in [1, 2, 4] {
            let sharded = run_sharded(
                &cfg,
                Workload::ClosedLoop { in_flight: 256 },
                &reqs,
                workers,
            );
            assert_eq!(inline, sharded, "workers={workers}");
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
        let r = run(&cfg, Workload::ClosedLoop { in_flight: 1024 }, &reads);
        let w = run(&cfg, Workload::ClosedLoop { in_flight: 1024 }, &writes);
        assert!(
            w.sim_time_s > r.sim_time_s * 2.0,
            "writes {} reads {}",
            w.sim_time_s,
            r.sim_time_s
        );
    }
}

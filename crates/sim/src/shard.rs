//! Per-shard accounting for the sharded engine.
//!
//! The timing spine (`spine::drive_events`) owns every service center and
//! the one seeded RNG — the global RNG draw order is part of the engine's
//! determinism contract, so timing decisions stay sequential. What *can*
//! parallelize is everything downstream of a timing decision: stage-dwell
//! histograms, latency histograms, windowed series, blame rows and occupancy
//! meters are all order-independent merges (integer histograms, min/max
//! folds). The spine therefore emits a compact [`Rec`] stream,
//! partitioned by owning device, and each shard applies its slice
//! independently.
//!
//! Every record about a request routes to the shard of the request's queue
//! pair, so a shard sees its own requests' records in global `(time, seq)`
//! order — exactly the order the inline engine would have applied them.
//! Merging shard results back (see [`merge_tenants`] and
//! [`occupancy_stats`]) reproduces the inline accounting bit for bit.
//!
//! Per-request state is keyed by the spine's recycled in-flight slot, so a
//! shard's footprint follows the in-flight population, not the run length:
//! [`Rec::Arrive`] carries every static fact of the request
//! ([`RequestInfo`]), and each later record names only the slot. Completed
//! latencies stream straight into [`bam_obs::LatencyHisto`]s. Span events are
//! the one order-dependent output, so only inline accounting records them.

use bam_obs::{
    BlameAccumulator, BlameMark, LatencyHisto, SpanEvent, SpanId, SpanRecorder, Stage,
    StageBreakdown, WindowedSeries,
};

use crate::clock::SimTime;
use crate::engine::TelemetrySpec;

/// What observability the engines collect during a run: the run-level
/// telemetry spec plus each tenant's SLO evaluation window (0 = none).
/// Both engines receive the same plan, so their outputs stay comparable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ObsPlan<'a> {
    pub(crate) telemetry: TelemetrySpec,
    /// Requests the run will settle (the sum of the stream counts): what
    /// every shard's [`BlameAccumulator`] is sized for.
    pub(crate) requests: u64,
    pub(crate) tenant_slo_windows: &'a [u64],
    /// Thinned member attribution for class runs: collect one histogram per
    /// [`RequestInfo::member`]. `false` skips per-member accounting entirely.
    pub(crate) attribution: bool,
}

/// Time-weighted occupancy accounting for one queue pair.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct OccupancyMeter {
    integral_ns: u128,
    last_change: SimTime,
    current: u64,
    max: u64,
}

impl OccupancyMeter {
    pub(crate) fn update(&mut self, now: SimTime, occupancy: u64) {
        self.integral_ns += u128::from(now - self.last_change) * u128::from(self.current);
        self.last_change = now;
        self.current = occupancy;
        self.max = self.max.max(occupancy);
    }

    pub(crate) fn mean(&self, end: SimTime) -> f64 {
        let total = end - SimTime::ZERO;
        if total == 0 {
            return 0.0;
        }
        let integral =
            self.integral_ns + u128::from(end - self.last_change) * u128::from(self.current);
        integral as f64 / total as f64
    }
}

/// Mean-over-queue-pairs and global max of a meter bank. Both engines fold
/// meters in ascending queue-pair order, so the f64 summation order — and
/// therefore the reported mean — is identical.
pub(crate) fn occupancy_stats(meters: &[OccupancyMeter], end: SimTime) -> (f64, u64) {
    let mean = if meters.is_empty() {
        0.0
    } else {
        meters.iter().map(|m| m.mean(end)).sum::<f64>() / meters.len() as f64
    };
    let max = meters.iter().map(|m| m.max).max().unwrap_or(0);
    (mean, max)
}

/// The static facts of one request, derived by the spine in closed form from
/// its stream's arrival counter when the request first arrives.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RequestInfo {
    /// Global request index (span and blame-row identity).
    pub(crate) req: u64,
    /// Payload bytes.
    pub(crate) bytes: u64,
    /// Global queue pair the request is routed to.
    pub(crate) qp: u32,
    /// Accounting tenant.
    pub(crate) tenant: u32,
    /// Thinned synthetic member within the request's class (0 unless the
    /// run thins).
    pub(crate) member: u32,
    /// `true` for a write.
    pub(crate) write: bool,
}

/// One accounting fact from the timing spine. `slot` is the request's
/// recycled in-flight slot.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rec {
    /// The request described by `info` entered the system at `at` and took
    /// `slot` (its first offer; re-offers after a deferral emit nothing).
    Arrive {
        slot: u32,
        at: SimTime,
        info: RequestInfo,
    },
    /// The request in `slot` closed pipeline stage `stage` at `at`.
    /// `service_ns` is the stage's pure service time — the spine knows it
    /// exactly (it scheduled the departure) — so shards can split the dwell
    /// into service vs wait without re-deriving timing decisions.
    Stage {
        slot: u32,
        stage: Stage,
        at: SimTime,
        service_ns: u64,
    },
    /// The request in `slot` completed at `at` (closes the Completion stage
    /// and frees the slot).
    Complete {
        slot: u32,
        at: SimTime,
        service_ns: u64,
    },
    /// Queue pair `qp` changed occupancy at `at`.
    Meter {
        qp: u32,
        at: SimTime,
        occupancy: u64,
    },
    /// The admission controller pushed the request in `slot` back at `at`
    /// (it will be re-offered after its class's deferral backoff).
    Defer { slot: u32, at: SimTime },
    /// The admission controller rejected the request in `slot` at `at` (it
    /// exhausted its deferral budget and never enters the pipeline; the slot
    /// is freed).
    Reject { slot: u32, at: SimTime },
}

impl Rec {
    /// Virtual instant the record was emitted at.
    pub(crate) fn at(&self) -> SimTime {
        match *self {
            Rec::Arrive { at, .. }
            | Rec::Stage { at, .. }
            | Rec::Complete { at, .. }
            | Rec::Meter { at, .. }
            | Rec::Defer { at, .. }
            | Rec::Reject { at, .. } => at,
        }
    }
}

/// Shard topology: devices are dealt round-robin over
/// `min(workers, num_ssds)` shards, and a queue pair belongs to its device's
/// shard. Every record about a request routes to the shard of the request's
/// queue pair — remembered per in-flight slot from its [`Rec::Arrive`] — so
/// per-request state never crosses shards.
#[derive(Debug, Clone)]
pub(crate) struct ShardMap {
    pub(crate) shards: usize,
    queue_pairs_per_ssd: u32,
    /// The shard each in-flight slot's records route to.
    shard_of_slot: Vec<usize>,
}

impl ShardMap {
    pub(crate) fn new(workers: usize, num_ssds: u32, queue_pairs_per_ssd: u32) -> Self {
        Self {
            shards: workers.min(num_ssds as usize).max(1),
            queue_pairs_per_ssd,
            shard_of_slot: Vec::new(),
        }
    }

    /// The shard owning queue pair `qp`.
    pub(crate) fn of_qp(&self, qp: u32) -> usize {
        ((qp / self.queue_pairs_per_ssd) as usize) % self.shards
    }

    /// The shard a record routes to.
    pub(crate) fn route(&mut self, rec: &Rec) -> usize {
        match *rec {
            Rec::Arrive { slot, info, .. } => {
                let shard = self.of_qp(info.qp);
                let slot = slot as usize;
                if slot >= self.shard_of_slot.len() {
                    self.shard_of_slot.resize(slot + 1, 0);
                }
                self.shard_of_slot[slot] = shard;
                shard
            }
            Rec::Stage { slot, .. }
            | Rec::Complete { slot, .. }
            | Rec::Defer { slot, .. }
            | Rec::Reject { slot, .. } => self.shard_of_slot[slot as usize],
            Rec::Meter { qp, .. } => self.of_qp(qp),
        }
    }
}

/// Accounting-side state of one tenant (the spine keeps issue state; see
/// `engine::stream::Stream`).
#[derive(Debug)]
pub(crate) struct TenantAcc {
    /// Latency histogram over the tenant's completed requests.
    pub(crate) latency: LatencyHisto,
    /// When the tenant's first request arrived.
    pub(crate) first_arrival: Option<SimTime>,
    /// When the tenant's last request completed.
    pub(crate) last_completion: SimTime,
    /// Per-stage dwell-time histograms over the tenant's requests.
    pub(crate) stages: StageBreakdown,
    /// The tenant's completion telemetry on its SLO evaluation window
    /// (disabled — window 0 — for tenants without an SLO).
    pub(crate) slo_series: WindowedSeries,
    /// Requests first offered to the tenant (deferral re-offers not
    /// recounted).
    pub(crate) offered: u64,
    /// Admission-controller deferral decisions (one request may defer more
    /// than once).
    pub(crate) deferrals: u64,
    /// Requests the admission controller rejected outright.
    pub(crate) rejected: u64,
    /// Per-member completion histograms for class runs with thinned
    /// attribution (empty unless `ObsPlan::attribution` is set).
    pub(crate) members: std::collections::BTreeMap<u32, LatencyHisto>,
}

impl TenantAcc {
    fn new(slo_window_ns: u64) -> Self {
        Self {
            latency: LatencyHisto::new(),
            first_arrival: None,
            last_completion: SimTime::ZERO,
            stages: StageBreakdown::new(),
            slo_series: WindowedSeries::new(slo_window_ns),
            offered: 0,
            deferrals: 0,
            rejected: 0,
            members: std::collections::BTreeMap::new(),
        }
    }
}

/// Merges per-shard tenant accounts elementwise: first arrivals min-fold,
/// last completions max-fold, and the latency and stage histograms merge
/// exactly (integer counters, so the result is independent of shard order).
pub(crate) fn merge_tenants(parts: Vec<Vec<TenantAcc>>) -> Vec<TenantAcc> {
    let mut parts = parts.into_iter();
    let mut merged = parts.next().expect("at least one shard");
    for part in parts {
        for (into, from) in merged.iter_mut().zip(part) {
            into.latency.merge(&from.latency);
            into.first_arrival = match (into.first_arrival, from.first_arrival) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            into.last_completion = into.last_completion.max(from.last_completion);
            into.stages.merge(&from.stages);
            into.slo_series.merge(&from.slo_series);
            into.offered += from.offered;
            into.deferrals += from.deferrals;
            into.rejected += from.rejected;
            for (member, histo) in from.members {
                into.members.entry(member).or_default().merge(&histo);
            }
        }
    }
    merged
}

/// Accounting state of one in-flight slot: the request's static facts plus
/// the two instants dwell and latency are measured from.
#[derive(Debug, Clone, Copy, Default)]
struct SlotAcc {
    info: RequestInfo,
    /// Arrival (first-offer) instant.
    arrive_at: SimTime,
    /// Last stage boundary.
    last_mark: SimTime,
}

/// One shard's accounting state: everything the inline engine used to track
/// per request and per tenant, applied from the record stream instead of
/// inside the event loop.
///
/// Per-request state is indexed by the spine's in-flight slot and grown on
/// demand, so it costs memory proportional to the peak in-flight population
/// (slots are recycled), not the run length.
pub(crate) struct Accounting<'a> {
    /// Collect per-member histograms (see [`ObsPlan::attribution`]).
    attribution: bool,
    slots: Vec<SlotAcc>,
    /// Per-slot blame scratch: the marks of the request currently in the
    /// slot (empty when blame is disabled).
    marks: Vec<Vec<BlameMark>>,
    pub(crate) meters: Vec<OccupancyMeter>,
    pub(crate) tenants: Vec<TenantAcc>,
    /// Latency histogram over completed reads.
    pub(crate) read_latency: LatencyHisto,
    /// Latency histogram over completed writes. Includes the journal-flush
    /// stage when enabled — latency is measured from arrival.
    pub(crate) write_latency: LatencyHisto,
    /// Where span events go (inline accounting of a traced run only).
    spans: Option<&'a SpanRecorder>,
    /// Run-level windowed telemetry (disabled — window 0 — when the plan
    /// asks for none; every record is then a single branch).
    pub(crate) series: WindowedSeries,
    /// Streaming blame over settled (completed or rejected) requests; `None`
    /// when the plan disables blame.
    blame: Option<BlameAccumulator>,
}

impl<'a> Accounting<'a> {
    /// Accounting for `plan` over `total_qps` queue pairs, recording span
    /// events into `spans` when given.
    pub(crate) fn new(total_qps: u32, plan: &ObsPlan<'_>, spans: Option<&'a SpanRecorder>) -> Self {
        let blame = plan
            .telemetry
            .blame
            .then(|| BlameAccumulator::new(plan.requests, plan.telemetry.blame_top_k));
        Self {
            attribution: plan.attribution,
            slots: Vec::new(),
            marks: Vec::new(),
            meters: vec![OccupancyMeter::default(); total_qps as usize],
            tenants: plan
                .tenant_slo_windows
                .iter()
                .map(|&w| TenantAcc::new(w))
                .collect(),
            read_latency: LatencyHisto::new(),
            write_latency: LatencyHisto::new(),
            spans,
            series: WindowedSeries::new(plan.telemetry.window_ns),
            blame,
        }
    }

    /// Closes one pipeline stage of the request in `slot` at `now`: the
    /// dwell since the request's previous stage boundary lands in its
    /// tenant's [`StageBreakdown`] and (when tracing) in the span output on
    /// the request's queue-pair track. Dwell times tile the request's life
    /// exactly — their sum is the end-to-end latency. `service_ns` is the
    /// stage's pure service time from the spine; the dwell's remainder is
    /// queueing wait, recorded into the windowed series and (when blame is
    /// on) the slot's blame scratch.
    fn mark(&mut self, slot: u32, stage: Stage, now: SimTime, service_ns: u64) {
        let acc = &mut self.slots[slot as usize];
        let start = std::mem::replace(&mut acc.last_mark, now);
        let info = acc.info;
        let dwell = now - start;
        self.tenants[info.tenant as usize]
            .stages
            .record(stage, dwell);
        self.series
            .record_stage(now.as_ns(), stage, dwell, dwell - service_ns.min(dwell));
        if self.blame.is_some() {
            self.marks[slot as usize].push(BlameMark {
                stage,
                end_ns: now.as_ns(),
                service_ns,
            });
        }
        if let Some(rec) = self.spans {
            rec.record(SpanEvent {
                span: SpanId(info.req),
                stage,
                start_ns: start.as_ns(),
                end_ns: now.as_ns(),
                track: info.qp,
                arg: info.bytes,
            });
        }
    }

    /// Streams the settled request of `slot` into the blame accumulator (a
    /// rejected request has no marks).
    fn settle_blame(&mut self, slot: u32) {
        if let Some(blame) = &mut self.blame {
            let acc = &self.slots[slot as usize];
            blame.push(
                acc.info.req,
                acc.arrive_at.as_ns(),
                &self.marks[slot as usize],
            );
        }
    }

    /// Applies one record. Records arrive in global `(time, seq)` order for
    /// this shard's requests and queue pairs, so the state transitions are
    /// the same ones the inline engine performs.
    pub(crate) fn apply(&mut self, rec: Rec) {
        match rec {
            Rec::Arrive { slot, at, info } => {
                let i = slot as usize;
                if i >= self.slots.len() {
                    self.slots.resize(i + 1, SlotAcc::default());
                    if self.blame.is_some() {
                        self.marks.resize_with(i + 1, Vec::new);
                    }
                }
                self.slots[i] = SlotAcc {
                    info,
                    arrive_at: at,
                    last_mark: at,
                };
                if self.blame.is_some() {
                    self.marks[i].clear();
                }
                self.series.record_arrival(at.as_ns());
                let tenant = &mut self.tenants[info.tenant as usize];
                tenant.first_arrival.get_or_insert(at);
                tenant.offered += 1;
                tenant.slo_series.record_arrival(at.as_ns());
            }
            Rec::Stage {
                slot,
                stage,
                at,
                service_ns,
            } => self.mark(slot, stage, at, service_ns),
            Rec::Complete {
                slot,
                at,
                service_ns,
            } => {
                self.mark(slot, Stage::Completion, at, service_ns);
                self.settle_blame(slot);
                let SlotAcc {
                    info, arrive_at, ..
                } = self.slots[slot as usize];
                let latency = at - arrive_at;
                self.series.record_completion(at.as_ns(), latency);
                let tenant = &mut self.tenants[info.tenant as usize];
                tenant.latency.record(latency);
                tenant.last_completion = at;
                tenant.slo_series.record_completion(at.as_ns(), latency);
                if self.attribution {
                    tenant
                        .members
                        .entry(info.member)
                        .or_default()
                        .record(latency);
                }
                if info.write {
                    self.write_latency.record(latency);
                } else {
                    self.read_latency.record(latency);
                }
            }
            Rec::Meter { qp, at, occupancy } => {
                self.meters[qp as usize].update(at, occupancy);
                self.series.record_occupancy(at.as_ns(), occupancy);
            }
            Rec::Defer { slot, at } => {
                let tenant = &mut self.tenants[self.slots[slot as usize].info.tenant as usize];
                tenant.deferrals += 1;
                tenant.slo_series.record_deferral(at.as_ns());
                self.series.record_deferral(at.as_ns());
            }
            Rec::Reject { slot, at } => {
                self.settle_blame(slot);
                let tenant = &mut self.tenants[self.slots[slot as usize].info.tenant as usize];
                tenant.rejected += 1;
                tenant.slo_series.record_rejection(at.as_ns());
                self.series.record_rejection(at.as_ns());
            }
        }
    }

    /// The shard's blame accumulator (`None` when blame was disabled),
    /// checked against its retention bound: rows held beyond the tail would
    /// mean the report side grew with the run again.
    pub(crate) fn take_blame(&mut self) -> Option<BlameAccumulator> {
        let blame = self.blame.take()?;
        assert!(
            blame.retained() <= blame.retained_bound(),
            "blame accumulator outgrew the tail: {} rows retained vs a bound of {}",
            blame.retained(),
            blame.retained_bound()
        );
        Some(blame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_follow_their_slot_to_the_arrival_s_shard() {
        let mut map = ShardMap::new(2, 4, 2);
        let at = SimTime::ZERO;
        let arrive = |slot, qp| Rec::Arrive {
            slot,
            at,
            info: RequestInfo {
                qp,
                ..RequestInfo::default()
            },
        };
        assert_eq!(map.route(&arrive(5, 2)), 1);
        assert_eq!(map.route(&Rec::Defer { slot: 5, at }), 1);
        assert_eq!(map.route(&Rec::Reject { slot: 5, at }), 1);
        // The slot is recycled by a request on another device's shard.
        assert_eq!(map.route(&arrive(5, 4)), 0);
        let complete = Rec::Complete {
            slot: 5,
            at,
            service_ns: 0,
        };
        assert_eq!(map.route(&complete), 0);
    }

    #[test]
    fn shard_map_deals_devices_round_robin() {
        let map = ShardMap::new(2, 4, 2);
        assert_eq!(map.shards, 2);
        // Queue pairs 0-1 → device 0 → shard 0; 2-3 → device 1 → shard 1 …
        assert_eq!(map.of_qp(0), 0);
        assert_eq!(map.of_qp(1), 0);
        assert_eq!(map.of_qp(2), 1);
        assert_eq!(map.of_qp(4), 0);
        assert_eq!(map.of_qp(7), 1);
        // Never more shards than devices, never zero.
        assert_eq!(ShardMap::new(8, 4, 2).shards, 4);
        assert_eq!(ShardMap::new(0, 4, 2).shards, 1);
    }

    #[test]
    fn merge_tenants_folds_min_max_and_merges_histograms() {
        let mut a = TenantAcc::new(0);
        a.latency.record(10);
        a.first_arrival = Some(SimTime::from_ns(5));
        a.last_completion = SimTime::from_ns(100);
        let mut b = TenantAcc::new(0);
        b.latency.record(20);
        b.first_arrival = Some(SimTime::from_ns(2));
        b.last_completion = SimTime::from_ns(50);
        let merged = merge_tenants(vec![vec![a], vec![b]]);
        assert_eq!(merged[0].latency, LatencyHisto::from_samples([10, 20]));
        assert_eq!(merged[0].first_arrival, Some(SimTime::from_ns(2)));
        assert_eq!(merged[0].last_completion, SimTime::from_ns(100));
    }

    #[test]
    fn occupancy_stats_match_meter_arithmetic() {
        let mut m = OccupancyMeter::default();
        m.update(SimTime::from_ns(0), 2);
        m.update(SimTime::from_ns(100), 0);
        let (mean, max) = occupancy_stats(&[m], SimTime::from_ns(200));
        assert!((mean - 1.0).abs() < 1e-12, "{mean}");
        assert_eq!(max, 2);
        assert_eq!(occupancy_stats(&[], SimTime::from_ns(200)), (0.0, 0));
    }
}

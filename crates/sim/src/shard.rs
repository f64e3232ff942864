//! The accounting side of the engine: what the timing spine's record stream
//! builds.
//!
//! The timing spine (`spine::drive_events`) owns every service center and
//! the one seeded RNG, and decides every instant. Everything downstream of
//! a timing decision — stage-dwell and latency histograms, windowed series,
//! blame rows, occupancy meters, spans — is bookkeeping, so the spine emits
//! it as a compact [`Rec`] stream in global `(time, seq)` order and one
//! [`Accounting`] applies each record as it is emitted, on the spine's
//! thread.
//!
//! Per-request state is keyed by the spine's recycled in-flight slot, so the
//! accounting's footprint follows the in-flight population, not the run
//! length: [`Rec::Arrive`] carries every static fact of the request
//! ([`RequestInfo`]), and each later record names only the slot. Completed
//! latencies stream straight into [`bam_obs::LatencyHisto`]s.

use bam_obs::{
    BlameAccumulator, BlameMark, LatencyHisto, SpanEvent, SpanId, SpanRecorder, Stage,
    StageBreakdown, WindowedSeries, STAGE_COUNT,
};

use crate::clock::SimTime;
use crate::engine::TelemetrySpec;

/// What observability the engine collects during a run: the run-level
/// telemetry spec plus each tenant's SLO evaluation window (0 = none).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ObsPlan<'a> {
    pub(crate) telemetry: TelemetrySpec,
    /// Requests the run will settle (the sum of the stream counts): what
    /// the [`BlameAccumulator`] is sized for.
    pub(crate) requests: u64,
    pub(crate) tenant_slo_windows: &'a [u64],
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

/// Mean-over-queue-pairs and global max of a meter bank, folded in
/// ascending queue-pair order.
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
    /// exactly (it scheduled the departure) — so the accounting can split
    /// the dwell into service vs wait without re-deriving timing decisions.
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
        }
    }
}

/// The filler of a scratch mark no request has closed yet (never read: a
/// slot's marks end at its length).
const UNUSED_MARK: BlameMark = BlameMark {
    stage: Stage::CacheProbe,
    end_ns: 0,
    service_ns: 0,
};

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

/// The run's accounting state: everything tracked per request and per
/// tenant, applied from the record stream.
///
/// Per-request state is indexed by the spine's in-flight slot and grown on
/// demand, so it costs memory proportional to the peak in-flight population
/// (slots are recycled), not the run length.
pub(crate) struct Accounting<'a> {
    slots: Vec<SlotAcc>,
    /// Blame scratch, [`STAGE_COUNT`] marks per slot: slot `s`'s request
    /// has closed the marks `marks[s * STAGE_COUNT..][..mark_lens[s]]`.
    /// Both stay empty when blame is disabled.
    marks: Vec<BlameMark>,
    mark_lens: Vec<u8>,
    pub(crate) meters: Vec<OccupancyMeter>,
    pub(crate) tenants: Vec<TenantAcc>,
    /// Latency histogram over completed reads.
    pub(crate) read_latency: LatencyHisto,
    /// Latency histogram over completed writes. Includes the journal-flush
    /// stage when enabled — latency is measured from arrival.
    pub(crate) write_latency: LatencyHisto,
    /// Where span events go (traced runs only).
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
            slots: Vec::new(),
            marks: Vec::new(),
            mark_lens: Vec::new(),
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
            let len = &mut self.mark_lens[slot as usize];
            assert!(
                usize::from(*len) < STAGE_COUNT,
                "a request closes each of the {STAGE_COUNT} stages at most once"
            );
            self.marks[slot as usize * STAGE_COUNT + usize::from(*len)] = BlameMark {
                stage,
                end_ns: now.as_ns(),
                service_ns,
            };
            *len += 1;
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
            let i = slot as usize;
            let acc = &self.slots[i];
            let marks = &self.marks[i * STAGE_COUNT..][..usize::from(self.mark_lens[i])];
            blame.push(acc.info.req, acc.arrive_at.as_ns(), marks);
        }
    }

    /// Applies one record. Records arrive in global `(time, seq)` order.
    pub(crate) fn apply(&mut self, rec: Rec) {
        match rec {
            Rec::Arrive { slot, at, info } => {
                let i = slot as usize;
                if i >= self.slots.len() {
                    self.slots.resize(i + 1, SlotAcc::default());
                    if self.blame.is_some() {
                        self.mark_lens.resize(i + 1, 0);
                        self.marks.resize((i + 1) * STAGE_COUNT, UNUSED_MARK);
                    }
                }
                self.slots[i] = SlotAcc {
                    info,
                    arrive_at: at,
                    last_mark: at,
                };
                if self.blame.is_some() {
                    self.mark_lens[i] = 0;
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

    /// Blame marks the scratch holds room for: [`STAGE_COUNT`] per slot the
    /// run ever used, none when blame is disabled.
    pub(crate) fn mark_scratch(&self) -> usize {
        self.marks.len()
    }

    /// The run's blame accumulator (`None` when blame was disabled),
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

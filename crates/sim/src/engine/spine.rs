//! The timing spine: FIFO service centers, recycled in-flight slots and the
//! one sequential event loop ([`drive_events`]) every run goes through.

use std::collections::VecDeque;

use bam_obs::Stage;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::admission::{Admission, AdmissionState};
use super::stream::Stream;
use super::SimConfig;
use crate::arrivals::ArrivalMerge;
use crate::clock::SimTime;
use crate::event::{Event, EventQueue};
use crate::report::DepthTimeline;
use crate::shard::Rec;

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

/// What the timing spine hands back to `execute`.
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
pub(super) const HEAP_SLACK: usize = 16;

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

    // Closes one stage of the request in `slot` at the current instant
    // (dwell measured from the request's previous boundary — the shard owns
    // that state). The third operand is the stage's pure service time: the
    // spine scheduled the departure, so it knows it exactly, and the shard
    // splits the dwell into service vs wait without re-deriving any timing
    // decision.
    macro_rules! mark {
        ($slot:expr, $stage:expr, $service:expr) => {
            sink(Rec::Stage {
                slot: $slot,
                stage: $stage,
                at: now,
                service_ns: $service,
            })
        };
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
                sink(Rec::Complete {
                    slot,
                    at: now,
                    service_ns: p.completion_ns,
                });
                let stream = slots[slot].stream;
                slots.release(slot);
                completed += 1;
                depth -= 1;
                depth_timeline.record(now, depth);
                admission.complete(stream);
                // Closed-loop streams launch their next request immediately.
                if streams[stream as usize].refill() {
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

//! The event queue: a binary heap over (time, sequence) pairs.
//!
//! Two events at the same instant are ordered by insertion sequence, which
//! makes every run a total order — the engine is deterministic for a given
//! seed regardless of how ties arise.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::SimTime;

/// What happens when an event fires. `slot` is the request's recycled
/// in-flight slot in the engine's slot table (see `engine::SlotTable`);
/// resource indices are resolved by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// Stream `stream` offers its next request for the first time (an
    /// open-loop arrival or a closed-loop refill); the request takes its
    /// slot here.
    Issue { stream: u32 },
    /// A deferred request is offered to its admission controller again.
    Reoffer { slot: u32 },
    /// The write's journal record is durable; it may now enter its queue
    /// pair. Only scheduled when the pipeline's `journal_flush_ns` is
    /// non-zero (reads never journal).
    JournalFlushed { slot: u32 },
    /// The request won its queue pair and rang the doorbell; it now travels
    /// to the controller.
    QpForwarded { slot: u32 },
    /// The queue pair's submission-side serialization window expired; the
    /// next waiter may proceed.
    QpRecovered { qp: u32 },
    /// The controller finished fetching the SQ entry.
    FetchDone { slot: u32 },
    /// The media finished serving the request on one of its channels.
    MediaDone { slot: u32 },
    /// The per-device PCIe link finished the request's transfer.
    SsdLinkDone { slot: u32 },
    /// The shared GPU-side PCIe link finished the request's transfer.
    GpuLinkDone { slot: u32 },
    /// The completion entry landed and the submitter observed it; the
    /// request's slot is freed.
    Complete { slot: u32 },
}

#[derive(Debug, PartialEq, Eq)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of scheduled events, grown on demand: its population is bounded
/// by in-flight work (see the footprint bound `engine::drive_events`
/// asserts), never by run length.
///
/// Tracks its own high-water mark ([`peak_len`](Self::peak_len)) so that
/// bound can be checked.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    peak: usize,
}

impl EventQueue {
    /// Schedules `event` to fire at `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
        self.peak = self.peak.max(self.heap.len());
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse(s)| (s.at, s.event))
    }

    /// Fire time of the earliest pending event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Most events ever simultaneously pending.
    pub(crate) fn peak_len(&self) -> usize {
        self.peak
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::default();
        q.schedule(SimTime::from_ns(30), Event::Issue { stream: 3 });
        q.schedule(SimTime::from_ns(10), Event::Issue { stream: 1 });
        q.schedule(SimTime::from_ns(10), Event::Complete { slot: 2 });
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        let c = q.pop().unwrap();
        assert_eq!(a, (SimTime::from_ns(10), Event::Issue { stream: 1 }));
        assert_eq!(
            b,
            (SimTime::from_ns(10), Event::Complete { slot: 2 }),
            "FIFO tie-break"
        );
        assert_eq!(c.0, SimTime::from_ns(30));
        assert!(q.is_empty());
    }
}

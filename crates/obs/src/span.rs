//! Request spans: typed stage events, a bounded deterministic recorder,
//! and per-stage dwell-time breakdowns.

use crate::histo::LatencyHisto;
use std::sync::Mutex;

/// Identifies one request across all of its stage events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// A pipeline stage a request dwells in, as the discrete-event simulator
/// emits them (timestamps are virtual nanoseconds). `SsdLink` and `GpuLink`
/// together are the DMA portion of a request's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Cache line state probe (hit or start of a miss). The simulator
    /// never emits it; it survives for the host-cost benchmark's recorder
    /// row.
    CacheProbe,
    /// Held at the admission controller: the gap between a request's first
    /// offer and the instant a tenant-class token-bucket controller finally
    /// admitted it (service is always zero — the whole dwell is wait).
    /// Emitted only for requests that were actually deferred, so
    /// uncontrolled runs carry no admission stage at all.
    Admission,
    /// Waiting for the journal flush ahead of a durable write.
    JournalFlush,
    /// Queue-pair forwarding (includes time queued behind the QP).
    QueuePair,
    /// Controller command fetch over PCIe.
    CtrlFetch,
    /// Media (flash / Optane) access.
    Media,
    /// SSD-side DMA link transfer.
    SsdLink,
    /// GPU-side DMA link transfer (shared across devices).
    GpuLink,
    /// Completion posting and doorbell update.
    Completion,
}

/// Number of distinct stages.
pub const STAGE_COUNT: usize = 9;

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::CacheProbe,
        Stage::Admission,
        Stage::JournalFlush,
        Stage::QueuePair,
        Stage::CtrlFetch,
        Stage::Media,
        Stage::SsdLink,
        Stage::GpuLink,
        Stage::Completion,
    ];

    /// Dense index of this stage within [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            Stage::CacheProbe => "cache_probe",
            Stage::Admission => "admission",
            Stage::JournalFlush => "journal_flush",
            Stage::QueuePair => "queue_pair",
            Stage::CtrlFetch => "ctrl_fetch",
            Stage::Media => "media",
            Stage::SsdLink => "ssd_link",
            Stage::GpuLink => "gpu_link",
            Stage::Completion => "completion",
        }
    }
}

/// One closed stage interval of one request.
///
/// `track` groups events into trace rows (the queue-pair index); `arg`
/// carries a stage-specific detail (such as a byte count) into the exported
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    pub span: SpanId,
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
    pub track: u32,
    pub arg: u64,
}

/// Default event capacity of a [`SpanRecorder`].
const DEFAULT_CAPACITY: usize = 1 << 16;

struct RecorderInner {
    events: Vec<SpanEvent>,
    /// Next overwrite position once `events` is full.
    head: usize,
    dropped: u64,
}

/// A bounded ring buffer of [`SpanEvent`]s.
///
/// When full, the oldest events are overwritten and counted in
/// [`dropped`](Self::dropped) — recording never blocks or reallocates after
/// the buffer fills, so instrumentation cost is flat. All state advances
/// only through the owning workload's own calls, so for a seeded run the
/// recorded trace is bit-identical across repeats.
pub struct SpanRecorder {
    inner: Mutex<RecorderInner>,
    capacity: usize,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl SpanRecorder {
    /// A recorder with the default capacity (65 536 events).
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(RecorderInner {
                events: Vec::new(),
                head: 0,
                dropped: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Appends an event, overwriting the oldest once at capacity.
    pub fn record(&self, event: SpanEvent) {
        let mut inner = self.inner.lock().unwrap();
        if inner.events.len() < self.capacity {
            inner.events.push(event);
        } else {
            let head = inner.head;
            inner.events[head] = event;
            inner.head = (head + 1) % self.capacity;
            inner.dropped += 1;
        }
    }

    /// Snapshot of the retained events in recording order (oldest first).
    pub fn events(&self) -> Vec<SpanEvent> {
        let inner = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(inner.events.len());
        out.extend_from_slice(&inner.events[inner.head..]);
        out.extend_from_slice(&inner.events[..inner.head]);
        out
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events lost to ring-buffer overwrite.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Discards all retained events.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.events.clear();
        inner.head = 0;
        inner.dropped = 0;
    }
}

/// Per-stage dwell-time histograms: which stage the latency went to.
#[derive(Clone, PartialEq, Eq)]
pub struct StageBreakdown {
    histos: Vec<LatencyHisto>,
}

impl Default for StageBreakdown {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for StageBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("StageBreakdown");
        for stage in Stage::ALL {
            let h = self.histo(stage);
            if !h.is_empty() {
                d.field(stage.label(), &h.sum_ns());
            }
        }
        d.finish()
    }
}

impl StageBreakdown {
    /// A breakdown with one empty histogram per stage.
    pub fn new() -> Self {
        Self {
            histos: (0..STAGE_COUNT).map(|_| LatencyHisto::new()).collect(),
        }
    }

    /// Records one dwell time for a stage.
    pub fn record(&mut self, stage: Stage, dwell_ns: u64) {
        self.histos[stage.index()].record(dwell_ns);
    }

    /// Merges another breakdown stage-by-stage.
    pub fn merge(&mut self, other: &StageBreakdown) {
        for (a, b) in self.histos.iter_mut().zip(&other.histos) {
            a.merge(b);
        }
    }

    /// The dwell-time histogram of one stage.
    pub fn histo(&self, stage: Stage) -> &LatencyHisto {
        &self.histos[stage.index()]
    }

    /// Total nanoseconds attributed to one stage.
    pub fn sum_ns(&self, stage: Stage) -> u64 {
        self.histos[stage.index()].sum_ns()
    }

    /// Total nanoseconds attributed across all stages.
    pub fn total_ns(&self) -> u64 {
        self.histos.iter().map(|h| h.sum_ns()).sum()
    }

    /// True when no stage has any samples.
    pub fn is_empty(&self) -> bool {
        self.histos.iter().all(|h| h.is_empty())
    }

    /// Stages that recorded at least one sample, in pipeline order.
    pub fn active_stages(&self) -> impl Iterator<Item = Stage> + '_ {
        Stage::ALL
            .into_iter()
            .filter(|s| !self.histo(*s).is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(span: u64, stage: Stage, start: u64, end: u64) -> SpanEvent {
        SpanEvent {
            span: SpanId(span),
            stage,
            start_ns: start,
            end_ns: end,
            track: 0,
            arg: 0,
        }
    }

    #[test]
    fn recorder_retains_in_order_and_counts_drops() {
        let rec = SpanRecorder::with_capacity(4);
        for i in 0..6u64 {
            rec.record(ev(i, Stage::Media, i * 10, i * 10 + 5));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 2);
        let spans: Vec<u64> = rec.events().iter().map(|e| e.span.0).collect();
        assert_eq!(spans, vec![2, 3, 4, 5]);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn breakdown_attributes_and_merges() {
        let mut a = StageBreakdown::new();
        a.record(Stage::Media, 100);
        a.record(Stage::Media, 300);
        a.record(Stage::JournalFlush, 50);
        let mut b = StageBreakdown::new();
        b.record(Stage::Media, 600);
        a.merge(&b);
        assert_eq!(a.sum_ns(Stage::Media), 1000);
        assert_eq!(a.total_ns(), 1050);
        assert_eq!(a.histo(Stage::Media).count(), 3);
        let active: Vec<Stage> = a.active_stages().collect();
        assert_eq!(active, vec![Stage::JournalFlush, Stage::Media]);
    }

    #[test]
    fn stage_labels_are_unique() {
        let mut labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), STAGE_COUNT);
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}

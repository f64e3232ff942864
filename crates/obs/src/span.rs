//! Request spans: typed stage events, a bounded deterministic recorder,
//! and per-stage dwell-time breakdowns.

use crate::histo::LatencyHisto;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Identifies one request across all of its stage events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// A pipeline or functional-stack stage a request dwells in.
///
/// The first five stages are emitted by the functional layer (timestamps are
/// [`SpanRecorder`] step counts); the rest by the discrete-event simulator
/// (timestamps are virtual nanoseconds). `SsdLink` and `GpuLink` together
/// are the DMA portion of a request's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Cache line state probe (hit or start of a miss).
    CacheProbe,
    /// Miss servicing: fetching a line from backing storage.
    MissFetch,
    /// Appending a write record to the cache journal.
    JournalAppend,
    /// NVMe submission-queue doorbell ring and completion wait.
    Doorbell,
    /// Replaying one journalled line during crash recovery.
    RecoveryReplay,
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
pub const STAGE_COUNT: usize = 13;

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::CacheProbe,
        Stage::MissFetch,
        Stage::JournalAppend,
        Stage::Doorbell,
        Stage::RecoveryReplay,
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
            Stage::MissFetch => "miss_fetch",
            Stage::JournalAppend => "journal_append",
            Stage::Doorbell => "doorbell",
            Stage::RecoveryReplay => "recovery_replay",
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
/// `track` groups events into trace rows (queue-pair index in the sim,
/// device index in the functional layer); `arg` carries a stage-specific
/// detail (cache line, LBA, or byte count) into the exported trace.
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

/// A bounded ring buffer of [`SpanEvent`]s plus the deterministic id and
/// virtual-time sources the functional layer needs.
///
/// When full, the oldest events are overwritten and counted in
/// [`dropped`](Self::dropped) — recording never blocks or reallocates after
/// the buffer fills, so instrumentation cost is flat. All state advances
/// only through the owning workload's own calls, so for a seeded run the
/// recorded trace is bit-identical across repeats.
pub struct SpanRecorder {
    inner: Mutex<RecorderInner>,
    capacity: usize,
    steps: AtomicU64,
    next_span: AtomicU64,
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
            steps: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocates the next request span id (0, 1, 2, ...).
    pub fn next_span_id(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// Advances the virtual step clock and returns the new time. The
    /// functional layer uses these steps as span timestamps; the sim passes
    /// its own virtual nanoseconds instead and never calls this.
    pub fn tick(&self) -> u64 {
        self.steps.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current virtual step time without advancing it.
    pub fn now(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
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

    /// Discards all retained events (span ids and step clock keep running).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.events.clear();
        inner.head = 0;
        inner.dropped = 0;
    }
}

#[derive(Default)]
struct SinkInner {
    recorder: RwLock<Option<Arc<SpanRecorder>>>,
    installed: AtomicBool,
}

/// A shareable, optionally-populated handle to a [`SpanRecorder`].
///
/// Hot paths check one relaxed atomic before touching the lock, so an
/// uninstalled sink costs a single predictable branch. Cloning shares the
/// same slot — install once on a system handle and every component holding
/// a clone starts emitting.
#[derive(Clone, Default)]
pub struct SpanSink {
    inner: Arc<SinkInner>,
}

impl SpanSink {
    /// An empty (uninstalled) sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a recorder; subsequent [`with`](Self::with) calls see it.
    pub fn install(&self, recorder: Arc<SpanRecorder>) {
        *self.inner.recorder.write().unwrap() = Some(recorder);
        self.inner.installed.store(true, Ordering::Release);
    }

    /// Removes the recorder, returning the sink to its no-op state.
    pub fn uninstall(&self) {
        self.inner.installed.store(false, Ordering::Release);
        *self.inner.recorder.write().unwrap() = None;
    }

    /// True when a recorder is installed (single relaxed load).
    pub fn is_installed(&self) -> bool {
        self.inner.installed.load(Ordering::Relaxed)
    }

    /// Runs `f` against the recorder when installed; no-op otherwise.
    pub fn with<R>(&self, f: impl FnOnce(&SpanRecorder) -> R) -> Option<R> {
        if !self.is_installed() {
            return None;
        }
        let guard = self.inner.recorder.read().unwrap();
        guard.as_ref().map(|r| f(r))
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
    fn span_ids_and_steps_are_sequential() {
        let rec = SpanRecorder::new();
        assert_eq!(rec.next_span_id(), SpanId(0));
        assert_eq!(rec.next_span_id(), SpanId(1));
        assert_eq!(rec.now(), 0);
        assert_eq!(rec.tick(), 1);
        assert_eq!(rec.tick(), 2);
        assert_eq!(rec.now(), 2);
    }

    #[test]
    fn sink_is_noop_until_installed() {
        let sink = SpanSink::new();
        assert!(!sink.is_installed());
        assert_eq!(sink.with(|_| 1), None);
        let rec = Arc::new(SpanRecorder::new());
        sink.install(rec.clone());
        let shared = sink.clone();
        assert_eq!(shared.with(|r| r.tick()), Some(1));
        assert_eq!(rec.now(), 1);
        sink.uninstall();
        assert_eq!(shared.with(|_| 1), None);
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

//! Observability layer for the BaM reproduction.
//!
//! The discrete-event simulator's (`bam-sim`) telemetry; `bam-core`
//! re-exports the span and histogram types:
//!
//! * [`LatencyHisto`] — a log-linear HDR-style histogram with ≤ ~1.6%
//!   relative bucket error, sized by the bucket range its samples touched,
//!   mergeable, and cheap to record into. It replaces exact sample vectors
//!   wherever only percentiles are needed.
//! * [`SpanRecorder`] / [`SpanEvent`] — a bounded ring buffer of typed
//!   per-request stage spans. Timestamps are the simulator's virtual
//!   nanoseconds, so traces are bit-identical per seed.
//! * Exporters — Prometheus text exposition ([`PromWriter`]) and Chrome
//!   trace-event JSON ([`chrome_trace_json`], loadable in Perfetto or
//!   `chrome://tracing`).
//! * [`WindowedSeries`] — fixed virtual-time telemetry windows, plus the
//!   SLO layer on top ([`SloSpec`], [`evaluate_slo`]).
//! * [`BlameReport`] — per-resource service/wait decomposition of every
//!   request's latency, tail-slice breakdowns, and deterministic slowest-
//!   request exemplars, built in one streaming pass by a
//!   [`BlameAccumulator`] that holds only the rows still able to reach the
//!   tail.
//!
//! The crate deliberately depends on nothing but `std`: both stack layers
//! and the bench harness can pull it in without cycles.

mod blame;
mod export;
mod histo;
mod span;
mod timeseries;

pub use blame::{
    BlameAccumulator, BlameBreakdown, BlameMark, BlameReport, BlameRow, Exemplar, WaterfallStep,
};
pub use export::{chrome_trace_json, PromWriter};
pub use histo::{LatencyHisto, HISTO_BUCKETS};
pub use span::{SpanEvent, SpanId, SpanRecorder, Stage, StageBreakdown, STAGE_COUNT};
pub use timeseries::{evaluate_slo, SloReport, SloSpec, WindowStats, WindowedSeries};

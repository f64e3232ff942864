//! Capturing the I/O stream of a functional run and replaying it under the
//! event engine.
//!
//! [`TraceRecorder`] implements [`bam_nvme_sim::SimHook`]: installed on a
//! `BamSystem`/`IoStack` it records every command the stack completes. The
//! resulting [`IoTrace`] preserves per-request routing (device, queue pair)
//! and direction, so [`IoTrace::replay`] reproduces the *measured* traffic
//! mix — not a synthetic approximation — under any arrival process.

use std::sync::Mutex;

use bam_nvme_sim::{IoEvent, SimHook};

use crate::engine::{RequestDesc, Run, SimConfig, SimError, Workload};
use crate::report::SimReport;

/// An I/O stream captured from a functional run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoTrace {
    /// One entry per stack-level submission, in submission order.
    pub requests: Vec<RequestDesc>,
}

impl IoTrace {
    /// Number of captured commands.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Replays the captured stream through the event engine under `workload`.
    ///
    /// Captured device/queue ids are mapped into the engine's geometry by
    /// modulo, so a trace from a small functional run can drive a full-scale
    /// array configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::NoRequests`] if the trace is empty, plus the other
    /// conditions of [`Run::single`].
    pub fn replay(&self, config: &SimConfig, workload: Workload) -> Result<SimReport, SimError> {
        let (report, _) = Run::new(config).single(workload, &self.requests)?;
        Ok(report)
    }
}

/// A [`SimHook`] that records submissions.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    submits: Mutex<Vec<RequestDesc>>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the captured trace, leaving the recorder empty.
    pub fn take_trace(&self) -> IoTrace {
        IoTrace {
            requests: std::mem::take(&mut *self.submits.lock().expect("trace lock poisoned")),
        }
    }
}

impl SimHook for TraceRecorder {
    fn on_submit(&self, ev: &IoEvent) {
        self.submits
            .lock()
            .expect("trace lock poisoned")
            .push(RequestDesc {
                write: ev.write,
                bytes: ev.bytes,
                device: Some(ev.device),
                queue: Some(u32::from(ev.queue)),
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(device: u32, queue: u16, write: bool, bytes: u64) -> IoEvent {
        IoEvent {
            device,
            queue,
            write,
            bytes,
        }
    }

    #[test]
    fn recorder_captures_submissions_in_order() {
        let rec = TraceRecorder::new();
        rec.on_submit(&ev(0, 1, false, 512));
        rec.on_submit(&ev(1, 2, true, 1024));
        let trace = rec.take_trace();
        assert_eq!(trace.len(), 2);
        assert!(!trace.requests[0].write && trace.requests[1].write);
        assert_eq!(trace.requests[1].bytes, 1024);
        assert_eq!(trace.requests[1].device, Some(1));
        assert!(rec.take_trace().is_empty(), "take drains the buffer");
    }

    #[test]
    fn replay_produces_latency_samples() {
        let rec = TraceRecorder::new();
        for i in 0..512u32 {
            rec.on_submit(&ev(i % 2, (i % 4) as u16, i % 8 == 0, 512));
        }
        let trace = rec.take_trace();
        let config = SimConfig::worked_example(11.0, 9);
        let workload = Workload::ClosedLoop { in_flight: 64 };
        let report = trace.replay(&config, workload).unwrap();
        assert_eq!(report.completed, 512);
        assert!(report.latency.p50_us >= 11.0 * 0.99);
        let empty = IoTrace::default().replay(&config, workload);
        assert_eq!(empty.err(), Some(SimError::NoRequests));
    }
}

//! The tap through which event-driven simulation observes the functional
//! I/O stream.
//!
//! The functional stack (queues, controller, media) has no notion of time;
//! `bam-sim` adds one by replaying the I/O stream through a discrete-event
//! engine. This module defines the boundary between the two: the GPU-side
//! I/O stack (`bam_core::IoStack`) reports every command it saw succeed
//! through [`SimHook::on_submit`], and a hook implementation —
//! `bam_sim::TraceRecorder` in practice — captures it. The stack is the only
//! emitter, and no hook is installed by default. The device side of the same
//! stream is counted by each controller, per queue pair, and read as a
//! [`StatsSnapshot`](crate::stats::StatsSnapshot) through
//! [`NvmeController::stats`](crate::NvmeController::stats).

/// One observed I/O command, as reported to [`SimHook::on_submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoEvent {
    /// Index of the device within its array.
    pub device: u32,
    /// NVMe queue-pair id the command travelled through.
    pub queue: u16,
    /// `true` for writes, `false` for reads.
    pub write: bool,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Observer of the commands the I/O stack completes.
///
/// [`SimHook::on_submit`] is withheld until the stack has waited for the
/// command and seen it succeed, so that trace length and the stack's request
/// metrics agree 1:1 (a batch of reads reports them in the order it issued
/// them). It runs on the waiting thread, so it must be cheap and must not
/// call back into the stack.
pub trait SimHook: Send + Sync {
    /// The GPU-side stack submitted a command that went on to complete
    /// successfully (emitted 1:1 with the stack's request metrics; failed
    /// commands are absent from both).
    fn on_submit(&self, ev: &IoEvent);
}

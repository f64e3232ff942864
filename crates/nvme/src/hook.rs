//! Instrumentation hooks for event-driven performance simulation.
//!
//! The functional stack (queues, controller, media) has no notion of time;
//! `bam-sim` adds one by replaying the I/O stream through a discrete-event
//! engine. This module defines the boundary between the two: the functional
//! layers emit [`SimHook`] callbacks at the points of the Figure 2 pipeline
//! (submission, controller fetch, completion), and a hook implementation —
//! `bam_sim::TraceRecorder` in practice — captures them. Every method has a
//! no-op default, and the default installed hook is [`NopSimHook`], so the
//! functional path is untouched unless a simulation opts in.

/// One observed I/O command, as seen by the hook callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoEvent {
    /// Index of the device within its array (0 for standalone devices).
    pub device: u32,
    /// NVMe queue-pair id the command travelled through.
    pub queue: u16,
    /// `true` for writes, `false` for reads. Flushes are reported as writes
    /// of zero bytes.
    pub write: bool,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Starting LBA of the command (device-local; 0 for flushes). Lets span
    /// recorders correlate I/O events with the cache line they serviced.
    pub lba: u64,
}

/// Observer of the submission→fetch→completion pipeline.
///
/// All methods default to no-ops; implementations override only what they
/// need. Hooks run on the waiting threads (the thread waiting on a queue
/// pair runs its controller), so they must be cheap and must not call back
/// into the stack.
///
/// Ordering caveat: [`SimHook::on_submit`] is deliberately withheld until the
/// stack has waited for the command and seen it succeed, so that trace length
/// and the stack's request metrics agree 1:1 (a batch of reads reports them
/// in the order it issued them). A command's `on_device_fetch`/`on_complete`
/// therefore arrive *before* its `on_submit`; hooks must not assume pipeline
/// order across methods.
pub trait SimHook: Send + Sync {
    /// The GPU-side stack submitted a command that went on to complete
    /// successfully (emitted 1:1 with the stack's request metrics; failed
    /// commands appear in neither).
    fn on_submit(&self, _ev: &IoEvent) {}

    /// The controller fetched the command from the submission queue.
    fn on_device_fetch(&self, _ev: &IoEvent) {}

    /// The controller posted the command's completion entry.
    fn on_complete(&self, _ev: &IoEvent) {}
}

/// The default hook: ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopSimHook;

impl SimHook for NopSimHook {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_hook_accepts_events() {
        let ev = IoEvent {
            device: 0,
            queue: 1,
            write: false,
            bytes: 512,
            lba: 0,
        };
        let hook = NopSimHook;
        hook.on_submit(&ev);
        hook.on_device_fetch(&ev);
        hook.on_complete(&ev);
    }

    #[test]
    fn default_methods_are_noops_for_custom_impls() {
        struct CountSubmits(std::sync::atomic::AtomicU64);
        impl SimHook for CountSubmits {
            fn on_submit(&self, _ev: &IoEvent) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let h = CountSubmits(std::sync::atomic::AtomicU64::new(0));
        let ev = IoEvent {
            device: 2,
            queue: 3,
            write: true,
            bytes: 4096,
            lba: 8,
        };
        h.on_submit(&ev);
        h.on_device_fetch(&ev); // default no-op
        assert_eq!(h.0.load(std::sync::atomic::Ordering::Relaxed), 1);
    }
}

//! Kernel launch and warp-parallel execution.
//!
//! Kernels are expressed at warp granularity: the launcher creates one
//! [`WarpCtx`] per group of 32 consecutive global thread ids and invokes the
//! kernel closure for each, distributing warps across a pool of OS worker
//! threads. This gives the BaM data structures (queues, cache) real
//! concurrent exercise while keeping the thread count tractable: one OS
//! thread plays many warps, just as one SM timeslices many warps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::spec::GpuSpec;
use crate::warp::{LaneMask, WARP_SIZE};

/// Per-warp execution context handed to kernels.
#[derive(Debug, Clone, Copy)]
pub struct WarpCtx {
    /// Index of this warp within the launch.
    pub warp_id: usize,
    /// Global thread id of lane 0.
    pub base_thread: usize,
    /// Mask of lanes that correspond to real threads (the last warp of a
    /// launch may be partial).
    pub active: LaneMask,
}

impl WarpCtx {
    /// Global thread id of `lane`.
    pub fn thread_id(&self, lane: usize) -> usize {
        self.base_thread + lane
    }

    /// Whether `lane` is active in this warp.
    fn is_active(&self, lane: usize) -> bool {
        self.active & (1 << lane) != 0
    }

    /// Iterates over `(lane, global thread id)` for the active lanes.
    pub fn lanes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..WARP_SIZE)
            .filter(|&l| self.is_active(l))
            .map(|l| (l, self.thread_id(l)))
    }
}

/// Statistics of one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Number of logical GPU threads launched.
    pub threads: usize,
    /// Number of warps executed.
    pub warps: usize,
    /// Host wall-clock seconds the functional execution took (not simulated
    /// time; useful for harness progress reporting only).
    pub wall_seconds: f64,
}

/// A warp-parallel kernel launcher.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use bam_gpu_sim::{GpuExecutor, GpuSpec};
///
/// let exec = GpuExecutor::new(GpuSpec::a100_80gb());
/// let counter = AtomicUsize::new(0);
/// exec.launch(1000, |warp| {
///     for (_lane, _tid) in warp.lanes() {
///         counter.fetch_add(1, Ordering::Relaxed);
///     }
/// });
/// assert_eq!(counter.load(Ordering::Relaxed), 1000);
/// ```
#[derive(Debug)]
pub struct GpuExecutor {
    spec: GpuSpec,
    workers: usize,
}

impl GpuExecutor {
    /// Creates an executor using one worker per available CPU core.
    pub fn new(spec: GpuSpec) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self { spec, workers }
    }

    /// Creates an executor with an explicit worker count (tests use 2–4 to
    /// provoke interleavings deterministically sized to the machine).
    pub fn with_workers(spec: GpuSpec, workers: usize) -> Self {
        Self {
            spec,
            workers: workers.max(1),
        }
    }

    /// The GPU specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Number of OS worker threads used to execute warps.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Launches `num_threads` logical GPU threads running `kernel`, one call
    /// per warp. Blocks until every warp has executed (kernel-grain
    /// synchronization, as on a real GPU).
    pub fn launch<K>(&self, num_threads: usize, kernel: K) -> KernelStats
    where
        K: Fn(&WarpCtx) + Sync,
    {
        if num_threads == 0 {
            return KernelStats::default();
        }
        let num_warps = num_threads.div_ceil(WARP_SIZE);
        let next_warp = AtomicU64::new(0);
        let start = Instant::now();
        let workers = self.workers.min(num_warps);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let w = next_warp.fetch_add(1, Ordering::Relaxed) as usize;
                    if w >= num_warps {
                        break;
                    }
                    let base_thread = w * WARP_SIZE;
                    let remaining = num_threads - base_thread;
                    let active: LaneMask = if remaining >= WARP_SIZE {
                        u32::MAX
                    } else {
                        (1u32 << remaining) - 1
                    };
                    let ctx = WarpCtx {
                        warp_id: w,
                        base_thread,
                        active,
                    };
                    kernel(&ctx);
                });
            }
        });
        KernelStats {
            threads: num_threads,
            warps: num_warps,
            wall_seconds: start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn every_thread_runs_exactly_once() {
        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 4);
        let seen = Mutex::new(HashSet::new());
        let stats = exec.launch(1000, |warp| {
            for (_lane, tid) in warp.lanes() {
                assert!(seen.lock().unwrap().insert(tid), "thread {tid} ran twice");
            }
        });
        assert_eq!(seen.lock().unwrap().len(), 1000);
        assert_eq!(stats.threads, 1000);
        assert_eq!(stats.warps, 32); // ceil(1000/32)
    }

    #[test]
    fn partial_last_warp_mask() {
        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 2);
        let active_in_last = AtomicUsize::new(0);
        exec.launch(40, |warp| {
            if warp.warp_id == 1 {
                active_in_last.store(warp.lanes().count(), Ordering::Relaxed);
                assert!(warp.is_active(7));
                assert!(!warp.is_active(8));
            } else {
                assert_eq!(warp.lanes().count(), 32);
            }
        });
        assert_eq!(active_in_last.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn zero_threads_is_a_noop() {
        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 2);
        let stats = exec.launch(0, |_| panic!("kernel must not run"));
        assert_eq!(stats.warps, 0);
    }

    #[test]
    fn thread_ids_are_contiguous_per_warp() {
        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 2);
        exec.launch(64, |warp| {
            let tids: Vec<usize> = warp.lanes().map(|(_, t)| t).collect();
            for pair in tids.windows(2) {
                assert_eq!(pair[1], pair[0] + 1);
            }
            assert_eq!(tids[0], warp.warp_id * 32);
        });
    }
}

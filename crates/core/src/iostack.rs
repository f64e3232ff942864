//! The BaM I/O stack: routes cache-line fetches and write-backs to the SSD
//! array through the BaM queue protocol.
//!
//! Requests are spread across SSDs (round-robin under replication, by address
//! under striping). On the chosen SSD every command goes to the issuing
//! thread's home queue pair, as the prototype picks a thread's queue pair
//! from its SM id: an OS worker plays an SM here, so while threads are no
//! more than queue pairs, no two threads share a ring.
//!
//! Every read goes through [`IoStack::read_lines`], which overlaps the
//! commands of one batch; [`IoStack::read_line`] is its one-request form.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use bam_mem::DevAddr;
use bam_nvme_sim::{IoEvent, NvmeCommand, SimHook, SsdArray, BLOCK_SIZE};

use crate::backing::CacheBacking;
use crate::error::BamError;
use crate::fixed::{FixedVec, MAX_BATCH};
use crate::metrics::BamMetrics;
use crate::queue::{BamQueuePair, Submission};

/// Ceiling on the per-attempt fetch-retry backoff. The exponential saturates
/// here instead of overflowing the shift for large configured retry counts.
const MAX_FETCH_BACKOFF_US: u64 = 10_000;

/// Backoff before retry `attempt` (1-based): `base_us · 2^(attempt-1)`,
/// saturating at [`MAX_FETCH_BACKOFF_US`] (never overflowing, however large
/// the configured retry budget).
fn retry_backoff_us(base_us: u64, attempt: u32) -> u64 {
    let factor = 1u64.checked_shl(attempt - 1).unwrap_or(u64::MAX);
    base_us.saturating_mul(factor).min(MAX_FETCH_BACKOFF_US)
}

/// Source of home indices: each OS thread takes the next one at its first
/// command, through any stack.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home index, `usize::MAX` until its first command.
    static HOME: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's home index; its queue pair on a device with `n`
/// pairs is pair `home % n`.
fn home_index() -> usize {
    HOME.with(|home| {
        if home.get() == usize::MAX {
            home.set(NEXT_HOME.fetch_add(1, Ordering::Relaxed));
        }
        home.get()
    })
}

/// One read command of a [`IoStack::read_lines`] batch, staged and not yet
/// waited for.
struct StagedRead<'a> {
    /// Index of its request (and outcome) in the batch.
    index: usize,
    qp: &'a BamQueuePair,
    submission: Submission,
    device: usize,
}

/// The GPU-side I/O stack over a multi-SSD array.
pub struct IoStack {
    array: Arc<SsdArray>,
    /// BaM queue pairs, grouped per device.
    queues: Vec<Vec<Arc<BamQueuePair>>>,
    /// Round-robin counter for device selection under replication.
    rr_device: AtomicU64,
    line_bytes: u64,
    num_lines: u64,
    metrics: Arc<BamMetrics>,
    /// Optional event-simulation hook (see `bam_nvme_sim::hook`).
    sim_hook: RwLock<Option<Arc<dyn SimHook>>>,
    /// Fast-path flag mirroring `sim_hook.is_some()`: with no hook installed
    /// (the default) the submission path pays one relaxed load, no lock.
    sim_hook_installed: AtomicBool,
    /// Extra attempts for a cache-miss fetch that fails with a transient
    /// storage error (0 = fail fast).
    fetch_retries: u32,
    /// Backoff before retry `n` (1-based) is `fetch_retry_base_us · 2^(n-1)`
    /// microseconds, saturating at [`MAX_FETCH_BACKOFF_US`].
    fetch_retry_base_us: u64,
}

impl std::fmt::Debug for IoStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoStack")
            .field("devices", &self.queues.len())
            .field(
                "queues_per_device",
                &self.queues.first().map(Vec::len).unwrap_or(0),
            )
            .field("line_bytes", &self.line_bytes)
            .field("num_lines", &self.num_lines)
            .finish()
    }
}

impl IoStack {
    /// Creates an I/O stack over `array` using the given per-device BaM queue
    /// pairs, serving a dataset of `num_lines` lines of `line_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is empty or any device has no queues, or if
    /// `line_bytes` is not a multiple of the block size.
    pub fn new(
        array: Arc<SsdArray>,
        queues: Vec<Vec<Arc<BamQueuePair>>>,
        line_bytes: u64,
        num_lines: u64,
        metrics: Arc<BamMetrics>,
    ) -> Self {
        assert!(!queues.is_empty(), "need at least one device");
        assert!(
            queues.iter().all(|q| !q.is_empty()),
            "every device needs at least one queue"
        );
        assert_eq!(queues.len(), array.len(), "one queue group per device");
        assert_eq!(
            line_bytes % BLOCK_SIZE as u64,
            0,
            "line size must be whole blocks"
        );
        Self {
            array,
            queues,
            rr_device: AtomicU64::new(0),
            line_bytes,
            num_lines,
            metrics,
            sim_hook: RwLock::new(None),
            sim_hook_installed: AtomicBool::new(false),
            fetch_retries: 0,
            fetch_retry_base_us: 0,
        }
    }

    /// Enables bounded retry with exponential backoff for cache-miss fetches
    /// that fail with a transient [`BamError::Storage`] error: up to
    /// `retries` extra attempts, sleeping `base_us · 2^(attempt-1)`
    /// microseconds (saturating at `MAX_FETCH_BACKOFF_US`) before each.
    /// Under replication the round-robin device
    /// selector naturally steers each attempt at the next replica (on that
    /// replica, the thread's home queue pair). Every retry is counted in
    /// [`crate::MetricsSnapshot::storage_retries`].
    pub fn with_fetch_retry(mut self, retries: u32, base_us: u64) -> Self {
        self.fetch_retries = retries;
        self.fetch_retry_base_us = base_us;
        self
    }

    /// Installs `hook` as the stack's one tap on the command stream, or
    /// clears it with `None`. Every command the stack completes is reported
    /// to it once, after the wait, in step with the request metrics.
    pub fn set_sim_hook(&self, hook: Option<Arc<dyn SimHook>>) {
        let installed = hook.is_some();
        *self.sim_hook.write().expect("sim hook lock poisoned") = hook;
        self.sim_hook_installed.store(installed, Ordering::Release);
    }

    /// Blocks per cache line.
    fn blocks_per_line(&self) -> u32 {
        (self.line_bytes / BLOCK_SIZE as u64) as u32
    }

    /// Total read + write commands submitted through this stack so far.
    pub fn total_submissions(&self) -> u64 {
        self.queues.iter().flatten().map(|q| q.submissions()).sum()
    }

    /// Total SQ doorbell MMIO writes across every queue.
    pub fn total_doorbell_writes(&self) -> u64 {
        self.queues
            .iter()
            .flatten()
            .map(|q| q.sq_doorbell_writes())
            .sum()
    }

    /// The calling thread's home queue pair on `device`.
    fn pick_queue(&self, device: usize) -> &BamQueuePair {
        let qs = &self.queues[device];
        &qs[home_index() % qs.len()]
    }

    fn check_line(&self, line: u64) -> Result<(), BamError> {
        if line >= self.num_lines {
            return Err(BamError::IndexOutOfBounds {
                index: line,
                len: self.num_lines,
            });
        }
        Ok(())
    }

    /// Routes a read of `line`: the device and device-local LBA (round-robin
    /// across replicas) and the thread's home queue pair on that device.
    fn route_read(&self, line: u64) -> (usize, u64, &BamQueuePair) {
        let logical_lba = line * u64::from(self.blocks_per_line());
        let rr = self.rr_device.fetch_add(1, Ordering::Relaxed) as usize;
        let (device, lba) = self.array.locate_read(logical_lba, rr);
        (device, lba, self.pick_queue(device))
    }

    /// Accounts one successfully completed command: the sim-hook submit
    /// event, then, for a write, the request counter. Reads are counted by
    /// [`IoStack::await_staged`], once per batch. So when a call returns,
    /// the hook's event stream and the request counters agree 1:1 (failed
    /// commands appear in neither).
    fn completed(&self, device: usize, qp: &BamQueuePair, write: bool) {
        if self.sim_hook_installed.load(Ordering::Acquire) {
            if let Some(hook) = self
                .sim_hook
                .read()
                .expect("sim hook lock poisoned")
                .as_ref()
            {
                hook.on_submit(&IoEvent {
                    device: device as u32,
                    queue: qp.queue_id(),
                    write,
                    bytes: self.line_bytes,
                });
            }
        }
        if write {
            self.metrics.record_write_request(self.line_bytes);
        }
    }

    /// Reads cache line `line` from storage into GPU memory at `dst`: a
    /// one-request [`IoStack::read_lines`].
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] or a storage failure.
    pub fn read_line(&self, line: u64, dst: DevAddr) -> Result<(), BamError> {
        let mut outcome = [Ok(())];
        self.read_lines(&[(line, dst)], &mut outcome);
        let [outcome] = outcome;
        outcome
    }

    /// Reads every `(line, dst)` of `requests` with the commands overlapped:
    /// they are routed and staged in slice order (round-robin across devices,
    /// as one request after another would be, each to the thread's home
    /// queue pair on its device), each queue's doorbell is rung once, and
    /// only then are the completions awaited, in order. Each request's result lands in the matching element of
    /// `outcomes`; a failed command does not fail the others, and none is left
    /// in flight on return.
    ///
    /// Deadlock rule: a thread holding un-waited submissions never blocks on
    /// queue credit — their credits, and everything queued behind them in a
    /// completion ring, are what other threads wait for. When a queue has no
    /// credit to try-take, the commands staged so far are rung and awaited
    /// first, and only then does the thread block.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn read_lines(&self, requests: &[(u64, DevAddr)], outcomes: &mut [Result<(), BamError>]) {
        assert_eq!(requests.len(), outcomes.len(), "one outcome per request");
        let mut staged: FixedVec<StagedRead<'_>, MAX_BATCH> = FixedVec::new();
        for (index, &(line, dst)) in requests.iter().enumerate() {
            if let Err(e) = self.check_line(line) {
                outcomes[index] = Err(e);
                continue;
            }
            let (device, lba, qp) = self.route_read(line);
            let cmd = NvmeCommand::read(0, lba, self.blocks_per_line(), dst);
            let submission = qp.try_stage(cmd).unwrap_or_else(|| {
                self.await_staged(&mut staged, outcomes);
                qp.submit(cmd)
            });
            staged.push(StagedRead {
                index,
                qp,
                submission,
                device,
            });
            if staged.is_full() {
                self.await_staged(&mut staged, outcomes);
            }
        }
        self.await_staged(&mut staged, outcomes);
    }

    /// Rings each queue once for everything staged on it, then waits for the
    /// staged reads in staging order, records their outcomes and counts the
    /// successful ones.
    fn await_staged(
        &self,
        staged: &mut FixedVec<StagedRead<'_>, MAX_BATCH>,
        outcomes: &mut [Result<(), BamError>],
    ) {
        // Newest first: ringing a queue's newest submission sweeps its older
        // ones, whose own `ring` then finds the mark already clear.
        for read in staged.iter().rev() {
            read.qp.ring(&read.submission);
        }
        let mut reads = 0;
        for read in staged.drain() {
            outcomes[read.index] = read.qp.wait(read.submission).map(|_| {
                self.completed(read.device, read.qp, false);
                reads += 1;
            });
        }
        self.metrics
            .record_read_requests(reads, reads * self.line_bytes);
    }

    /// Writes cache line `line` from GPU memory at `src` back to storage.
    ///
    /// Under replication every replica is updated so subsequent reads from
    /// any device observe the write.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] or a storage failure.
    pub fn write_line(&self, line: u64, src: DevAddr) -> Result<(), BamError> {
        self.check_line(line)?;
        let logical_lba = line * u64::from(self.blocks_per_line());
        for (device, lba) in self.array.locate_write(logical_lba) {
            let qp = self.pick_queue(device);
            qp.submit_and_wait(NvmeCommand::write(0, lba, self.blocks_per_line(), src))?;
            self.completed(device, qp, true);
        }
        Ok(())
    }

    /// The cache-miss retry loop, entered with the outcome of the line's
    /// command in [`IoStack::read_lines`]: a transient device failure is
    /// retried on its own with [`IoStack::read_line`] after a backoff, up to
    /// the configured budget.
    fn fetch_with_retry(
        &self,
        line: u64,
        dst: DevAddr,
        first_attempt: Result<(), BamError>,
    ) -> Result<(), BamError> {
        let mut outcome = first_attempt;
        let mut attempt = 0u32;
        // Only transient device failures are worth retrying; config and
        // bounds errors are deterministic.
        while matches!(outcome, Err(BamError::Storage(_))) && attempt < self.fetch_retries {
            attempt += 1;
            self.metrics.record_retry();
            if self.fetch_retry_base_us > 0 {
                let backoff = retry_backoff_us(self.fetch_retry_base_us, attempt);
                std::thread::sleep(std::time::Duration::from_micros(backoff));
            }
            outcome = self.read_line(line, dst);
        }
        outcome
    }
}

impl CacheBacking for IoStack {
    fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    fn num_lines(&self) -> u64 {
        self.num_lines
    }

    fn fetch_lines(&self, requests: &[(u64, DevAddr)], outcomes: &mut [Result<(), BamError>]) {
        self.read_lines(requests, outcomes);
        // A failed command is retried on its own.
        for (&(line, dst), outcome) in requests.iter().zip(outcomes) {
            let first_attempt = std::mem::replace(outcome, Ok(()));
            *outcome = self.fetch_with_retry(line, dst, first_attempt);
        }
    }

    fn writeback_line(&self, line: u64, src: DevAddr) -> Result<(), BamError> {
        self.write_line(line, src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::fetch_one;
    use bam_mem::{BumpAllocator, ByteRegion};
    use bam_nvme_sim::{DataLayout, SsdSpec};

    fn build(
        num_ssds: usize,
        layout: DataLayout,
    ) -> (Arc<ByteRegion>, BumpAllocator, Arc<SsdArray>, IoStack) {
        build_with_queues(num_ssds, layout, 2)
    }

    fn build_with_queues(
        num_ssds: usize,
        layout: DataLayout,
        queues_per_device: usize,
    ) -> (Arc<ByteRegion>, BumpAllocator, Arc<SsdArray>, IoStack) {
        let region = Arc::new(ByteRegion::new(32 << 20));
        let alloc = BumpAllocator::new(region.len() as u64);
        let array = SsdArray::new(
            SsdSpec::intel_optane_p5800x(),
            num_ssds,
            region.clone(),
            8 << 20,
            layout,
        );
        let array = Arc::new(array);
        let raw_queues = array.create_queues(&alloc, queues_per_device, 32).unwrap();
        let queues: Vec<Vec<Arc<BamQueuePair>>> = raw_queues
            .into_iter()
            .map(|per_dev| {
                per_dev
                    .into_iter()
                    .map(|q| Arc::new(BamQueuePair::new(q)))
                    .collect()
            })
            .collect();
        let metrics = Arc::new(BamMetrics::new());
        let stack = IoStack::new(array.clone(), queues, 1024, 1024, metrics);
        (region, alloc, array, stack)
    }

    #[test]
    fn read_line_round_trips_replicated_data() {
        let (region, alloc, array, stack) = build(3, DataLayout::Replicated);
        let mut payload = vec![0u8; 1024];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = (i % 255) as u8;
        }
        array.preload(5 * 1024, &payload).unwrap();
        // Several reads hit different devices via round-robin; all must agree.
        for _ in 0..6 {
            let dst = alloc.alloc(1024, 512).unwrap();
            stack.read_line(5, dst).unwrap();
            let mut out = vec![0u8; 1024];
            region.read_bytes(dst, &mut out);
            assert_eq!(out, payload);
        }
        // Every device served at least one of the six requests.
        assert!(array.stats().iter().all(|s| s.read_commands >= 1));
    }

    #[test]
    fn write_line_updates_every_replica() {
        let (region, alloc, array, stack) = build(2, DataLayout::Replicated);
        let src = alloc.alloc(1024, 512).unwrap();
        region.write_bytes(src, &[0xBEu8; 1024]);
        stack.write_line(9, src).unwrap();
        for d in array.iter() {
            let mut out = vec![0u8; 1024];
            d.media().read_bytes(9 * 1024, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == 0xBE));
        }
    }

    #[test]
    fn striped_layout_round_trips() {
        let (region, alloc, _array, stack) = build(4, DataLayout::Striped { chunk_blocks: 2 });
        let src = alloc.alloc(1024, 512).unwrap();
        region.write_bytes(src, &[0x42u8; 1024]);
        stack.write_line(7, src).unwrap();
        let dst = alloc.alloc(1024, 512).unwrap();
        stack.read_line(7, dst).unwrap();
        let mut out = vec![0u8; 1024];
        region.read_bytes(dst, &mut out);
        assert!(out.iter().all(|&b| b == 0x42));
    }

    #[test]
    fn out_of_range_line_rejected() {
        let (_r, alloc, _a, stack) = build(1, DataLayout::Replicated);
        let dst = alloc.alloc(1024, 512).unwrap();
        assert!(matches!(
            stack.read_line(1024, dst),
            Err(BamError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            stack.write_line(2048, dst),
            Err(BamError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn submissions_and_doorbells_are_counted() {
        let (_r, alloc, _a, stack) = build(2, DataLayout::Replicated);
        let dst = alloc.alloc(1024, 512).unwrap();
        for line in 0..10 {
            stack.read_line(line, dst).unwrap();
        }
        assert_eq!(stack.total_submissions(), 10);
        assert!(stack.total_doorbell_writes() <= 10);
        assert!(stack.total_doorbell_writes() >= 1);
    }

    #[test]
    fn one_threads_batch_on_one_queue_rings_the_doorbell_once() {
        let (region, alloc, array, stack) = build_with_queues(1, DataLayout::Replicated, 4);
        for line in 0..8u64 {
            array.preload(line * 1024, &[line as u8 + 1; 1024]).unwrap();
        }
        let requests: Vec<(u64, DevAddr)> = (0..8)
            .map(|line| (line, alloc.alloc(1024, 512).unwrap()))
            .collect();
        let mut outcomes: Vec<Result<(), BamError>> = requests.iter().map(|_| Ok(())).collect();
        stack.read_lines(&requests, &mut outcomes);
        assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
        for &(line, dst) in &requests {
            let mut out = vec![0u8; 1024];
            region.read_bytes(dst, &mut out);
            assert!(out.iter().all(|&b| b == line as u8 + 1), "line {line}");
        }
        assert_eq!(stack.total_submissions(), 8);
        // Of the four pairs, the thread's home pair took the whole batch.
        let busy: Vec<u64> = stack.queues[0]
            .iter()
            .map(|q| q.submissions())
            .filter(|&n| n > 0)
            .collect();
        assert_eq!(busy, [8], "one thread, one queue pair");
        assert_eq!(stack.total_doorbell_writes(), 1, "one batch, one doorbell");
        assert_eq!(stack.metrics.snapshot().read_requests, 8);
        // The waiter runs the device, so it observes every ring exactly once
        // and executes exactly the commands the stack submitted.
        let device = || array.device(0).stats();
        assert_eq!(
            device().doorbell_observations,
            stack.total_doorbell_writes()
        );
        assert_eq!(device().read_commands, stack.total_submissions());

        // A line out of range fails alone; the rest of its batch is read.
        let mut outcomes = vec![Ok(()), Ok(()), Ok(())];
        stack.read_lines(
            &[requests[0], (1 << 40, requests[1].1), requests[2]],
            &mut outcomes,
        );
        assert!(matches!(
            outcomes.as_slice(),
            [Ok(()), Err(BamError::IndexOutOfBounds { .. }), Ok(())]
        ));
        assert_eq!(stack.total_doorbell_writes(), 2);
        assert_eq!(
            device().doorbell_observations,
            stack.total_doorbell_writes()
        );
        assert_eq!(device().read_commands, stack.total_submissions());
    }

    #[test]
    fn transient_fetch_failures_are_retried_with_backoff() {
        use std::sync::atomic::AtomicU32;

        let (region, alloc, array, stack) = build(1, DataLayout::Replicated);
        let stack = stack.with_fetch_retry(3, 1);
        array.preload(4 * 1024, &[0x77u8; 1024]).unwrap();
        // Fail the first two commands, then heal.
        let strikes = Arc::new(AtomicU32::new(2));
        let strikes_in_injector = strikes.clone();
        array
            .device(0)
            .controller()
            .set_fault_injector(Some(Arc::new(move |_cmd: &NvmeCommand| {
                (strikes_in_injector
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| s.checked_sub(1))
                    .is_ok())
                .then_some(bam_nvme_sim::NvmeStatus::InternalError)
            })));
        let dst = alloc.alloc(1024, 512).unwrap();
        fetch_one(&stack, 4, dst).unwrap();
        let mut out = vec![0u8; 1024];
        region.read_bytes(dst, &mut out);
        assert!(out.iter().all(|&b| b == 0x77));
        assert_eq!(stack.metrics.snapshot().storage_retries, 2);

        // With the budget exhausted the typed error still surfaces.
        strikes.store(10, Ordering::Release);
        assert!(matches!(
            fetch_one(&stack, 4, dst),
            Err(BamError::Storage(_))
        ));
        assert_eq!(stack.metrics.snapshot().storage_retries, 2 + 3);
    }

    #[test]
    fn retry_backoff_saturates_instead_of_overflowing_the_shift() {
        assert_eq!(retry_backoff_us(100, 1), 100);
        assert_eq!(retry_backoff_us(100, 2), 200);
        assert_eq!(retry_backoff_us(100, 5), 1600);
        // Past the cap the exponential flattens out.
        assert_eq!(retry_backoff_us(100, 8), MAX_FETCH_BACKOFF_US);
        // Shift amounts that would overflow (attempt >= 65 panicked in debug
        // builds before) saturate at the cap instead.
        assert_eq!(retry_backoff_us(1, 65), MAX_FETCH_BACKOFF_US);
        assert_eq!(retry_backoff_us(u64::MAX, 200), MAX_FETCH_BACKOFF_US);
    }
}

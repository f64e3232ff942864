//! System construction: wires GPU memory, the SSD array, the BaM queues, and
//! the software cache together.
//!
//! [`BamSystem::new`] performs everything the prototype's initialization does
//! (§3.5, §4.1): it allocates the cache, queue rings, and I/O buffers out of
//! GPU memory once and creates and registers the NVMe queue pairs (the
//! simulated SSD controllers need no starting: the threads that wait for
//! their completions run them). Applications then carve storage-backed
//! [`BamArray`]s out of the logical namespace and launch kernels against
//! them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use bam_gpu_sim::{GpuMemory, GpuSpec};
use bam_mem::{ByteRegion, DevAddr, Pod};
use bam_nvme_sim::{DataLayout, FaultInjector, SsdArray, StatsSnapshot};

use crate::array::BamArray;
use crate::backing::{CacheBacking, CrashBacking};
use crate::cache::BamCache;
use crate::config::BamConfig;
use crate::crash::CrashPoint;
use crate::error::BamError;
use crate::iostack::IoStack;
use crate::journal::{self, CacheJournal, RecoveryReport};
use crate::metrics::{BamMetrics, MetricsSnapshot};
use crate::queue::BamQueuePair;

/// Number of pre-allocated scratch line buffers used by uncached accesses.
const SCRATCH_BUFFERS: usize = 64;

/// A typed window onto one cache line's bytes in GPU memory, valid while the
/// line is pinned (or, uncached, while its scratch buffer is held): what
/// [`SystemInner::with_line`] and [`SystemInner::with_lines`] hand their
/// callers. `Copy`, and reading through it never allocates.
#[derive(Clone, Copy)]
pub(crate) struct LineView<'a> {
    region: &'a ByteRegion,
    base: DevAddr,
}

impl LineView<'_> {
    /// Decodes the `T` at byte `offset` within the line.
    #[inline]
    pub(crate) fn read<T: Pod>(&self, offset: u64) -> T {
        self.region.read_pod(self.base + offset)
    }
}

/// Shared state behind a [`BamSystem`] and every [`BamArray`] created from it.
pub(crate) struct SystemInner {
    pub(crate) config: BamConfig,
    /// The GPU memory region, held once for the element paths.
    region: Arc<ByteRegion>,
    pub(crate) array: Arc<SsdArray>,
    pub(crate) iostack: Arc<IoStack>,
    pub(crate) cache: Option<Arc<BamCache>>,
    pub(crate) metrics: Arc<BamMetrics>,
    pub(crate) line_bytes: u64,
    pub(crate) coalescing: bool,
    /// The cache's write-ahead journal (when `config.use_journal`).
    journal: Option<Arc<CacheJournal>>,
    /// The injected crash point (when built via `with_crash_point`).
    crash: Option<Arc<CrashPoint>>,
    scratch: Vec<Mutex<DevAddr>>,
    scratch_rr: AtomicU64,
    dataset_cursor: AtomicU64,
    logical_capacity: u64,
}

impl std::fmt::Debug for SystemInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemInner")
            .field("line_bytes", &self.line_bytes)
            .field("cached", &self.cache.is_some())
            .field("ssds", &self.array.len())
            .finish()
    }
}

impl SystemInner {
    /// Runs `f` with a view of the given cache line's bytes.
    ///
    /// With the cache enabled, the line is acquired (pinned) for the duration
    /// of `f`; in uncached mode this is a one-request
    /// [`SystemInner::with_lines`].
    #[inline]
    pub(crate) fn with_line<R>(
        &self,
        line: u64,
        mut f: impl FnMut(LineView<'_>) -> R,
    ) -> Result<R, BamError> {
        let Some(cache) = &self.cache else {
            let mut out = None;
            self.with_lines([(line, ())], |(), view| out = Some(f(view)))?;
            return Ok(out.expect("one request, one visit"));
        };
        let guard = cache.acquire(line)?;
        Ok(f(LineView {
            region: &self.region,
            base: guard.addr(),
        }))
    }

    /// Calls `visit(tag, view)` once for each `(line, tag)` of `requests` and
    /// returns the number of lines fetched from storage.
    ///
    /// With the cache enabled the misses among them are fetched together
    /// ([`BamCache::acquire_each`]): visits come in no particular order, and
    /// `tag` says which request one serves. Uncached, nothing overlaps: each
    /// request in turn is read into one scratch buffer and visited there
    /// (every access is a storage request — the Fig 8 "no cache"
    /// configuration).
    pub(crate) fn with_lines<R: Copy>(
        &self,
        requests: impl IntoIterator<Item = (u64, R)>,
        mut visit: impl FnMut(R, LineView<'_>),
    ) -> Result<u64, BamError> {
        let region = &*self.region;
        if let Some(cache) = &self.cache {
            return cache.acquire_each(requests, |tag, base| visit(tag, LineView { region, base }));
        }
        let (_slot_guard, base) = self.lock_scratch();
        let mut fetched = 0;
        for (line, tag) in requests {
            self.iostack.read_line(line, base)?;
            visit(tag, LineView { region, base });
            fetched += 1;
        }
        Ok(fetched)
    }

    /// Writes an arbitrary byte range within one line.
    pub(crate) fn write_line_range(
        &self,
        line: u64,
        offset: u64,
        bytes: &[u8],
    ) -> Result<(), BamError> {
        assert!(
            offset + bytes.len() as u64 <= self.line_bytes,
            "write crosses a cache-line boundary"
        );
        let region = &*self.region;
        if let Some(cache) = &self.cache {
            let guard = cache.acquire(line)?;
            let addr = guard.addr();
            // Write-ahead: the journal append is the acknowledgement point
            // (if it crashes, the write was never acknowledged and the
            // cached line is untouched), and append + apply run under the
            // line's write lock so a racing flush can never seal a commit
            // covering bytes that are not yet in the line image.
            cache.journalled_write(line, offset, bytes, || {
                region.write_bytes(addr + offset, bytes);
            })?;
            drop(guard);
            Ok(())
        } else {
            let (_slot_guard, addr) = self.lock_scratch();
            // A full-line write needs no read-modify-write.
            if !(offset == 0 && bytes.len() as u64 == self.line_bytes) {
                self.iostack.read_line(line, addr)?;
            }
            region.write_bytes(addr + offset, bytes);
            self.iostack.write_line(line, addr)
        }
    }

    /// Preloads raw bytes onto the SSD media at a logical byte offset.
    pub(crate) fn preload_bytes(&self, offset: u64, bytes: &[u8]) -> Result<(), BamError> {
        self.array.preload(offset, bytes).map_err(BamError::from)
    }

    fn lock_scratch(&self) -> (parking_lot::MutexGuard<'_, DevAddr>, DevAddr) {
        let idx = self.scratch_rr.fetch_add(1, Ordering::Relaxed) as usize % self.scratch.len();
        let guard = self.scratch[idx].lock();
        let addr = *guard;
        (guard, addr)
    }
}

/// A fully wired BaM system instance.
///
/// # Examples
///
/// ```
/// use bam_core::{BamConfig, BamSystem};
///
/// # fn main() -> Result<(), bam_core::BamError> {
/// let system = BamSystem::new(BamConfig::test_scale())?;
/// let array = system.create_array::<u64>(1024)?;
/// array.preload(&(0..1024).collect::<Vec<u64>>())?;
/// assert_eq!(array.read(42)?, 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BamSystem {
    inner: Arc<SystemInner>,
}

impl BamSystem {
    /// Builds a system from `config`: allocates GPU memory, creates the SSD
    /// array and its queue pairs, and builds the software cache.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::InvalidConfig`] for inconsistent configurations or
    /// [`BamError::OutOfDeviceMemory`] if the cache/queues/buffers do not fit
    /// in the configured GPU memory.
    pub fn new(config: BamConfig) -> Result<Self, BamError> {
        Self::build(config, None)
    }

    /// Builds a system whose durable steps (journal appends and media
    /// write-backs) are subject to `crash`: arm it to kill the stack at any
    /// step, then call [`BamSystem::recover_from_journal`] to model the
    /// reboot-and-replay. With the crash point disarmed the system behaves
    /// exactly like [`BamSystem::new`] while counting durable steps.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BamSystem::new`].
    pub fn with_crash_point(config: BamConfig, crash: Arc<CrashPoint>) -> Result<Self, BamError> {
        Self::build(config, Some(crash))
    }

    fn build(config: BamConfig, crash: Option<Arc<CrashPoint>>) -> Result<Self, BamError> {
        config.validate()?;
        let gpu = GpuMemory::new(GpuSpec::a100_80gb(), config.gpu_memory_bytes as usize);
        let ssd_array = Arc::new(SsdArray::new(
            config.ssd_spec.clone(),
            config.num_ssds,
            gpu.region(),
            config.ssd_capacity_bytes,
            config.layout,
        ));

        // Queue pairs live in GPU memory (§4.1).
        let raw_queues = ssd_array.create_queues(
            gpu.allocator(),
            config.queue_pairs_per_ssd as usize,
            config.queue_depth,
        )?;
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
        let logical_capacity = match config.layout {
            DataLayout::Replicated => config.ssd_capacity_bytes,
            DataLayout::Striped { .. } => config.ssd_capacity_bytes * config.num_ssds as u64,
        };
        let num_lines = logical_capacity / config.cache_line_bytes;
        let iostack = Arc::new(
            IoStack::new(
                ssd_array.clone(),
                queues,
                config.cache_line_bytes,
                num_lines,
                metrics.clone(),
            )
            .with_fetch_retry(config.fetch_retries, config.fetch_retry_base_us),
        );

        let journal = config.use_journal.then(|| {
            Arc::new(match &crash {
                Some(cp) => CacheJournal::with_crash_point(cp.clone()),
                None => CacheJournal::new(),
            })
        });
        let cache = if config.use_cache {
            let slots = config.cache_slots();
            let slots_base = gpu.alloc(slots * config.cache_line_bytes, config.cache_line_bytes)?;
            // With a crash point, the cache sees a backing store whose
            // write-backs can be killed mid-flight; recovery bypasses the
            // wrapper and replays against the I/O stack directly.
            let backing: Arc<dyn CacheBacking> = match &crash {
                Some(cp) => Arc::new(CrashBacking::new(iostack.clone(), cp.clone())),
                None => iostack.clone(),
            };
            let mut cache = BamCache::new(backing, metrics.clone(), slots_base, slots);
            if let Some(journal) = &journal {
                cache = cache.with_journal(journal.clone());
            }
            Some(Arc::new(cache))
        } else {
            None
        };

        // Scratch line buffers for uncached accesses and flushes.
        let mut scratch = Vec::with_capacity(SCRATCH_BUFFERS);
        for _ in 0..SCRATCH_BUFFERS {
            let addr = gpu.alloc(config.cache_line_bytes, config.cache_line_bytes)?;
            scratch.push(Mutex::new(addr));
        }

        let line_bytes = config.cache_line_bytes;
        let coalescing = config.warp_coalescing;
        let region = gpu.region();
        Ok(Self {
            inner: Arc::new(SystemInner {
                config,
                region,
                array: ssd_array,
                iostack,
                cache,
                metrics,
                line_bytes,
                coalescing,
                journal,
                crash,
                scratch,
                scratch_rr: AtomicU64::new(0),
                dataset_cursor: AtomicU64::new(0),
                logical_capacity,
            }),
        })
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &BamConfig {
        &self.inner.config
    }

    /// Maps a new storage-backed array of `len` elements of `T`.
    ///
    /// The array is placed on a fresh cache-line-aligned extent of the
    /// logical namespace, so distinct arrays never share cache lines.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::OutOfStorageCapacity`] when the namespace is
    /// exhausted, or [`BamError::InvalidConfig`] if the element size does not
    /// divide the cache line size.
    pub fn create_array<T: Pod>(&self, len: u64) -> Result<BamArray<T>, BamError> {
        if !self.inner.line_bytes.is_multiple_of(T::SIZE as u64) {
            return Err(BamError::InvalidConfig {
                reason: format!(
                    "element size {} does not divide the cache line size {}",
                    T::SIZE,
                    self.inner.line_bytes
                ),
            });
        }
        let bytes = len.checked_mul(T::SIZE as u64);
        let capacity = self.inner.logical_capacity;
        // The cursor advances only when the whole extent fits, so a rejected
        // request reserves nothing.
        let reserve = |offset: u64| {
            let bytes = bytes.filter(|&b| b <= capacity.saturating_sub(offset))?;
            offset.checked_add(bytes.checked_next_multiple_of(self.inner.line_bytes)?)
        };
        match self
            .inner
            .dataset_cursor
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, reserve)
        {
            Ok(offset) => Ok(BamArray::new(self.inner.clone(), offset, len)),
            Err(offset) => Err(BamError::OutOfStorageCapacity {
                requested: bytes.unwrap_or(u64::MAX),
                available: capacity.saturating_sub(offset),
            }),
        }
    }

    /// A snapshot of the BaM software metrics (cache and I/O counters).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Resets the software metrics (between experiment phases).
    pub fn reset_metrics(&self) {
        self.inner.metrics.reset();
    }

    /// Per-SSD controller statistics.
    pub fn ssd_stats(&self) -> Vec<StatsSnapshot> {
        self.inner.array.stats()
    }

    /// Installs (or, with `None`, removes) a [`bam_nvme_sim::SimHook`] on the
    /// I/O stack, so an event-driven simulation (`bam-sim`) can observe the
    /// command stream of a functional run: one event per command the stack
    /// completes, 1:1 with [`MetricsSnapshot::total_requests`]. The
    /// device-side view of the same stream is [`BamSystem::ssd_stats`]. The
    /// default is no hook; the functional path is unaffected either way.
    pub fn set_sim_hook(&self, hook: Option<Arc<dyn bam_nvme_sim::SimHook>>) {
        self.inner.iostack.set_sim_hook(hook);
    }

    /// Total NVMe commands submitted through the BaM queues.
    pub fn total_submissions(&self) -> u64 {
        self.inner.iostack.total_submissions()
    }

    /// Total SQ doorbell MMIO writes (a measure of doorbell coalescing).
    pub fn total_doorbell_writes(&self) -> u64 {
        self.inner.iostack.total_doorbell_writes()
    }

    /// Writes every dirty cache line back to storage. Returns the number of
    /// lines flushed (zero in uncached mode, where writes are write-through).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn flush(&self) -> Result<u64, BamError> {
        match &self.inner.cache {
            Some(cache) => cache.flush(),
            None => Ok(0),
        }
    }

    /// The cache's write-ahead journal, when `config.use_journal` is set
    /// (its [`crate::journal::CacheJournal::snapshot`] is what survives a
    /// crash and feeds [`BamSystem::recover_from_journal`]).
    pub fn journal(&self) -> Option<&Arc<CacheJournal>> {
        self.inner.journal.as_ref()
    }

    /// Installs (or, with `None`, removes) a fault injector on SSD `device`,
    /// letting tests poison specific devices through the public stack instead
    /// of rebuilding a private one. The injector sees every NVMe command the
    /// controller fetches and may force an error status.
    ///
    /// # Panics
    ///
    /// Panics if `device >= config.num_ssds`.
    pub fn set_fault_injector(&self, device: usize, injector: Option<Arc<FaultInjector>>) {
        self.inner
            .array
            .device(device)
            .controller()
            .set_fault_injector(injector);
    }

    /// Models the reboot-and-replay after a crash: resets the crash point
    /// (if any), replays `journal_bytes` against the storage array so every
    /// acknowledged write is durable and no committed write-back is applied
    /// twice, rebuilds the cache directory cold, and truncates any torn tail
    /// from the live journal so the system can keep running.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::JournalCorrupt`] for an undecodable journal, or a
    /// storage error encountered during the replay.
    pub fn recover_from_journal(&self, journal_bytes: &[u8]) -> Result<RecoveryReport, BamError> {
        if let Some(cp) = &self.inner.crash {
            cp.reset();
        }
        // Replay against the raw I/O stack: the crash wrapper models devices
        // lost with the crashed host, and the reboot is behind us.
        let region = &self.inner.region;
        let (_slot_guard, scratch) = self.inner.lock_scratch();
        let report = journal::recover(journal_bytes, self.inner.iostack.as_ref(), region, scratch)?;
        if let Some(cache) = &self.inner.cache {
            cache.reset_after_crash();
        }
        if let Some(journal) = &self.inner.journal {
            journal.truncate_torn_tail()?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_builds_with_paper_shaped_config() {
        let sys = BamSystem::new(BamConfig::test_scale()).unwrap();
        assert_eq!(sys.config().num_ssds, 2);
        assert_eq!(sys.ssd_stats().len(), 2);
        assert_eq!(sys.metrics(), MetricsSnapshot::default());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = BamConfig::test_scale();
        cfg.cache_line_bytes = 100;
        assert!(matches!(
            BamSystem::new(cfg),
            Err(BamError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn arrays_are_line_aligned_and_disjoint() {
        let sys = BamSystem::new(BamConfig::test_scale()).unwrap();
        let a = sys.create_array::<u8>(100).unwrap();
        let b = sys.create_array::<u8>(100).unwrap();
        assert_eq!(a.base_offset() % 512, 0);
        assert_eq!(b.base_offset() % 512, 0);
        assert!(b.base_offset() >= a.base_offset() + 512);
    }

    #[test]
    fn storage_capacity_is_enforced() {
        let mut cfg = BamConfig::test_scale();
        cfg.ssd_capacity_bytes = 1 << 20;
        let sys = BamSystem::new(cfg).unwrap();
        // 1 MiB namespace cannot hold a 2 MiB array.
        assert!(matches!(
            sys.create_array::<u64>(256 * 1024),
            Err(BamError::OutOfStorageCapacity {
                requested: 2097152,
                available: 1048576
            })
        ));
        // The rejection reserved nothing: the whole namespace is still free.
        let a = sys.create_array::<u64>(128 * 1024).unwrap();
        assert_eq!(a.base_offset(), 0);
        assert!(matches!(
            sys.create_array::<u64>(16),
            Err(BamError::OutOfStorageCapacity {
                requested: 128,
                available: 0
            })
        ));
    }

    #[test]
    fn array_sizes_that_overflow_are_rejected_not_wrapped() {
        let sys = BamSystem::new(BamConfig::test_scale()).unwrap();
        let a = sys.create_array::<u64>(64).unwrap();
        for len in [1u64 << 61, u64::MAX / 8 + 1, u64::MAX] {
            assert!(
                matches!(
                    sys.create_array::<u64>(len),
                    Err(BamError::OutOfStorageCapacity {
                        requested: u64::MAX,
                        ..
                    })
                ),
                "len {len}"
            );
        }
        // A size that fits in u64 but not the namespace is rejected too.
        assert!(matches!(
            sys.create_array::<u8>(u64::MAX),
            Err(BamError::OutOfStorageCapacity {
                requested: u64::MAX,
                ..
            })
        ));
        // Nothing was reserved: the next array follows the first.
        let b = sys.create_array::<u64>(64).unwrap();
        assert_eq!(b.base_offset(), a.base_offset() + 512);
    }

    #[test]
    fn flush_moves_dirty_data_to_media() {
        let sys = BamSystem::new(BamConfig::test_scale()).unwrap();
        let arr = sys.create_array::<u64>(64).unwrap();
        arr.preload(&vec![0u64; 64]).unwrap();
        arr.write(3, 77).unwrap();
        let flushed = sys.flush().unwrap();
        assert!(flushed >= 1);
        // After a flush the data is on every replica.
        let m = sys.metrics();
        assert!(m.write_requests >= 1);
    }

    #[test]
    fn element_size_must_divide_line_size() {
        let sys = BamSystem::new(BamConfig::test_scale()).unwrap();
        // u8/u16/u32/u64/f32/f64 all divide 512; everything supported works.
        assert!(sys.create_array::<u8>(8).is_ok());
        assert!(sys.create_array::<f64>(8).is_ok());
    }

    #[test]
    fn journalled_system_survives_a_crash_mid_flush() {
        let cp = Arc::new(CrashPoint::new());
        let sys = BamSystem::with_crash_point(BamConfig::test_scale(), cp.clone()).unwrap();
        let arr = sys.create_array::<u64>(512).unwrap();
        arr.preload(&vec![0u64; 512]).unwrap();
        arr.write(3, 77).unwrap();
        arr.write(200, 88).unwrap();
        let m = sys.metrics();
        assert!(m.journal_appends >= 2, "writes must be journalled");

        // Dry-count the steps a flush takes, then rerun with the crash armed
        // at the media write (journal intent lands, media write does not).
        let steps_before = cp.steps_taken();
        cp.arm(steps_before + 1, 8); // step 0: intent append, step 1: media write
        assert_eq!(sys.flush().unwrap_err(), BamError::Crashed);

        // Reboot + replay: both acknowledged writes must reach the media.
        let journal = sys.journal().unwrap().snapshot();
        let report = sys.recover_from_journal(&journal).unwrap();
        assert_eq!(report.replayed_lines, 2);
        assert_eq!(arr.read(3).unwrap(), 77);
        assert_eq!(arr.read(200).unwrap(), 88);
        // And the system keeps serving writes afterwards.
        arr.write(5, 99).unwrap();
        sys.flush().unwrap();
        assert_eq!(arr.read(5).unwrap(), 99);
    }

    #[test]
    fn committed_flush_is_not_replayed() {
        let cp = Arc::new(CrashPoint::new());
        let sys = BamSystem::with_crash_point(BamConfig::test_scale(), cp).unwrap();
        let arr = sys.create_array::<u64>(64).unwrap();
        arr.preload(&vec![0u64; 64]).unwrap();
        arr.write(3, 42).unwrap();
        sys.flush().unwrap();
        let journal = sys.journal().unwrap().snapshot();
        let report = sys.recover_from_journal(&journal).unwrap();
        assert_eq!(
            report.replayed_lines, 0,
            "a committed write-back must not be double-applied"
        );
        assert_eq!(arr.read(3).unwrap(), 42);
    }

    #[test]
    fn fault_injector_reaches_devices_through_the_public_stack() {
        let sys = BamSystem::new(BamConfig::test_scale()).unwrap();
        for d in 0..sys.config().num_ssds {
            sys.set_fault_injector(
                d,
                Some(Arc::new(|_cmd: &bam_nvme_sim::NvmeCommand| {
                    Some(bam_nvme_sim::NvmeStatus::InternalError)
                })),
            );
        }
        let arr = sys.create_array::<u64>(4096).unwrap();
        assert!(matches!(arr.read(0), Err(BamError::Storage(_))));
        for d in 0..sys.config().num_ssds {
            sys.set_fault_injector(d, None);
        }
        arr.preload(&(0..4096u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(arr.read(17).unwrap(), 17);
    }

    #[test]
    fn recovery_through_the_system_replays_each_written_line() {
        let cp = Arc::new(CrashPoint::new());
        let sys = BamSystem::with_crash_point(BamConfig::test_scale(), cp).unwrap();
        let arr = sys.create_array::<u64>(512).unwrap();
        arr.preload(&vec![0u64; 512]).unwrap();
        arr.write(3, 77).unwrap();
        arr.write(200, 88).unwrap();
        let journal = sys.journal().unwrap().snapshot();
        let report = sys.recover_from_journal(&journal).unwrap();
        assert_eq!(report.replayed_lines, 2);
        assert!(report
            .to_string()
            .contains("replayed 2 writes across 2 lines"));
    }

    #[test]
    fn doorbell_and_submission_counters_exposed() {
        let sys = BamSystem::new(BamConfig::test_scale()).unwrap();
        let arr = sys.create_array::<u64>(1024).unwrap();
        arr.preload(&(0..1024u64).collect::<Vec<_>>()).unwrap();
        for i in (0..1024u64).step_by(64) {
            arr.read(i).unwrap();
        }
        assert!(sys.total_submissions() > 0);
        assert!(sys.total_doorbell_writes() > 0);
        assert!(sys.total_doorbell_writes() <= sys.total_submissions());
    }
}

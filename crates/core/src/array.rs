//! The `bam::array<T>` programming abstraction (paper §3.5).
//!
//! `BamArray<T>` gives GPU kernels an array interface over data that lives on
//! storage: element reads consult the software cache, coalesce accesses
//! across the lanes of a warp, and issue storage I/O only on misses; element
//! writes go through the write-back cache. The warp-level entry points
//! ([`BamArray::gather_warp`], one element per lane, and
//! [`BamArray::read_runs_warp`], one run per lane) mirror the overloaded
//! subscript operator of the CUDA implementation, which works at warp scope:
//! they coalesce across lanes and keep all of the warp's misses in flight at
//! once instead of paying for them one after another.

use std::sync::Arc;

use bam_gpu_sim::exec::WarpCtx;
use bam_gpu_sim::warp::{groups, match_any, LaneMask, WARP_SIZE};
use bam_mem::{Pod, MAX_POD_BYTES};

use crate::error::BamError;
use crate::system::SystemInner;

/// The part of a run of consecutive elements that lies in one cache line.
#[derive(Clone, Copy)]
struct RunPiece {
    /// Index of the piece's first element in the output buffer.
    out: usize,
    /// Byte offset of that element within the line.
    offset: u64,
    /// Elements of the run in this line.
    elems: usize,
}

/// A storage-backed array of `T`, accessed on demand by GPU threads.
///
/// Created with [`crate::BamSystem::create_array`]; cloning is cheap and
/// clones refer to the same storage.
#[derive(Clone)]
pub struct BamArray<T: Pod> {
    inner: Arc<SystemInner>,
    /// Byte offset of element 0 within the logical storage namespace.
    base: u64,
    len: u64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Pod> std::fmt::Debug for BamArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BamArray")
            .field("base", &self.base)
            .field("len", &self.len)
            .field("elem_bytes", &T::SIZE)
            .finish()
    }
}

impl<T: Pod> BamArray<T> {
    pub(crate) fn new(inner: Arc<SystemInner>, base: u64, len: u64) -> Self {
        Self {
            inner,
            base,
            len,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte offset of element 0 within the storage namespace (diagnostics).
    pub fn base_offset(&self) -> u64 {
        self.base
    }

    fn check(&self, idx: u64) -> Result<(), BamError> {
        if idx >= self.len {
            return Err(BamError::IndexOutOfBounds {
                index: idx,
                len: self.len,
            });
        }
        Ok(())
    }

    #[inline]
    fn line_of(&self, idx: u64) -> (u64, u64) {
        let byte = self.base + idx * T::SIZE as u64;
        (byte / self.inner.line_bytes, byte % self.inner.line_bytes)
    }

    /// Preloads the array contents onto the SSDs (host-side initialization,
    /// the equivalent of writing the dataset file before running).
    ///
    /// # Errors
    ///
    /// Propagates media errors.
    pub fn preload(&self, values: &[T]) -> Result<(), BamError> {
        assert!(values.len() as u64 <= self.len, "preload larger than array");
        let mut bytes = vec![0u8; values.len() * T::SIZE];
        for (i, v) in values.iter().enumerate() {
            v.to_bytes(&mut bytes[i * T::SIZE..(i + 1) * T::SIZE]);
        }
        self.inner.preload_bytes(self.base, &bytes)
    }

    /// Bounds-checks the run `[start, start + count)`, `count > 0`, without
    /// computing its end (which can overflow).
    fn check_run(&self, start: u64, count: u64) -> Result<(), BamError> {
        self.check(start)?;
        if count > self.len - start {
            return Err(BamError::IndexOutOfBounds {
                index: start.saturating_add(count - 1),
                len: self.len,
            });
        }
        Ok(())
    }

    /// Splits the run `[start, start + count)` at cache-line boundaries,
    /// yielding `(line, piece)` in order; the run's elements land in the
    /// output buffer from index `out` on.
    fn run_pieces(
        &self,
        start: u64,
        count: u64,
        out: usize,
    ) -> impl Iterator<Item = (u64, RunPiece)> + '_ {
        let end = start + count;
        let (mut idx, mut out) = (start, out);
        std::iter::from_fn(move || {
            if idx >= end {
                return None;
            }
            let (line, offset) = self.line_of(idx);
            let elems = ((self.inner.line_bytes - offset) / T::SIZE as u64).min(end - idx);
            let piece = RunPiece {
                out,
                offset,
                elems: elems as usize,
            };
            idx += elems;
            out += elems as usize;
            Some((line, piece))
        })
    }

    /// Reads `pieces` into `out`, each line's reference reused for every
    /// element it covers and the misses among the lines fetched together.
    fn read_pieces(
        &self,
        pieces: impl Iterator<Item = (u64, RunPiece)>,
        out: &mut [T],
    ) -> Result<(), BamError> {
        let mut reuses = 0;
        let read = self.inner.with_lines(pieces, |piece, view| {
            let dst = &mut out[piece.out..piece.out + piece.elems];
            for (e, value) in dst.iter_mut().enumerate() {
                *value = view.read(piece.offset + (e * T::SIZE) as u64);
            }
            reuses += u64::from(piece.elems > 1);
        });
        self.inner.metrics.record_reuses(reuses);
        read.map(drop)
    }

    /// An output buffer of `len` elements for [`BamArray::read_pieces`].
    fn zeroed(len: u64) -> Vec<T> {
        vec![T::from_bytes(&[0u8; MAX_POD_BYTES][..T::SIZE]); len as usize]
    }

    /// Reads element `idx` from a single GPU thread (no warp coalescing).
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] or a storage failure.
    pub fn read(&self, idx: u64) -> Result<T, BamError> {
        self.check(idx)?;
        self.inner.metrics.record_requested_bytes(T::SIZE as u64);
        let (line, offset) = self.line_of(idx);
        self.inner.with_line(line, |view| view.read(offset))
    }

    /// Writes element `idx` from a single GPU thread. The data goes through
    /// the write-back cache (or straight to storage in uncached mode).
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] or a storage failure.
    pub fn write(&self, idx: u64, value: T) -> Result<(), BamError> {
        self.check(idx)?;
        self.inner.metrics.record_requested_bytes(T::SIZE as u64);
        let (line, offset) = self.line_of(idx);
        let mut buf = [0u8; MAX_POD_BYTES];
        value.to_bytes(&mut buf[..T::SIZE]);
        self.inner.write_line_range(line, offset, &buf[..T::SIZE])
    }

    /// Warp-coalesced gather: every active lane with `Some(index)` reads that
    /// element; lanes accessing the same cache line share a single probe and
    /// a single storage request, led by the lowest lane of each group
    /// (§3.4's `__match_any_sync` coalescer). The leaders' misses are issued
    /// together and awaited once.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered by any group leader.
    pub fn gather_warp(
        &self,
        warp: &WarpCtx,
        indices: &[Option<u64>; WARP_SIZE],
    ) -> Result<[Option<T>; WARP_SIZE], BamError> {
        let mut out: [Option<T>; WARP_SIZE] = [None; WARP_SIZE];
        // Build the per-lane cache-line keys for match_any; inactive lanes
        // and lanes with no access are excluded from the participation mask.
        // Every participating index is validated before any probe, so errors
        // do not depend on group iteration order.
        let mut keys = [u64::MAX; WARP_SIZE];
        let mut participate: LaneMask = 0;
        for (lane, _) in warp.lanes() {
            if let Some(idx) = indices[lane] {
                self.check(idx)?;
                keys[lane] = self.line_of(idx).0;
                participate |= 1 << lane;
            }
        }
        // Without coalescing every lane is a group of its own.
        let masks = if self.inner.coalescing {
            match_any(&keys, participate)
        } else {
            std::array::from_fn(|lane| participate & (1 << lane))
        };
        let lanes = u64::from(participate.count_ones());
        let leaders = groups(&masks, participate).count() as u64;
        self.inner
            .metrics
            .record_requested_bytes(T::SIZE as u64 * lanes);
        if lanes > leaders {
            self.inner.metrics.record_coalesced(lanes - leaders);
        }
        // Each leader performs the single probe on behalf of its group and
        // the line stays pinned while every member lane copies its element
        // out (broadcast via shared memory in the prototype).
        self.inner.with_lines(
            groups(&masks, participate).map(|(leader, mask)| (keys[leader], mask)),
            |mask, view| {
                for lane in (0..WARP_SIZE).filter(|lane| mask & (1 << lane) != 0) {
                    let idx = indices[lane].expect("participating lane has an index");
                    out[lane] = Some(view.read(self.line_of(idx).1));
                }
            },
        )?;
        Ok(out)
    }

    /// Reads `count` consecutive elements starting at `start`, reusing each
    /// cache-line reference for every element it covers (the "cache line
    /// reference reuse" optimization of §3.5 that Figure 8's *Optimized*
    /// configuration exploits for neighbour lists). The lines that miss are
    /// fetched together.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] or a storage failure.
    pub fn read_run(&self, start: u64, count: u64) -> Result<Vec<T>, BamError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        self.check_run(start, count)?;
        self.inner
            .metrics
            .record_requested_bytes(T::SIZE as u64 * count);
        let mut out = Self::zeroed(count);
        self.read_pieces(self.run_pieces(start, count, 0), &mut out)?;
        Ok(out)
    }

    /// Warp-scope [`BamArray::read_run`]: active lane `i` reads the run
    /// `runs[i] = Some((start, count))`, and `visit(lane, elements)` is then
    /// called for each such lane in lane order. All lanes' lines are walked
    /// in lane order through one batch, so the warp's misses overlap instead
    /// of being paid one lane after another, and the elements of every lane
    /// share one buffer. The cache is probed, and storage is read, exactly as
    /// by one `read_run` per lane.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] or a storage failure; `visit`
    /// is not called then.
    pub fn read_runs_warp(
        &self,
        warp: &WarpCtx,
        runs: &[Option<(u64, u64)>; WARP_SIZE],
        mut visit: impl FnMut(usize, &[T]),
    ) -> Result<(), BamError> {
        let lane_runs = || {
            warp.lanes()
                .filter_map(|(lane, _)| runs[lane].map(|(start, count)| (lane, start, count)))
                .filter(|&(_, _, count)| count > 0)
        };
        let mut total = 0u64;
        for (_, start, count) in lane_runs() {
            self.check_run(start, count)?;
            total += count;
        }
        self.inner
            .metrics
            .record_requested_bytes(T::SIZE as u64 * total);
        let mut elements = Self::zeroed(total);
        let mut filled = 0usize;
        let pieces = lane_runs().flat_map(|(_, start, count)| {
            let out = filled;
            filled += count as usize;
            self.run_pieces(start, count, out)
        });
        self.read_pieces(pieces, &mut elements)?;
        let mut rest = elements.as_slice();
        for (lane, _, count) in lane_runs() {
            let (run, tail) = rest.split_at(count as usize);
            visit(lane, run);
            rest = tail;
        }
        Ok(())
    }

    /// Prefetches the cache lines covering `count` elements starting at
    /// `start`, without copying any element out.
    ///
    /// This is one of the "higher-level abstractions" §3.5 anticipates being
    /// built over `bam::array`: a kernel that knows its upcoming access
    /// window can warm the cache early and overlap the storage latency with
    /// unrelated compute. Returns the number of lines this call fetched from
    /// storage (lines another thread brought in meanwhile are not counted).
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] or a storage failure. In
    /// uncached mode prefetching is a no-op and returns 0.
    pub fn prefetch(&self, start: u64, count: u64) -> Result<u64, BamError> {
        if count == 0 || self.inner.cache.is_none() {
            return Ok(0);
        }
        self.check_run(start, count)?;
        let first_line = self.line_of(start).0;
        let last_line = self.line_of(start + count - 1).0;
        // Acquire and immediately release: each line lands in a slot and
        // stays there until evicted, exactly like a touched-but-unpinned
        // line.
        self.inner
            .with_lines((first_line..=last_line).map(|line| (line, ())), |(), _| ())
    }

    /// Writes `values` to consecutive elements starting at `start`, reusing
    /// line references (used by the vectorAdd output array).
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] or a storage failure.
    pub fn write_run(&self, start: u64, values: &[T]) -> Result<(), BamError> {
        if values.is_empty() {
            return Ok(());
        }
        let count = values.len() as u64;
        self.check_run(start, count)?;
        self.inner
            .metrics
            .record_requested_bytes(T::SIZE as u64 * count);
        let mut bytes = Vec::new();
        for (line, piece) in self.run_pieces(start, count, 0) {
            bytes.resize(piece.elems * T::SIZE, 0);
            let line_values = &values[piece.out..piece.out + piece.elems];
            for (value, encoded) in line_values.iter().zip(bytes.chunks_exact_mut(T::SIZE)) {
                value.to_bytes(encoded);
            }
            self.inner.write_line_range(line, piece.offset, &bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BamConfig;
    use crate::system::BamSystem;
    use bam_gpu_sim::{GpuExecutor, GpuSpec};

    fn system() -> BamSystem {
        BamSystem::new(BamConfig::test_scale()).unwrap()
    }

    #[test]
    fn read_write_roundtrip_single_thread() {
        let sys = system();
        let arr = sys.create_array::<u64>(1000).unwrap();
        arr.preload(&(0..1000u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(arr.read(0).unwrap(), 0);
        assert_eq!(arr.read(999).unwrap(), 999);
        arr.write(500, 123_456).unwrap();
        assert_eq!(arr.read(500).unwrap(), 123_456);
        assert!(arr.read(1000).is_err());
    }

    #[test]
    fn runs_past_the_end_are_out_of_bounds_not_wrapped() {
        let sys = system();
        let arr = sys.create_array::<u64>(1000).unwrap();
        arr.preload(&(0..1000u64).collect::<Vec<_>>()).unwrap();
        let oob = |r: Result<(), BamError>| matches!(r, Err(BamError::IndexOutOfBounds { .. }));
        assert!(oob(arr.read_run(5, u64::MAX).map(drop)));
        assert!(oob(arr.prefetch(5, u64::MAX).map(drop)));
        let warp = WarpCtx {
            warp_id: 0,
            base_thread: 0,
            active: LaneMask::MAX,
        };
        let mut runs = [None; WARP_SIZE];
        runs[0] = Some((0, 4));
        runs[1] = Some((5, u64::MAX));
        let visited = arr.read_runs_warp(&warp, &runs, |_, _| panic!("visited a lane"));
        assert!(oob(visited));
        // A write run's count is a slice length, so it cannot reach
        // u64::MAX; one element past the end is the same check.
        assert!(oob(arr.write_run(999, &[1, 2])));
        // Nothing was written, and the last element is still readable.
        assert_eq!(arr.read_run(995, 5).unwrap(), vec![995, 996, 997, 998, 999]);
    }

    #[test]
    fn preload_then_gather_via_warps() {
        let sys = system();
        let arr = sys.create_array::<u32>(4096).unwrap();
        let data: Vec<u32> = (0..4096u32).map(|i| i * 3).collect();
        arr.preload(&data).unwrap();

        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 4);
        let arr_ref = &arr;
        let errors = std::sync::atomic::AtomicUsize::new(0);
        exec.launch(4096, |warp| {
            let mut indices = [None; WARP_SIZE];
            for (lane, tid) in warp.lanes() {
                indices[lane] = Some(tid as u64);
            }
            match arr_ref.gather_warp(warp, &indices) {
                Ok(vals) => {
                    for (lane, tid) in warp.lanes() {
                        assert_eq!(vals[lane], Some(tid as u32 * 3));
                    }
                }
                Err(_) => {
                    errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        });
        assert_eq!(errors.load(std::sync::atomic::Ordering::Relaxed), 0);
        let m = sys.metrics();
        assert!(m.cache_hits + m.cache_misses > 0);
        assert!(
            m.coalesced_accesses > 0,
            "consecutive tids in a warp share cache lines"
        );
    }

    #[test]
    fn inactive_lanes_are_not_read_or_validated() {
        let sys = system();
        let arr = sys.create_array::<u64>(1024).unwrap();
        arr.preload(&(0..1024u64).collect::<Vec<_>>()).unwrap();
        let warp = WarpCtx {
            warp_id: 0,
            base_thread: 0,
            active: 0b1,
        };
        let mut indices = [None; WARP_SIZE];
        indices[0] = Some(7);
        indices[5] = Some(1 << 40);
        let vals = arr.gather_warp(&warp, &indices).unwrap();
        assert_eq!(vals[0], Some(7));
        assert!(vals[1..].iter().all(Option::is_none));
        // The run reader treats the same lanes the same way.
        let mut runs = [None; WARP_SIZE];
        runs[0] = Some((7, 1));
        runs[5] = Some((1 << 40, 1));
        let mut visited = Vec::new();
        arr.read_runs_warp(&warp, &runs, |lane, run| visited.push((lane, run.to_vec())))
            .unwrap();
        assert_eq!(visited, vec![(0, vec![7])]);
        // An active lane out of range still fails the warp.
        indices[0] = Some(1 << 40);
        assert!(matches!(
            arr.gather_warp(&warp, &indices),
            Err(BamError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn read_run_reuses_lines() {
        let sys = system();
        let arr = sys.create_array::<u64>(512).unwrap();
        arr.preload(&(0..512u64).map(|i| i * 7).collect::<Vec<_>>())
            .unwrap();
        let vals = arr.read_run(10, 200).unwrap();
        assert_eq!(vals.len(), 200);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(*v, (10 + i as u64) * 7);
        }
        let m = sys.metrics();
        // 200 contiguous u64 span ~25 512-byte lines: far fewer probes than
        // elements.
        assert!(m.probe_attempts < 60, "probes {}", m.probe_attempts);
        assert!(m.reused_references > 0);
    }

    #[test]
    fn write_run_then_read_back() {
        let sys = system();
        let arr = sys.create_array::<f64>(300).unwrap();
        arr.preload(&vec![0.0f64; 300]).unwrap();
        let values: Vec<f64> = (0..100).map(|i| i as f64 / 3.0).collect();
        arr.write_run(50, &values).unwrap();
        let back = arr.read_run(50, 100).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn prefetch_warms_the_cache() {
        let sys = system();
        let arr = sys.create_array::<u64>(2048).unwrap();
        arr.preload(&(0..2048u64).collect::<Vec<_>>()).unwrap();
        // Prefetch a window; subsequent reads of that window are all hits.
        let fetched = arr.prefetch(0, 512).unwrap();
        assert!(fetched > 0);
        let before = sys.metrics();
        for i in 0..512u64 {
            assert_eq!(arr.read(i).unwrap(), i);
        }
        let after = sys.metrics();
        assert_eq!(
            after.cache_misses, before.cache_misses,
            "prefetched window must hit"
        );
        // Prefetching again fetches nothing new.
        assert_eq!(arr.prefetch(0, 512).unwrap(), 0);
        // Out-of-bounds prefetch is rejected.
        assert!(arr.prefetch(2000, 100).is_err());
    }

    /// Regression test: `prefetch` used to return the change of the global
    /// miss counter between two snapshots, so another thread's misses (or a
    /// `reset_metrics`) in between leaked into — or underflowed — its answer.
    #[test]
    fn prefetch_counts_only_the_lines_it_fetched_itself() {
        let sys = system();
        let arr = sys.create_array::<u64>(64 * 1024).unwrap();
        // 64 elements per 512-byte line: 32 lines for the prefetcher, and a
        // disjoint 512 lines the other thread keeps missing on through the
        // 128-slot cache.
        let started = std::sync::Barrier::new(2);
        let prefetched = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                started.wait();
                let mut i = 0u64;
                while !prefetched.load(std::sync::atomic::Ordering::Acquire) || i < 512 {
                    arr.read(4096 + (i % 512) * 64).unwrap();
                    i += 1;
                }
            });
            started.wait();
            for round in 0..8u64 {
                // Lines nobody else touches: exactly 32 of them are fetched,
                // however many misses the other thread racks up meanwhile.
                assert_eq!(arr.prefetch(40_000 + round * 2048, 2048).unwrap(), 32);
                sys.reset_metrics();
            }
            prefetched.store(true, std::sync::atomic::Ordering::Release);
        });
    }

    #[test]
    fn warp_run_reader_matches_per_lane_read_run() {
        let sys = system();
        let arr = sys.create_array::<u32>(8192).unwrap();
        arr.preload(&(0..8192u32).map(|i| i * 5).collect::<Vec<_>>())
            .unwrap();
        // Lane l reads l + 1 elements from 200 * l: runs that start mid-line,
        // span lines, and (lanes 0 and 1) share one; lane 7 reads nothing and
        // lanes 24.. are inactive.
        let warp = WarpCtx {
            warp_id: 0,
            base_thread: 0,
            active: 0x00FF_FFFF,
        };
        let mut runs = [None; WARP_SIZE];
        for (lane, run) in runs.iter_mut().enumerate() {
            *run = Some((200 * lane as u64, lane as u64 + 1));
        }
        runs[1] = Some((1, 100));
        runs[7] = Some((0, 0));
        let mut seen = Vec::new();
        arr.read_runs_warp(&warp, &runs, |lane, values| {
            let (start, count) = runs[lane].unwrap();
            assert_eq!(values, arr.read_run(start, count).unwrap());
            seen.push(lane);
        })
        .unwrap();
        let want: Vec<usize> = (0..24).filter(|&l| l != 7).collect();
        assert_eq!(seen, want, "active lanes with a run, in lane order");
        // One bad lane fails the call before anything is visited.
        runs[3] = Some((8000, 500));
        let mut visited = false;
        assert!(matches!(
            arr.read_runs_warp(&warp, &runs, |_, _| visited = true),
            Err(BamError::IndexOutOfBounds { .. })
        ));
        assert!(!visited);
    }

    #[test]
    fn prefetch_is_a_noop_without_a_cache() {
        let mut cfg = BamConfig::test_scale();
        cfg.use_cache = false;
        let sys = BamSystem::new(cfg).unwrap();
        let arr = sys.create_array::<u64>(256).unwrap();
        arr.preload(&(0..256u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(arr.prefetch(0, 256).unwrap(), 0);
        assert_eq!(sys.metrics().read_requests, 0);
    }

    #[test]
    fn uncached_mode_still_returns_correct_data() {
        let mut cfg = BamConfig::test_scale();
        cfg.use_cache = false;
        let sys = BamSystem::new(cfg).unwrap();
        let arr = sys.create_array::<u32>(256).unwrap();
        arr.preload(&(0..256u32).collect::<Vec<_>>()).unwrap();
        for idx in [0u64, 17, 128, 255] {
            assert_eq!(arr.read(idx).unwrap(), idx as u32);
        }
        arr.write(10, 999).unwrap();
        assert_eq!(arr.read(10).unwrap(), 999);
        // Every access became a storage request (no cache to absorb them).
        let m = sys.metrics();
        assert!(m.read_requests >= 5);
        assert_eq!(m.cache_hits, 0);
    }

    #[test]
    fn coalescing_disabled_still_correct() {
        let mut cfg = BamConfig::test_scale();
        cfg.warp_coalescing = false;
        let sys = BamSystem::new(cfg).unwrap();
        let arr = sys.create_array::<u32>(1024).unwrap();
        arr.preload(&(0..1024u32).collect::<Vec<_>>()).unwrap();
        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 2);
        let arr_ref = &arr;
        exec.launch(1024, |warp| {
            let mut indices = [None; WARP_SIZE];
            for (lane, tid) in warp.lanes() {
                indices[lane] = Some(tid as u64);
            }
            let vals = arr_ref.gather_warp(warp, &indices).unwrap();
            for (lane, tid) in warp.lanes() {
                assert_eq!(vals[lane], Some(tid as u32));
            }
        });
        assert_eq!(sys.metrics().coalesced_accesses, 0);
    }
}

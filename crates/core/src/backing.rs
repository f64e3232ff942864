//! The backing store behind the BaM software cache.
//!
//! A cache miss must fetch a whole cache line from wherever the data lives —
//! NVMe storage in the headline configuration, or host/GPU memory in the
//! paper's "Target" and cache-overhead measurement configurations. The
//! [`CacheBacking`] trait abstracts that, so the same cache is exercised in
//! every configuration of Figures 6–8. A store has one fetch,
//! [`CacheBacking::fetch_lines`]: the cache's miss fill passes it every line
//! it has claimed — one for a lone miss, up to a warp's worth for a batch.

use std::sync::Arc;

use bam_mem::{ByteRegion, DevAddr};

use crate::crash::{CrashPoint, StepOutcome};
use crate::error::BamError;

/// A source/sink for whole cache lines.
pub trait CacheBacking: Send + Sync {
    /// Cache line size in bytes.
    fn line_bytes(&self) -> u64;

    /// Number of cache lines the backing store holds.
    fn num_lines(&self) -> u64;

    /// Reads every `(line, dst)` of `requests` into GPU memory, issued in
    /// slice order, and leaves each one's result in the matching element of
    /// `outcomes`: the out-of-range or failed fetch of one line does not fail
    /// the others. A cache miss of one line is a one-request call; a store
    /// with queues overlaps the requests of a longer one.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    fn fetch_lines(&self, requests: &[(u64, DevAddr)], outcomes: &mut [Result<(), BamError>]);

    /// Writes line `line` back from GPU memory at `src`.
    ///
    /// # Errors
    ///
    /// Returns an error if the line is out of range or the device fails.
    fn writeback_line(&self, line: u64, src: DevAddr) -> Result<(), BamError>;
}

/// A backing store held entirely in (host or GPU) memory.
///
/// Used for the paper's measurements where the dataset is resident in memory
/// and only the cache-API overhead is being isolated (Fig 7's "Cache API"
/// component, Fig 6's ActivePointers-favouring hot configuration), and by
/// unit tests.
pub struct MemoryBacking {
    /// The memory holding the dataset.
    data: Arc<ByteRegion>,
    /// Byte offset of the dataset within `data`.
    base: DevAddr,
    /// The GPU memory lines are fetched into.
    gpu: Arc<ByteRegion>,
    line_bytes: u64,
    num_lines: u64,
}

impl MemoryBacking {
    /// Creates a memory backing of `num_lines` lines of `line_bytes` each,
    /// stored at `base` in `data`, fetched into `gpu`.
    pub fn new(
        data: Arc<ByteRegion>,
        base: DevAddr,
        gpu: Arc<ByteRegion>,
        line_bytes: u64,
        num_lines: u64,
    ) -> Self {
        assert!(line_bytes > 0, "line size must be non-zero");
        Self {
            data,
            base,
            gpu,
            line_bytes,
            num_lines,
        }
    }
}

impl CacheBacking for MemoryBacking {
    fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    fn num_lines(&self) -> u64 {
        self.num_lines
    }

    fn fetch_lines(&self, requests: &[(u64, DevAddr)], outcomes: &mut [Result<(), BamError>]) {
        assert_eq!(requests.len(), outcomes.len(), "one outcome per request");
        for (&(line, dst), outcome) in requests.iter().zip(outcomes) {
            *outcome = if line < self.num_lines {
                self.gpu.copy_from(
                    dst,
                    &self.data,
                    self.base + line * self.line_bytes,
                    self.line_bytes as usize,
                );
                Ok(())
            } else {
                Err(BamError::IndexOutOfBounds {
                    index: line,
                    len: self.num_lines,
                })
            };
        }
    }

    fn writeback_line(&self, line: u64, src: DevAddr) -> Result<(), BamError> {
        if line >= self.num_lines {
            return Err(BamError::IndexOutOfBounds {
                index: line,
                len: self.num_lines,
            });
        }
        self.data.copy_from(
            self.base + line * self.line_bytes,
            &self.gpu,
            src,
            self.line_bytes as usize,
        );
        Ok(())
    }
}

/// A [`CacheBacking`] decorator that subjects media write-backs to a
/// [`CrashPoint`].
///
/// Every `writeback_line` consumes one durable step; if the crash trips, the
/// write **does not reach the media** and [`BamError::Crashed`] is returned.
/// Once the stack is down, fetches fail too (the devices are gone with the
/// host). Recovery code talks to the *inner* backing directly — it runs
/// after the reboot.
pub struct CrashBacking {
    inner: Arc<dyn CacheBacking>,
    crash: Arc<CrashPoint>,
}

impl CrashBacking {
    /// Wraps `inner` so its write-backs consume durable steps on `crash`.
    pub fn new(inner: Arc<dyn CacheBacking>, crash: Arc<CrashPoint>) -> Self {
        Self { inner, crash }
    }

    /// The undecorated backing store (what recovery replays against).
    pub fn inner(&self) -> &Arc<dyn CacheBacking> {
        &self.inner
    }
}

impl CacheBacking for CrashBacking {
    fn line_bytes(&self) -> u64 {
        self.inner.line_bytes()
    }

    fn num_lines(&self) -> u64 {
        self.inner.num_lines()
    }

    fn fetch_lines(&self, requests: &[(u64, DevAddr)], outcomes: &mut [Result<(), BamError>]) {
        if self.crash.is_crashed() {
            outcomes.fill_with(|| Err(BamError::Crashed));
        } else {
            self.inner.fetch_lines(requests, outcomes);
        }
    }

    fn writeback_line(&self, line: u64, src: DevAddr) -> Result<(), BamError> {
        match self.crash.consume_step() {
            StepOutcome::Run => self.inner.writeback_line(line, src),
            StepOutcome::Crash { .. } | StepOutcome::Down => Err(BamError::Crashed),
        }
    }
}

/// Fetches `line` into GPU memory at `dst`: a one-request
/// [`CacheBacking::fetch_lines`].
#[cfg(test)]
pub(crate) fn fetch_one(
    backing: &dyn CacheBacking,
    line: u64,
    dst: DevAddr,
) -> Result<(), BamError> {
    let mut outcome = [Ok(())];
    backing.fetch_lines(&[(line, dst)], &mut outcome);
    let [outcome] = outcome;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_backing_roundtrip() {
        let data = Arc::new(ByteRegion::new(4096));
        let gpu = Arc::new(ByteRegion::new(4096));
        data.write_bytes(512, &[7u8; 512]);
        let b = MemoryBacking::new(data.clone(), 0, gpu.clone(), 512, 8);
        fetch_one(&b, 1, 1024).unwrap();
        let mut out = [0u8; 512];
        gpu.read_bytes(1024, &mut out);
        assert!(out.iter().all(|&x| x == 7));

        gpu.write_bytes(2048, &[9u8; 512]);
        b.writeback_line(3, 2048).unwrap();
        data.read_bytes(3 * 512, &mut out);
        assert!(out.iter().all(|&x| x == 9));
    }

    #[test]
    fn out_of_range_line_rejected() {
        let data = Arc::new(ByteRegion::new(4096));
        let gpu = Arc::new(ByteRegion::new(4096));
        let b = MemoryBacking::new(data, 0, gpu, 512, 8);
        assert!(matches!(
            fetch_one(&b, 8, 0),
            Err(BamError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            b.writeback_line(9, 0),
            Err(BamError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn crash_backing_drops_the_tripped_writeback() {
        let data = Arc::new(ByteRegion::new(4096));
        let gpu = Arc::new(ByteRegion::new(4096));
        let inner = Arc::new(MemoryBacking::new(data.clone(), 0, gpu.clone(), 512, 8));
        let cp = Arc::new(CrashPoint::new());
        let b = CrashBacking::new(inner, cp.clone());

        gpu.write_bytes(0, &[5u8; 512]);
        b.writeback_line(0, 0).unwrap(); // step 0 runs
        cp.arm(1, 0);
        gpu.write_bytes(512, &[6u8; 512]);
        assert_eq!(b.writeback_line(1, 512), Err(BamError::Crashed));
        // The tripped write never reached the media...
        let mut out = [0u8; 512];
        data.read_bytes(512, &mut out);
        assert!(out.iter().all(|&x| x == 0));
        // ...and while down, everything fails.
        assert_eq!(fetch_one(&b, 0, 1024), Err(BamError::Crashed));
        let mut outcomes = [Ok(()), Ok(())];
        b.fetch_lines(&[(0, 1024), (1, 1536)], &mut outcomes);
        assert_eq!(outcomes, [Err(BamError::Crashed), Err(BamError::Crashed)]);
        assert_eq!(b.writeback_line(0, 0), Err(BamError::Crashed));
        // The reboot restores service.
        cp.reset();
        assert!(fetch_one(&b, 0, 1024).is_ok());
        data.read_bytes(0, &mut out);
        assert!(out.iter().all(|&x| x == 5));
    }
}

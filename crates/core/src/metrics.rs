//! Runtime metrics of the BaM software stack.
//!
//! Every count the experiment harnesses need — cache hits and misses, I/O
//! requests issued, bytes moved, doorbell writes, coalescing savings — is
//! collected here with relaxed atomics. Every client shares these words, so
//! a call that handles many lines tallies into its own state and adds each
//! count once, when it returns: a batch's hits and misses, a run's reference
//! reuses, a read batch's requests; a single [`crate::BamCache::acquire`]
//! is a call of one line. `probe_attempts` is not counted at all: every
//! probe is exactly one hit or one miss, so the snapshot derives it as their
//! sum.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one BaM system instance.
#[derive(Debug, Default)]
pub struct BamMetrics {
    // Cache.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    cache_writebacks: AtomicU64,
    coalesced_accesses: AtomicU64,
    reused_references: AtomicU64,
    // I/O stack.
    read_requests: AtomicU64,
    write_requests: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    // Application-level accounting (for I/O amplification).
    bytes_requested: AtomicU64,
    // Robustness.
    storage_retries: AtomicU64,
    journal_appends: AtomicU64,
    journal_bytes: AtomicU64,
}

/// A point-in-time copy of [`BamMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Cache probes that hit a valid line.
    pub cache_hits: u64,
    /// Cache probes that required fetching the line from storage.
    pub cache_misses: u64,
    /// Lines evicted to make room.
    pub cache_evictions: u64,
    /// Dirty lines written back to storage.
    pub cache_writebacks: u64,
    /// Cache probes performed (group leaders only when coalescing): every
    /// probe ends in exactly one hit or one miss, so this is always
    /// `cache_hits + cache_misses`, derived when the snapshot is taken.
    pub probe_attempts: u64,
    /// Accesses that were satisfied by another lane's probe (coalescing win).
    pub coalesced_accesses: u64,
    /// Accesses that reused an already-pinned line reference (reuse win).
    pub reused_references: u64,
    /// Read commands submitted to storage.
    pub read_requests: u64,
    /// Write commands submitted to storage.
    pub write_requests: u64,
    /// Bytes read from storage.
    pub bytes_read: u64,
    /// Bytes written to storage.
    pub bytes_written: u64,
    /// Bytes the application actually asked for (element granularity).
    pub bytes_requested: u64,
    /// Transient storage failures retried on the cache-miss fetch path.
    pub storage_retries: u64,
    /// Records appended to the cache's write-ahead journal.
    pub journal_appends: u64,
    /// Bytes appended to the cache's write-ahead journal.
    pub journal_bytes: u64,
}

impl MetricsSnapshot {
    /// Cache hit rate in `[0, 1]`; zero when no probes happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// I/O amplification factor: bytes moved from storage divided by bytes
    /// the application requested (the metric of Figures 12 and 14).
    pub fn io_amplification(&self) -> f64 {
        if self.bytes_requested == 0 {
            if self.bytes_read + self.bytes_written == 0 {
                return 1.0;
            }
            return f64::INFINITY;
        }
        (self.bytes_read + self.bytes_written) as f64 / self.bytes_requested as f64
    }

    /// Total storage commands.
    pub fn total_requests(&self) -> u64 {
        self.read_requests + self.write_requests
    }
}

impl std::fmt::Display for MetricsSnapshot {
    /// Two human-readable lines: cache behaviour, then storage traffic — the
    /// summary every example and harness wants to print.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cache: {} hits / {} misses ({:.1}% hit rate), {} evictions, \
             coalescing saved {} probes, {} reference reuses",
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0,
            self.cache_evictions,
            self.coalesced_accesses,
            self.reused_references
        )?;
        write!(
            f,
            "storage: {} reads / {} writes, {} B read, {} B written, \
             I/O amplification {:.2}x, {} retries, {} journal records ({} B)",
            self.read_requests,
            self.write_requests,
            self.bytes_read,
            self.bytes_written,
            self.io_amplification(),
            self.storage_retries,
            self.journal_appends,
            self.journal_bytes
        )
    }
}

impl BamMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_eviction(&self) {
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_writeback(&self) {
        self.cache_writebacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds one call's tally of cache hits and misses.
    #[inline]
    pub(crate) fn record_lookups(&self, hits: u64, misses: u64) {
        add(&self.cache_hits, hits);
        add(&self.cache_misses, misses);
    }

    pub(crate) fn record_coalesced(&self, lanes_saved: u64) {
        self.coalesced_accesses
            .fetch_add(lanes_saved, Ordering::Relaxed);
    }

    pub(crate) fn record_reuses(&self, reuses: u64) {
        add(&self.reused_references, reuses);
    }

    /// Adds `requests` read commands that moved `bytes` in all.
    pub(crate) fn record_read_requests(&self, requests: u64, bytes: u64) {
        add(&self.read_requests, requests);
        add(&self.bytes_read, bytes);
    }

    pub(crate) fn record_write_request(&self, bytes: u64) {
        self.write_requests.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_requested_bytes(&self, bytes: u64) {
        self.bytes_requested.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_retry(&self) {
        self.storage_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_journal_append(&self, bytes: u64) {
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
        self.journal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Copies the current counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let cache_hits = self.cache_hits.load(Ordering::Relaxed);
        let cache_misses = self.cache_misses.load(Ordering::Relaxed);
        MetricsSnapshot {
            cache_hits,
            cache_misses,
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            cache_writebacks: self.cache_writebacks.load(Ordering::Relaxed),
            probe_attempts: cache_hits + cache_misses,
            coalesced_accesses: self.coalesced_accesses.load(Ordering::Relaxed),
            reused_references: self.reused_references.load(Ordering::Relaxed),
            read_requests: self.read_requests.load(Ordering::Relaxed),
            write_requests: self.write_requests.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_requested: self.bytes_requested.load(Ordering::Relaxed),
            storage_retries: self.storage_retries.load(Ordering::Relaxed),
            journal_appends: self.journal_appends.load(Ordering::Relaxed),
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero (used between experiment phases).
    pub fn reset(&self) {
        // Relaxed stores are fine: resets happen between kernel launches.
        for c in [
            &self.cache_hits,
            &self.cache_misses,
            &self.cache_evictions,
            &self.cache_writebacks,
            &self.coalesced_accesses,
            &self.reused_references,
            &self.read_requests,
            &self.write_requests,
            &self.bytes_read,
            &self.bytes_written,
            &self.bytes_requested,
            &self.storage_retries,
            &self.journal_appends,
            &self.journal_bytes,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Adds `n` to `counter`, skipping the RMW when there is nothing to add.
#[inline]
fn add(counter: &AtomicU64, n: u64) {
    if n != 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_amplification() {
        let m = BamMetrics::new();
        m.record_lookups(3, 1);
        m.record_read_requests(1, 4096);
        m.record_requested_bytes(1024);
        let s = m.snapshot();
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.io_amplification() - 4.0).abs() < 1e-12);
        assert_eq!(s.total_requests(), 1);
    }

    #[test]
    fn empty_metrics_have_sane_ratios() {
        let s = BamMetrics::new().snapshot();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.io_amplification(), 1.0);
    }

    #[test]
    fn display_summarizes_cache_and_storage() {
        let m = BamMetrics::new();
        m.record_lookups(1, 1);
        m.record_read_requests(1, 4096);
        m.record_requested_bytes(2048);
        let s = m.snapshot().to_string();
        assert!(s.contains("50.0% hit rate"), "{s}");
        assert!(s.contains("I/O amplification 2.00x"), "{s}");
        assert!(s.lines().count() == 2, "{s}");
    }

    #[test]
    fn probe_attempts_are_hits_plus_misses() {
        let m = BamMetrics::new();
        m.record_lookups(1, 0);
        m.record_lookups(0, 1);
        m.record_lookups(3, 2);
        m.record_lookups(0, 0);
        let s = m.snapshot();
        assert_eq!((s.cache_hits, s.cache_misses, s.probe_attempts), (4, 3, 7));
        m.reset();
        assert_eq!(m.snapshot().probe_attempts, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let m = BamMetrics::new();
        m.record_lookups(0, 1);
        m.record_write_request(512);
        m.record_retry();
        m.record_journal_append(48);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn retry_and_journal_counters_accumulate() {
        let m = BamMetrics::new();
        m.record_retry();
        m.record_retry();
        m.record_journal_append(48);
        m.record_journal_append(112);
        let s = m.snapshot();
        assert_eq!(s.storage_retries, 2);
        assert_eq!(s.journal_appends, 2);
        assert_eq!(s.journal_bytes, 160);
        assert!(s.to_string().contains("2 retries"), "{s}");
    }
}

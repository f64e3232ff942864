//! Runtime metrics of the BaM software stack.
//!
//! Every count the experiment harnesses need — cache hits and misses, I/O
//! requests issued, bytes moved, doorbell writes, coalescing savings — is
//! collected here with relaxed atomics so the hot paths stay cheap.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one BaM system instance.
#[derive(Debug, Default)]
pub struct BamMetrics {
    // Cache.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    cache_writebacks: AtomicU64,
    probe_attempts: AtomicU64,
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
    /// Cache probes performed (group leaders only when coalescing).
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

    pub(crate) fn record_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_eviction(&self) {
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_writeback(&self) {
        self.cache_writebacks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_probe(&self) {
        self.probe_attempts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_coalesced(&self, lanes_saved: u64) {
        self.coalesced_accesses
            .fetch_add(lanes_saved, Ordering::Relaxed);
    }

    pub(crate) fn record_reuse(&self) {
        self.reused_references.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_read_request(&self, bytes: u64) {
        self.read_requests.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
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
        MetricsSnapshot {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            cache_writebacks: self.cache_writebacks.load(Ordering::Relaxed),
            probe_attempts: self.probe_attempts.load(Ordering::Relaxed),
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
            &self.probe_attempts,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_amplification() {
        let m = BamMetrics::new();
        m.record_hit();
        m.record_hit();
        m.record_hit();
        m.record_miss();
        m.record_read_request(4096);
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
        m.record_hit();
        m.record_miss();
        m.record_read_request(4096);
        m.record_requested_bytes(2048);
        let s = m.snapshot().to_string();
        assert!(s.contains("50.0% hit rate"), "{s}");
        assert!(s.contains("I/O amplification 2.00x"), "{s}");
        assert!(s.lines().count() == 2, "{s}");
    }

    #[test]
    fn reset_clears_everything() {
        let m = BamMetrics::new();
        m.record_miss();
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

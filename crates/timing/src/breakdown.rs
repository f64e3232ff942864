//! The Compute / Cache-API / Storage-I/O execution-time decomposition.
//!
//! Figures 7 and 8 of the paper present end-to-end time as three stacked
//! components obtained by subtraction: pure compute (all data resident in
//! HBM), cache-API overhead (all data resident but accessed through the BaM
//! cache), and the exposed storage-I/O time (everything else). BaM overlaps
//! storage latency with compute from other threads, so the exposed storage
//! time is what remains after that overlap.

/// An execution time decomposed the way the paper's Figure 7 reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutionBreakdown {
    /// Seconds of pure GPU compute (dataset resident in HBM, no cache).
    pub compute_s: f64,
    /// Additional seconds introduced by going through the software cache
    /// (probes, atomics, coalescing) with no storage I/O.
    pub cache_api_s: f64,
    /// Exposed storage I/O seconds (after overlap with compute).
    pub storage_io_s: f64,
}

impl ExecutionBreakdown {
    /// Builds a breakdown for a BaM-style execution in which storage I/O
    /// overlaps with compute: the end-to-end time is
    /// `max(compute + cache_api, storage_total)` and the exposed storage
    /// component is whatever exceeds the GPU-side time.
    pub fn overlapped(compute_s: f64, cache_api_s: f64, storage_total_s: f64) -> Self {
        let gpu_side = compute_s + cache_api_s;
        let storage_io_s = (storage_total_s - gpu_side).max(0.0);
        Self {
            compute_s,
            cache_api_s,
            storage_io_s,
        }
    }

    /// Builds a breakdown for a serial execution in which the phases do not
    /// overlap (e.g. load-then-compute baselines). `storage_total_s` is fully
    /// exposed.
    pub fn serial(compute_s: f64, cache_api_s: f64, storage_total_s: f64) -> Self {
        Self {
            compute_s,
            cache_api_s,
            storage_io_s: storage_total_s,
        }
    }

    /// End-to-end seconds.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.cache_api_s + self.storage_io_s
    }

    /// Speedup of `self` relative to `other` (>1 means `self` is faster).
    pub fn speedup_vs(&self, other: &ExecutionBreakdown) -> f64 {
        other.total_s() / self.total_s()
    }
}

impl std::fmt::Display for ExecutionBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total {:.3}s (compute {:.3}s, cache api {:.3}s, storage i/o {:.3}s)",
            self.total_s(),
            self.compute_s,
            self.cache_api_s,
            self.storage_io_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapped_hides_storage_behind_compute() {
        let b = ExecutionBreakdown::overlapped(2.0, 0.5, 1.0);
        assert_eq!(b.storage_io_s, 0.0);
        assert!((b.total_s() - 2.5).abs() < 1e-12);

        let b2 = ExecutionBreakdown::overlapped(1.0, 0.5, 4.0);
        assert!((b2.storage_io_s - 2.5).abs() < 1e-12);
        assert!((b2.total_s() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn serial_exposes_everything() {
        let b = ExecutionBreakdown::serial(1.0, 0.0, 4.0);
        assert!((b.total_s() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_and_fraction() {
        let fast = ExecutionBreakdown::overlapped(1.0, 0.2, 0.0);
        let slow = ExecutionBreakdown::serial(1.0, 0.0, 1.4);
        assert!((fast.speedup_vs(&slow) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_all_components() {
        let b = ExecutionBreakdown::overlapped(1.0, 0.5, 3.0);
        let s = b.to_string();
        assert!(s.contains("compute") && s.contains("cache api") && s.contains("storage"));
    }
}

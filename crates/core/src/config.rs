//! BaM system configuration.

use bam_nvme_sim::{DataLayout, SsdSpec, BLOCK_SIZE};

use crate::error::BamError;

/// Configuration of a BaM system instance.
///
/// The defaults reproduce the configuration used throughout the paper's
/// evaluation (§5.2): 4 KB cache lines, an 8 GB cache, 128 queue pairs of
/// depth 1024 per SSD, Intel Optane SSDs, and data replicated across SSDs.
/// Experiments scale the byte capacities down; the *ratios* are what matter
/// for the reproduced shapes.
#[derive(Debug, Clone)]
pub struct BamConfig {
    /// Cache line size in bytes (also the storage I/O granularity, §5.1).
    pub cache_line_bytes: u64,
    /// Total cache capacity in bytes.
    pub cache_bytes: u64,
    /// Number of SSDs in the array.
    pub num_ssds: usize,
    /// SSD model used for every device in the array.
    pub ssd_spec: SsdSpec,
    /// Per-device media capacity in bytes (scaled down in experiments).
    pub ssd_capacity_bytes: u64,
    /// Number of NVMe queue pairs per SSD.
    pub queue_pairs_per_ssd: u32,
    /// Queue depth of each queue pair.
    pub queue_depth: u32,
    /// How the dataset is laid out across SSDs.
    pub layout: DataLayout,
    /// Whether warp coalescing is enabled in the cache (§3.4). Disabled only
    /// by the Figure 8 ablation.
    pub warp_coalescing: bool,
    /// Whether the software cache is used at all. Disabled only by the
    /// Figure 8 "no cache" ablation, in which every access issues storage I/O.
    pub use_cache: bool,
    /// GPU memory capacity to back in the simulation, in bytes. Must hold the
    /// cache, queues, and I/O buffers.
    pub gpu_memory_bytes: u64,
    /// Whether the cache keeps a write-ahead metadata journal, making
    /// acknowledged writes crash-recoverable (see `crate::journal`).
    pub use_journal: bool,
    /// Extra attempts for a cache-miss fetch failing with a transient
    /// storage error (0 disables retry).
    pub fetch_retries: u32,
    /// Base backoff in microseconds before a fetch retry; doubles per
    /// attempt.
    pub fetch_retry_base_us: u64,
}

impl Default for BamConfig {
    fn default() -> Self {
        Self {
            cache_line_bytes: 4096,
            cache_bytes: 8 << 30,
            num_ssds: 4,
            ssd_spec: SsdSpec::intel_optane_p5800x(),
            ssd_capacity_bytes: 64 << 30,
            queue_pairs_per_ssd: 128,
            queue_depth: 1024,
            layout: DataLayout::Replicated,
            warp_coalescing: true,
            use_cache: true,
            gpu_memory_bytes: 16 << 30,
            use_journal: true,
            fetch_retries: 3,
            fetch_retry_base_us: 20,
        }
    }
}

impl BamConfig {
    /// A configuration scaled down for unit/integration tests and laptop-size
    /// experiment runs: 512-byte lines, a small cache, small namespaces, and
    /// few queue pairs, preserving every ratio the protocol cares about.
    pub fn test_scale() -> Self {
        Self {
            cache_line_bytes: 512,
            cache_bytes: 64 * 1024,
            num_ssds: 2,
            ssd_spec: SsdSpec::intel_optane_p5800x(),
            ssd_capacity_bytes: 16 << 20,
            queue_pairs_per_ssd: 4,
            queue_depth: 64,
            layout: DataLayout::Replicated,
            warp_coalescing: true,
            use_cache: true,
            gpu_memory_bytes: 8 << 20,
            use_journal: true,
            fetch_retries: 3,
            fetch_retry_base_us: 1,
        }
    }

    /// Number of cache slots implied by the capacity and line size.
    pub fn cache_slots(&self) -> u64 {
        self.cache_bytes / self.cache_line_bytes
    }

    /// Blocks per cache line on the device.
    pub fn blocks_per_line(&self) -> u32 {
        (self.cache_line_bytes / BLOCK_SIZE as u64) as u32
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::InvalidConfig`] describing the first inconsistency
    /// found.
    pub fn validate(&self) -> Result<(), BamError> {
        let fail = |reason: String| Err(BamError::InvalidConfig { reason });
        if self.cache_line_bytes == 0 || !self.cache_line_bytes.is_multiple_of(BLOCK_SIZE as u64) {
            return fail(format!(
                "cache line size {} must be a non-zero multiple of the {BLOCK_SIZE}-byte block",
                self.cache_line_bytes
            ));
        }
        if self.use_cache && self.cache_bytes < self.cache_line_bytes {
            return fail("cache capacity smaller than one cache line".into());
        }
        if self.num_ssds == 0 {
            return fail("at least one SSD is required".into());
        }
        if self.queue_pairs_per_ssd == 0 || self.queue_depth < 2 {
            return fail("need at least one queue pair of depth >= 2 per SSD".into());
        }
        if self.queue_depth > self.ssd_spec.max_queue_depth {
            return fail(format!(
                "queue depth {} exceeds device maximum {}",
                self.queue_depth, self.ssd_spec.max_queue_depth
            ));
        }
        if self.queue_pairs_per_ssd > self.ssd_spec.max_queue_pairs {
            return fail(format!(
                "{} queue pairs exceeds device maximum {}",
                self.queue_pairs_per_ssd, self.ssd_spec.max_queue_pairs
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let c = BamConfig::default();
        assert_eq!(c.cache_line_bytes, 4096);
        assert_eq!(c.cache_bytes, 8 << 30);
        assert_eq!(c.num_ssds, 4);
        assert_eq!(c.queue_pairs_per_ssd, 128);
        assert_eq!(c.queue_depth, 1024);
        assert!(c.validate().is_ok());
        assert_eq!(c.cache_slots(), (8 << 30) / 4096);
        assert_eq!(c.blocks_per_line(), 8);
    }

    #[test]
    fn test_scale_is_valid() {
        assert!(BamConfig::test_scale().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = BamConfig::test_scale();
        c.cache_line_bytes = 100;
        assert!(c.validate().is_err());

        let mut c = BamConfig::test_scale();
        c.num_ssds = 0;
        assert!(c.validate().is_err());

        let mut c = BamConfig::test_scale();
        c.queue_depth = 4096;
        assert!(c.validate().is_err());

        let mut c = BamConfig::test_scale();
        c.queue_pairs_per_ssd = 1000;
        assert!(c.validate().is_err());

        let mut c = BamConfig::test_scale();
        c.cache_bytes = 0;
        assert!(c.validate().is_err());
    }
}

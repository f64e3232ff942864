//! A complete simulated SSD: spec + media + controller.

use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

use bam_mem::{BumpAllocator, ByteRegion};

use crate::block::BlockStore;
use crate::controller::NvmeController;
use crate::error::NvmeError;
use crate::queue::{QueueId, QueuePair};
use crate::spec::SsdSpec;
use crate::stats::StatsSnapshot;
use crate::BLOCK_SIZE;

/// A simulated NVMe SSD.
///
/// `SsdDevice` ties together the device [`SsdSpec`], the media
/// ([`BlockStore`]), and the [`NvmeController`]. It runs no thread: the
/// thread waiting on one of its queue pairs for a completion runs the
/// controller on that pair ([`QueuePair::service`]), so the GPU thread that
/// rang the doorbell and polls its completion entry drives the firmware
/// itself, with no hand-off to another thread.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use bam_mem::{BumpAllocator, ByteRegion};
/// use bam_nvme_sim::{SsdDevice, SsdSpec};
///
/// let gpu_mem = Arc::new(ByteRegion::new(16 << 20));
/// let alloc = BumpAllocator::new(gpu_mem.len() as u64);
/// let ssd = SsdDevice::new(SsdSpec::intel_optane_p5800x(), gpu_mem, 1 << 20);
/// let qp = ssd.create_queue_pair(&alloc, 256).unwrap();
/// assert_eq!(qp.entries, 256);
/// ```
pub struct SsdDevice {
    spec: SsdSpec,
    controller: Arc<NvmeController>,
    next_queue_id: AtomicU16,
}

impl std::fmt::Debug for SsdDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdDevice")
            .field("spec", &self.spec.name)
            .finish()
    }
}

impl SsdDevice {
    /// Creates a device with `capacity_bytes` of media, DMA-attached to
    /// `dma_region` (the simulated GPU memory).
    ///
    /// The media capacity is given explicitly rather than taken from the spec
    /// so tests and scaled-down experiments can use small namespaces.
    pub fn new(spec: SsdSpec, dma_region: Arc<ByteRegion>, capacity_bytes: u64) -> Self {
        let num_blocks = capacity_bytes.div_ceil(BLOCK_SIZE as u64).max(1);
        let store = Arc::new(BlockStore::new(BLOCK_SIZE, num_blocks));
        let controller = Arc::new(NvmeController::new(store, dma_region));
        Self {
            spec,
            controller,
            next_queue_id: AtomicU16::new(1),
        }
    }

    /// The device specification.
    pub fn spec(&self) -> &SsdSpec {
        &self.spec
    }

    /// The controller (for registering queues, polling manually in tests, or
    /// installing fault injectors).
    pub fn controller(&self) -> &Arc<NvmeController> {
        &self.controller
    }

    /// Direct access to the media, used to preload datasets.
    pub fn media(&self) -> &Arc<BlockStore> {
        self.controller.store()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.controller.stats()
    }

    /// Allocates an I/O queue pair of `entries` entries whose rings live in
    /// `alloc`'s region (the GPU memory) and registers it with the
    /// controller, so that whoever waits on it services it.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::InvalidQueueSize`] if `entries` exceeds the
    /// spec's maximum queue depth or the region is exhausted.
    pub fn create_queue_pair(
        &self,
        alloc: &BumpAllocator,
        entries: u32,
    ) -> Result<Arc<QueuePair>, NvmeError> {
        let id = QueueId(self.next_queue_id.fetch_add(1, Ordering::Relaxed));
        let qp = Arc::new(QueuePair::allocate(
            self.controller.dma_region(),
            alloc,
            id,
            entries,
            self.spec.max_queue_depth,
        )?);
        self.controller.register_queue(qp.clone());
        Ok(qp)
    }

    /// Does nothing: the controller runs on the threads that wait for its
    /// completions, so there is no thread to start. Kept for callers
    /// written against the former service thread.
    pub fn start(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_depth_limited_by_spec() {
        let region = Arc::new(ByteRegion::new(1 << 20));
        let alloc = BumpAllocator::new(region.len() as u64);
        let ssd = SsdDevice::new(SsdSpec::samsung_980pro(), region, 1 << 20);
        assert!(ssd.create_queue_pair(&alloc, 4096).is_err());
    }
}

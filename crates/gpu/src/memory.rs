//! Simulated GPU device memory.

use std::sync::Arc;

use bam_mem::{AllocError, BumpAllocator, ByteRegion, DevAddr};

use crate::spec::GpuSpec;

/// Simulated GPU memory: a shared byte region plus a setup-time allocator.
///
/// The same region is handed to the simulated SSD controllers as their DMA
/// target, mirroring how GPUDirect RDMA exposes real HBM to NVMe devices.
/// All BaM state — cache lines, queue rings, I/O buffers — is carved out of
/// this region with [`GpuMemory::alloc`], just as the prototype allocates
/// everything at startup (§3.4).
#[derive(Debug, Clone)]
pub struct GpuMemory {
    region: Arc<ByteRegion>,
    allocator: Arc<BumpAllocator>,
    spec: GpuSpec,
}

impl GpuMemory {
    /// Creates GPU memory with `capacity_bytes` of backing store.
    ///
    /// The capacity may be far smaller than the spec's physical capacity;
    /// experiments only back the portions of HBM they actually touch.
    pub fn new(spec: GpuSpec, capacity_bytes: usize) -> Self {
        let region = Arc::new(ByteRegion::new(capacity_bytes));
        let allocator = Arc::new(BumpAllocator::new(capacity_bytes as u64));
        Self {
            region,
            allocator,
            spec,
        }
    }

    /// The GPU specification this memory belongs to.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The raw shared region (handed to SSD controllers as the DMA target).
    pub fn region(&self) -> Arc<ByteRegion> {
        self.region.clone()
    }

    /// The setup-time allocator.
    pub fn allocator(&self) -> &BumpAllocator {
        &self.allocator
    }

    /// Allocates `size` bytes aligned to `align`.
    ///
    /// # Errors
    ///
    /// Returns an [`AllocError`] when device memory is exhausted — the
    /// condition that forces real applications to spill to BaM-backed
    /// storage in the first place.
    pub fn alloc(&self, size: u64, align: u64) -> Result<DevAddr, AllocError> {
        self.allocator.alloc(size, align)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_allocation_roundtrip() {
        let mem = GpuMemory::new(GpuSpec::a100_80gb(), 1 << 20);
        let base = mem.alloc(1000 * 4, 8).unwrap();
        let last = base + 999 * 4;
        mem.region().write_bytes(last, &3.5f32.to_le_bytes());
        assert_eq!(mem.region().read_pod::<f32>(last), 3.5);
    }

    #[test]
    fn exhaustion_is_reported() {
        let mem = GpuMemory::new(GpuSpec::a100_80gb(), 4096);
        assert!(mem.alloc(8192, 8).is_err());
    }

    #[test]
    fn region_is_shared_with_dma_agents() {
        let mem = GpuMemory::new(GpuSpec::a100_80gb(), 1 << 16);
        let addr = mem.alloc(64, 8).unwrap();
        // A "DMA agent" holding the region handle sees GPU-side writes.
        let dma_view = mem.region();
        mem.region().write_bytes(addr, &[1, 2, 3]);
        let mut out = [0u8; 3];
        dma_view.read_bytes(addr, &mut out);
        assert_eq!(out, [1, 2, 3]);
    }
}

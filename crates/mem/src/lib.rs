//! # bam-mem — shared memory substrate for the BaM reproduction
//!
//! The BaM prototype places NVMe queues, I/O buffers, and the software cache
//! in *GPU memory* that is concurrently accessed by thousands of GPU threads
//! and, via GPUDirect RDMA, by the SSD controllers performing DMA. This crate
//! provides the equivalent substrate for the simulation: a thread-safe
//! byte region ([`ByteRegion`]) that simulated GPU threads read and write
//! concurrently — directly, and through the DMA of the simulated SSD
//! controllers, which those threads run while they wait for completions —
//! plus a simple bump allocator ([`BumpAllocator`]) used to carve that
//! region into device allocations the way `cudaMalloc` would.
//!
//! The region is backed by `AtomicU64` words and accessed with relaxed
//! ordering: exactly like real device memory, it provides no synchronization
//! by itself. Synchronization (ordering of DMA writes vs. completion-queue
//! polling, cache line state transitions, ...) is the job of the higher-level
//! protocols in `bam-core`, mirroring the paper's discussion of GPUDirect
//! RDMA I/O consistency (§4.4).
//!
//! ```
//! use bam_mem::ByteRegion;
//! let region = ByteRegion::new(4096);
//! region.write_bytes(128, &[1, 2, 3, 4]);
//! let mut buf = [0u8; 4];
//! region.read_bytes(128, &mut buf);
//! assert_eq!(buf, [1, 2, 3, 4]);
//! ```

pub mod alloc;
pub mod region;
pub mod view;

pub use alloc::{AllocError, BumpAllocator};
pub use region::ByteRegion;
pub use view::{Pod, MAX_POD_BYTES};

/// A device address: a byte offset into a [`ByteRegion`].
///
/// Addresses are plain offsets rather than raw pointers so that the simulated
/// GPU memory, host memory, and SSD BAR space can all be modelled as distinct
/// regions with their own address spaces, and so that out-of-bounds accesses
/// panic deterministically instead of corrupting the host process.
pub type DevAddr = u64;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn region_and_allocator_compose() {
        let region = Arc::new(ByteRegion::new(1 << 16));
        let alloc = BumpAllocator::new(region.len() as u64);
        let a = alloc.alloc(100, 8).unwrap();
        let b = alloc.alloc(100, 8).unwrap();
        assert!(b >= a + 100);
        region.write_bytes(a, &[0xAB; 100]);
        region.write_bytes(b, &[0xCD; 100]);
        let mut buf = [0u8; 100];
        region.read_bytes(a, &mut buf);
        assert!(buf.iter().all(|&x| x == 0xAB));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ByteRegion>();
        assert_send_sync::<BumpAllocator>();
    }
}

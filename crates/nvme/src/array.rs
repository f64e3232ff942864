//! Multi-SSD aggregation.
//!
//! The BaM prototype scales random-access bandwidth by attaching multiple
//! SSDs behind a PCIe switch and spreading requests across them (§4.2, §4.3).
//! The evaluation uses two data layouts: *replication* (every SSD holds a
//! full copy; reads are spread round-robin — used for the graph and analytics
//! experiments) and *striping* (cache lines are interleaved across SSDs —
//! the layout a capacity-constrained deployment would use).

use std::sync::Arc;

use bam_mem::{BumpAllocator, ByteRegion};

use crate::device::SsdDevice;
use crate::error::NvmeError;
use crate::queue::QueuePair;
use crate::spec::SsdSpec;
use crate::stats::StatsSnapshot;
use crate::{Lba, BLOCK_SIZE};

/// How a dataset's blocks are distributed across the SSDs of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLayout {
    /// Every SSD holds a complete copy of the dataset; requests may be sent
    /// to any SSD (the paper replicates data and round-robins requests).
    Replicated,
    /// Blocks are interleaved across SSDs in `chunk_blocks`-sized chunks.
    Striped {
        /// Stripe unit in logical blocks.
        chunk_blocks: u64,
    },
}

/// An array of simulated SSDs presenting a single logical block space.
pub struct SsdArray {
    devices: Vec<SsdDevice>,
    layout: DataLayout,
}

impl std::fmt::Debug for SsdArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdArray")
            .field("num_devices", &self.devices.len())
            .field("layout", &self.layout)
            .finish()
    }
}

impl SsdArray {
    /// Builds an array of `count` identical devices, each with
    /// `capacity_bytes` of media, DMA-attached to `dma_region`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(
        spec: SsdSpec,
        count: usize,
        dma_region: Arc<ByteRegion>,
        capacity_bytes: u64,
        layout: DataLayout,
    ) -> Self {
        assert!(count > 0, "an SSD array needs at least one device");
        let devices = (0..count)
            .map(|_| SsdDevice::new(spec.clone(), dma_region.clone(), capacity_bytes))
            .collect();
        Self { devices, layout }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` if the array has no devices (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Access a device by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn device(&self, idx: usize) -> &SsdDevice {
        &self.devices[idx]
    }

    /// Iterates over the devices.
    pub fn iter(&self) -> impl Iterator<Item = &SsdDevice> {
        self.devices.iter()
    }

    /// Does nothing, like [`SsdDevice::start`]: no device runs a thread of
    /// its own. Kept for callers written against the former service
    /// threads.
    pub fn start(&mut self) {}

    /// Creates `queues_per_device` queue pairs of `entries` entries on every
    /// device, returning them grouped per device.
    ///
    /// # Errors
    ///
    /// Propagates queue-allocation failures.
    pub fn create_queues(
        &self,
        alloc: &BumpAllocator,
        queues_per_device: usize,
        entries: u32,
    ) -> Result<Vec<Vec<Arc<QueuePair>>>, NvmeError> {
        let mut all = Vec::with_capacity(self.devices.len());
        for d in &self.devices {
            let mut per_dev = Vec::with_capacity(queues_per_device);
            for _ in 0..queues_per_device {
                per_dev.push(d.create_queue_pair(alloc, entries)?);
            }
            all.push(per_dev);
        }
        Ok(all)
    }

    /// Maps a logical block of the dataset to `(device index, device LBA)`
    /// for a *read*, given a round-robin hint used under replication.
    pub fn locate_read(&self, logical_lba: Lba, rr_hint: usize) -> (usize, Lba) {
        match self.layout {
            DataLayout::Replicated => (rr_hint % self.devices.len(), logical_lba),
            DataLayout::Striped { chunk_blocks } => self.locate_striped(logical_lba, chunk_blocks),
        }
    }

    /// Maps a logical block to every `(device index, device LBA)` that must
    /// be written to keep the layout consistent: every replica, or the one
    /// stripe holding the block.
    pub fn locate_write(&self, logical_lba: Lba) -> impl Iterator<Item = (usize, Lba)> {
        let (devices, lba) = match self.layout {
            DataLayout::Replicated => (0..self.devices.len(), logical_lba),
            DataLayout::Striped { chunk_blocks } => {
                let (device, lba) = self.locate_striped(logical_lba, chunk_blocks);
                (device..device + 1, lba)
            }
        };
        devices.map(move |device| (device, lba))
    }

    fn locate_striped(&self, logical_lba: Lba, chunk_blocks: u64) -> (usize, Lba) {
        let n = self.devices.len() as u64;
        let chunk = logical_lba / chunk_blocks;
        let within = logical_lba % chunk_blocks;
        let device = (chunk % n) as usize;
        let device_chunk = chunk / n;
        (device, device_chunk * chunk_blocks + within)
    }

    /// Preloads `data` onto the array starting at logical byte offset
    /// `byte_offset`, honouring the layout (replication copies to every
    /// device; striping splits).
    ///
    /// # Errors
    ///
    /// Propagates media errors.
    pub fn preload(&self, byte_offset: u64, data: &[u8]) -> Result<(), NvmeError> {
        match self.layout {
            DataLayout::Replicated => {
                for d in &self.devices {
                    d.media().write_bytes(byte_offset, data)?;
                }
                Ok(())
            }
            DataLayout::Striped { chunk_blocks } => {
                let chunk_bytes = chunk_blocks * BLOCK_SIZE as u64;
                assert_eq!(
                    byte_offset % chunk_bytes,
                    0,
                    "striped preload must start on a stripe-unit boundary"
                );
                let mut off = 0u64;
                while off < data.len() as u64 {
                    let logical_lba = (byte_offset + off) / BLOCK_SIZE as u64;
                    let (dev, dev_lba) = self.locate_striped(logical_lba, chunk_blocks);
                    let n = (chunk_bytes).min(data.len() as u64 - off) as usize;
                    self.devices[dev].media().write_bytes(
                        dev_lba * BLOCK_SIZE as u64,
                        &data[off as usize..off as usize + n],
                    )?;
                    off += n as u64;
                }
                Ok(())
            }
        }
    }

    /// Aggregated statistics across all devices.
    pub fn stats(&self) -> Vec<StatsSnapshot> {
        self.devices.iter().map(|d| d.stats()).collect()
    }

    /// Total commands completed across the array.
    pub fn total_commands(&self) -> u64 {
        self.stats().iter().map(|s| s.total_commands()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> (Arc<ByteRegion>, BumpAllocator) {
        let r = Arc::new(ByteRegion::new(16 << 20));
        let a = BumpAllocator::new(r.len() as u64);
        (r, a)
    }

    #[test]
    fn replicated_preload_copies_everywhere() {
        let (r, _a) = region();
        let arr = SsdArray::new(
            SsdSpec::intel_optane_p5800x(),
            3,
            r,
            1 << 20,
            DataLayout::Replicated,
        );
        arr.preload(0, &[0xABu8; 2048]).unwrap();
        for d in arr.iter() {
            let mut out = [0u8; 2048];
            d.media().read_bytes(0, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == 0xAB));
        }
    }

    #[test]
    fn replicated_reads_round_robin_and_writes_fan_out() {
        let (r, _a) = region();
        let arr = SsdArray::new(
            SsdSpec::intel_optane_p5800x(),
            4,
            r,
            1 << 20,
            DataLayout::Replicated,
        );
        let devices: Vec<usize> = (0..8).map(|i| arr.locate_read(10, i).0).collect();
        assert_eq!(devices, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(arr.locate_write(10).count(), 4);
    }

    #[test]
    fn striped_layout_interleaves_and_roundtrips() {
        let (r, _a) = region();
        let arr = SsdArray::new(
            SsdSpec::samsung_980pro(),
            4,
            r,
            1 << 20,
            DataLayout::Striped { chunk_blocks: 8 },
        );
        // Chunk c goes to device c % 4 at chunk index c / 4.
        assert_eq!(arr.locate_read(0, 99), (0, 0));
        assert_eq!(arr.locate_read(8, 99), (1, 0));
        assert_eq!(arr.locate_read(16, 99), (2, 0));
        assert_eq!(arr.locate_read(33, 99), (0, 9)); // chunk 4 → dev 0, chunk idx 1, block 1
                                                     // Preload then read back through the mapping.
        let data: Vec<u8> = (0..512 * 64).map(|i| (i % 249) as u8).collect();
        arr.preload(0, &data).unwrap();
        for lba in 0..64u64 {
            let (dev, dev_lba) = arr.locate_read(lba, 0);
            let mut out = [0u8; 512];
            arr.device(dev)
                .media()
                .read_bytes(dev_lba * 512, &mut out)
                .unwrap();
            assert_eq!(out[..], data[(lba as usize) * 512..][..512], "lba {lba}");
        }
    }

    #[test]
    fn write_targets_single_device_when_striped() {
        let (r, _a) = region();
        let arr = SsdArray::new(
            SsdSpec::samsung_pm1735(),
            2,
            r,
            1 << 20,
            DataLayout::Striped { chunk_blocks: 4 },
        );
        assert_eq!(arr.locate_write(5).count(), 1);
    }

    #[test]
    fn queues_created_on_every_device() {
        let (r, a) = region();
        let arr = SsdArray::new(
            SsdSpec::intel_optane_p5800x(),
            2,
            r,
            1 << 20,
            DataLayout::Replicated,
        );
        let queues = arr.create_queues(&a, 3, 64).unwrap();
        assert_eq!(queues.len(), 2);
        assert!(queues.iter().all(|q| q.len() == 3));
        assert_eq!(arr.device(0).controller().num_queues(), 3);
    }
}

//! The SSD media: a sparse, thread-safe block store.

use std::collections::HashMap;

use parking_lot::RwLock;

use crate::error::NvmeError;
use crate::Lba;

/// Blocks per extent in the sparse map. Extents are allocated lazily on first
/// write so that multi-terabyte namespaces cost nothing until used.
const BLOCKS_PER_EXTENT: u64 = 256;

/// A sparse block store modelling the SSD's media.
///
/// Reads of never-written blocks return zeroes, like a freshly formatted
/// namespace. All operations are thread-safe; concurrent writers to the same
/// block are serialized per extent.
///
/// # Examples
///
/// ```
/// use bam_nvme_sim::BlockStore;
/// let store = BlockStore::new(512, 1 << 20);
/// store.write_blocks(10, &[7u8; 1024]).unwrap();
/// let mut out = vec![0u8; 1024];
/// store.read_blocks(10, &mut out).unwrap();
/// assert!(out.iter().all(|&b| b == 7));
/// ```
pub struct BlockStore {
    block_size: usize,
    num_blocks: u64,
    extents: RwLock<HashMap<u64, Box<[u8]>>>,
}

impl std::fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStore")
            .field("block_size", &self.block_size)
            .field("num_blocks", &self.num_blocks)
            .field("resident_extents", &self.extents.read().len())
            .finish()
    }
}

impl BlockStore {
    /// Creates a store of `num_blocks` blocks of `block_size` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or `num_blocks` is zero.
    pub fn new(block_size: usize, num_blocks: u64) -> Self {
        assert!(
            block_size > 0 && num_blocks > 0,
            "block store dimensions must be non-zero"
        );
        Self {
            block_size,
            num_blocks,
            extents: RwLock::new(HashMap::new()),
        }
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total number of logical blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.num_blocks * self.block_size as u64
    }

    /// Number of bytes of media actually resident in memory.
    #[cfg(test)]
    fn resident_bytes(&self) -> u64 {
        self.extents.read().len() as u64 * BLOCKS_PER_EXTENT * self.block_size as u64
    }

    fn check_range(&self, slba: Lba, nblocks: u64) -> Result<(), NvmeError> {
        if slba.checked_add(nblocks).map(|end| end <= self.num_blocks) != Some(true) {
            return Err(NvmeError::LbaOutOfRange {
                slba,
                nblocks,
                capacity: self.num_blocks,
            });
        }
        Ok(())
    }

    fn whole_blocks(&self, len: usize) -> Result<u64, NvmeError> {
        if !len.is_multiple_of(self.block_size) {
            return Err(NvmeError::UnalignedBuffer {
                len,
                block_size: self.block_size,
            });
        }
        Ok((len / self.block_size) as u64)
    }

    /// Visits `nblocks` blocks starting at `slba` in place, without copying
    /// them out: `visit(i, Some(bytes))` for the `i`-th block of the range,
    /// or `visit(i, None)` when it was never written (it reads as zeroes).
    /// This is the controller's DMA source for read commands.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds the
    /// namespace.
    pub fn read_blocks_with(
        &self,
        slba: Lba,
        nblocks: u64,
        mut visit: impl FnMut(u64, Option<&[u8]>),
    ) -> Result<(), NvmeError> {
        self.check_range(slba, nblocks)?;
        let extents = self.extents.read();
        for i in 0..nblocks {
            let lba = slba + i;
            let offset_in_extent = (lba % BLOCKS_PER_EXTENT) as usize * self.block_size;
            visit(
                i,
                extents
                    .get(&(lba / BLOCKS_PER_EXTENT))
                    .map(|extent| &extent[offset_in_extent..offset_in_extent + self.block_size]),
            );
        }
        Ok(())
    }

    /// Lets `fill(i, block)` overwrite each of `nblocks` blocks starting at
    /// `slba` in place (the controller's DMA sink for write commands).
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds the
    /// namespace.
    pub fn write_blocks_with(
        &self,
        slba: Lba,
        nblocks: u64,
        mut fill: impl FnMut(u64, &mut [u8]),
    ) -> Result<(), NvmeError> {
        self.check_range(slba, nblocks)?;
        let mut extents = self.extents.write();
        let extent_bytes = BLOCKS_PER_EXTENT as usize * self.block_size;
        for i in 0..nblocks {
            let lba = slba + i;
            let offset_in_extent = (lba % BLOCKS_PER_EXTENT) as usize * self.block_size;
            let extent = extents
                .entry(lba / BLOCKS_PER_EXTENT)
                .or_insert_with(|| vec![0u8; extent_bytes].into_boxed_slice());
            fill(
                i,
                &mut extent[offset_in_extent..offset_in_extent + self.block_size],
            );
        }
        Ok(())
    }

    /// Reads whole blocks starting at `slba` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds the
    /// namespace, or [`NvmeError::UnalignedBuffer`] if `buf` is not a whole
    /// number of blocks.
    pub fn read_blocks(&self, slba: Lba, buf: &mut [u8]) -> Result<(), NvmeError> {
        let nblocks = self.whole_blocks(buf.len())?;
        let bs = self.block_size;
        self.read_blocks_with(slba, nblocks, |i, block| {
            let dst = &mut buf[i as usize * bs..][..bs];
            match block {
                Some(bytes) => dst.copy_from_slice(bytes),
                None => dst.fill(0),
            }
        })
    }

    /// Writes whole blocks starting at `slba` from `data`.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds the
    /// namespace, or [`NvmeError::UnalignedBuffer`] if `data` is not a whole
    /// number of blocks.
    pub fn write_blocks(&self, slba: Lba, data: &[u8]) -> Result<(), NvmeError> {
        let nblocks = self.whole_blocks(data.len())?;
        let bs = self.block_size;
        self.write_blocks_with(slba, nblocks, |i, block| {
            block.copy_from_slice(&data[i as usize * bs..][..bs]);
        })
    }

    /// Writes an arbitrary byte range (not necessarily block aligned) at byte
    /// offset `byte_offset`. Convenience for loading datasets onto the media.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds capacity.
    pub fn write_bytes(&self, byte_offset: u64, data: &[u8]) -> Result<(), NvmeError> {
        if data.is_empty() {
            return Ok(());
        }
        let bs = self.block_size as u64;
        let first_lba = byte_offset / bs;
        let last_lba = (byte_offset + data.len() as u64 - 1) / bs;
        let nblocks = last_lba - first_lba + 1;
        self.check_range(first_lba, nblocks)?;
        // Read-modify-write the covering block range.
        let mut tmp = vec![0u8; (nblocks * bs) as usize];
        self.read_blocks(first_lba, &mut tmp)?;
        let start = (byte_offset - first_lba * bs) as usize;
        tmp[start..start + data.len()].copy_from_slice(data);
        self.write_blocks(first_lba, &tmp)
    }

    /// Reads an arbitrary byte range at byte offset `byte_offset`.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds capacity.
    pub fn read_bytes(&self, byte_offset: u64, buf: &mut [u8]) -> Result<(), NvmeError> {
        if buf.is_empty() {
            return Ok(());
        }
        let bs = self.block_size as u64;
        let first_lba = byte_offset / bs;
        let last_lba = (byte_offset + buf.len() as u64 - 1) / bs;
        let nblocks = last_lba - first_lba + 1;
        self.check_range(first_lba, nblocks)?;
        let mut tmp = vec![0u8; (nblocks * bs) as usize];
        self.read_blocks(first_lba, &mut tmp)?;
        let start = (byte_offset - first_lba * bs) as usize;
        buf.copy_from_slice(&tmp[start..start + buf.len()]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_zero() {
        let s = BlockStore::new(512, 1024);
        let mut buf = vec![0xFFu8; 512];
        s.read_blocks(100, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_roundtrip_across_extents() {
        let s = BlockStore::new(512, 4096);
        let data: Vec<u8> = (0..512 * 600).map(|i| (i % 251) as u8).collect();
        // Spans more than one 256-block extent.
        s.write_blocks(200, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        s.read_blocks(200, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn out_of_range_rejected() {
        let s = BlockStore::new(512, 16);
        let mut buf = vec![0u8; 512 * 2];
        assert!(matches!(
            s.read_blocks(15, &mut buf),
            Err(NvmeError::LbaOutOfRange { .. })
        ));
        assert!(matches!(
            s.write_blocks(16, &buf),
            Err(NvmeError::LbaOutOfRange { .. })
        ));
    }

    #[test]
    fn unaligned_buffer_rejected() {
        let s = BlockStore::new(512, 16);
        let mut buf = vec![0u8; 100];
        assert!(matches!(
            s.read_blocks(0, &mut buf),
            Err(NvmeError::UnalignedBuffer { .. })
        ));
    }

    #[test]
    fn byte_granular_io() {
        let s = BlockStore::new(512, 1024);
        let data = [9u8; 1000];
        s.write_bytes(300, &data).unwrap();
        let mut out = [0u8; 1000];
        s.read_bytes(300, &mut out).unwrap();
        assert_eq!(out, data);
        // Neighbouring bytes untouched.
        let mut b = [0u8; 1];
        s.read_bytes(299, &mut b).unwrap();
        assert_eq!(b[0], 0);
    }

    #[test]
    fn sparse_storage_is_lazy() {
        let s = BlockStore::new(512, 1 << 30); // "512 GiB" namespace
        assert_eq!(s.resident_bytes(), 0);
        s.write_blocks(12345, &[1u8; 512]).unwrap();
        assert!(s.resident_bytes() <= 256 * 512);
        assert_eq!(s.capacity_bytes(), 512u64 << 30);
    }
}

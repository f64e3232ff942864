//! The SSD media: a sparse, thread-safe block store whose reads take no
//! lock.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;

use bam_mem::{ByteRegion, DevAddr};

use crate::error::NvmeError;
use crate::Lba;

/// Blocks per extent. Extents are allocated lazily on first write so that
/// multi-terabyte namespaces cost nothing until used.
const BLOCKS_PER_EXTENT: u64 = 256;

/// Extents per leaf of the two-level extent table. A leaf is allocated on
/// the first write to any of its extents.
const EXTENTS_PER_LEAF: u64 = 512;

/// One extent of written media, with its own sequence word.
///
/// The sequence word is even while the extent is quiescent and odd while a
/// writer holds it; each write adds 2. Writers take it with a
/// compare-exchange, which serialises them. Readers take nothing: they copy,
/// then retry if the word was odd or changed meanwhile, so a copy that
/// returns saw no write in progress.
struct Extent {
    seq: AtomicU64,
    bytes: ByteRegion,
}

/// [`EXTENTS_PER_LEAF`] extent slots (fewer in the namespace's last leaf).
type Leaf = Box<[OnceLock<Extent>]>;

/// Busy-spins briefly, then yields, so that a writer preempted while it
/// holds an extent can finish.
fn back_off(spins: &mut u64) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl Extent {
    fn new(len: usize) -> Self {
        Self {
            seq: AtomicU64::new(0),
            bytes: ByteRegion::new(len),
        }
    }

    /// Runs `copy` on the extent's bytes while holding its write lock.
    fn write(&self, copy: impl FnOnce(&ByteRegion)) {
        let mut spins = 0;
        let mut seq = self.seq.load(Ordering::Relaxed);
        loop {
            if seq.is_multiple_of(2) {
                match self.seq.compare_exchange_weak(
                    seq,
                    seq + 1,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(now) => seq = now,
                }
            } else {
                back_off(&mut spins);
                seq = self.seq.load(Ordering::Relaxed);
            }
        }
        // A reader that sees any byte of this write also sees the odd word.
        fence(Ordering::Release);
        copy(&self.bytes);
        self.seq.store(seq + 2, Ordering::Release);
    }

    /// Runs `copy` on the extent's bytes until one run overlaps no write.
    fn read(&self, mut copy: impl FnMut(&ByteRegion)) {
        let mut spins = 0;
        loop {
            let seq = self.seq.load(Ordering::Acquire);
            if seq.is_multiple_of(2) {
                copy(&self.bytes);
                // Orders the copy's loads before the second look at the word.
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == seq {
                    return;
                }
            }
            back_off(&mut spins);
        }
    }
}

/// A sparse block store modelling the SSD's media.
///
/// The media is a two-level table of extents of 256 blocks, indexed by
/// position: `lba / 256` picks the extent, and its quotient by 512 the leaf.
/// Both levels are `OnceLock`s, created by the first write into them, so
/// memory follows what was written, and reaching an extent is two loads with
/// no lock and no hash.
/// Reads of never-written blocks return zeroes, like a freshly formatted
/// namespace.
///
/// All operations are thread-safe. Writers to one extent are serialised by
/// its sequence word; readers take no lock and retry a copy that overlapped
/// a write. Every copy lies in one extent, so a read racing a write sees each
/// block whole, either before or after the write.
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
    leaves: Box<[OnceLock<Leaf>]>,
}

impl std::fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStore")
            .field("block_size", &self.block_size)
            .field("num_blocks", &self.num_blocks)
            .field("resident_extents", &self.resident_extents().count())
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
        let extents = num_blocks.div_ceil(BLOCKS_PER_EXTENT);
        let leaves = extents.div_ceil(EXTENTS_PER_LEAF) as usize;
        Self {
            block_size,
            num_blocks,
            leaves: (0..leaves).map(|_| OnceLock::new()).collect(),
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

    /// The extents written so far.
    fn resident_extents(&self) -> impl Iterator<Item = &Extent> {
        self.leaves
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|leaf| leaf.iter().filter_map(OnceLock::get))
    }

    /// Number of bytes of media actually resident in memory.
    #[cfg(test)]
    fn resident_bytes(&self) -> u64 {
        self.resident_extents().map(|e| e.bytes.len() as u64).sum()
    }

    /// Extent `index`, if it was ever written.
    fn extent(&self, index: u64) -> Option<&Extent> {
        let leaf = self.leaves[(index / EXTENTS_PER_LEAF) as usize].get()?;
        leaf[(index % EXTENTS_PER_LEAF) as usize].get()
    }

    /// Extent `index`, created (zeroed) with its leaf if need be. The last
    /// leaf and the last extent of the namespace are cut to what it holds.
    fn extent_for_write(&self, index: u64) -> &Extent {
        let leaf_index = index / EXTENTS_PER_LEAF;
        let leaf = self.leaves[leaf_index as usize].get_or_init(|| {
            let extents = self.num_blocks.div_ceil(BLOCKS_PER_EXTENT);
            let len = (extents - leaf_index * EXTENTS_PER_LEAF).min(EXTENTS_PER_LEAF);
            (0..len).map(|_| OnceLock::new()).collect()
        });
        leaf[(index % EXTENTS_PER_LEAF) as usize].get_or_init(|| {
            let blocks = (self.num_blocks - index * BLOCKS_PER_EXTENT).min(BLOCKS_PER_EXTENT);
            Extent::new(blocks as usize * self.block_size)
        })
    }

    /// Calls `run(extent, offset_in_extent, offset_in_range, len)` for each
    /// piece of the in-range bytes `[byte_offset, byte_offset + len)` that
    /// lies in one extent, in ascending order.
    fn for_each_run(
        &self,
        byte_offset: u64,
        len: usize,
        mut run: impl FnMut(u64, u64, usize, usize),
    ) {
        let extent_bytes = BLOCKS_PER_EXTENT * self.block_size as u64;
        let mut done = 0usize;
        while done < len {
            let at = byte_offset + done as u64;
            let offset = at % extent_bytes;
            let n = ((extent_bytes - offset) as usize).min(len - done);
            run(at / extent_bytes, offset, done, n);
            done += n;
        }
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

    /// Checks that the bytes `[byte_offset, byte_offset + len)` lie inside
    /// the namespace.
    fn check_bytes(&self, byte_offset: u64, len: usize) -> Result<(), NvmeError> {
        let bs = self.block_size as u64;
        let first_lba = byte_offset / bs;
        let last_lba = byte_offset.saturating_add(len as u64 - 1) / bs;
        self.check_range(first_lba, last_lba - first_lba + 1)
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

    /// Copies `nblocks` blocks starting at `slba` into `dst` at `addr`, word
    /// to word when the two sit at the same offset within their words
    /// ([`ByteRegion::copy_from`]). Never-written blocks arrive as zeroes.
    /// This is the controller's DMA for read commands.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds the
    /// namespace.
    ///
    /// # Panics
    ///
    /// Panics if the destination range is outside `dst`.
    pub fn read_into(
        &self,
        slba: Lba,
        nblocks: u64,
        dst: &ByteRegion,
        addr: DevAddr,
    ) -> Result<(), NvmeError> {
        self.check_range(slba, nblocks)?;
        let bs = self.block_size as u64;
        self.for_each_run(
            slba * bs,
            (nblocks * bs) as usize,
            |index, offset, at, n| {
                let to = addr + at as u64;
                match self.extent(index) {
                    Some(extent) => extent.read(|bytes| dst.copy_from(to, bytes, offset, n)),
                    None => dst.fill(to, n, 0),
                }
            },
        );
        Ok(())
    }

    /// Copies `nblocks` blocks starting at `slba` from `src` at `addr` onto
    /// the media, word to word like [`BlockStore::read_into`]. This is the
    /// controller's DMA for write commands.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds the
    /// namespace.
    ///
    /// # Panics
    ///
    /// Panics if the source range is outside `src`.
    pub fn write_from(
        &self,
        slba: Lba,
        nblocks: u64,
        src: &ByteRegion,
        addr: DevAddr,
    ) -> Result<(), NvmeError> {
        self.check_range(slba, nblocks)?;
        let bs = self.block_size as u64;
        self.for_each_run(
            slba * bs,
            (nblocks * bs) as usize,
            |index, offset, at, n| {
                self.extent_for_write(index)
                    .write(|bytes| bytes.copy_from(offset, src, addr + at as u64, n));
            },
        );
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
        self.check_range(slba, self.whole_blocks(buf.len())?)?;
        self.read_range(slba * self.block_size as u64, buf);
        Ok(())
    }

    /// Writes whole blocks starting at `slba` from `data`.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds the
    /// namespace, or [`NvmeError::UnalignedBuffer`] if `data` is not a whole
    /// number of blocks.
    pub fn write_blocks(&self, slba: Lba, data: &[u8]) -> Result<(), NvmeError> {
        self.check_range(slba, self.whole_blocks(data.len())?)?;
        self.write_range(slba * self.block_size as u64, data);
        Ok(())
    }

    /// Writes an arbitrary byte range (not necessarily block aligned) at byte
    /// offset `byte_offset`, extent by extent with no staging copy.
    /// Convenience for loading datasets onto the media.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds capacity.
    pub fn write_bytes(&self, byte_offset: u64, data: &[u8]) -> Result<(), NvmeError> {
        if data.is_empty() {
            return Ok(());
        }
        self.check_bytes(byte_offset, data.len())?;
        self.write_range(byte_offset, data);
        Ok(())
    }

    /// Reads an arbitrary byte range at byte offset `byte_offset`, extent by
    /// extent with no staging copy.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds capacity.
    pub fn read_bytes(&self, byte_offset: u64, buf: &mut [u8]) -> Result<(), NvmeError> {
        if buf.is_empty() {
            return Ok(());
        }
        self.check_bytes(byte_offset, buf.len())?;
        self.read_range(byte_offset, buf);
        Ok(())
    }

    /// Reads the in-range bytes at `byte_offset` into `buf`.
    fn read_range(&self, byte_offset: u64, buf: &mut [u8]) {
        self.for_each_run(byte_offset, buf.len(), |index, offset, at, n| {
            let out = &mut buf[at..at + n];
            match self.extent(index) {
                Some(extent) => extent.read(|bytes| bytes.read_bytes(offset, out)),
                None => out.fill(0),
            }
        });
    }

    /// Writes `data` to the in-range bytes at `byte_offset`.
    fn write_range(&self, byte_offset: u64, data: &[u8]) {
        self.for_each_run(byte_offset, data.len(), |index, offset, at, n| {
            self.extent_for_write(index)
                .write(|bytes| bytes.write_bytes(offset, &data[at..at + n]));
        });
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
    fn byte_io_crosses_extents_without_touching_neighbours() {
        let s = BlockStore::new(512, 1024);
        let boundary = BLOCKS_PER_EXTENT * 512;
        let data: Vec<u8> = (0..700).map(|i| (i % 253) as u8 + 1).collect();
        s.write_bytes(boundary - 300, &data).unwrap();
        let mut out = vec![0u8; 702];
        s.read_bytes(boundary - 301, &mut out).unwrap();
        assert_eq!(out[0], 0);
        assert_eq!(&out[1..701], &data[..]);
        assert_eq!(out[701], 0);
    }

    #[test]
    fn sparse_table_edges() {
        // Two leaves, the second holding 3 extents, the last of which holds
        // 17 blocks: neither the extent count nor the block count is a
        // multiple of its level's size.
        let extents = EXTENTS_PER_LEAF + 3;
        let blocks = (extents - 1) * BLOCKS_PER_EXTENT + 17;
        let s = BlockStore::new(512, blocks);
        assert_eq!(s.leaves.len(), 2);
        s.write_blocks(0, &[0xA1; 512]).unwrap();
        s.write_blocks(blocks - 1, &[0xB2; 512]).unwrap();
        assert!(s.write_blocks(blocks, &[0; 512]).is_err());
        assert_eq!(
            s.resident_bytes(),
            (BLOCKS_PER_EXTENT + 17) * 512,
            "only the two written extents are resident, the last one cut to 17 blocks"
        );
        let region = ByteRegion::new(3 * 512);
        region.fill(0, 3 * 512, 0xEE);
        s.read_into(0, 1, &region, 0).unwrap();
        s.read_into(blocks - 1, 1, &region, 512).unwrap();
        // An unwritten extent in the first leaf, then one in the second.
        s.read_into(BLOCKS_PER_EXTENT * 7, 1, &region, 1024)
            .unwrap();
        let mut out = vec![0u8; 3 * 512];
        region.read_bytes(0, &mut out);
        assert!(out[..512].iter().all(|&b| b == 0xA1));
        assert!(out[512..1024].iter().all(|&b| b == 0xB2));
        assert!(out[1024..].iter().all(|&b| b == 0));
        let mut buf = vec![0xFFu8; 512];
        s.read_blocks(EXTENTS_PER_LEAF * BLOCKS_PER_EXTENT + 5, &mut buf)
            .unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(s.resident_bytes(), (BLOCKS_PER_EXTENT + 17) * 512);
    }

    #[test]
    fn a_read_racing_writes_sees_each_block_whole() {
        use std::sync::atomic::AtomicBool;
        const LBA: u64 = 300;
        let s = BlockStore::new(512, 1024);
        s.write_blocks(LBA, &[0x11; 512]).unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let patterns = [[0x11u8; 512], [0xEEu8; 512]];
                for i in 0..20_000 {
                    s.write_blocks(LBA, &patterns[i % 2]).unwrap();
                }
                done.store(true, Ordering::Release);
            });
            for _ in 0..2 {
                scope.spawn(|| {
                    let region = ByteRegion::new(512);
                    let mut out = [0u8; 512];
                    let mut copies = 0u64;
                    while !done.load(Ordering::Acquire) || copies == 0 {
                        s.read_into(LBA, 1, &region, 0).unwrap();
                        region.read_bytes(0, &mut out);
                        assert!(
                            out.iter().all(|&b| b == out[0]) && [0x11, 0xEE].contains(&out[0]),
                            "a torn block: {:?}",
                            &out[..16]
                        );
                        copies += 1;
                    }
                });
            }
        });
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

//! A concurrently accessible byte region used to model device memory.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::view::{Pod, MAX_POD_BYTES};
use crate::DevAddr;

/// Stack staging buffer of the fill and region-to-region copy loops.
const COPY_CHUNK: usize = 512;

/// A fixed-size, thread-safe byte region.
///
/// `ByteRegion` models a slab of device memory (GPU HBM, host DRAM pinned for
/// DMA, or an SSD's BAR space). Any number of threads may read and write any
/// byte range concurrently without locks; racy accesses yield unspecified but
/// memory-safe byte values, the same guarantee device memory gives racing
/// agents. Higher-level protocols are responsible for ordering.
///
/// Internally the region is an array of `AtomicU64` words; sub-word accesses
/// are performed with read-modify-write loops on the containing word.
///
/// # Examples
///
/// ```
/// use bam_mem::ByteRegion;
/// let r = ByteRegion::new(1024);
/// r.write_bytes(3, &0xDEAD_BEEFu32.to_le_bytes());
/// assert_eq!(r.read_pod::<u32>(3), 0xDEAD_BEEF);
/// ```
pub struct ByteRegion {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl std::fmt::Debug for ByteRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteRegion")
            .field("len", &self.len)
            .finish()
    }
}

impl ByteRegion {
    /// Creates a zero-initialized region of `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "ByteRegion length must be non-zero");
        let nwords = len.div_ceil(8);
        let mut v = Vec::with_capacity(nwords);
        v.resize_with(nwords, || AtomicU64::new(0));
        Self {
            words: v.into_boxed_slice(),
            len,
        }
    }

    /// Returns the capacity of the region in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the region has zero capacity (never true in practice,
    /// as construction requires a non-zero length).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, addr: DevAddr, len: usize) {
        let end = addr as usize + len;
        assert!(
            end <= self.len,
            "out-of-bounds device access: addr={addr:#x} len={len} capacity={}",
            self.len
        );
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range `[addr, addr + buf.len())` is out of bounds.
    pub fn read_bytes(&self, addr: DevAddr, buf: &mut [u8]) {
        self.check(addr, buf.len());
        let mut pos = addr as usize;
        let mut out = 0usize;
        while out < buf.len() {
            let word_idx = pos / 8;
            let byte_in_word = pos % 8;
            let avail = (8 - byte_in_word).min(buf.len() - out);
            let word = self.words[word_idx].load(Ordering::Relaxed);
            let bytes = word.to_le_bytes();
            buf[out..out + avail].copy_from_slice(&bytes[byte_in_word..byte_in_word + avail]);
            pos += avail;
            out += avail;
        }
    }

    /// Writes `data` into the region starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range `[addr, addr + data.len())` is out of bounds.
    pub fn write_bytes(&self, addr: DevAddr, data: &[u8]) {
        self.check(addr, data.len());
        let mut pos = addr as usize;
        let mut consumed = 0usize;
        while consumed < data.len() {
            let word_idx = pos / 8;
            let byte_in_word = pos % 8;
            let avail = (8 - byte_in_word).min(data.len() - consumed);
            if avail == 8 {
                // Fast path: whole aligned word.
                let mut b = [0u8; 8];
                b.copy_from_slice(&data[consumed..consumed + 8]);
                self.words[word_idx].store(u64::from_le_bytes(b), Ordering::Relaxed);
            } else {
                // Partial word: read-modify-write loop on the containing word.
                let mask_bytes: u64 = if avail == 8 {
                    u64::MAX
                } else {
                    ((1u64 << (avail * 8)) - 1) << (byte_in_word * 8)
                };
                let mut new_bytes = [0u8; 8];
                new_bytes[byte_in_word..byte_in_word + avail]
                    .copy_from_slice(&data[consumed..consumed + avail]);
                let new_val = u64::from_le_bytes(new_bytes) & mask_bytes;
                let mut cur = self.words[word_idx].load(Ordering::Relaxed);
                loop {
                    let next = (cur & !mask_bytes) | new_val;
                    match self.words[word_idx].compare_exchange_weak(
                        cur,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(actual) => cur = actual,
                    }
                }
            }
            pos += avail;
            consumed += avail;
        }
    }

    /// Fills `len` bytes starting at `addr` with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn fill(&self, addr: DevAddr, len: usize, value: u8) {
        let chunk = [value; COPY_CHUNK];
        let mut done = 0usize;
        while done < len {
            let n = (len - done).min(COPY_CHUNK);
            self.write_bytes(addr + done as u64, &chunk[..n]);
            done += n;
        }
    }

    /// Reads one `T` at byte address `addr` (need not be aligned), decoding
    /// from a stack buffer: no allocation, and a single word load when the
    /// element does not straddle a word boundary.
    ///
    /// # Panics
    ///
    /// Panics if the element is out of bounds or wider than
    /// [`MAX_POD_BYTES`].
    #[inline]
    pub fn read_pod<T: Pod>(&self, addr: DevAddr) -> T {
        assert!(T::SIZE <= MAX_POD_BYTES, "element wider than MAX_POD_BYTES");
        let byte_in_word = addr as usize % 8;
        if byte_in_word + T::SIZE <= 8 {
            self.check(addr, T::SIZE);
            let word = self.words[addr as usize / 8].load(Ordering::Relaxed);
            let bytes = (word >> (byte_in_word * 8)).to_le_bytes();
            return T::from_bytes(&bytes[..T::SIZE]);
        }
        let mut buf = [0u8; MAX_POD_BYTES];
        self.read_bytes(addr, &mut buf[..T::SIZE]);
        T::from_bytes(&buf[..T::SIZE])
    }

    /// Copies `len` bytes from `src` in the region `from` to `dst` in this
    /// region, staged through a stack buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds.
    pub fn copy_from(&self, dst: DevAddr, from: &ByteRegion, src: DevAddr, len: usize) {
        let mut buf = [0u8; COPY_CHUNK];
        let mut done = 0usize;
        while done < len {
            let n = (len - done).min(COPY_CHUNK);
            from.read_bytes(src + done as u64, &mut buf[..n]);
            self.write_bytes(dst + done as u64, &buf[..n]);
            done += n;
        }
    }

    /// Copies `len` bytes within this region from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds.
    pub fn copy_within(&self, src: DevAddr, dst: DevAddr, len: usize) {
        self.copy_from(dst, self, src, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn roundtrip_unaligned() {
        let r = ByteRegion::new(64);
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
        r.write_bytes(3, &data);
        let mut out = [0u8; 11];
        r.read_bytes(3, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn unaligned_write_does_not_clobber_neighbours() {
        let r = ByteRegion::new(32);
        r.write_bytes(0, &[0xFF; 32]);
        r.write_bytes(5, &[0u8; 3]);
        let mut out = [0u8; 32];
        r.read_bytes(0, &mut out);
        for (i, b) in out.iter().enumerate() {
            if (5..8).contains(&i) {
                assert_eq!(*b, 0, "byte {i}");
            } else {
                assert_eq!(*b, 0xFF, "byte {i}");
            }
        }
    }

    #[test]
    fn fill_and_copy_within() {
        let r = ByteRegion::new(4096);
        r.fill(100, 200, 0x5A);
        let mut out = vec![0u8; 200];
        r.read_bytes(100, &mut out);
        assert!(out.iter().all(|&b| b == 0x5A));
        r.copy_within(100, 1000, 200);
        r.read_bytes(1000, &mut out);
        assert!(out.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn read_pod_matches_read_bytes_at_every_alignment() {
        let r = ByteRegion::new(64);
        let data: Vec<u8> = (1..=64).collect();
        r.write_bytes(0, &data);
        for addr in 0..48usize {
            assert_eq!(r.read_pod::<u8>(addr as u64), data[addr]);
            let want32 = u32::from_le_bytes(data[addr..addr + 4].try_into().unwrap());
            assert_eq!(r.read_pod::<u32>(addr as u64), want32, "u32 at {addr}");
            let want64 = u64::from_le_bytes(data[addr..addr + 8].try_into().unwrap());
            assert_eq!(r.read_pod::<u64>(addr as u64), want64, "u64 at {addr}");
        }
    }

    #[test]
    fn copy_from_moves_bytes_between_regions() {
        let a = ByteRegion::new(2048);
        let b = ByteRegion::new(2048);
        let data: Vec<u8> = (0..1500).map(|i| (i % 251) as u8).collect();
        a.write_bytes(3, &data);
        b.copy_from(77, &a, 3, data.len());
        let mut out = vec![0u8; data.len()];
        b.read_bytes(77, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn out_of_bounds_read_panics() {
        let r = ByteRegion::new(16);
        let mut b = [0u8; 8];
        r.read_bytes(12, &mut b);
    }

    #[test]
    fn concurrent_disjoint_writes_preserved() {
        let r = Arc::new(ByteRegion::new(8 * 1024));
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let r = r.clone();
            handles.push(thread::spawn(move || {
                let base = t as u64 * 1024;
                let data = vec![t + 1; 1024];
                for _ in 0..100 {
                    r.write_bytes(base, &data);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u8 {
            let mut buf = vec![0u8; 1024];
            r.read_bytes(t as u64 * 1024, &mut buf);
            assert!(buf.iter().all(|&b| b == t + 1), "lane {t}");
        }
    }
}

//! A concurrently accessible byte region used to model device memory.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::view::{Pod, MAX_POD_BYTES};
use crate::DevAddr;

/// Stack staging buffer of the fill and region-to-region copy loops.
const COPY_CHUNK: usize = 512;

/// Splits `len` bytes starting at byte `start` into `(head, words)`: `head`
/// bytes (at most 7) up to the first word boundary, then `words` whole words;
/// the rest (at most 7 bytes) is the tail.
#[inline]
fn split(start: usize, len: usize) -> (usize, usize) {
    let head = (start.wrapping_neg() % 8).min(len);
    (head, (len - head) / 8)
}

/// The panic of a failed bounds check, kept out of line so that the checks
/// in inlined accessors such as [`ByteRegion::read_pod`] stay small.
#[cold]
#[inline(never)]
fn out_of_bounds(addr: DevAddr, len: usize, capacity: usize) -> ! {
    panic!("out-of-bounds device access: addr={addr:#x} len={len} capacity={capacity}")
}

/// A fixed-size, thread-safe byte region.
///
/// `ByteRegion` models a slab of device memory (GPU HBM, host DRAM pinned for
/// DMA, or an SSD's BAR space). Any number of threads may read and write any
/// byte range concurrently without locks; racy accesses yield unspecified but
/// memory-safe byte values, the same guarantee device memory gives racing
/// agents. Higher-level protocols are responsible for ordering.
///
/// Internally the region is an array of `AtomicU64` words, and every access
/// walks its words in ascending order. A byte range splits into a head (the
/// up to 7 bytes before the first word boundary), a body of whole words and
/// a tail (the up to 7 bytes after the last one). The body moves one relaxed
/// `load` or `store` per word; the head and tail load the containing word,
/// or update it with a compare-exchange loop so that neighbouring bytes
/// written concurrently are kept. Every word therefore changes atomically:
/// a racing reader sees each word either before or after a write to it.
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

    /// Asserts that `[addr, addr + len)` lies inside the region and returns
    /// `addr` as a byte offset.
    #[inline]
    fn check(&self, addr: DevAddr, len: usize) -> usize {
        match addr.checked_add(len as u64) {
            Some(end) if end <= self.len as u64 => addr as usize,
            _ => out_of_bounds(addr, len, self.len),
        }
    }

    /// Copies the bytes `[off, off + out.len())` of word `idx` into `out`.
    #[inline]
    fn load_part(&self, idx: usize, off: usize, out: &mut [u8]) {
        let word = self.words[idx].load(Ordering::Relaxed).to_le_bytes();
        out.copy_from_slice(&word[off..off + out.len()]);
    }

    /// Replaces the bytes `[off, off + data.len())` of word `idx` with `data`,
    /// keeping the word's other bytes even under concurrent writers.
    /// `data` must be shorter than a word.
    #[inline]
    fn store_part(&self, idx: usize, off: usize, data: &[u8]) {
        debug_assert!(data.len() < 8 && off + data.len() <= 8);
        let mask = ((1u64 << (data.len() * 8)) - 1) << (off * 8);
        let mut bytes = [0u8; 8];
        bytes[off..off + data.len()].copy_from_slice(data);
        let new = u64::from_le_bytes(bytes);
        let word = &self.words[idx];
        let mut cur = word.load(Ordering::Relaxed);
        while let Err(actual) = word.compare_exchange_weak(
            cur,
            (cur & !mask) | new,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            cur = actual;
        }
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range `[addr, addr + buf.len())` is out of bounds.
    pub fn read_bytes(&self, addr: DevAddr, buf: &mut [u8]) {
        let start = self.check(addr, buf.len());
        let (head, nwords) = split(start, buf.len());
        let (head_buf, rest) = buf.split_at_mut(head);
        if head > 0 {
            self.load_part(start / 8, start % 8, head_buf);
        }
        let first = (start + head) / 8;
        let mut body = rest.chunks_exact_mut(8);
        for (chunk, word) in (&mut body).zip(&self.words[first..first + nwords]) {
            chunk.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
        }
        let tail = body.into_remainder();
        if !tail.is_empty() {
            self.load_part(first + nwords, 0, tail);
        }
    }

    /// Writes `data` into the region starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range `[addr, addr + data.len())` is out of bounds.
    pub fn write_bytes(&self, addr: DevAddr, data: &[u8]) {
        let start = self.check(addr, data.len());
        let (head, nwords) = split(start, data.len());
        let (head_data, rest) = data.split_at(head);
        if head > 0 {
            self.store_part(start / 8, start % 8, head_data);
        }
        let first = (start + head) / 8;
        let mut body = rest.chunks_exact(8);
        for (chunk, word) in (&mut body).zip(&self.words[first..first + nwords]) {
            let bytes: [u8; 8] = chunk.try_into().expect("chunks_exact(8)");
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
        let tail = body.remainder();
        if !tail.is_empty() {
            self.store_part(first + nwords, 0, tail);
        }
    }

    /// Fills `len` bytes starting at `addr` with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn fill(&self, addr: DevAddr, len: usize, value: u8) {
        self.check(addr, len);
        let chunk = [value; COPY_CHUNK];
        for done in (0..len).step_by(COPY_CHUNK) {
            let n = (len - done).min(COPY_CHUNK);
            self.write_bytes(addr + done as u64, &chunk[..n]);
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
            let start = self.check(addr, T::SIZE);
            let word = self.words[start / 8].load(Ordering::Relaxed);
            let bytes = (word >> (byte_in_word * 8)).to_le_bytes();
            return T::from_bytes(&bytes[..T::SIZE]);
        }
        let mut buf = [0u8; MAX_POD_BYTES];
        self.read_bytes(addr, &mut buf[..T::SIZE]);
        T::from_bytes(&buf[..T::SIZE])
    }

    /// Copies `len` bytes from `src` in the region `from` to `dst` in this
    /// region, without allocating. When `src` and `dst` sit at the same
    /// offset within their words (equal mod 8), the body moves word to word:
    /// one relaxed `load` and one `store` per word, with a ragged head and
    /// tail of at most 7 bytes each taking the partial-word path. Otherwise
    /// the copy is staged 512 bytes at a time through a stack buffer. Both
    /// paths write the same bytes and keep every byte outside the range.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds, or if `from` is this region
    /// and the two ranges overlap.
    pub fn copy_from(&self, dst: DevAddr, from: &ByteRegion, src: DevAddr, len: usize) {
        let d = self.check(dst, len);
        let s = from.check(src, len);
        assert!(
            !std::ptr::eq(self, from) || d + len <= s || s + len <= d,
            "overlapping copy within one region: src={src:#x} dst={dst:#x} len={len}"
        );
        if d % 8 != s % 8 {
            let mut buf = [0u8; COPY_CHUNK];
            for done in (0..len).step_by(COPY_CHUNK) {
                let n = (len - done).min(COPY_CHUNK);
                from.read_bytes(src + done as u64, &mut buf[..n]);
                self.write_bytes(dst + done as u64, &buf[..n]);
            }
            return;
        }
        let (head, nwords) = split(d, len);
        let mut part = [0u8; 8];
        if head > 0 {
            from.load_part(s / 8, s % 8, &mut part[..head]);
            self.store_part(d / 8, d % 8, &part[..head]);
        }
        let (dw, sw) = ((d + head) / 8, (s + head) / 8);
        for (to, word) in self.words[dw..dw + nwords]
            .iter()
            .zip(&from.words[sw..sw + nwords])
        {
            to.store(word.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        let tail = len - head - nwords * 8;
        if tail > 0 {
            from.load_part(sw + nwords, 0, &mut part[..tail]);
            self.store_part(dw + nwords, 0, &part[..tail]);
        }
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
    fn fill_covers_exactly_its_range() {
        let r = ByteRegion::new(4096);
        r.fill(100, 200, 0x5A);
        let mut out = vec![0u8; 4096];
        r.read_bytes(0, &mut out);
        for (i, &b) in out.iter().enumerate() {
            let want = if (100..300).contains(&i) { 0x5A } else { 0 };
            assert_eq!(b, want, "byte {i}");
        }
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
    fn copy_from_keeps_the_bytes_around_its_range() {
        let a = ByteRegion::new(2048);
        let b = ByteRegion::new(2048);
        b.fill(0, 2048, 0xEE);
        for (src, dst, len) in [(3, 75, 1500), (0, 8, 512), (5, 13, 2), (6, 14, 9)] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            a.write_bytes(src, &data);
            b.copy_from(dst, &a, src, len);
            let mut out = vec![0u8; len + 2];
            b.read_bytes(dst - 1, &mut out);
            assert_eq!(out[0], 0xEE, "byte before dst={dst}");
            assert_eq!(&out[1..=len], &data[..], "src={src} dst={dst}");
            assert_eq!(out[len + 1], 0xEE, "byte after dst={dst}");
            b.fill(0, 2048, 0xEE);
        }
    }

    #[test]
    fn copy_from_word_path_equals_the_staged_path_at_every_offset() {
        // Every (src % 8, dst % 8, len) with len in 0..=80: equal offsets
        // take the word path, the others the staged one. Both must write
        // exactly what a staged read-then-write writes, and nothing around it.
        const BASE: usize = 64;
        let from = ByteRegion::new(256);
        let data: Vec<u8> = (0..256).map(|i| (i * 7 + 3) as u8).collect();
        from.write_bytes(0, &data);
        for src_off in 0..8usize {
            for dst_off in 0..8usize {
                for len in 0..=80usize {
                    let (src, dst) = (BASE + src_off, BASE + dst_off);
                    let got = ByteRegion::new(256);
                    got.fill(0, 256, 0xEE);
                    got.copy_from(dst as u64, &from, src as u64, len);
                    let want = ByteRegion::new(256);
                    want.fill(0, 256, 0xEE);
                    let mut staged = vec![0u8; len];
                    from.read_bytes(src as u64, &mut staged);
                    want.write_bytes(dst as u64, &staged);
                    let (mut g, mut w) = (vec![0u8; 256], vec![0u8; 256]);
                    got.read_bytes(0, &mut g);
                    want.read_bytes(0, &mut w);
                    assert_eq!(g, w, "src={src} dst={dst} len={len}");
                    assert_eq!(&g[dst..dst + len], &data[src..src + len]);
                }
            }
        }
    }

    #[test]
    fn copy_from_within_one_region_copies_disjoint_ranges() {
        let r = ByteRegion::new(4096);
        r.fill(100, 200, 0x5A);
        r.copy_from(1004, &r, 100, 200);
        let mut out = vec![0u8; 200];
        r.read_bytes(1004, &mut out);
        assert!(out.iter().all(|&b| b == 0x5A));
    }

    #[test]
    #[should_panic(expected = "overlapping copy")]
    fn copy_from_within_one_region_rejects_overlap() {
        let r = ByteRegion::new(64);
        r.copy_from(8, &r, 0, 16);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn out_of_bounds_read_panics() {
        let r = ByteRegion::new(16);
        let mut b = [0u8; 8];
        r.read_bytes(12, &mut b);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn read_bytes_near_address_space_end_panics() {
        let r = ByteRegion::new(16);
        let mut b = [0u8; 8];
        r.read_bytes(u64::MAX - 3, &mut b);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn write_bytes_near_address_space_end_panics() {
        let r = ByteRegion::new(16);
        r.write_bytes(u64::MAX - 3, &[1u8; 8]);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn fill_near_address_space_end_panics() {
        let r = ByteRegion::new(16);
        r.fill(u64::MAX - 3, 8, 1);
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

    #[test]
    fn concurrent_unaligned_writes_sharing_words_keep_neighbours() {
        // Each 16-byte group holds four writers' ranges, [0,3) [3,5) [5,11)
        // [11,16), so every word is shared by two or three of them and each
        // range has a ragged head, tail, or both.
        const CUTS: [usize; 5] = [0, 3, 5, 11, 16];
        const GROUPS: usize = 64;
        let r = ByteRegion::new(GROUPS * 16);
        thread::scope(|s| {
            for part in 0..4 {
                let r = &r;
                s.spawn(move || {
                    let (lo, hi) = (CUTS[part], CUTS[part + 1]);
                    for round in 0..200u8 {
                        for g in 0..GROUPS {
                            let value = (part as u8 + 1) << 4 | (round & 0xF);
                            r.write_bytes((g * 16 + lo) as u64, &[value; 8][..hi - lo]);
                        }
                    }
                });
            }
        });
        let mut out = vec![0u8; GROUPS * 16];
        r.read_bytes(0, &mut out);
        for (i, &b) in out.iter().enumerate() {
            let part = CUTS.iter().rposition(|&c| c <= i % 16).unwrap();
            assert_eq!(b, (part as u8 + 1) << 4 | (199 & 0xF), "byte {i}");
        }
    }
}

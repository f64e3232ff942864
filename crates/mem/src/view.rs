//! Typed views over a [`ByteRegion`].
//!
//! The BaM API exposes storage-backed data as `bam::array<T>`. The simulated
//! equivalent needs to read and write `T` values out of raw device memory;
//! [`TypedSlice`] provides that, restricted to plain-old-data element types
//! via the [`Pod`] trait.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::{ByteRegion, DevAddr};

/// Marker trait for element types that can be stored in device memory as raw
/// little-endian bytes.
///
/// This is a sealed-style trait implemented only for the fixed-width integer
/// and float primitives; workloads in the reproduction use these element
/// types exclusively (the paper's workloads use 4- and 8-byte elements).
pub trait Pod: Copy + Send + Sync + 'static {
    /// Size of the element in bytes (at most [`MAX_POD_BYTES`]).
    const SIZE: usize;
    /// Encodes the value into `out` (little-endian). `out.len() == SIZE`.
    fn to_bytes(&self, out: &mut [u8]);
    /// Decodes a value from `bytes` (little-endian). `bytes.len() == SIZE`.
    fn from_bytes(bytes: &[u8]) -> Self;
}

/// Widest element [`ByteRegion::read_pod`] decodes; bounds the stack buffers
/// typed accesses stage through.
pub const MAX_POD_BYTES: usize = 16;

macro_rules! impl_pod {
    ($($t:ty),*) => {
        $(
            impl Pod for $t {
                const SIZE: usize = std::mem::size_of::<$t>();
                fn to_bytes(&self, out: &mut [u8]) {
                    out.copy_from_slice(&self.to_le_bytes());
                }
                fn from_bytes(bytes: &[u8]) -> Self {
                    let mut b = [0u8; std::mem::size_of::<$t>()];
                    b.copy_from_slice(bytes);
                    <$t>::from_le_bytes(b)
                }
            }
        )*
    };
}

impl_pod!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// A typed window of `len` elements of `T` starting at `base` in a region.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use bam_mem::{ByteRegion, TypedSlice};
/// let region = Arc::new(ByteRegion::new(1024));
/// let s: TypedSlice<u32> = TypedSlice::new(region, 0, 16);
/// s.set(3, 42);
/// assert_eq!(s.get(3), 42);
/// ```
#[derive(Clone)]
pub struct TypedSlice<T: Pod> {
    region: Arc<ByteRegion>,
    base: DevAddr,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Pod> std::fmt::Debug for TypedSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypedSlice")
            .field("base", &self.base)
            .field("len", &self.len)
            .field("elem_size", &T::SIZE)
            .finish()
    }
}

impl<T: Pod> TypedSlice<T> {
    /// Creates a typed view of `len` elements starting at byte address `base`.
    ///
    /// # Panics
    ///
    /// Panics if the view does not fit inside the region.
    pub fn new(region: Arc<ByteRegion>, base: DevAddr, len: usize) -> Self {
        let bytes = len * T::SIZE;
        assert!(
            base as usize + bytes <= region.len(),
            "typed slice out of bounds: base={base} len={len} elem={} region={}",
            T::SIZE,
            region.len()
        );
        Self {
            region,
            base,
            len,
            _marker: PhantomData,
        }
    }

    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the view has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte address of element `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn addr_of(&self, idx: usize) -> DevAddr {
        assert!(
            idx < self.len,
            "index {idx} out of bounds for length {}",
            self.len
        );
        self.base + (idx * T::SIZE) as u64
    }

    /// Reads element `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn get(&self, idx: usize) -> T {
        self.region.read_pod(self.addr_of(idx))
    }

    /// Writes element `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn set(&self, idx: usize, value: T) {
        let mut buf = [0u8; MAX_POD_BYTES];
        value.to_bytes(&mut buf[..T::SIZE]);
        self.region.write_bytes(self.addr_of(idx), &buf[..T::SIZE]);
    }

    /// Copies the whole view into a `Vec<T>`.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Fills the view from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != len()`.
    pub fn copy_from_slice(&self, values: &[T]) {
        assert_eq!(values.len(), self.len, "length mismatch");
        for (i, v) in values.iter().enumerate() {
            self.set(i, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrip_f64() {
        let region = Arc::new(ByteRegion::new(4096));
        let s: TypedSlice<f64> = TypedSlice::new(region, 8, 64);
        for i in 0..64 {
            s.set(i, i as f64 * 1.5);
        }
        for i in 0..64 {
            assert_eq!(s.get(i), i as f64 * 1.5);
        }
    }

    #[test]
    fn typed_roundtrip_u32_unaligned_base() {
        let region = Arc::new(ByteRegion::new(4096));
        let s: TypedSlice<u32> = TypedSlice::new(region, 3, 10);
        s.copy_from_slice(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(s.to_vec(), vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_view_panics() {
        let region = Arc::new(ByteRegion::new(64));
        let _s: TypedSlice<u64> = TypedSlice::new(region, 0, 9);
    }

    #[test]
    #[should_panic(expected = "index")]
    fn index_oob_panics() {
        let region = Arc::new(ByteRegion::new(64));
        let s: TypedSlice<u8> = TypedSlice::new(region, 0, 4);
        s.get(4);
    }
}

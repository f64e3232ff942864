//! Element types for typed access to a [`ByteRegion`](crate::ByteRegion).
//!
//! The BaM API exposes storage-backed data as `bam::array<T>`. The simulated
//! equivalent reads and writes `T` values out of raw device memory
//! ([`ByteRegion::read_pod`](crate::ByteRegion::read_pod)), restricted to
//! plain-old-data element types via the [`Pod`] trait.

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

/// Widest element [`ByteRegion::read_pod`](crate::ByteRegion::read_pod)
/// decodes; bounds the stack buffers typed accesses stage through.
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

//! A fixed-capacity vector that lives on the stack.
//!
//! The batched miss path tracks what one thread has in flight — staged
//! commands, claimed lines, requests waiting on them — and is bounded by
//! [`MAX_BATCH`], so none of that bookkeeping needs the heap.

use bam_gpu_sim::warp::WARP_SIZE;

/// Most lines one thread keeps in flight at once: a warp's worth.
pub(crate) const MAX_BATCH: usize = WARP_SIZE;

/// Up to `N` values of `T`, in push order.
pub(crate) struct FixedVec<T, const N: usize> {
    items: [Option<T>; N],
    len: usize,
}

impl<T, const N: usize> FixedVec<T, N> {
    pub(crate) fn new() -> Self {
        Self {
            items: std::array::from_fn(|_| None),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len == N
    }

    /// Appends `value`.
    ///
    /// # Panics
    ///
    /// Panics when full; callers drain at capacity.
    pub(crate) fn push(&mut self, value: T) {
        assert!(self.len < N, "FixedVec overflow");
        self.items[self.len] = Some(value);
        self.len += 1;
    }

    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.items[..self.len].iter().flatten()
    }

    pub(crate) fn clear(&mut self) {
        self.drain().for_each(drop);
    }

    /// Empties the vector, yielding its values in push order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        let len = std::mem::take(&mut self.len);
        self.items[..len]
            .iter_mut()
            .map(|slot| slot.take().expect("slots below len are filled"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_iterate_drain_and_reuse() {
        let mut v: FixedVec<String, 3> = FixedVec::new();
        assert!(v.is_empty());
        v.push("a".into());
        v.push("b".into());
        assert_eq!(v.len(), 2);
        assert!(!v.is_full());
        assert_eq!(v.iter().rev().cloned().collect::<Vec<_>>(), ["b", "a"]);
        assert_eq!(v.drain().collect::<Vec<_>>(), ["a", "b"]);
        assert!(v.is_empty());
        for s in ["x", "y", "z"] {
            v.push(s.into());
        }
        assert!(v.is_full());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn push_past_capacity_panics() {
        let mut v: FixedVec<u8, 1> = FixedVec::new();
        v.push(1);
        v.push(2);
    }
}

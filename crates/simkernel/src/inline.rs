//! Fixed-capacity vectors stored inline.
//!
//! The device and buffer-manager decisions on the simulator's per-operation
//! path have small, known bounds (at most three service stages per device
//! decision, at most three page operations per buffer reference).  Returning
//! them in a `Vec` costs one heap allocation per operation; [`InlineVec`]
//! keeps them in the value itself.  Exceeding the capacity is a bug in the
//! caller's bound and panics.

use std::fmt;
use std::ops::Deref;

/// At most `N` `Copy` items stored inline; pushing never allocates.
///
/// Dereferences to a slice for reading (`iter`, `len`, `contains`, indexing).
/// Unused slots hold `T::default()` and are never observable.
#[derive(Clone, Copy)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    len: usize,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    #[inline]
    pub fn new() -> Self {
        Self {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// Appends `item`.
    ///
    /// # Panics
    /// Panics when the vector already holds `N` items.
    #[inline]
    pub fn push(&mut self, item: T) {
        assert!(self.len < N, "InlineVec capacity {N} exceeded");
        self.items[self.len] = item;
        self.len += 1;
    }

    /// The items as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

/// Formats like a `Vec`: the items only, never the unused slots.
impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_read_and_iterate() {
        let mut v: InlineVec<u32, 3> = InlineVec::new();
        assert!(v.is_empty());
        v.push(4);
        v.push(5);
        assert_eq!(v.len(), 2);
        assert_eq!(v[1], 5);
        assert!(v.contains(&4) && !v.contains(&0));
        assert_eq!(v.iter().sum::<u32>(), 9);
        assert_eq!((&v).into_iter().count(), 2);
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn equality_and_debug_ignore_unused_slots() {
        let mut a: InlineVec<u32, 4> = InlineVec::new();
        let mut b: InlineVec<u32, 4> = InlineVec::new();
        assert_eq!(format!("{a:?}"), "[]");
        assert_eq!(a, InlineVec::default());
        a.extend([1, 2]);
        b.extend([1, 2, 3]);
        assert_ne!(a, b);
        a.push(3);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{:?}", vec![1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "capacity 2 exceeded")]
    fn pushing_past_the_capacity_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        v.extend([1, 2, 3]);
    }
}

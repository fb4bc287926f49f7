//! A short list held in place: a round's replies, a rewrite's retired buffers.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Up to `N` `Copy` items held in place, spilled to a `Vec` past that.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// The first `len` items of the array; the rest are filler.
    Inline(usize, [T; N]),
    /// Past `N` items, or none: an empty `Vec` does not allocate.
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// Appends `item`; only the `N + 1`-th and later allocate.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Heap(list) if list.is_empty() && N > 0 => self.0 = Repr::Inline(1, [item; N]),
            Repr::Inline(len, items) if *len < N => {
                items[*len] = item;
                *len += 1;
            }
            Repr::Inline(_, items) => self.0 = Repr::Heap([&items[..], &[item]].concat()),
            Repr::Heap(list) => list.push(item),
        }
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec(Repr::Heap(Vec::new()))
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline(len, items) => &items[..*len],
            Repr::Heap(list) => list,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline(len, items) => &mut items[..*len],
            Repr::Heap(list) => list,
        }
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_past_n_in_order() {
        let mut list: InlineVec<u32, 4> = InlineVec::default();
        assert!(list.is_empty());
        for i in 0..6 {
            list.push(i);
            assert_eq!(&list[..], &(0..=i).collect::<Vec<_>>()[..]);
        }
        list.sort_unstable_by_key(|&i| std::cmp::Reverse(i));
        assert_eq!(&list[..], &[5, 4, 3, 2, 1, 0]);
        let mut short: InlineVec<u32, 4> = InlineVec::default();
        [3, 1, 2].into_iter().for_each(|i| short.push(i));
        short.sort_unstable();
        assert_eq!(&short[..], &[1, 2, 3]);
        assert_eq!(format!("{short:?}"), "[1, 2, 3]");
    }
}

//! Inline lists for the short, bounded operand lists of the
//! per-instruction path, so it carries them without a heap allocation:
//!
//! * [`FixedList`] holds at most `N` elements and never allocates. An
//!   instruction names at most two source registers, so a uop's sources
//!   always fit.
//! * [`SmallList`] keeps its first `N` elements inline and moves to the
//!   heap only beyond that: a queue entry merges at most a few tags, and
//!   the rare longer list (a wired-OR MOP chain) spills to a `Vec`
//!   transparently.

use std::fmt;
use std::ops::Deref;

/// A list of at most `N` `Copy` elements stored inline; pushing past `N`
/// panics. It is `Copy` itself, dereferences to a slice and compares and
/// prints like a `Vec`.
///
/// ```
/// use mos_isa::FixedList;
///
/// let mut l: FixedList<u32, 2> = std::iter::once(1).collect();
/// l.push(2);
/// let copy = l;
/// assert_eq!(copy, vec![1, 2]);
/// assert_eq!(format!("{l:?}"), "[1, 2]");
/// ```
#[derive(Clone, Copy)]
pub struct FixedList<T: Copy + Default, const N: usize> {
    /// A full word, like the elements, so copying a list whose length was
    /// just written reads it back from the store buffer whole.
    len: usize,
    buf: [T; N],
}

impl<T: Copy + Default, const N: usize> FixedList<T, N> {
    /// An empty list.
    pub fn new() -> FixedList<T, N> {
        FixedList {
            len: 0,
            buf: [T::default(); N],
        }
    }

    /// The first `len` elements of `buf`. Built from whole values, the
    /// list can stay in registers where a run of [`FixedList::push`]es
    /// writes memory at a variable index.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `N`.
    #[inline]
    pub fn from_prefix(buf: [T; N], len: usize) -> FixedList<T, N> {
        assert!(len <= N, "a FixedList<_, {N}> holds at most {N} elements");
        FixedList { len, buf }
    }

    /// Append `value`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds `N` elements.
    #[inline]
    pub fn push(&mut self, value: T) {
        assert!(self.len < N, "a FixedList<_, {N}> is full");
        self.buf[self.len] = value;
        self.len += 1;
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl<T: Copy + Default, const N: usize> Default for FixedList<T, N> {
    fn default() -> FixedList<T, N> {
        FixedList::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for FixedList<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.buf[..self.len]
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for FixedList<T, N> {
    /// # Panics
    ///
    /// Panics if `iter` yields more than `N` elements.
    #[inline]
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> FixedList<T, N> {
        let mut l = FixedList::new();
        for x in iter {
            l.push(x);
        }
        l
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a FixedList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.iter()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for FixedList<T, N> {
    fn eq(&self, other: &FixedList<T, N>) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for FixedList<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for FixedList<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for FixedList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A list of `Copy` elements stored inline up to `N`, spilled to a `Vec`
/// past that. Dereferences to a slice; compares and prints like a `Vec`.
///
/// ```
/// use mos_isa::SmallList;
///
/// let mut l: SmallList<u32, 2> = [1, 2].into_iter().collect();
/// assert!(!l.spilled());
/// l.push(3);
/// assert!(l.spilled());
/// l.retain(|&x| x != 2);
/// assert!(!l.spilled());
/// assert_eq!(l, vec![1, 3]);
/// assert_eq!(format!("{l:?}"), "[1, 3]");
/// ```
pub struct SmallList<T: Copy + Default, const N: usize> {
    repr: Repr<T, N>,
}

impl<T: Copy + Default, const N: usize> Clone for SmallList<T, N> {
    fn clone(&self) -> SmallList<T, N> {
        SmallList {
            repr: self.repr.clone(),
        }
    }

    /// Copies `source` into this list's heap buffer if it has one, so a
    /// spilled list kept for reuse takes a copy without allocating. The
    /// list then stays on the heap, even at `N` elements or fewer.
    fn clone_from(&mut self, source: &SmallList<T, N>) {
        match &mut self.repr {
            Repr::Spilled(v) => {
                v.clear();
                v.extend_from_slice(source);
            }
            Repr::Inline { .. } => *self = source.clone(),
        }
    }
}

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { len: usize, buf: [T; N] },
    Spilled(Vec<T>),
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    /// An empty list.
    pub fn new() -> SmallList<T, N> {
        SmallList {
            repr: Repr::Inline {
                len: 0,
                buf: [T::default(); N],
            },
        }
    }

    /// `true` once the list has moved to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Spilled(_))
    }

    /// Append `value`, spilling to the heap when the inline buffer is full.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } if *len < N => {
                buf[*len] = value;
                *len += 1;
            }
            Repr::Inline { len, buf } => {
                let mut v = Vec::with_capacity(2 * N.max(1));
                v.extend_from_slice(&buf[..*len]);
                v.push(value);
                self.repr = Repr::Spilled(v);
            }
            Repr::Spilled(v) => v.push(value),
        }
    }

    /// Remove every element; a spilled list moves back inline.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Spilled(_) => *self = SmallList::new(),
        }
    }

    /// Keep only the elements for which `keep` returns `true`, in order. A
    /// spilled list that shrinks to `N` or fewer moves back inline.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let mut kept = 0;
                for i in 0..*len {
                    if keep(&buf[i]) {
                        buf[kept] = buf[i];
                        kept += 1;
                    }
                }
                *len = kept;
            }
            Repr::Spilled(v) => {
                v.retain(|x| keep(x));
                if v.len() <= N {
                    *self = v.iter().copied().collect();
                }
            }
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallList<T, N> {
    fn default() -> SmallList<T, N> {
        SmallList::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len],
            Repr::Spilled(v) => v,
        }
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for SmallList<T, N> {
    #[inline]
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallList<T, N> {
    #[inline]
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> SmallList<T, N> {
        let mut l = SmallList::new();
        l.extend(iter);
        l
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.iter()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallList<T, N> {
    fn eq(&self, other: &SmallList<T, N>) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for SmallList<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type L = SmallList<u32, 2>;
    type F = FixedList<u32, 2>;

    #[test]
    fn fixed_list_fills_to_capacity_and_compares_like_a_vec() {
        let mut l = F::new();
        assert!(l.is_empty());
        l.push(7);
        l.push(8);
        assert_eq!(&*l, &[7, 8]);
        assert_eq!(l, vec![7, 8]);
        assert_ne!(l, [7].into_iter().collect::<F>());
        assert_eq!(format!("{l:?}"), "[7, 8]");
        assert_eq!((&l).into_iter().sum::<u32>(), 15);
        l.clear();
        assert_eq!(l, F::default());
        assert_eq!(F::from_prefix([4, 5], 1), vec![4]);
        assert_eq!(F::from_prefix([4, 5], 2), vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn fixed_list_refuses_an_element_past_capacity() {
        let _: F = (1..=3).collect();
    }

    #[test]
    fn clone_from_reuses_a_heap_buffer() {
        let mut spare: L = (1..=4).collect();
        let buf = spare.as_ptr();
        spare.clone_from(&[5, 6, 7].into_iter().collect());
        assert_eq!((spare.as_ptr(), &*spare), (buf, &[5, 6, 7][..]));
        spare.clone_from(&[8].into_iter().collect());
        assert_eq!((spare.as_ptr(), &*spare), (buf, &[8][..]));
        assert!(spare.spilled());
        let mut inline = L::new();
        inline.clone_from(&spare);
        assert_eq!(inline, vec![8]);
    }

    #[test]
    fn push_across_the_inline_bound_spills_and_keeps_order() {
        let mut l = L::new();
        assert!(l.is_empty());
        l.push(1);
        l.push(2);
        assert!(!l.spilled());
        l.push(3);
        l.push(4);
        assert!(l.spilled());
        assert_eq!(&*l, &[1, 2, 3, 4]);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn retain_moves_a_spilled_list_back_inline() {
        let mut l: L = (1..=5).collect();
        assert!(l.spilled());
        l.retain(|&x| x % 2 == 0);
        assert!(!l.spilled(), "two survivors fit inline");
        assert_eq!(l, vec![2, 4]);
        l.retain(|&x| x > 2);
        assert_eq!(l, vec![4]);
        let mut m: L = (1..=5).collect();
        m.retain(|&x| x != 3);
        assert!(m.spilled(), "four survivors stay on the heap");
        assert_eq!(m, vec![1, 2, 4, 5]);
    }

    #[test]
    fn equality_compares_elements_like_a_vec() {
        let inline: L = [7, 8].into_iter().collect();
        let spilled: L = [7, 8, 9].into_iter().collect();
        assert_eq!(inline, inline.clone());
        assert_eq!(spilled, spilled.clone());
        assert_ne!(inline, spilled);
        assert_eq!(inline, vec![7, 8]);
        assert_ne!(inline, vec![8, 7]);
        assert_eq!(spilled, vec![7, 8, 9]);
        assert_eq!(L::new(), Vec::<u32>::new());
    }

    #[test]
    fn debug_prints_like_a_vec() {
        for v in [vec![], vec![1], vec![1, 2], vec![1, 2, 3]] {
            let l: L = v.iter().copied().collect();
            assert_eq!(format!("{l:?}"), format!("{v:?}"));
            assert_eq!(format!("{l:#?}"), format!("{v:#?}"));
        }
    }

    #[test]
    fn from_iterator_extend_and_clear() {
        let mut l: L = std::iter::once(9).collect();
        l.extend([10, 11]);
        assert_eq!(l, vec![9, 10, 11]);
        assert!(l.contains(&11));
        assert_eq!((&l).into_iter().sum::<u32>(), 30);
        l.clear();
        assert!(l.is_empty() && !l.spilled());
    }
}

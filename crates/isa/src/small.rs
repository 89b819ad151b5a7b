//! [`SmallList`]: a list that keeps its first `N` elements inline and
//! moves to the heap only beyond that.
//!
//! Source-operand lists are short and bounded almost everywhere — an
//! instruction names at most two source registers, a queue entry merges at
//! most a few tags — so the per-instruction path can carry them without a
//! heap allocation. The rare longer list (a wired-OR MOP chain) spills to
//! a `Vec` transparently.

use std::fmt;
use std::ops::Deref;

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
#[derive(Clone)]
pub struct SmallList<T: Copy + Default, const N: usize> {
    repr: Repr<T, N>,
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

    /// Remove every element.
    pub fn clear(&mut self) {
        *self = SmallList::new();
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

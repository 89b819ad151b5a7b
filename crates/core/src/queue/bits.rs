//! Bitsets over entry indices.

/// Entry indices of the set bits of word `w` of a bitset, lowest first.
/// The iterator owns a copy of the word, so the queue may update its
/// bitsets while walking.
pub(super) struct Bits {
    base: usize,
    word: u64,
}

impl Bits {
    pub(super) fn of(w: usize, word: u64) -> Bits {
        Bits { base: w * 64, word }
    }
}

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + b)
    }
}

pub(super) fn set_bit(words: &mut [u64], idx: usize) {
    words[idx / 64] |= 1 << (idx % 64);
}

pub(super) fn clear_bit(words: &mut [u64], idx: usize) {
    words[idx / 64] &= !(1 << (idx % 64));
}

pub(super) fn test_bit(words: &[u64], idx: usize) -> bool {
    words[idx / 64] & (1 << (idx % 64)) != 0
}

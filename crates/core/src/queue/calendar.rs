//! The ready calendar: entries filed by the cycle they next act.

use super::bits::{clear_bit, set_bit};
use super::chains::{Chains, NIL};

/// Wheel size of the ready calendar: keys less than this many cycles
/// ahead get a bucket, later ones wait in the overflow list. Covers a
/// memory round trip plus the replay penalty.
pub(super) const WHEEL: usize = 256;

/// The ready calendar: waiting entries filed by the cycle they can first
/// request (or broadcast speculatively), issued entries by the cycle they
/// are released, in power-of-two buckets shaped like the simulator's
/// event wheel. Records are never removed early: a re-filed entry simply
/// gains a new record, and a record counts only while its entry's `key`
/// still equals the bucket's cycle, so stale records are dropped when
/// their bucket is read.
#[derive(Debug, Clone)]
pub(super) struct Calendar {
    /// Each bucket's chain of records.
    buckets: [u32; WHEEL],
    records: Chains,
    /// One bit per non-empty bucket.
    occupied: [u64; WHEEL / 64],
    /// `(entry, key)` records at least [`WHEEL`] cycles ahead when filed.
    pub(super) overflow: Vec<(u32, u64)>,
}

impl Calendar {
    pub(super) fn new() -> Calendar {
        Calendar {
            buckets: [NIL; WHEEL],
            records: Chains::new(),
            occupied: [0; WHEEL / 64],
            overflow: Vec::new(),
        }
    }

    pub(super) fn bucket(at: u64) -> usize {
        (at % WHEEL as u64) as usize
    }

    /// File entry `idx` under `key`, which lies after `now`.
    pub(super) fn file(&mut self, idx: usize, key: u64, now: u64) {
        if key - now < WHEEL as u64 {
            let b = Calendar::bucket(key);
            self.records.push(&mut self.buckets[b], idx);
            set_bit(&mut self.occupied, b);
        } else {
            self.overflow.push((idx as u32, key));
        }
    }

    /// The records of `at`'s bucket.
    pub(super) fn records(&self, at: u64) -> impl Iterator<Item = usize> + '_ {
        self.records.iter(self.buckets[Calendar::bucket(at)])
    }

    /// Empty `at`'s bucket.
    pub(super) fn clear(&mut self, at: u64) {
        let b = Calendar::bucket(at);
        let chain = std::mem::replace(&mut self.buckets[b], NIL);
        self.records.free(chain);
        clear_bit(&mut self.occupied, b);
    }

    /// The first non-empty bucket at or after `from` (wrapping).
    pub(super) fn next_occupied(&self, from: usize) -> Option<usize> {
        let first_from = |lo: usize, hi: usize| {
            (lo / 64..hi.div_ceil(64)).find_map(|w| {
                let mut word = self.occupied[w];
                if w == lo / 64 {
                    word &= !0 << (lo % 64);
                }
                (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
            })
        };
        first_from(from, WHEEL).or_else(|| first_from(0, from))
    }
}

//! Slot accounting and its age list of waiting entries.

use crate::slots::{SlotCause, SlotCounts};

use super::Entry;

/// Opt-in per-slot cause accounting, behind the same zero-cost guard as
/// tracing and metrics: when accounting is off (the default) the queue
/// does no classification work at all.
#[derive(Debug, Clone)]
pub(super) struct SlotAccounting {
    /// Every slot charged so far, the run's only slot counts.
    pub(super) counts: SlotCounts,
    /// Cause charged for idle slots with no waiting entry to blame, set
    /// by the driver ([`IssueQueue::set_idle_cause`]).
    pub(super) idle_cause: SlotCause,
    /// The waiting entries, oldest first: idle slots are blamed on the
    /// oldest, mirroring select priority.
    pub(super) ages: AgeList,
}

/// End of an [`AgeList`].
pub(super) const NONE: u32 = u32::MAX;

/// Waiting entries in age order, as a doubly linked list over entry
/// indices: linked at insert and replay, unlinked at grant and when a
/// waiting entry is squashed.
#[derive(Debug, Clone)]
pub(super) struct AgeList {
    pub(super) older: Vec<u32>,
    younger: Vec<u32>,
    oldest: u32,
    pub(super) youngest: u32,
}

impl AgeList {
    pub(super) fn new(cap: usize) -> AgeList {
        AgeList {
            older: vec![NONE; cap],
            younger: vec![NONE; cap],
            oldest: NONE,
            youngest: NONE,
        }
    }

    /// Link entry `idx` behind the youngest entry older than it, walking
    /// back from the youngest end: an insert comes in age order, so the
    /// walk stops at once.
    pub(super) fn link(&mut self, idx: usize, entries: &[Option<Entry>]) {
        let age = |i: u32| {
            entries[i as usize]
                .as_ref()
                .expect("linked entry exists")
                .age
        };
        let mine = age(idx as u32);
        let mut prev = self.youngest;
        while prev != NONE && age(prev) > mine {
            prev = self.older[prev as usize];
        }
        let next = match prev {
            NONE => std::mem::replace(&mut self.oldest, idx as u32),
            p => std::mem::replace(&mut self.younger[p as usize], idx as u32),
        };
        match next {
            NONE => self.youngest = idx as u32,
            n => self.older[n as usize] = idx as u32,
        }
        self.older[idx] = prev;
        self.younger[idx] = next;
    }

    pub(super) fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.older[idx], self.younger[idx]);
        match prev {
            NONE => self.oldest = next,
            p => self.younger[p as usize] = next,
        }
        match next {
            NONE => self.youngest = prev,
            n => self.older[n as usize] = prev,
        }
    }

    /// Entry indices, oldest first.
    pub(super) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let linked = |i: u32| (i != NONE).then_some(i as usize);
        std::iter::successors(linked(self.oldest), move |&i| linked(self.younger[i]))
    }
}

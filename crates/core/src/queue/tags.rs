//! The dense tag-state table and each tag's consumer chain.

use crate::uop::Tag;

use super::chains::{Chains, NIL};

#[derive(Debug, Clone, Copy, Default)]
pub(super) struct TagState {
    /// Wakeup time visible to the select logic (speculative in
    /// select-free mode until the producer is granted).
    pub(super) ready_at: Option<u64>,
    /// Time the value is actually available (set at producer grant).
    pub(super) actual_at: Option<u64>,
    /// Producer is a load whose hit/miss is not yet known.
    pub(super) load_unresolved: bool,
    /// This dataflow edge was poisoned by a cache miss: the producer is a
    /// missed load or a consumer replayed in its shadow. Sticky for the
    /// tag's lifetime (tags are never reused), so slot accounting can
    /// charge the whole transitive wait to the miss.
    pub(super) missed: bool,
    /// Head of the chain of entries that read this tag ([`Link`]).
    pub(super) consumers: u32,
}

impl TagState {
    /// First cycle the tag is visible to select; `u64::MAX` while no
    /// wakeup is scheduled.
    pub(super) fn visible_at(&self) -> u64 {
        self.ready_at.unwrap_or(u64::MAX)
    }

    /// Forget everything but the consumer chain (the tag is renamed
    /// afresh).
    pub(super) fn reset(&mut self) {
        *self = TagState {
            consumers: self.consumers,
            ..TagState::default()
        };
    }
}

/// Dense tag-state table. Tags are allocated by rename/formation from a
/// monotonic counter and never reused, so states live in a flat vector
/// indexed by `tag - base` instead of a hash map; pruning clears stale
/// slots and advances `base` over the dead prefix. A tag outside the
/// window (or with a cleared slot) is architecturally long done —
/// consumers treat it as ready.
///
/// Each state heads the chain of its consumers: exactly the occupied
/// entries that name it as a source. An entry joins the chains of its
/// sources at insert and `fuse_tail` and leaves them when it is freed or
/// a half squash drops the source; a chain is freed when its tag's slot
/// is cleared.
#[derive(Debug, Clone)]
pub(super) struct TagTable {
    /// Tag number of `slots[0]`.
    pub(super) base: u64,
    pub(super) slots: Vec<Option<TagState>>,
    pub(super) consumers: Chains,
}

impl Default for TagTable {
    fn default() -> TagTable {
        TagTable {
            base: 0,
            slots: Vec::new(),
            consumers: Chains::new(),
        }
    }
}

impl TagTable {
    fn idx(&self, t: Tag) -> Option<usize> {
        t.0.checked_sub(self.base).map(|d| d as usize)
    }

    pub(super) fn get(&self, t: Tag) -> Option<&TagState> {
        self.idx(t)
            .and_then(|i| self.slots.get(i))
            .and_then(Option::as_ref)
    }

    pub(super) fn get_mut(&mut self, t: Tag) -> Option<&mut TagState> {
        let i = self.idx(t)?;
        self.slots.get_mut(i).and_then(Option::as_mut)
    }

    /// Raw slot for `t`, growing the table as needed. `None` only for
    /// tags below the pruned floor; those are unreachable in practice
    /// (re-broadcasts happen within the confirm window, pruning keeps a
    /// 4096-cycle horizon) and their consumers already see them as ready.
    fn slot(&mut self, t: Tag) -> Option<&mut Option<TagState>> {
        let i = self.idx(t)?;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        Some(&mut self.slots[i])
    }

    /// The state for `t`, created default if absent (the old
    /// `entry(t).or_default()`).
    pub(super) fn ensure(&mut self, t: Tag) -> Option<&mut TagState> {
        let slot = self.slot(t)?;
        Some(slot.get_or_insert_with(TagState::default))
    }

    /// Clear `t`'s state and hand back its consumer chain, which the
    /// caller re-files and frees ([`IssueQueue::release_chain`]).
    pub(super) fn remove(&mut self, t: Tag) -> u32 {
        let Some(i) = self.idx(t) else {
            return NIL;
        };
        self.slots
            .get_mut(i)
            .and_then(Option::take)
            .map_or(NIL, |s| s.consumers)
    }

    /// Entry `entry` reads `t`, in one lookup: put the entry on `t`'s
    /// consumer chain when `register` (false for a repeat of a source
    /// already registered) and return the first cycle `t` is visible to
    /// select. `None` for an absent tag, which its consumers read as long
    /// done: it is no source at all.
    pub(super) fn consume(&mut self, t: Tag, entry: usize, register: bool) -> Option<u64> {
        let s = self
            .idx(t)
            .and_then(|i| self.slots.get_mut(i))
            .and_then(Option::as_mut)?;
        if register {
            self.consumers.push(&mut s.consumers, entry);
        }
        Some(s.visible_at())
    }

    /// Take entry `entry` off `t`'s consumer chain (undo the registration
    /// of [`TagTable::consume`]).
    pub(super) fn unregister(&mut self, t: Tag, entry: usize) {
        let Some(s) = self
            .idx(t)
            .and_then(|i| self.slots.get_mut(i))
            .and_then(Option::as_mut)
        else {
            return;
        };
        self.consumers.remove(&mut s.consumers, entry);
    }

    /// Wakeup visible to select logic; absent tags are long done.
    pub(super) fn ready(&self, t: Tag, now: u64) -> bool {
        self.ready_time(t) <= now
    }

    /// First cycle `t` is visible to select: 0 for an absent tag (long
    /// done), `u64::MAX` while no wakeup is scheduled.
    fn ready_time(&self, t: Tag) -> u64 {
        self.get(t).map_or(0, TagState::visible_at)
    }

    /// First cycle every tag of `srcs` is visible to select.
    pub(super) fn ready_time_of(&self, srcs: &[Tag]) -> u64 {
        srcs.iter().map(|&t| self.ready_time(t)).max().unwrap_or(0)
    }

    /// Value actually available (grant-time verification).
    pub(super) fn actually_ready(&self, t: Tag, now: u64) -> bool {
        match self.get(t) {
            None => true,
            Some(s) => s.actual_at.is_some_and(|r| r <= now),
        }
    }

    /// Clear states whose wakeup is older than `horizon`, then advance
    /// the floor over the cleared prefix so the vector stays bounded.
    /// Returns the cleared states' consumer chains joined into one, for
    /// the caller to re-file and free.
    pub(super) fn prune(&mut self, now: u64, horizon: u64) -> u32 {
        let mut orphans = NIL;
        for slot in &mut self.slots {
            let keep = slot.as_ref().is_none_or(|s| {
                s.load_unresolved
                    || s.ready_at.is_none()
                    || s.ready_at.is_some_and(|r| r + horizon >= now)
            });
            if keep {
                continue;
            }
            let chain = slot.take().map_or(NIL, |s| s.consumers);
            orphans = self.consumers.join(chain, orphans);
        }
        let dead = self.slots.iter().take_while(|s| s.is_none()).count();
        if dead > 0 {
            self.slots.drain(..dead);
            self.base += dead as u64;
        }
        orphans
    }
}

//! `RefQueue`: a scan-all reference issue queue, the executable spec that
//! `IssueQueue` runs against in lockstep.
//!
//! Every cycle it tests every entry for readiness and grants the oldest
//! requesters within the issue width and the functional-unit pools. It
//! keeps no calendar, no consumer chains, no bitsets and no age list: an
//! entry's readiness, a tag's consumers and the age order are worked out
//! from the entries each time they are needed. It is slow and plainly
//! complete, so a disagreement is a bug in the event-driven queue (or a
//! change of the spec, to be made here first).
//!
//! Entry slots are handed out and freed as `IssueQueue` does (a free
//! stack, releases and squashes in ascending slot order), because the
//! order in which a miss replays its consumers is slot order.

use std::collections::HashMap;

use mos_core::queue::{InsertError, QueueStats};
use mos_core::{SchedConfig, SchedUop, SchedulerKind, SlotCause, SlotCounts, Tag, UopId};

/// A handle to an occupied entry of a [`RefQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefId {
    index: usize,
    gen: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct TagState {
    /// Wakeup time visible to select (speculative under select-free
    /// scheduling until the producer is granted).
    ready_at: Option<u64>,
    /// Time the value is actually available, set at the producer's grant.
    actual_at: Option<u64>,
    /// A cache miss poisoned this dataflow edge (sticky).
    missed: bool,
}

#[derive(Debug, Clone)]
struct Entry {
    gen: u64,
    /// Head first, in sequencing order.
    uops: Vec<SchedUop>,
    /// The merged live sources (the internal MOP edge excluded).
    srcs: Vec<Tag>,
    dst: Option<Tag>,
    pending: bool,
    /// The cycle a granted entry is released; `None` while it waits.
    release_at: Option<u64>,
    collided: bool,
    hold_until: u64,
    spec_broadcast: bool,
}

impl Entry {
    fn age(&self) -> UopId {
        self.uops[0].id
    }

    fn waiting(&self) -> bool {
        self.release_at.is_none()
    }
}

/// One cycle of a [`RefQueue`]: its grants in order, as (uop ids, issue
/// cycle), and whether it did anything the idle-cycle look-ahead must
/// see: released, broadcast speculatively or had a requester.
pub struct RefCycle {
    pub grants: Vec<(Vec<UopId>, u64)>,
    pub acted: bool,
}

/// The reference queue. See the module docs.
pub struct RefQueue {
    config: SchedConfig,
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// Every tag renamed and not squashed; an absent tag is long done.
    tags: HashMap<Tag, TagState>,
    next_gen: u64,
    /// Issue slots and units held this cycle by the tails of MOPs
    /// granted last cycle (payload-RAM sequencing).
    blocked_slots: usize,
    blocked_fus: [usize; 5],
    stats: QueueStats,
    counts: Option<SlotCounts>,
    idle_cause: SlotCause,
}

/// The scheduling latency of an entry: a MOP is a non-pipelined unit of
/// one cycle per member; a load is scheduled with its assumed hit latency.
fn latency(uops: &[SchedUop], config: &SchedConfig) -> u64 {
    u64::from(match uops {
        [u] if u.is_load => config.load_sched_latency,
        [u] => u.class.exec_latency(),
        _ => uops.len() as u32,
    })
}

impl RefQueue {
    pub fn new(config: SchedConfig, accounting: bool) -> RefQueue {
        let cap = config.queue_entries.unwrap_or(512);
        RefQueue {
            entries: vec![None; cap],
            free: (0..cap).rev().collect(),
            tags: HashMap::new(),
            next_gen: 1,
            blocked_slots: 0,
            blocked_fus: [0; 5],
            stats: QueueStats::default(),
            counts: accounting.then(SlotCounts::default),
            idle_cause: SlotCause::Drained,
            config,
        }
    }

    pub fn occupancy(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    pub fn free_entries(&self) -> usize {
        self.free.len()
    }

    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    pub fn slot_counts(&self) -> Option<&SlotCounts> {
        self.counts.as_ref()
    }

    pub fn set_idle_cause(&mut self, cause: SlotCause) {
        self.idle_cause = cause;
    }

    pub fn tag_ready_time(&self, t: Tag) -> Option<u64> {
        self.tags.get(&t).and_then(|s| s.ready_at)
    }

    pub fn is_pending(&self, id: RefId) -> bool {
        self.entry(id).is_some_and(|e| e.pending)
    }

    fn entry(&self, id: RefId) -> Option<&Entry> {
        self.entries[id.index].as_ref().filter(|e| e.gen == id.gen)
    }

    fn entry_mut(&mut self, id: RefId) -> Option<&mut Entry> {
        self.entries[id.index].as_mut().filter(|e| e.gen == id.gen)
    }

    /// First cycle `t` is visible to select: 0 when absent (long done).
    fn visible_at(&self, t: Tag) -> u64 {
        self.tags
            .get(&t)
            .map_or(0, |s| s.ready_at.unwrap_or(u64::MAX))
    }

    fn all_visible(&self, srcs: &[Tag], now: u64) -> bool {
        srcs.iter().all(|&t| self.visible_at(t) <= now)
    }

    fn actually_ready(&self, t: Tag, now: u64) -> bool {
        self.tags
            .get(&t)
            .is_none_or(|s| s.actual_at.is_some_and(|r| r <= now))
    }

    /// Insert a singleton, or a MOP head waiting for its tail when
    /// `pending`. `None` when the queue is full.
    pub fn insert(&mut self, uop: SchedUop, pending: bool) -> Option<RefId> {
        let index = self.free.pop()?;
        let gen = self.next_gen;
        self.next_gen += 1;
        if let Some(d) = uop.dst {
            self.tags.insert(d, TagState::default());
        }
        let srcs = uop
            .srcs
            .iter()
            .copied()
            .filter(|t| self.tags.contains_key(t))
            .collect();
        self.entries[index] = Some(Entry {
            gen,
            uops: vec![uop],
            srcs,
            dst: uop.dst,
            pending,
            release_at: None,
            collided: false,
            hold_until: 0,
            spec_broadcast: false,
        });
        Some(RefId { index, gen })
    }

    /// Fuse `tail` into the waiting entry `head`; its live sources other
    /// than the MOP tag join the entry's.
    pub fn fuse_tail(&mut self, head: RefId, tail: SchedUop) -> Result<(), InsertError> {
        let max = self.config.mop.max_mop_size;
        let tags = &self.tags;
        let Some(e) = self.entries[head.index]
            .as_mut()
            .filter(|e| e.gen == head.gen && e.waiting())
        else {
            return Err(InsertError::BadEntry);
        };
        if e.uops.len() + 1 > max {
            return Err(InsertError::MopTooLarge);
        }
        for &t in &tail.srcs {
            if Some(t) != e.dst && !e.srcs.contains(&t) && tags.contains_key(&t) {
                e.srcs.push(t);
            }
        }
        e.pending = false;
        e.uops.push(tail);
        Ok(())
    }

    pub fn mark_pending(&mut self, id: RefId) {
        if let Some(e) = self.entry_mut(id).filter(|e| e.waiting()) {
            e.pending = true;
        }
    }

    pub fn cancel_pending(&mut self, id: RefId) {
        if let Some(e) = self.entry_mut(id).filter(|e| e.pending) {
            e.pending = false;
            self.stats.cancelled_pendings += 1;
        }
    }

    /// A load's cache outcome. On a miss the tag re-broadcasts after the
    /// data plus the replay penalty, and every granted consumer, then
    /// transitively theirs, goes back to waiting. Returns the replayed
    /// uop ids.
    pub fn load_resolved(&mut self, tag: Tag, hit: bool, data_ready: u64) -> Vec<UopId> {
        let mut replayed = Vec::new();
        if hit || !self.tags.contains_key(&tag) {
            return replayed;
        }
        let ready = Some(data_ready + u64::from(self.config.replay_penalty));
        self.tags.insert(
            tag,
            TagState {
                ready_at: ready,
                actual_at: ready,
                missed: true,
            },
        );
        let mut work = vec![tag];
        while let Some(t) = work.pop() {
            if !self.tags.contains_key(&t) {
                continue;
            }
            for e in self.entries.iter_mut().flatten() {
                if e.waiting() || !e.srcs.contains(&t) {
                    continue;
                }
                e.release_at = None;
                e.spec_broadcast = false;
                e.collided = false;
                self.stats.load_replay_uops += e.uops.len() as u64;
                replayed.extend(e.uops.iter().map(|u| u.id));
                if let Some(d) = e.dst {
                    if let Some(s) = self.tags.get_mut(&d) {
                        *s = TagState {
                            ready_at: None,
                            actual_at: None,
                            missed: true,
                        };
                    }
                    work.push(d);
                }
            }
        }
        replayed
    }

    /// Squash every entry whose head is at or after `first`; a surviving
    /// MOP drops its wrong-path members and the sources only they read,
    /// and every survivor loses its pending bit.
    pub fn squash_from(&mut self, first: UopId) {
        for idx in 0..self.entries.len() {
            let Some(e) = self.entries[idx].as_mut() else {
                continue;
            };
            if e.age() >= first {
                if let Some(d) = e.dst {
                    self.tags.remove(&d);
                }
                self.free_entry(idx);
                continue;
            }
            if e.uops.last().expect("an entry holds a uop").id >= first {
                e.uops.retain(|u| u.id < first);
                let uops = &e.uops;
                e.srcs.retain(|t| uops.iter().any(|u| u.srcs.contains(t)));
            }
            if e.pending {
                e.pending = false;
                self.stats.cancelled_pendings += 1;
            }
        }
    }

    fn free_entry(&mut self, idx: usize) {
        self.entries[idx] = None;
        self.free.push(idx);
    }

    /// Run cycle `now`: release, broadcast speculatively, request, grant
    /// and charge the slots.
    pub fn cycle(&mut self, now: u64) -> RefCycle {
        let kind = self.config.kind;
        let select_free = kind.broadcasts_at_wakeup();
        let mut acted = false;
        for idx in 0..self.entries.len() {
            let due = self.entries[idx]
                .as_ref()
                .is_some_and(|e| e.release_at.is_some_and(|r| r <= now));
            if due {
                self.free_entry(idx);
                acted = true;
            }
        }
        self.stats.cycles += 1;
        self.stats.occupancy_integral += self.occupancy() as u64;

        if select_free {
            for idx in 0..self.entries.len() {
                let Some(e) = &self.entries[idx] else {
                    continue;
                };
                if !e.waiting() || e.pending || e.spec_broadcast || !self.all_visible(&e.srcs, now)
                {
                    continue;
                }
                let at = now + latency(&e.uops, &self.config).max(1);
                if let Some(d) = e.dst {
                    self.tags.entry(d).or_default().ready_at = Some(at);
                }
                self.entries[idx].as_mut().expect("visited").spec_broadcast = true;
                acted = true;
            }
        }

        let mut requesters: Vec<(UopId, usize)> = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(idx, e)| Some((idx, e.as_ref()?)))
            .filter(|(_, e)| {
                e.waiting() && !e.pending && e.hold_until <= now && self.all_visible(&e.srcs, now)
            })
            .map(|(idx, e)| (e.age(), idx))
            .collect();
        requesters.sort_unstable();
        acted |= !requesters.is_empty();

        let issue_width = self.config.issue_width;
        let blocked = self.blocked_slots.min(issue_width);
        let mut width = issue_width.saturating_sub(self.blocked_slots);
        let mut fu_avail = [0; 5];
        for (k, avail) in fu_avail.iter_mut().enumerate() {
            *avail = self.config.fu_counts[k].saturating_sub(self.blocked_fus[k]);
        }
        let (mut slots_next, mut fus_next) = (0, [0; 5]);
        let (mut wasted, mut grants) = (0, Vec::new());
        for (_, idx) in requesters {
            let e = self.entries[idx].as_ref().expect("requester exists");
            let fu = e.uops[0].class.fu().index();
            if width == 0 || fu_avail[fu] == 0 {
                self.note_collision(idx);
                continue;
            }
            let stale = e.srcs.iter().any(|&t| !self.actually_ready(t, now));
            if stale && kind == SchedulerKind::SpeculativeWakeup {
                // Parent verification fails: the slot is wasted.
                width -= 1;
                wasted += 1;
                self.stats.spec_wakeup_cancels += 1;
                continue;
            }
            if stale && kind == SchedulerKind::SelectFreeScoreboard {
                // A pileup victim: slot and unit spent, stale wakeups
                // revoked, held off for the replay penalty.
                width -= 1;
                fu_avail[fu] -= 1;
                wasted += 1;
                self.stats.pileup_replays += 1;
                for t in e.srcs.clone() {
                    if let Some(s) = self.tags.get_mut(&t) {
                        if s.actual_at.is_none_or(|r| r > now) {
                            s.ready_at = s.actual_at;
                        }
                    }
                }
                let hold = now + u64::from(self.config.replay_penalty);
                self.entries[idx]
                    .as_mut()
                    .expect("requester exists")
                    .hold_until = hold;
                continue;
            }
            width -= 1;
            fu_avail[fu] -= 1;
            let lat = latency(&e.uops, &self.config);
            let members = e.uops.len() as u64;
            if members > 1 {
                slots_next += 1;
                fus_next[fu] += 1;
            }
            if let Some(d) = e.dst {
                let done = now + lat.max(1);
                let s = self.tags.entry(d).or_default();
                s.actual_at = Some(done);
                s.ready_at = match kind {
                    SchedulerKind::SelectFreeSquashDep if e.collided => Some(done + 1),
                    _ if select_free => s.ready_at.or(Some(done)),
                    _ => Some(now + lat.max(u64::from(kind.wakeup_floor()))),
                };
            }
            let confirm = now + u64::from(self.config.confirm_window) + members - 1;
            let e = self.entries[idx].as_mut().expect("requester exists");
            e.release_at = Some(confirm.max(now + 1));
            self.stats.issued_entries += 1;
            self.stats.issued_uops += members;
            grants.push((e.uops.iter().map(|u| u.id).collect(), now));
        }
        self.blocked_slots = slots_next;
        self.blocked_fus = fus_next;
        self.charge(
            now,
            blocked + wasted + grants.len(),
            grants.len(),
            blocked,
            wasted,
        );
        RefCycle { grants, acted }
    }

    /// A woken requester denied a grant: a select-free collision, which
    /// under squash-dep revokes its dependents' wakeup the first time.
    fn note_collision(&mut self, idx: usize) {
        let kind = self.config.kind;
        if !kind.broadcasts_at_wakeup() {
            return;
        }
        self.stats.collisions += 1;
        let e = self.entries[idx].as_mut().expect("requester exists");
        let first = !std::mem::replace(&mut e.collided, true);
        if let (SchedulerKind::SelectFreeSquashDep, true, Some(d)) = (kind, first, e.dst) {
            if let Some(s) = self.tags.get_mut(&d) {
                s.ready_at = None;
            }
        }
    }

    /// Charge this cycle's slots: grants are useful, sequenced MOP tails
    /// fusion overhead, wasted grants scheduling-loop cost, and each idle
    /// slot goes to one of the oldest waiting entries, by its stall cause,
    /// or to the idle cause when nobody waits.
    fn charge(&mut self, now: u64, busy: usize, grants: usize, blocked: usize, wasted: usize) {
        let Some(mut counts) = self.counts.take() else {
            return;
        };
        counts.add(SlotCause::Useful, grants as u64);
        counts.add(SlotCause::MopFusion, blocked as u64);
        counts.add(SlotCause::SchedLoop, wasted as u64);
        let idle = self.config.issue_width - busy;
        let mut waiting: Vec<&Entry> = self
            .entries
            .iter()
            .flatten()
            .filter(|e| e.waiting())
            .collect();
        waiting.sort_by_key(|e| e.age());
        for e in waiting.iter().take(idle) {
            counts.add(self.stall_cause(e, now), 1);
        }
        counts.add(self.idle_cause, idle.saturating_sub(waiting.len()) as u64);
        self.counts = Some(counts);
    }

    /// Why waiting entry `e` did not issue at `now` (DESIGN §10): fusion
    /// wait > pileup hold-off > miss shadow > ready-but-denied > loop
    /// bubble > true dependence.
    fn stall_cause(&self, e: &Entry, now: u64) -> SlotCause {
        if e.pending {
            return SlotCause::MopFusion;
        }
        if e.hold_until > now {
            return SlotCause::SchedLoop;
        }
        let mut loop_only = true;
        for &t in e.srcs.iter().filter(|&&t| self.visible_at(t) > now) {
            let s = self.tags[&t];
            if s.missed {
                return SlotCause::LoadMiss;
            }
            loop_only &= s.actual_at.is_some_and(|r| r <= now);
        }
        if self.all_visible(&e.srcs, now) {
            SlotCause::Bandwidth
        } else if loop_only {
            SlotCause::SchedLoop
        } else {
            SlotCause::NotReady
        }
    }
}

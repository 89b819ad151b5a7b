//! The issue queue and its wakeup/select engine.
//!
//! One cycle-level engine implements every scheduler of Section 6.2 via
//! [`SchedulerKind`]:
//!
//! * **Base** — ideally pipelined atomic scheduling: an entry selected at
//!   cycle `S` with latency `L` wakes its dependents for selection at
//!   `S + L`, so single-cycle chains issue back-to-back.
//! * **TwoCycle** — pipelined wakeup/select: dependents wake at
//!   `S + max(L, 2)`; single-cycle chains lose a cycle per edge.
//! * **MacroOp** — TwoCycle timing over entries that may hold a fused
//!   pair: a MOP is a non-pipelined 2-cycle unit issuing one tag
//!   broadcast; its dependents wake at `S + 2` while the tail executes in
//!   the slot after the head, reproducing Figure 5 exactly. A MOP blocks
//!   its issue slot (and one functional unit) in the following cycle while
//!   the payload RAM sequences the tail (Section 5.3.1).
//! * **SelectFreeSquashDep / SelectFreeScoreboard** — Brown et al.'s
//!   select-free scheduling: entries broadcast *at wakeup*, speculating
//!   they will be selected. A collision victim (woken but not granted)
//!   either squashes its dependents' wakeups — re-broadcasting on grant
//!   with a one-cycle re-wake penalty (squash-dep) — or lets mis-woken
//!   dependents issue as *pileup victims* that a register scoreboard
//!   catches and selectively replays (scoreboard).
//!
//! Loads are scheduled with their assumed hit latency; on a miss the queue
//! selectively replays every dependent issued in the load shadow — both
//! halves of a MOP together, since dependence tracking is in the MOP ID
//! name space (Section 5.3.2) — and re-broadcasts when the data arrives,
//! plus the configured replay penalty.

use std::sync::Arc;

use mos_isa::{FuKind, SmallList};
use mos_metrics::Hist;

use crate::config::{SchedConfig, SchedulerKind};
use crate::events::TraceEvent;
use crate::slots::{SlotCause, SlotCounts};
use crate::uop::{SchedUop, Tag, UopId};

/// Handle to an occupied issue-queue entry (generation-checked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId {
    index: usize,
    gen: u64,
}

impl EntryId {
    /// Queue slot index of the entry.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Allocation generation (distinguishes reuses of the same slot).
    pub fn generation(&self) -> u64 {
        self.gen
    }
}

/// Why an insertion was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// No free issue-queue entry.
    Full,
    /// The target entry no longer exists (squashed) or cannot accept a
    /// tail.
    BadEntry,
    /// Fusing would exceed the configured MOP size.
    MopTooLarge,
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::Full => write!(f, "issue queue is full"),
            InsertError::BadEntry => write!(f, "target entry is gone or cannot fuse"),
            InsertError::MopTooLarge => write!(f, "macro-op size limit exceeded"),
        }
    }
}

impl std::error::Error for InsertError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Issued,
}

#[derive(Debug, Clone)]
struct Entry {
    gen: u64,
    /// Shared with every [`Issued`] grant of this entry, so a grant only
    /// bumps a reference count; mutation goes through `Arc::make_mut`.
    uops: Arc<Vec<SchedUop>>,
    /// Merged source tags (internal MOP edges removed). Inline up to four:
    /// a fused pair under the two-source CAM limit always fits, and only
    /// wired-OR pairs or longer chains can spill.
    srcs: SmallList<Tag, 4>,
    dst: Option<Tag>,
    fu: FuKind,
    age: UopId,
    pending_tail: bool,
    state: EntryState,
    /// Entry has been denied a grant at least once while woken
    /// (select-free collision bookkeeping).
    collided: bool,
    /// Entry may not request selection before this cycle (replay penalty).
    hold_until: u64,
    confirm_at: Option<u64>,
    /// Select-free: speculative wake broadcast already sent.
    spec_broadcast: bool,
    /// First cycle the entry requested selection with all sources ready
    /// (metrics only; cleared on replay so each grant measures its own
    /// wakeup→select slack).
    woken_at: Option<u64>,
}

impl Entry {
    fn latency(&self, config: &SchedConfig) -> u32 {
        if self.uops.len() > 1 {
            // A MOP is a non-pipelined multi-cycle unit; one cycle per uop.
            self.uops.len() as u32
        } else {
            let u = &self.uops[0];
            if u.is_load {
                config.load_sched_latency
            } else {
                u.sched_latency
            }
        }
    }

    fn is_mop(&self) -> bool {
        self.uops.len() > 1
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TagState {
    /// Wakeup time visible to the select logic (speculative in
    /// select-free mode until the producer is granted).
    ready_at: Option<u64>,
    /// Time the value is actually available (set at producer grant).
    actual_at: Option<u64>,
    /// Producer is a load whose hit/miss is not yet known.
    load_unresolved: bool,
    /// This dataflow edge was poisoned by a cache miss: the producer is a
    /// missed load or a consumer replayed in its shadow. Sticky for the
    /// tag's lifetime (tags are never reused), so slot accounting can
    /// charge the whole transitive wait to the miss.
    missed: bool,
}

/// Dense tag-state table. Tags are allocated by rename/formation from a
/// monotonic counter and never reused, so states live in a flat vector
/// indexed by `tag - base` instead of a hash map; pruning clears stale
/// slots and advances `base` over the dead prefix. A tag outside the
/// window (or with a cleared slot) is architecturally long done —
/// consumers treat it as ready.
#[derive(Debug, Clone, Default)]
struct TagTable {
    /// Tag number of `slots[0]`.
    base: u64,
    slots: Vec<Option<TagState>>,
}

impl TagTable {
    fn idx(&self, t: Tag) -> Option<usize> {
        t.0.checked_sub(self.base).map(|d| d as usize)
    }

    fn get(&self, t: Tag) -> Option<&TagState> {
        self.idx(t)
            .and_then(|i| self.slots.get(i))
            .and_then(Option::as_ref)
    }

    fn get_mut(&mut self, t: Tag) -> Option<&mut TagState> {
        let i = self.idx(t)?;
        self.slots.get_mut(i).and_then(Option::as_mut)
    }

    fn contains(&self, t: Tag) -> bool {
        self.get(t).is_some()
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

    fn insert(&mut self, t: Tag, s: TagState) {
        if let Some(slot) = self.slot(t) {
            *slot = Some(s);
        }
    }

    /// The state for `t`, created default if absent (the old
    /// `entry(t).or_default()`).
    fn ensure(&mut self, t: Tag) -> Option<&mut TagState> {
        let slot = self.slot(t)?;
        Some(slot.get_or_insert_with(TagState::default))
    }

    fn remove(&mut self, t: Tag) {
        if let Some(i) = self.idx(t) {
            if let Some(slot) = self.slots.get_mut(i) {
                *slot = None;
            }
        }
    }

    /// Wakeup visible to select logic; absent tags are long done.
    fn ready(&self, t: Tag, now: u64) -> bool {
        match self.get(t) {
            None => true,
            Some(s) => s.ready_at.is_some_and(|r| r <= now),
        }
    }

    /// Value actually available (grant-time verification).
    fn actually_ready(&self, t: Tag, now: u64) -> bool {
        match self.get(t) {
            None => true,
            Some(s) => s.actual_at.is_some_and(|r| r <= now),
        }
    }

    /// Clear states whose wakeup is older than `horizon`, then advance
    /// the floor over the cleared prefix so the vector stays bounded.
    fn prune(&mut self, now: u64, horizon: u64) {
        for slot in &mut self.slots {
            let keep = slot.as_ref().is_some_and(|s| {
                s.load_unresolved
                    || s.ready_at.is_none()
                    || s.ready_at.is_some_and(|r| r + horizon >= now)
            });
            if !keep {
                *slot = None;
            }
        }
        let dead = self.slots.iter().take_while(|s| s.is_none()).count();
        if dead > 0 {
            self.slots.drain(..dead);
            self.base += dead as u64;
        }
    }
}

/// Entry indices of the set bits of word `w` of a bitset, lowest first.
/// The iterator owns a copy of the word, so the queue may update its
/// bitsets while walking.
struct Bits {
    base: usize,
    word: u64,
}

impl Bits {
    fn of(w: usize, word: u64) -> Bits {
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

fn set_bit(words: &mut [u64], idx: usize) {
    words[idx / 64] |= 1 << (idx % 64);
}

fn clear_bit(words: &mut [u64], idx: usize) {
    words[idx / 64] &= !(1 << (idx % 64));
}

fn test_bit(words: &[u64], idx: usize) -> bool {
    words[idx / 64] & (1 << (idx % 64)) != 0
}

/// One issue decision returned by [`IssueQueue::cycle`].
#[derive(Debug, Clone)]
pub struct Issued {
    /// The entry that issued.
    pub entry: EntryId,
    /// The original uops in sequencing order (head first). The caller
    /// executes `uops[k]` in cycle `issue_cycle + k` (payload-RAM
    /// sequencing, Section 5.3.1). Shared with the queue entry, so a
    /// grant allocates nothing.
    pub uops: Arc<Vec<SchedUop>>,
    /// Cycle of selection.
    pub issue_cycle: u64,
}

/// Aggregate queue statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Entries selected.
    pub issued_entries: u64,
    /// Uops selected (each MOP member counted).
    pub issued_uops: u64,
    /// Uops replayed due to load misses.
    pub load_replay_uops: u64,
    /// Select-free collision victims (woken but not granted that cycle).
    pub collisions: u64,
    /// Scoreboard pileup victims (issued on a stale wakeup, replayed).
    pub pileup_replays: u64,
    /// Speculative-wakeup grants cancelled at parent verification
    /// (Stark et al.): slots wasted, instruction retries.
    pub spec_wakeup_cancels: u64,
    /// Sum over cycles of occupied entries (divide by cycles for the mean).
    pub occupancy_integral: u64,
    /// Cycles advanced.
    pub cycles: u64,
    /// Entries whose pending tail was cancelled.
    pub cancelled_pendings: u64,
}

impl QueueStats {
    /// Mean occupied entries per cycle.
    pub fn mean_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.occupancy_integral as f64 / self.cycles as f64
        }
    }
}

/// Opt-in scheduling distributions, behind the same
/// zero-cost-when-disabled guard as event tracing: when metrics are off
/// (the default) no sample is ever taken.
#[derive(Debug, Clone, Default)]
pub struct QueueMetrics {
    /// Occupied entries, sampled once per cycle. Reconciles with
    /// [`QueueStats`]: the sample count equals `cycles` and the sample sum
    /// equals `occupancy_integral`.
    pub occupancy: Hist,
    /// Cycles from an entry's first selection request with every source
    /// ready to the grant that issued it, one sample per granted entry
    /// (the sample count equals `issued_entries`). Nonzero delays are
    /// structural-hazard or collision victims.
    pub wakeup_select_delay: Hist,
}

/// Opt-in per-slot cause accounting, behind the same zero-cost guard as
/// tracing and metrics: when accounting is off (the default) the queue
/// does no classification work at all.
#[derive(Debug, Clone, Default)]
struct SlotAccounting {
    /// Slots charged by the queue (useful / loop / fusion / stall causes).
    counts: SlotCounts,
    /// Idle slots last cycle with no waiting entry to blame. The driver
    /// (simulator) charges these to frontend, wrong-path or drained.
    empty: u64,
    /// Reusable classification scratch: `(age, cause)` per waiting entry,
    /// sorted oldest-first to mirror select priority.
    cause_buf: Vec<(UopId, SlotCause)>,
}

/// The issue queue. See the module docs for the scheduling models.
///
/// ```
/// use mos_core::queue::IssueQueue;
/// use mos_core::{SchedConfig, SchedUop, Tag, UopId};
/// use mos_isa::InstClass;
///
/// let mut q = IssueQueue::new(SchedConfig::default());
/// let add = SchedUop::leaf(UopId(0), InstClass::IntAlu, Some(Tag(0)));
/// q.insert(add).unwrap();
/// let issued = q.cycle(0);
/// assert_eq!(issued.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IssueQueue {
    config: SchedConfig,
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// One bit per entry index in [`EntryState::Waiting`] (DESIGN §6).
    /// Every per-cycle loop walks these bitsets in ascending index order
    /// instead of scanning all `entries`, so its cost follows occupancy.
    waiting: Vec<u64>,
    /// One bit per entry index in [`EntryState::Issued`].
    issued: Vec<u64>,
    tags: TagTable,
    now: u64,
    next_gen: u64,
    /// Issue slots and FUs consumed this cycle by MOP tails issued last
    /// cycle (payload-RAM sequencing blocks the slot).
    slots_blocked: usize,
    fu_blocked: [usize; 5],
    stats: QueueStats,
    /// Reusable request-phase scratch (hoisted out of the per-cycle loop).
    req_buf: Vec<(UopId, usize)>,
    /// Reusable replay work list.
    work_buf: Vec<Tag>,
    /// Uop lists of released and squashed entries, reused by inserts
    /// (DESIGN §6): a list comes back once no grant shares it.
    uop_pool: Vec<Arc<Vec<SchedUop>>>,
    /// Event tracing enabled. When `false` (the default) no event value is
    /// ever constructed — every emission site is behind this one branch.
    trace: bool,
    /// Buffered events awaiting [`IssueQueue::drain_trace_into`]. The
    /// driver owns the cycle stamp (the queue's clock lags the
    /// simulator's during insertion), so buffered cycles are provisional.
    trace_buf: Vec<TraceEvent>,
    /// Opt-in scheduling histograms; `None` (the default) samples nothing.
    metrics: Option<Box<QueueMetrics>>,
    /// Opt-in per-slot cause accounting; `None` (the default) classifies
    /// nothing.
    accounting: Option<Box<SlotAccounting>>,
}

impl IssueQueue {
    /// Create a queue per `config`. An unrestricted queue
    /// (`queue_entries == None`) is modeled with a capacity large enough
    /// never to fill before a 128-entry re-order buffer does.
    pub fn new(config: SchedConfig) -> IssueQueue {
        let cap = config.queue_entries.unwrap_or(512);
        IssueQueue {
            entries: (0..cap).map(|_| None).collect(),
            free: (0..cap).rev().collect(),
            waiting: vec![0; cap.div_ceil(64)],
            issued: vec![0; cap.div_ceil(64)],
            tags: TagTable::default(),
            now: 0,
            next_gen: 1,
            slots_blocked: 0,
            fu_blocked: [0; 5],
            stats: QueueStats::default(),
            req_buf: Vec::new(),
            work_buf: Vec::new(),
            uop_pool: Vec::new(),
            trace: false,
            trace_buf: Vec::new(),
            metrics: None,
            accounting: None,
            config,
        }
    }

    /// Turn event tracing on or off. Off by default; when off the queue
    /// does no per-event work at all.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = on;
        if !on {
            self.trace_buf.clear();
        }
    }

    /// `true` when event tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Turn metric histograms on or off. Off by default; when off the
    /// queue takes no samples at all (the same guard discipline as
    /// [`IssueQueue::set_tracing`]).
    pub fn set_metrics(&mut self, on: bool) {
        self.metrics = on.then(Box::<QueueMetrics>::default);
    }

    /// The collected histograms, if metrics are enabled.
    pub fn metrics(&self) -> Option<&QueueMetrics> {
        self.metrics.as_deref()
    }

    /// Turn per-slot cause accounting on or off. Off by default; when off
    /// the queue does no classification work at all (the same guard
    /// discipline as [`IssueQueue::set_tracing`]). Enable before the first
    /// cycle so the conservation law holds for the whole run.
    pub fn set_slot_accounting(&mut self, on: bool) {
        self.accounting = on.then(Box::<SlotAccounting>::default);
    }

    /// Per-cause slot counts charged by the queue, if accounting is on.
    /// The queue charges everything it can see; idle slots it could not
    /// blame on a waiting entry are reported via
    /// [`IssueQueue::unattributed_slots`] for the driver to classify.
    pub fn slot_counts(&self) -> Option<&SlotCounts> {
        self.accounting.as_deref().map(|a| &a.counts)
    }

    /// Idle slots from the most recent cycle that had no waiting entry to
    /// blame. The driver charges these to frontend back-pressure,
    /// wrong-path recovery or a drained machine — exactly once per cycle,
    /// right after [`IssueQueue::cycle_into`].
    pub fn unattributed_slots(&self) -> u64 {
        self.accounting.as_deref().map_or(0, |a| a.empty)
    }

    /// Move every buffered trace event into `out`, re-stamping each with
    /// `cycle` (the driver's clock — the queue buffers events emitted
    /// while its own clock lags, e.g. during insertion).
    pub fn drain_trace_into(&mut self, cycle: u64, out: &mut Vec<TraceEvent>) {
        for mut ev in self.trace_buf.drain(..) {
            ev.set_cycle(cycle);
            out.push(ev);
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.config
    }

    /// Number of occupied entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Number of free entries.
    pub fn free_entries(&self) -> usize {
        self.free.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    fn alloc(&mut self) -> Result<usize, InsertError> {
        self.free.pop().ok_or(InsertError::Full)
    }

    fn entry_mut(&mut self, id: EntryId) -> Option<&mut Entry> {
        self.entries
            .get_mut(id.index)?
            .as_mut()
            .filter(|e| e.gen == id.gen)
    }

    /// A one-uop list holding `uop`, reusing a pooled list when no grant
    /// still shares it.
    fn uop_list(&mut self, uop: SchedUop) -> Arc<Vec<SchedUop>> {
        if let Some(mut list) = self.uop_pool.pop() {
            if let Some(v) = Arc::get_mut(&mut list) {
                v.clear();
                v.push(uop);
                return list;
            }
        }
        let mut v = Vec::with_capacity(self.config.mop.max_mop_size.max(1));
        v.push(uop);
        Arc::new(v)
    }

    /// Empty slot `idx` and put its uop list in the pool. The caller
    /// clears the slot's state bit.
    fn free_entry(&mut self, idx: usize) {
        let e = self.entries[idx].take().expect("freed entry is occupied");
        self.uop_pool.push(e.uops);
        self.free.push(idx);
    }

    /// Filter a uop's source tags against current tag state: tags nobody
    /// remembers are architecturally long done.
    fn live_srcs(&self, uop: &SchedUop) -> SmallList<Tag, 4> {
        uop.srcs
            .iter()
            .copied()
            .filter(|&t| self.tags.contains(t))
            .collect()
    }

    /// Insert a singleton entry.
    ///
    /// # Errors
    ///
    /// [`InsertError::Full`] when no entry is free.
    pub fn insert(&mut self, uop: SchedUop) -> Result<EntryId, InsertError> {
        self.insert_inner(uop, false)
    }

    /// Insert a MOP head whose tail has not arrived yet. The entry carries
    /// a pending bit and will not request selection until
    /// [`IssueQueue::fuse_tail`] or [`IssueQueue::cancel_pending`]
    /// (Section 5.2.3, Figure 11).
    ///
    /// # Errors
    ///
    /// [`InsertError::Full`] when no entry is free.
    pub fn insert_mop_head(&mut self, uop: SchedUop) -> Result<EntryId, InsertError> {
        self.insert_inner(uop, true)
    }

    fn insert_inner(&mut self, uop: SchedUop, pending: bool) -> Result<EntryId, InsertError> {
        let idx = self.alloc()?;
        let gen = self.next_gen;
        self.next_gen += 1;
        if let Some(dst) = uop.dst {
            self.tags.insert(dst, TagState::default());
        }
        let srcs = self.live_srcs(&uop);
        if self.trace {
            self.trace_buf.push(TraceEvent::Rename {
                cycle: self.now,
                id: uop.id,
                sidx: uop.sidx,
                entry: EntryId { index: idx, gen },
                dst: uop.dst,
                srcs: srcs.to_vec(),
                fused: false,
                pending,
                is_load: uop.is_load,
                fetched_at: uop.fetched_at,
                wrong_path: uop.wrong_path,
            });
        }
        self.entries[idx] = Some(Entry {
            gen,
            srcs,
            dst: uop.dst,
            fu: uop.fu,
            age: uop.id,
            pending_tail: pending,
            state: EntryState::Waiting,
            collided: false,
            hold_until: 0,
            confirm_at: None,
            spec_broadcast: false,
            woken_at: None,
            uops: self.uop_list(uop),
        });
        set_bit(&mut self.waiting, idx);
        Ok(EntryId { index: idx, gen })
    }

    /// Fuse `tail` into the MOP entry at `head`, clearing the pending bit.
    /// The tail's dependence on the head (their shared MOP tag) becomes
    /// the internal edge and is not tracked as a source.
    ///
    /// # Errors
    ///
    /// [`InsertError::BadEntry`] if the head entry is gone or already
    /// issued; [`InsertError::MopTooLarge`] if the configured size is
    /// exceeded.
    pub fn fuse_tail(&mut self, head: EntryId, tail: SchedUop) -> Result<(), InsertError> {
        let max = self.config.mop.max_mop_size;
        let live = self.live_srcs(&tail);
        let Some(e) = self.entry_mut(head) else {
            return Err(InsertError::BadEntry);
        };
        if e.state != EntryState::Waiting {
            return Err(InsertError::BadEntry);
        }
        if e.uops.len() + 1 > max {
            return Err(InsertError::MopTooLarge);
        }
        let mop_tag = e.dst;
        for &t in &live {
            if Some(t) == mop_tag {
                continue; // internal head->tail edge
            }
            if !e.srcs.contains(&t) {
                e.srcs.push(t);
            }
        }
        // Head and tail share one MOP ID; formation's translation table
        // aliases the tail's destination to it, so no new tag is made.
        e.pending_tail = false;
        Arc::make_mut(&mut e.uops).push(tail);
        if self.trace {
            let e = self.entries[head.index].as_ref().expect("fused above");
            let tail = e.uops.last().expect("just pushed");
            self.trace_buf.push(TraceEvent::Rename {
                cycle: self.now,
                id: tail.id,
                sidx: tail.sidx,
                entry: head,
                dst: mop_tag,
                srcs: e.srcs.to_vec(),
                fused: true,
                pending: false,
                is_load: tail.is_load,
                fetched_at: tail.fetched_at,
                wrong_path: tail.wrong_path,
            });
        }
        Ok(())
    }

    /// Re-arm the pending bit on a fused entry that expects a further tail
    /// (used for >2-instruction MOP chains, the paper's future-work
    /// configurations).
    pub fn mark_pending(&mut self, id: EntryId) {
        if let Some(e) = self.entry_mut(id) {
            if e.state == EntryState::Waiting {
                e.pending_tail = true;
            }
        }
    }

    /// Give up waiting for a tail: the head becomes an ordinary singleton
    /// (fetch never delivered the tail in the consecutive insert group).
    pub fn cancel_pending(&mut self, head: EntryId) {
        if let Some(e) = self.entry_mut(head) {
            if e.pending_tail {
                e.pending_tail = false;
                self.stats.cancelled_pendings += 1;
            }
        }
    }

    /// `true` if the entry still exists and is waiting for its tail.
    pub fn is_pending(&self, id: EntryId) -> bool {
        self.entries
            .get(id.index)
            .and_then(|s| s.as_ref())
            .is_some_and(|e| e.gen == id.gen && e.pending_tail)
    }

    /// Advance one cycle. `now` must increase by exactly one between
    /// calls (the first call sets the epoch). Returns the entries issued.
    ///
    /// Allocates the result vector; the hot simulator loop uses
    /// [`IssueQueue::cycle_into`] with a reusable buffer instead.
    pub fn cycle(&mut self, now: u64) -> Vec<Issued> {
        let mut out = Vec::new();
        self.cycle_into(now, &mut out);
        out
    }

    /// Advance one cycle, clearing `out` and appending this cycle's issue
    /// decisions to it.
    pub fn cycle_into(&mut self, now: u64, out: &mut Vec<Issued>) {
        out.clear();
        debug_assert!(
            self.stats.cycles == 0 || now == self.now + 1,
            "cycles must be consecutive"
        );
        debug_assert!(self.bitsets_agree(), "bitsets disagree with entry states");
        self.now = now;
        self.stats.cycles += 1;

        // Release entries whose execution is known good.
        for w in 0..self.issued.len() {
            for idx in Bits::of(w, self.issued[w]) {
                let release = self.entries[idx]
                    .as_ref()
                    .is_some_and(|e| e.confirm_at.is_some_and(|c| c <= now));
                if release {
                    self.free_entry(idx);
                    clear_bit(&mut self.issued, idx);
                }
            }
        }
        let occ = self.occupancy() as u64;
        self.stats.occupancy_integral += occ;
        if let Some(m) = self.metrics.as_deref_mut() {
            m.occupancy.record(occ);
        }

        let select_free = self.config.kind.broadcasts_at_wakeup();

        // Speculative wakeup phase (select-free and speculative-wakeup
        // schedulers): broadcast at wake time, before selection confirms.
        if select_free {
            for w in 0..self.waiting.len() {
                for idx in Bits::of(w, self.waiting[w]) {
                    let e = self.entries[idx].as_ref().expect("waiting entry exists");
                    if e.pending_tail || e.spec_broadcast {
                        continue;
                    }
                    if !e.srcs.iter().all(|&t| self.tags.ready(t, now)) {
                        continue;
                    }
                    let lat = u64::from(e.latency(&self.config).max(1));
                    let dst = e.dst;
                    let is_load = e.uops[0].is_load;
                    if let Some(e) = self.entries[idx].as_mut() {
                        e.spec_broadcast = true;
                    }
                    if let Some(d) = dst {
                        if let Some(s) = self.tags.ensure(d) {
                            s.ready_at = Some(now + lat);
                            s.load_unresolved = is_load;
                            if self.trace {
                                self.trace_buf.push(TraceEvent::Wakeup {
                                    cycle: now,
                                    tag: d,
                                    ready_at: now + lat,
                                    speculative: true,
                                });
                            }
                        }
                    }
                }
            }
        }

        // Request phase (the scratch vector is queue-owned and reused).
        let mut requesters = std::mem::take(&mut self.req_buf);
        requesters.clear();
        for w in 0..self.waiting.len() {
            for idx in Bits::of(w, self.waiting[w]) {
                let e = self.entries[idx].as_ref().expect("waiting entry exists");
                if e.pending_tail || e.hold_until > now {
                    continue;
                }
                if e.srcs.iter().all(|&t| self.tags.ready(t, now)) {
                    requesters.push((e.age, idx));
                    if self.metrics.is_some() {
                        if let Some(e) = self.entries[idx].as_mut() {
                            if e.woken_at.is_none() {
                                e.woken_at = Some(now);
                            }
                        }
                    }
                }
            }
        }
        requesters.sort_unstable();

        // Grant phase: oldest first, within issue width and FU pools,
        // minus the slots/FUs blocked by MOP tails sequencing this cycle.
        let blocked_slots = self.slots_blocked.min(self.config.issue_width);
        let waste_before = self.stats.spec_wakeup_cancels + self.stats.pileup_replays;
        let mut width = self.config.issue_width.saturating_sub(self.slots_blocked);
        let mut fu_avail = [0usize; 5];
        for (k, avail) in fu_avail.iter_mut().enumerate() {
            *avail = self.config.fu_counts[k].saturating_sub(self.fu_blocked[k]);
        }
        let mut slots_next = 0usize;
        let mut fu_next = [0usize; 5];

        for &(_, idx) in &requesters {
            let fu = self.entries[idx].as_ref().expect("requester exists").fu;
            if width == 0 || fu_avail[fu.index()] == 0 {
                self.note_collision(idx);
                continue;
            }

            // Speculative wakeup (Stark et al.): the select stage verifies
            // the parents really issued; a failed verification wastes the
            // issue slot and the instruction simply retries next cycle.
            if self.config.kind == SchedulerKind::SpeculativeWakeup {
                let e = self.entries[idx].as_ref().expect("requester exists");
                let stale = e.srcs.iter().any(|&t| !self.tags.actually_ready(t, now));
                if stale {
                    width -= 1;
                    self.stats.spec_wakeup_cancels += 1;
                    continue;
                }
            }

            // Scoreboard pileup check: did every producer actually deliver?
            if self.config.kind == SchedulerKind::SelectFreeScoreboard {
                let e = self.entries[idx].as_ref().expect("requester exists");
                let stale = e.srcs.iter().any(|&t| !self.tags.actually_ready(t, now));
                if stale {
                    // The pileup victim consumed an issue slot and an FU,
                    // is caught in the register-read stage and replayed.
                    width -= 1;
                    fu_avail[fu.index()] -= 1;
                    self.stats.pileup_replays += 1;
                    for &t in &e.srcs {
                        // Un-broadcast every stale wakeup for everyone
                        // (entries and tags are disjoint borrows; no
                        // source-list clone needed).
                        if let Some(s) = self.tags.get_mut(t) {
                            if s.actual_at.is_none_or(|r| r > now) {
                                s.ready_at = s.actual_at;
                            }
                        }
                    }
                    let penalty = u64::from(self.config.replay_penalty);
                    if let Some(e) = self.entries[idx].as_mut() {
                        e.hold_until = now + penalty;
                    }
                    continue;
                }
            }

            width -= 1;
            fu_avail[fu.index()] -= 1;

            // Broadcast the destination tag.
            let e = self.entries[idx].as_ref().expect("requester exists");
            let lat = u64::from(e.latency(&self.config));
            if e.is_mop() {
                slots_next += 1;
                fu_next[fu.index()] += 1;
            }
            if let Some(d) = e.dst {
                let is_load = e.uops.iter().any(|u| u.is_load);
                let collided = e.collided;
                let floor = u64::from(self.config.kind.wakeup_floor());
                if let Some(s) = self.tags.ensure(d) {
                    let prev_ready = s.ready_at;
                    s.actual_at = Some(now + lat.max(1));
                    s.load_unresolved = is_load;
                    if select_free {
                        match self.config.kind {
                            SchedulerKind::SelectFreeSquashDep => {
                                // Dependents were squashed when we collided;
                                // re-broadcast now with the re-wake penalty.
                                if collided {
                                    s.ready_at = Some(now + lat.max(1) + 1);
                                } else if s.ready_at.is_none() {
                                    s.ready_at = Some(now + lat.max(1));
                                }
                            }
                            SchedulerKind::SelectFreeScoreboard
                            | SchedulerKind::SpeculativeWakeup => {
                                // Keep the (possibly stale-early) speculative
                                // wakeup; grant-time verification absorbs the
                                // damage.
                                if s.ready_at.is_none() {
                                    s.ready_at = Some(now + lat.max(1));
                                }
                            }
                            _ => unreachable!("select_free implies a wakeup-speculating kind"),
                        }
                    } else {
                        s.ready_at = Some(now + lat.max(floor));
                    }
                    if self.trace && s.ready_at != prev_ready {
                        self.trace_buf.push(TraceEvent::Wakeup {
                            cycle: now,
                            tag: d,
                            ready_at: s.ready_at.expect("broadcast sets a ready time"),
                            speculative: false,
                        });
                    }
                }
            }

            let e = self.entries[idx].as_mut().expect("entry exists");
            e.state = EntryState::Issued;
            clear_bit(&mut self.waiting, idx);
            set_bit(&mut self.issued, idx);
            e.confirm_at =
                Some(now + u64::from(self.config.confirm_window) + (e.uops.len() as u64 - 1));
            if let Some(m) = self.metrics.as_deref_mut() {
                m.wakeup_select_delay.record(now - e.woken_at.take().unwrap_or(now));
            }
            self.stats.issued_entries += 1;
            self.stats.issued_uops += e.uops.len() as u64;
            out.push(Issued {
                entry: EntryId {
                    index: idx,
                    gen: e.gen,
                },
                uops: Arc::clone(&e.uops),
                issue_cycle: now,
            });
            if self.trace {
                let e = self.entries[idx].as_ref().expect("entry exists");
                self.trace_buf.push(TraceEvent::Select {
                    cycle: now,
                    entry: EntryId {
                        index: idx,
                        gen: e.gen,
                    },
                    uops: e.uops.iter().map(|u| u.id).collect(),
                    srcs: e.srcs.to_vec(),
                    dst: e.dst,
                    latency: e.latency(&self.config),
                    is_load: e.uops.iter().any(|u| u.is_load),
                });
            }
        }

        self.req_buf = requesters;
        self.slots_blocked = slots_next;
        self.fu_blocked = fu_next;

        if self.accounting.is_some() {
            let wasted = self.stats.spec_wakeup_cancels + self.stats.pileup_replays - waste_before;
            self.account_cycle(now, blocked_slots, wasted, out.len());
        }
    }

    /// Every free slot has neither bit set and every occupied entry has
    /// exactly the bit of its state. Checked at the start of every debug
    /// cycle, which covers the previous cycle's grants and releases and
    /// every insert, fuse, replay and squash since.
    fn bitsets_agree(&self) -> bool {
        self.entries.iter().enumerate().all(|(idx, e)| {
            let expected = e.as_ref().map_or((false, false), |e| {
                (e.state == EntryState::Waiting, e.state == EntryState::Issued)
            });
            (test_bit(&self.waiting, idx), test_bit(&self.issued, idx)) == expected
        })
    }

    /// Charge this cycle's `issue_width` slots to causes: grants are
    /// useful, MOP payload-sequencing blocks are fusion overhead, slots
    /// burned by select-free mis-speculation (stale-grant cancels, pileup
    /// replays) are scheduling-loop cost, and each remaining idle slot is
    /// blamed on the oldest still-waiting entries (mirroring select
    /// priority). Idle slots with nobody waiting are left for the driver
    /// via [`IssueQueue::unattributed_slots`].
    fn account_cycle(&mut self, now: u64, blocked: usize, wasted: u64, grants: usize) {
        let Some(mut acc) = self.accounting.take() else {
            return;
        };
        let width = self.config.issue_width as u64;
        let busy = blocked as u64 + wasted + grants as u64;
        debug_assert!(busy <= width, "charged more slots than the machine offers");
        acc.counts.add(SlotCause::Useful, grants as u64);
        acc.counts.add(SlotCause::MopFusion, blocked as u64);
        acc.counts.add(SlotCause::SchedLoop, wasted);
        let idle = (width - busy) as usize;
        acc.empty = 0;
        if idle > 0 {
            acc.cause_buf.clear();
            for (w, &word) in self.waiting.iter().enumerate() {
                for idx in Bits::of(w, word) {
                    let e = self.entries[idx].as_ref().expect("waiting entry exists");
                    acc.cause_buf.push((e.age, self.stall_cause(e, now)));
                }
            }
            acc.cause_buf.sort_unstable_by_key(|&(age, _)| age);
            let attributed = acc.cause_buf.len().min(idle);
            for &(_, cause) in acc.cause_buf.iter().take(attributed) {
                acc.counts.add(cause, 1);
            }
            acc.empty = (idle - attributed) as u64;
        }
        self.accounting = Some(acc);
    }

    /// Why a waiting entry did not issue this cycle, as one exclusive
    /// cause. Priority (DESIGN §10): fusion wait > pileup hold-off >
    /// miss shadow > ready-but-denied > loop penalty > true dependence.
    fn stall_cause(&self, e: &Entry, now: u64) -> SlotCause {
        if e.pending_tail {
            // A fused head waiting for its tail to arrive.
            return SlotCause::MopFusion;
        }
        if e.hold_until > now {
            // Scoreboard pileup hold-off: select-free loop speculation.
            return SlotCause::SchedLoop;
        }
        let mut all_visible = true;
        let mut loop_only = true;
        for &t in &e.srcs {
            if self.tags.ready(t, now) {
                continue;
            }
            all_visible = false;
            match self.tags.get(t) {
                Some(s) if s.missed => return SlotCause::LoadMiss,
                Some(s) if s.actual_at.is_none_or(|r| r > now) => loop_only = false,
                // Remaining: actually ready but invisible (loop bubble).
                // Absent tags always read as ready; unreachable here.
                Some(_) | None => {}
            }
        }
        if all_visible {
            // Every source visible: the entry requested selection and lost
            // (width or FU contention, or a select-free cancel).
            SlotCause::Bandwidth
        } else if loop_only {
            // Values all computed (`actual_at <= now`) yet not visible to
            // wakeup — purely the pipelined scheduling-loop bubble.
            SlotCause::SchedLoop
        } else {
            SlotCause::NotReady
        }
    }

    /// A woken requester denied selection this cycle: in squash-dep mode
    /// its speculative wakeup of dependents is squashed.
    fn note_collision(&mut self, idx: usize) {
        if !self.config.kind.broadcasts_at_wakeup() {
            return;
        }
        self.stats.collisions += 1;
        let (dst, first) = {
            let e = self.entries[idx].as_mut().expect("collision entry exists");
            let first = !e.collided;
            e.collided = true;
            (e.dst, first)
        };
        if self.config.kind == SchedulerKind::SelectFreeSquashDep && first {
            if let Some(d) = dst {
                if let Some(s) = self.tags.get_mut(d) {
                    s.ready_at = None; // squash dependents' wakeups
                }
            }
        }
    }

    /// Report a load's cache outcome. On a miss, dependents issued in the
    /// load shadow are selectively replayed (transitively); the tag
    /// re-broadcasts at `data_ready_at` plus the replay penalty. Returns
    /// the uops pulled back for replay so the caller can invalidate any
    /// in-flight execution bookkeeping for them.
    pub fn load_resolved(&mut self, tag: Tag, hit: bool, data_ready_at: u64) -> Vec<UopId> {
        let mut out = Vec::new();
        self.load_resolved_into(tag, hit, data_ready_at, &mut out);
        out
    }

    /// [`IssueQueue::load_resolved`] without allocating the result: `out`
    /// is cleared and filled with the replayed uop ids.
    pub fn load_resolved_into(
        &mut self,
        tag: Tag,
        hit: bool,
        data_ready_at: u64,
        out: &mut Vec<UopId>,
    ) {
        out.clear();
        let Some(s) = self.tags.get_mut(tag) else {
            return;
        };
        s.load_unresolved = false;
        if self.trace {
            self.trace_buf.push(TraceEvent::LoadResolve {
                cycle: self.now,
                tag,
                hit,
                data_ready: data_ready_at,
            });
        }
        if hit {
            return;
        }
        let ready = data_ready_at + u64::from(self.config.replay_penalty);
        s.ready_at = Some(ready);
        s.actual_at = Some(ready);
        s.missed = true;
        if self.trace {
            self.trace_buf.push(TraceEvent::Wakeup {
                cycle: self.now,
                tag,
                ready_at: ready,
                speculative: false,
            });
        }
        self.replay_consumers(tag, ready, out);
    }

    /// Recursively pull issued-but-unconfirmed consumers of `tag` back to
    /// the waiting state, revoking their own broadcasts. Appends the
    /// replayed uop ids to `replayed`. `reissue_at` is the missed tag's
    /// re-broadcast time (trace bookkeeping only).
    fn replay_consumers(&mut self, tag: Tag, reissue_at: u64, replayed: &mut Vec<UopId>) {
        let mut work = std::mem::take(&mut self.work_buf);
        work.clear();
        work.push(tag);
        while let Some(t) = work.pop() {
            for w in 0..self.issued.len() {
                for idx in Bits::of(w, self.issued[w]) {
                    let e = self.entries[idx].as_mut().expect("issued entry exists");
                    if !e.srcs.contains(&t) {
                        continue;
                    }
                    e.state = EntryState::Waiting;
                    e.confirm_at = None;
                    e.spec_broadcast = false;
                    e.collided = false;
                    e.woken_at = None;
                    clear_bit(&mut self.issued, idx);
                    set_bit(&mut self.waiting, idx);
                    self.stats.load_replay_uops += e.uops.len() as u64;
                    replayed.extend(e.uops.iter().map(|u| u.id));
                    if let Some(d) = e.dst {
                        if let Some(s) = self.tags.get_mut(d) {
                            s.ready_at = None;
                            s.actual_at = None;
                            s.missed = true;
                        }
                        work.push(d);
                    }
                    if self.trace {
                        let e = self.entries[idx].as_ref().expect("replayed above");
                        self.trace_buf.push(TraceEvent::Replay {
                            cycle: self.now,
                            entry: EntryId {
                                index: idx,
                                gen: e.gen,
                            },
                            uops: e.uops.iter().map(|u| u.id).collect(),
                            tag: t,
                            reissue_at,
                        });
                    }
                }
            }
        }
        self.work_buf = work;
    }

    /// Branch-misprediction squash: remove every entry whose head uop is
    /// at or after `first_squashed`. A MOP whose head survives but whose
    /// tail was fetched on the wrong path drops the tail and issues alone,
    /// with the tail's source operands released (Section 5.3.2). Pending
    /// bits on surviving entries are cleared — their tails can no longer
    /// arrive.
    pub fn squash_from(&mut self, first_squashed: UopId) {
        for w in 0..self.waiting.len() {
            for idx in Bits::of(w, self.waiting[w] | self.issued[w]) {
                let e = self.entries[idx].as_mut().expect("occupied entry exists");
                if e.age >= first_squashed {
                    // Whole entry is wrong-path.
                    if let Some(d) = e.dst {
                        self.tags.remove(d);
                    }
                    self.free_entry(idx);
                    clear_bit(&mut self.waiting, idx);
                    clear_bit(&mut self.issued, idx);
                    continue;
                }
                if e.uops.len() > 1 && e.uops.last().expect("non-empty").id >= first_squashed {
                    // Half-squashed MOP: drop wrong-path tail uops, restore
                    // the head's own source set, and let it schedule alone.
                    let uops = Arc::make_mut(&mut e.uops);
                    uops.retain(|u| u.id < first_squashed);
                    let head_srcs = &uops[0].srcs;
                    e.srcs.retain(|t| head_srcs.contains(t));
                }
                if e.pending_tail {
                    e.pending_tail = false;
                    self.stats.cancelled_pendings += 1;
                }
            }
        }
    }

    /// The cycle a tag's wakeup became (or will become) visible, if known.
    /// `None` both for unknown tags and for tags whose broadcast is
    /// currently revoked. Used by the simulator's last-arriving-operand
    /// filter (Section 5.4.2).
    pub fn tag_ready_time(&self, t: Tag) -> Option<u64> {
        self.tags.get(t).and_then(|s| s.ready_at)
    }

    /// Drop tag bookkeeping whose wakeup is older than `horizon` cycles;
    /// safe once every consumer that could name those tags has been
    /// inserted. The simulator calls this periodically.
    pub fn prune_tags(&mut self, horizon: u64) {
        self.tags.prune(self.now, horizon);
    }

    #[cfg(test)]
    fn force_external_tag(&mut self, tag: Tag) {
        self.tags.insert(tag, TagState::default());
    }

    #[cfg(test)]
    fn tracks_tag(&self, tag: Tag) -> bool {
        self.tags.contains(tag)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::config::WakeupStyle;
    use mos_isa::InstClass;

    fn cfg(kind: SchedulerKind) -> SchedConfig {
        SchedConfig {
            kind,
            wakeup: WakeupStyle::WiredOr,
            queue_entries: Some(32),
            ..SchedConfig::default()
        }
    }

    fn alu(id: u64, dst: Option<u64>, srcs: &[u64]) -> SchedUop {
        let mut u = SchedUop::leaf(UopId(id), InstClass::IntAlu, dst.map(Tag));
        u.srcs = srcs.iter().copied().map(Tag).collect();
        u
    }

    fn load(id: u64, dst: u64, srcs: &[u64]) -> SchedUop {
        let mut u = SchedUop::leaf(UopId(id), InstClass::Load, Some(Tag(dst)));
        u.srcs = srcs.iter().copied().map(Tag).collect();
        u
    }

    /// Run a chain `a -> b` and return (issue cycle of a, issue cycle of b).
    fn chain_issue_cycles(kind: SchedulerKind) -> (u64, u64) {
        let mut q = IssueQueue::new(cfg(kind));
        q.insert(alu(0, Some(100), &[])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap();
        let mut cycles = (None, None);
        for now in 0..20 {
            for i in q.cycle(now) {
                match i.uops[0].id {
                    UopId(0) => cycles.0 = Some(i.issue_cycle),
                    UopId(1) => cycles.1 = Some(i.issue_cycle),
                    _ => unreachable!(),
                }
            }
        }
        (cycles.0.unwrap(), cycles.1.unwrap())
    }

    #[test]
    fn base_issues_dependents_back_to_back() {
        let (a, b) = chain_issue_cycles(SchedulerKind::Base);
        assert_eq!(b - a, 1);
    }

    #[test]
    fn two_cycle_adds_a_bubble() {
        let (a, b) = chain_issue_cycles(SchedulerKind::TwoCycle);
        assert_eq!(b - a, 2);
    }

    #[test]
    fn select_free_matches_base_without_collisions() {
        let (a, b) = chain_issue_cycles(SchedulerKind::SelectFreeSquashDep);
        assert_eq!(b - a, 1);
        let (a, b) = chain_issue_cycles(SchedulerKind::SelectFreeScoreboard);
        assert_eq!(b - a, 1);
    }

    /// The paper's Figure 5: MOP(1,3); instruction 2 depends on the head,
    /// instruction 4 on the tail. Both wake 2 cycles after the MOP issues
    /// — which is consecutive execution for the tail's consumer.
    #[test]
    fn macro_op_timing_matches_figure5() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        q.fuse_tail(e, alu(2, Some(100), &[100])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap();
        q.insert(alu(3, Some(102), &[100])).unwrap();
        let mut mop_cycle = None;
        let mut dep_cycles = Vec::new();
        for now in 0..20 {
            for i in q.cycle(now) {
                if i.uops.len() == 2 {
                    mop_cycle = Some(i.issue_cycle);
                } else {
                    dep_cycles.push(i.issue_cycle);
                }
            }
        }
        let m = mop_cycle.expect("MOP issued");
        assert_eq!(dep_cycles, vec![m + 2, m + 2], "dependents wake at S+2");
    }

    #[test]
    fn ungrouped_singleton_in_macro_op_mode_behaves_like_two_cycle() {
        let (a, b) = chain_issue_cycles(SchedulerKind::MacroOp);
        assert_eq!(b - a, 2);
    }

    #[test]
    fn pending_head_does_not_request() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        assert!(q.cycle(0).is_empty(), "pending entry must not issue");
        assert!(q.is_pending(e));
        q.fuse_tail(e, alu(1, Some(100), &[100])).unwrap();
        let issued = q.cycle(1);
        assert_eq!(issued.len(), 1);
        assert_eq!(issued[0].uops.len(), 2);
    }

    #[test]
    fn cancel_pending_releases_head_as_singleton() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        assert!(q.cycle(0).is_empty());
        q.cancel_pending(e);
        let issued = q.cycle(1);
        assert_eq!(issued.len(), 1);
        assert_eq!(issued[0].uops.len(), 1);
        assert_eq!(q.stats().cancelled_pendings, 1);
    }

    #[test]
    fn mop_blocks_issue_slot_next_cycle() {
        let mut cfgv = cfg(SchedulerKind::MacroOp);
        cfgv.issue_width = 1;
        let mut q = IssueQueue::new(cfgv);
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        q.fuse_tail(e, alu(1, Some(100), &[100])).unwrap();
        q.insert(alu(2, Some(101), &[])).unwrap();
        assert_eq!(q.cycle(0).len(), 1, "MOP wins by age");
        assert!(q.cycle(1).is_empty(), "slot blocked while tail sequences");
        assert_eq!(q.cycle(2).len(), 1);
    }

    #[test]
    fn issue_width_limits_grants() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        for i in 0..6 {
            q.insert(alu(i, Some(100 + i), &[])).unwrap();
        }
        assert_eq!(q.cycle(0).len(), 4, "width is 4");
        assert_eq!(q.cycle(1).len(), 2);
    }

    #[test]
    fn fu_pool_limits_grants() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        for i in 0..3 {
            q.insert(load(i, 100 + i, &[])).unwrap();
        }
        assert_eq!(q.cycle(0).len(), 2, "2 memory ports");
        assert_eq!(q.cycle(1).len(), 1);
    }

    #[test]
    fn oldest_first_selection() {
        let mut c = cfg(SchedulerKind::Base);
        c.issue_width = 1;
        let mut q = IssueQueue::new(c);
        q.insert(alu(5, Some(105), &[])).unwrap();
        q.insert(alu(3, Some(103), &[])).unwrap();
        let i = q.cycle(0);
        assert_eq!(i[0].uops[0].id, UopId(3));
    }

    #[test]
    fn queue_full_rejects_and_frees_after_confirm() {
        let mut c = cfg(SchedulerKind::Base);
        c.queue_entries = Some(2);
        c.confirm_window = 3;
        let mut q = IssueQueue::new(c);
        q.insert(alu(0, Some(100), &[])).unwrap();
        q.insert(alu(1, Some(101), &[])).unwrap();
        assert_eq!(
            q.insert(alu(2, Some(102), &[])).unwrap_err(),
            InsertError::Full
        );
        q.cycle(0); // both issue
        assert_eq!(q.occupancy(), 2, "entries held until confirmed");
        q.cycle(1);
        q.cycle(2);
        q.cycle(3); // confirm_at = 0 + 3
        assert_eq!(q.occupancy(), 0);
        q.insert(alu(2, Some(102), &[])).unwrap();
    }

    #[test]
    fn load_miss_replays_dependents_selectively() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(load(0, 100, &[])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap(); // dependent
        q.insert(alu(2, Some(102), &[])).unwrap(); // independent
        let mut log: Vec<(u64, u64)> = Vec::new();
        for now in 0..40 {
            // Load issues at 0; dependent wakes at 0 + 3 (assumed hit).
            // Miss discovered at cycle 5, data back at cycle 20.
            if now == 5 {
                q.load_resolved(Tag(100), false, 20);
            }
            for i in q.cycle(now) {
                log.push((i.uops[0].id.0, i.issue_cycle));
            }
        }
        let issue_of =
            |id: u64| -> Vec<u64> { log.iter().filter(|(i, _)| *i == id).map(|(_, c)| *c).collect() };
        assert_eq!(issue_of(0), vec![0], "load itself is not replayed");
        assert_eq!(issue_of(2).len(), 1, "independent op untouched");
        let dep = issue_of(1);
        assert_eq!(dep.len(), 2, "dependent issued speculatively then replayed");
        assert_eq!(dep[1], 22, "re-issues at data_ready + 2-cycle penalty");
    }

    #[test]
    fn load_miss_replay_is_transitive() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(load(0, 100, &[])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap();
        q.insert(alu(2, Some(102), &[101])).unwrap(); // grandchild
        let mut reissues = 0;
        for now in 0..40 {
            if now == 6 {
                q.load_resolved(Tag(100), false, 20);
            }
            for i in q.cycle(now) {
                if i.uops[0].id == UopId(2) {
                    reissues += 1;
                }
            }
        }
        assert_eq!(reissues, 2, "grandchild replayed too");
        assert!(q.stats().load_replay_uops >= 2);
    }

    #[test]
    fn mop_replays_as_a_unit() {
        // Load feeds the MOP head; both uops must replay (Section 5.3.2).
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        q.insert(load(0, 100, &[])).unwrap();
        let e = q.insert_mop_head(alu(1, Some(101), &[100])).unwrap();
        q.fuse_tail(e, alu(2, Some(101), &[101])).unwrap();
        let mut mop_issues = 0;
        for now in 0..40 {
            if now == 6 {
                q.load_resolved(Tag(100), false, 20);
            }
            for i in q.cycle(now) {
                if i.uops.len() == 2 {
                    mop_issues += 1;
                }
            }
        }
        assert_eq!(mop_issues, 2, "whole MOP issued, replayed, re-issued");
    }

    #[test]
    fn load_hit_confirms_without_replay() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(load(0, 100, &[])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap();
        let mut count = 0;
        for now in 0..20 {
            if now == 5 {
                q.load_resolved(Tag(100), true, 5);
            }
            count += q.cycle(now).len();
        }
        assert_eq!(count, 2);
        assert_eq!(q.stats().load_replay_uops, 0);
    }

    #[test]
    fn squash_removes_younger_entries() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.force_external_tag(Tag(99));
        q.insert(alu(0, Some(100), &[99])).unwrap(); // not ready: survives
        q.insert(alu(5, Some(105), &[99])).unwrap();
        q.squash_from(UopId(3));
        assert_eq!(q.occupancy(), 1);
        assert!(q.tracks_tag(Tag(100)), "survivor tag kept");
        assert!(!q.tracks_tag(Tag(105)), "squashed tag removed");
    }

    #[test]
    fn half_squashed_mop_issues_head_alone() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        // Tail reads an unready external tag 99, blocking the whole MOP.
        q.force_external_tag(Tag(99));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        let mut tail = alu(5, Some(100), &[100]);
        tail.srcs.push(Tag(99));
        q.fuse_tail(e, tail).unwrap();
        assert!(q.cycle(0).is_empty(), "blocked by tail's operand");
        // Branch between 0 and 5 mispredicted: squash from id 3.
        q.squash_from(UopId(3));
        let issued = q.cycle(1);
        assert_eq!(issued.len(), 1);
        assert_eq!(issued[0].uops.len(), 1, "head issues alone");
        assert_eq!(issued[0].uops[0].id, UopId(0));
    }

    #[test]
    fn spilled_mop_sources_shrink_back_on_tail_squash() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        for t in 90..95 {
            q.force_external_tag(Tag(t));
        }
        // A three-source head (wired-OR) plus a tail with two more
        // sources: five merged tags spill the entry's inline list.
        let e = q.insert_mop_head(alu(0, Some(100), &[90, 91, 92])).unwrap();
        q.fuse_tail(e, alu(5, Some(100), &[100, 93, 94])).unwrap();
        let srcs = |q: &IssueQueue| q.entries[e.index].as_ref().unwrap().srcs.clone();
        let merged = srcs(&q);
        assert!(merged.spilled());
        assert_eq!(merged, vec![Tag(90), Tag(91), Tag(92), Tag(93), Tag(94)]);
        q.squash_from(UopId(3));
        let restored = srcs(&q);
        assert_eq!(restored, vec![Tag(90), Tag(91), Tag(92)], "head's sources");
        assert!(!restored.spilled(), "back inline without the tail's sources");
    }

    #[test]
    fn squash_clears_pending_bits() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        assert!(q.is_pending(e));
        q.squash_from(UopId(1)); // tail (younger) can never arrive
        assert!(!q.is_pending(e));
        assert_eq!(q.cycle(0).len(), 1);
    }

    #[test]
    fn squash_dep_collision_penalizes_dependent_rewake() {
        // Width 1 forces a collision between two ready producers; the
        // younger one's dependent pays the re-wake cycle.
        let mut c = cfg(SchedulerKind::SelectFreeSquashDep);
        c.issue_width = 1;
        let mut q = IssueQueue::new(c);
        q.insert(alu(0, Some(100), &[])).unwrap();
        q.insert(alu(1, Some(101), &[])).unwrap(); // collides at cycle 0
        q.insert(alu(2, Some(102), &[101])).unwrap(); // dependent of victim
        let mut sched: HashMap<u64, u64> = HashMap::new();
        for now in 0..20 {
            for i in q.cycle(now) {
                sched.insert(i.uops[0].id.0, i.issue_cycle);
            }
        }
        assert_eq!(sched[&0], 0);
        assert_eq!(sched[&1], 1, "victim granted next cycle");
        // Base timing would be 1 + 1 = 2; the squash/re-wake costs one.
        assert_eq!(sched[&2], 3);
        assert!(q.stats().collisions >= 1);
    }

    #[test]
    fn scoreboard_pileup_consumes_bandwidth_and_replays() {
        let mut c = cfg(SchedulerKind::SelectFreeScoreboard);
        c.issue_width = 2;
        let mut q = IssueQueue::new(c);
        // Two older producers fill both issue slots in cycle 0, making
        // id 2 a collision victim; its dependent (id 3) was mis-woken and
        // issues at cycle 1 alongside the victim — a pileup victim.
        q.insert(alu(0, Some(100), &[])).unwrap();
        q.insert(alu(1, Some(101), &[])).unwrap();
        q.insert(alu(2, Some(102), &[])).unwrap(); // collision victim at 0
        q.insert(alu(3, Some(103), &[102])).unwrap(); // mis-woken dependent
        let mut sched: HashMap<u64, Vec<u64>> = HashMap::new();
        for now in 0..20 {
            for i in q.cycle(now) {
                sched.entry(i.uops[0].id.0).or_default().push(i.issue_cycle);
            }
        }
        assert_eq!(sched[&0], vec![0]);
        assert_eq!(sched[&1], vec![0]);
        assert_eq!(sched[&2], vec![1], "victim granted next cycle");
        assert!(q.stats().pileup_replays >= 1, "dependent piled up");
        let dep = &sched[&3];
        assert_eq!(dep.len(), 1);
        // Base timing would be 1 + 1 = 2; pileup replay costs more.
        assert!(dep[0] > 2, "pileup victim delayed by replay: {dep:?}");
    }

    #[test]
    fn speculative_wakeup_matches_base_without_contention() {
        let (a, b) = chain_issue_cycles(SchedulerKind::SpeculativeWakeup);
        assert_eq!(b - a, 1, "grandparent wakeup keeps chains back-to-back");
    }

    #[test]
    fn speculative_wakeup_wastes_slots_on_failed_verification() {
        let mut c = cfg(SchedulerKind::SpeculativeWakeup);
        c.issue_width = 2;
        let mut q = IssueQueue::new(c);
        q.insert(alu(0, Some(100), &[])).unwrap();
        q.insert(alu(1, Some(101), &[])).unwrap();
        q.insert(alu(2, Some(102), &[])).unwrap(); // collision victim at 0
        q.insert(alu(3, Some(103), &[102])).unwrap(); // woken speculatively
        let mut sched: HashMap<u64, u64> = HashMap::new();
        for now in 0..20 {
            for i in q.cycle(now) {
                sched.insert(i.uops[0].id.0, i.issue_cycle);
            }
        }
        assert_eq!(sched[&2], 1, "victim granted next cycle");
        assert!(
            q.stats().spec_wakeup_cancels >= 1,
            "dependent's early grant must be cancelled at verification"
        );
        assert!(sched[&3] >= 2, "dependent retries after the cancel");
        assert_eq!(q.stats().pileup_replays, 0, "no replays in this scheme");
    }

    #[test]
    fn mean_occupancy_tracks_entries() {
        let mut c = cfg(SchedulerKind::Base);
        c.confirm_window = 100;
        let mut q = IssueQueue::new(c);
        q.insert(alu(0, Some(100), &[])).unwrap();
        for now in 0..10 {
            q.cycle(now);
        }
        assert!((q.stats().mean_occupancy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prune_tags_keeps_recent_and_unresolved() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(load(0, 100, &[])).unwrap();
        q.insert(alu(1, Some(101), &[])).unwrap();
        for now in 0..5 {
            q.cycle(now);
        }
        q.prune_tags(2);
        assert!(
            q.tracks_tag(Tag(100)),
            "unresolved load tag must survive pruning"
        );
    }

    #[test]
    fn fuse_into_issued_entry_fails() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert(alu(0, Some(100), &[])).unwrap();
        q.cycle(0);
        assert_eq!(
            q.fuse_tail(e, alu(1, Some(100), &[100])).unwrap_err(),
            InsertError::BadEntry
        );
    }

    #[test]
    fn fuse_beyond_mop_size_fails() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        q.fuse_tail(e, alu(1, Some(100), &[100])).unwrap();
        assert_eq!(
            q.fuse_tail(e, alu(2, Some(100), &[100])).unwrap_err(),
            InsertError::MopTooLarge
        );
    }

    #[test]
    fn tag_table_prune_advances_floor_over_dead_prefix() {
        let mut t = TagTable::default();
        for n in 0..8u64 {
            t.insert(
                Tag(n),
                TagState {
                    ready_at: Some(n),
                    actual_at: Some(n),
                    load_unresolved: false,
                    missed: false,
                },
            );
        }
        // keep = ready_at + horizon >= now, so only tag 7 survives.
        t.prune(100, 93);
        assert_eq!(t.base, 7, "floor advances over the cleared prefix");
        assert_eq!(t.slots.len(), 1);
        assert!(t.contains(Tag(7)));
    }

    #[test]
    fn tag_table_unresolved_slot_pins_the_floor() {
        let mut t = TagTable::default();
        for n in 0..8u64 {
            t.insert(
                Tag(n),
                TagState {
                    ready_at: Some(n),
                    actual_at: Some(n),
                    load_unresolved: n == 3,
                    missed: false,
                },
            );
        }
        t.prune(100, 0);
        assert_eq!(t.base, 3, "an unresolved load stops the prefix sweep");
        assert!(t.contains(Tag(3)));
        assert!(!t.contains(Tag(5)), "stale slots after the pin still clear");
    }

    #[test]
    fn tag_table_below_floor_reads_as_long_done() {
        let mut t = TagTable::default();
        t.insert(
            Tag(0),
            TagState {
                ready_at: Some(0),
                actual_at: Some(0),
                load_unresolved: false,
                missed: false,
            },
        );
        t.prune(100, 0);
        assert!(t.base >= 1);
        // Tags below the pruned floor are architecturally long done:
        // reads succeed and mutations are silent no-ops, never panics.
        assert!(t.ready(Tag(0), 0));
        assert!(t.actually_ready(Tag(0), 0));
        assert!(t.get(Tag(0)).is_none());
        t.insert(Tag(0), TagState::default());
        assert!(t.get(Tag(0)).is_none(), "insert below the floor is dropped");
        assert!(t.ensure(Tag(0)).is_none());
        assert!(t.get_mut(Tag(0)).is_none());
        t.remove(Tag(0));
        assert!(t.ready(Tag(0), 0));
    }

    #[test]
    fn consumer_of_pruned_tag_issues_immediately() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(alu(0, Some(100), &[])).unwrap();
        for now in 0..10 {
            q.cycle(now);
        }
        q.prune_tags(2);
        assert!(!q.tracks_tag(Tag(100)), "old resolved tag must be pruned");
        assert_eq!(q.tag_ready_time(Tag(100)), None);
        // A late consumer naming the pruned tag sees it as ready.
        q.insert(alu(1, None, &[100])).unwrap();
        let issued = q.cycle(10);
        assert_eq!(issued.len(), 1);
        assert_eq!(issued[0].uops[0].id, UopId(1));
    }

    #[test]
    fn queue_metrics_reconcile_with_stats() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.set_metrics(true);
        q.insert(alu(0, Some(100), &[])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap();
        q.insert(alu(2, None, &[101])).unwrap();
        for now in 0..20 {
            q.cycle(now);
        }
        let m = q.metrics().expect("metrics enabled");
        let s = q.stats();
        assert_eq!(m.occupancy.count(), s.cycles, "one occupancy sample per cycle");
        assert_eq!(m.occupancy.sum(), s.occupancy_integral);
        assert_eq!(
            m.wakeup_select_delay.count(),
            s.issued_entries,
            "one delay sample per selected entry"
        );
        // An uncontended queue issues every requester the cycle it wakes.
        assert_eq!(m.wakeup_select_delay.sum(), 0);
        assert_eq!(m.wakeup_select_delay.max(), 0);
    }

    #[test]
    fn wakeup_select_delay_counts_starved_cycles() {
        // Single-issue queue: two leaves wake together, one waits a cycle.
        let mut q = IssueQueue::new(SchedConfig {
            kind: SchedulerKind::Base,
            wakeup: WakeupStyle::WiredOr,
            queue_entries: Some(32),
            issue_width: 1,
            ..SchedConfig::default()
        });
        q.set_metrics(true);
        q.insert(alu(0, Some(100), &[])).unwrap();
        q.insert(alu(1, Some(101), &[])).unwrap();
        for now in 0..10 {
            q.cycle(now);
        }
        let m = q.metrics().expect("metrics enabled");
        assert_eq!(m.wakeup_select_delay.count(), 2);
        assert_eq!(m.wakeup_select_delay.sum(), 1, "the loser waits one cycle");
        assert_eq!(m.wakeup_select_delay.max(), 1);
    }

    #[test]
    fn metrics_off_collects_nothing() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(alu(0, Some(100), &[])).unwrap();
        for now in 0..5 {
            q.cycle(now);
        }
        assert!(q.metrics().is_none());
    }

    #[test]
    fn cycle_into_scratch_reuse_with_shrinking_request_sets() {
        use std::collections::HashSet;
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        for id in 0..6 {
            q.insert(alu(id, Some(100 + id), &[])).unwrap();
        }
        // Reuse one scratch buffer across every call; each cycle issues
        // fewer uops than the last, so stale entries from a previous,
        // larger result would show up as duplicate ids.
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut sizes = Vec::new();
        for now in 0..8 {
            q.cycle_into(now, &mut out);
            sizes.push(out.len());
            for iss in &out {
                assert_eq!(iss.issue_cycle, now, "no stale issue from a prior call");
                for u in iss.uops.iter() {
                    assert!(seen.insert(u.id), "uop {:?} reported twice", u.id);
                }
            }
        }
        assert_eq!(seen.len(), 6, "every inserted uop issues exactly once");
        assert!(
            sizes.windows(2).all(|w| w[1] <= w[0]),
            "request set must shrink monotonically: {sizes:?}"
        );
        q.cycle_into(8, &mut out);
        assert!(out.is_empty(), "an idle cycle must clear the scratch buffer");
    }

    /// A miss-replay chain whose entries sit in different bitset words:
    /// load L at index `lo - 1`, its consumers A at `lo` and D at `hi + 1`,
    /// A's consumer B at `hi`, and fillers blocked on an external tag in
    /// every other slot up to `hi`. Checks issue order, replay order,
    /// a mid-queue squash, release and the free-list reuse order.
    fn cross_word_scenario(queue_entries: Option<usize>, lo: usize, hi: usize) {
        let mut q = IssueQueue::new(SchedConfig {
            queue_entries,
            ..cfg(SchedulerKind::Base)
        });
        q.set_slot_accounting(true);
        let cap = q.free_entries();
        q.force_external_tag(Tag(99)); // never ready: fillers stay waiting
        for idx in 0..=hi + 1 {
            let id = idx as u64;
            let uop = match idx {
                i if i == lo - 1 => load(1, 1000, &[]),
                i if i == lo => alu(2, Some(1001), &[1000]),
                i if i == hi => alu(3, Some(1002), &[1001]),
                i if i == hi + 1 => alu(4, Some(1003), &[1000]),
                _ => alu(100 + id, Some(5000 + id), &[99]),
            };
            assert_eq!(q.insert(uop).unwrap().index(), idx);
        }
        assert_eq!(q.occupancy(), hi + 2);
        assert_eq!(q.free_entries(), cap - hi - 2);

        let mut log = Vec::new();
        let mut unattributed = 0;
        for now in 0..=33 {
            if now == 5 {
                // Miss: A and D replay in index order, then B through A's
                // tag (the work list is a stack, so D's empty tag first).
                let replayed = q.load_resolved(Tag(1000), false, 20);
                assert_eq!(replayed, vec![UopId(2), UopId(4), UopId(3)]);
            }
            if now == 32 {
                // Reallocation pops the free list: last released first,
                // then the squashed fillers from the top down.
                let ids: Vec<usize> = (5..10)
                    .map(|id| q.insert(alu(id, None, &[])).unwrap().index())
                    .collect();
                assert_eq!(ids, vec![hi, hi + 1, lo, hi - 1, hi - 2]);
                assert_eq!(q.occupancy(), lo + 5);
            }
            for i in q.cycle(now) {
                log.push((i.uops[0].id.0, i.issue_cycle));
            }
            unattributed += q.unattributed_slots();
            match now {
                8 => assert_eq!(q.occupancy(), hi + 1, "load released at confirm"),
                10 => {
                    // Drop every filler from index lo + 2 up to hi - 1.
                    q.squash_from(UopId(100 + lo as u64 + 2));
                    assert_eq!(q.occupancy(), lo + 3);
                    assert_eq!(q.free_entries(), cap - lo - 3);
                }
                31 => assert_eq!(q.occupancy(), lo, "A, D, B released"),
                _ => {}
            }
        }
        assert_eq!(
            log,
            vec![
                (1, 0),
                (2, 3),
                (4, 3),
                (3, 4),
                (2, 22),
                (4, 22),
                (3, 23),
                (5, 32),
                (6, 32),
                (7, 32),
                (8, 32),
                (9, 33)
            ]
        );
        assert_eq!(q.occupancy(), lo + 5);
        assert_eq!(q.free_entries(), cap - lo - 5);
        let counts = q.slot_counts().expect("accounting on");
        let charged = counts.total() + unattributed;
        assert_eq!(charged, 34 * q.config().issue_width as u64, "slots conserve");
    }

    #[test]
    fn bitsets_cross_word_boundaries_in_a_130_entry_queue() {
        cross_word_scenario(Some(130), 64, 128);
    }

    #[test]
    fn bitsets_cross_word_boundaries_in_an_unrestricted_queue() {
        cross_word_scenario(None, 128, 300);
    }
}

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
//!
//! The engine is event-driven per entry: each entry is filed in a ready
//! calendar under the cycle it can next act, each tag keeps the chain of
//! entries that read it, and a tag change re-files exactly those, so a
//! cycle visits only the entries that are due (DESIGN §6 "Ready calendar
//! and idle cycles").

use mos_isa::{FuKind, SmallList};
use mos_metrics::Hist;

use crate::config::{SchedConfig, SchedulerKind};
use crate::events::TraceEvent;
use crate::form::FormedItem;
use crate::slots::{SlotCause, SlotCounts};
use crate::uop::{SchedUop, Tag, UopId};

mod ages;
mod bits;
mod calendar;
mod chains;
mod tags;
#[cfg(test)]
mod tests;

use ages::{AgeList, SlotAccounting, NONE};
use bits::{clear_bit, set_bit, test_bit, Bits};
use calendar::{Calendar, WHEEL};
use chains::NIL;
use tags::{TagState, TagTable};

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
    /// Select-free: speculative wake broadcast already sent.
    spec_broadcast: bool,
    /// First cycle the entry requested selection with all sources ready
    /// (metrics only; cleared on replay so each grant measures its own
    /// wakeup→select slack).
    woken_at: Option<u64>,
    /// Cached readiness: the first cycle at which every source is visible
    /// to select, `max` of [`TagTable::ready_time`] over `srcs` (0 with no
    /// sources), so `ready <= now` is exactly "all sources ready". Exact
    /// for a waiting entry at all times: every tag mutation that moves a
    /// visible ready time re-files that tag's consumers (DESIGN §6 "Ready
    /// calendar and idle cycles").
    ready: u64,
    /// The cycle this entry next needs the queue's attention, its place in
    /// the ready calendar: for a waiting entry the first cycle it can
    /// request or broadcast speculatively ([`IssueQueue::file`]), `u64::MAX`
    /// while only an outside event can wake it; for an issued entry its
    /// release cycle, when its execution is known good (the confirm
    /// window after the grant, plus one cycle per further MOP member).
    key: u64,
}

/// The uops of one entry in sequencing order, head first: its row of
/// the payload RAM (Section 5.3.1). Inline, so a singleton or a pair
/// allocates nothing; only a chain of three or more spills to the heap,
/// into a buffer recycled through [`IssueQueue::spare_rows`].
type Payload = SmallList<SchedUop, 2>;

/// The scheduling latency of an entry holding `uops`: a MOP is a
/// non-pipelined multi-cycle unit, one cycle per uop; a load is
/// scheduled with its assumed hit latency.
fn latency(uops: &[SchedUop], config: &SchedConfig) -> u32 {
    match uops {
        [u] if u.is_load => config.load_sched_latency,
        [u] => u.class.exec_latency(),
        _ => uops.len() as u32,
    }
}

/// One issue decision appended by [`IssueQueue::cycle_into`].
#[derive(Debug, Clone)]
pub struct Issued {
    /// The entry that issued.
    pub entry: EntryId,
    /// The original uops in sequencing order (head first). The caller
    /// executes `uops[k]` in cycle `issue_cycle + k` (payload-RAM
    /// sequencing, Section 5.3.1). A copy of the entry's payload row:
    /// inline for a singleton or a pair; a chain of three or more is
    /// copied into a heap buffer the queue recycles from an earlier
    /// grant, so a grant allocates nothing once warm.
    pub uops: SmallList<SchedUop, 2>,
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
/// let mut issued = Vec::new();
/// q.cycle_into(0, &mut issued);
/// assert_eq!(issued.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IssueQueue {
    config: SchedConfig,
    entries: Vec<Option<Entry>>,
    /// Each entry's uops, by entry index (stale for a free index). Kept
    /// beside `entries` rather than in them, so the per-cycle phases,
    /// which read only scheduling state, walk compact entries.
    payload: Vec<Payload>,
    /// Spilled payload lists (chains of three or more uops) handed back
    /// by re-filled rows and by last cycle's grants, whose heap buffers
    /// the next spilled row or grant copies into, so chains allocate
    /// nothing once warm.
    spare_rows: Vec<Payload>,
    free: Vec<usize>,
    /// One bit per occupied entry index (DESIGN §6); the entry's
    /// [`EntryState`] says whether it waits or has issued. Every loop
    /// over the entries walks these bitsets in ascending index order
    /// instead of scanning all `entries`, so its cost follows occupancy.
    occupied: Vec<u64>,
    /// One bit per waiting entry whose calendar `key` has come due
    /// (`key <= now`): the only entries the speculative-wakeup and
    /// request passes visit.
    ready: Vec<u64>,
    /// Every waiting entry due after `now`, and every issued entry, by
    /// `key` (DESIGN §6 "Ready calendar and idle cycles").
    calendar: Calendar,
    tags: TagTable,
    /// MOP heads steered in pending, by formation pair id, until the tail
    /// that completes them, their cancel or a squash
    /// ([`IssueQueue::steer`]). Only a handful are ever live at once (pairs
    /// fuse within a fetch group or two), so a linear-scanned vector beats
    /// a hash map here.
    heads: Vec<(u64, EntryId)>,
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
    /// Reusable entry-index scratch for releases and replays.
    idx_buf: Vec<usize>,
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
    /// The last cycle released nothing, broadcast nothing speculatively
    /// and had no requester, so [`IssueQueue::next_active`] may look
    /// ahead (DESIGN §6 "Ready calendar and idle cycles").
    quiet: bool,
}

impl IssueQueue {
    /// Create a queue per `config`. An unrestricted queue
    /// (`queue_entries == None`) is modeled with a capacity large enough
    /// never to fill before a 128-entry re-order buffer does.
    pub fn new(config: SchedConfig) -> IssueQueue {
        let cap = config.queue_entries.unwrap_or(512);
        IssueQueue {
            entries: (0..cap).map(|_| None).collect(),
            payload: vec![Payload::new(); cap],
            spare_rows: Vec::new(),
            free: (0..cap).rev().collect(),
            occupied: vec![0; cap.div_ceil(64)],
            ready: vec![0; cap.div_ceil(64)],
            calendar: Calendar::new(),
            tags: TagTable::default(),
            heads: Vec::new(),
            now: 0,
            next_gen: 1,
            slots_blocked: 0,
            fu_blocked: [0; 5],
            stats: QueueStats::default(),
            req_buf: Vec::new(),
            work_buf: Vec::new(),
            idx_buf: Vec::new(),
            trace: false,
            trace_buf: Vec::new(),
            metrics: None,
            accounting: None,
            quiet: false,
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
        self.accounting = on.then(|| {
            // Linking places each entry by age, whatever the order.
            let mut ages = AgeList::new(self.entries.len());
            for (w, &word) in self.occupied.iter().enumerate() {
                for idx in Bits::of(w, word) {
                    if self.entries[idx].as_ref().expect("occupied").state == EntryState::Waiting {
                        ages.link(idx, &self.entries);
                    }
                }
            }
            Box::new(SlotAccounting {
                counts: SlotCounts::default(),
                idle_cause: SlotCause::Drained,
                ages,
            })
        });
    }

    /// Per-cause slot counts, if accounting is on: every slot of every
    /// cycle so far, so they sum to `cycles × issue_width`.
    pub fn slot_counts(&self) -> Option<&SlotCounts> {
        self.accounting.as_deref().map(|a| &a.counts)
    }

    /// The cause to charge, from the next [`IssueQueue::cycle_into`] or
    /// [`IssueQueue::skip_idle`] on, for idle slots with no waiting entry
    /// to blame. Only the driver knows it: frontend back-pressure,
    /// wrong-path recovery or a drained machine ([`SlotCause::Drained`],
    /// the default). A no-op while accounting is off.
    pub fn set_idle_cause(&mut self, cause: SlotCause) {
        if let Some(a) = self.accounting.as_deref_mut() {
            a.idle_cause = cause;
        }
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

    /// Empty slot `idx`, clear its bits and take it off its sources'
    /// consumer chains (and the age list, if waiting). Its calendar
    /// records go stale with it.
    fn free_entry(&mut self, idx: usize) {
        let e = self.entries[idx].take().expect("freed entry is occupied");
        for (k, &t) in e.srcs.iter().enumerate() {
            if !e.srcs[..k].contains(&t) {
                self.tags.unregister(t, idx);
            }
        }
        self.free.push(idx);
        clear_bit(&mut self.occupied, idx);
        clear_bit(&mut self.ready, idx);
        if let (Some(acc), EntryState::Waiting) = (self.accounting.as_deref_mut(), e.state) {
            acc.ages.unlink(idx);
        }
    }

    /// Place entry `idx` under calendar key `key`: in the ready bitset if
    /// due, on the wheel or the overflow list if later, nowhere if parked
    /// (`u64::MAX`). A no-op when the key did not move, since placement
    /// follows from the key and the clock alone.
    fn place(&mut self, idx: usize, key: u64) {
        let e = self.entries[idx].as_mut().expect("placed entry exists");
        if e.key == key {
            return;
        }
        e.key = key;
        if key <= self.now {
            set_bit(&mut self.ready, idx);
        } else {
            clear_bit(&mut self.ready, idx);
            if key != u64::MAX {
                self.calendar.file(idx, key, self.now);
            }
        }
    }

    /// File waiting entry `idx` by the first cycle it can act on its own:
    /// broadcast speculatively (select-free kinds, at `ready`) or request
    /// (once `hold_until` has passed too). A pending head is parked until
    /// its tail or a cancel arrives.
    fn file(&mut self, idx: usize) {
        let e = self.entries[idx].as_ref().expect("filed entry exists");
        debug_assert_eq!(e.state, EntryState::Waiting);
        let key = self.waiting_key(e);
        self.place(idx, key);
    }

    /// The calendar key of waiting entry `e` (see [`IssueQueue::file`]).
    fn waiting_key(&self, e: &Entry) -> u64 {
        if e.pending_tail {
            u64::MAX
        } else if self.config.kind.broadcasts_at_wakeup() && !e.spec_broadcast {
            e.ready
        } else {
            e.ready.max(e.hold_until)
        }
    }

    /// Recompute entry `idx`'s readiness and re-file it, if it is waiting
    /// (issued entries are re-read when a replay makes them wait again).
    fn refile(&mut self, idx: usize) {
        let Some(e) = self.entries[idx].as_mut() else {
            return;
        };
        if e.state != EntryState::Waiting {
            return;
        }
        e.ready = self.tags.ready_time_of(&e.srcs);
        self.file(idx);
    }

    /// Re-file every entry on consumer chain `chain`.
    fn refile_chain(&mut self, chain: u32) {
        let mut link = chain;
        while link != NIL {
            let (entry, next) = self.tags.consumers.get(link);
            self.refile(entry);
            link = next;
        }
    }

    /// Re-file, then free, the consumer chain of a cleared tag (its
    /// consumers now read it as long done).
    fn release_chain(&mut self, chain: u32) {
        self.refile_chain(chain);
        self.tags.consumers.free(chain);
    }

    /// Apply `f` to `t`'s state (created first when `create`), then re-file
    /// its consumers if the visible ready time moved: the one path by
    /// which a tag mutation reaches the calendar. `None` when `t` has no
    /// state (or lies below the pruned floor).
    fn update_tag<R>(
        &mut self,
        t: Tag,
        create: bool,
        f: impl FnOnce(&mut TagState) -> R,
    ) -> Option<R> {
        let s = if create {
            self.tags.ensure(t)
        } else {
            self.tags.get_mut(t)
        }?;
        let before = s.visible_at();
        let r = f(s);
        if s.visible_at() != before {
            let chain = s.consumers;
            self.refile_chain(chain);
        }
        Some(r)
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
            self.update_tag(dst, true, TagState::reset);
        }
        // One pass, one lookup per source: drop the tags nobody remembers
        // (architecturally long done), join the consumer chain of each
        // distinct live one and take the latest visible time.
        let mut srcs = SmallList::<Tag, 4>::new();
        let mut ready = 0;
        for (k, &t) in uop.srcs.iter().enumerate() {
            let first = !uop.srcs[..k].contains(&t);
            if let Some(at) = self.tags.consume(t, idx, first) {
                srcs.push(t);
                ready = ready.max(at);
            }
        }
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
            fu: uop.class.fu(),
            age: uop.id,
            pending_tail: pending,
            state: EntryState::Waiting,
            collided: false,
            hold_until: 0,
            spec_broadcast: false,
            woken_at: None,
            ready,
            // Parked and unplaced, so `file` places any other key.
            key: u64::MAX,
        });
        let row = &mut self.payload[idx];
        if row.spilled() {
            self.spare_rows.push(std::mem::take(row));
        }
        row.clear();
        row.push(uop);
        if let Some(acc) = self.accounting.as_deref_mut() {
            acc.ages.link(idx, &self.entries);
        }
        set_bit(&mut self.occupied, idx);
        self.file(idx);
        Ok(EntryId { index: idx, gen })
    }

    /// Fuse `tail` into the MOP entry at `head`, clearing the pending bit.
    /// The tail's dependence on the head (their shared MOP tag) becomes
    /// the internal edge and is not tracked as a source.
    ///
    /// # Errors
    ///
    /// Hands `tail` back, unfused, with [`InsertError::BadEntry`] if the
    /// head entry is gone or already issued, or with
    /// [`InsertError::MopTooLarge`] if the configured size is exceeded, so
    /// the caller can insert it alone.
    pub fn fuse_tail(
        &mut self,
        head: EntryId,
        tail: SchedUop,
    ) -> Result<(), (InsertError, SchedUop)> {
        let max = self.config.mop.max_mop_size;
        let Some(e) = self
            .entries
            .get_mut(head.index)
            .and_then(Option::as_mut)
            .filter(|e| e.gen == head.gen)
        else {
            return Err((InsertError::BadEntry, tail));
        };
        if e.state != EntryState::Waiting {
            return Err((InsertError::BadEntry, tail));
        }
        let row = &mut self.payload[head.index];
        if row.len() + 1 > max {
            return Err((InsertError::MopTooLarge, tail));
        }
        if row.len() == 2 && !row.spilled() {
            // A third uop spills the row: into a recycled buffer if any.
            if let Some(mut spare) = self.spare_rows.pop() {
                spare.clone_from(row);
                *row = spare;
            }
        }
        // The entry's cached readiness is exact, so the tail's new live
        // sources only raise it; each is looked up once.
        for &t in &tail.srcs {
            if Some(t) == e.dst || e.srcs.contains(&t) {
                continue; // internal head->tail edge, or merged already
            }
            if let Some(at) = self.tags.consume(t, head.index, true) {
                e.srcs.push(t);
                e.ready = e.ready.max(at);
            }
        }
        // Head and tail share one MOP ID; formation's translation table
        // aliases the tail's destination to it, so no new tag is made.
        let mop_tag = e.dst;
        e.pending_tail = false;
        row.push(tail);
        self.file(head.index);
        if self.trace {
            let e = self.entries[head.index].as_ref().expect("fused above");
            let tail = self.payload[head.index].last().expect("just pushed");
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
                self.file(id.index);
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
                self.file(head.index);
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

    /// Apply one formation steering decision: insert a singleton, insert
    /// a pending MOP head and remember it by pair id, fuse a tail into its
    /// head (which stays pending when the chain expects another member),
    /// or give a head up so it issues alone. A tail whose head is unknown
    /// or cannot take it is inserted alone, and its head stays
    /// remembered.
    ///
    /// # Panics
    ///
    /// If an insert finds the queue full: the caller checks that a whole
    /// group fits before steering it.
    pub fn steer(&mut self, item: FormedItem) {
        const ROOM: &str = "space checked before the group";
        match item {
            FormedItem::Single(uop) => {
                self.insert(uop).expect(ROOM);
            }
            FormedItem::HeadPending { head, pair_id } => {
                let id = self.insert_mop_head(head).expect(ROOM);
                self.heads.push((pair_id, id));
            }
            FormedItem::TailFuse {
                tail,
                pair_id,
                chain_more,
            } => {
                let Some(i) = self.heads.iter().position(|&(p, _)| p == pair_id) else {
                    self.insert(tail).expect(ROOM);
                    return;
                };
                let id = self.heads[i].1;
                match self.fuse_tail(id, tail) {
                    Err((_, tail)) => {
                        self.insert(tail).expect(ROOM);
                    }
                    Ok(()) if chain_more => self.mark_pending(id),
                    Ok(()) => {
                        self.heads.swap_remove(i);
                    }
                }
            }
            FormedItem::Cancel { pair_id } => {
                if let Some(i) = self.heads.iter().position(|&(p, _)| p == pair_id) {
                    let (_, id) = self.heads.swap_remove(i);
                    self.cancel_pending(id);
                }
            }
        }
    }

    /// `true` while a MOP head steered in pending is remembered (see
    /// [`IssueQueue::steer`]).
    pub fn has_pending_heads(&self) -> bool {
        !self.heads.is_empty()
    }

    /// Advance one cycle, clearing `out` and appending this cycle's issue
    /// decisions to it. `now` must increase by exactly one between calls,
    /// counting the cycles [`IssueQueue::skip_idle`] skipped (the first
    /// call sets the epoch).
    pub fn cycle_into(&mut self, now: u64, out: &mut Vec<Issued>) {
        for iss in out.drain(..) {
            if iss.uops.spilled() {
                self.spare_rows.push(iss.uops);
            }
        }
        debug_assert!(
            self.stats.cycles == 0 || now == self.now + 1,
            "cycles must be consecutive"
        );
        debug_assert!(self.ages_agree(), "age list disagrees with the entries");
        debug_assert!(self.ready_cache_agrees(), "bitsets or ready calendar stale");
        let first = self.stats.cycles == 0;
        self.now = now;
        self.stats.cycles += 1;
        if first {
            // The first call sets the epoch: entries filed before it that
            // fell due in between are due now.
            for w in 0..self.occupied.len() {
                for idx in Bits::of(w, self.occupied[w]) {
                    if self.entries[idx].as_ref().is_some_and(|e| e.key <= now) {
                        set_bit(&mut self.ready, idx);
                    }
                }
            }
        }

        // Merge `now`'s bucket: due waiting entries join the ready set and
        // issued entries whose execution is known good are released, in
        // ascending index order.
        let released = self.merge_due();
        let mut quiet = !released;
        let occ = self.occupancy() as u64;
        self.stats.occupancy_integral += occ;
        if let Some(m) = self.metrics.as_deref_mut() {
            m.occupancy.record(occ);
        }

        let select_free = self.config.kind.broadcasts_at_wakeup();

        // Speculative wakeup phase (select-free and speculative-wakeup
        // schedulers): broadcast at wake time, before selection confirms.
        if select_free {
            for w in 0..self.ready.len() {
                for idx in Bits::of(w, self.ready[w]) {
                    let e = self.entries[idx].as_mut().expect("ready entry exists");
                    // `ready` is read afresh: a broadcast earlier in this
                    // pass may have re-filed the entry.
                    if e.spec_broadcast || e.ready > now {
                        continue;
                    }
                    e.spec_broadcast = true;
                    quiet = false;
                    let uops = &self.payload[idx];
                    let lat = u64::from(latency(uops, &self.config).max(1));
                    let dst = e.dst;
                    let is_load = uops[0].is_load;
                    if let Some(d) = dst {
                        let sent = self.update_tag(d, true, |s| {
                            s.ready_at = Some(now + lat);
                            s.load_unresolved = is_load;
                        });
                        if self.trace && sent.is_some() {
                            self.trace_buf.push(TraceEvent::Wakeup {
                                cycle: now,
                                tag: d,
                                ready_at: now + lat,
                                speculative: true,
                            });
                        }
                    }
                    self.file(idx);
                }
            }
        }

        // Request phase (the scratch vector is queue-owned and reused):
        // only the due entries are visited.
        let mut requesters = std::mem::take(&mut self.req_buf);
        requesters.clear();
        let metrics = self.metrics.is_some();
        for w in 0..self.ready.len() {
            for idx in Bits::of(w, self.ready[w]) {
                let e = self.entries[idx].as_mut().expect("ready entry exists");
                if e.hold_until > now {
                    continue;
                }
                requesters.push((e.age, idx));
                if metrics && e.woken_at.is_none() {
                    e.woken_at = Some(now);
                }
            }
        }
        requesters.sort_unstable();
        self.quiet = quiet && requesters.is_empty();

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
                    for k in 0..e.srcs.len() {
                        // Un-broadcast every stale wakeup for everyone.
                        let t = self.entries[idx].as_ref().expect("requester exists").srcs[k];
                        self.update_tag(t, false, |s| {
                            if s.actual_at.is_none_or(|r| r > now) {
                                s.ready_at = s.actual_at;
                            }
                        });
                    }
                    let penalty = u64::from(self.config.replay_penalty);
                    let e = self.entries[idx].as_mut().expect("requester exists");
                    e.hold_until = now + penalty;
                    self.file(idx);
                    continue;
                }
            }

            width -= 1;
            fu_avail[fu.index()] -= 1;

            // Broadcast the destination tag.
            let e = self.entries[idx].as_ref().expect("requester exists");
            let uops = &self.payload[idx];
            let lat = u64::from(latency(uops, &self.config));
            if uops.len() > 1 {
                slots_next += 1;
                fu_next[fu.index()] += 1;
            }
            if let Some(d) = e.dst {
                let is_load = uops.iter().any(|u| u.is_load);
                let collided = e.collided;
                let floor = u64::from(self.config.kind.wakeup_floor());
                let kind = self.config.kind;
                let woke = self.update_tag(d, true, |s| {
                    let prev_ready = s.ready_at;
                    s.actual_at = Some(now + lat.max(1));
                    s.load_unresolved = is_load;
                    if select_free {
                        match kind {
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
                    (s.ready_at != prev_ready).then_some(s.visible_at())
                });
                if let (true, Some(Some(ready_at))) = (self.trace, woke) {
                    self.trace_buf.push(TraceEvent::Wakeup {
                        cycle: now,
                        tag: d,
                        ready_at,
                        speculative: false,
                    });
                }
            }

            let e = self.entries[idx].as_mut().expect("entry exists");
            e.state = EntryState::Issued;
            let members = self.payload[idx].len() as u64;
            let confirm_at = now + u64::from(self.config.confirm_window) + (members - 1);
            if let Some(acc) = self.accounting.as_deref_mut() {
                acc.ages.unlink(idx);
            }
            // Released at its confirm cycle, but never before the next one.
            self.place(idx, confirm_at.max(now + 1));
            let e = self.entries[idx].as_mut().expect("entry exists");
            if let Some(m) = self.metrics.as_deref_mut() {
                m.wakeup_select_delay
                    .record(now - e.woken_at.take().unwrap_or(now));
            }
            self.stats.issued_entries += 1;
            self.stats.issued_uops += members;
            let row = &self.payload[idx];
            let uops = if row.spilled() {
                let mut spare = self.spare_rows.pop().unwrap_or_default();
                spare.clone_from(row);
                spare
            } else {
                row.clone()
            };
            out.push(Issued {
                entry: EntryId {
                    index: idx,
                    gen: e.gen,
                },
                uops,
                issue_cycle: now,
            });
            if self.trace {
                let e = self.entries[idx].as_ref().expect("entry exists");
                let uops = &self.payload[idx];
                self.trace_buf.push(TraceEvent::Select {
                    cycle: now,
                    entry: EntryId {
                        index: idx,
                        gen: e.gen,
                    },
                    uops: uops.iter().map(|u| u.id).collect(),
                    srcs: e.srcs.to_vec(),
                    dst: e.dst,
                    latency: latency(uops, &self.config),
                    is_load: uops.iter().any(|u| u.is_load),
                });
            }
        }

        self.req_buf = requesters;
        self.slots_blocked = slots_next;
        self.fu_blocked = fu_next;

        if self.accounting.is_some() {
            let wasted = self.stats.spec_wakeup_cancels + self.stats.pileup_replays - waste_before;
            self.account_cycle(now, blocked_slots, wasted, out.len(), 1);
        }
    }

    /// Merge `now`'s calendar bucket, after moving overflow records that
    /// came within the wheel's horizon onto it: due waiting entries join
    /// the ready set, and due issued entries are released in ascending
    /// index order. Returns whether anything was released.
    fn merge_due(&mut self) -> bool {
        let now = self.now;
        if !self.calendar.overflow.is_empty() {
            let mut overflow = std::mem::take(&mut self.calendar.overflow);
            overflow.retain(|&(idx, key)| {
                let live = self.entries[idx as usize]
                    .as_ref()
                    .is_some_and(|e| e.key == key);
                if live && key < now + WHEEL as u64 {
                    self.calendar.file(idx as usize, key, now);
                    return false;
                }
                live
            });
            self.calendar.overflow = overflow;
        }
        let mut released = std::mem::take(&mut self.idx_buf);
        released.clear();
        for idx in self.calendar.records(now) {
            match &self.entries[idx] {
                Some(e) if e.key == now => match e.state {
                    EntryState::Waiting => set_bit(&mut self.ready, idx),
                    EntryState::Issued => released.push(idx),
                },
                _ => {}
            }
        }
        self.calendar.clear(now);
        released.sort_unstable();
        released.dedup();
        for &idx in &released {
            self.free_entry(idx);
        }
        let any = !released.is_empty();
        self.idx_buf = released;
        any
    }

    /// The earliest cycle after the current one at which this queue can
    /// act on its own: release an entry, broadcast speculatively, or have
    /// a requester. With slot accounting on, also the first cycle the
    /// stall cause of one of the oldest `issue_width` waiting entries can
    /// change. `now + 1` unless the last cycle was quiet; `u64::MAX` when
    /// nothing is pending at all. Exact only until the next insert, fuse,
    /// squash or load resolution.
    pub fn next_active(&mut self) -> u64 {
        let soon = self.now + 1;
        if !self.quiet || self.ready.iter().any(|&w| w != 0) {
            return soon;
        }
        let mut next = self.next_key();
        if let Some(acc) = self.accounting.as_deref() {
            // Until `next` nothing issues, inserts or releases, so every
            // skipped cycle blames these same entries and no other
            // entry's cause is charged (DESIGN §6).
            for idx in acc.ages.iter().take(self.config.issue_width) {
                next = next.min(self.cause_change_at(idx));
            }
        }
        next.max(soon)
    }

    /// The earliest calendar key after `now`: the first wheel bucket with
    /// a live record, or an earlier overflow key; `u64::MAX` when nothing
    /// is filed. Empties the stale buckets it passes.
    fn next_key(&mut self) -> u64 {
        let now = self.now;
        let mut next = self
            .calendar
            .overflow
            .iter()
            .filter(|&&(idx, key)| self.live(idx as usize, key))
            .map(|&(_, key)| key)
            .min()
            .unwrap_or(u64::MAX);
        let here = Calendar::bucket(now);
        let mut from = Calendar::bucket(now + 1);
        while let Some(b) = self.calendar.next_occupied(from) {
            // Buckets come in clock order; the current cycle's own bucket
            // is last and holds only stale records.
            let d = (b + WHEEL - here) % WHEEL;
            let at = now + if d == 0 { WHEEL as u64 } else { d as u64 };
            if at >= next {
                break;
            }
            if self.calendar.records(at).any(|idx| self.live(idx, at)) {
                next = at;
                break;
            }
            self.calendar.clear(at);
            from = (b + 1) % WHEEL;
        }
        next
    }

    /// A calendar record of entry `idx` under `key` counts only while the
    /// entry is still filed under that key (see [`Calendar`]).
    fn live(&self, idx: usize, key: u64) -> bool {
        self.entries[idx].as_ref().is_some_and(|e| e.key == key)
    }

    /// The first cycle after `now` at which waiting entry `idx`'s stall
    /// cause can change with no outside event: [`Self::stall_cause`]
    /// compares its `hold_until` and each source's visible and actual
    /// times with the clock, and charges a pending head to MOP fusion
    /// until its tail or a squash arrives. `u64::MAX` if none can.
    fn cause_change_at(&self, idx: usize) -> u64 {
        let e = self.entries[idx].as_ref().expect("waiting entry exists");
        if e.pending_tail {
            return u64::MAX;
        }
        let now = self.now;
        let mut at = u64::MAX;
        if e.hold_until > now {
            at = e.hold_until;
        }
        for s in e.srcs.iter().filter_map(|&t| self.tags.get(t)) {
            for t in [s.ready_at, s.actual_at].into_iter().flatten() {
                if t > now {
                    at = at.min(t);
                }
            }
        }
        at
    }

    /// Account `k` idle cycles in bulk, exactly as `k` calls of
    /// [`IssueQueue::cycle_into`] would: cycles, the occupancy integral
    /// and histogram, and one slot classification charged `k` times.
    /// Only valid while `now + k < next_active()`.
    pub fn skip_idle(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        debug_assert!(
            self.now + k < self.next_active(),
            "skipping {k} cycles from {} runs past the queue's next activity",
            self.now
        );
        self.now += k;
        self.stats.cycles += k;
        let occ = self.occupancy() as u64;
        self.stats.occupancy_integral += occ * k;
        if let Some(m) = self.metrics.as_deref_mut() {
            m.occupancy.record_n(occ, k);
        }
        if self.accounting.is_some() {
            self.account_cycle(self.now, 0, 0, 0, k);
        }
    }

    /// With slot accounting on, the age list holds exactly the waiting
    /// entries with strictly increasing ages, and every `younger` link has
    /// its mirror `older` link. Checked at the start of every debug cycle,
    /// like [`Self::ready_cache_agrees`].
    fn ages_agree(&self) -> bool {
        let Some(acc) = self.accounting.as_deref() else {
            return true;
        };
        let list = &acc.ages;
        // Strictly increasing ages also end a walk round a cycle.
        let (mut older, mut age, mut linked) = (NONE, None, 0);
        for idx in list.iter() {
            let Some(e) = self.entries[idx].as_ref() else {
                return false;
            };
            if e.state != EntryState::Waiting || list.older[idx] != older || age >= Some(e.age) {
                return false;
            }
            (older, age, linked) = (idx as u32, Some(e.age), linked + 1);
        }
        let waiting = self.entries.iter().flatten();
        let waiting = waiting.filter(|e| e.state == EntryState::Waiting).count();
        linked == waiting && list.youngest == older
    }

    /// Exactly the occupied entries have their `occupied` bit, and the
    /// calendar is exact: every waiting entry's cached readiness
    /// equals its sources' ready time and its key is the one
    /// [`Self::waiting_key`] gives, every issued entry is released after
    /// `now`, and every entry sits where its key says —
    /// in the ready set if due, with a calendar record if later, nowhere
    /// if parked. The consumer chains of every occupied entry's sources
    /// hold exactly the occupied entries that name them. Checked at the
    /// start of every debug cycle, which covers the previous cycle's
    /// grants and releases and every insert, fuse, replay and squash since.
    fn ready_cache_agrees(&self) -> bool {
        let now = self.now;
        self.entries.iter().enumerate().all(|(idx, e)| {
            let Some(e) = e else {
                return !test_bit(&self.ready, idx) && !test_bit(&self.occupied, idx);
            };
            let keyed = match e.state {
                EntryState::Waiting => {
                    e.ready == self.tags.ready_time_of(&e.srcs) && e.key == self.waiting_key(e)
                }
                EntryState::Issued => e.key > now,
            };
            let due = e.state == EntryState::Waiting && e.key <= now;
            let filed = e.key <= now
                || e.key == u64::MAX
                || self.calendar.records(e.key).any(|i| i == idx)
                || self.calendar.overflow.contains(&(idx as u32, e.key));
            let chained = e.srcs.iter().all(|&t| {
                self.tags.get(t).is_none_or(|s| {
                    let chain = || self.tags.consumers.iter(s.consumers);
                    chain().filter(|&i| i == idx).count() == 1
                        && chain().all(|i| {
                            self.entries[i]
                                .as_ref()
                                .is_some_and(|c| c.srcs.contains(&t))
                        })
                })
            });
            let bits = test_bit(&self.occupied, idx) && test_bit(&self.ready, idx) == due;
            keyed && bits && filed && chained
        })
    }

    /// Charge `times` cycles' `issue_width` slots each to causes: grants are
    /// useful, MOP payload-sequencing blocks are fusion overhead, slots
    /// burned by select-free mis-speculation (stale-grant cancels, pileup
    /// replays) are scheduling-loop cost, and each remaining idle slot is
    /// blamed on the oldest still-waiting entries (mirroring select
    /// priority). Idle slots with nobody waiting go to the driver's
    /// [`IssueQueue::set_idle_cause`].
    ///
    /// The age list hands the waiting entries over oldest first, so only
    /// the `idle` oldest are visited.
    fn account_cycle(&mut self, now: u64, blocked: usize, wasted: u64, grants: usize, times: u64) {
        let Some(mut acc) = self.accounting.take() else {
            return;
        };
        let width = self.config.issue_width as u64;
        let busy = blocked as u64 + wasted + grants as u64;
        debug_assert!(busy <= width, "charged more slots than the machine offers");
        acc.counts.add(SlotCause::Useful, grants as u64 * times);
        acc.counts.add(SlotCause::MopFusion, blocked as u64 * times);
        acc.counts.add(SlotCause::SchedLoop, wasted * times);
        let idle = (width - busy) as usize;
        let mut blamed = 0;
        for idx in acc.ages.iter().take(idle) {
            let e = self.entries[idx].as_ref().expect("waiting entry exists");
            acc.counts.add(self.stall_cause(e, now), times);
            blamed += 1;
        }
        acc.counts
            .add(acc.idle_cause, (idle - blamed) as u64 * times);
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
                // Squash dependents' wakeups.
                self.update_tag(d, false, |s| s.ready_at = None);
            }
        }
    }

    /// Report a load's cache outcome. On a miss, dependents issued in the
    /// load shadow are selectively replayed (transitively); the tag
    /// re-broadcasts at `data_ready_at` plus the replay penalty. `out` is
    /// cleared and filled with the uops pulled back for replay, so the
    /// caller can invalidate any in-flight execution bookkeeping for them.
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
        self.update_tag(tag, false, |s| {
            s.ready_at = Some(ready);
            s.actual_at = Some(ready);
            s.missed = true;
        });
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
    /// re-broadcast time (trace bookkeeping only). Each tag's issued
    /// consumers come off its consumer chain and replay in ascending
    /// index order.
    fn replay_consumers(&mut self, tag: Tag, reissue_at: u64, replayed: &mut Vec<UopId>) {
        let mut work = std::mem::take(&mut self.work_buf);
        let mut hit = std::mem::take(&mut self.idx_buf);
        work.clear();
        work.push(tag);
        while let Some(t) = work.pop() {
            hit.clear();
            let chain = self.tags.get(t).map_or(NIL, |s| s.consumers);
            hit.extend(self.tags.consumers.iter(chain).filter(|&idx| {
                self.entries[idx]
                    .as_ref()
                    .is_some_and(|e| e.state == EntryState::Issued)
            }));
            hit.sort_unstable();
            for &idx in &hit {
                let e = self.entries[idx].as_mut().expect("issued entry exists");
                e.state = EntryState::Waiting;
                e.spec_broadcast = false;
                e.collided = false;
                e.woken_at = None;
                e.ready = self.tags.ready_time_of(&e.srcs);
                let uops = &self.payload[idx];
                self.stats.load_replay_uops += uops.len() as u64;
                replayed.extend(uops.iter().map(|u| u.id));
                let dst = e.dst;
                self.file(idx);
                if let Some(acc) = self.accounting.as_deref_mut() {
                    acc.ages.link(idx, &self.entries);
                }
                if let Some(d) = dst {
                    self.update_tag(d, false, |s| {
                        s.ready_at = None;
                        s.actual_at = None;
                        s.missed = true;
                    });
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
                        uops: self.payload[idx].iter().map(|u| u.id).collect(),
                        tag: t,
                        reissue_at,
                    });
                }
            }
        }
        self.work_buf = work;
        self.idx_buf = hit;
    }

    /// Branch-misprediction squash: remove every entry whose head uop is
    /// at or after `first_squashed`. A MOP whose head survives but whose
    /// tail was fetched on the wrong path drops the tail and issues alone,
    /// with the tail's source operands released (Section 5.3.2). Pending
    /// bits on surviving entries are cleared — their tails can no longer
    /// arrive — and every steered head is forgotten.
    pub fn squash_from(&mut self, first_squashed: UopId) {
        self.heads.clear();
        for w in 0..self.occupied.len() {
            for idx in Bits::of(w, self.occupied[w]) {
                let e = self.entries[idx].as_mut().expect("occupied entry exists");
                if e.age >= first_squashed {
                    // Whole entry is wrong-path.
                    if let Some(d) = e.dst {
                        let chain = self.tags.remove(d);
                        self.release_chain(chain);
                    }
                    self.free_entry(idx);
                    continue;
                }
                let uops = &mut self.payload[idx];
                if uops.len() > 1 && uops.last().expect("non-empty").id >= first_squashed {
                    // Half-squashed MOP: drop wrong-path tail uops and keep
                    // the sources of every surviving member (the MOP tag
                    // was never among them).
                    uops.retain(|u| u.id < first_squashed);
                    let mut dropped = SmallList::<Tag, 4>::new();
                    e.srcs.retain(|&t| {
                        let keep = uops.iter().any(|u| u.srcs.contains(&t));
                        if !keep {
                            dropped.push(t);
                        }
                        keep
                    });
                    e.ready = self.tags.ready_time_of(&e.srcs);
                    for &t in &dropped {
                        self.tags.unregister(t, idx);
                    }
                }
                if e.pending_tail {
                    e.pending_tail = false;
                    self.stats.cancelled_pendings += 1;
                }
                if e.state == EntryState::Waiting {
                    self.file(idx);
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
        let orphans = self.tags.prune(self.now, horizon);
        self.release_chain(orphans);
    }
}

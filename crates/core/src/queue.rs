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

/// End of a chain (link 0 is a placeholder that is never used).
const NIL: u32 = 0;

/// One link of a [`Chains`] chain: an entry index and the next link.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    entry: u32,
    next: u32,
}

/// Singly linked chains of entry indices sharing one arena with a free
/// list, so a chain allocates nothing once the arena has grown to its
/// high-water mark. A chain is named by its first link (`NIL` if empty).
#[derive(Debug, Clone)]
struct Chains {
    links: Vec<Link>,
    free: u32,
}

impl Chains {
    fn new() -> Chains {
        Chains {
            links: vec![Link::default()],
            free: NIL,
        }
    }

    /// Push `entry` onto the front of the chain headed by `head`.
    fn push(&mut self, head: &mut u32, entry: usize) {
        let link = Link {
            entry: entry as u32,
            next: *head,
        };
        *head = if self.free == NIL {
            self.links.push(link);
            (self.links.len() - 1) as u32
        } else {
            let node = self.free;
            self.free = self.links[node as usize].next;
            self.links[node as usize] = link;
            node
        };
    }

    /// The entry index of `link` and the link after it.
    fn get(&self, link: u32) -> (usize, u32) {
        let Link { entry, next } = self.links[link as usize];
        (entry as usize, next)
    }

    /// The entries of `chain`, newest first.
    fn iter(&self, chain: u32) -> impl Iterator<Item = usize> + '_ {
        let mut link = chain;
        std::iter::from_fn(move || {
            (link != NIL).then(|| {
                let (entry, next) = self.get(link);
                link = next;
                entry
            })
        })
    }

    /// Unlink the first link naming `entry` from the chain headed by
    /// `head`, if any.
    fn remove(&mut self, head: &mut u32, entry: usize) {
        let mut prev = NIL;
        let mut link = *head;
        while link != NIL {
            let (e, next) = self.get(link);
            if e == entry {
                if prev == NIL {
                    *head = next;
                } else {
                    self.links[prev as usize].next = next;
                }
                self.links[link as usize].next = self.free;
                self.free = link;
                return;
            }
            prev = link;
            link = next;
        }
    }

    /// Chain `a` followed by chain `b`.
    fn join(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        let mut tail = a;
        while self.links[tail as usize].next != NIL {
            tail = self.links[tail as usize].next;
        }
        self.links[tail as usize].next = b;
        a
    }

    /// Return every link of `chain` to the free list.
    fn free(&mut self, chain: u32) {
        self.free = self.join(chain, self.free);
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
    /// Head of the chain of entries that read this tag ([`Link`]).
    consumers: u32,
}

impl TagState {
    /// First cycle the tag is visible to select; `u64::MAX` while no
    /// wakeup is scheduled.
    fn visible_at(&self) -> u64 {
        self.ready_at.unwrap_or(u64::MAX)
    }

    /// Forget everything but the consumer chain (the tag is renamed
    /// afresh).
    fn reset(&mut self) {
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
struct TagTable {
    /// Tag number of `slots[0]`.
    base: u64,
    slots: Vec<Option<TagState>>,
    consumers: Chains,
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

    fn get(&self, t: Tag) -> Option<&TagState> {
        self.idx(t)
            .and_then(|i| self.slots.get(i))
            .and_then(Option::as_ref)
    }

    fn get_mut(&mut self, t: Tag) -> Option<&mut TagState> {
        let i = self.idx(t)?;
        self.slots.get_mut(i).and_then(Option::as_mut)
    }

    #[cfg(test)]
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

    #[cfg(test)]
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

    /// Clear `t`'s state and hand back its consumer chain, which the
    /// caller re-files and frees ([`IssueQueue::release_chain`]).
    fn remove(&mut self, t: Tag) -> u32 {
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
    fn consume(&mut self, t: Tag, entry: usize, register: bool) -> Option<u64> {
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
    fn unregister(&mut self, t: Tag, entry: usize) {
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
    fn ready(&self, t: Tag, now: u64) -> bool {
        self.ready_time(t) <= now
    }

    /// First cycle `t` is visible to select: 0 for an absent tag (long
    /// done), `u64::MAX` while no wakeup is scheduled.
    fn ready_time(&self, t: Tag) -> u64 {
        self.get(t).map_or(0, TagState::visible_at)
    }

    /// First cycle every tag of `srcs` is visible to select.
    fn ready_time_of(&self, srcs: &[Tag]) -> u64 {
        srcs.iter().map(|&t| self.ready_time(t)).max().unwrap_or(0)
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
    /// Returns the cleared states' consumer chains joined into one, for
    /// the caller to re-file and free.
    fn prune(&mut self, now: u64, horizon: u64) -> u32 {
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

/// Wheel size of the ready calendar: keys less than this many cycles
/// ahead get a bucket, later ones wait in the overflow list. Covers a
/// memory round trip plus the replay penalty.
const WHEEL: usize = 256;

/// The ready calendar: waiting entries filed by the cycle they can first
/// request (or broadcast speculatively), issued entries by the cycle they
/// are released, in power-of-two buckets shaped like the simulator's
/// event wheel. Records are never removed early: a re-filed entry simply
/// gains a new record, and a record counts only while its entry's `key`
/// still equals the bucket's cycle, so stale records are dropped when
/// their bucket is read.
#[derive(Debug, Clone)]
struct Calendar {
    /// Each bucket's chain of records.
    buckets: [u32; WHEEL],
    records: Chains,
    /// One bit per non-empty bucket.
    occupied: [u64; WHEEL / 64],
    /// `(entry, key)` records at least [`WHEEL`] cycles ahead when filed.
    overflow: Vec<(u32, u64)>,
}

impl Calendar {
    fn new() -> Calendar {
        Calendar {
            buckets: [NIL; WHEEL],
            records: Chains::new(),
            occupied: [0; WHEEL / 64],
            overflow: Vec::new(),
        }
    }

    fn bucket(at: u64) -> usize {
        (at % WHEEL as u64) as usize
    }

    /// File entry `idx` under `key`, which lies after `now`.
    fn file(&mut self, idx: usize, key: u64, now: u64) {
        if key - now < WHEEL as u64 {
            let b = Calendar::bucket(key);
            self.records.push(&mut self.buckets[b], idx);
            set_bit(&mut self.occupied, b);
        } else {
            self.overflow.push((idx as u32, key));
        }
    }

    /// The records of `at`'s bucket.
    fn records(&self, at: u64) -> impl Iterator<Item = usize> + '_ {
        self.records.iter(self.buckets[Calendar::bucket(at)])
    }

    /// Empty `at`'s bucket.
    fn clear(&mut self, at: u64) {
        let b = Calendar::bucket(at);
        let chain = std::mem::replace(&mut self.buckets[b], NIL);
        self.records.free(chain);
        clear_bit(&mut self.occupied, b);
    }

    /// The first non-empty bucket at or after `from` (wrapping).
    fn next_occupied(&self, from: usize) -> Option<usize> {
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

/// Opt-in per-slot cause accounting, behind the same zero-cost guard as
/// tracing and metrics: when accounting is off (the default) the queue
/// does no classification work at all.
#[derive(Debug, Clone)]
struct SlotAccounting {
    /// Every slot charged so far, the run's only slot counts.
    counts: SlotCounts,
    /// Cause charged for idle slots with no waiting entry to blame, set
    /// by the driver ([`IssueQueue::set_idle_cause`]).
    idle_cause: SlotCause,
    /// The waiting entries, oldest first: idle slots are blamed on the
    /// oldest, mirroring select priority.
    ages: AgeList,
}

/// End of an [`AgeList`].
const NONE: u32 = u32::MAX;

/// Waiting entries in age order, as a doubly linked list over entry
/// indices: linked at insert and replay, unlinked at grant and when a
/// waiting entry is squashed.
#[derive(Debug, Clone)]
struct AgeList {
    older: Vec<u32>,
    younger: Vec<u32>,
    oldest: u32,
    youngest: u32,
}

impl AgeList {
    fn new(cap: usize) -> AgeList {
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
    fn link(&mut self, idx: usize, entries: &[Option<Entry>]) {
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

    fn unlink(&mut self, idx: usize) {
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
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let linked = |i: u32| (i != NONE).then_some(i as usize);
        std::iter::successors(linked(self.oldest), move |&i| linked(self.younger[i]))
    }
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
    /// One bit per entry index in [`EntryState::Waiting`] (DESIGN §6).
    /// Every per-cycle loop walks these bitsets in ascending index order
    /// instead of scanning all `entries`, so its cost follows occupancy.
    waiting: Vec<u64>,
    /// One bit per entry index in [`EntryState::Issued`].
    issued: Vec<u64>,
    /// One bit per waiting entry whose calendar `key` has come due
    /// (`key <= now`): the only entries the speculative-wakeup and
    /// request passes visit.
    ready: Vec<u64>,
    /// Every waiting entry due after `now`, and every issued entry, by
    /// `key` (DESIGN §6 "Ready calendar and idle cycles").
    calendar: Calendar,
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
            waiting: vec![0; cap.div_ceil(64)],
            issued: vec![0; cap.div_ceil(64)],
            ready: vec![0; cap.div_ceil(64)],
            calendar: Calendar::new(),
            tags: TagTable::default(),
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
            for (w, &word) in self.waiting.iter().enumerate() {
                for idx in Bits::of(w, word) {
                    ages.link(idx, &self.entries);
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
        for bits in [&mut self.waiting, &mut self.issued, &mut self.ready] {
            clear_bit(bits, idx);
        }
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
        set_bit(&mut self.waiting, idx);
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
        debug_assert!(self.bitsets_agree(), "bitsets disagree with entry states");
        debug_assert!(self.ages_agree(), "age list disagrees with the entries");
        debug_assert!(self.ready_cache_agrees(), "ready calendar is stale");
        let first = self.stats.cycles == 0;
        self.now = now;
        self.stats.cycles += 1;
        if first {
            // The first call sets the epoch: entries filed before it that
            // fell due in between are due now.
            for w in 0..self.waiting.len() {
                for idx in Bits::of(w, self.waiting[w]) {
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
            clear_bit(&mut self.waiting, idx);
            set_bit(&mut self.issued, idx);
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
            .filter(|&&(idx, key)| {
                self.entries[idx as usize]
                    .as_ref()
                    .is_some_and(|e| e.key == key)
            })
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
            let live = self
                .calendar
                .records(at)
                .any(|idx| self.entries[idx].as_ref().is_some_and(|e| e.key == at));
            if live {
                next = at;
                break;
            }
            self.calendar.clear(at);
            from = (b + 1) % WHEEL;
        }
        next
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

    /// Every free slot has no state bit set and every occupied entry has
    /// exactly the bit of its state. Checked at the start of every debug
    /// cycle, which covers the previous cycle's grants and releases and
    /// every insert, fuse, replay and squash since.
    fn bitsets_agree(&self) -> bool {
        self.entries.iter().enumerate().all(|(idx, e)| {
            let expected = e.as_ref().map_or((false, false), |e| {
                (
                    e.state == EntryState::Waiting,
                    e.state == EntryState::Issued,
                )
            });
            (test_bit(&self.waiting, idx), test_bit(&self.issued, idx)) == expected
        })
    }

    /// With slot accounting on, the age list holds exactly the waiting
    /// entries with strictly increasing ages, and every `younger` link has
    /// its mirror `older` link. Checked at the start of every debug cycle,
    /// like [`Self::bitsets_agree`].
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
        let waiting: u32 = self.waiting.iter().map(|w| w.count_ones()).sum();
        linked == waiting as usize && list.youngest == older
    }

    /// The calendar is exact: every waiting entry's cached readiness
    /// equals its sources' ready time and its key is the one
    /// [`Self::waiting_key`] gives, every issued entry is released after
    /// `now`, and every entry sits where its key says —
    /// in the ready set if due, with a calendar record if later, nowhere
    /// if parked. The consumer chains of every occupied entry's sources
    /// hold exactly the occupied entries that name them. Checked at the
    /// start of every debug cycle, like [`Self::bitsets_agree`].
    fn ready_cache_agrees(&self) -> bool {
        let now = self.now;
        self.entries.iter().enumerate().all(|(idx, e)| {
            let Some(e) = e else {
                return !test_bit(&self.ready, idx);
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
            keyed && test_bit(&self.ready, idx) == due && filed && chained
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
                clear_bit(&mut self.issued, idx);
                set_bit(&mut self.waiting, idx);
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
    /// arrive.
    pub fn squash_from(&mut self, first_squashed: UopId) {
        for w in 0..self.waiting.len() {
            for idx in Bits::of(w, self.waiting[w] | self.issued[w]) {
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
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(kind));
        q.insert(alu(0, Some(100), &[])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap();
        let mut cycles = (None, None);
        for now in 0..20 {
            q.cycle_into(now, &mut out);
            for i in &out {
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
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        q.fuse_tail(e, alu(2, Some(100), &[100])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap();
        q.insert(alu(3, Some(102), &[100])).unwrap();
        let mut mop_cycle = None;
        let mut dep_cycles = Vec::new();
        for now in 0..20 {
            q.cycle_into(now, &mut out);
            for i in &out {
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
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        q.cycle_into(0, &mut out);
        assert!(out.is_empty(), "pending entry must not issue");
        assert!(q.is_pending(e));
        q.fuse_tail(e, alu(1, Some(100), &[100])).unwrap();
        q.cycle_into(1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].uops.len(), 2);
    }

    #[test]
    fn cancel_pending_releases_head_as_singleton() {
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        q.cycle_into(0, &mut out);
        assert!(out.is_empty());
        q.cancel_pending(e);
        q.cycle_into(1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].uops.len(), 1);
        assert_eq!(q.stats().cancelled_pendings, 1);
    }

    #[test]
    fn mop_blocks_issue_slot_next_cycle() {
        let mut out = Vec::new();
        let mut cfgv = cfg(SchedulerKind::MacroOp);
        cfgv.issue_width = 1;
        let mut q = IssueQueue::new(cfgv);
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        q.fuse_tail(e, alu(1, Some(100), &[100])).unwrap();
        q.insert(alu(2, Some(101), &[])).unwrap();
        q.cycle_into(0, &mut out);
        assert_eq!(out.len(), 1, "MOP wins by age");
        q.cycle_into(1, &mut out);
        assert!(out.is_empty(), "slot blocked while tail sequences");
        q.cycle_into(2, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn issue_width_limits_grants() {
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        for i in 0..6 {
            q.insert(alu(i, Some(100 + i), &[])).unwrap();
        }
        q.cycle_into(0, &mut out);
        assert_eq!(out.len(), 4, "width is 4");
        q.cycle_into(1, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn fu_pool_limits_grants() {
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        for i in 0..3 {
            q.insert(load(i, 100 + i, &[])).unwrap();
        }
        q.cycle_into(0, &mut out);
        assert_eq!(out.len(), 2, "2 memory ports");
        q.cycle_into(1, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn oldest_first_selection() {
        let mut out = Vec::new();
        let mut c = cfg(SchedulerKind::Base);
        c.issue_width = 1;
        let mut q = IssueQueue::new(c);
        q.insert(alu(5, Some(105), &[])).unwrap();
        q.insert(alu(3, Some(103), &[])).unwrap();
        q.cycle_into(0, &mut out);
        assert_eq!(out[0].uops[0].id, UopId(3));
    }

    #[test]
    fn queue_full_rejects_and_frees_after_confirm() {
        let mut out = Vec::new();
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
        q.cycle_into(0, &mut out); // both issue
        assert_eq!(q.occupancy(), 2, "entries held until confirmed");
        q.cycle_into(1, &mut out);
        q.cycle_into(2, &mut out);
        q.cycle_into(3, &mut out); // confirm_at = 0 + 3
        assert_eq!(q.occupancy(), 0);
        q.insert(alu(2, Some(102), &[])).unwrap();
    }

    #[test]
    fn load_miss_replays_dependents_selectively() {
        let mut out = Vec::new();
        let mut replayed = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(load(0, 100, &[])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap(); // dependent
        q.insert(alu(2, Some(102), &[])).unwrap(); // independent
        let mut log: Vec<(u64, u64)> = Vec::new();
        for now in 0..40 {
            // Load issues at 0; dependent wakes at 0 + 3 (assumed hit).
            // Miss discovered at cycle 5, data back at cycle 20.
            if now == 5 {
                q.load_resolved_into(Tag(100), false, 20, &mut replayed);
            }
            q.cycle_into(now, &mut out);
            for i in &out {
                log.push((i.uops[0].id.0, i.issue_cycle));
            }
        }
        let issue_of = |id: u64| -> Vec<u64> {
            log.iter()
                .filter(|(i, _)| *i == id)
                .map(|(_, c)| *c)
                .collect()
        };
        assert_eq!(issue_of(0), vec![0], "load itself is not replayed");
        assert_eq!(issue_of(2).len(), 1, "independent op untouched");
        let dep = issue_of(1);
        assert_eq!(dep.len(), 2, "dependent issued speculatively then replayed");
        assert_eq!(dep[1], 22, "re-issues at data_ready + 2-cycle penalty");
    }

    #[test]
    fn load_miss_replay_is_transitive() {
        let mut out = Vec::new();
        let mut replayed = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(load(0, 100, &[])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap();
        q.insert(alu(2, Some(102), &[101])).unwrap(); // grandchild
        let mut reissues = 0;
        for now in 0..40 {
            if now == 6 {
                q.load_resolved_into(Tag(100), false, 20, &mut replayed);
            }
            q.cycle_into(now, &mut out);
            for i in &out {
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
        let mut out = Vec::new();
        let mut replayed = Vec::new();
        // Load feeds the MOP head; both uops must replay (Section 5.3.2).
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        q.insert(load(0, 100, &[])).unwrap();
        let e = q.insert_mop_head(alu(1, Some(101), &[100])).unwrap();
        q.fuse_tail(e, alu(2, Some(101), &[101])).unwrap();
        let mut mop_issues = 0;
        for now in 0..40 {
            if now == 6 {
                q.load_resolved_into(Tag(100), false, 20, &mut replayed);
            }
            q.cycle_into(now, &mut out);
            for i in &out {
                if i.uops.len() == 2 {
                    mop_issues += 1;
                }
            }
        }
        assert_eq!(mop_issues, 2, "whole MOP issued, replayed, re-issued");
    }

    #[test]
    fn load_hit_confirms_without_replay() {
        let mut out = Vec::new();
        let mut replayed = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(load(0, 100, &[])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap();
        let mut count = 0;
        for now in 0..20 {
            if now == 5 {
                q.load_resolved_into(Tag(100), true, 5, &mut replayed);
            }
            q.cycle_into(now, &mut out);
            count += out.len();
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
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        // Tail reads an unready external tag 99, blocking the whole MOP.
        q.force_external_tag(Tag(99));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        let mut tail = alu(5, Some(100), &[100]);
        tail.srcs.push(Tag(99));
        q.fuse_tail(e, tail).unwrap();
        q.cycle_into(0, &mut out);
        assert!(out.is_empty(), "blocked by tail's operand");
        // Branch between 0 and 5 mispredicted: squash from id 3.
        q.squash_from(UopId(3));
        q.cycle_into(1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].uops.len(), 1, "head issues alone");
        assert_eq!(out[0].uops[0].id, UopId(0));
    }

    #[test]
    fn spilled_mop_sources_shrink_back_on_tail_squash() {
        let mut c = cfg(SchedulerKind::MacroOp);
        c.mop.max_mop_size = 3;
        let mut q = IssueQueue::new(c);
        for t in 90..95 {
            q.force_external_tag(Tag(t));
        }
        // A three-member wired-OR chain of two-source uops: five merged
        // tags spill the entry's inline list.
        let e = q.insert_mop_head(alu(0, Some(100), &[90, 91])).unwrap();
        q.fuse_tail(e, alu(1, Some(100), &[92, 93])).unwrap();
        q.mark_pending(e);
        q.fuse_tail(e, alu(5, Some(100), &[100, 94])).unwrap();
        let srcs = |q: &IssueQueue| q.entries[e.index].as_ref().unwrap().srcs.clone();
        let merged = srcs(&q);
        assert!(merged.spilled());
        assert_eq!(merged, vec![Tag(90), Tag(91), Tag(92), Tag(93), Tag(94)]);
        q.squash_from(UopId(3));
        let restored = srcs(&q);
        assert_eq!(
            restored,
            vec![Tag(90), Tag(91), Tag(92), Tag(93)],
            "head's and middle's sources"
        );
        assert!(!restored.spilled(), "back inline without the tail's source");
    }

    /// A three-member chain whose tail is squashed keeps the middle
    /// member's external sources: the survivor must still wait for them.
    #[test]
    fn half_squashed_chain_keeps_the_middle_members_sources() {
        let mut out = Vec::new();
        let mut c = cfg(SchedulerKind::MacroOp);
        c.mop.max_mop_size = 3;
        let mut q = IssueQueue::new(c);
        q.force_external_tag(Tag(50)); // never broadcast
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        q.fuse_tail(e, alu(1, Some(100), &[100, 50])).unwrap();
        q.mark_pending(e);
        q.fuse_tail(e, alu(5, Some(100), &[100])).unwrap();
        q.squash_from(UopId(3));
        let srcs = q.entries[e.index].as_ref().unwrap().srcs.clone();
        assert_eq!(
            srcs,
            vec![Tag(50)],
            "head and middle sources, minus the MOP tag"
        );
        for now in 0..10 {
            q.cycle_into(now, &mut out);
            assert!(out.is_empty(), "the middle member still waits on Tag(50)");
        }
    }

    #[test]
    fn squash_clears_pending_bits() {
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        assert!(q.is_pending(e));
        q.squash_from(UopId(1)); // tail (younger) can never arrive
        assert!(!q.is_pending(e));
        q.cycle_into(0, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn squash_dep_collision_penalizes_dependent_rewake() {
        let mut out = Vec::new();
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
            q.cycle_into(now, &mut out);
            for i in &out {
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
        let mut out = Vec::new();
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
            q.cycle_into(now, &mut out);
            for i in &out {
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
        let mut out = Vec::new();
        let mut c = cfg(SchedulerKind::SpeculativeWakeup);
        c.issue_width = 2;
        let mut q = IssueQueue::new(c);
        q.insert(alu(0, Some(100), &[])).unwrap();
        q.insert(alu(1, Some(101), &[])).unwrap();
        q.insert(alu(2, Some(102), &[])).unwrap(); // collision victim at 0
        q.insert(alu(3, Some(103), &[102])).unwrap(); // woken speculatively
        let mut sched: HashMap<u64, u64> = HashMap::new();
        for now in 0..20 {
            q.cycle_into(now, &mut out);
            for i in &out {
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
        let mut out = Vec::new();
        let mut c = cfg(SchedulerKind::Base);
        c.confirm_window = 100;
        let mut q = IssueQueue::new(c);
        q.insert(alu(0, Some(100), &[])).unwrap();
        for now in 0..10 {
            q.cycle_into(now, &mut out);
        }
        assert!((q.stats().mean_occupancy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prune_tags_keeps_recent_and_unresolved() {
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(load(0, 100, &[])).unwrap();
        q.insert(alu(1, Some(101), &[])).unwrap();
        for now in 0..5 {
            q.cycle_into(now, &mut out);
        }
        q.prune_tags(2);
        assert!(
            q.tracks_tag(Tag(100)),
            "unresolved load tag must survive pruning"
        );
    }

    #[test]
    fn fuse_into_issued_entry_fails() {
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert(alu(0, Some(100), &[])).unwrap();
        q.cycle_into(0, &mut out);
        let (err, tail) = q.fuse_tail(e, alu(1, Some(100), &[100])).unwrap_err();
        assert_eq!(err, InsertError::BadEntry);
        assert_eq!(tail.id, UopId(1), "the tail comes back for a lone insert");
    }

    #[test]
    fn fuse_beyond_mop_size_fails() {
        let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
        let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
        q.fuse_tail(e, alu(1, Some(100), &[100])).unwrap();
        let (err, tail) = q.fuse_tail(e, alu(2, Some(100), &[100])).unwrap_err();
        assert_eq!(err, InsertError::MopTooLarge);
        assert_eq!(tail.id, UopId(2), "the tail comes back for a lone insert");
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
                    ..TagState::default()
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
                    ..TagState::default()
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
                ..TagState::default()
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
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(alu(0, Some(100), &[])).unwrap();
        for now in 0..10 {
            q.cycle_into(now, &mut out);
        }
        q.prune_tags(2);
        assert!(!q.tracks_tag(Tag(100)), "old resolved tag must be pruned");
        assert_eq!(q.tag_ready_time(Tag(100)), None);
        // A late consumer naming the pruned tag sees it as ready.
        q.insert(alu(1, None, &[100])).unwrap();
        q.cycle_into(10, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].uops[0].id, UopId(1));
    }

    #[test]
    fn queue_metrics_reconcile_with_stats() {
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.set_metrics(true);
        q.insert(alu(0, Some(100), &[])).unwrap();
        q.insert(alu(1, Some(101), &[100])).unwrap();
        q.insert(alu(2, None, &[101])).unwrap();
        for now in 0..20 {
            q.cycle_into(now, &mut out);
        }
        let m = q.metrics().expect("metrics enabled");
        let s = q.stats();
        assert_eq!(
            m.occupancy.count(),
            s.cycles,
            "one occupancy sample per cycle"
        );
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
        let mut out = Vec::new();
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
            q.cycle_into(now, &mut out);
        }
        let m = q.metrics().expect("metrics enabled");
        assert_eq!(m.wakeup_select_delay.count(), 2);
        assert_eq!(m.wakeup_select_delay.sum(), 1, "the loser waits one cycle");
        assert_eq!(m.wakeup_select_delay.max(), 1);
    }

    #[test]
    fn metrics_off_collects_nothing() {
        let mut out = Vec::new();
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        q.insert(alu(0, Some(100), &[])).unwrap();
        for now in 0..5 {
            q.cycle_into(now, &mut out);
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
        assert!(
            out.is_empty(),
            "an idle cycle must clear the scratch buffer"
        );
    }

    /// A miss-replay chain whose entries sit in different bitset words:
    /// load L at index `lo - 1`, its consumers A at `lo` and D at `hi + 1`,
    /// A's consumer B at `hi`, and fillers blocked on an external tag in
    /// every other slot up to `hi`. Checks issue order, replay order,
    /// a mid-queue squash, release and the free-list reuse order.
    fn cross_word_scenario(queue_entries: Option<usize>, lo: usize, hi: usize) {
        let mut out = Vec::new();
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
        for now in 0..=33 {
            if now == 5 {
                // Miss: A and D replay in index order, then B through A's
                // tag (the work list is a stack, so D's empty tag first).
                let mut replayed = Vec::new();
                q.load_resolved_into(Tag(1000), false, 20, &mut replayed);
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
            q.cycle_into(now, &mut out);
            for i in &out {
                log.push((i.uops[0].id.0, i.issue_cycle));
            }
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
        assert_eq!(
            counts.total(),
            34 * q.config().issue_width as u64,
            "slots conserve"
        );
    }

    /// One issue decision, comparable across queue clones.
    fn grants(out: &[Issued]) -> Vec<(EntryId, Vec<UopId>, u64)> {
        out.iter()
            .map(|i| {
                (
                    i.entry,
                    i.uops.iter().map(|u| u.id).collect(),
                    i.issue_cycle,
                )
            })
            .collect()
    }

    /// Everything `skip_idle` must reproduce.
    fn observable(q: &IssueQueue) -> (QueueStats, Option<SlotCounts>, Option<Hist>) {
        (
            q.stats(),
            q.slot_counts().copied(),
            q.metrics().map(|m| m.occupancy.clone()),
        )
    }

    /// Drive `kind` with bursts of dependent work separated by idle gaps,
    /// load storms, loads that miss, and MOP pairs, on two clones in
    /// lockstep: `q` skips every stretch `next_active()` allows with
    /// `skip_idle(k)`, `stepped` calls `cycle_into` for each of those `k`
    /// cycles. The idle cause the driver hands over changes every few
    /// cycles. Their grants, stats, slot counts and occupancy histograms
    /// must agree after every skip and every cycle. Without
    /// accounting, the cycle `next_active()` predicts must not be quiet:
    /// the prediction is exact, not just safe. Returns the cycles skipped.
    fn skip_matches_stepping(kind: SchedulerKind, observe: bool) -> u64 {
        let mut replayed = Vec::new();
        const END: u64 = 600;
        const STORM: u64 = 10_000;
        let burst = |c: u64| c % 60 < 4;
        let storm = |c: u64| c % 60 == 30;
        let mut c = cfg(kind);
        c.replay_penalty = 5; // scoreboard hold-offs outlast a cycle
        let mut q = IssueQueue::new(c);
        q.set_slot_accounting(observe);
        q.set_metrics(observe);
        let mut stepped = q.clone();
        let (mut out, mut step_out) = (Vec::new(), Vec::new());
        // Load resolutions due: `(cycle, tag, hit, data ready)`.
        let mut resolves: Vec<(u64, Tag, bool, u64)> = Vec::new();
        let (mut next_id, mut skipped, mut now) = (0u64, 0, 0u64);
        let mut predicted = None;
        while now < END {
            let cause = [
                SlotCause::Drained,
                SlotCause::Frontend,
                SlotCause::WrongPath,
            ][(now / 7 % 3) as usize];
            for qq in [&mut q, &mut stepped] {
                qq.set_idle_cause(cause);
                for &(_, tag, hit, ready) in resolves.iter().filter(|r| r.0 == now) {
                    qq.load_resolved_into(tag, hit, ready, &mut replayed);
                }
            }
            resolves.retain(|r| r.0 != now);
            if storm(now) && q.free_entries() >= 8 {
                // A storm of loads: the last one starves for memory ports
                // after waking its consumer, a select-free pileup victim.
                // Storm loads hit and report nothing (tags from `STORM`).
                let (id, t) = (next_id, STORM + next_id);
                next_id += 8;
                for qq in [&mut q, &mut stepped] {
                    for k in 0..7 {
                        qq.insert(load(id + k, t + k, &[])).unwrap();
                    }
                    qq.insert(alu(id + 7, Some(t + 7), &[t + 6])).unwrap();
                }
            } else if burst(now) && q.free_entries() >= 4 {
                let (id, t) = (next_id, 1000 + next_id);
                next_id += 4;
                for qq in [&mut q, &mut stepped] {
                    qq.insert(load(id, t, &[])).unwrap();
                    qq.insert(alu(id + 1, Some(t + 1), &[t])).unwrap();
                    if kind == SchedulerKind::MacroOp {
                        let e = qq
                            .insert_mop_head(alu(id + 2, Some(t + 2), &[t + 1]))
                            .unwrap();
                        qq.fuse_tail(e, alu(id + 3, Some(t + 2), &[t + 2, t]))
                            .unwrap();
                    } else {
                        qq.insert(alu(id + 2, Some(t + 2), &[t + 1, t])).unwrap();
                    }
                }
            }
            q.cycle_into(now, &mut out);
            stepped.cycle_into(now, &mut step_out);
            assert_eq!(grants(&out), grants(&step_out), "{kind:?}: grants at {now}");
            assert_eq!(observable(&q), observable(&stepped), "{kind:?}: at {now}");
            if predicted == Some(now) && !observe {
                assert!(
                    !q.quiet,
                    "{kind:?}: predicted activity at {now}, none happened"
                );
            }
            for i in &out {
                for u in i
                    .uops
                    .iter()
                    .filter(|u| u.is_load && u.dst < Some(Tag(STORM)))
                {
                    // The hit or miss is known five cycles after select,
                    // after the consumer issued in the load shadow.
                    let miss = u.id.0 % 8 == 0;
                    let ready = now + if miss { 40 } else { 4 };
                    resolves.push((now + 5, u.dst.unwrap(), !miss, ready));
                }
            }
            let due = resolves.iter().map(|r| r.0).min().unwrap_or(u64::MAX);
            let insert = (now + 1..)
                .find(|&c| burst(c) || storm(c))
                .expect("bursts recur");
            let active = q.next_active();
            let next = active.min(due).min(insert).min(END);
            predicted = (active > now + 1 && active < due.min(insert)).then_some(active);
            if next > now + 1 {
                let k = next - now - 1;
                q.skip_idle(k);
                for c in now + 1..next {
                    stepped.cycle_into(c, &mut step_out);
                    assert!(step_out.is_empty(), "{kind:?}: grant at {c} inside a skip");
                }
                assert_eq!(
                    observable(&q),
                    observable(&stepped),
                    "{kind:?}: skipping {k} to {next}"
                );
                skipped += k;
                now = next - 1;
            }
            now += 1;
        }
        let s = q.stats();
        assert!(s.issued_uops >= next_id / 2, "{kind:?}: work issued");
        assert!(
            s.load_replay_uops + s.pileup_replays > 0,
            "{kind:?}: no replay: {s:?}"
        );
        skipped
    }

    /// Memory ports starve a load that already woke its consumer
    /// speculatively, so the consumer piles up and is held off for the
    /// replay penalty, past the load's eventual wakeup. Every look-ahead
    /// must name the first cycle that is not quiet: here the end of the
    /// hold-off, not the consumer's source wakeup.
    #[test]
    fn next_active_waits_out_a_pileup_hold_off() {
        let mut out = Vec::new();
        let mut c = cfg(SchedulerKind::SelectFreeScoreboard);
        c.replay_penalty = 5;
        let mut q = IssueQueue::new(c);
        for id in 0..7 {
            q.insert(load(id, 100 + id, &[])).unwrap();
        }
        q.insert(alu(7, Some(107), &[106])).unwrap();
        let mut skips = 0;
        for now in 0..40 {
            q.cycle_into(now, &mut out);
            let next = q.clone().next_active();
            if next > now + 1 && next < u64::MAX {
                let mut c = q.clone();
                for t in now + 1..next {
                    c.cycle_into(t, &mut out);
                    assert!(out.is_empty() && c.quiet, "activity at {t} before {next}");
                }
                c.cycle_into(next, &mut out);
                assert!(!c.quiet, "predicted activity at {next}, none happened");
                skips += 1;
            }
        }
        assert!(q.stats().pileup_replays > 0, "the consumer piled up");
        assert!(skips > 0);
    }

    #[test]
    fn skip_idle_equals_stepping_idle_cycles() {
        for kind in [
            SchedulerKind::Base,
            SchedulerKind::TwoCycle,
            SchedulerKind::MacroOp,
            SchedulerKind::SelectFreeSquashDep,
            SchedulerKind::SelectFreeScoreboard,
            SchedulerKind::SpeculativeWakeup,
        ] {
            for observe in [false, true] {
                let skipped = skip_matches_stepping(kind, observe);
                assert!(skipped > 100, "{kind:?}: only {skipped} cycles skipped");
            }
        }
    }

    /// `before` plus the charges of one accounted cycle (or of `times`
    /// skipped ones) the slow way: classify every waiting entry, sort them
    /// all by age, blame the oldest `idle` and charge the rest to
    /// `idle_cause`. Returns the counts and the slots nobody was blamed
    /// for.
    fn reference_charges(
        q: &IssueQueue,
        now: u64,
        (blocked, wasted, grants): (usize, u64, usize),
        times: u64,
        (before, idle_cause): (SlotCounts, SlotCause),
    ) -> (SlotCounts, u64) {
        let mut want = before;
        want.add(SlotCause::Useful, grants as u64 * times);
        want.add(SlotCause::MopFusion, blocked as u64 * times);
        want.add(SlotCause::SchedLoop, wasted * times);
        let idle = q.config.issue_width - blocked - wasted as usize - grants;
        let mut all: Vec<(UopId, SlotCause)> = q
            .entries
            .iter()
            .flatten()
            .filter(|e| e.state == EntryState::Waiting)
            .map(|e| (e.age, q.stall_cause(e, now)))
            .collect();
        all.sort_by_key(|&(age, _)| age);
        for &(_, cause) in all.iter().take(idle) {
            want.add(cause, times);
        }
        let empty = (idle - all.len().min(idle)) as u64;
        want.add(idle_cause, empty * times);
        (want, empty)
    }

    /// Some waiting entry sits in a lower slot than an older one.
    fn ages_out_of_slot_order(q: &IssueQueue) -> bool {
        let ages: Vec<UopId> = q
            .entries
            .iter()
            .flatten()
            .filter(|e| e.state == EntryState::Waiting)
            .map(|e| e.age)
            .collect();
        ages.windows(2).any(|w| w[0] > w[1])
    }

    /// Oldest-`idle` selection charges exactly what classifying and
    /// sorting every waiting entry would, after every cycle and every
    /// skip, and the slots nobody is blamed for go to the idle cause the
    /// driver handed over, which changes every cycle. Random loads (a
    /// quarter miss), dependent chains and pending MOP heads keep more
    /// entries waiting than there are idle slots, with every stall cause
    /// in the mix; entries release and their low slots refill with younger
    /// uops, a third of the insert groups arrive youngest first, and
    /// replays send issued entries back among younger waiting ones, so
    /// age order departs from slot order and from the order entries start
    /// waiting in.
    /// Accounting turns on at the first cycle from `from` on at which age
    /// order departs from slot order (at once when `from` is 0).
    fn charges_equal_a_full_sort(kind: SchedulerKind, from: u64) {
        let mut replayed = Vec::new();
        let mut c = cfg(kind);
        c.confirm_window = 2;
        let mut q = IssueQueue::new(c);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut out = Vec::new();
        let mut resolves: Vec<(u64, Tag, bool, u64)> = Vec::new();
        let mut pending: Vec<(EntryId, u64)> = Vec::new();
        let (mut next_id, mut now) = (0u64, 0u64);
        let (mut crowded, mut shuffled, mut reordered) = (false, false, false);
        let idle_cause = |now: u64| SlotCause::ALL[6 + (now % 3) as usize];
        while now < 800 {
            for &(_, tag, hit, ready) in resolves.iter().filter(|r| r.0 == now) {
                q.load_resolved_into(tag, hit, ready, &mut replayed);
            }
            resolves.retain(|r| r.0 != now);
            for (e, id) in std::mem::take(&mut pending) {
                if rand(4) == 0 {
                    q.fuse_tail(e, alu(id + 1, Some(1000 + id), &[1000 + id]))
                        .unwrap();
                } else {
                    pending.push((e, id));
                }
            }
            if now % 100 < 70 {
                // Every 10th cycle a storm of independent loads
                // contends for the two memory ports.
                let storm = now % 10 == 0;
                let n = if storm { 4 } else { rand(4) }.min(q.free_entries() as u64);
                let (first, backwards) = (next_id, rand(3) == 0);
                next_id += 2 * n;
                for k in 0..n {
                    let id = first + 2 * if backwards { n - 1 - k } else { k };
                    reordered |= backwards && k > 0;
                    let src = 1000 + id.saturating_sub(2 + 2 * rand(6));
                    let srcs: &[u64] = if id == 0 || rand(3) == 0 { &[] } else { &[src] };
                    match if storm { 0 } else { rand(5) } {
                        0 | 1 => q.insert(load(id, 1000 + id, srcs)).map(drop),
                        2 if kind == SchedulerKind::MacroOp => q
                            .insert_mop_head(alu(id, Some(1000 + id), srcs))
                            .map(|e| pending.push((e, id))),
                        _ => q.insert(alu(id, Some(1000 + id), srcs)).map(drop),
                    }
                    .unwrap();
                }
            }
            let out_of_order = ages_out_of_slot_order(&q);
            shuffled |= out_of_order;
            if q.accounting.is_none() && now >= from && (from == 0 || out_of_order) {
                q.set_slot_accounting(true);
            }
            let before = q.slot_counts().copied();
            q.set_idle_cause(idle_cause(now));
            let blocked = q.slots_blocked.min(q.config.issue_width);
            let waste = |q: &IssueQueue| q.stats.spec_wakeup_cancels + q.stats.pileup_replays;
            let waste_before = waste(&q);
            q.cycle_into(now, &mut out);
            if let Some(before) = before {
                let busy = (blocked, waste(&q) - waste_before, out.len());
                let (want, empty) = reference_charges(&q, now, busy, 1, (before, idle_cause(now)));
                assert_eq!(q.slot_counts(), Some(&want), "{kind:?}: cycle {now}");
                let waiting: u32 = q.waiting.iter().map(|w| w.count_ones()).sum();
                crowded |= empty == 0 && waiting as usize > q.config.issue_width - out.len();
            }
            for i in &out {
                for u in i.uops.iter().filter(|u| u.is_load) {
                    let miss = rand(4) == 0;
                    let ready = now + if miss { 30 } else { 3 };
                    resolves.push((now + 4, u.dst.unwrap(), !miss, ready));
                }
            }
            let due = resolves.iter().map(|r| r.0).min().unwrap_or(u64::MAX);
            let insert = if now % 100 < 69 {
                now + 1
            } else {
                now + 100 - now % 100
            };
            let next = q.next_active().min(due).min(insert).min(800);
            if pending.is_empty() && next > now + 1 {
                let k = next - now - 1;
                let before = q.slot_counts().copied();
                q.set_idle_cause(idle_cause(now + 1));
                q.skip_idle(k);
                if let Some(before) = before {
                    let (want, _) =
                        reference_charges(&q, now + k, (0, 0, 0), k, (before, idle_cause(now + 1)));
                    assert_eq!(
                        q.slot_counts(),
                        Some(&want),
                        "{kind:?}: skip {k} from {now}"
                    );
                }
                now += k;
            }
            now += 1;
        }
        assert!(
            crowded,
            "{kind:?}: never more waiting entries than idle slots"
        );
        assert!(
            shuffled,
            "{kind:?}: age order never departed from slot order"
        );
        assert!(reordered, "{kind:?}: every group inserted oldest first");
        assert!(q.stats().load_replay_uops > 0, "{kind:?}: no replay");
        let causes = q.slot_counts().copied().expect("accounting turned on");
        let stalls = [
            SlotCause::NotReady,
            SlotCause::LoadMiss,
            SlotCause::Bandwidth,
            SlotCause::Frontend,
            SlotCause::WrongPath,
            SlotCause::Drained,
        ];
        for cause in stalls {
            assert!(causes.get(cause) > 0, "{kind:?}: no {} slot", cause.name());
        }
    }

    const ACCOUNTED_KINDS: [SchedulerKind; 4] = [
        SchedulerKind::Base,
        SchedulerKind::TwoCycle,
        SchedulerKind::MacroOp,
        SchedulerKind::SelectFreeScoreboard,
    ];

    #[test]
    fn oldest_idle_charges_equal_a_full_sort() {
        for kind in ACCOUNTED_KINDS {
            charges_equal_a_full_sort(kind, 0);
        }
    }

    /// Accounting turned on over a busy queue builds its age list from
    /// the entries already there.
    #[test]
    fn accounting_turned_on_mid_run_charges_equal_a_full_sort() {
        for kind in ACCOUNTED_KINDS {
            charges_equal_a_full_sort(kind, 250);
        }
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

//! Typed per-cycle trace events and the sink abstraction.
//!
//! The scheduling components ([`crate::queue::IssueQueue`],
//! [`crate::pointer::MopPointerStore`]) and the timing simulator in
//! `mos-sim` can emit a structured record for every microarchitectural
//! event of interest — fetch, rename, MOP detection, pointer lifetime,
//! wakeup, select, issue, replay, commit and squash. Consumers implement
//! [`EventSink`]; the invariant oracle in `mos-sim` is one such consumer,
//! the ring-buffered JSONL writer behind `mossim trace` is another.
//!
//! Tracing is **off by default and zero-cost when disabled**: every
//! emission site is guarded by a single predictable branch on its own
//! kind, and no event value is even constructed unless an attached
//! observer reads that kind (see [`EventSink::kinds`]).

use std::collections::VecDeque;

use crate::queue::EntryId;
use crate::uop::{Tag, UopId};

/// One structured trace record. Every variant carries the cycle it
/// happened on; events are delivered to sinks in nondecreasing cycle
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An instruction was fetched (correct or wrong path).
    Fetch {
        /// Cycle of the event.
        cycle: u64,
        /// Static index fetched.
        sidx: u32,
        /// Fetched while walking a mispredicted path.
        wrong_path: bool,
        /// A MOP pointer was delivered alongside the instruction.
        pointer: bool,
    },
    /// A uop was renamed and landed in an issue-queue entry (either a
    /// fresh entry or fused into an existing MOP head's entry).
    Rename {
        /// Cycle of the event.
        cycle: u64,
        /// Program-order uop identity.
        id: UopId,
        /// Static index.
        sidx: u32,
        /// Queue entry holding the uop.
        entry: EntryId,
        /// Destination tag (MOP ID) if value-producing.
        dst: Option<Tag>,
        /// In-flight source tags tracked by the entry for this uop.
        srcs: Vec<Tag>,
        /// `true` when the uop was fused as a MOP tail into `entry`.
        fused: bool,
        /// Entry inserted with the pending-tail bit set.
        pending: bool,
        /// The uop is a load.
        is_load: bool,
        /// Cycle the instruction was fetched (timeline seeding).
        fetched_at: u64,
        /// The uop was fetched on a mispredicted path.
        wrong_path: bool,
    },
    /// Detection produced a MOP pair; its pointer becomes visible at
    /// `visible_at` (detection delay).
    MopDetect {
        /// Cycle of the event.
        cycle: u64,
        /// Head static index.
        head_sidx: u32,
        /// Tail static index.
        tail_sidx: u32,
        /// Fetch-order distance head→tail (1..=7).
        offset: u8,
        /// Pointer control bit (pair spans one taken direct transfer).
        control: bool,
        /// Independent (identical-source) MOP rather than dependent.
        independent: bool,
        /// Cycle the pointer may first be fetched.
        visible_at: u64,
    },
    /// A scheduled pointer survived its detection delay and is now
    /// fetchable.
    PointerInstall {
        /// Cycle of the event.
        cycle: u64,
        /// Head static index the pointer is stored under.
        head_sidx: u32,
        /// I-cache line address the pointer rides on.
        line: u64,
    },
    /// Fetch delivered a stored MOP pointer with its head instruction.
    PointerHit {
        /// Cycle of the event.
        cycle: u64,
        /// Head static index.
        head_sidx: u32,
        /// Tail static index the pointer names.
        tail_sidx: u32,
    },
    /// A pointer was dropped — its I-cache line was evicted, or the
    /// last-arriving-operand filter deleted it.
    PointerEvict {
        /// Cycle of the event.
        cycle: u64,
        /// Head static index.
        head_sidx: u32,
        /// Line address (0 when filtered rather than evicted).
        line: u64,
        /// Dropped by the last-arriving-operand filter, not an eviction.
        filtered: bool,
    },
    /// A destination tag's wakeup broadcast became visible: dependents may
    /// request selection from `ready_at` on.
    Wakeup {
        /// Cycle of the event.
        cycle: u64,
        /// Tag broadcast.
        tag: Tag,
        /// First cycle dependents can be selected.
        ready_at: u64,
        /// Select-free speculative broadcast (at wake, before grant).
        speculative: bool,
    },
    /// The select logic granted an entry (all of its uops leave together).
    Select {
        /// Cycle of the event.
        cycle: u64,
        /// The granted entry.
        entry: EntryId,
        /// Uops leaving the entry, head first.
        uops: Vec<UopId>,
        /// The entry's tracked (merged, still-in-flight) source tags.
        srcs: Vec<Tag>,
        /// Destination tag broadcast by the entry, if any.
        dst: Option<Tag>,
        /// Scheduling latency used for the broadcast (MOP: one per uop).
        latency: u32,
        /// The entry contains a load.
        is_load: bool,
    },
    /// One uop was dispatched toward execution after its entry's grant.
    Issue {
        /// Cycle of the event (the grant cycle).
        cycle: u64,
        /// Uop identity.
        id: UopId,
        /// Static index.
        sidx: u32,
        /// Cycle the uop reaches the execute stage.
        exec_at: u64,
        /// Part of a fused (multi-uop) entry.
        mop: bool,
    },
    /// A load's cache outcome became known to the scheduler.
    LoadResolve {
        /// Cycle of the event.
        cycle: u64,
        /// The load's broadcast tag.
        tag: Tag,
        /// `true` on a DL1 hit (no replay needed).
        hit: bool,
        /// Cycle the data is available to dependents.
        data_ready: u64,
    },
    /// An issued entry was pulled back to waiting by a load-miss replay.
    Replay {
        /// Cycle of the event.
        cycle: u64,
        /// The replayed entry.
        entry: EntryId,
        /// Uops pulled back (whole MOPs replay together).
        uops: Vec<UopId>,
        /// The missed tag that triggered the (possibly transitive) replay.
        tag: Tag,
        /// Earliest cycle the miss tag re-broadcasts (data ready plus the
        /// replay penalty); replayed consumers re-issue at or after it.
        reissue_at: u64,
    },
    /// An instruction retired in program order.
    Commit {
        /// Cycle of the event.
        cycle: u64,
        /// Uop identity.
        id: UopId,
        /// Static index.
        sidx: u32,
        /// Cycle the result completed and the uop became committable.
        complete_at: u64,
    },
    /// A branch misprediction squashed every uop at or after `from`.
    Squash {
        /// Cycle of the event.
        cycle: u64,
        /// First squashed uop id.
        from: UopId,
        /// Static index of the mispredicted branch.
        branch_sidx: u32,
    },
}

impl TraceEvent {
    /// The cycle the event happened on.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Fetch { cycle, .. }
            | TraceEvent::Rename { cycle, .. }
            | TraceEvent::MopDetect { cycle, .. }
            | TraceEvent::PointerInstall { cycle, .. }
            | TraceEvent::PointerHit { cycle, .. }
            | TraceEvent::PointerEvict { cycle, .. }
            | TraceEvent::Wakeup { cycle, .. }
            | TraceEvent::Select { cycle, .. }
            | TraceEvent::Issue { cycle, .. }
            | TraceEvent::LoadResolve { cycle, .. }
            | TraceEvent::Replay { cycle, .. }
            | TraceEvent::Commit { cycle, .. }
            | TraceEvent::Squash { cycle, .. } => cycle,
        }
    }

    /// Overwrite the cycle stamp (used when a component buffers events and
    /// the driver stamps them at drain time).
    pub fn set_cycle(&mut self, c: u64) {
        match self {
            TraceEvent::Fetch { cycle, .. }
            | TraceEvent::Rename { cycle, .. }
            | TraceEvent::MopDetect { cycle, .. }
            | TraceEvent::PointerInstall { cycle, .. }
            | TraceEvent::PointerHit { cycle, .. }
            | TraceEvent::PointerEvict { cycle, .. }
            | TraceEvent::Wakeup { cycle, .. }
            | TraceEvent::Select { cycle, .. }
            | TraceEvent::Issue { cycle, .. }
            | TraceEvent::LoadResolve { cycle, .. }
            | TraceEvent::Replay { cycle, .. }
            | TraceEvent::Commit { cycle, .. }
            | TraceEvent::Squash { cycle, .. } => *cycle = c,
        }
    }

    /// Short lowercase kind name (the JSONL `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Fetch { .. } => "fetch",
            TraceEvent::Rename { .. } => "rename",
            TraceEvent::MopDetect { .. } => "mop_detect",
            TraceEvent::PointerInstall { .. } => "pointer_install",
            TraceEvent::PointerHit { .. } => "pointer_hit",
            TraceEvent::PointerEvict { .. } => "pointer_evict",
            TraceEvent::Wakeup { .. } => "wakeup",
            TraceEvent::Select { .. } => "select",
            TraceEvent::Issue { .. } => "issue",
            TraceEvent::LoadResolve { .. } => "load_resolve",
            TraceEvent::Replay { .. } => "replay",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::Squash { .. } => "squash",
        }
    }

    /// One-line JSON object for JSONL trace files. Hand-rolled (every
    /// field is a number, bool or array of numbers; no escaping needed).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn tags(v: &[Tag]) -> String {
            let inner: Vec<String> = v.iter().map(|t| t.0.to_string()).collect();
            format!("[{}]", inner.join(","))
        }
        fn ids(v: &[UopId]) -> String {
            let inner: Vec<String> = v.iter().map(|t| t.0.to_string()).collect();
            format!("[{}]", inner.join(","))
        }
        fn opt(t: Option<Tag>) -> String {
            t.map_or("null".into(), |t| t.0.to_string())
        }
        let mut s = format!("{{\"ev\":\"{}\",\"cycle\":{}", self.kind(), self.cycle());
        match self {
            TraceEvent::Fetch {
                sidx,
                wrong_path,
                pointer,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"sidx\":{sidx},\"wrong_path\":{wrong_path},\"pointer\":{pointer}"
                );
            }
            TraceEvent::Rename {
                id,
                sidx,
                entry,
                dst,
                srcs,
                fused,
                pending,
                is_load,
                fetched_at,
                wrong_path,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"id\":{},\"sidx\":{sidx},\"entry\":[{},{}],\"dst\":{},\"srcs\":{},\"fused\":{fused},\"pending\":{pending},\"is_load\":{is_load},\"fetched_at\":{fetched_at},\"wrong_path\":{wrong_path}",
                    id.0,
                    entry.index(),
                    entry.generation(),
                    opt(*dst),
                    tags(srcs)
                );
            }
            TraceEvent::MopDetect {
                head_sidx,
                tail_sidx,
                offset,
                control,
                independent,
                visible_at,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"head\":{head_sidx},\"tail\":{tail_sidx},\"offset\":{offset},\"control\":{control},\"independent\":{independent},\"visible_at\":{visible_at}"
                );
            }
            TraceEvent::PointerInstall {
                head_sidx, line, ..
            } => {
                let _ = write!(s, ",\"head\":{head_sidx},\"line\":{line}");
            }
            TraceEvent::PointerHit {
                head_sidx,
                tail_sidx,
                ..
            } => {
                let _ = write!(s, ",\"head\":{head_sidx},\"tail\":{tail_sidx}");
            }
            TraceEvent::PointerEvict {
                head_sidx,
                line,
                filtered,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"head\":{head_sidx},\"line\":{line},\"filtered\":{filtered}"
                );
            }
            TraceEvent::Wakeup {
                tag,
                ready_at,
                speculative,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"tag\":{},\"ready_at\":{ready_at},\"speculative\":{speculative}",
                    tag.0
                );
            }
            TraceEvent::Select {
                entry,
                uops,
                srcs,
                dst,
                latency,
                is_load,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"entry\":[{},{}],\"uops\":{},\"srcs\":{},\"dst\":{},\"latency\":{latency},\"is_load\":{is_load}",
                    entry.index(),
                    entry.generation(),
                    ids(uops),
                    tags(srcs),
                    opt(*dst)
                );
            }
            TraceEvent::Issue {
                id,
                sidx,
                exec_at,
                mop,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"id\":{},\"sidx\":{sidx},\"exec_at\":{exec_at},\"mop\":{mop}",
                    id.0
                );
            }
            TraceEvent::LoadResolve {
                tag,
                hit,
                data_ready,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"tag\":{},\"hit\":{hit},\"data_ready\":{data_ready}",
                    tag.0
                );
            }
            TraceEvent::Replay {
                entry,
                uops,
                tag,
                reissue_at,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"entry\":[{},{}],\"uops\":{},\"tag\":{},\"reissue_at\":{reissue_at}",
                    entry.index(),
                    entry.generation(),
                    ids(uops),
                    tag.0
                );
            }
            TraceEvent::Commit {
                id,
                sidx,
                complete_at,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"id\":{},\"sidx\":{sidx},\"complete_at\":{complete_at}",
                    id.0
                );
            }
            TraceEvent::Squash {
                from, branch_sidx, ..
            } => {
                let _ = write!(s, ",\"from\":{},\"branch_sidx\":{branch_sidx}", from.0);
            }
        }
        s.push('}');
        s
    }
}

/// A set of [`TraceEvent`] kinds, one bit per variant.
///
/// An [`EventSink`] names the kinds it reads; a producer constructs only
/// the union of its observers' kinds.
///
/// ```
/// use mos_core::events::EventKinds;
///
/// let k = EventKinds::COMMIT | EventKinds::SQUASH;
/// assert!(k.contains(EventKinds::COMMIT));
/// assert!(!k.intersects(EventKinds::QUEUE));
/// assert!(EventKinds::ALL.contains(k));
/// assert_eq!(EventKinds::default(), EventKinds::empty());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventKinds(u16);

impl EventKinds {
    /// [`TraceEvent::Fetch`].
    pub const FETCH: EventKinds = EventKinds(1 << 0);
    /// [`TraceEvent::Rename`].
    pub const RENAME: EventKinds = EventKinds(1 << 1);
    /// [`TraceEvent::MopDetect`].
    pub const MOP_DETECT: EventKinds = EventKinds(1 << 2);
    /// [`TraceEvent::PointerInstall`].
    pub const POINTER_INSTALL: EventKinds = EventKinds(1 << 3);
    /// [`TraceEvent::PointerHit`].
    pub const POINTER_HIT: EventKinds = EventKinds(1 << 4);
    /// [`TraceEvent::PointerEvict`].
    pub const POINTER_EVICT: EventKinds = EventKinds(1 << 5);
    /// [`TraceEvent::Wakeup`].
    pub const WAKEUP: EventKinds = EventKinds(1 << 6);
    /// [`TraceEvent::Select`].
    pub const SELECT: EventKinds = EventKinds(1 << 7);
    /// [`TraceEvent::Issue`].
    pub const ISSUE: EventKinds = EventKinds(1 << 8);
    /// [`TraceEvent::LoadResolve`].
    pub const LOAD_RESOLVE: EventKinds = EventKinds(1 << 9);
    /// [`TraceEvent::Replay`].
    pub const REPLAY: EventKinds = EventKinds(1 << 10);
    /// [`TraceEvent::Commit`].
    pub const COMMIT: EventKinds = EventKinds(1 << 11);
    /// [`TraceEvent::Squash`].
    pub const SQUASH: EventKinds = EventKinds(1 << 12);
    /// Every kind.
    pub const ALL: EventKinds = EventKinds((1 << 13) - 1);
    /// The kinds [`crate::queue::IssueQueue`] emits.
    pub const QUEUE: EventKinds = EventKinds(
        Self::RENAME.0 | Self::WAKEUP.0 | Self::SELECT.0 | Self::LOAD_RESOLVE.0 | Self::REPLAY.0,
    );

    /// No kind.
    pub const fn empty() -> EventKinds {
        EventKinds(0)
    }

    /// `true` when every kind in `other` is in the set.
    pub const fn contains(self, other: EventKinds) -> bool {
        self.0 & other.0 == other.0
    }

    /// `true` when at least one kind in `other` is in the set.
    pub const fn intersects(self, other: EventKinds) -> bool {
        self.0 & other.0 != 0
    }

    /// The kind of `ev` as a one-element set.
    pub fn of(ev: &TraceEvent) -> EventKinds {
        match ev {
            TraceEvent::Fetch { .. } => EventKinds::FETCH,
            TraceEvent::Rename { .. } => EventKinds::RENAME,
            TraceEvent::MopDetect { .. } => EventKinds::MOP_DETECT,
            TraceEvent::PointerInstall { .. } => EventKinds::POINTER_INSTALL,
            TraceEvent::PointerHit { .. } => EventKinds::POINTER_HIT,
            TraceEvent::PointerEvict { .. } => EventKinds::POINTER_EVICT,
            TraceEvent::Wakeup { .. } => EventKinds::WAKEUP,
            TraceEvent::Select { .. } => EventKinds::SELECT,
            TraceEvent::Issue { .. } => EventKinds::ISSUE,
            TraceEvent::LoadResolve { .. } => EventKinds::LOAD_RESOLVE,
            TraceEvent::Replay { .. } => EventKinds::REPLAY,
            TraceEvent::Commit { .. } => EventKinds::COMMIT,
            TraceEvent::Squash { .. } => EventKinds::SQUASH,
        }
    }
}

impl std::ops::BitOr for EventKinds {
    type Output = EventKinds;

    fn bitor(self, rhs: EventKinds) -> EventKinds {
        EventKinds(self.0 | rhs.0)
    }
}

/// A consumer of the event stream. Sinks must tolerate events arriving in
/// nondecreasing cycle order with arbitrary interleaving within a cycle.
pub trait EventSink {
    /// Observe one event.
    fn emit(&mut self, ev: &TraceEvent);

    /// The kinds this sink reads. A producer constructs only the union of
    /// its observers' kinds, so a sink that keeps commits alone costs the
    /// simulation nothing else. Other kinds may still arrive (another
    /// observer reads them) and must be tolerated. Defaults to every kind.
    fn kinds(&self) -> EventKinds {
        EventKinds::ALL
    }

    /// Events this sink observed but could not keep (e.g. a bounded ring
    /// wrapping). Unbounded sinks report 0.
    fn dropped(&self) -> u64 {
        0
    }
}

/// Per-kind event counters, folded into the simulator's statistics when
/// tracing is enabled (all zero otherwise). Only the kinds some attached
/// observer reads are constructed and counted, so the counts depend on
/// which observers a run had.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `fetch` events.
    pub fetch: u64,
    /// `rename` events.
    pub rename: u64,
    /// `mop_detect` events.
    pub mop_detect: u64,
    /// `pointer_install` events.
    pub pointer_install: u64,
    /// `pointer_hit` events.
    pub pointer_hit: u64,
    /// `pointer_evict` events.
    pub pointer_evict: u64,
    /// `wakeup` events.
    pub wakeup: u64,
    /// `select` events.
    pub select: u64,
    /// `issue` events.
    pub issue: u64,
    /// `load_resolve` events.
    pub load_resolve: u64,
    /// `replay` events.
    pub replay: u64,
    /// `commit` events.
    pub commit: u64,
    /// `squash` events.
    pub squash: u64,
    /// Events the attached sink observed but discarded (ring wrap). Not a
    /// kind of its own: every dropped event is also counted above, so
    /// [`EventCounts::total`] excludes it.
    pub dropped: u64,
}

impl EventCounts {
    /// Count one event.
    pub fn record(&mut self, ev: &TraceEvent) {
        let slot = match ev {
            TraceEvent::Fetch { .. } => &mut self.fetch,
            TraceEvent::Rename { .. } => &mut self.rename,
            TraceEvent::MopDetect { .. } => &mut self.mop_detect,
            TraceEvent::PointerInstall { .. } => &mut self.pointer_install,
            TraceEvent::PointerHit { .. } => &mut self.pointer_hit,
            TraceEvent::PointerEvict { .. } => &mut self.pointer_evict,
            TraceEvent::Wakeup { .. } => &mut self.wakeup,
            TraceEvent::Select { .. } => &mut self.select,
            TraceEvent::Issue { .. } => &mut self.issue,
            TraceEvent::LoadResolve { .. } => &mut self.load_resolve,
            TraceEvent::Replay { .. } => &mut self.replay,
            TraceEvent::Commit { .. } => &mut self.commit,
            TraceEvent::Squash { .. } => &mut self.squash,
        };
        *slot += 1;
    }

    /// Total events counted.
    pub fn total(&self) -> u64 {
        self.fetch
            + self.rename
            + self.mop_detect
            + self.pointer_install
            + self.pointer_hit
            + self.pointer_evict
            + self.wakeup
            + self.select
            + self.issue
            + self.load_resolve
            + self.replay
            + self.commit
            + self.squash
    }
}

/// A bounded ring buffer keeping the most recent events — the backing
/// store of `mossim trace`'s JSONL writer and of failure excerpts in
/// tests.
#[derive(Debug, Clone)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    seen: u64,
    dropped: u64,
}

impl RingSink {
    /// Ring keeping at most `cap` events (`cap == 0` keeps one).
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            cap: cap.max(1),
            buf: VecDeque::new(),
            seen: 0,
            dropped: 0,
        }
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events observed (including those that fell off the ring).
    pub fn total_seen(&self) -> u64 {
        self.seen
    }

    /// Events that fell off the ring (observed but no longer buffered).
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// Render the buffered events as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for ev in &self.buf {
            s.push_str(&ev.to_json());
            s.push('\n');
        }
        s
    }

    /// Human-readable excerpt of the last `n` buffered events, for test
    /// failure messages.
    pub fn excerpt(&self, n: usize) -> String {
        let skip = self.buf.len().saturating_sub(n);
        let mut s = format!("last {} of {} events:\n", self.buf.len() - skip, self.seen);
        for ev in self.buf.iter().skip(skip) {
            s.push_str("  ");
            s.push_str(&ev.to_json());
            s.push('\n');
        }
        s
    }
}

impl EventSink for RingSink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.seen += 1;
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev.clone());
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(cycle: u64, id: u64) -> TraceEvent {
        TraceEvent::Commit {
            cycle,
            id: UopId(id),
            sidx: 7,
            complete_at: cycle,
        }
    }

    #[test]
    fn ring_keeps_last_events() {
        let mut r = RingSink::new(3);
        for i in 0..5 {
            r.emit(&commit(i, i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_seen(), 5);
        assert_eq!(r.dropped_count(), 2);
        assert_eq!(EventSink::dropped(&r), 2);
        let cycles: Vec<u64> = r.events().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn counts_by_kind() {
        let mut c = EventCounts::default();
        c.record(&commit(1, 1));
        c.record(&commit(2, 2));
        c.record(&TraceEvent::Fetch {
            cycle: 1,
            sidx: 0,
            wrong_path: false,
            pointer: false,
        });
        assert_eq!(c.commit, 2);
        assert_eq!(c.fetch, 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn every_kind_has_its_own_bit() {
        let entry = crate::queue::IssueQueue::new(crate::SchedConfig::default())
            .insert(crate::SchedUop::leaf(
                UopId(0),
                mos_isa::InstClass::IntAlu,
                None,
            ))
            .unwrap();
        let evs = [
            TraceEvent::Fetch {
                cycle: 0,
                sidx: 0,
                wrong_path: false,
                pointer: false,
            },
            TraceEvent::Rename {
                cycle: 0,
                id: UopId(0),
                sidx: 0,
                entry,
                dst: None,
                srcs: Vec::new(),
                fused: false,
                pending: false,
                is_load: false,
                fetched_at: 0,
                wrong_path: false,
            },
            TraceEvent::MopDetect {
                cycle: 0,
                head_sidx: 0,
                tail_sidx: 1,
                offset: 1,
                control: false,
                independent: false,
                visible_at: 0,
            },
            TraceEvent::PointerInstall {
                cycle: 0,
                head_sidx: 0,
                line: 0,
            },
            TraceEvent::PointerHit {
                cycle: 0,
                head_sidx: 0,
                tail_sidx: 1,
            },
            TraceEvent::PointerEvict {
                cycle: 0,
                head_sidx: 0,
                line: 0,
                filtered: false,
            },
            TraceEvent::Wakeup {
                cycle: 0,
                tag: Tag(0),
                ready_at: 0,
                speculative: false,
            },
            TraceEvent::Select {
                cycle: 0,
                entry,
                uops: Vec::new(),
                srcs: Vec::new(),
                dst: None,
                latency: 1,
                is_load: false,
            },
            TraceEvent::Issue {
                cycle: 0,
                id: UopId(0),
                sidx: 0,
                exec_at: 0,
                mop: false,
            },
            TraceEvent::LoadResolve {
                cycle: 0,
                tag: Tag(0),
                hit: true,
                data_ready: 0,
            },
            TraceEvent::Replay {
                cycle: 0,
                entry,
                uops: Vec::new(),
                tag: Tag(0),
                reissue_at: 0,
            },
            commit(0, 0),
            TraceEvent::Squash {
                cycle: 0,
                from: UopId(0),
                branch_sidx: 0,
            },
        ];
        let mut seen = EventKinds::empty();
        for ev in &evs {
            let k = EventKinds::of(ev);
            assert_eq!(k.0.count_ones(), 1, "{}", ev.kind());
            assert!(!seen.intersects(k), "{} shares a bit", ev.kind());
            seen = seen | k;
        }
        assert_eq!(seen, EventKinds::ALL);
        let queue: Vec<&str> = evs
            .iter()
            .filter(|ev| EventKinds::QUEUE.contains(EventKinds::of(ev)))
            .map(TraceEvent::kind)
            .collect();
        assert_eq!(
            queue,
            ["rename", "wakeup", "select", "load_resolve", "replay"]
        );
        assert_eq!(RingSink::new(1).kinds(), EventKinds::ALL);
    }

    #[test]
    fn json_lines_are_well_formed() {
        let ev = TraceEvent::Wakeup {
            cycle: 9,
            tag: Tag(42),
            ready_at: 11,
            speculative: true,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"wakeup\",\"cycle\":9,\"tag\":42,\"ready_at\":11,\"speculative\":true}"
        );
        let mut ev = commit(3, 12);
        ev.set_cycle(8);
        assert_eq!(ev.cycle(), 8);
        assert_eq!(ev.kind(), "commit");
    }
}

//! Event-trace plumbing for the simulator: re-exports `mos-core`'s typed
//! event stream (the queue emits directly into it), holds the simulator's
//! event observers, and adds the shareable ring sink used by the `mossim
//! trace` CLI and by test helpers that need to keep a tail of the stream
//! while the simulator owns the sink.

use std::cell::RefCell;
use std::rc::Rc;

pub use mos_core::events::{EventCounts, EventKinds, EventSink, RingSink, TraceEvent};

use crate::oracle::InvariantOracle;
use crate::timeline::Timeline;

/// The simulator's event-stream observers: the pipeline timeline, the
/// invariant oracle and one event sink (DESIGN §8). The subscribed kinds
/// are the union of the attached observers' [`EventSink::kinds`], and
/// every emission site checks its own kind with [`Observers::wants`]: with
/// nothing attached (the release default) no event value is ever
/// constructed anywhere in the pipeline or the queue.
#[derive(Default)]
pub(crate) struct Observers {
    pub(crate) timeline: Option<Timeline>,
    pub(crate) oracle: Option<InvariantOracle>,
    pub(crate) sink: Option<Box<dyn EventSink>>,
    kinds: EventKinds,
    counts: EventCounts,
}

impl Observers {
    /// Re-derive the subscribed kinds after an observer was attached;
    /// returns them.
    pub(crate) fn subscribe(&mut self) -> EventKinds {
        let attached: [Option<&dyn EventSink>; 3] = [
            self.timeline.as_ref().map(|t| t as _),
            self.oracle.as_ref().map(|o| o as _),
            self.sink.as_deref(),
        ];
        self.kinds = attached
            .into_iter()
            .flatten()
            .fold(EventKinds::empty(), |k, o| k | o.kinds());
        self.kinds
    }

    /// `true` when some attached observer reads events of `kind`.
    #[inline]
    pub(crate) fn wants(&self, kind: EventKinds) -> bool {
        self.kinds.contains(kind)
    }

    /// Count `ev` and deliver it to every attached observer. Callers emit
    /// only kinds they checked with [`Observers::wants`].
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        self.counts.record(&ev);
        if let Some(t) = &mut self.timeline {
            t.emit(&ev);
        }
        if let Some(s) = &mut self.sink {
            s.emit(&ev);
        }
        if let Some(o) = &mut self.oracle {
            o.emit(&ev);
        }
    }

    /// Events delivered so far per kind, and those the sink dropped.
    pub(crate) fn counts(&self) -> EventCounts {
        EventCounts {
            dropped: self.sink.as_ref().map_or(0, |s| s.dropped()),
            ..self.counts
        }
    }
}

/// A clonable handle to a shared [`RingSink`]: the simulator drives it as
/// its sink while the caller keeps a handle to read the buffered tail
/// afterwards (for JSONL dumps or failure excerpts).
#[derive(Debug, Clone)]
pub struct SharedRing(Rc<RefCell<RingSink>>);

impl SharedRing {
    /// Shared ring keeping the most recent `cap` events.
    pub fn new(cap: usize) -> SharedRing {
        SharedRing(Rc::new(RefCell::new(RingSink::new(cap))))
    }

    /// Run `f` against the buffered ring.
    pub fn with<R>(&self, f: impl FnOnce(&RingSink) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Human-readable excerpt of the last `n` buffered events.
    pub fn excerpt(&self, n: usize) -> String {
        self.0.borrow().excerpt(n)
    }

    /// Buffered events rendered as JSONL.
    pub fn to_jsonl(&self) -> String {
        self.0.borrow().to_jsonl()
    }

    /// Total events observed, including those that fell off the ring.
    pub fn total_seen(&self) -> u64 {
        self.0.borrow().total_seen()
    }

    /// Events silently discarded because the bounded ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped_count()
    }
}

impl EventSink for SharedRing {
    fn emit(&mut self, ev: &TraceEvent) {
        self.0.borrow_mut().emit(ev);
    }

    fn dropped(&self) -> u64 {
        self.0.borrow().dropped_count()
    }
}

/// A clonable handle to an unbounded committed-uop log.
///
/// Records the static index of every [`TraceEvent::Commit`] in retirement
/// order. Unlike [`SharedRing`] nothing ever falls off, so a differential
/// harness can compare the *entire* committed sequence against a functional
/// interpreter's expansion — the property the RV32 oracle asserts. It
/// subscribes to commits only, so a simulator with no other observer
/// constructs no other event.
#[derive(Debug, Clone, Default)]
pub struct SharedCommitLog(Rc<RefCell<Vec<u32>>>);

impl SharedCommitLog {
    /// Fresh, empty log.
    pub fn new() -> SharedCommitLog {
        SharedCommitLog::default()
    }

    /// Number of commits observed so far.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// `true` when nothing has committed yet.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// Run `f` against the committed static-index sequence.
    pub fn with<R>(&self, f: impl FnOnce(&[u32]) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Drain the log, returning the committed static-index sequence.
    pub fn take(&self) -> Vec<u32> {
        std::mem::take(&mut *self.0.borrow_mut())
    }
}

impl EventSink for SharedCommitLog {
    fn emit(&mut self, ev: &TraceEvent) {
        if let TraceEvent::Commit { sidx, .. } = ev {
            self.0.borrow_mut().push(*sidx);
        }
    }

    fn kinds(&self) -> EventKinds {
        EventKinds::COMMIT
    }
}

/// Fans one event stream out to two sinks, e.g. a bounded ring for failure
/// excerpts plus an unbounded commit log for differential checking.
pub struct TeeSink(pub Box<dyn EventSink>, pub Box<dyn EventSink>);

impl EventSink for TeeSink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.0.emit(ev);
        self.1.emit(ev);
    }

    fn dropped(&self) -> u64 {
        self.0.dropped() + self.1.dropped()
    }

    fn kinds(&self) -> EventKinds {
        self.0.kinds() | self.1.kinds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mos_core::UopId;

    fn commit(cycle: u64, sidx: u32) -> TraceEvent {
        TraceEvent::Commit {
            cycle,
            id: UopId(cycle),
            sidx,
            complete_at: cycle,
        }
    }

    #[test]
    fn commit_log_keeps_every_commit_in_order() {
        let log = SharedCommitLog::new();
        let mut sink = log.clone();
        for i in 0..100u32 {
            sink.emit(&commit(u64::from(i), i % 7));
        }
        assert_eq!(log.len(), 100);
        log.with(|s| assert_eq!(s[13], 13 % 7));
        assert_eq!(log.take().len(), 100);
        assert!(log.is_empty());
    }

    #[test]
    fn commit_log_ignores_other_events() {
        let log = SharedCommitLog::new();
        let mut sink = log.clone();
        sink.emit(&TraceEvent::Fetch {
            cycle: 1,
            sidx: 0,
            wrong_path: false,
            pointer: false,
        });
        assert!(log.is_empty());
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let ring = SharedRing::new(4);
        let log = SharedCommitLog::new();
        let mut tee = TeeSink(Box::new(ring.clone()), Box::new(log.clone()));
        tee.emit(&commit(3, 9));
        assert_eq!(ring.total_seen(), 1);
        assert_eq!(log.take(), vec![9]);
    }

    #[test]
    fn kinds_follow_what_each_sink_reads() {
        let log = SharedCommitLog::new();
        assert_eq!(log.kinds(), EventKinds::COMMIT);
        assert_eq!(SharedRing::new(1).kinds(), EventKinds::ALL);
        let both = TeeSink(Box::new(log.clone()), Box::new(SharedRing::new(1)));
        assert_eq!(both.kinds(), EventKinds::ALL);
        let logs = TeeSink(Box::new(log.clone()), Box::new(log));
        assert_eq!(logs.kinds(), EventKinds::COMMIT);
    }
}

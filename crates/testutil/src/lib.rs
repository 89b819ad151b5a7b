//! Test-support helpers shared by the repository's integration tests.
//!
//! The central type is [`TracedRun`]: a simulator run with the event
//! tracer attached to a bounded ring, so a failing assertion can print
//! the last events leading up to the problem — a minimized, replayable
//! slice of machine state — instead of a bare statistics mismatch.

#![warn(missing_docs)]

pub use mos_ledger::json;

use mos_isa::TraceSource;
use mos_sim::timeline::UopTimeline;
use mos_sim::{MachineConfig, SharedCommitLog, SharedRing, SimStats, Simulator, TeeSink};

/// How many trailing events a failure excerpt shows by default.
pub const EXCERPT_EVENTS: usize = 32;

/// A completed simulator run with its end-of-run statistics, the tail of
/// its event trace, and (optionally) recorded uop timelines.
pub struct TracedRun {
    /// End-of-run statistics.
    pub stats: SimStats,
    /// Recorded per-uop timelines; empty unless requested.
    pub timelines: Vec<UopTimeline>,
    ring: SharedRing,
}

impl TracedRun {
    /// The last `n` buffered trace events, rendered one JSON object per
    /// line (oldest first).
    pub fn excerpt(&self, n: usize) -> String {
        self.ring.excerpt(n)
    }

    /// Panic with `msg` followed by the trailing event window when
    /// `cond` is false. Use for any invariant over the run so the
    /// failure message carries the events leading up to the violation.
    #[track_caller]
    pub fn expect(&self, cond: bool, msg: impl FnOnce() -> String) {
        if !cond {
            panic!(
                "{}\nlast {} events:\n{}",
                msg(),
                EXCERPT_EVENTS,
                self.excerpt(EXCERPT_EVENTS)
            );
        }
    }

    /// Assert the run committed exactly `expected` instructions; on
    /// mismatch the panic carries the trailing event window, which shows
    /// whether the machine deadlocked, over-committed or lost uops.
    #[track_caller]
    pub fn assert_committed(&self, expected: u64, context: &str) {
        self.expect(self.stats.committed == expected, || {
            format!(
                "{context}: committed {} instructions, expected {expected} \
                 (cycles {})",
                self.stats.committed, self.stats.cycles
            )
        });
    }
}

/// Run `trace` under `cfg` until `max_commits`, keeping the most recent
/// `keep_last` trace events for failure excerpts.
pub fn run_traced<T: TraceSource>(
    cfg: MachineConfig,
    trace: T,
    max_commits: u64,
    keep_last: usize,
) -> TracedRun {
    run_traced_with_timeline(cfg, trace, max_commits, keep_last, 0)
}

/// [`run_traced`] that additionally records the full committed static-index
/// sequence (unbounded), for differential comparison against a functional
/// oracle's expected expansion. Returns the run plus the commit sequence.
pub fn run_traced_with_commits<T: TraceSource>(
    cfg: MachineConfig,
    trace: T,
    max_commits: u64,
    keep_last: usize,
) -> (TracedRun, Vec<u32>) {
    let mut sim = Simulator::new(cfg, trace);
    let ring = SharedRing::new(keep_last);
    let log = SharedCommitLog::new();
    sim.set_event_sink(Box::new(TeeSink(
        Box::new(ring.clone()),
        Box::new(log.clone()),
    )));
    let stats = sim.run(max_commits);
    let run = TracedRun {
        stats,
        timelines: Vec::new(),
        ring,
    };
    (run, log.take())
}

/// [`run_traced`] that additionally records the first `uops` uop
/// timelines (0 disables recording).
pub fn run_traced_with_timeline<T: TraceSource>(
    cfg: MachineConfig,
    trace: T,
    max_commits: u64,
    keep_last: usize,
    uops: usize,
) -> TracedRun {
    let mut sim = Simulator::new(cfg, trace);
    let ring = SharedRing::new(keep_last);
    sim.set_event_sink(Box::new(ring.clone()));
    if uops > 0 {
        sim.enable_timeline(uops);
    }
    let stats = sim.run(max_commits);
    let timelines = sim
        .timeline()
        .map(|t| t.entries().to_vec())
        .unwrap_or_default();
    TracedRun {
        stats,
        timelines,
        ring,
    }
}

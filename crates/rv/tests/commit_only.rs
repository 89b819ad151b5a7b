//! Release-build check that observers pay only for what they read: a
//! simulator whose only observer is a [`SharedCommitLog`] constructs
//! commit events and nothing else, yet logs exactly what a fully traced
//! run of the same job commits, with the same simulated results.
//!
//! Debug builds attach the invariant oracle, which reads every event
//! kind, so they never reach a commit-only run; this test only exists in
//! release builds:
//!
//! ```text
//! cargo test --release -p mos-rv --test commit_only
//! ```

#![cfg(not(debug_assertions))]

use mos_rv::{config_for, suite, RvProgram, RvTraceSource};
use mos_sim::{EventCounts, EventSink, RingSink, SharedCommitLog, SimStats, Simulator, TeeSink};

/// Run `prog` under `sched` with `sink` attached; returns the stats and
/// what `log` (fed by `sink`) recorded.
fn run(
    prog: &RvProgram,
    sched: &str,
    sink: Box<dyn EventSink>,
    log: &SharedCommitLog,
) -> (SimStats, Vec<u32>) {
    let cfg = config_for(sched).expect("known scheduler");
    let trace = RvTraceSource::new(prog).expect("suite program lowers");
    let mut sim = Simulator::new(cfg, trace);
    sim.set_event_sink(sink);
    let stats = sim.run(u64::MAX);
    (stats, log.take())
}

/// The stats with the observer-dependent event counts cleared.
fn simulated(mut s: SimStats) -> SimStats {
    s.events = EventCounts::default();
    s
}

#[test]
fn commit_log_alone_constructs_only_commits() {
    for p in &suite::PROGRAMS {
        let prog = p.assemble();
        for sched in ["base", "mop-wor"] {
            let job = format!("{} under {sched}", prog.name);

            let log = SharedCommitLog::new();
            let (alone, alone_log) = run(&prog, sched, Box::new(log.clone()), &log);
            let commits_only = EventCounts {
                commit: alone.committed,
                ..EventCounts::default()
            };
            assert!(alone.committed > 0, "{job}: nothing committed");
            assert_eq!(
                alone.events, commits_only,
                "{job}: constructed non-commit events"
            );

            let log = SharedCommitLog::new();
            let tee = TeeSink(Box::new(RingSink::new(64)), Box::new(log.clone()));
            let (full, full_log) = run(&prog, sched, Box::new(tee), &log);
            assert!(
                full.events.fetch > 0 && full.events.select > 0,
                "{job}: the ring did not turn on full tracing"
            );
            assert_eq!(alone_log, full_log, "{job}: commit logs differ");
            assert_eq!(
                simulated(alone),
                simulated(full),
                "{job}: simulated results differ"
            );
        }
    }
}

//! Observation never changes simulated timing: every observer the
//! simulator offers — interval metrics, issue-slot accounting, a ring
//! trace, a commit log, the invariant oracle and the pipeline timeline —
//! leaves the run's statistics identical to a plain run, apart from the
//! observer-dependent event and slot counts. mcf is included because most
//! of its cycles are skipped as idle, so observers that bound or walk
//! those skips are exercised too.
//!
//! Debug builds already attach the oracle and slot accounting to every
//! simulator, so the comparison against a truly plain run happens in
//! release builds:
//!
//! ```text
//! cargo test --release --test observers_keep_timing
//! ```

use mopsched::core::{SlotCounts, WakeupStyle};
use mopsched::sim::{
    CpiStack, EventCounts, MachineConfig, OracleMode, SharedCommitLog, SharedRing, SimStats,
    Simulator,
};
use mopsched::workload::spec2000;

const INSTS: u64 = 5_000;
const SEED: u64 = 42;

type Sim = Simulator<mopsched::workload::SynthTrace>;

/// The stats with the observer-dependent event and slot counts cleared.
fn simulated(mut s: SimStats) -> SimStats {
    s.events = EventCounts::default();
    s.slots = SlotCounts::default();
    s
}

/// Run `bench` on `cfg` after `attach` has switched on one observer;
/// `check` then inspects the simulator to prove the observer was live.
fn run(
    bench: &str,
    cfg: &MachineConfig,
    attach: impl FnOnce(&mut Sim),
    check: impl FnOnce(&mut Sim, &SimStats),
) -> SimStats {
    let trace = spec2000::by_name(bench).expect("known benchmark").trace(SEED);
    let mut sim = Simulator::new(cfg.clone(), trace);
    attach(&mut sim);
    let stats = sim.run(INSTS);
    check(&mut sim, &stats);
    stats
}

#[test]
fn every_observer_leaves_simulated_results_unchanged() {
    let scheds = [
        ("base", MachineConfig::base_32()),
        ("2cycle", MachineConfig::two_cycle_32()),
        (
            "mop-wor",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        ),
    ];
    for bench in ["gzip", "mcf"] {
        for (sched, cfg) in &scheds {
            let job = format!("{bench} under {sched}");
            let plain = simulated(run(bench, cfg, |_| {}, |_, _| {}));
            assert!(plain.committed >= INSTS, "{job}: run too short");

            let metrics = run(
                bench,
                cfg,
                |sim| sim.enable_metrics(500),
                |sim, _| {
                    sim.finish_metrics();
                    let rows = sim.metrics().expect("metrics on").series().rows.len();
                    assert!(rows >= 2, "{job}: only {rows} metric rows");
                },
            );
            assert_eq!(simulated(metrics), plain, "{job}: metrics changed the run");

            let accounted = run(bench, cfg, |sim| sim.enable_slot_accounting(), |_, _| {});
            let width = cfg.sched.issue_width as u64;
            CpiStack::from_stats(bench, sched, width, &accounted)
                .check_conservation()
                .unwrap_or_else(|e| panic!("{job}: {e}"));
            assert_eq!(
                simulated(accounted),
                plain,
                "{job}: slot accounting changed the run"
            );

            let ring = SharedRing::new(4_096);
            let traced = run(
                bench,
                cfg,
                |sim| sim.set_event_sink(Box::new(ring.clone())),
                |_, stats| assert_eq!(ring.total_seen(), stats.events.total(), "{job}"),
            );
            assert!(traced.events.total() > 0, "{job}: the ring saw no events");
            assert_eq!(simulated(traced), plain, "{job}: a ring sink changed the run");

            let log = SharedCommitLog::new();
            let logged = run(
                bench,
                cfg,
                |sim| sim.set_event_sink(Box::new(log.clone())),
                |_, stats| assert_eq!(log.len() as u64, stats.committed, "{job}"),
            );
            assert_eq!(simulated(logged), plain, "{job}: a commit log changed the run");

            let checked = run(
                bench,
                cfg,
                |sim| sim.attach_oracle(OracleMode::Collect),
                |sim, _| {
                    let oracle = sim.oracle().expect("oracle attached");
                    assert!(oracle.violations().is_empty(), "{job}: oracle violations");
                },
            );
            assert_eq!(simulated(checked), plain, "{job}: the oracle changed the run");

            let timed = run(
                bench,
                cfg,
                |sim| sim.enable_timeline(256),
                |sim, _| {
                    let entries = sim.timeline().expect("timeline on").entries().len();
                    assert_eq!(entries, 256, "{job}: timeline not filled");
                },
            );
            assert_eq!(simulated(timed), plain, "{job}: the timeline changed the run");
        }
    }
}

//! Observation never changes simulated timing: every observer the
//! simulator offers — interval metrics, issue-slot accounting, a ring
//! trace, a commit log, the invariant oracle and the pipeline timeline —
//! leaves the run's statistics identical to a plain run, apart from the
//! observer-dependent event and slot counts. That holds for each observer
//! alone and for all of them at once, where each one also records exactly
//! what it records alone. mcf is included because most of its cycles are
//! skipped as idle, so observers that bound or walk those skips are
//! exercised too. Every observer attaches before the first cycle.
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
    Simulator, TeeSink,
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
    let trace = spec2000::by_name(bench)
        .expect("known benchmark")
        .trace(SEED);
    let mut sim = Simulator::new(cfg.clone(), trace);
    attach(&mut sim);
    let stats = sim.run(INSTS);
    check(&mut sim, &stats);
    stats
}

/// The schedulers every case runs: atomic, pipelined and macro-op.
fn schedulers() -> [(&'static str, MachineConfig); 3] {
    [
        ("base", MachineConfig::base_32()),
        ("2cycle", MachineConfig::two_cycle_32()),
        (
            "mop-wor",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        ),
    ]
}

#[test]
fn every_observer_leaves_simulated_results_unchanged() {
    for bench in ["gzip", "mcf"] {
        for (sched, cfg) in &schedulers() {
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
            assert_eq!(
                simulated(traced),
                plain,
                "{job}: a ring sink changed the run"
            );

            let log = SharedCommitLog::new();
            let logged = run(
                bench,
                cfg,
                |sim| sim.set_event_sink(Box::new(log.clone())),
                |_, stats| assert_eq!(log.len() as u64, stats.committed, "{job}"),
            );
            assert_eq!(
                simulated(logged),
                plain,
                "{job}: a commit log changed the run"
            );

            let checked = run(
                bench,
                cfg,
                |sim| sim.attach_oracle(OracleMode::Collect),
                |sim, _| {
                    let oracle = sim.oracle().expect("oracle attached");
                    assert!(oracle.violations().is_empty(), "{job}: oracle violations");
                },
            );
            assert_eq!(
                simulated(checked),
                plain,
                "{job}: the oracle changed the run"
            );

            let timed = run(
                bench,
                cfg,
                |sim| sim.enable_timeline(256),
                |sim, _| {
                    let entries = sim.timeline().expect("timeline on").entries().len();
                    assert_eq!(entries, 256, "{job}: timeline not filled");
                },
            );
            assert_eq!(
                simulated(timed),
                plain,
                "{job}: the timeline changed the run"
            );
        }
    }
}

/// What each observer recorded in one run.
#[derive(Debug, PartialEq)]
struct Recorded {
    series: Option<mopsched::metrics::Series>,
    slots: Option<SlotCounts>,
    ring: Option<String>,
    commits: Option<Vec<u32>>,
    timeline: Option<Vec<mopsched::sim::timeline::UopTimeline>>,
}

/// Run `bench` on `cfg` with the chosen observers attached; the oracle,
/// when attached, must stay clean.
fn record(bench: &str, cfg: &MachineConfig, which: [bool; 6]) -> (SimStats, Recorded) {
    let [metrics, slots, ring, log, oracle, timeline] = which;
    let (ring_h, log_h) = (SharedRing::new(1 << 16), SharedCommitLog::new());
    let mut out = None;
    let stats = run(
        bench,
        cfg,
        |sim| {
            if metrics {
                sim.enable_metrics(500);
            }
            if slots {
                sim.enable_slot_accounting();
            }
            match (ring, log) {
                (true, true) => sim.set_event_sink(Box::new(TeeSink(
                    Box::new(ring_h.clone()),
                    Box::new(log_h.clone()),
                ))),
                (true, false) => sim.set_event_sink(Box::new(ring_h.clone())),
                (false, true) => sim.set_event_sink(Box::new(log_h.clone())),
                (false, false) => {}
            }
            if oracle {
                sim.attach_oracle(OracleMode::Collect);
            }
            if timeline {
                sim.enable_timeline(256);
            }
        },
        |sim, stats| {
            sim.finish_metrics();
            if oracle {
                let o = sim.oracle().expect("oracle attached");
                assert!(o.is_clean(), "{bench}: {}", o.violations()[0]);
            }
            out = Some(Recorded {
                series: metrics.then(|| sim.metrics().expect("metrics on").series().clone()),
                slots: slots.then_some(stats.slots),
                ring: ring.then(|| ring_h.to_jsonl()),
                commits: log.then(|| log_h.take()),
                timeline: timeline.then(|| sim.timeline().expect("timeline on").entries().to_vec()),
            });
        },
    );
    (stats, out.expect("check ran"))
}

/// All observers share one simulator without disturbing it or each
/// other: metrics, slot accounting, a ring and a commit log behind one
/// tee, the oracle and the timeline, attached together, record exactly
/// what each records alone, and the simulated results are the plain
/// run's.
#[test]
fn all_observers_at_once_record_what_each_records_alone() {
    for bench in ["gzip", "mcf"] {
        for (sched, cfg) in &schedulers() {
            let job = format!("{bench} under {sched}");
            let (plain, _) = record(bench, cfg, [false; 6]);
            let (stats, all) = record(bench, cfg, [true; 6]);
            assert_eq!(
                simulated(stats),
                simulated(plain),
                "{job}: observers changed the run"
            );
            let solo = |i: usize| {
                let mut which = [false; 6];
                which[i] = true;
                record(bench, cfg, which).1
            };
            let alone = Recorded {
                series: solo(0).series,
                slots: solo(1).slots,
                ring: solo(2).ring,
                commits: solo(3).commits,
                timeline: solo(5).timeline,
            };
            assert!(
                all.commits
                    .as_ref()
                    .is_some_and(|c| c.len() as u64 >= INSTS),
                "{job}"
            );
            assert_eq!(
                all, alone,
                "{job}: an observer recorded differently alongside others"
            );
        }
    }
}

/// An observer attached after the first cycle would see a stream missing
/// the start of the run: a late oracle reports uops "committed without
/// issuing". Every observer attaches before the first cycle instead.
#[test]
#[should_panic(expected = "attach the oracle before the first cycle")]
fn a_late_oracle_is_refused() {
    let (_, cfg) = &schedulers()[0];
    run(
        "gzip",
        cfg,
        |_| {},
        |sim, _| sim.attach_oracle(OracleMode::Collect),
    );
}

#[test]
fn every_observer_is_refused_after_the_first_cycle() {
    type Attach = fn(&mut Sim);
    let late: [(&str, Attach); 5] = [
        ("enable metrics", |sim| sim.enable_metrics(500)),
        ("enable slot accounting", |sim| sim.enable_slot_accounting()),
        ("attach an event sink", |sim| {
            sim.set_event_sink(Box::new(SharedRing::new(16)))
        }),
        ("attach the oracle", |sim| {
            sim.attach_oracle(OracleMode::Collect)
        }),
        ("enable the timeline", |sim| sim.enable_timeline(16)),
    ];
    let (_, cfg) = &schedulers()[0];
    for (what, attach) in late {
        let trace = spec2000::by_name("gzip")
            .expect("known benchmark")
            .trace(SEED);
        let mut sim = Simulator::new(cfg.clone(), trace);
        sim.run(100);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attach(&mut sim)));
        let message = refused.expect_err(what);
        let message = message
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            message.contains(&format!("{what} before the first cycle")),
            "{message}"
        );
    }
}

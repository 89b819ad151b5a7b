//! Regression test for the MOP pointer lifecycle, asserted through the
//! event trace: evicting an I-cache line must drop the pointers riding on
//! it (`pointer_evict`), a fetch may only use a pointer that is currently
//! installed (`pointer_hit`), and a re-fetched head re-arms only after the
//! configured detection delay has elapsed since its (re-)detection.

use std::collections::HashMap;

use mos_core::WakeupStyle;
use mos_sim::{MachineConfig, SharedRing, Simulator, TraceEvent};
use mos_workload::spec2000;

/// Per-head lifecycle state reconstructed from the stream.
#[derive(Default)]
struct Head {
    /// `visible_at` cycles of detections not yet consumed by an install.
    pending: Vec<u64>,
    installed: bool,
    installs: u64,
    evicts: u64,
    rearms_after_evict: u64,
}

#[test]
fn pointer_lifetime_follows_evict_and_redetect_protocol() {
    // A code footprint far beyond the 16KB IL1: lines are continuously
    // evicted, so pointers are dropped and re-armed throughout the run.
    let mut spec = spec2000::by_name("gzip").unwrap();
    spec.body_len = 6_000;
    let trace = spec.trace(42);

    let cfg = MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1);
    let delay = cfg.sched.mop.detection_delay;
    let mut sim = Simulator::new(cfg, trace);
    let ring = SharedRing::new(1_500_000);
    sim.set_event_sink(Box::new(ring.clone()));
    let stats = sim.run(30_000);

    assert!(
        ring.with(|r| r.len() as u64) == ring.total_seen(),
        "ring overflowed ({} events seen): the checks below need the full stream",
        ring.total_seen()
    );

    let mut heads: HashMap<u32, Head> = HashMap::new();
    let mut hits = 0u64;
    let mut filtered = 0u64;
    ring.with(|r| {
        for ev in r.events() {
            match *ev {
                TraceEvent::MopDetect {
                    cycle,
                    head_sidx,
                    visible_at,
                    ..
                } => {
                    assert_eq!(
                        visible_at,
                        cycle + delay,
                        "detection at cycle {cycle} must become visible after \
                         the configured delay of {delay}"
                    );
                    heads.entry(head_sidx).or_default().pending.push(visible_at);
                }
                TraceEvent::PointerInstall {
                    cycle, head_sidx, ..
                } => {
                    let h = heads.entry(head_sidx).or_default();
                    // Re-arming is only legal once some detection's delay
                    // has elapsed; consume the earliest such detection.
                    let ready = h
                        .pending
                        .iter()
                        .position(|&v| v <= cycle)
                        .unwrap_or_else(|| {
                            panic!(
                                "head {head_sidx} installed at cycle {cycle} with no \
                                 elapsed detection (pending {:?})",
                                h.pending
                            )
                        });
                    h.pending.remove(ready);
                    if h.evicts > h.rearms_after_evict {
                        h.rearms_after_evict += 1;
                    }
                    h.installed = true;
                    h.installs += 1;
                }
                TraceEvent::PointerHit {
                    cycle, head_sidx, ..
                } => {
                    assert!(
                        heads.get(&head_sidx).is_some_and(|h| h.installed),
                        "fetch used a pointer for head {head_sidx} at cycle {cycle} \
                         that is not currently installed"
                    );
                    hits += 1;
                }
                TraceEvent::PointerEvict {
                    cycle,
                    head_sidx,
                    filtered: f,
                    ..
                } => {
                    let h = heads.entry(head_sidx).or_default();
                    assert!(
                        h.installed,
                        "evicted a pointer for head {head_sidx} at cycle {cycle} \
                         that was never installed"
                    );
                    h.installed = false;
                    if f {
                        filtered += 1;
                    } else {
                        h.evicts += 1;
                    }
                }
                _ => {}
            }
        }
    });

    // The event stream and the aggregate counters must agree.
    let installs: u64 = heads.values().map(|h| h.installs).sum();
    let evicts: u64 = heads.values().map(|h| h.evicts).sum();
    assert_eq!(installs, stats.pointers.0, "install events vs stats");
    assert_eq!(evicts, stats.pointers.1, "line-evict events vs stats");
    assert_eq!(filtered, stats.pointers.2, "filter-evict events vs stats");

    // The workload must actually exercise the lifecycle end to end.
    assert!(stats.il1.1 > 100, "IL1 must thrash: {} misses", stats.il1.1);
    assert!(installs > 0, "no pointers installed");
    assert!(evicts > 0, "no pointers dropped with their lines");
    assert!(hits > 0, "no fetch ever used an installed pointer");
    let rearms: u64 = heads.values().map(|h| h.rearms_after_evict).sum();
    assert!(
        rearms > 0,
        "no head was ever re-armed after its line was evicted"
    );
}

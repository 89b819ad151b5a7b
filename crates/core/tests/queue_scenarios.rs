//! Additional issue-queue scenarios: mixed MOP/singleton contention,
//! independent-MOP timing, multi-source wakeup, replay interactions with
//! squash and pending bits, and property-based conservation checks.

use std::collections::HashMap;

use proptest::prelude::*;

use mos_core::queue::IssueQueue;
use mos_core::{SchedConfig, SchedUop, SchedulerKind, Tag, UopId, WakeupStyle};
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

fn drain(q: &mut IssueQueue, cycles: u64) -> HashMap<u64, Vec<u64>> {
    let mut sched: HashMap<u64, Vec<u64>> = HashMap::new();
    for now in 0..cycles {
        for i in q.cycle(now) {
            for u in i.uops.iter() {
                sched.entry(u.id.0).or_default().push(i.issue_cycle);
            }
        }
    }
    sched
}

/// An independent MOP serializes its members but its consumers still see
/// 2-cycle wakeup (Section 5.4.1).
#[test]
fn independent_mop_consumer_timing() {
    let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
    let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
    q.fuse_tail(e, alu(1, Some(100), &[])).unwrap(); // same (empty) sources
    q.insert(alu(2, Some(101), &[100])).unwrap();
    let sched = drain(&mut q, 20);
    assert_eq!(sched[&0], vec![0]);
    assert_eq!(sched[&1], vec![0], "members issue as one entry");
    assert_eq!(sched[&2], vec![2], "consumer wakes at S+2, as in plain 2-cycle");
}

/// A three-source MOP (wired-OR) waits for all of them.
#[test]
fn merged_sources_all_gate_issue() {
    let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
    // Three independent producers with different latencies via chains.
    q.insert(alu(0, Some(100), &[])).unwrap();
    q.insert(alu(1, Some(101), &[100])).unwrap(); // ready at +2
    q.insert(alu(2, Some(102), &[101])).unwrap(); // ready at +4
    let e = q.insert_mop_head(alu(3, Some(103), &[100, 101])).unwrap();
    let mut tail = alu(4, Some(103), &[103]);
    tail.srcs.push(Tag(102));
    q.fuse_tail(e, tail).unwrap();
    let sched = drain(&mut q, 30);
    let mop_issue = sched[&3][0];
    let producer2 = sched[&2][0];
    assert!(
        mop_issue >= producer2 + 2,
        "MOP at {mop_issue} must wait for the slowest source (issued {producer2})"
    );
}

/// MOP slot blocking composes with FU limits: two MOPs issued together
/// block two slots and two ALUs next cycle.
#[test]
fn two_mops_block_two_slots() {
    let mut c = cfg(SchedulerKind::MacroOp);
    c.issue_width = 4;
    c.fu_counts = [4, 2, 2, 2, 2];
    let mut q = IssueQueue::new(c);
    for k in 0..2u64 {
        let e = q.insert_mop_head(alu(k * 2, Some(100 + k), &[])).unwrap();
        q.fuse_tail(e, alu(k * 2 + 1, Some(100 + k), &[100 + k])).unwrap();
    }
    for k in 0..6u64 {
        q.insert(alu(10 + k, Some(200 + k), &[])).unwrap();
    }
    let mut per_cycle: HashMap<u64, usize> = HashMap::new();
    for now in 0..10 {
        for _ in q.cycle(now) {
            *per_cycle.entry(now).or_default() += 1;
        }
    }
    // Cycle 0: 2 MOPs + 2 singles = 4 grants. Cycle 1: only 2 slots left.
    assert_eq!(per_cycle[&0], 4);
    assert_eq!(per_cycle[&1], 2, "two slots sequenced by MOP tails");
}

/// Squash while a load replay is pending: surviving entries still replay
/// and re-issue; squashed consumers disappear without deadlock.
#[test]
fn squash_and_replay_interleave() {
    let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
    let mut load = SchedUop::leaf(UopId(0), InstClass::Load, Some(Tag(100)));
    load.srcs.clear();
    q.insert(load).unwrap();
    q.insert(alu(1, Some(101), &[100])).unwrap(); // older consumer: survives
    q.insert(alu(5, Some(105), &[100])).unwrap(); // younger: squashed
    let mut reissues_of_1 = 0;
    for now in 0..40 {
        if now == 5 {
            q.load_resolved(Tag(100), false, 20);
        }
        if now == 6 {
            q.squash_from(UopId(3));
        }
        for i in q.cycle(now) {
            if i.uops[0].id == UopId(1) {
                reissues_of_1 += 1;
            }
            if now > 6 {
                assert_ne!(i.uops[0].id, UopId(5), "squashed uop must not re-issue");
            }
        }
    }
    assert_eq!(reissues_of_1, 2, "survivor replays once");
    assert_eq!(q.occupancy(), 0, "everything drains");
}

/// cancel_pending is idempotent and safe on issued/freed entries.
#[test]
fn cancel_pending_is_idempotent() {
    let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
    let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
    q.cancel_pending(e);
    q.cancel_pending(e);
    assert_eq!(q.stats().cancelled_pendings, 1);
    let issued = q.cycle(0);
    assert_eq!(issued.len(), 1);
    q.cancel_pending(e); // now issued: no-op
    assert_eq!(q.stats().cancelled_pendings, 1);
}

/// load_resolved on an unknown or squashed tag is a harmless no-op.
#[test]
fn load_resolved_unknown_tag_is_noop() {
    let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
    assert!(q.load_resolved(Tag(999), false, 50).is_empty());
    q.insert(alu(0, Some(100), &[])).unwrap();
    assert_eq!(q.cycle(0).len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Conservation: every inserted singleton eventually issues exactly
    /// once (no loads, no squashes), under every scheduler, regardless of
    /// dependence shape.
    #[test]
    fn all_work_issues_exactly_once(
        deps in prop::collection::vec(prop::option::of(0usize..8), 1..24),
        kind in prop::sample::select(vec![
            SchedulerKind::Base,
            SchedulerKind::TwoCycle,
            SchedulerKind::MacroOp,
            SchedulerKind::SelectFreeSquashDep,
            SchedulerKind::SelectFreeScoreboard,
            SchedulerKind::SpeculativeWakeup,
        ]),
    ) {
        let mut q = IssueQueue::new(cfg(kind));
        for (i, d) in deps.iter().enumerate() {
            // Depend on an earlier uop (by index distance) when possible.
            let srcs: Vec<u64> = match d {
                Some(back) if *back < i => vec![100 + (i - 1 - back) as u64],
                _ => vec![],
            };
            q.insert(alu(i as u64, Some(100 + i as u64), &srcs)).unwrap();
        }
        let sched = drain(&mut q, 300);
        for i in 0..deps.len() as u64 {
            let issues = sched.get(&i).map(Vec::len).unwrap_or(0);
            prop_assert_eq!(issues, 1, "uop {} issued {} times under {:?}", i, issues, kind);
        }
    }

    /// Issue cycles respect dependences: a consumer never issues before
    /// its producer (+1 at minimum).
    #[test]
    fn dependences_are_never_violated(
        deps in prop::collection::vec(prop::option::of(0usize..4), 2..20),
    ) {
        let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
        let mut edges = Vec::new();
        for (i, d) in deps.iter().enumerate() {
            let srcs: Vec<u64> = match d {
                Some(back) if *back < i => {
                    let p = i - 1 - back;
                    edges.push((p as u64, i as u64));
                    vec![100 + p as u64]
                }
                _ => vec![],
            };
            q.insert(alu(i as u64, Some(100 + i as u64), &srcs)).unwrap();
        }
        let sched = drain(&mut q, 200);
        for (p, c) in edges {
            prop_assert!(
                sched[&c][0] > sched[&p][0],
                "consumer {} at {} vs producer {} at {}",
                c, sched[&c][0], p, sched[&p][0]
            );
        }
    }
}

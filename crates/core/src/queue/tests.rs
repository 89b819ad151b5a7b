use std::collections::HashMap;

use super::*;
use crate::config::WakeupStyle;
use mos_isa::InstClass;

impl TagTable {
    fn contains(&self, t: Tag) -> bool {
        self.get(t).is_some()
    }

    fn insert(&mut self, t: Tag, s: TagState) {
        if let Some(state) = self.ensure(t) {
            *state = s;
        }
    }
}

impl IssueQueue {
    fn force_external_tag(&mut self, tag: Tag) {
        self.tags.insert(tag, TagState::default());
    }

    fn tracks_tag(&self, tag: Tag) -> bool {
        self.tags.contains(tag)
    }
}

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
            let waiting = q.entries.iter().flatten();
            let waiting = waiting.filter(|e| e.state == EntryState::Waiting).count();
            crowded |= empty == 0 && waiting > q.config.issue_width - out.len();
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

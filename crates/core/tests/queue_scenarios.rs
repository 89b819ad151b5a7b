//! Additional issue-queue scenarios: mixed MOP/singleton contention,
//! independent-MOP timing, multi-source wakeup, replay interactions with
//! squash and pending bits, and property-based conservation checks,
//! including random interleavings of every queue operation, run in
//! lockstep with the scan-all reference queue of `ref_queue`.

mod ref_queue;

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use mos_core::queue::{EntryId, IssueQueue, QueueStats};
use mos_core::{SchedConfig, SchedUop, SchedulerKind, SlotCause, Tag, UopId, WakeupStyle};
use mos_isa::InstClass;

use ref_queue::{RefId, RefQueue};

const KINDS: [SchedulerKind; 6] = [
    SchedulerKind::Base,
    SchedulerKind::TwoCycle,
    SchedulerKind::MacroOp,
    SchedulerKind::SelectFreeSquashDep,
    SchedulerKind::SelectFreeScoreboard,
    SchedulerKind::SpeculativeWakeup,
];

fn cfg(kind: SchedulerKind) -> SchedConfig {
    SchedConfig {
        kind,
        wakeup: WakeupStyle::WiredOr,
        queue_entries: Some(32),
        ..SchedConfig::default()
    }
}

fn alu(id: u64, dst: Option<u64>, srcs: &[u64]) -> SchedUop {
    op(id, InstClass::IntAlu, dst, srcs)
}

fn op(id: u64, class: InstClass, dst: Option<u64>, srcs: &[u64]) -> SchedUop {
    let mut u = SchedUop::leaf(UopId(id), class, dst.map(Tag));
    u.srcs = srcs.iter().copied().map(Tag).collect();
    u
}

fn drain(q: &mut IssueQueue, cycles: u64) -> HashMap<u64, Vec<u64>> {
    let mut out = Vec::new();
    let mut sched: HashMap<u64, Vec<u64>> = HashMap::new();
    for now in 0..cycles {
        q.cycle_into(now, &mut out);
        for i in &out {
            for u in i.uops.iter() {
                sched.entry(u.id.0).or_default().push(i.issue_cycle);
            }
        }
    }
    sched
}

/// `drain`, checking the queue's idle-cycle prediction after every cycle:
/// whenever `next_active()` lies more than a cycle ahead, a clone stepped
/// cycle by cycle up to it grants nothing, releases nothing and changes
/// no statistic but the clock and the occupancy integral, and at the
/// predicted cycle itself it does act: it grants, releases or changes a
/// statistic. (The first requester after a quiet cycle always finds a
/// free slot and unit, so a request is a grant or a counted cancel; and
/// an entry due to broadcast speculatively also requests then, since a
/// held-off entry has broadcast already.)
fn drain_checked(q: &mut IssueQueue, cycles: u64) -> HashMap<u64, Vec<u64>> {
    let mut sched: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut out = Vec::new();
    for now in 0..cycles {
        q.cycle_into(now, &mut out);
        for i in &out {
            for u in i.uops.iter() {
                sched.entry(u.id.0).or_default().push(i.issue_cycle);
            }
        }
        check_idle_prediction(q, now);
    }
    sched
}

fn check_idle_prediction(q: &IssueQueue, now: u64) {
    let mut c = q.clone();
    let next = c.next_active();
    if next <= now + 1 {
        return;
    }
    let frozen = |q: &IssueQueue| QueueStats {
        cycles: 0,
        occupancy_integral: 0,
        ..q.stats()
    };
    let (stats, occupancy) = (frozen(&c), c.occupancy());
    let mut out = Vec::new();
    // Nothing pending at all: a few idle cycles stand in for forever.
    for t in now + 1..next.min(now + 64) {
        c.cycle_into(t, &mut out);
        assert!(out.is_empty(), "grant at {t}, before the predicted {next}");
        assert_eq!(c.occupancy(), occupancy, "release at {t}, before {next}");
        assert_eq!(frozen(&c), stats, "stats changed at {t}, before {next}");
    }
    if next < now + 64 {
        c.cycle_into(next, &mut out);
        let acted = !out.is_empty() || c.occupancy() != occupancy || frozen(&c) != stats;
        assert!(
            acted,
            "predicted activity at {next}, but the cycle was quiet"
        );
    }
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
    assert_eq!(
        sched[&2],
        vec![2],
        "consumer wakes at S+2, as in plain 2-cycle"
    );
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
    let mut out = Vec::new();
    let mut c = cfg(SchedulerKind::MacroOp);
    c.issue_width = 4;
    c.fu_counts = [4, 2, 2, 2, 2];
    let mut q = IssueQueue::new(c);
    for k in 0..2u64 {
        let e = q.insert_mop_head(alu(k * 2, Some(100 + k), &[])).unwrap();
        q.fuse_tail(e, alu(k * 2 + 1, Some(100 + k), &[100 + k]))
            .unwrap();
    }
    for k in 0..6u64 {
        q.insert(alu(10 + k, Some(200 + k), &[])).unwrap();
    }
    let mut per_cycle: HashMap<u64, usize> = HashMap::new();
    for now in 0..10 {
        q.cycle_into(now, &mut out);
        for _ in &out {
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
    let mut out = Vec::new();
    let mut replayed = Vec::new();
    let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
    let mut load = SchedUop::leaf(UopId(0), InstClass::Load, Some(Tag(100)));
    load.srcs.clear();
    q.insert(load).unwrap();
    q.insert(alu(1, Some(101), &[100])).unwrap(); // older consumer: survives
    q.insert(alu(5, Some(105), &[100])).unwrap(); // younger: squashed
    let mut reissues_of_1 = 0;
    for now in 0..40 {
        if now == 5 {
            q.load_resolved_into(Tag(100), false, 20, &mut replayed);
        }
        if now == 6 {
            q.squash_from(UopId(3));
        }
        q.cycle_into(now, &mut out);
        for i in &out {
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
    let mut out = Vec::new();
    let mut q = IssueQueue::new(cfg(SchedulerKind::MacroOp));
    let e = q.insert_mop_head(alu(0, Some(100), &[])).unwrap();
    q.cancel_pending(e);
    q.cancel_pending(e);
    assert_eq!(q.stats().cancelled_pendings, 1);
    q.cycle_into(0, &mut out);
    assert_eq!(out.len(), 1);
    q.cancel_pending(e); // now out: no-op
    assert_eq!(q.stats().cancelled_pendings, 1);
}

/// load_resolved on an unknown or squashed tag is a harmless no-op.
#[test]
fn load_resolved_unknown_tag_is_noop() {
    let (mut out, mut replayed) = (Vec::new(), vec![UopId(7)]);
    let mut q = IssueQueue::new(cfg(SchedulerKind::Base));
    q.load_resolved_into(Tag(999), false, 50, &mut replayed);
    assert!(
        replayed.is_empty(),
        "the buffer is cleared, nothing replays"
    );
    q.insert(alu(0, Some(100), &[])).unwrap();
    q.cycle_into(0, &mut out);
    assert_eq!(out.len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Conservation: every inserted singleton eventually issues exactly
    /// once (no loads, no squashes), under every scheduler and pileup
    /// replay penalty, regardless of dependence shape or which uops are
    /// 3-cycle multiplies; and the queue's idle-cycle prediction holds
    /// throughout (see `drain_checked`).
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
        replay_penalty in prop::sample::select(vec![2u32, 5]),
        classes in prop::collection::vec(
            prop::sample::select(vec![InstClass::IntAlu, InstClass::IntMul]),
            24..25,
        ),
    ) {
        let mut q = IssueQueue::new(SchedConfig { replay_penalty, ..cfg(kind) });
        for (i, d) in deps.iter().enumerate() {
            // Depend on an earlier uop (by index distance) when possible.
            let srcs: Vec<u64> = match d {
                Some(back) if *back < i => vec![100 + (i - 1 - back) as u64],
                _ => vec![],
            };
            q.insert(op(i as u64, classes[i], Some(100 + i as u64), &srcs)).unwrap();
        }
        let sched = drain_checked(&mut q, 300);
        for i in 0..deps.len() as u64 {
            let issues = sched.get(&i).map(Vec::len).unwrap_or(0);
            prop_assert_eq!(issues, 1, "uop {} issued {} times under {:?}", i, issues, kind);
        }
    }

    /// Issue cycles respect dependences: a consumer never issues before
    /// its producer (+1 at minimum), and the idle-cycle prediction holds.
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
        let sched = drain_checked(&mut q, 200);
        for (p, c) in edges {
            prop_assert!(
                sched[&c][0] > sched[&p][0],
                "consumer {} at {} vs producer {} at {}",
                c, sched[&c][0], p, sched[&p][0]
            );
        }
    }

    /// Random interleavings of every queue operation — inserts, fused
    /// and pending MOP heads, tail fusion and pending cancels, load hits
    /// and misses, squashes, cycles and idle skips — under every
    /// scheduler, with slot accounting on or off, in lockstep with the
    /// reference queue (see `Interleaving`). Every uop that survives
    /// issues exactly once more than it was replayed, the queue drains,
    /// and the idle-cycle prediction holds before every skip. Debug
    /// builds also check the queue's bitsets and ready calendar at the
    /// start of every cycle.
    #[test]
    fn interleaved_operations_issue_every_survivor(
        kind in prop::sample::select(KINDS.to_vec()),
        accounting in any::<bool>(),
        ops in prop::collection::vec((0u8..10, 0u64..1 << 16, any::<bool>()), 20..160),
    ) {
        let mut d = Interleaving::new(kind, accounting, Some(32));
        for &(code, arg, flag) in &ops {
            d.apply(code, arg, flag);
        }
        d.drain();
        prop_assert_eq!(d.q.occupancy(), 0, "queue never drained under {:?}", kind);
        for id in 0..d.next_id {
            if d.squashed.contains(&id) {
                continue;
            }
            let issued = d.issues.get(&id).copied().unwrap_or(0);
            let replayed = d.replays.get(&id).copied().unwrap_or(0);
            prop_assert_eq!(
                issued,
                replayed + 1,
                "uop {} issued {} times, replayed {} under {:?}",
                id, issued, replayed, kind
            );
        }
    }
}

/// The event-driven queue and the scan-all reference queue agree on
/// seeded random operation sequences under every scheduler, with slot
/// accounting off and on, in a 32-entry queue and in a 96-entry one
/// whose bitsets span two words (see `Interleaving` for what is
/// compared). The larger queue starts with a burst of inserts, so its
/// entries reach the second word; the slots freed after that are reused
/// by younger uops, so age and slot order differ across words.
#[test]
fn every_kind_runs_in_lockstep_with_the_reference_queue() {
    for entries in [32, 96] {
        for kind in KINDS {
            for accounting in [false, true] {
                for seed in 1..=12u64 {
                    lockstep_run(kind, accounting, entries, seed);
                }
            }
        }
    }
}

/// One seeded run of `every_kind_runs_in_lockstep_with_the_reference_queue`:
/// in a queue above 64 entries 72 inserts, then 200 operations of every
/// kind.
fn lockstep_run(kind: SchedulerKind, accounting: bool, entries: usize, seed: u64) {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut d = Interleaving::new(kind, accounting, Some(entries));
    let fill = if entries > 64 { 72 } else { 0 };
    for i in 0..fill + 200 {
        let r = next();
        let code = if i < fill { r % 5 } else { r % 10 };
        d.apply(code as u8, (r >> 8) & 0xffff, r >> 63 == 1);
    }
    d.drain();
    assert_eq!(d.q.occupancy(), 0, "{kind:?}, seed {seed}: never drained");
    if entries > 64 {
        assert!(
            d.peak > 64,
            "{kind:?}, seed {seed}: peak occupancy {}",
            d.peak
        );
    }
}

/// Drives one queue through a decoded operation sequence, keeping the
/// bookkeeping a pipeline would: fresh tags, outstanding load outcomes
/// (dropped when a replay cancels the issue they belong to), pending
/// heads, and per-uop issue and replay counts.
///
/// The reference queue `r` takes every operation `q` takes. After each
/// one they must agree on the grants (uop ids and issue cycle, in order),
/// the replayed uop ids in order, the fuse outcomes, occupancy and free
/// entries, every statistic, every tag's wakeup time, the pending bits
/// and, with accounting on, the slot counts. Over the cycles an idle
/// skip jumps, the reference is stepped and must not grant, release,
/// broadcast or request.
struct Interleaving {
    kind: SchedulerKind,
    q: IssueQueue,
    r: RefQueue,
    /// Cycles run so far (the next cycle is `cycles`, counting skips).
    cycles: u64,
    next_id: u64,
    next_tag: u64,
    /// Destination tags a new uop may read (squashed ones leave).
    pool: Vec<(u64, u64)>,
    /// Pending heads awaiting a tail or a cancel: (entries, head id, tag).
    pending: Vec<((EntryId, RefId), u64, u64)>,
    /// Issued loads awaiting their outcome: (uop, tag, issue number).
    loads: Vec<(u64, u64, u64)>,
    issues: HashMap<u64, u64>,
    replays: HashMap<u64, u64>,
    /// Uops that need not issue: squashed ones and dropped tails.
    squashed: HashSet<u64>,
    out: Vec<mos_core::queue::Issued>,
    replayed: Vec<UopId>,
    /// Highest occupancy seen after an operation.
    peak: usize,
}

impl Interleaving {
    /// MOP chains of up to three members, so a grant can copy a spilled
    /// payload row and a fuse can fail.
    fn new(kind: SchedulerKind, accounting: bool, entries: Option<usize>) -> Interleaving {
        let mut config = cfg(kind);
        config.queue_entries = entries;
        config.mop.max_mop_size = 3;
        let mut q = IssueQueue::new(config.clone());
        q.set_slot_accounting(accounting);
        Interleaving {
            kind,
            q,
            r: RefQueue::new(config, accounting),
            cycles: 0,
            next_id: 0,
            next_tag: 100,
            pool: Vec::new(),
            pending: Vec::new(),
            loads: Vec::new(),
            issues: HashMap::new(),
            replays: HashMap::new(),
            squashed: HashSet::new(),
            out: Vec::new(),
            replayed: Vec::new(),
            peak: 0,
        }
    }

    /// Up to two source tags picked from the pool by `arg`'s bits.
    fn srcs(&self, arg: u64) -> Vec<u64> {
        if self.pool.is_empty() {
            return Vec::new();
        }
        let n = self.pool.len() as u64;
        (0..arg % 3)
            .map(|k| self.pool[((arg >> (4 + 5 * k)) % n) as usize].1)
            .collect()
    }

    fn fresh(&mut self) -> (u64, u64) {
        let ids = (self.next_id, self.next_tag);
        self.next_id += 1;
        self.next_tag += 1;
        ids
    }

    /// Insert `uop` into both queues, as a pending MOP head if `pending`.
    fn insert(&mut self, uop: SchedUop, pending: bool) -> (EntryId, RefId) {
        let e = if pending {
            self.q.insert_mop_head(uop)
        } else {
            self.q.insert(uop)
        };
        (e.unwrap(), self.r.insert(uop, pending).unwrap())
    }

    /// Fuse `tail` into both queues' entries; a tail neither can take
    /// (a chain at its size limit) is dropped.
    fn fuse(&mut self, (e, r): (EntryId, RefId), tail: SchedUop) -> bool {
        let got = self.q.fuse_tail(e, tail).map_err(|(err, _)| err);
        assert_eq!(got, self.r.fuse_tail(r, tail), "{:?}: fuse", self.kind);
        if got.is_err() {
            self.squashed.insert(tail.id.0);
        }
        got.is_ok()
    }

    fn apply(&mut self, code: u8, arg: u64, flag: bool) {
        match code {
            // A singleton: ALU, multiply or load.
            0..=2 => {
                if self.q.free_entries() == 0 {
                    return self.step(arg);
                }
                let class = [InstClass::IntAlu, InstClass::IntMul, InstClass::Load][code as usize];
                let srcs = self.srcs(arg);
                let (id, tag) = self.fresh();
                self.insert(op(id, class, Some(tag), &srcs), false);
                self.pool.push((id, tag));
            }
            // A MOP fused at once. A dependent tail reads the head's tag
            // and at most one more; an independent one (on `flag`) reads
            // up to two outside tags and not the head's, so the fuse can
            // add two live sources and merge four. No uop reads more than
            // two, like any instruction with two source registers.
            3 => {
                if self.q.free_entries() == 0 {
                    return self.step(arg);
                }
                let srcs = self.srcs(arg);
                let (head, tag) = self.fresh();
                let e = self.insert(alu(head, Some(tag), &srcs), true);
                let tail = self.next_id;
                self.next_id += 1;
                let tail_srcs = if flag {
                    self.srcs(arg >> 3)
                } else {
                    let mut v = vec![tag];
                    v.extend(self.srcs(arg >> 3).into_iter().take(1));
                    v
                };
                assert!(self.fuse(e, alu(tail, Some(tag), &tail_srcs)));
                self.pool.push((tail, tag));
            }
            // A pending head whose tail comes later (or never).
            4 => {
                if self.q.free_entries() == 0 {
                    return self.step(arg);
                }
                let srcs = self.srcs(arg);
                let (head, tag) = self.fresh();
                let e = self.insert(alu(head, Some(tag), &srcs), true);
                self.pending.push((e, head, tag));
                self.pool.push((head, tag));
            }
            // The oldest pending head gets its tail, or gives up on it.
            // A fused chain may expect one more member; a fourth does not
            // fit.
            5 => {
                if self.pending.is_empty() {
                    return;
                }
                let (e, head, tag) = self.pending.remove(0);
                if flag {
                    let tail = self.next_id;
                    self.next_id += 1;
                    if self.fuse(e, alu(tail, Some(tag), &[tag])) && arg % 2 == 1 {
                        self.q.mark_pending(e.0);
                        self.r.mark_pending(e.1);
                        self.pending.push((e, head, tag));
                    }
                } else {
                    self.q.cancel_pending(e.0);
                    self.r.cancel_pending(e.1);
                }
            }
            // The oldest outstanding load learns its outcome.
            6 => {
                if self.loads.is_empty() {
                    return;
                }
                let (_, tag, _) = self.loads.remove(0);
                let data_ready = self.cycles + 1 + arg % 30;
                self.resolve(tag, flag, data_ready);
            }
            // A branch squashes everything from a recent uop on.
            7 => {
                let first = self.next_id.saturating_sub(arg % 8);
                self.q.squash_from(UopId(first));
                self.r.squash_from(UopId(first));
                self.squashed.extend(first..self.next_id);
                self.pool.retain(|&(id, _)| id < first);
                self.loads.retain(|&(id, _, _)| id < first);
                // Surviving heads lose their pending bits, squashed ones
                // their entries.
                self.pending.clear();
            }
            // Jump over the cycles the queue predicts to be idle.
            8 => {
                if self.cycles == 0 {
                    return self.step(arg);
                }
                let now = self.cycles - 1;
                check_idle_prediction(&self.q, now);
                let next = self.q.next_active();
                if next > now + 1 {
                    let k = (next - now - 1).min(1 + arg % 64);
                    self.q.skip_idle(k);
                    for c in self.cycles..self.cycles + k {
                        let acted = self.r.cycle(c).acted;
                        assert!(!acted, "{:?}: skipped cycle {c} is not idle", self.kind);
                    }
                    self.cycles += k;
                }
            }
            _ => {
                for _ in 0..=arg % 4 {
                    self.step(arg >> 2);
                }
            }
        }
        self.agree();
        self.peak = self.peak.max(self.q.occupancy());
    }

    fn resolve(&mut self, tag: u64, hit: bool, data_ready: u64) {
        self.q
            .load_resolved_into(Tag(tag), hit, data_ready, &mut self.replayed);
        let want = self.r.load_resolved(Tag(tag), hit, data_ready);
        assert_eq!(self.replayed, want, "{:?}: replays of tag {tag}", self.kind);
        for r in &self.replayed {
            *self.replays.entry(r.0).or_default() += 1;
            // A replayed load's outstanding outcome belongs to the issue
            // the replay cancelled.
            self.loads.retain(|&(id, _, _)| id != r.0);
        }
    }

    /// Run one cycle in both queues, charging idle slots with nobody
    /// waiting to a cause picked by `arg`.
    fn step(&mut self, arg: u64) {
        let now = self.cycles;
        let cause = [
            SlotCause::Drained,
            SlotCause::Frontend,
            SlotCause::WrongPath,
        ][(arg % 3) as usize];
        self.q.set_idle_cause(cause);
        self.r.set_idle_cause(cause);
        self.q.cycle_into(now, &mut self.out);
        let want = self.r.cycle(now).grants;
        self.cycles += 1;
        let got: Vec<(Vec<UopId>, u64)> = self
            .out
            .iter()
            .map(|i| (i.uops.iter().map(|u| u.id).collect(), i.issue_cycle))
            .collect();
        assert_eq!(got, want, "{:?}: grants at cycle {now}", self.kind);
        for iss in &self.out {
            for u in iss.uops.iter() {
                let n = self.issues.entry(u.id.0).or_default();
                *n += 1;
                if let (true, Some(tag)) = (u.is_load, u.dst) {
                    self.loads.push((u.id.0, tag.0, *n));
                }
            }
        }
    }

    /// Everything the two queues show outside agrees.
    fn agree(&self) {
        let (q, r, kind) = (&self.q, &self.r, self.kind);
        let at = self.cycles;
        assert_eq!(q.occupancy(), r.occupancy(), "{kind:?}: occupancy at {at}");
        assert_eq!(q.free_entries(), r.free_entries(), "{kind:?}: free at {at}");
        assert_eq!(q.stats(), r.stats(), "{kind:?}: stats at {at}");
        assert_eq!(q.slot_counts(), r.slot_counts(), "{kind:?}: slots at {at}");
        for t in (100..self.next_tag).map(Tag) {
            let (got, want) = (q.tag_ready_time(t), r.tag_ready_time(t));
            assert_eq!(got, want, "{kind:?}: wakeup of {t:?} at {at}");
        }
        for &((e, re), _, _) in &self.pending {
            assert_eq!(
                q.is_pending(e),
                r.is_pending(re),
                "{kind:?}: pending at {at}"
            );
        }
    }

    /// Give up on every pending tail, then cycle until the queue empties,
    /// every load hitting as soon as it issues.
    fn drain(&mut self) {
        for ((e, r), _, _) in std::mem::take(&mut self.pending) {
            self.q.cancel_pending(e);
            self.r.cancel_pending(r);
        }
        for _ in 0..4_000 {
            while let Some((_, tag, _)) = (!self.loads.is_empty()).then(|| self.loads.remove(0)) {
                self.resolve(tag, true, self.cycles);
            }
            if self.q.occupancy() == 0 {
                break;
            }
            self.step(0);
            self.agree();
        }
        self.agree();
    }
}

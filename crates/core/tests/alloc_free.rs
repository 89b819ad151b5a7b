//! The per-instruction core path allocates nothing in steady state.
//!
//! A counting global allocator (this test binary's own) tallies heap
//! allocations per thread. After a warm-up that lets every reusable
//! buffer reach its working size, thousands of cycles of formation
//! ([`Former::feed_into`] / [`Former::end_group_into`]) and queue work
//! (insert, MOP head insert, tail fuse, cancel, `cycle_into`,
//! `load_resolved_into` with misses and replays) must make no allocation
//! at all, and MOP detection may allocate only for the pairs it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use mos_core::detect::{DetectInst, MopDetector};
use mos_core::form::{FormedItem, Former, RenamedInst};
use mos_core::pointer::MopPointer;
use mos_core::queue::{EntryId, IssueQueue, Issued};
use mos_core::{MopConfig, SchedConfig, SchedulerKind, Tag, UopId, WakeupStyle};
use mos_isa::{InstClass, Reg, StaticInst};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` so allocations during thread teardown are ignored.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const GROUP: usize = 4;

/// A 12-instruction loop body (three 4-wide groups) with MOP pointers:
/// a same-group pair (0→1), a pair spanning two groups (3→5), a pair
/// with a gap (4→6), and a pointer whose tail is a load (9→10), which
/// formation must cancel.
fn body() -> Vec<(StaticInst, Option<MopPointer>)> {
    let r = Reg::int;
    let ptr = |offset: u8, tail: u32| Some(MopPointer::new(offset, false, tail));
    vec![
        (StaticInst::addi(r(1), r(1), 1), ptr(1, 1)),
        (StaticInst::add(r(2), r(1), r(3)), None),
        (StaticInst::load(r(3), 0, r(2)), None),
        (StaticInst::add(r(4), r(3), r(4)), ptr(2, 5)),
        (StaticInst::addi(r(5), r(5), 1), ptr(2, 6)),
        (StaticInst::add(r(6), r(4), r(6)), None),
        (StaticInst::add(r(7), r(5), r(5)), None),
        (StaticInst::load(r(8), 0, r(7)), None),
        (StaticInst::add(r(3), r(8), r(2)), None),
        (StaticInst::addi(r(9), r(9), 1), ptr(1, 10)),
        (StaticInst::load(r(10), 0, r(9)), None),
        (StaticInst::add(r(11), r(10), r(6)), None),
    ]
}

fn renamed(id: u64, sidx: u32, inst: &StaticInst, pointer: Option<MopPointer>) -> RenamedInst {
    RenamedInst {
        id: UopId(id),
        sidx,
        class: inst.class(),
        dst: inst.dst(),
        srcs: inst.src_regs().collect(),
        taken: false,
        taken_indirect: false,
        pointer,
        is_candidate: inst.is_mop_candidate(),
        is_valuegen: inst.is_value_generating_candidate(),
        fetched_at: 0,
        wrong_path: false,
    }
}

/// Formation plus queue, driven one rename group per cycle the way the
/// simulator drives them, with every buffer owned by this harness.
struct Core {
    body: Vec<(StaticInst, Option<MopPointer>)>,
    former: Former,
    queue: IssueQueue,
    next_id: u64,
    next_sidx: usize,
    items: Vec<FormedItem>,
    heads: Vec<(u64, EntryId)>,
    issued: Vec<Issued>,
    replayed: Vec<UopId>,
    /// Load resolutions due: `(cycle, tag, hit, data ready)`.
    resolves: VecDeque<(u64, Tag, bool, u64)>,
    now: u64,
    fused: u64,
    replays: u64,
}

impl Core {
    fn new() -> Core {
        let config = SchedConfig {
            kind: SchedulerKind::MacroOp,
            wakeup: WakeupStyle::WiredOr,
            queue_entries: Some(32),
            ..SchedConfig::default()
        };
        Core {
            body: body(),
            former: Former::new(true, config.mop.max_mop_size),
            queue: IssueQueue::new(config),
            next_id: 0,
            next_sidx: 0,
            items: Vec::with_capacity(64),
            heads: Vec::with_capacity(64),
            issued: Vec::with_capacity(16),
            replayed: Vec::with_capacity(256),
            resolves: VecDeque::with_capacity(4096),
            now: 0,
            fused: 0,
            replays: 0,
        }
    }

    fn apply(&mut self) {
        for item in self.items.drain(..) {
            match item {
                FormedItem::Single(u) => {
                    self.queue.insert(u).expect("space checked");
                }
                FormedItem::HeadPending { head, pair_id } => {
                    let e = self.queue.insert_mop_head(head).expect("space checked");
                    self.heads.push((pair_id, e));
                }
                FormedItem::TailFuse {
                    tail,
                    pair_id,
                    chain_more,
                } => match self.heads.iter().position(|&(p, _)| p == pair_id) {
                    Some(i) if self.queue.fuse_tail(self.heads[i].1, tail.clone()).is_ok() => {
                        self.fused += 1;
                        if chain_more {
                            self.queue.mark_pending(self.heads[i].1);
                        } else {
                            self.heads.swap_remove(i);
                        }
                    }
                    _ => {
                        self.queue.insert(tail).expect("space checked");
                    }
                },
                FormedItem::Cancel { pair_id } => {
                    if let Some(i) = self.heads.iter().position(|&(p, _)| p == pair_id) {
                        self.queue.cancel_pending(self.heads.swap_remove(i).1);
                    }
                }
            }
        }
    }

    fn cycle(&mut self) {
        self.now += 1;
        let now = self.now;
        while self.resolves.front().is_some_and(|r| r.0 == now) {
            let (_, tag, hit, data_ready) = self.resolves.pop_front().expect("checked");
            self.queue
                .load_resolved_into(tag, hit, data_ready, &mut self.replayed);
            self.replays += self.replayed.len() as u64;
        }
        if self.queue.free_entries() >= GROUP {
            self.former.begin_group();
            for _ in 0..GROUP {
                let (inst, ptr) = self.body[self.next_sidx];
                let r = renamed(self.next_id, self.next_sidx as u32, &inst, ptr);
                self.former.feed_into(&r, &mut self.items);
                self.next_id += 1;
                self.next_sidx = (self.next_sidx + 1) % self.body.len();
            }
            self.former.end_group_into(&mut self.items);
            self.apply();
        }
        self.queue.cycle_into(now, &mut self.issued);
        for iss in &self.issued {
            for (k, u) in iss.uops.iter().enumerate() {
                if let (true, Some(tag)) = (u.is_load, u.dst) {
                    // Hit or miss is discovered six cycles after select,
                    // after dependents have issued in the load shadow;
                    // every seventh load misses for 20 cycles.
                    let issue = now + k as u64;
                    let hit = u.id.0 % 7 != 0;
                    let data_ready = issue + if hit { 3 } else { 23 };
                    self.resolves.push_back((issue + 6, tag, hit, data_ready));
                }
            }
        }
        if now.is_multiple_of(256) {
            self.queue.prune_tags(256);
        }
    }
}

#[test]
fn formation_and_queue_cycles_do_not_allocate() {
    let mut core = Core::new();
    for _ in 0..4_000 {
        core.cycle();
    }
    let (fused, replays, issued) = (core.fused, core.replays, core.queue.stats().issued_uops);
    let before = allocs();
    for _ in 0..6_000 {
        core.cycle();
    }
    let made = allocs() - before;
    // The drive really exercised fusion, replay and issue.
    assert!(core.fused > fused + 1_000, "fused {}", core.fused - fused);
    assert!(
        core.replays > replays + 100,
        "replayed {}",
        core.replays - replays
    );
    assert!(core.queue.stats().issued_uops > issued + 10_000);
    assert!(core.queue.stats().cancelled_pendings > 0);
    assert_eq!(made, 0, "{made} allocations in 6000 steady-state cycles");
}

#[test]
fn detection_allocates_only_for_the_pairs_it_returns() {
    let body = body();
    let mut det = MopDetector::new(MopConfig::default(), None, GROUP);
    // No pointers are ever installed, so detection keeps proposing pairs;
    // the head at sidx 0 is treated as already holding one.
    let has_pointer = |sidx: u32| sidx == 0;
    let groups: Vec<Vec<DetectInst>> = (0..3)
        .map(|g| {
            (0..GROUP)
                .map(|k| {
                    let sidx = g * GROUP + k;
                    DetectInst::from_static(sidx as u32, &body[sidx].0, false, 0x40)
                })
                .collect()
        })
        .collect();
    for g in 0..30 {
        det.step(&groups[g % 3], has_pointer, |_, _| false);
    }
    let (mut with_pairs, mut without) = (0, 0);
    for g in 0..3_000 {
        let before = allocs();
        let pairs = det.step(&groups[g % 3], has_pointer, |_, _| false);
        let made = allocs() - before;
        if pairs.is_empty() {
            without += 1;
            assert_eq!(made, 0, "step {g} found no pair but allocated {made} times");
        } else {
            with_pairs += 1;
            assert_eq!(made, 1, "step {g}: only the returned vector may allocate");
        }
    }
    assert!(with_pairs > 0 && without > 0, "{with_pairs} / {without}");
}

/// Sanity check of the counter itself: a `Vec` allocation is seen.
#[test]
fn the_counter_sees_allocations() {
    let before = allocs();
    let v = std::hint::black_box(vec![InstClass::IntAlu; 3]);
    assert_eq!(allocs() - before, 1);
    drop(v);
}

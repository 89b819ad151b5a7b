//! Release-build heap-allocation budget for the untraced simulator.
//!
//! The fetch-to-issue path reuses its buffers, so a run should make far
//! fewer than one allocation per committed instruction once warm. Debug
//! builds attach the scheduling oracle, whose trace events allocate, so
//! this test only exists in release builds:
//!
//! ```text
//! cargo test --release -p mos-sim --test alloc_budget
//! ```

#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mos_core::WakeupStyle;
use mos_sim::{MachineConfig, Simulator};
use mos_workload::spec2000;

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

const INSTS: u64 = 20_000;
const BUDGET_PER_INST: f64 = 0.5;

/// Allocations per committed instruction of one gzip run under `cfg`,
/// counting from the first cycle (setup excluded).
fn allocs_per_inst(cfg: MachineConfig) -> f64 {
    let trace = spec2000::by_name("gzip").expect("gzip model").trace(42);
    let mut sim = Simulator::new(cfg, trace);
    let before = ALLOCS.with(Cell::get);
    let stats = sim.run(INSTS);
    let made = ALLOCS.with(Cell::get) - before;
    assert!(stats.committed >= INSTS);
    made as f64 / stats.committed as f64
}

#[test]
fn untraced_runs_stay_under_the_allocation_budget() {
    let configs = [
        ("base, 32 entries", MachineConfig::base_32()),
        ("base, unrestricted", MachineConfig::base_unrestricted()),
        (
            "mop-wor, 32 entries",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        ),
        (
            "mop-wor, unrestricted",
            MachineConfig::macro_op(WakeupStyle::WiredOr, None, 1),
        ),
    ];
    for (name, cfg) in configs {
        let per_inst = allocs_per_inst(cfg);
        println!("{name}: {per_inst:.3} allocations per committed instruction");
        assert!(
            per_inst < BUDGET_PER_INST,
            "{name}: {per_inst:.3} allocations per committed instruction (budget {BUDGET_PER_INST})"
        );
    }
}

//! Release-build check that precise cycle detection never deadlocks the
//! pipeline: every SPEC model runs 30k commits under
//! [`CycleDetection::Precise`] at two walk seeds, on the 32-entry and the
//! unrestricted queue, with wired-OR and two-source CAM wakeup. Precise
//! mode treats an accepted pair as one node when it judges the next; a
//! check of register reach alone let crafty close a cycle through an
//! earlier pair and stall.
//!
//! The debug suite runs one such job (crafty, in `sim.rs`); the full
//! matrix is too slow there and only exists in release builds:
//!
//! ```text
//! cargo test --release -p mos-sim --test precise_detection
//! ```

#![cfg(not(debug_assertions))]

use mos_core::{CycleDetection, WakeupStyle};
use mos_sim::{MachineConfig, Simulator};
use mos_workload::spec2000;

const COMMITS: u64 = 30_000;

#[test]
fn every_spec_model_finishes_under_precise_detection() {
    for spec in spec2000::all() {
        let program = spec.build(42);
        for seed in [42, 7] {
            for queue in [Some(32), None] {
                for wakeup in [WakeupStyle::WiredOr, WakeupStyle::CamTwoSource] {
                    let mut cfg = MachineConfig::macro_op(wakeup, queue, 1);
                    cfg.sched.mop.cycle_detection = CycleDetection::Precise;
                    let stats = Simulator::new(cfg, program.walk(seed)).run(COMMITS);
                    assert!(
                        stats.committed >= COMMITS,
                        "{} seed {seed} queue {queue:?} {wakeup:?}: {} commits",
                        spec.name,
                        stats.committed
                    );
                }
            }
        }
    }
}

//! Property-based tests of the macro-op configurations beyond the seven
//! scheduler presets ([`off_preset_configs`]): randomly generated, always
//! terminating RV32 programs ([`mos_testutil::rv_random`]) must pass the
//! full differential check against the functional oracle (identical
//! committed uop traces and final architectural state) — no deadlock, no
//! lost, duplicated or reordered commit, however macro-ops were fused,
//! replayed or squashed along the way. `tests/rv_random_programs.rs` runs
//! every one of these configurations after the presets; each test here is
//! seeded by its own name, so it draws programs of its own. Reduced
//! random programs that catch known faults run as fixed cases.

use proptest::prelude::*;

use mopsched::rv::{self, RvProgram};
use mos_testutil::rv_random::{off_preset_configs, program_strategy};

/// Runs the differential check under the off-preset configurations
/// with the given labels.
fn assert_differential(prog: &RvProgram, labels: &[&str]) {
    let configs: Vec<_> = off_preset_configs()
        .into_iter()
        .filter(|(label, _)| labels.contains(label))
        .collect();
    assert_eq!(
        configs.len(),
        labels.len(),
        "unknown configuration in {labels:?}"
    );
    for (label, cfg) in configs {
        rv::run_differential(prog, label, cfg, 2_000_000)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// A 16-entry wired-OR macro-op queue that installs pointers with no
    /// detection delay commits exactly the functional stream.
    #[test]
    fn schedulers_commit_the_functional_stream(prog in program_strategy()) {
        assert_differential(&prog, &["mop-wor-16"]);
    }

    /// Macro-op chains (future-work sizes) are deadlock-free too: the
    /// chain-safety rule in formation must hold for arbitrary dataflow.
    #[test]
    fn mop_chains_never_deadlock(prog in program_strategy()) {
        assert_differential(&prog, &["mop-wor chain 3", "mop-wor chain 4"]);
    }

    /// The cycle-detection ablation arm (precise in-window detection) is
    /// also deadlock-free and commit-exact.
    #[test]
    fn precise_cycle_detection_is_safe(prog in program_strategy()) {
        assert_differential(&prog, &["mop-wor precise"]);
    }
}

/// Random programs reduced to the instructions that still deadlock a
/// faulty scheduler: the first with formation's chain-safety rule off
/// (chains of three), the second with precise cycle detection removed or
/// inverted. The random cases catch such faults only when their seeds
/// happen to; these always run.
#[test]
fn reduced_programs_pass_the_differential_check() {
    for src in [
        "    addi t4, zero, 8
         loop:
             lui  a1, 0xc1
             slt  t2, a1, a1
             rem  a0, a1, t0
             slt  s1, a0, t2
             addi t4, t4, -1
             bnez t4, loop
             ebreak",
        "    addi t4, zero, 12
         loop:
             sltu  a1, a2, t1
             mulhu s0, s1, a1
             slt   s0, s0, a1
             addi  t4, t4, -1
             bnez  t4, loop
             ebreak",
    ] {
        let prog = rv::assemble("reduced", src).expect("program assembles");
        for (label, cfg) in off_preset_configs() {
            rv::run_differential(&prog, label, cfg, 2_000_000)
                .unwrap_or_else(|e| panic!("{label}: {e}\n{src}"));
        }
    }
}

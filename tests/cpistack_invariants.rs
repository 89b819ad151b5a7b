//! Top-down cycle-accounting invariants, end to end:
//!
//! * **Conservation** — on randomly generated programs, under every
//!   scheduler configuration, the per-cause slot counts must sum exactly
//!   to `cycles × issue_width`. Nothing is double-charged, nothing is
//!   dropped.
//! * **Golden differential** — the paper's headline story in one test:
//!   the `base` scheduler has no scheduling-loop penalty, pipelining the
//!   loop (`2cycle`) creates one, and macro-op scheduling recovers part
//!   of it.
//! * **Schema** — the hand-rolled cpistack JSON (single and differential)
//!   parses and carries the promised structure.

use proptest::prelude::*;

use mopsched::core::{SlotCause, WakeupStyle};
use mopsched::rv::{self, suite, RvTraceSource};
use mopsched::sim::cpistack::{self, CpiStack};
use mopsched::sim::{MachineConfig, Simulator};
use mos_testutil::json;
use mos_testutil::rv_random::program_strategy;

/// The RV32 suite's `sum_loop`: a 1-cycle dependence chain.
fn sum_loop() -> RvTraceSource {
    let prog = suite::by_name("sum_loop")
        .expect("suite program")
        .assemble();
    RvTraceSource::new(&prog).expect("sum_loop lowers")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// Slot conservation holds on arbitrary programs under every
    /// scheduler: every issue slot of every cycle is charged to exactly
    /// one cause. The differential run accounts its slots, so its
    /// statistics carry the counts.
    #[test]
    fn slot_accounting_conserves_under_every_scheduler(prog in program_strategy()) {
        for sched in rv::SCHED_KINDS {
            let cfg = rv::config_for(sched).expect("known scheduler");
            let width = cfg.sched.issue_width as u64;
            let report = rv::run_differential(&prog, sched, cfg, 2_000_000)
                .unwrap_or_else(|e| panic!("{sched}: {e}"));
            let st = CpiStack::from_stats(&prog.name, sched, width, &report.stats);
            st.check_conservation()
                .unwrap_or_else(|e| panic!("{sched}: {e}"));
            prop_assert_eq!(st.slots.total(), st.cycles * st.issue_width);
            let share_sum: f64 = SlotCause::ALL.iter().map(|&c| st.share(c)).sum();
            prop_assert!((share_sum - 1.0).abs() < 1e-9, "{}: shares sum to {}", sched, share_sum);
        }
    }
}

/// Golden differential on RV `sum_loop` — a 1-cycle dependence chain, the
/// worst case for a pipelined scheduling loop. The loop-penalty ordering
/// the paper predicts must hold: base has none, 2cycle pays, macro-op
/// scheduling recovers part of the loss.
#[test]
fn sum_loop_differential_pins_the_loop_penalty_sign() {
    let run = |name: &str, cfg: MachineConfig| {
        let width = cfg.sched.issue_width as u64;
        let mut sim = Simulator::new(cfg, sum_loop());
        sim.enable_slot_accounting();
        let stats = sim.run(u64::MAX);
        CpiStack::from_stats("sum_loop", name, width, &stats)
    };
    let base = run("base", MachineConfig::base_32());
    let two = run("2cycle", MachineConfig::two_cycle_32());
    let mop = run(
        "mop-wor",
        MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
    );
    for st in [&base, &two, &mop] {
        st.check_conservation().expect("conservation");
    }

    let loop_share = |st: &CpiStack| st.share(SlotCause::SchedLoop);
    assert_eq!(
        base.slots.get(SlotCause::SchedLoop),
        0,
        "base never stalls on the scheduling loop"
    );
    assert!(
        loop_share(&two) > 0.0,
        "pipelining the loop must create a loop penalty (got {})",
        loop_share(&two)
    );
    assert!(
        loop_share(&mop) < loop_share(&two),
        "macro-op scheduling must recover part of the loop penalty \
         (mop {} vs 2cycle {})",
        loop_share(&mop),
        loop_share(&two)
    );
    // And the penalty shows up in end-to-end time, not just attribution.
    assert!(
        two.cycles > base.cycles,
        "the 2-cycle loop must cost cycles on a 1-cycle chain"
    );
}

/// The single-stack JSON document parses and carries the full schema.
#[test]
fn cpistack_json_schema_roundtrips() {
    let mut sim = Simulator::new(MachineConfig::two_cycle_32(), sum_loop());
    sim.enable_slot_accounting();
    let stats = sim.run(u64::MAX);
    let st = CpiStack::from_stats("sum_loop", "2cycle", 4, &stats);

    let v = json::parse(&st.to_json()).expect("cpistack json parses");
    assert_eq!(
        v.get("bench").and_then(json::Value::as_str),
        Some("sum_loop")
    );
    assert_eq!(v.get("sched").and_then(json::Value::as_str), Some("2cycle"));
    assert_eq!(
        v.get("cycles").and_then(json::Value::as_u64),
        Some(stats.cycles)
    );
    assert_eq!(
        v.get("committed").and_then(json::Value::as_u64),
        Some(stats.committed)
    );
    assert_eq!(v.get("issue_width").and_then(json::Value::as_u64), Some(4));
    assert_eq!(v.get("conservation_ok"), Some(&json::Value::Bool(true)));
    assert!(v.get("ipc").and_then(json::Value::as_num).is_some());
    assert!(v.get("cpi").and_then(json::Value::as_num).is_some());

    let causes = v
        .get("causes")
        .and_then(json::Value::as_arr)
        .expect("causes array");
    assert_eq!(causes.len(), SlotCause::ALL.len());
    let mut slot_sum = 0;
    for (c, &cause) in causes.iter().zip(SlotCause::ALL.iter()) {
        assert_eq!(
            c.get("cause").and_then(json::Value::as_str),
            Some(cause.name())
        );
        slot_sum += c.get("slots").and_then(json::Value::as_u64).expect("slots");
        assert!(c.get("share").and_then(json::Value::as_num).is_some());
        assert!(c.get("cpi").and_then(json::Value::as_num).is_some());
    }
    assert_eq!(slot_sum, stats.cycles * 4, "parsed slots conserve");
}

/// The differential JSON document parses: every stack appears, and each
/// non-baseline stack has a per-cause delta block against the baseline.
#[test]
fn differential_json_schema_roundtrips() {
    let run = |name: &str, cfg: MachineConfig| {
        let mut sim = Simulator::new(cfg, sum_loop());
        sim.enable_slot_accounting();
        let stats = sim.run(u64::MAX);
        CpiStack::from_stats("sum_loop", name, 4, &stats)
    };
    let stacks = [
        run("base", MachineConfig::base_32()),
        run("2cycle", MachineConfig::two_cycle_32()),
        run(
            "mop-wor",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        ),
    ];
    let v = json::parse(&cpistack::compare_json(&stacks)).expect("differential json parses");
    let parsed = v
        .get("stacks")
        .and_then(json::Value::as_arr)
        .expect("stacks");
    assert_eq!(parsed.len(), 3);
    let deltas = v
        .get("deltas")
        .and_then(json::Value::as_arr)
        .expect("deltas");
    assert_eq!(deltas.len(), 2);
    for (d, expect_sched) in deltas.iter().zip(["2cycle", "mop-wor"]) {
        assert_eq!(
            d.get("sched").and_then(json::Value::as_str),
            Some(expect_sched)
        );
        assert_eq!(d.get("vs").and_then(json::Value::as_str), Some("base"));
        let causes = d
            .get("causes")
            .and_then(json::Value::as_arr)
            .expect("causes");
        assert_eq!(causes.len(), SlotCause::ALL.len());
    }
    // The parsed deltas tell the paper's story too: 2cycle's sched_loop
    // delta vs base is positive, and mop-wor's is smaller.
    let loop_delta = |d: &json::Value| {
        d.get("causes")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .find(|c| c.get("cause").and_then(json::Value::as_str) == Some("sched_loop"))
            .and_then(|c| c.get("delta_share"))
            .and_then(json::Value::as_num)
            .expect("sched_loop delta")
    };
    let two_delta = loop_delta(&deltas[0]);
    let mop_delta = loop_delta(&deltas[1]);
    assert!(two_delta > 0.0, "2cycle loop-penalty delta: {two_delta}");
    assert!(
        mop_delta < two_delta,
        "mop {mop_delta} vs 2cycle {two_delta}"
    );
}

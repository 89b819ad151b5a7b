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

use mopsched::asm::Interpreter;
use mopsched::core::{SlotCause, WakeupStyle};
use mopsched::isa::{Opcode, Program, Reg, StaticInst};
use mopsched::rv::{suite, RvTraceSource};
use mopsched::sim::cpistack::{self, CpiStack};
use mopsched::sim::{MachineConfig, Simulator};
use mos_testutil::json;

/// Every scheduler configuration of Section 6.2, by CLI spelling.
fn all_schedulers() -> [(&'static str, MachineConfig); 7] {
    [
        ("base", MachineConfig::base_32()),
        ("2cycle", MachineConfig::two_cycle_32()),
        (
            "mop-2src",
            MachineConfig::macro_op(WakeupStyle::CamTwoSource, Some(32), 1),
        ),
        (
            "mop-wor",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        ),
        ("sf-squash", MachineConfig::select_free_squash_dep_32()),
        ("sf-scoreboard", MachineConfig::select_free_scoreboard_32()),
        ("spec-wakeup", MachineConfig::speculative_wakeup_32()),
    ]
}

/// Run `program` under `cfg` with slot accounting on and return the stack.
fn accounted_stack(name: &str, cfg: MachineConfig, program: &Program) -> CpiStack {
    let width = cfg.sched.issue_width as u64;
    let mut sim = Simulator::new(cfg, Interpreter::new(program));
    sim.enable_slot_accounting();
    let stats = sim.run(u64::MAX);
    CpiStack::from_stats("random", name, width, &stats)
}

/// One random instruction inside a loop body (a trimmed version of the
/// `random_programs` generator: enough variety to exercise loads, mul
/// latencies, forward branches and dependence chains).
#[derive(Debug, Clone)]
enum BodyOp {
    Alu { op: u8, dst: u8, a: u8, b: u8 },
    Load { dst: u8, off: i64 },
    Store { val: u8, off: i64 },
    Mul { dst: u8, a: u8, b: u8 },
    Skip { cond: u8, dist: u8 },
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    let r = 1u8..9;
    prop_oneof![
        (0u8..5, r.clone(), r.clone(), r.clone()).prop_map(|(op, dst, a, b)| BodyOp::Alu {
            op,
            dst,
            a,
            b
        }),
        (r.clone(), 0i64..16).prop_map(|(dst, off)| BodyOp::Load { dst, off: off * 8 }),
        (r.clone(), 0i64..16).prop_map(|(val, off)| BodyOp::Store { val, off: off * 8 }),
        (r.clone(), r.clone(), r.clone()).prop_map(|(dst, a, b)| BodyOp::Mul { dst, a, b }),
        (r, 1u8..4).prop_map(|(cond, dist)| BodyOp::Skip { cond, dist }),
    ]
}

/// A random, always-terminating program: a counted loop around a random
/// body (skip branches only jump forward inside the body).
fn program_strategy() -> impl Strategy<Value = Program> {
    (2u32..16, prop::collection::vec(body_op(), 1..20)).prop_map(|(trips, body)| {
        let mut p = Program::new("random");
        let alu3 = [
            Opcode::Add,
            Opcode::Sub,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
        ];
        p.push(StaticInst::li(Reg::int(9), i64::from(trips))); // counter
        p.push(StaticInst::li(Reg::int(20), 0x8000)); // memory base
        for k in 1..9u8 {
            p.push(StaticInst::li(Reg::int(k), i64::from(k)));
        }
        let top = p.len() as u32;
        let body_len = body.len() as u32;
        for (i, op) in body.iter().enumerate() {
            match *op {
                BodyOp::Alu { op, dst, a, b } => {
                    p.push(StaticInst::alu(
                        alu3[op as usize % alu3.len()],
                        Reg::int(dst),
                        Reg::int(a),
                        Reg::int(b),
                    ));
                }
                BodyOp::Load { dst, off } => {
                    p.push(StaticInst::load(Reg::int(dst), off, Reg::int(20)));
                }
                BodyOp::Store { val, off } => {
                    p.push(StaticInst::store(Reg::int(val), off, Reg::int(20)));
                }
                BodyOp::Mul { dst, a, b } => {
                    p.push(StaticInst::alu(
                        Opcode::Mul,
                        Reg::int(dst),
                        Reg::int(a),
                        Reg::int(b),
                    ));
                }
                BodyOp::Skip { cond, dist } => {
                    let here = top + i as u32;
                    let target = (here + 1 + u32::from(dist)).min(top + body_len);
                    p.push(StaticInst::branch(Opcode::Bnez, Reg::int(cond), target));
                }
            }
        }
        p.push(StaticInst::addi(Reg::int(9), Reg::int(9), -1));
        p.push(StaticInst::branch(Opcode::Bnez, Reg::int(9), top));
        p.push(StaticInst::halt());
        p.validate()
            .expect("generated program is structurally valid");
        p
    })
}

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
    /// one cause.
    #[test]
    fn slot_accounting_conserves_under_every_scheduler(program in program_strategy()) {
        for (name, cfg) in all_schedulers() {
            let st = accounted_stack(name, cfg, &program);
            st.check_conservation()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            prop_assert_eq!(st.slots.total(), st.cycles * st.issue_width);
            let share_sum: f64 = SlotCause::ALL.iter().map(|&c| st.share(c)).sum();
            prop_assert!((share_sum - 1.0).abs() < 1e-9, "{}: shares sum to {}", name, share_sum);
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

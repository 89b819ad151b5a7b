//! Property-based tests of the static-program container and instruction
//! encodings.

use proptest::prelude::*;

use mos_isa::{Opcode, Program, Reg, StaticInst};

fn arb_alu() -> impl Strategy<Value = StaticInst> {
    (
        0u8..31,
        0u8..32,
        0u8..32,
        prop::sample::select(vec![
            Opcode::Add,
            Opcode::Sub,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
        ]),
    )
        .prop_map(|(d, a, b, op)| {
            StaticInst::alu(op, Reg::int(d), Reg::int(a % 32), Reg::int(b % 32))
        })
}

proptest! {
    /// pc_of / index_of_pc round-trip for arbitrary program sizes.
    #[test]
    fn pc_round_trip(n in 1usize..500) {
        let mut p = Program::new("t");
        for _ in 0..n {
            p.push(StaticInst::nop());
        }
        for idx in 0..n as u32 {
            prop_assert_eq!(p.index_of_pc(p.pc_of(idx)), Some(idx));
        }
        prop_assert_eq!(p.index_of_pc(p.pc_of(n as u32 - 1) + 4), None);
    }

    /// Any mix of well-formed instructions with in-range targets
    /// validates; pushing one out-of-range jump breaks validation.
    #[test]
    fn validation_tracks_targets(insts in prop::collection::vec(arb_alu(), 1..64)) {
        let mut p = Program::new("t");
        for i in &insts {
            p.push(*i);
        }
        let last = p.push(StaticInst::jmp(0));
        prop_assert!(p.validate().is_ok());
        *p.inst_mut(last).expect("exists") = StaticInst::jmp(10_000);
        prop_assert!(p.validate().is_err());
    }

    /// Source iteration never yields the zero register and never exceeds
    /// two registers.
    #[test]
    fn src_regs_invariants(inst in arb_alu()) {
        let srcs: Vec<Reg> = inst.src_regs().collect();
        prop_assert!(srcs.len() <= 2);
        prop_assert!(srcs.iter().all(|r| !r.is_zero()));
    }

    /// Display output is non-empty and starts with the mnemonic for every
    /// constructor shape.
    #[test]
    fn display_starts_with_mnemonic(d in 0u8..31, s in 0u8..31, imm in -64i64..64) {
        let shapes = vec![
            StaticInst::addi(Reg::int(d), Reg::int(s), imm),
            StaticInst::li(Reg::int(d), imm),
            StaticInst::load(Reg::int(d), imm & !7, Reg::int(s)),
            StaticInst::store(Reg::int(d), imm & !7, Reg::int(s)),
            StaticInst::branch(Opcode::Bnez, Reg::int(s), 0),
            StaticInst::call(0),
            StaticInst::ret(),
        ];
        for inst in shapes {
            let text = inst.to_string();
            prop_assert!(text.starts_with(inst.opcode().mnemonic()), "{text}");
        }
    }

    /// Labels attach to indices and survive lookups among many labels.
    #[test]
    fn labels_resolve(names in prop::collection::hash_set("[a-z]{1,8}", 1..20)) {
        let mut p = Program::new("t");
        let names: Vec<String> = names.into_iter().collect();
        for (i, name) in names.iter().enumerate() {
            let idx = p.push(StaticInst::nop());
            prop_assert_eq!(idx as usize, i);
            p.set_label(name.clone(), idx);
        }
        p.push(StaticInst::halt());
        for (i, name) in names.iter().enumerate() {
            prop_assert_eq!(p.label(name), Some(i as u32));
        }
    }
}

#[test]
fn every_opcode_has_a_distinct_mnemonic() {
    let mut seen = std::collections::HashSet::new();
    for op in Opcode::all() {
        assert!(
            seen.insert(op.mnemonic()),
            "duplicate mnemonic {}",
            op.mnemonic()
        );
    }
}

#[test]
fn classes_cover_all_opcodes_without_panic() {
    for op in Opcode::all() {
        let c = op.class();
        // Exercise the class APIs for the whole opcode surface.
        let _ = c.exec_latency();
        let _ = c.fu();
        let _ = c.is_single_cycle();
        let _ = format!("{c}");
    }
}

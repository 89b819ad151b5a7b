//! Exhaustive semantics tests: one assertion per opcode family, covering
//! sign handling, wrapping, shift masking and conversion truncation. The
//! interpreter is the golden reference for the whole workspace, so its
//! semantics deserve line-item coverage.

use mos_asm::Interpreter;
use mos_isa::Opcode::{self, *};
use mos_isa::{Program, Reg, StaticInst as I};

fn r(n: u8) -> Reg {
    Reg::int(n)
}

fn f(n: u8) -> Reg {
    Reg::fp(n)
}

/// Run `insts` followed by a `halt` and check that `r<reg>` ends as `expect`.
fn run_expect(insts: &[I], reg: u8, expect: i64) {
    let program = Program::from_insts("t", insts.iter().copied().chain([I::halt()]));
    let (_, state) = Interpreter::new(&program).run_collect(100_000);
    assert_eq!(
        state.int_reg(r(reg)),
        expect,
        "r{reg} mismatch for:\n{program}"
    );
}

/// `op r3, r1, r2` with `r1 = a`, `r2 = b`.
fn binop(op: Opcode, a: i64, b: i64, expect: i64) {
    run_expect(
        &[I::li(r(1), a), I::li(r(2), b), I::alu(op, r(3), r(1), r(2))],
        3,
        expect,
    );
}

/// `op r2, r1, imm` with `r1 = a`.
fn immop(op: Opcode, a: i64, imm: i64, expect: i64) {
    run_expect(&[I::li(r(1), a), I::alui(op, r(2), r(1), imm)], 2, expect);
}

#[test]
fn add_sub_wrap() {
    binop(Add, 20, 22, 42);
    binop(Sub, 5, 9, -4);
    // Wrapping at i64 boundaries must not panic.
    binop(Add, i64::MAX, 1, i64::MIN);
}

#[test]
fn addi_subi() {
    immop(Addi, 10, -3, 7);
    immop(Subi, 10, 3, 7);
}

#[test]
fn bitwise_ops() {
    binop(And, 0b1100, 0b1010, 0b1000);
    binop(Or, 0b1100, 0b1010, 0b1110);
    binop(Xor, 0b1100, 0b1010, 0b0110);
    run_expect(&[I::li(r(1), 0), I::not(r(2), r(1))], 2, -1);
    immop(Andi, 0xff, 0x0f, 0x0f);
    immop(Ori, 0xf0, 0x0f, 0xff);
    immop(Xori, 0xff, 0x0f, 0xf0);
}

#[test]
fn shifts_mask_their_amount() {
    immop(Slli, 1, 4, 16);
    immop(Srli, 16, 4, 1);
    binop(Sll, 1, 68, 16);
    // srl is a logical shift: sign bit does not smear.
    binop(Srl, -8, 1, ((-8i64) as u64 >> 1) as i64);
    // sra is arithmetic: sign preserved.
    binop(Sra, -8, 1, -4);
}

#[test]
fn comparisons_signed_and_unsigned() {
    binop(Slt, -1, 1, 1);
    // Unsigned: -1 is the largest value.
    binop(Sltu, -1, 1, 0);
    immop(Slti, 5, 6, 1);
    binop(Cmpeq, 7, 7, 1);
    binop(Cmpeq, 7, 8, 0);
}

#[test]
fn mul_div_semantics() {
    binop(Mul, -6, 7, -42);
    binop(Div, 42, -7, -6);
    binop(Div, 7, 2, 3);
    binop(Div, 1, 0, 0);
    // i64::MIN / -1 would overflow; wrapping_div keeps it defined.
    binop(Div, i64::MIN, -1, i64::MIN);
}

#[test]
fn mov_li() {
    run_expect(&[I::li(r(1), 99), I::mov(r(2), r(1))], 2, 99);
    run_expect(&[I::li(r(1), -0x10)], 1, -16);
}

#[test]
fn branch_directions() {
    // r3 ends 1 when `op r1` is taken over the `li r3, 2`, else 2.
    for (op, v, taken) in [
        (Beqz, 0, true),
        (Beqz, 5, false),
        (Bnez, 5, true),
        (Bltz, -1, true),
        (Bltz, 0, false),
        (Bgez, 0, true),
        (Bgez, -1, false),
    ] {
        let insts = [
            I::li(r(1), v),
            I::li(r(3), 1),
            I::branch(op, r(1), 4),
            I::li(r(3), 2),
        ];
        run_expect(&insts, 3, if taken { 1 } else { 2 });
    }
}

#[test]
fn jumps_and_indirect() {
    run_expect(&[I::jmp(2), I::li(r(1), 1), I::li(r(2), 2)], 2, 2);
    // jr through a register holding a static index.
    let insts = [
        I::li(r(1), 4),
        I::jr(r(1)),
        I::li(r(2), 1),
        I::halt(),
        I::li(r(2), 9),
        I::jmp(6),
    ];
    run_expect(&insts, 2, 9);
}

#[test]
fn memory_word_addressing() {
    // Sub-word addresses alias the containing 8-byte word.
    let st = [I::li(r(1), 0x100), I::li(r(2), 7), I::store(r(2), 0, r(1))];
    run_expect(&[&st[..], &[I::load(r(3), 4, r(1))]].concat(), 3, 7);
    // Different words do not alias.
    run_expect(&[&st[..], &[I::load(r(3), 8, r(1))]].concat(), 3, 0);
    // Negative displacement.
    let insts = [
        I::li(r(1), 0x108),
        I::li(r(2), 5),
        I::store(r(2), -8, r(1)),
        I::li(r(4), 0x100),
        I::load(r(3), 0, r(4)),
    ];
    run_expect(&insts, 3, 5);
}

#[test]
fn fp_family() {
    // f3 = op(9.0, 2.0), truncated back into r3.
    for (op, expect) in [(Fadd, 11), (Fsub, 7), (Fmul, 18), (Fdiv, 4)] {
        let insts = [
            I::li(r(1), 9),
            I::li(r(2), 2),
            I::alui(Itof, f(1), r(1), 0),
            I::alui(Itof, f(2), r(2), 0),
            I::alu(op, f(3), f(1), f(2)),
            I::alui(Ftoi, r(3), f(3), 0), // 4.5 truncates toward zero
        ];
        run_expect(&insts, 3, expect);
    }
    let insts = [
        I::li(r(1), 3),
        I::alui(Itof, f(1), r(1), 0),
        I::alui(Fneg, f(2), f(1), 0),
        I::alui(Ftoi, r(3), f(2), 0),
    ];
    run_expect(&insts, 3, -3);
}

#[test]
fn call_ret_nesting() {
    let insts = [
        I::li(r(5), 0), // main
        I::call(6),
        I::mov(r(6), r(5)),
        I::halt(),
        I::addi(r(5), r(5), 100), // 4: inner
        I::ret(),
        I::mov(r(7), Reg::RA), // 6: outer; calls clobber ra, so save it
        I::addi(r(5), r(5), 10),
        I::call(4),
        I::addi(r(5), r(5), 1),
        I::mov(Reg::RA, r(7)),
        I::ret(),
    ];
    run_expect(&insts, 6, 111);
}

#[test]
fn zero_register_semantics_everywhere() {
    let z = Reg::ZERO;
    run_expect(&[I::li(z, 42), I::add(r(1), z, z)], 1, 0);
    run_expect(&[I::li(r(1), 5), I::add(r(2), r(1), z)], 2, 5);
    // Store using zero as data writes 0.
    let insts = [
        I::li(r(1), 0x200),
        I::li(r(3), 9),
        I::store(r(3), 0, r(1)),
        I::store(z, 0, r(1)),
        I::load(r(2), 0, r(1)),
    ];
    run_expect(&insts, 2, 0);
}

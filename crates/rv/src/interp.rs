//! RV32 architectural interpreter: the functional oracle.
//!
//! Executes full RV32I+M semantics — 32 × 32-bit registers and a paged
//! byte-addressed memory (4 KiB pages in a vector sorted by page number,
//! each with a bitmap of the bytes ever written) — and reports, for every
//! retired instruction, where control went and which effective address it
//! touched. The differential harness compares the timing pipeline's
//! committed state against this interpreter's; the trace adapter in
//! [`crate::trace`] turns its steps into the committed-path uop stream the
//! simulator consumes.

use std::borrow::Cow;
use std::fmt;

use crate::inst::{RvInst, RvOp, RvProgram};

/// Initial stack pointer (`x2`) — far above any program data so stacks and
/// heaps don't collide in the tests' address space.
pub const STACK_TOP: u32 = 0x7fff_0000;

/// log2 of the page size.
const PAGE_SHIFT: u32 = 12;
/// Bytes per memory page.
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// A page's contents: its bytes, and bit `k % 64` of `written[k / 64]`
/// set once byte `k` has been stored to (a stored zero included).
#[derive(Clone, PartialEq, Eq)]
struct PageData {
    bytes: [u8; PAGE_BYTES],
    written: [u64; PAGE_BYTES / 64],
}

/// One page of memory, created by the first store into it.
#[derive(Clone, PartialEq, Eq)]
struct Page {
    /// `addr >> PAGE_SHIFT` of every byte on the page.
    num: u32,
    data: Box<PageData>,
}

/// Sparse byte memory: the pages written so far, sorted by page number.
/// Unwritten bytes read as zero and are not part of the image; since a
/// page exists only once written and its unwritten bytes stay zero, two
/// memories are equal exactly when their written images are.
#[derive(Clone, Default, PartialEq, Eq)]
struct Memory {
    pages: Vec<Page>,
}

/// Byte offset of `addr` within its page.
fn page_offset(addr: u32) -> usize {
    addr as usize & (PAGE_BYTES - 1)
}

impl Memory {
    fn page(&self, addr: u32) -> Option<&PageData> {
        let num = addr >> PAGE_SHIFT;
        let i = self.pages.binary_search_by_key(&num, |p| p.num).ok()?;
        Some(&self.pages[i].data)
    }

    fn page_mut(&mut self, addr: u32) -> &mut PageData {
        let num = addr >> PAGE_SHIFT;
        let i = match self.pages.binary_search_by_key(&num, |p| p.num) {
            Ok(i) => i,
            Err(i) => {
                let data = Box::new(PageData {
                    bytes: [0; PAGE_BYTES],
                    written: [0; PAGE_BYTES / 64],
                });
                self.pages.insert(i, Page { num, data });
                i
            }
        };
        &mut self.pages[i].data
    }

    /// The `N` little-endian bytes at `addr`. An aligned access stays
    /// inside one page and takes one lookup; any other reads byte by byte
    /// (it may straddle two pages, and addresses wrap).
    fn load<const N: usize>(&self, addr: u32) -> [u8; N] {
        let mut out = [0; N];
        if (addr as usize).is_multiple_of(N) {
            if let Some(p) = self.page(addr) {
                let off = page_offset(addr);
                out.copy_from_slice(&p.bytes[off..off + N]);
            }
        } else {
            for (k, b) in out.iter_mut().enumerate() {
                *b = self.load::<1>(addr.wrapping_add(k as u32))[0];
            }
        }
        out
    }

    /// Store `N` little-endian bytes at `addr`, marking them written.
    fn store<const N: usize>(&mut self, addr: u32, v: [u8; N]) {
        if (addr as usize).is_multiple_of(N) {
            let off = page_offset(addr);
            let p = self.page_mut(addr);
            p.bytes[off..off + N].copy_from_slice(&v);
            // An aligned access of at most four bytes never crosses a
            // bitmap word.
            p.written[off / 64] |= ((1u64 << N) - 1) << (off % 64);
        } else {
            for (k, b) in v.into_iter().enumerate() {
                self.store(addr.wrapping_add(k as u32), [b]);
            }
        }
    }

    /// Visit every written byte in address order.
    fn for_each_written(&self, mut f: impl FnMut(u32, u8)) {
        for p in &self.pages {
            let base = p.num << PAGE_SHIFT;
            for (w, &word) in p.data.written.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let k = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    f(base | k as u32, p.data.bytes[k]);
                }
            }
        }
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut m = f.debug_map();
        self.for_each_written(|a, b| {
            m.entry(&a, &b);
        });
        m.finish()
    }
}

/// Architectural RV32 state: register file plus sparse byte memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RvState {
    regs: [u32; 32],
    mem: Memory,
}

impl RvState {
    /// Fresh state: all registers zero except `sp`, empty memory.
    pub fn new() -> RvState {
        let mut s = RvState::default();
        s.regs[2] = STACK_TOP;
        s
    }

    /// Read register `x<n>`.
    pub fn reg(&self, n: u8) -> u32 {
        self.regs[n as usize]
    }

    /// Write register `x<n>`; writes to `x0` are discarded.
    pub fn set_reg(&mut self, n: u8, v: u32) {
        if n != 0 {
            self.regs[n as usize] = v;
        }
    }

    /// Load one byte (unwritten memory reads as 0).
    pub fn load8(&self, addr: u32) -> u8 {
        self.mem.load::<1>(addr)[0]
    }

    /// Load a little-endian halfword.
    pub fn load16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.mem.load(addr))
    }

    /// Load a little-endian word.
    pub fn load32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.mem.load(addr))
    }

    /// Store one byte.
    pub fn store8(&mut self, addr: u32, v: u8) {
        self.mem.store(addr, [v]);
    }

    /// Store a little-endian halfword.
    pub fn store16(&mut self, addr: u32, v: u16) {
        self.mem.store(addr, v.to_le_bytes());
    }

    /// Store a little-endian word.
    pub fn store32(&mut self, addr: u32, v: u32) {
        self.mem.store(addr, v.to_le_bytes());
    }

    /// The written-memory image, as `(address, byte)` pairs in address
    /// order. A stored zero is part of it; a byte never stored is not.
    pub fn mem_image(&self) -> Vec<(u32, u8)> {
        let mut v = Vec::new();
        self.mem.for_each_written(|a, b| v.push((a, b)));
        v
    }

    /// FNV-1a digest over registers and the address-ordered memory image
    /// — a compact fingerprint for golden tests.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for r in &self.regs {
            for b in r.to_le_bytes() {
                eat(b);
            }
        }
        self.mem.for_each_written(|a, b| {
            for ab in a.to_le_bytes() {
                eat(ab);
            }
            eat(b);
        });
        h
    }
}

/// Architectural effect of executing one instruction at byte pc `pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RvEffect {
    /// Byte pc of the next instruction.
    pub next_pc: u32,
    /// A control transfer left the fall-through path.
    pub taken: bool,
    /// Effective byte address for loads/stores.
    pub eff_addr: Option<u32>,
    /// The instruction halts the program (`ecall`/`ebreak`).
    pub halt: bool,
}

/// Execute one instruction against `state`. This is the single source of
/// RV semantics: the interpreter steps with it, and the differential
/// harness replays the pipeline's committed instructions through it.
pub fn execute(state: &mut RvState, inst: &RvInst, pc: u32) -> RvEffect {
    use RvOp::*;
    let (a, b) = (state.reg(inst.rs1), state.reg(inst.rs2));
    let (sa, sb) = (a as i32, b as i32);
    let imm = inst.imm;
    let fall = pc.wrapping_add(4);
    let mut eff = RvEffect {
        next_pc: fall,
        taken: false,
        eff_addr: None,
        halt: false,
    };
    let wr = |s: &mut RvState, v: u32| s.set_reg(inst.rd, v);
    match inst.op {
        Lui => wr(state, (imm as u32) << 12),
        Auipc => wr(state, pc.wrapping_add((imm as u32) << 12)),
        Add => wr(state, a.wrapping_add(b)),
        Sub => wr(state, a.wrapping_sub(b)),
        Sll => wr(state, a.wrapping_shl(b)),
        Slt => wr(state, u32::from(sa < sb)),
        Sltu => wr(state, u32::from(a < b)),
        Xor => wr(state, a ^ b),
        Srl => wr(state, a.wrapping_shr(b)),
        Sra => wr(state, sa.wrapping_shr(b) as u32),
        Or => wr(state, a | b),
        And => wr(state, a & b),
        Addi => wr(state, a.wrapping_add(imm as u32)),
        Slti => wr(state, u32::from(sa < imm)),
        Sltiu => wr(state, u32::from(a < imm as u32)),
        Xori => wr(state, a ^ imm as u32),
        Ori => wr(state, a | imm as u32),
        Andi => wr(state, a & imm as u32),
        Slli => wr(state, a.wrapping_shl(imm as u32)),
        Srli => wr(state, a.wrapping_shr(imm as u32)),
        Srai => wr(state, sa.wrapping_shr(imm as u32) as u32),
        Mul => wr(state, a.wrapping_mul(b)),
        Mulh => wr(state, ((i64::from(sa) * i64::from(sb)) >> 32) as u32),
        Mulhsu => wr(state, ((i64::from(sa) * i64::from(b)) >> 32) as u32),
        Mulhu => wr(state, ((u64::from(a) * u64::from(b)) >> 32) as u32),
        Div => wr(
            state,
            if b == 0 {
                u32::MAX
            } else if sa == i32::MIN && sb == -1 {
                sa as u32
            } else {
                (sa / sb) as u32
            },
        ),
        Divu => wr(state, a.checked_div(b).unwrap_or(u32::MAX)),
        Rem => wr(
            state,
            if b == 0 {
                a
            } else if sa == i32::MIN && sb == -1 {
                0
            } else {
                (sa % sb) as u32
            },
        ),
        Remu => wr(state, if b == 0 { a } else { a % b }),
        Lb | Lh | Lw | Lbu | Lhu => {
            let addr = a.wrapping_add(imm as u32);
            eff.eff_addr = Some(addr);
            let v = match inst.op {
                Lb => state.load8(addr) as i8 as u32,
                Lbu => u32::from(state.load8(addr)),
                Lh => state.load16(addr) as i16 as u32,
                Lhu => u32::from(state.load16(addr)),
                _ => state.load32(addr),
            };
            wr(state, v);
        }
        Sb | Sh | Sw => {
            let addr = a.wrapping_add(imm as u32);
            eff.eff_addr = Some(addr);
            match inst.op {
                Sb => state.store8(addr, b as u8),
                Sh => state.store16(addr, b as u16),
                _ => state.store32(addr, b),
            }
        }
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            let taken = match inst.op {
                Beq => a == b,
                Bne => a != b,
                Blt => sa < sb,
                Bge => sa >= sb,
                Bltu => a < b,
                _ => a >= b,
            };
            if taken {
                eff.taken = true;
                eff.next_pc = pc.wrapping_add(imm as u32);
            }
        }
        Jal => {
            wr(state, fall);
            eff.taken = true;
            eff.next_pc = pc.wrapping_add(imm as u32);
        }
        Jalr => {
            let t = a.wrapping_add(imm as u32) & !1;
            wr(state, fall);
            eff.taken = true;
            eff.next_pc = t;
        }
        Fence => {}
        Ecall | Ebreak => eff.halt = true,
    }
    eff
}

/// One retired RV instruction, in index space: which instruction ran,
/// where control went, and the address it touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RvStep {
    /// Instruction index executed.
    pub idx: u32,
    /// Index of the next instruction (may be one past the end for a
    /// program that runs off its last instruction before halting).
    pub next_idx: u32,
    /// Whether a control transfer was taken.
    pub taken: bool,
    /// Effective byte address for loads/stores.
    pub eff_addr: Option<u32>,
}

/// The RV32 functional interpreter.
///
/// `step` retires one instruction per call; `ecall`/`ebreak` stop the
/// machine *without* retiring (their halt uop is likewise filtered by the
/// pipeline's decoder), and an invalid dynamic jump target or running off
/// the code image stops the machine with `faulted` set.
///
/// [`RvInterp::new`] borrows the program; [`RvInterp::owning`] takes it,
/// for an interpreter that must outlive the caller's copy (the live
/// [`crate::RvTraceSource`]).
#[derive(Debug, Clone)]
pub struct RvInterp<'p> {
    program: Cow<'p, RvProgram>,
    state: RvState,
    pc_idx: u32,
    halted: bool,
    faulted: bool,
    retired: u64,
}

impl<'p> RvInterp<'p> {
    /// Interpreter over a borrowed program, with `.byte`/`.word` data
    /// preloaded.
    pub fn new(program: &'p RvProgram) -> RvInterp<'p> {
        RvInterp::over(Cow::Borrowed(program))
    }

    fn over(program: Cow<'p, RvProgram>) -> RvInterp<'p> {
        let mut state = RvState::new();
        for &(addr, byte) in &program.data {
            state.store8(addr, byte);
        }
        let pc_idx = program.entry;
        RvInterp {
            program,
            state,
            pc_idx,
            halted: false,
            faulted: false,
            retired: 0,
        }
    }

    /// Architectural state so far.
    pub fn state(&self) -> &RvState {
        &self.state
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The machine stopped on `ecall`/`ebreak` (not a fault, not still
    /// running).
    pub fn stopped_cleanly(&self) -> bool {
        self.halted && !self.faulted
    }

    /// The machine stopped on a bad dynamic jump target or by running off
    /// the code image.
    pub fn faulted(&self) -> bool {
        self.faulted
    }

    /// Retire one instruction. Returns `None` once halted or faulted.
    pub fn step(&mut self) -> Option<RvStep> {
        if self.halted {
            return None;
        }
        let program: &RvProgram = &self.program;
        let idx = self.pc_idx;
        let Some(&inst) = program.insts.get(idx as usize) else {
            self.halted = true;
            self.faulted = true;
            return None;
        };
        let eff = execute(&mut self.state, &inst, program.pc_of(idx));
        if eff.halt {
            self.halted = true;
            return None;
        }
        // Decode the next pc back to an index; one-past-the-end is legal
        // here (the *next* step faults), anything else is a fault now.
        let len = program.len() as u32;
        let next_idx = if eff.next_pc == program.pc_of(len) {
            len
        } else {
            match program.index_of_pc(eff.next_pc) {
                Some(i) => i,
                None => {
                    self.halted = true;
                    self.faulted = true;
                    return None;
                }
            }
        };
        self.pc_idx = next_idx;
        self.retired += 1;
        Some(RvStep {
            idx,
            next_idx,
            taken: eff.taken,
            eff_addr: eff.eff_addr,
        })
    }

    /// Run to completion (or `max` steps), collecting every step.
    pub fn run_collect(&mut self, max: usize) -> Vec<RvStep> {
        let mut steps = Vec::new();
        while steps.len() < max {
            match self.step() {
                Some(s) => steps.push(s),
                None => break,
            }
        }
        steps
    }
}

impl RvInterp<'static> {
    /// Interpreter that owns its program.
    pub fn owning(program: RvProgram) -> RvInterp<'static> {
        RvInterp::over(Cow::Owned(program))
    }
}

/// The retired steps, in order, until the machine stops.
impl Iterator for RvInterp<'_> {
    type Item = RvStep;

    fn next(&mut self) -> Option<RvStep> {
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> RvInterp<'static> {
        let p = assemble("t", src).unwrap();
        let mut i = RvInterp::owning(p);
        let steps = i.run_collect(1_000_000);
        assert!(i.stopped_cleanly(), "did not halt cleanly: {steps:?}");
        i
    }

    #[test]
    fn loop_sums() {
        let i = run("_start:\nli t0, 100\nli a0, 0\nloop:\nadd a0, a0, t0\naddi t0, t0, -1\nbnez t0, loop\nebreak");
        assert_eq!(i.state().reg(10), 5050);
        // 2 setup + 100 iterations * 3.
        assert_eq!(i.retired(), 302);
    }

    #[test]
    fn memory_widths_and_sign_extension() {
        let i = run("_start:
                li t0, 0x1000
                li t1, -2      # 0xfffffffe
                sw t1, 0(t0)
                lb a0, 0(t0)   # 0xfe sign-extends to -2
                lbu a1, 0(t0)  # 254
                lh a2, 0(t0)   # -2
                lhu a3, 0(t0)  # 0xfffe
                sh zero, 2(t0)
                lw a4, 0(t0)   # 0x0000fffe
                ebreak");
        assert_eq!(i.state().reg(10) as i32, -2);
        assert_eq!(i.state().reg(11), 254);
        assert_eq!(i.state().reg(12) as i32, -2);
        assert_eq!(i.state().reg(13), 0xfffe);
        assert_eq!(i.state().reg(14), 0xfffe);
    }

    #[test]
    fn m_extension_edge_cases() {
        let i = run("_start:
                li t0, -2147483648
                li t1, -1
                div a0, t0, t1    # overflow -> INT_MIN
                rem a1, t0, t1    # overflow -> 0
                li t2, 0
                div a2, t0, t2    # div by zero -> -1
                rem a3, t0, t2    # rem by zero -> dividend
                mulh a4, t0, t1   # high half of INT_MIN * -1
                li t3, 7
                li t4, 3
                divu a5, t3, t4
                ebreak");
        assert_eq!(i.state().reg(10), 0x8000_0000);
        assert_eq!(i.state().reg(11), 0);
        assert_eq!(i.state().reg(12), u32::MAX);
        assert_eq!(i.state().reg(13), 0x8000_0000);
        assert_eq!(i.state().reg(14), 0);
        assert_eq!(i.state().reg(15), 2);
    }

    #[test]
    fn call_ret_and_stack() {
        let i = run("_start:
                li a0, 5
                call double
                ebreak
             double:
                addi sp, sp, -4
                sw a0, 0(sp)
                lw t0, 0(sp)
                add a0, t0, t0
                addi sp, sp, 4
                ret");
        assert_eq!(i.state().reg(10), 10);
        assert_eq!(i.state().reg(2), STACK_TOP);
    }

    #[test]
    fn x0_is_immutable_and_faults_are_detected() {
        let p = assemble("t", "_start:\nli t0, 3\njr t0\nebreak").unwrap();
        let mut i = RvInterp::new(&p);
        i.run_collect(100);
        assert!(i.faulted(), "misaligned jr target must fault");

        let i2 = run("_start:\naddi zero, zero, 7\nmv a0, zero\nebreak");
        assert_eq!(i2.state().reg(10), 0);
    }

    #[test]
    fn unaligned_accesses_straddle_pages() {
        let mut s = RvState::new();
        s.store32(0x1ffe, 0x8899_aabb);
        assert_eq!(
            s.mem_image(),
            vec![
                (0x1ffe, 0xbb),
                (0x1fff, 0xaa),
                (0x2000, 0x99),
                (0x2001, 0x88)
            ]
        );
        assert_eq!(s.load32(0x1ffe), 0x8899_aabb);
        assert_eq!(s.load16(0x1fff), 0x99aa);
        assert_eq!(s.load32(0x1fff), 0x0088_99aa, "byte 0x2002 is unwritten");
        s.store16(0x2fff, 0xccdd);
        assert_eq!((s.load8(0x2fff), s.load8(0x3000)), (0xdd, 0xcc));
        // Addresses wrap at the top of the address space.
        s.store32(0xffff_fffe, 0x1122_3344);
        assert_eq!(s.load32(0xffff_fffe), 0x1122_3344);
        assert_eq!(s.load16(0), 0x1122);
        assert_eq!(s.mem_image()[0], (0, 0x22));

        // Sign extension through the instructions.
        let i = run("_start:
                li t0, 0x1fff
                li t1, -32768      # 0xffff8000
                sh t1, 0(t0)       # 0x00 at 0x1fff, 0x80 at 0x2000
                lh a0, 0(t0)
                lhu a1, 0(t0)
                li t2, 0x2ffe
                li t3, -16777216   # 0xff000000
                sw t3, 0(t2)       # 0xff lands at 0x3001
                lw a2, 0(t2)
                lb a3, 3(t2)
                lbu a4, 3(t2)
                lh a5, 2(t2)       # 0xff00: -256
                ebreak");
        assert_eq!(i.state().reg(10) as i32, -32768);
        assert_eq!(i.state().reg(11), 0x8000);
        assert_eq!(i.state().reg(12), 0xff00_0000);
        assert_eq!(i.state().reg(13) as i32, -1);
        assert_eq!(i.state().reg(14), 0xff);
        assert_eq!(i.state().reg(15) as i32, -256);
    }

    #[test]
    fn a_written_zero_is_part_of_the_state() {
        let (mut a, b) = (RvState::new(), RvState::new());
        a.store8(0x100, 0);
        assert_eq!(a.load8(0x100), b.load8(0x100));
        assert_eq!(a.mem_image(), vec![(0x100, 0)]);
        assert!(b.mem_image().is_empty());
        assert_ne!(a, b);
        assert_ne!(a.digest(), b.digest());

        // A word store writes four bytes and no more of its page.
        a.store32(0x200, 0);
        assert_eq!(a.mem_image().len(), 5);
        assert!(!a.mem_image().contains(&(0x204, 0)));

        // The same bytes stored at other widths, in another order, make
        // an equal state.
        let (mut c, mut d) = (RvState::new(), RvState::new());
        c.store16(0x10, 0x0201);
        c.store8(0x5000, 9);
        d.store8(0x5000, 9);
        d.store8(0x11, 2);
        d.store8(0x10, 1);
        assert_eq!(c, d);
        assert_eq!(c.digest(), d.digest());
        assert_eq!(c.mem_image(), vec![(0x10, 1), (0x11, 2), (0x5000, 9)]);
    }

    #[test]
    fn digest_is_order_independent_for_memory() {
        let a = run("_start:\nli t0, 0x100\nsb t0, 0(t0)\nsb t0, 4(t0)\nebreak");
        let b = run("_start:\nli t0, 0x100\nsb t0, 4(t0)\nsb t0, 0(t0)\nebreak");
        assert_eq!(a.state().digest(), b.state().digest());
        assert_ne!(a.state().digest(), RvState::new().digest());
    }

    use std::collections::HashMap;

    use proptest::prelude::*;

    /// One memory operation: width in bytes, store (`Some(value)`) or
    /// load, and an address near a page boundary or the top of memory.
    fn mem_op() -> impl Strategy<Value = (u32, Option<u32>, u32)> {
        let bases = vec![0x0u32, 0x0ff8, 0x1ff8, 0x7ffe_fff8, 0xffff_fff8];
        (
            prop::sample::select(vec![1u32, 2, 4]),
            prop::option::of(any::<u32>()),
            prop::sample::select(bases),
            0u32..24,
        )
            .prop_map(|(width, store, base, off)| (width, store, base.wrapping_add(off)))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The paged memory behaves as a byte map: every load reads what
        /// the map holds (zero when unwritten), and the final image is
        /// the map's entries in address order.
        #[test]
        fn paged_memory_matches_a_byte_map(ops in prop::collection::vec(mem_op(), 1..64)) {
            let mut state = RvState::new();
            let mut model: HashMap<u32, u8> = HashMap::new();
            for &(width, store, addr) in &ops {
                let byte = |k: u32| addr.wrapping_add(k);
                match store {
                    Some(v) => {
                        match width {
                            1 => state.store8(addr, v as u8),
                            2 => state.store16(addr, v as u16),
                            _ => state.store32(addr, v),
                        }
                        for k in 0..width {
                            model.insert(byte(k), (v >> (8 * k)) as u8);
                        }
                    }
                    None => {
                        let got = match width {
                            1 => u32::from(state.load8(addr)),
                            2 => u32::from(state.load16(addr)),
                            _ => state.load32(addr),
                        };
                        let want = (0..width).fold(0u32, |acc, k| {
                            acc | u32::from(model.get(&byte(k)).copied().unwrap_or(0)) << (8 * k)
                        });
                        prop_assert_eq!(got, want, "{}-byte load at {:#x}", width, addr);
                    }
                }
            }
            let mut image: Vec<(u32, u8)> = model.into_iter().collect();
            image.sort_unstable();
            prop_assert_eq!(state.mem_image(), image);
        }
    }
}

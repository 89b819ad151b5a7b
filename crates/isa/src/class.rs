use std::fmt;

/// Latency/resource class of an instruction, mirroring Table 1 of the paper.
///
/// The class determines execution latency, which functional-unit pool the
/// instruction competes for, and whether it is a macro-op grouping candidate
/// (single-cycle operations only: integer ALU, store address generation and
/// control instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply (3 cycles).
    IntMul,
    /// Integer divide (20 cycles).
    IntDiv,
    /// Floating-point add/convert (2 cycles).
    FpAlu,
    /// Floating-point multiply (4 cycles).
    FpMul,
    /// Floating-point divide (24 cycles).
    FpDiv,
    /// Memory load (address generation + cache access; variable latency).
    Load,
    /// Memory store. Decoded into a single-cycle address-generation
    /// operation plus a store-data operation performed at commit, as in the
    /// Pentium 4-style model of Section 2.1.
    Store,
    /// Conditional direct branch (single-cycle).
    CondBranch,
    /// Unconditional direct jump (single-cycle).
    Jump,
    /// Direct call; writes the return address (single-cycle).
    Call,
    /// Indirect jump through a register (single-cycle).
    IndirectJump,
    /// Return through the return-address stack (single-cycle).
    Return,
    /// No-op; removed by the decoder without executing.
    Nop,
    /// Program terminator (treated like a no-op by the timing model).
    Halt,
}

impl InstClass {
    /// Default execution latency in cycles (Table 1 of the paper).
    ///
    /// For [`InstClass::Load`] this is the address-generation latency only;
    /// the cache adds its own hit/miss latency on top. Branch classes
    /// resolve in one cycle in the execution stage.
    pub fn exec_latency(self) -> u32 {
        use InstClass::*;
        match self {
            IntAlu | CondBranch | Jump | Call | IndirectJump | Return | Store => 1,
            IntMul => 3,
            IntDiv => 20,
            FpAlu => 2,
            FpMul => 4,
            FpDiv => 24,
            Load => 1,
            Nop | Halt => 1,
        }
    }

    /// Functional-unit pool this class issues to.
    pub fn fu(self) -> FuKind {
        use InstClass::*;
        match self {
            IntAlu | CondBranch | Jump | Call | IndirectJump | Return | Nop | Halt => {
                FuKind::IntAlu
            }
            IntMul | IntDiv => FuKind::IntMulDiv,
            FpAlu => FuKind::FpAlu,
            FpMul | FpDiv => FuKind::FpMulDiv,
            Load | Store => FuKind::MemPort,
        }
    }

    /// `true` when the class executes in a single cycle, i.e. the class
    /// whose dependents demand an atomic 1-cycle scheduling loop. These are
    /// the macro-op grouping candidates of Section 4.1: single-cycle ALU,
    /// store address generation and control instructions.
    pub fn is_single_cycle(self) -> bool {
        use InstClass::*;
        matches!(
            self,
            IntAlu | Store | CondBranch | Jump | Call | IndirectJump | Return
        )
    }

    /// `true` for control-transfer classes.
    pub fn is_control(self) -> bool {
        use InstClass::*;
        matches!(self, CondBranch | Jump | Call | IndirectJump | Return)
    }

    /// `true` for classes that access memory.
    pub fn is_mem(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store)
    }
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstClass::IntAlu => "int-alu",
            InstClass::IntMul => "int-mul",
            InstClass::IntDiv => "int-div",
            InstClass::FpAlu => "fp-alu",
            InstClass::FpMul => "fp-mul",
            InstClass::FpDiv => "fp-div",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::CondBranch => "cond-branch",
            InstClass::Jump => "jump",
            InstClass::Call => "call",
            InstClass::IndirectJump => "indirect-jump",
            InstClass::Return => "return",
            InstClass::Nop => "nop",
            InstClass::Halt => "halt",
        };
        f.write_str(s)
    }
}

/// Functional-unit pool identifiers; pool sizes come from the machine
/// configuration (Table 1: 4 integer ALUs, 2 FP ALUs, 2 integer MUL/DIV,
/// 2 FP MUL/DIV, 2 general memory ports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Integer ALU (also executes branches).
    IntAlu,
    /// Integer multiplier/divider.
    IntMulDiv,
    /// Floating-point adder.
    FpAlu,
    /// Floating-point multiplier/divider.
    FpMulDiv,
    /// General memory port.
    MemPort,
}

impl FuKind {
    /// All functional-unit kinds.
    pub const ALL: [FuKind; 5] = [
        FuKind::IntAlu,
        FuKind::IntMulDiv,
        FuKind::FpAlu,
        FuKind::FpMulDiv,
        FuKind::MemPort,
    ];

    /// Dense index for per-pool bookkeeping tables.
    pub fn index(self) -> usize {
        match self {
            FuKind::IntAlu => 0,
            FuKind::IntMulDiv => 1,
            FuKind::FpAlu => 2,
            FuKind::FpMulDiv => 3,
            FuKind::MemPort => 4,
        }
    }
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuKind::IntAlu => "int-alu",
            FuKind::IntMulDiv => "int-muldiv",
            FuKind::FpAlu => "fp-alu",
            FuKind::FpMulDiv => "fp-muldiv",
            FuKind::MemPort => "mem-port",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cycle_classes_match_paper_candidates() {
        assert!(InstClass::IntAlu.is_single_cycle());
        assert!(
            InstClass::Store.is_single_cycle(),
            "store address generation"
        );
        assert!(InstClass::CondBranch.is_single_cycle());
        assert!(!InstClass::Load.is_single_cycle());
        assert!(!InstClass::IntMul.is_single_cycle());
        assert!(!InstClass::FpAlu.is_single_cycle());
    }

    #[test]
    fn latencies_match_table1() {
        assert_eq!(InstClass::IntAlu.exec_latency(), 1);
        assert_eq!(InstClass::IntMul.exec_latency(), 3);
        assert_eq!(InstClass::IntDiv.exec_latency(), 20);
        assert_eq!(InstClass::FpAlu.exec_latency(), 2);
        assert_eq!(InstClass::FpMul.exec_latency(), 4);
        assert_eq!(InstClass::FpDiv.exec_latency(), 24);
    }

    #[test]
    fn fu_indices_are_dense_and_unique() {
        let mut seen = [false; 5];
        for fu in FuKind::ALL {
            assert!(!seen[fu.index()]);
            seen[fu.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}

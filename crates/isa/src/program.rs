use std::collections::BTreeMap;
use std::fmt;


use crate::StaticInst;

/// A static program image: a flat sequence of [`StaticInst`]s.
///
/// Instructions are addressed by *static index*; the byte program counter of
/// index `i` is `Program::BASE_PC + 4 * i`, which is what the instruction
/// cache and branch predictors index with.
///
/// ```
/// use mos_isa::{Program, Reg, StaticInst};
/// let mut p = Program::new("loop");
/// let top = p.push(StaticInst::addi(Reg::int(1), Reg::int(1), -1));
/// p.push(StaticInst::branch(mos_isa::Opcode::Bnez, Reg::int(1), top));
/// p.push(StaticInst::halt());
/// assert_eq!(p.pc_of(top), Program::BASE_PC);
/// assert!(p.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    code: Vec<StaticInst>,
    entry: u32,
    labels: BTreeMap<String, u32>,
}

impl Program {
    /// Byte address of static index 0.
    pub const BASE_PC: u64 = 0x0040_0000;

    /// Create an empty program. The entry point defaults to index 0.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            code: Vec::new(),
            entry: 0,
            labels: BTreeMap::new(),
        }
    }

    /// A program of `insts` in order, entered at index 0.
    pub fn from_insts(
        name: impl Into<String>,
        insts: impl IntoIterator<Item = StaticInst>,
    ) -> Program {
        let mut p = Program::new(name);
        p.code.extend(insts);
        p
    }

    /// Human-readable program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append an instruction, returning its static index.
    pub fn push(&mut self, inst: StaticInst) -> u32 {
        let idx = self.code.len() as u32;
        self.code.push(inst);
        idx
    }

    /// Attach a label to a static index (used by program builders and for
    /// diagnostics).
    pub fn set_label(&mut self, name: impl Into<String>, idx: u32) {
        self.labels.insert(name.into(), idx);
    }

    /// Look up a label.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// Set the entry point.
    pub fn set_entry(&mut self, entry: u32) {
        self.entry = entry;
    }

    /// Entry-point static index.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Instruction at a static index.
    pub fn inst(&self, idx: u32) -> Option<&StaticInst> {
        self.code.get(idx as usize)
    }

    /// Mutable instruction access (used for target patching).
    pub fn inst_mut(&mut self, idx: u32) -> Option<&mut StaticInst> {
        self.code.get_mut(idx as usize)
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// `true` when the program holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Iterate over `(static index, instruction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &StaticInst)> {
        self.code.iter().enumerate().map(|(i, inst)| (i as u32, inst))
    }

    /// Byte program counter of a static index.
    pub fn pc_of(&self, idx: u32) -> u64 {
        Self::BASE_PC + 4 * u64::from(idx)
    }

    /// Static index of a byte program counter produced by [`Program::pc_of`].
    /// Returns `None` for misaligned or out-of-image addresses.
    pub fn index_of_pc(&self, pc: u64) -> Option<u32> {
        if pc < Self::BASE_PC || !(pc - Self::BASE_PC).is_multiple_of(4) {
            return None;
        }
        let idx = (pc - Self::BASE_PC) / 4;
        (idx < self.code.len() as u64).then_some(idx as u32)
    }

    /// Check structural invariants: the entry point and all direct-transfer
    /// targets must be in range, and direct transfers must have targets.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), ProgramBuildError> {
        if self.code.is_empty() {
            return Err(ProgramBuildError::Empty);
        }
        if self.entry as usize >= self.code.len() {
            return Err(ProgramBuildError::EntryOutOfRange(self.entry));
        }
        for (idx, inst) in self.iter() {
            let needs_target = matches!(
                inst.class(),
                crate::InstClass::CondBranch | crate::InstClass::Jump | crate::InstClass::Call
            );
            match inst.target() {
                Some(t) if (t as usize) < self.code.len() => {}
                Some(t) => return Err(ProgramBuildError::TargetOutOfRange { idx, target: t }),
                None if needs_target => return Err(ProgramBuildError::MissingTarget(idx)),
                None => {}
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; program `{}`, {} insts", self.name, self.code.len())?;
        let by_idx: BTreeMap<u32, &str> = self
            .labels
            .iter()
            .map(|(name, &i)| (i, name.as_str()))
            .collect();
        for (idx, inst) in self.iter() {
            if let Some(l) = by_idx.get(&idx) {
                writeln!(f, "{l}:")?;
            }
            writeln!(f, "  {:4}  {}", idx, inst)?;
        }
        Ok(())
    }
}

/// Structural error reported by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramBuildError {
    /// The program contains no instructions.
    Empty,
    /// The entry index is outside the code image.
    EntryOutOfRange(u32),
    /// A direct control transfer points outside the code image.
    TargetOutOfRange {
        /// Offending instruction index.
        idx: u32,
        /// Its out-of-range target.
        target: u32,
    },
    /// A direct control transfer has no target at all.
    MissingTarget(u32),
}

impl fmt::Display for ProgramBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramBuildError::Empty => write!(f, "program is empty"),
            ProgramBuildError::EntryOutOfRange(e) => write!(f, "entry index {e} out of range"),
            ProgramBuildError::TargetOutOfRange { idx, target } => {
                write!(f, "instruction {idx} targets out-of-range index {target}")
            }
            ProgramBuildError::MissingTarget(idx) => {
                write!(f, "direct control transfer at index {idx} lacks a target")
            }
        }
    }
}

impl std::error::Error for ProgramBuildError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Opcode, Reg};

    fn tiny() -> Program {
        let mut p = Program::new("t");
        p.push(StaticInst::li(Reg::int(1), 3));
        let top = p.push(StaticInst::addi(Reg::int(1), Reg::int(1), -1));
        p.push(StaticInst::branch(Opcode::Bnez, Reg::int(1), top));
        p.push(StaticInst::halt());
        p
    }

    #[test]
    fn pc_round_trip() {
        let p = tiny();
        for (idx, _) in p.iter() {
            assert_eq!(p.index_of_pc(p.pc_of(idx)), Some(idx));
        }
        assert_eq!(p.index_of_pc(Program::BASE_PC + 2), None);
        assert_eq!(p.index_of_pc(Program::BASE_PC + 4 * 1000), None);
        assert_eq!(p.index_of_pc(0), None);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_target() {
        let mut p = tiny();
        p.push(StaticInst::jmp(999));
        assert_eq!(
            p.validate(),
            Err(ProgramBuildError::TargetOutOfRange { idx: 4, target: 999 })
        );
    }

    #[test]
    fn validate_rejects_empty_and_bad_entry() {
        assert_eq!(Program::new("e").validate(), Err(ProgramBuildError::Empty));
        let mut p = tiny();
        p.set_entry(100);
        assert_eq!(p.validate(), Err(ProgramBuildError::EntryOutOfRange(100)));
    }

    #[test]
    fn labels() {
        let mut p = tiny();
        p.set_label("top", 1);
        assert_eq!(p.label("top"), Some(1));
        assert_eq!(p.label("missing"), None);
        let text = p.to_string();
        assert!(text.contains("top:"));
    }
}

//! RV32 assembler: a practical subset of GNU `as` syntax — labels, ABI
//! register names, the common pseudo-instructions (`li`, `mv`, `j`, `ret`,
//! `call`, `beqz`, ...), `#`/`;` comments, and `.byte`/`.word`/`.ascii`
//! data directives for preloading memory.
//!
//! Pseudo-instructions are expanded during the first pass (their expansion
//! length depends only on operands known at parse time), so label fixups in
//! the second pass see final instruction indices.

use std::collections::BTreeMap;
use std::fmt;

use crate::inst::{row_named, Format, RvInst, RvOp, RvProgram};

/// Error produced by [`assemble`], carrying the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RvAsmError {
    /// 1-based line number (0 for file-level errors).
    pub line: usize,
    msg: String,
}

impl RvAsmError {
    fn new(line: usize, msg: impl Into<String>) -> RvAsmError {
        RvAsmError {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for RvAsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for RvAsmError {}

/// Parse an integer register: `x0..x31` or any ABI name (`zero`, `ra`,
/// `sp`, `gp`, `tp`, `t0..t6`, `s0`/`fp`, `s1..s11`, `a0..a7`).
fn parse_reg(tok: &str, line: usize) -> Result<u8, RvAsmError> {
    let t = tok.trim();
    if let Some(num) = t.strip_prefix('x') {
        if let Ok(n) = num.parse::<u8>() {
            if n < 32 {
                return Ok(n);
            }
        }
    }
    let named = match t {
        "zero" => 0,
        "ra" => 1,
        "sp" => 2,
        "gp" => 3,
        "tp" => 4,
        "t0" => 5,
        "t1" => 6,
        "t2" => 7,
        "s0" | "fp" => 8,
        "s1" => 9,
        _ => {
            if let Some(n) = t.strip_prefix('a').and_then(|s| s.parse::<u8>().ok()) {
                if n < 8 {
                    return Ok(10 + n);
                }
            }
            if let Some(n) = t.strip_prefix('s').and_then(|s| s.parse::<u8>().ok()) {
                if (2..=11).contains(&n) {
                    return Ok(16 + n);
                }
            }
            if let Some(n) = t.strip_prefix('t').and_then(|s| s.parse::<u8>().ok()) {
                if (3..=6).contains(&n) {
                    return Ok(25 + n);
                }
            }
            return Err(RvAsmError::new(line, format!("bad register `{t}`")));
        }
    };
    Ok(named)
}

fn parse_imm(tok: &str, line: usize) -> Result<i64, RvAsmError> {
    let t = tok.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let v = if let Some(hex) = t.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else if let Some(bin) = t.strip_prefix("0b") {
        i64::from_str_radix(bin, 2)
    } else {
        t.parse()
    }
    .map_err(|_| RvAsmError::new(line, format!("expected immediate, got `{tok}`")))?;
    Ok(if neg { -v } else { v })
}

/// Immediate constrained to a range (inclusive).
fn parse_imm_in(tok: &str, line: usize, lo: i64, hi: i64) -> Result<i32, RvAsmError> {
    let v = parse_imm(tok, line)?;
    if v < lo || v > hi {
        return Err(RvAsmError::new(
            line,
            format!("immediate {v} out of range [{lo}, {hi}]"),
        ));
    }
    Ok(v as i32)
}

/// A 32-bit constant for `li`/`.word`: accepts the full signed and
/// unsigned 32-bit ranges.
fn parse_imm32(tok: &str, line: usize) -> Result<i32, RvAsmError> {
    let v = parse_imm(tok, line)?;
    if v < i64::from(i32::MIN) || v > i64::from(u32::MAX) {
        return Err(RvAsmError::new(
            line,
            format!("constant {v} exceeds 32 bits"),
        ));
    }
    Ok(v as u32 as i32)
}

/// Parses `imm(reg)` memory-operand syntax.
fn parse_mem(tok: &str, line: usize) -> Result<(i32, u8), RvAsmError> {
    let t = tok.trim();
    let open = t
        .find('(')
        .ok_or_else(|| RvAsmError::new(line, format!("expected imm(reg), got `{t}`")))?;
    if !t.ends_with(')') {
        return Err(RvAsmError::new(
            line,
            format!("expected imm(reg), got `{t}`"),
        ));
    }
    let imm = if open == 0 {
        0
    } else {
        parse_imm_in(&t[..open], line, -2048, 2047)?
    };
    let reg = parse_reg(&t[open + 1..t.len() - 1], line)?;
    Ok((imm, reg))
}

/// Expand `li rd, imm` into 1–2 real instructions.
fn expand_li(rd: u8, imm: i32, out: &mut Vec<RvInst>) {
    if (-2048..=2047).contains(&imm) {
        out.push(RvInst::i(RvOp::Addi, rd, 0, imm));
        return;
    }
    // hi/lo split with the +0x800 rounding trick so the 12-bit lo part is
    // a valid sign-extended addi immediate.
    let hi = (imm.wrapping_add(0x800) as u32) >> 12;
    let lo = imm.wrapping_sub((hi << 12) as i32);
    out.push(RvInst::u(RvOp::Lui, rd, hi as i32));
    if lo != 0 {
        out.push(RvInst::i(RvOp::Addi, rd, rd, lo));
    }
}

/// A branch/jump awaiting label resolution: `(inst index, label, line)`.
type Fixup = (u32, String, usize);

/// Assemble RV32 source text into an [`RvProgram`].
///
/// # Errors
///
/// Returns an [`RvAsmError`] pinpointing the offending line for syntax
/// errors, unknown mnemonics/registers, out-of-range immediates,
/// undefined or duplicate labels, or an entry label with no instruction
/// after it.
pub fn assemble(name: &str, src: &str) -> Result<RvProgram, RvAsmError> {
    let mut prog = RvProgram::new(name);
    // Label -> (instruction index, defining line).
    let mut labels: BTreeMap<String, (u32, usize)> = BTreeMap::new();
    let mut fixups: Vec<Fixup> = Vec::new();
    let mut entry_label: Option<(String, usize)> = None;

    for (lineno, raw) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let mut line = raw;
        if let Some(i) = line.find(['#', ';']) {
            line = &line[..i];
        }
        let mut line = line.trim();
        while let Some(colon) = line.find(':') {
            let (label, rest) = line.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break;
            }
            let idx = prog.insts.len() as u32;
            if let Some(&(_, first)) = labels.get(label) {
                return Err(RvAsmError::new(
                    lineno,
                    format!("label `{label}` already defined at line {first}"),
                ));
            }
            labels.insert(label.to_owned(), (idx, lineno));
            prog.labels.push((label.to_owned(), idx));
            line = rest[1..].trim();
        }
        if line.is_empty() {
            continue;
        }
        if line.starts_with('.') {
            parse_directive(line, lineno, &mut prog, &mut entry_label)?;
            continue;
        }

        let (mnemonic, rest) = match line.find(char::is_whitespace) {
            Some(i) => (&line[..i], line[i..].trim()),
            None => (line, ""),
        };
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        let before = prog.insts.len() as u32;
        if let Some(label) = parse_inst(mnemonic, &ops, lineno, &mut prog.insts)? {
            fixups.push((before, label, lineno));
        }
    }

    for (idx, label, lineno) in fixups {
        let (target, _) = *labels
            .get(&label)
            .ok_or_else(|| RvAsmError::new(lineno, format!("undefined label `{label}`")))?;
        let offset = (i64::from(target) - i64::from(idx)) * 4;
        if offset < i64::from(i32::MIN) || offset > i64::from(i32::MAX) {
            return Err(RvAsmError::new(lineno, "branch offset overflow"));
        }
        prog.insts[idx as usize].imm = offset as i32;
    }
    if prog.insts.is_empty() {
        return Err(RvAsmError::new(0, "program is empty"));
    }
    let entry = match entry_label {
        Some((label, line)) => {
            let undefined = || RvAsmError::new(line, format!("undefined entry label `{label}`"));
            Some(labels.get_key_value(&label).ok_or_else(undefined)?)
        }
        None => labels.get_key_value("_start"),
    };
    if let Some((label, &(idx, lineno))) = entry {
        if idx as usize == prog.insts.len() {
            return Err(RvAsmError::new(
                lineno,
                format!("entry label `{label}` has no instruction after it"),
            ));
        }
        prog.entry = idx;
    }
    Ok(prog)
}

fn parse_directive(
    line: &str,
    lineno: usize,
    prog: &mut RvProgram,
    entry_label: &mut Option<(String, usize)>,
) -> Result<(), RvAsmError> {
    let (dir, rest) = match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i..].trim()),
        None => (line, ""),
    };
    match dir {
        ".entry" | ".global" | ".globl" => {
            if dir == ".entry" {
                *entry_label = Some((rest.to_owned(), lineno));
            }
            Ok(())
        }
        ".text" | ".data" | ".section" | ".align" | ".option" => Ok(()),
        ".byte" | ".word" => {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() < 2 {
                return Err(RvAsmError::new(
                    lineno,
                    format!("{dir} takes `addr, value...`"),
                ));
            }
            let mut addr = parse_imm32(parts[0], lineno)? as u32;
            for v in &parts[1..] {
                if dir == ".byte" {
                    let b = parse_imm_in(v, lineno, -128, 255)? as u8;
                    prog.data.push((addr, b));
                    addr = addr.wrapping_add(1);
                } else {
                    let w = parse_imm32(v, lineno)? as u32;
                    for (k, byte) in w.to_le_bytes().into_iter().enumerate() {
                        prog.data.push((addr.wrapping_add(k as u32), byte));
                    }
                    addr = addr.wrapping_add(4);
                }
            }
            Ok(())
        }
        ".ascii" | ".asciz" => {
            // `.ascii addr, "text"` — bytes at addr; `.asciz` appends NUL.
            let comma = rest
                .find(',')
                .ok_or_else(|| RvAsmError::new(lineno, format!("{dir} takes `addr, \"text\"`")))?;
            let mut addr = parse_imm32(&rest[..comma], lineno)? as u32;
            let text = rest[comma + 1..].trim();
            let inner = text
                .strip_prefix('"')
                .and_then(|t| t.strip_suffix('"'))
                .ok_or_else(|| RvAsmError::new(lineno, "string must be double-quoted"))?;
            for b in inner.bytes() {
                prog.data.push((addr, b));
                addr = addr.wrapping_add(1);
            }
            if dir == ".asciz" {
                prog.data.push((addr, 0));
            }
            Ok(())
        }
        _ => Err(RvAsmError::new(
            lineno,
            format!("unknown directive `{dir}`"),
        )),
    }
}

/// Parse one mnemonic + operands, appending its expansion to `out`.
/// Returns the label a trailing branch/jump needs patched, if any.
fn parse_inst(
    mnemonic: &str,
    ops: &[&str],
    line: usize,
    out: &mut Vec<RvInst>,
) -> Result<Option<String>, RvAsmError> {
    use RvOp::*;

    let expect = |n: usize| -> Result<(), RvAsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(RvAsmError::new(
                line,
                format!("`{mnemonic}` expects {n} operands, got {}", ops.len()),
            ))
        }
    };
    let reg = |i: usize| parse_reg(ops[i], line);
    let imm_in = |i: usize, lo: i64, hi: i64| parse_imm_in(ops[i], line, lo, hi);

    // Compare-to-zero branch pseudo `bXXz rs, label`.
    let branch_z = |op: RvOp, swap: bool| -> Result<(RvInst, String), RvAsmError> {
        expect(2)?;
        let rs = reg(0)?;
        let (rs1, rs2) = if swap { (0, rs) } else { (rs, 0) };
        Ok((RvInst::branch(op, rs1, rs2, 0), ops[1].to_owned()))
    };

    let mut pending: Option<String> = None;
    match mnemonic {
        // `bgt/ble/bgtu/bleu rs, rt, label` — swapped-operand pseudos.
        "bgt" | "ble" | "bgtu" | "bleu" => {
            expect(3)?;
            let op = match mnemonic {
                "bgt" => Blt,
                "ble" => Bge,
                "bgtu" => Bltu,
                _ => Bgeu,
            };
            out.push(RvInst::branch(op, reg(1)?, reg(0)?, 0));
            pending = Some(ops[2].to_owned());
        }
        "beqz" => {
            let (inst, label) = branch_z(Beq, false)?;
            out.push(inst);
            pending = Some(label);
        }
        "bnez" => {
            let (inst, label) = branch_z(Bne, false)?;
            out.push(inst);
            pending = Some(label);
        }
        "bltz" => {
            let (inst, label) = branch_z(Blt, false)?;
            out.push(inst);
            pending = Some(label);
        }
        "bgez" => {
            let (inst, label) = branch_z(Bge, false)?;
            out.push(inst);
            pending = Some(label);
        }
        "bgtz" => {
            let (inst, label) = branch_z(Blt, true)?;
            out.push(inst);
            pending = Some(label);
        }
        "blez" => {
            let (inst, label) = branch_z(Bge, true)?;
            out.push(inst);
            pending = Some(label);
        }
        "jal" => match ops.len() {
            1 => {
                out.push(RvInst::jal(1, 0));
                pending = Some(ops[0].to_owned());
            }
            2 => {
                out.push(RvInst::jal(reg(0)?, 0));
                pending = Some(ops[1].to_owned());
            }
            n => {
                return Err(RvAsmError::new(
                    line,
                    format!("`jal` expects 1 or 2 operands, got {n}"),
                ))
            }
        },
        "jalr" => match ops.len() {
            1 => out.push(RvInst::i(Jalr, 1, reg(0)?, 0)),
            2 => {
                let (imm, base) = parse_mem(ops[1], line)?;
                out.push(RvInst::i(Jalr, reg(0)?, base, imm));
            }
            3 => out.push(RvInst::i(Jalr, reg(0)?, reg(1)?, imm_in(2, -2048, 2047)?)),
            n => {
                return Err(RvAsmError::new(
                    line,
                    format!("`jalr` expects 1-3 operands, got {n}"),
                ))
            }
        },
        "j" => {
            expect(1)?;
            out.push(RvInst::jal(0, 0));
            pending = Some(ops[0].to_owned());
        }
        "call" => {
            expect(1)?;
            out.push(RvInst::jal(1, 0));
            pending = Some(ops[0].to_owned());
        }
        "jr" => {
            expect(1)?;
            out.push(RvInst::i(Jalr, 0, reg(0)?, 0));
        }
        "ret" => {
            expect(0)?;
            out.push(RvInst::i(Jalr, 0, 1, 0));
        }
        "li" => {
            expect(2)?;
            expand_li(reg(0)?, parse_imm32(ops[1], line)?, out);
        }
        "mv" => {
            expect(2)?;
            out.push(RvInst::i(Addi, reg(0)?, reg(1)?, 0));
        }
        "not" => {
            expect(2)?;
            out.push(RvInst::i(Xori, reg(0)?, reg(1)?, -1));
        }
        "neg" => {
            expect(2)?;
            out.push(RvInst::r(Sub, reg(0)?, 0, reg(1)?));
        }
        "seqz" => {
            expect(2)?;
            out.push(RvInst::i(Sltiu, reg(0)?, reg(1)?, 1));
        }
        "snez" => {
            expect(2)?;
            out.push(RvInst::r(Sltu, reg(0)?, 0, reg(1)?));
        }
        "nop" => {
            expect(0)?;
            out.push(RvInst::i(Addi, 0, 0, 0));
        }
        "fence" => out.push(RvInst::sys(Fence)),
        _ => {
            let row = row_named(mnemonic)
                .ok_or_else(|| RvAsmError::new(line, format!("unknown mnemonic `{mnemonic}`")))?;
            let op = row.op;
            let n = match row.format {
                Format::R | Format::I | Format::Shift | Format::B => 3,
                Format::Offset | Format::S | Format::U => 2,
                Format::J | Format::Fence | Format::System => 0,
            };
            expect(n)?;
            out.push(match row.format {
                Format::R => RvInst::r(op, reg(0)?, reg(1)?, reg(2)?),
                Format::I => RvInst::i(op, reg(0)?, reg(1)?, imm_in(2, -2048, 2047)?),
                Format::Shift => RvInst::i(op, reg(0)?, reg(1)?, imm_in(2, 0, 31)?),
                Format::Offset => {
                    let (imm, base) = parse_mem(ops[1], line)?;
                    RvInst::load(op, reg(0)?, imm, base)
                }
                Format::S => {
                    let (imm, base) = parse_mem(ops[1], line)?;
                    RvInst::store(op, reg(0)?, imm, base)
                }
                Format::B => {
                    pending = Some(ops[2].to_owned());
                    RvInst::branch(op, reg(0)?, reg(1)?, 0)
                }
                Format::U => RvInst::u(op, reg(0)?, imm_in(1, 0, 0xf_ffff)?),
                Format::System => RvInst::sys(op),
                Format::J | Format::Fence => unreachable!("`{mnemonic}` has its own arm"),
            });
        }
    }
    Ok(pending)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_basic_shapes() {
        let p = assemble(
            "t",
            r"
            _start:
                addi t0, zero, 5
                add  a0, t0, t0
                lw   t1, 8(sp)
                sw   t1, -4(sp)
                beq  t0, t1, done
                jal  ra, done
            done:
                ebreak
            ",
        )
        .unwrap();
        assert_eq!(p.len(), 7);
        assert_eq!(p.entry, 0);
        // beq at index 4 jumps to 6: offset (6-4)*4 = 8.
        assert_eq!(p.insts[4].imm, 8);
        assert_eq!(p.insts[5].imm, 4);
    }

    #[test]
    fn li_expansion() {
        let small = assemble("t", "li a0, -7\nebreak").unwrap();
        assert_eq!(small.insts[0], RvInst::i(RvOp::Addi, 10, 0, -7));

        let big = assemble("t", "li a0, 0x12345678\nebreak").unwrap();
        assert_eq!(big.insts[0].op, RvOp::Lui);
        assert_eq!(big.insts[1].op, RvOp::Addi);
        // lui places hi s.t. hi<<12 + lo == value.
        let hi = big.insts[0].imm as u32;
        let lo = big.insts[1].imm;
        assert_eq!((hi << 12).wrapping_add(lo as u32), 0x1234_5678);

        let round = assemble("t", "li a0, 0x10000\nebreak").unwrap();
        // exact multiple of 0x1000: single lui.
        assert_eq!(round.insts[0].op, RvOp::Lui);
        assert_eq!(round.insts[1].op, RvOp::Ebreak);
    }

    #[test]
    fn li_expansion_keeps_labels_aligned() {
        let p = assemble(
            "t",
            "li a0, 0x12345678\ntarget:\nadd a1, a0, a0\nj target\nebreak",
        )
        .unwrap();
        // li expands to 2 insts, so `target` is index 2 and j (index 3)
        // branches back by -4 bytes.
        assert_eq!(p.insts[3].imm, -4);
    }

    #[test]
    fn pseudo_branches() {
        let p = assemble("t", "top: beqz a0, top\nbgtz a1, top\nebreak").unwrap();
        assert_eq!(p.insts[0], RvInst::branch(RvOp::Beq, 10, 0, 0));
        assert_eq!(p.insts[1], RvInst::branch(RvOp::Blt, 0, 11, -4));
    }

    #[test]
    fn abi_and_numeric_registers_agree() {
        let p = assemble("t", "add x10, x5, x31\nadd a0, t0, t6\nebreak").unwrap();
        assert_eq!(p.insts[0], p.insts[1]);
    }

    #[test]
    fn data_directives() {
        let p = assemble(
            "t",
            ".byte 0x100, 1, 2\n.word 0x200, 0x11223344\n.asciz 0x300, \"hi\"\nebreak",
        )
        .unwrap();
        assert_eq!(p.data[0], (0x100, 1));
        assert_eq!(p.data[1], (0x101, 2));
        assert_eq!(p.data[2], (0x200, 0x44));
        assert_eq!(p.data[5], (0x203, 0x11));
        assert_eq!(p.data[6], (0x300, b'h'));
        assert_eq!(p.data[8], (0x302, 0));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("t", "nop\nbogus a0, a1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bogus"));

        let err = assemble("t", "addi a0, a1, 99999\nebreak").unwrap_err();
        assert_eq!(err.line, 1);

        let err = assemble("t", "beq a0, a1, nowhere\nebreak").unwrap_err();
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    fn duplicate_labels_are_rejected_at_the_second_definition() {
        let err = assemble("t", "_start:\n_start:\nebreak").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.to_string()
                .contains("label `_start` already defined at line 1"),
            "{err}"
        );
        // Also when both sit on one line, or far apart with code between.
        let err = assemble("t", "a: a: nop\nebreak").unwrap_err();
        assert_eq!(err.line, 1);
        let err = assemble("t", "loop: nop\nj loop\n\nloop: ebreak").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(
            err.to_string().contains("already defined at line 1"),
            "{err}"
        );
    }

    #[test]
    fn entry_defaults_to_start_label() {
        let p = assemble("t", "nop\n_start:\nebreak").unwrap();
        assert_eq!(p.entry, 1);
        let p = assemble("t", ".entry main\nnop\nmain:\nebreak").unwrap();
        assert_eq!(p.entry, 1);
    }

    #[test]
    fn an_entry_label_after_the_last_instruction_is_rejected_on_its_line() {
        let err = assemble("t", "ebreak\n_start:").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.to_string()
                .contains("entry label `_start` has no instruction after it"),
            "{err}"
        );
        let err = assemble("t", ".entry main\nebreak\n\nmain: # the end\n").unwrap_err();
        assert_eq!(err.line, 4);
        // A label at the end that is not the entry stays legal.
        assert!(assemble("t", "_start:\nebreak\nend:").is_ok());
    }
}

//! Hostile inputs to the RV32 front end: mutated assembly sources through
//! `assemble` → `lower`, mutated or random flat images through
//! `decode_flat` → `lower`, and hand-edited programs (register fields,
//! label indices, the entry) through `lower` and `RvTraceSource::new`.
//! Every call must return `Ok` or `Err`; a panic fails the test with the
//! case number and the input that caused it.
//!
//! The mutations are seeded and deterministic, so a failure reproduces
//! exactly. The assembly mutations start from the checked-in suite
//! programs and kernels and replace, delete or insert a byte, a token or a
//! line, or truncate the text; the image mutations flip bytes of the
//! suite's encodings and cut them short; the program edits overwrite
//! public fields of the suite's assembled programs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mos_rv::suite::{KERNELS, PROGRAMS};
use mos_rv::{assemble, decode_flat, encode_program, lower, RvTraceSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

/// Tokens the assembler treats specially, or values at the edge of what
/// it accepts.
const TOKENS: &[&str] = &[
    "%hi(",
    "%lo(",
    ".word",
    ".byte",
    ".asciz",
    ".entry",
    ".globl",
    "-0x7fffffff",
    "0x80000000",
    "-2147483648",
    "4294967296",
    "99999999999999999999",
    "x99",
    "x32",
    "x0",
    "zero",
    "_start:",
    "end:",
    "_start",
    "\n",
    ":",
    ",",
    "(",
    ")",
    "\"",
    "#",
    "li",
    "la",
    "call",
    "j",
    "ret",
    "lui",
    "jalr",
    "beq",
    "ebreak",
];

/// Bytes a mutation may write: printable ASCII, line breaks, and a few
/// that are not valid UTF-8 on their own.
fn random_byte(rng: &mut SmallRng) -> u8 {
    match rng.random_range(0..8) {
        0 => *pick(rng, b"\n\t\0\xff\xc3"),
        _ => rng.random_range(0x20..0x7f_u8),
    }
}

/// One random edit of `text`.
fn mutate(text: &mut Vec<u8>, rng: &mut SmallRng) {
    let pos = rng.random_range(0..=text.len());
    match rng.random_range(0..9) {
        0 if pos < text.len() => text[pos] = random_byte(rng),
        1 if pos < text.len() => {
            text.remove(pos);
        }
        2 => text.insert(pos, random_byte(rng)),
        3 => {
            let token = pick(rng, TOKENS).as_bytes();
            text.splice(pos..pos, token.iter().copied());
        }
        4 | 5 => {
            // Replace (4) or delete (5) the whitespace-delimited word at
            // `pos`.
            let is_space = |b: &u8| b.is_ascii_whitespace();
            let start = text[..pos].iter().rposition(is_space).map_or(0, |i| i + 1);
            let end = text[pos..]
                .iter()
                .position(is_space)
                .map_or(text.len(), |i| pos + i);
            let token: &[u8] = if rng.random::<bool>() {
                pick(rng, TOKENS).as_bytes()
            } else {
                b""
            };
            text.splice(start..end, token.iter().copied());
        }
        6 | 7 => {
            // Move (6) or duplicate (7) a line to the end of the text.
            let mut lines: Vec<Vec<u8>> = text.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
            let line = rng.random_range(0..lines.len());
            let moved = if rng.random::<bool>() {
                lines.remove(line)
            } else {
                lines[line].clone()
            };
            lines.push(moved);
            *text = lines.join(&b'\n');
        }
        _ => text.truncate(pos),
    }
}

/// Run `f` on one input; a panic fails the test with the case and input.
fn survives(what: &str, case: usize, input: &dyn std::fmt::Debug, f: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        panic!("{what} case {case} panicked on input {input:?}");
    }
}

/// Without the entry-label checks in `assemble` and `lower`, case 296 of
/// the assembly stream panics (749 of its first 200,000 cases do, all on
/// that one fault); 10,000 cases of each kind take under two seconds in a
/// debug build.
const ASM_CASES: usize = 10_000;
const IMAGE_CASES: usize = 10_000;

#[test]
fn mutated_assembly_never_panics_the_assembler_or_lowering() {
    let sources: Vec<&str> = PROGRAMS.iter().chain(&KERNELS).map(|p| p.source).collect();
    let rng = &mut SmallRng::seed_from_u64(0x5eed_a55e);
    for case in 0..ASM_CASES {
        let mut text = pick(rng, &sources).as_bytes().to_vec();
        for _ in 0..rng.random_range(1..=3) {
            mutate(&mut text, rng);
        }
        let src = String::from_utf8_lossy(&text);
        survives("assembly", case, &src, || {
            if let Ok(rv) = assemble("fuzz", &src) {
                let _ = lower(&rv);
            }
        });
    }
}

#[test]
fn mutated_and_random_images_never_panic_the_decoder_or_lowering() {
    let images: Vec<Vec<u8>> = PROGRAMS
        .iter()
        .chain(&KERNELS)
        .map(|p| encode_program(&p.assemble()))
        .collect();
    let rng = &mut SmallRng::seed_from_u64(0x1_3a6e);
    for case in 0..IMAGE_CASES {
        let bytes = if rng.random::<bool>() {
            // A suite image with a few bytes overwritten, then cut short
            // at a word boundary, a partial word, or not at all.
            let mut bytes = pick(rng, &images).clone();
            for _ in 0..rng.random_range(1..=4) {
                let at = rng.random_range(0..bytes.len());
                bytes[at] = rng.random::<u64>() as u8;
            }
            match rng.random_range(0..3) {
                0 => bytes.truncate(rng.random_range(0..=bytes.len() / 4) * 4),
                1 => bytes.truncate(rng.random_range(0..=bytes.len())),
                _ => {}
            }
            bytes
        } else {
            (0..rng.random_range(0..=64))
                .map(|_| rng.random::<u64>() as u8)
                .collect()
        };
        survives("image", case, &bytes, || {
            if let Ok(rv) = decode_flat("fuzz", &bytes) {
                let _ = lower(&rv);
            }
        });
    }
}

/// A value just below, at or past `edge`, or anywhere.
fn near(rng: &mut SmallRng, edge: u32) -> u32 {
    match rng.random_range(0..4) {
        0 => edge.saturating_sub(1),
        1 => edge,
        2 => edge + rng.random_range(1..4) as u32,
        _ => rng.random::<u64>() as u32,
    }
}

/// Without the register and label checks in `lower`, 1,810 of these
/// 3,000 cases panic, the first at case 0; they take well under a second
/// in a debug build.
const EDIT_CASES: usize = 3_000;

#[test]
fn hand_edited_programs_never_panic_lowering() {
    let programs: Vec<_> = PROGRAMS
        .iter()
        .chain(&KERNELS)
        .map(|p| p.assemble())
        .collect();
    let rng = &mut SmallRng::seed_from_u64(0xed17_5eed);
    for case in 0..EDIT_CASES {
        let mut rv = pick(rng, &programs).clone();
        for _ in 0..rng.random_range(1..=3) {
            let len = rv.insts.len() as u32;
            let idx = rng.random_range(0..rv.insts.len());
            match rng.random_range(0..5) {
                0 => rv.insts[idx].rd = near(rng, 32) as u8,
                1 => rv.insts[idx].rs1 = near(rng, 32) as u8,
                2 => rv.insts[idx].rs2 = near(rng, 32) as u8,
                3 if !rv.labels.is_empty() => {
                    let label = rng.random_range(0..rv.labels.len());
                    rv.labels[label].1 = near(rng, len + 1);
                }
                _ => rv.entry = near(rng, len),
            }
        }
        survives("program edit", case, &rv, || {
            let _ = lower(&rv);
            let _ = RvTraceSource::new(&rv);
        });
    }
}

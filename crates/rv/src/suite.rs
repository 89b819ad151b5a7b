//! The checked-in RV32 test-program suite (`tests/programs/*.s`),
//! embedded at compile time so integration tests, the fuzzer's sanity
//! anchors, and the experiments driver all run the same real programs,
//! plus the assembly kernels (`tests/programs/kernels/*.s`) that only
//! tests and `mossim --rv NAME` run.

use crate::asm::assemble;
use crate::inst::RvProgram;

/// One suite program: its source plus the register values a correct run
/// must end with.
#[derive(Debug, Clone, Copy)]
pub struct RvTestProgram {
    /// Program name (file stem under `tests/programs/`).
    pub name: &'static str,
    /// Assembly source text.
    pub source: &'static str,
    /// `(register, value)` pairs checked after a clean halt.
    pub expect: &'static [(u8, u32)],
}

impl RvTestProgram {
    /// Assemble the source.
    ///
    /// # Panics
    ///
    /// Panics if the checked-in source no longer assembles.
    pub fn assemble(&self) -> RvProgram {
        assemble(self.name, self.source)
            .unwrap_or_else(|e| panic!("suite program `{}`: {e}", self.name))
    }
}

/// A0 shorthand for the expectation tables.
const A0: u8 = 10;

/// The full suite: loops, recursion, memory kernels and branchy code.
pub const PROGRAMS: [RvTestProgram; 7] = [
    RvTestProgram {
        name: "sum_loop",
        source: include_str!("../../../tests/programs/sum_loop.s"),
        expect: &[(A0, 5050)],
    },
    RvTestProgram {
        name: "fib_rec",
        source: include_str!("../../../tests/programs/fib_rec.s"),
        expect: &[(A0, 144)],
    },
    RvTestProgram {
        name: "memcpy",
        source: include_str!("../../../tests/programs/memcpy.s"),
        expect: &[(A0, 32640)],
    },
    RvTestProgram {
        name: "strlen",
        source: include_str!("../../../tests/programs/strlen.s"),
        expect: &[(A0, 19)],
    },
    RvTestProgram {
        name: "gcd",
        source: include_str!("../../../tests/programs/gcd.s"),
        expect: &[(A0, 354)],
    },
    RvTestProgram {
        name: "collatz",
        source: include_str!("../../../tests/programs/collatz.s"),
        expect: &[(A0, 709)],
    },
    RvTestProgram {
        name: "bubble_sort",
        source: include_str!("../../../tests/programs/bubble_sort.s"),
        expect: &[(A0, 26784)],
    },
];

/// The assembly kernels: more small programs for the tests, kept out of
/// [`PROGRAMS`] so the suite-wide experiments, `mossim rvdiff`'s default
/// set and the host benchmark keep their inputs.
pub const KERNELS: [RvTestProgram; 8] = [
    RvTestProgram {
        name: "dot_product",
        source: include_str!("../../../tests/programs/kernels/dot_product.s"),
        expect: &[(A0, 4160)],
    },
    RvTestProgram {
        name: "list_chase",
        source: include_str!("../../../tests/programs/kernels/list_chase.s"),
        expect: &[(A0, 448)],
    },
    RvTestProgram {
        name: "string_hash",
        source: include_str!("../../../tests/programs/kernels/string_hash.s"),
        expect: &[(A0, 6138493)],
    },
    RvTestProgram {
        name: "fibonacci",
        source: include_str!("../../../tests/programs/kernels/fibonacci.s"),
        expect: &[(A0, 832040)],
    },
    RvTestProgram {
        name: "call_tree",
        source: include_str!("../../../tests/programs/kernels/call_tree.s"),
        expect: &[(A0, 2047)],
    },
    RvTestProgram {
        name: "matmul",
        source: include_str!("../../../tests/programs/kernels/matmul.s"),
        expect: &[(A0, 16)],
    },
    RvTestProgram {
        name: "checksum",
        source: include_str!("../../../tests/programs/kernels/checksum.s"),
        expect: &[(A0, 30627)],
    },
    RvTestProgram {
        name: "binsearch",
        source: include_str!("../../../tests/programs/kernels/binsearch.s"),
        expect: &[(A0, 11)],
    },
];

/// Look up a suite program or kernel by name.
pub fn by_name(name: &str) -> Option<&'static RvTestProgram> {
    PROGRAMS.iter().chain(&KERNELS).find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::RvInterp;

    #[test]
    fn every_program_halts_with_its_expected_registers() {
        for p in PROGRAMS.iter().chain(&KERNELS) {
            let rv = p.assemble();
            let mut interp = RvInterp::new(&rv);
            interp.run_collect(10_000_000);
            assert!(
                interp.stopped_cleanly(),
                "{}: did not halt cleanly (retired {})",
                p.name,
                interp.retired()
            );
            for &(reg, want) in p.expect {
                assert_eq!(interp.state().reg(reg), want, "{}: x{reg} mismatch", p.name);
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("gcd").unwrap().name, "gcd");
        assert_eq!(by_name("matmul").unwrap().name, "matmul");
        assert!(by_name("missing").is_none());
        let mut names: Vec<_> = PROGRAMS.iter().chain(&KERNELS).map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            PROGRAMS.len() + KERNELS.len(),
            "names are unique"
        );
    }
}

//! # mos-asm
//!
//! The architectural (functional) interpreter for native `mos-isa`
//! programs. It turns a [`mos_isa::Program`] into the exact committed-path
//! dynamic trace ([`mos_isa::DynInst`] stream) the timing simulator
//! consumes, and is the golden reference the random-program property tests
//! check every scheduler against. Hand-written programs are RV32 assembly,
//! run through `mos-rv`; native programs are built from
//! [`mos_isa::StaticInst`]s.
//!
//! ## Example
//!
//! ```
//! use mos_asm::Interpreter;
//! use mos_isa::{Opcode, Program, Reg, StaticInst};
//!
//! let r1 = Reg::int(1);
//! let img = Program::from_insts(
//!     "countdown",
//!     [
//!         StaticInst::li(r1, 3),
//!         StaticInst::addi(r1, r1, -1),
//!         StaticInst::branch(Opcode::Bnez, r1, 1),
//!         StaticInst::halt(),
//!     ],
//! );
//! let (trace, state) = Interpreter::new(&img).run_collect(1_000);
//! assert_eq!(state.int_reg(r1), 0);
//! assert_eq!(trace.len(), 7); // li + 3x(addi, bnez)
//! ```

#![warn(missing_docs)]

mod interp;

pub use interp::{ArchState, Interpreter};

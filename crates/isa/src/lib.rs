//! # mos-isa
//!
//! Instruction-set model used throughout the `mopsched` workspace — a small
//! RISC-style 64-bit ISA in the spirit of the Alpha AXP ISA the paper's
//! SimpleScalar-derived simulator executed.
//!
//! The crate defines:
//!
//! * [`Reg`] — architectural registers (32 integer + 32 floating-point),
//! * [`Opcode`] and [`InstClass`] — operations with the latency classes of
//!   Table 1 of the paper (single-cycle integer ALU, 3/20-cycle integer
//!   multiply/divide, 2/4/24-cycle FP, loads, split stores, control),
//! * [`StaticInst`] and [`Program`] — static code as fetched from the
//!   instruction cache (program counters are `4 * index`),
//! * [`DynInst`] and [`TraceSource`] — the dynamic, committed-path oracle
//!   trace a timing simulator consumes (branch outcomes and effective
//!   addresses), produced by the RV32 frontend in `mos-rv`, the native
//!   functional interpreter in `mos-asm`, or the synthetic workload walker
//!   in `mos-workload`,
//! * [`FixedList`] and [`SmallList`] — inline lists for the short,
//!   bounded source operand lists the per-instruction pipeline path
//!   carries (fixed capacity, and inline-first with a heap spill).
//!
//! Macro-op scheduling vocabulary also starts here: [`StaticInst::is_mop_candidate`]
//! identifies single-cycle operations eligible for grouping and
//! [`StaticInst::is_value_generating_candidate`] the subset that produces a
//! register value (potential MOP heads).
//!
//! ```
//! use mos_isa::{Program, Reg, StaticInst};
//!
//! let mut p = Program::new("doc");
//! let r1 = Reg::int(1);
//! let r2 = Reg::int(2);
//! p.push(StaticInst::addi(r1, Reg::ZERO, 5));
//! p.push(StaticInst::add(r2, r1, r1));
//! assert!(p.inst(0).unwrap().is_value_generating_candidate());
//! assert_eq!(p.len(), 2);
//! ```

#![warn(missing_docs)]

mod class;
mod inst;
mod opcode;
mod program;
mod reg;
mod small;
mod trace;

pub use class::{FuKind, InstClass};
pub use inst::StaticInst;
pub use opcode::Opcode;
pub use program::{Program, ProgramBuildError};
pub use reg::Reg;
pub use small::{FixedList, SmallList};
pub use trace::{DynInst, ReplayTrace, TraceSource};

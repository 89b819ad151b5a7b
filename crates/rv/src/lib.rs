//! RV32I(+M) frontend for the macro-op scheduling study: run *real*
//! RISC-V programs through the MOP pipeline, validated by a differential
//! functional oracle.
//!
//! The repo's timing simulator is trace-driven: it consumes a static
//! program plus a committed-path [`mos_isa::DynInst`] stream and models
//! *when* things happen, never *what* values they compute. This crate
//! supplies that pair for real RISC-V code:
//!
//! - [`asm::assemble`] parses RV32 assembly (GNU-`as`-subset syntax with
//!   ABI register names and the common pseudo-instructions);
//!   [`encode::decode_flat`] loads pre-encoded flat binaries.
//! - [`lower::lower`] translates RV32 instructions into the custom uop
//!   ISA the scheduler models (mostly 1:1; link-register jumps become
//!   2-uop bundles), with maps between the two index spaces.
//! - [`interp::RvInterp`] executes full RV32I+M semantics — the
//!   *functional oracle* — and [`trace::RvTraceSource`] turns its retired
//!   instructions into the committed uop stream the pipeline fetches.
//! - [`diff::run_differential`] closes the loop: the pipeline's committed
//!   uop sequence must equal the oracle's expansion, and replaying those
//!   commits must reproduce the oracle's final register/memory state.
//!
//! [`suite::PROGRAMS`] carries the checked-in real-program suite
//! (`tests/programs/*.s`): loops, recursion, memcpy/strlen-style memory
//! kernels, and branchy code. [`suite::KERNELS`] holds more small
//! programs (`tests/programs/kernels/*.s`) that only tests and `mossim
//! --rv NAME` run.

#![warn(missing_docs)]

pub mod asm;
pub mod diff;
pub mod encode;
pub mod inst;
pub mod interp;
pub mod lower;
pub mod suite;
pub mod trace;

pub use asm::{assemble, RvAsmError};
pub use diff::{run_differential, DiffError, DiffReport};
pub use encode::{decode_flat, encode_program, RvDecodeError};
pub use inst::{RvInst, RvOp, RvProgram};
pub use interp::{RvInterp, RvState};
pub use lower::{lower, map_reg, LowerError, Lowered};
/// The scheduler-label table lives in `mos-sim`; re-exported here for
/// callers that name schedulers alongside [`run_differential`].
pub use mos_sim::{config_for, SCHED_KINDS};
pub use trace::RvTraceSource;

//! # mos-workload
//!
//! Workloads for the `mopsched` study. The paper evaluated SPEC CINT2000
//! Alpha binaries; those cannot be run here, so this crate provides the
//! documented substitution (see DESIGN.md §2): [`spec2000`] holds twelve
//! **synthetic benchmark models** named for the paper's benchmarks. Each
//! [`WorkloadSpec`] fixes the knobs the paper's mechanisms are sensitive
//! to — the fraction of value-generating MOP candidates (Figure 6's
//! `% total insts` header), the dependence-edge distance distribution
//! (Figure 6's bars: gap short, vortex long), the instruction mix, branch
//! predictability, and the memory working set (mcf ≫ L2). `synth` expands
//! a spec into a real *static program* (loop body with skip-branch
//! diamonds, leaf calls, a back edge) plus a seeded stochastic walker
//! yielding the committed-path trace, so PCs repeat, predictors learn,
//! I-cache lines and MOP pointers get reuse, and wrong-path fetch walks
//! real code.
//!
//! Real programs are RV32 assembly, run by the `mos-rv` frontend.
//!
//! ```
//! use mos_isa::TraceSource;
//! let mut trace = mos_workload::spec2000::by_name("gzip").unwrap().trace(7);
//! let first = trace.next().unwrap();
//! assert!(trace.program().inst(first.sidx).is_some());
//! ```

#![warn(missing_docs)]

pub mod spec2000;
mod synth;

pub use spec2000::WorkloadSpec;
pub use synth::{SynthTrace, SyntheticProgram};

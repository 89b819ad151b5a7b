//! # mopsched — Macro-op Scheduling
//!
//! A production-quality Rust reproduction of *Macro-op Scheduling: Relaxing
//! Scheduling Loop Constraints* (Ilhyun Kim and Mikko H. Lipasti, MICRO-36,
//! 2003), including the full cycle-level out-of-order substrate the paper's
//! evaluation requires.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`isa`] — the RISC-style instruction set, static programs and traces,
//! * [`rv`] — the RV32I(+M) frontend: assembler, loader, lowering and the
//!   differential functional oracle for running real RISC-V programs,
//! * [`analysis`] — dataflow-graph analysis and analytical schedule bounds,
//! * [`workload`] — synthetic SPEC CINT2000 benchmark models,
//! * [`uarch`] — branch predictors and the cache hierarchy,
//! * [`core`] — macro-op detection/formation and all scheduler models,
//! * [`metrics`] — histograms, interval time series and run reports,
//! * [`ledger`] — the content-addressed run archive: persistent records
//!   with provenance and cross-run diffing,
//! * [`sim`] — the 13-stage out-of-order pipeline simulator,
//! * [`experiments`] — the per-table/figure reproduction harness.
//!
//! ## Quickstart
//!
//! ```
//! use mopsched::sim::{MachineConfig, Simulator};
//! use mopsched::workload::spec2000;
//!
//! let trace = spec2000::by_name("gzip").unwrap().trace(42);
//! let mut sim = Simulator::new(MachineConfig::base_unrestricted(), trace);
//! let stats = sim.run(20_000);
//! assert!(stats.ipc() > 0.1);
//! ```

pub use mos_analysis as analysis;
pub use mos_core as core;
pub use mos_experiments as experiments;
pub use mos_isa as isa;
pub use mos_ledger as ledger;
pub use mos_metrics as metrics;
pub use mos_rv as rv;
pub use mos_sim as sim;
pub use mos_uarch as uarch;
pub use mos_workload as workload;

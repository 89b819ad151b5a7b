//! # mosbench
//!
//! The host-performance benchmark of the mopsched simulator. It runs four
//! pinned workloads of release-build simulations through the public
//! `Simulator` / `run_differential` APIs, checks every simulated result,
//! and reports end-to-end metrics (`sim_kips`, `setup_s`, `peak_rss_mb`);
//! a separate traced run drives each layer's public API with each job's
//! committed stream for per-layer numbers. See `README.md` for the
//! workload and metric tables, the bounds, and how to read a traced run.
//!
//! * [`workload`] — the four workloads, their jobs and round counts;
//! * [`measure`] — the untraced run: set-up, checked warm-up, best-of-R
//!   timed rounds;
//! * [`traced`] — spans and the per-layer drives;
//! * [`digest`] — observer-independent results and the pinned tables;
//! * [`cpus`] — rotating the timed rounds over the allowed CPUs.

#![warn(missing_docs)]

pub mod cpus;
pub mod digest;
pub mod measure;
pub mod traced;
pub mod workload;

pub use measure::{Metric, Outcome, Settings};
pub use workload::{Job, Workload};

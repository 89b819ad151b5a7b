//! # mos-experiments
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation, each returning a typed result that renders the same rows
//! the paper reports and is consumed by the `experiments` CLI:
//!
//! ```text
//! experiments table1|table2|fig6|fig7|fig13|fig14|fig15|fig16|ablations|extensions|rv|all
//! experiments perf
//! ```
//!
//! Every simulating study takes a [`runner::Sweep`]: the budget, the
//! worker count, and the totals (simulated cycles, commits, scheduler
//! kinds) of every run the study made, which `experiments perf` reports.
//!
//! * [`fig6`] / [`fig7`] — the machine-independent characterizations of
//!   Section 4 (dependence-edge distance; groupable instructions).
//! * [`tables`] — Table 1 (machine configuration) and Table 2 (base IPCs).
//! * [`fig13`] — grouped-instruction breakdown in the real pipeline.
//! * [`fig14`] — vanilla macro-op scheduling (unrestricted queue).
//! * [`fig15`] — macro-op scheduling under issue-queue contention with
//!   0/1/2 extra formation stages.
//! * [`fig16`] — comparison against select-free scheduling.
//! * [`ablations`] — the design-choice studies the paper calls out:
//!   detection delay (3 vs 100 cycles), cycle-detection heuristic vs
//!   precise, the last-arriving-operand filter, independent MOPs, and
//!   MOP sizes beyond 2 (future work).
//! * [`extensions`] — studies beyond the paper: the full pipelined-
//!   scheduler design space including Stark et al.'s speculative wakeup,
//!   a detection-scope sweep, and the effective-window quantification.
//! * [`rvsuite`] — the RV32 real-program suite under every scheduler
//!   (IPC grid; `mossim rvdiff` reports its pairability and sched_loop
//!   share).
//!
//! Absolute numbers come from the documented synthetic-workload
//! substitution (see DESIGN.md); the *shape* of each result — who wins,
//! by roughly what factor, where the crossovers fall — is the
//! reproduction target, recorded against the paper in EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod ablations;
pub mod extensions;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig6;
pub mod fig7;
pub mod runner;
pub mod rvsuite;
pub mod tables;

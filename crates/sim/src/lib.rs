//! # mos-sim
//!
//! The 13-stage, 4-wide out-of-order pipeline of the paper's machine model
//! (Figure 2 / Table 1):
//!
//! ```text
//! Fetch Decode Rename Rename Queue | Sched | Disp Disp RF RF Exe | WB Commit
//! ```
//!
//! The simulator is timing-directed and oracle-trace driven: committed-path
//! instruction identity, branch outcomes, and effective addresses come from
//! a [`mos_isa::TraceSource`], while **wrong-path fetch walks the real
//! static program** under the branch predictor, so mispredictions fill the
//! window with wrong-path work, MOP tails get invalidated by squashes, and
//! refill latency is modeled rather than assumed.
//!
//! Features of the model:
//!
//! * 4-wide fetch stopping at the first predicted-taken branch and at
//!   I-cache line boundaries; 16KB IL1 / 16KB DL1 / 256KB unified L2 /
//!   100-cycle memory; combined bimodal-gshare predictor, BTB and RAS with
//!   checkpoint-based recovery;
//! * speculative scheduling of loads with selective replay (2-cycle
//!   penalty), driven by `mos-core`'s issue queue;
//! * the full macro-op machinery when configured: detection from the
//!   renamed stream, pointers riding I-cache lines (with a configurable
//!   detection delay), formation with 0–2 extra pipeline stages, pending
//!   bits, half-squashed MOPs, and the last-arriving-operand filter;
//! * every scheduler of Section 6.2 via [`MachineConfig`] presets, named
//!   by the labels in [`SCHED_KINDS`] ([`config_for`] and
//!   [`MachineConfig::sched_label`] map between the two).
//!
//! ```
//! use mos_sim::{MachineConfig, Simulator};
//!
//! let trace = mos_workload::spec2000::by_name("gzip").unwrap().trace(42);
//! let stats = Simulator::new(MachineConfig::base_unrestricted(), trace).run(5_000);
//! assert!(stats.ipc() > 0.5);
//! ```

#![warn(missing_docs)]

mod config;
pub mod cpistack;
pub mod events;
pub mod metrics;
pub mod oracle;
pub mod report;
mod sim;
mod stats;
pub mod timeline;

pub use config::{config_for, MachineConfig, SCHED_KINDS};
pub use cpistack::CpiStack;
pub use events::{
    EventCounts, EventKinds, EventSink, RingSink, SharedCommitLog, SharedRing, TeeSink, TraceEvent,
};
pub use metrics::SimMetrics;
pub use oracle::{InvariantOracle, OracleMode, Violation};
pub use report::RunReport;
pub use sim::{Simulator, StaticRecord};
pub use stats::SimStats;

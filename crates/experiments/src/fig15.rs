//! Figure 15: macro-op scheduling under issue-queue contention —
//! 32-entry queue, 128 ROB. Solid bars use 1 extra MOP formation stage;
//! the paper's error bars (0 and 2 extra stages) are reported alongside.
//! Here macro-op scheduling additionally benefits from two instructions
//! sharing one queue entry, and outperforms the baseline on several
//! benchmarks.

use std::fmt;

use mos_core::WakeupStyle;
use mos_sim::MachineConfig;
use mos_workload::spec2000;

use crate::runner::{geomean, Sweep};

/// One benchmark's normalized IPCs under contention.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Row {
    /// Benchmark name.
    pub bench: String,
    /// Base-scheduling IPC with the 32-entry queue.
    pub base_ipc: f64,
    /// 2-cycle scheduling, normalized.
    pub two_cycle: f64,
    /// Macro-op, 2-source wakeup, with 0/1/2 extra formation stages.
    pub mop_2src: [f64; 3],
    /// Macro-op, wired-OR wakeup, with 0/1/2 extra formation stages.
    pub mop_wired_or: [f64; 3],
}

/// The full Figure 15 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Result {
    /// Rows in the paper's benchmark order.
    pub rows: Vec<Fig15Row>,
}

impl Fig15Result {
    /// Geomean normalized IPC for wired-OR with 1 extra stage (the paper
    /// measures a 0.1 % average slowdown).
    pub fn mean_wired_or_1stage(&self) -> f64 {
        geomean(
            &self
                .rows
                .iter()
                .map(|r| r.mop_wired_or[1])
                .collect::<Vec<_>>(),
        )
    }
}

/// The eight configurations of one Figure 15 row, in column order:
/// base, 2-cycle, then 0/1/2 extra stages for each wakeup style.
fn configs() -> [MachineConfig; 8] {
    let mop = |style: WakeupStyle, stages: u32| MachineConfig::macro_op(style, Some(32), stages);
    [
        MachineConfig::base_32(),
        MachineConfig::two_cycle_32(),
        mop(WakeupStyle::CamTwoSource, 0),
        mop(WakeupStyle::CamTwoSource, 1),
        mop(WakeupStyle::CamTwoSource, 2),
        mop(WakeupStyle::WiredOr, 0),
        mop(WakeupStyle::WiredOr, 1),
        mop(WakeupStyle::WiredOr, 2),
    ]
}

/// Run Figure 15.
pub fn run(sweep: &Sweep) -> Fig15Result {
    let benches = spec2000::names();
    let rows = benches
        .iter()
        .zip(sweep.grid(&benches, &configs()))
        .map(|(&name, s)| {
            let base = s[0].ipc();
            let norm = |i: usize| s[i].ipc() / base;
            Fig15Row {
                bench: name.to_owned(),
                base_ipc: base,
                two_cycle: norm(1),
                mop_2src: [norm(2), norm(3), norm(4)],
                mop_wired_or: [norm(5), norm(6), norm(7)],
            }
        })
        .collect();
    Fig15Result { rows }
}

impl fmt::Display for Fig15Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 15: macro-op scheduling under issue queue contention (32-entry queue)"
        )?;
        writeln!(
            f,
            "{:8} {:>7} {:>7} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}  (normalized; extra stages 0/1/2)",
            "bench", "base", "2cyc", "2src+0", "2src+1", "2src+2", "wOR+0", "wOR+1", "wOR+2"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:8} {:7.3} {:7.3} | {:6.3} {:6.3} {:6.3} | {:6.3} {:6.3} {:6.3}",
                r.bench,
                r.base_ipc,
                r.two_cycle,
                r.mop_2src[0],
                r.mop_2src[1],
                r.mop_2src[2],
                r.mop_wired_or[0],
                r.mop_wired_or[1],
                r.mop_wired_or[2],
            )?;
        }
        writeln!(
            f,
            "geomean MOP-wiredOR (1 extra stage): {:.3} of base (paper: 0.999)",
            self.mean_wired_or_1stage()
        )
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::runner::quick_sweep;

    /// The quick sweep, run once for every test in this module.
    fn quick() -> &'static Fig15Result {
        static RESULT: OnceLock<Fig15Result> = OnceLock::new();
        RESULT.get_or_init(|| run(&quick_sweep()))
    }

    #[test]
    fn contention_narrows_the_gap_to_base() {
        // With a 32-entry queue, entry sharing pulls MOP scheduling to
        // (or past) base — closer than in the unrestricted Figure 14 run.
        let r15 = quick();
        let mean = r15.mean_wired_or_1stage();
        assert!(mean > 0.94, "mean {mean:.3}");
        // Some benchmarks outperform the baseline (paper: eon, gap, gcc,
        // mcf, perl, vortex).
        let above = r15.rows.iter().filter(|r| r.mop_wired_or[1] > 1.0).count();
        assert!(above >= 1, "at least one benchmark should beat base");
    }

    #[test]
    fn extra_stages_only_cost_performance() {
        let r = quick();
        for row in &r.rows {
            assert!(
                row.mop_wired_or[2] <= row.mop_wired_or[0] + 0.03,
                "{}: +2 stages {:.3} vs +0 {:.3}",
                row.bench,
                row.mop_wired_or[2],
                row.mop_wired_or[0]
            );
        }
    }
}

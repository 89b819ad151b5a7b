//! Figure 16: pipelined scheduling logic compared — select-free
//! scheduling (Brown et al.), both recovery schemes, against macro-op
//! scheduling with wired-OR wakeup (1 extra formation stage), all with
//! the 32-entry queue.

use std::fmt;

use mos_core::WakeupStyle;
use mos_sim::MachineConfig;
use mos_workload::spec2000;

use crate::runner::{geomean, Sweep};

/// One benchmark's normalized IPCs.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Row {
    /// Benchmark name.
    pub bench: String,
    /// Base-scheduling IPC with the 32-entry queue.
    pub base_ipc: f64,
    /// Select-free, Squash Dep recovery, normalized.
    pub select_free_squash_dep: f64,
    /// Select-free, Scoreboard recovery, normalized.
    pub select_free_scoreboard: f64,
    /// Macro-op scheduling (wired-OR, 1 extra stage), normalized.
    pub mop_wired_or: f64,
}

/// The full Figure 16 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Result {
    /// Rows in the paper's benchmark order.
    pub rows: Vec<Fig16Row>,
}

impl Fig16Result {
    /// Geomeans of (squash-dep, scoreboard, macro-op).
    pub fn means(&self) -> (f64, f64, f64) {
        (
            geomean(
                &self
                    .rows
                    .iter()
                    .map(|r| r.select_free_squash_dep)
                    .collect::<Vec<_>>(),
            ),
            geomean(
                &self
                    .rows
                    .iter()
                    .map(|r| r.select_free_scoreboard)
                    .collect::<Vec<_>>(),
            ),
            geomean(&self.rows.iter().map(|r| r.mop_wired_or).collect::<Vec<_>>()),
        )
    }
}

/// The four configurations of one Figure 16 row, in column order.
pub(crate) fn configs() -> [MachineConfig; 4] {
    [
        MachineConfig::base_32(),
        MachineConfig::select_free_squash_dep_32(),
        MachineConfig::select_free_scoreboard_32(),
        MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
    ]
}

/// Run Figure 16.
pub fn run(sweep: &Sweep) -> Fig16Result {
    let benches = spec2000::names();
    let rows = benches
        .iter()
        .zip(sweep.grid(&benches, &configs()))
        .map(|(&name, s)| {
            let base = s[0].ipc();
            Fig16Row {
                bench: name.to_owned(),
                base_ipc: base,
                select_free_squash_dep: s[1].ipc() / base,
                select_free_scoreboard: s[2].ipc() / base,
                mop_wired_or: s[3].ipc() / base,
            }
        })
        .collect();
    Fig16Result { rows }
}

impl fmt::Display for Fig16Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 16: pipelined scheduling logic (32-entry queue, normalized to base)"
        )?;
        writeln!(
            f,
            "{:8} {:>7} | {:>9} {:>10} {:>8}",
            "bench", "base", "sf-squash", "sf-scoreb", "MOP-wOR"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:8} {:7.3} | {:9.3} {:10.3} {:8.3}",
                r.bench,
                r.base_ipc,
                r.select_free_squash_dep,
                r.select_free_scoreboard,
                r.mop_wired_or
            )?;
        }
        let (sd, sb, m) = self.means();
        writeln!(
            f,
            "geomean: squash-dep {sd:.3}, scoreboard {sb:.3}, MOP {m:.3} \
             (paper: squash-dep slightly below MOP, scoreboard noticeably below)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::quick_sweep;

    #[test]
    fn select_free_cannot_beat_base_and_mop_can() {
        let r = run(&quick_sweep());
        let (sd, sb, m) = r.means();
        // Select-free is speculative: it does not outperform the baseline.
        assert!(sd <= 1.005, "squash-dep {sd:.3}");
        assert!(sb <= 1.005, "scoreboard {sb:.3}");
        // Scoreboard recovery loses more than squash-dep (pileup victims
        // consume issue bandwidth).
        assert!(sb <= sd + 0.01, "scoreboard {sb:.3} vs squash-dep {sd:.3}");
        // Macro-op scheduling is non-speculative and competitive.
        assert!(m >= sb - 0.01, "MOP {m:.3} vs scoreboard {sb:.3}");
    }
}

//! Figure 14: vanilla macro-op scheduling performance — unrestricted
//! issue queue, 128 ROB, no extra formation stage, so macro-op scheduling
//! gets no benefit from queue-contention reduction and the comparison
//! isolates the relaxed scheduling atomicity.

use std::fmt;

use mos_core::WakeupStyle;
use mos_sim::MachineConfig;
use mos_workload::spec2000;

use crate::runner::{geomean, Sweep};

/// IPC relative to base scheduling for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Row {
    /// Benchmark name.
    pub bench: String,
    /// Base-scheduling IPC (the normalization denominator).
    pub base_ipc: f64,
    /// 2-cycle scheduling, normalized.
    pub two_cycle: f64,
    /// Macro-op scheduling with 2-source CAM wakeup, normalized.
    pub mop_2src: f64,
    /// Macro-op scheduling with wired-OR wakeup, normalized.
    pub mop_wired_or: f64,
}

/// The full Figure 14 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Result {
    /// Rows in the paper's benchmark order.
    pub rows: Vec<Fig14Row>,
}

impl Fig14Result {
    /// Geometric-mean normalized IPC of macro-op scheduling with wired-OR
    /// wakeup (the paper reports 97.2 % of base on average).
    pub fn mean_mop_wired_or(&self) -> f64 {
        geomean(&self.rows.iter().map(|r| r.mop_wired_or).collect::<Vec<_>>())
    }

    /// Geometric-mean normalized IPC of 2-cycle scheduling.
    pub fn mean_two_cycle(&self) -> f64 {
        geomean(&self.rows.iter().map(|r| r.two_cycle).collect::<Vec<_>>())
    }
}

/// The four configurations of one Figure 14 row, in column order.
fn configs() -> [MachineConfig; 4] {
    [
        MachineConfig::base_unrestricted(),
        MachineConfig::two_cycle_unrestricted(),
        MachineConfig::macro_op(WakeupStyle::CamTwoSource, None, 0),
        MachineConfig::macro_op(WakeupStyle::WiredOr, None, 0),
    ]
}

/// Run Figure 14.
pub fn run(sweep: &Sweep) -> Fig14Result {
    let benches = spec2000::names();
    let rows = benches
        .iter()
        .zip(sweep.grid(&benches, &configs()))
        .map(|(&name, s)| {
            let base = s[0].ipc();
            Fig14Row {
                bench: name.to_owned(),
                base_ipc: base,
                two_cycle: s[1].ipc() / base,
                mop_2src: s[2].ipc() / base,
                mop_wired_or: s[3].ipc() / base,
            }
        })
        .collect();
    Fig14Result { rows }
}

impl fmt::Display for Fig14Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 14: vanilla macro-op scheduling (unrestricted queue, no extra stage)"
        )?;
        writeln!(
            f,
            "{:8} {:>8} | {:>7} {:>8} {:>8}  (IPC normalized to base)",
            "bench", "base", "2-cycle", "MOP-2src", "MOP-wOR"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:8} {:8.3} | {:7.3} {:8.3} {:8.3}",
                r.bench, r.base_ipc, r.two_cycle, r.mop_2src, r.mop_wired_or
            )?;
        }
        writeln!(
            f,
            "geomean: 2-cycle {:.3}, MOP-wiredOR {:.3} (paper: ~0.92 and 0.972)",
            self.mean_two_cycle(),
            self.mean_mop_wired_or()
        )
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::runner::quick_sweep;

    /// The quick sweep, run once for every test in this module.
    fn quick() -> &'static Fig14Result {
        static RESULT: OnceLock<Fig14Result> = OnceLock::new();
        RESULT.get_or_init(|| run(&quick_sweep()))
    }

    #[test]
    fn macro_op_recovers_two_cycle_loss() {
        let r = quick();
        for row in &r.rows {
            assert!(
                row.mop_wired_or >= row.two_cycle - 0.02,
                "{}: MOP {:.3} vs 2-cycle {:.3}",
                row.bench,
                row.mop_wired_or,
                row.two_cycle
            );
        }
        assert!(r.mean_mop_wired_or() > r.mean_two_cycle());
        // MOP scheduling lands near base on average (paper: 97.2 %).
        assert!(r.mean_mop_wired_or() > 0.93, "{:.3}", r.mean_mop_wired_or());
    }

    /// The tentpole guarantee: fanning the grid across worker threads
    /// must not change a single result relative to the serial path.
    #[test]
    fn parallel_jobs_are_deterministic() {
        let serial = run(&Sweep::new(6_000, 1));
        let threaded = run(&Sweep::new(6_000, 8));
        assert_eq!(serial, threaded);
    }

    #[test]
    fn gap_suffers_most_under_two_cycle() {
        let r = quick();
        let gap = r.rows.iter().find(|r| r.bench == "gap").expect("gap row");
        for row in &r.rows {
            assert!(
                gap.two_cycle <= row.two_cycle + 0.03,
                "gap {:.3} should be the worst, {} is {:.3}",
                gap.two_cycle,
                row.bench,
                row.two_cycle
            );
        }
        assert!(
            gap.two_cycle < 0.90,
            "paper: -19.1 %, got {:.3}",
            gap.two_cycle
        );
    }
}

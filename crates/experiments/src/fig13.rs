//! Figure 13: grouped instructions in macro-op scheduling — the real
//! pipeline's grouping coverage (as opposed to Figure 7's idealized
//! characterization), for CAM-style 2-source and wired-OR wakeup.

use std::fmt;

use mos_core::{GroupRole, WakeupStyle};
use mos_sim::MachineConfig;
use mos_workload::spec2000;

use crate::runner::Sweep;

/// Grouping breakdown of committed instructions for one wakeup style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoleShare {
    /// Dependent MOP members that generate values.
    pub valuegen: f64,
    /// Dependent MOP members that do not (branches, store agen).
    pub nonvaluegen: f64,
    /// Independent MOP members (Section 5.4.1).
    pub independent: f64,
    /// Candidates never grouped.
    pub candidate_ungrouped: f64,
    /// Non-candidates.
    pub not_candidate: f64,
}

impl RoleShare {
    /// Total grouped fraction.
    pub fn grouped(&self) -> f64 {
        self.valuegen + self.nonvaluegen + self.independent
    }

    fn from_stats(s: &mos_sim::SimStats) -> RoleShare {
        RoleShare {
            valuegen: s.role_frac(GroupRole::MopValueGen),
            nonvaluegen: s.role_frac(GroupRole::MopNonValueGen),
            independent: s.role_frac(GroupRole::MopIndependent),
            candidate_ungrouped: s.role_frac(GroupRole::NotGrouped),
            not_candidate: s.role_frac(GroupRole::NotCandidate),
        }
    }
}

/// One benchmark's Figure 13 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Row {
    /// Benchmark name.
    pub bench: String,
    /// CAM-style wakeup with two source comparators.
    pub two_src: RoleShare,
    /// Wired-OR wakeup (no source limit).
    pub wired_or: RoleShare,
}

/// The full Figure 13 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Result {
    /// Rows in the paper's benchmark order.
    pub rows: Vec<Fig13Row>,
    /// Mean reduction in scheduler insertions across benchmarks
    /// (paper: 16.2 %).
    pub mean_insert_reduction: f64,
}

/// Run Figure 13 (32-entry queue, 1 extra formation stage, as in the
/// paper's main configuration).
pub fn run(sweep: &Sweep) -> Fig13Result {
    let benches = spec2000::names();
    let cfgs = [
        MachineConfig::macro_op(WakeupStyle::CamTwoSource, Some(32), 1),
        MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
    ];
    let mut rows = Vec::new();
    let mut reductions = Vec::new();
    for (&name, pair) in benches.iter().zip(sweep.grid(&benches, &cfgs)) {
        let (cam, wor) = (&pair[0], &pair[1]);
        reductions.push(wor.insert_reduction());
        rows.push(Fig13Row {
            bench: name.to_owned(),
            two_src: RoleShare::from_stats(cam),
            wired_or: RoleShare::from_stats(wor),
        });
    }
    let mean_insert_reduction = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
    Fig13Result {
        rows,
        mean_insert_reduction,
    }
}

impl fmt::Display for Fig13Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 13: grouped instructions in macro-op scheduling")?;
        writeln!(
            f,
            "{:8} | {:>5} {:>5} {:>5} {:>6} | {:>5} {:>5} {:>5} {:>6}  (% of committed)",
            "bench", "2s-vg", "2s-nv", "2s-in", "2s-tot", "wo-vg", "wo-nv", "wo-in", "wo-tot"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:8} | {:5.1} {:5.1} {:5.1} {:6.1} | {:5.1} {:5.1} {:5.1} {:6.1}",
                r.bench,
                100.0 * r.two_src.valuegen,
                100.0 * r.two_src.nonvaluegen,
                100.0 * r.two_src.independent,
                100.0 * r.two_src.grouped(),
                100.0 * r.wired_or.valuegen,
                100.0 * r.wired_or.nonvaluegen,
                100.0 * r.wired_or.independent,
                100.0 * r.wired_or.grouped(),
            )?;
        }
        writeln!(
            f,
            "mean reduction in scheduler insertions: {:.1} % (paper: 16.2 %)",
            100.0 * self.mean_insert_reduction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::quick_sweep;

    #[test]
    fn grouping_within_paper_band() {
        // Paper: 28..46 % of instructions grouped per benchmark.
        let r = run(&quick_sweep());
        for row in &r.rows {
            assert!(
                row.wired_or.grouped() > 0.15 && row.wired_or.grouped() < 0.65,
                "{}: {:.2}",
                row.bench,
                row.wired_or.grouped()
            );
        }
        assert!(r.mean_insert_reduction > 0.08 && r.mean_insert_reduction < 0.30);
    }
}

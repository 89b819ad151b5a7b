//! The RV32 suite as an experiment workload: run every real program in
//! `mos_rv::suite` under every scheduler kind.
//!
//! Unlike the synthetic benchmark figures, these runs execute to the
//! program's own halt (the suite programs are small), so the sweep is
//! budget-independent. `experiments rv` prints the IPC table and
//! `experiments perf` times the sweep. The two numbers the paper's story
//! turns on for real code, MOP pairability and the sched_loop CPI share,
//! come from the differential oracle (`mossim rvdiff [--json]`).

use std::fmt;

use mos_rv::suite::{self, RvTestProgram};
use mos_rv::{config_for, RvTraceSource, SCHED_KINDS};
use mos_sim::{Simulator, SimStats};

use crate::runner;

/// One (program, scheduler) simulation of the sweep.
#[derive(Debug, Clone)]
pub struct RvRun {
    /// Suite program name.
    pub program: &'static str,
    /// Scheduler label (one of [`mos_rv::SCHED_KINDS`]).
    pub sched: &'static str,
    /// Run statistics (the program ran to its halt).
    pub stats: SimStats,
}

fn run_to_halt(p: &RvTestProgram, sched: &str) -> SimStats {
    let prog = p.assemble();
    let cfg = config_for(sched).unwrap_or_else(|| panic!("unknown scheduler `{sched}`"));
    let trace = RvTraceSource::new(&prog)
        .unwrap_or_else(|e| panic!("suite program `{}` does not lower: {e}", p.name));
    let stats = Simulator::new(cfg.clone(), trace).run(u64::MAX);
    runner::tally(&stats, &cfg);
    stats
}

/// Run the whole suite under every scheduler kind (fanned across `jobs`
/// worker threads), results in (program, scheduler) order.
pub fn sweep(jobs: usize) -> Vec<RvRun> {
    let mut cells = Vec::new();
    for p in &suite::PROGRAMS {
        for sched in SCHED_KINDS {
            cells.push((p, sched));
        }
    }
    runner::parallel_map(&cells, jobs, |&(p, sched)| RvRun {
        program: p.name,
        sched,
        stats: run_to_halt(p, sched),
    })
}

/// The sweep as a printable table (IPC per program per scheduler).
pub struct RvReport(Vec<RvRun>);

/// Run the sweep and wrap it for display.
pub fn run_with(jobs: usize) -> RvReport {
    RvReport(sweep(jobs))
}

impl fmt::Display for RvReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RV32 suite IPC by scheduler (programs run to halt)")?;
        write!(f, "{:12}", "program")?;
        for sched in SCHED_KINDS {
            write!(f, " {sched:>13}")?;
        }
        writeln!(f)?;
        for p in &suite::PROGRAMS {
            write!(f, "{:12}", p.name)?;
            for sched in SCHED_KINDS {
                let run = self
                    .0
                    .iter()
                    .find(|r| r.program == p.name && r.sched == sched)
                    .expect("sweep covers the full grid");
                write!(f, " {:>13.3}", run.stats.ipc())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_full_grid_and_is_job_count_invariant() {
        let serial = sweep(1);
        let threaded = sweep(4);
        assert_eq!(serial.len(), suite::PROGRAMS.len() * SCHED_KINDS.len());
        for (a, b) in serial.iter().zip(threaded.iter()) {
            assert_eq!(a.program, b.program);
            assert_eq!(a.sched, b.sched);
            assert_eq!(a.stats.cycles, b.stats.cycles);
            assert_eq!(a.stats.committed, b.stats.committed);
        }
    }
}

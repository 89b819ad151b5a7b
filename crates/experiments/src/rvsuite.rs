//! The RV32 suite as an experiment workload: run every real program in
//! `mos_rv::suite` under every scheduler kind.
//!
//! Unlike the synthetic benchmark figures, these runs execute to the
//! program's own halt (the suite programs are small), so the study
//! ignores the sweep's budget. `experiments rv` prints the IPC table and
//! `experiments perf` times the sweep. The two numbers the paper's story
//! turns on for real code, MOP pairability and the sched_loop CPI share,
//! come from the differential oracle (`mossim rvdiff [--json]`).

use std::fmt;

use mos_rv::suite::{self, RvTestProgram};
use mos_rv::{config_for, RvTraceSource, SCHED_KINDS};
use mos_sim::{SimStats, Simulator};

use crate::runner::Sweep;

fn run_to_halt(p: &RvTestProgram, sched: &str) -> SimStats {
    let prog = p.assemble();
    let cfg = config_for(sched).unwrap_or_else(|| panic!("unknown scheduler `{sched}`"));
    let trace = RvTraceSource::new(&prog)
        .unwrap_or_else(|e| panic!("suite program `{}` does not lower: {e}", p.name));
    Simulator::new(cfg, trace).run(u64::MAX)
}

/// Every run's stats in (program, scheduler) order, printable as a
/// table of IPC per program per scheduler.
pub struct RvReport(Vec<SimStats>);

/// Run the whole suite under every scheduler kind.
pub fn run(sweep: &Sweep) -> RvReport {
    let cells: Vec<_> = suite::PROGRAMS
        .iter()
        .flat_map(|p| SCHED_KINDS.iter().map(move |&sched| (p, sched)))
        .collect();
    RvReport(sweep.simulate(&cells, |&(p, sched)| (sched, run_to_halt(p, sched))))
}

impl fmt::Display for RvReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RV32 suite IPC by scheduler (programs run to halt)")?;
        write!(f, "{:12}", "program")?;
        for sched in SCHED_KINDS {
            write!(f, " {sched:>13}")?;
        }
        writeln!(f)?;
        for (p, row) in suite::PROGRAMS
            .iter()
            .zip(self.0.chunks_exact(SCHED_KINDS.len()))
        {
            write!(f, "{:12}", p.name)?;
            for stats in row {
                write!(f, " {:>13.3}", stats.ipc())?;
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
        let RvReport(serial) = run(&Sweep::new(0, 1));
        let RvReport(threaded) = run(&Sweep::new(0, 4));
        assert_eq!(serial.len(), suite::PROGRAMS.len() * SCHED_KINDS.len());
        assert_eq!(serial, threaded);
    }
}

//! The differential oracle: run an RV32 program through the timing
//! pipeline and through the architectural interpreter, then assert that
//! (a) the pipeline committed exactly the interpreter's uop expansion, in
//! order, and (b) replaying the pipeline's committed instructions
//! functionally reproduces the interpreter's final register file and
//! memory image.
//!
//! The timing simulator is trace-driven — it never computes values — so
//! check (a) pins the committed *sequence* (no lost, duplicated, or
//! reordered retirement), and check (b) pins the *architectural meaning*
//! of that sequence by executing it through the same `execute` semantics
//! the oracle used and comparing final state.

use std::fmt;
use std::sync::Arc;

use mos_isa::InstClass;
use mos_sim::{CpiStack, MachineConfig, SharedCommitLog, SimStats, Simulator};

use crate::inst::RvProgram;
use crate::interp::{execute, RvInterp, RvState};
use crate::lower::{lower, LowerError};
use crate::trace::RvTraceSource;

/// A passed differential run's summary numbers.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Scheduler label the pipeline ran under.
    pub sched: String,
    /// RV instructions the oracle retired.
    pub rv_retired: u64,
    /// Uops the pipeline committed (equals the oracle expansion).
    pub uops_committed: u64,
    /// Pipeline cycles.
    pub cycles: u64,
    /// Committed uops per cycle.
    pub ipc: f64,
    /// Fraction of committed uops that issued as part of a MOP group.
    pub fusion_rate: f64,
    /// Share of issue slots lost to the scheduling loop (atomicity)
    /// constraint, from the run's CPI stack.
    pub sched_loop_share: f64,
    /// Full end-of-run statistics.
    pub stats: SimStats,
}

/// A differential failure.
#[derive(Debug, Clone)]
pub enum DiffError {
    /// Lowering failed.
    Lower(LowerError),
    /// The functional oracle never reached `ecall`/`ebreak`.
    DidNotHalt {
        /// `true` when it faulted, `false` when the step budget ran out.
        faulted: bool,
        /// Steps retired before stopping.
        retired: u64,
    },
    /// Committed uop sequence diverged from the oracle expansion.
    TraceMismatch {
        /// Position of the first divergence.
        at: usize,
        /// Expected uop static index (`None` = oracle stream ended).
        expected: Option<u32>,
        /// Committed uop static index (`None` = pipeline stream ended).
        got: Option<u32>,
    },
    /// Final architectural state diverged.
    StateMismatch(String),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Lower(e) => write!(f, "lowering failed: {e}"),
            DiffError::DidNotHalt { faulted, retired } => write!(
                f,
                "oracle did not halt cleanly after {retired} insts (faulted: {faulted})"
            ),
            DiffError::TraceMismatch { at, expected, got } => write!(
                f,
                "committed uop {at} diverged: expected {expected:?}, pipeline committed {got:?}"
            ),
            DiffError::StateMismatch(what) => write!(f, "final state diverged: {what}"),
        }
    }
}

impl std::error::Error for DiffError {}

impl From<LowerError> for DiffError {
    fn from(e: LowerError) -> DiffError {
        DiffError::Lower(e)
    }
}

/// Run the full differential check for one scheduler configuration.
///
/// `max_steps` bounds the functional oracle (guards non-terminating
/// programs); the pipeline then runs until its trace drains.
///
/// # Errors
///
/// Returns [`DiffError`] describing the first divergence found.
pub fn run_differential(
    rv: &RvProgram,
    sched: &str,
    cfg: MachineConfig,
    max_steps: usize,
) -> Result<DiffReport, DiffError> {
    let lowered = Arc::new(lower(rv)?);

    // 1. Functional oracle: retire the whole program, keep every step.
    let mut oracle = RvInterp::new(rv);
    let steps = oracle.run_collect(max_steps);
    if !oracle.stopped_cleanly() {
        return Err(DiffError::DidNotHalt {
            faulted: oracle.faulted(),
            retired: oracle.retired(),
        });
    }

    // 2. Its expected committed-uop expansion: every bundle uop except
    //    nops, which the pipeline's decoder filters (halts never retire —
    //    the interpreter stops before emitting them).
    let mut expected: Vec<u32> = Vec::new();
    for s in &steps {
        for sidx in lowered.bundle(s.idx) {
            let class = lowered.program.inst(sidx).expect("bundle in range").class();
            if !matches!(class, InstClass::Nop | InstClass::Halt) {
                expected.push(sidx);
            }
        }
    }

    // 3. Timing pipeline over the same program, commit log attached.
    let trace = RvTraceSource::with_lowered(Arc::clone(&lowered), RvInterp::new(rv));
    let issue_width = cfg.sched.issue_width as u64;
    let mut sim = Simulator::new(cfg, trace);
    // Slot accounting is observation-only (never changes simulated
    // cycles), so turning it on here keeps the differential untouched
    // while giving every report a sched_loop share.
    sim.enable_slot_accounting();
    let log = SharedCommitLog::new();
    sim.set_event_sink(Box::new(log.clone()));
    let stats = sim.run(u64::MAX);
    let got = log.take();

    // 4. Committed sequence must equal the expansion exactly.
    if expected != got {
        let at = expected
            .iter()
            .zip(&got)
            .position(|(e, g)| e != g)
            .unwrap_or_else(|| expected.len().min(got.len()));
        return Err(DiffError::TraceMismatch {
            at,
            expected: expected.get(at).copied(),
            got: got.get(at).copied(),
        });
    }

    // 5. Replay the *pipeline's* committed uops as RV instructions
    //    through fresh architectural state and compare against the
    //    oracle's final state.
    let mut replay = RvState::new();
    for &(addr, byte) in &rv.data {
        replay.store8(addr, byte);
    }
    for &sidx in &got {
        let idx = lowered.rv_of(sidx);
        // A bundle retires its RV instruction once: on its last
        // committed uop.
        let last_committed = lowered.bundle(idx).rev().find(|&u| {
            !matches!(
                lowered.program.inst(u).expect("in range").class(),
                InstClass::Nop | InstClass::Halt
            )
        });
        if last_committed == Some(sidx) {
            execute(&mut replay, &rv.insts[idx as usize], rv.pc_of(idx));
        }
    }
    compare_states(&replay, oracle.state())?;

    let stack = CpiStack::from_stats(&rv.name, sched, issue_width, &stats);
    Ok(DiffReport {
        sched: sched.to_owned(),
        rv_retired: oracle.retired(),
        uops_committed: stats.committed,
        cycles: stats.cycles,
        ipc: stats.ipc(),
        fusion_rate: stats.grouped_frac(),
        sched_loop_share: stack.share(mos_core::SlotCause::SchedLoop),
        stats,
    })
}

fn compare_states(replay: &RvState, oracle: &RvState) -> Result<(), DiffError> {
    for x in 0..32u8 {
        let (r, o) = (replay.reg(x), oracle.reg(x));
        if r != o {
            return Err(DiffError::StateMismatch(format!(
                "x{x}: replay {r:#010x} != oracle {o:#010x}"
            )));
        }
    }
    let (rm, om) = (replay.mem_image(), oracle.mem_image());
    if rm != om {
        let n = rm
            .iter()
            .zip(&om)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rm.len().min(om.len()));
        return Err(DiffError::StateMismatch(format!(
            "memory image diverges at entry {n}: replay {:?} != oracle {:?}",
            rm.get(n),
            om.get(n)
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use mos_sim::{config_for, SCHED_KINDS};

    const SUM: &str = "_start:\nli t0, 50\nli a0, 0\nloop:\nadd a0, a0, t0\naddi t0, t0, -1\nbnez t0, loop\nebreak";

    #[test]
    fn differential_passes_on_every_scheduler() {
        let rv = assemble("sum", SUM).unwrap();
        for sched in SCHED_KINDS {
            let cfg = config_for(sched).expect("known scheduler");
            let rep = run_differential(&rv, sched, cfg, 1_000_000)
                .unwrap_or_else(|e| panic!("{sched}: {e}"));
            assert_eq!(rep.rv_retired, 152, "{sched}");
            assert_eq!(rep.uops_committed, 152, "{sched}");
            assert!(rep.cycles > 0 && rep.ipc > 0.0, "{sched}");
        }
    }

    #[test]
    fn nonterminating_programs_are_reported() {
        let rv = assemble("spin", "spin:\nj spin").unwrap();
        let err = run_differential(&rv, "base", config_for("base").unwrap(), 1000).unwrap_err();
        assert!(matches!(
            err,
            DiffError::DidNotHalt {
                faulted: false,
                retired: 1000
            }
        ));
    }

    #[test]
    fn faulting_programs_are_reported() {
        let rv = assemble("fall", "_start:\nadd a0, a1, a2").unwrap();
        let err = run_differential(&rv, "base", config_for("base").unwrap(), 1000).unwrap_err();
        assert!(matches!(err, DiffError::DidNotHalt { faulted: true, .. }));
    }
}

//! Adapter from RV32 retired steps to the simulator's committed-path uop
//! stream: an [`RvTraceSource`] expands each retired RV instruction into
//! its lowered uop bundle, chaining `next_sidx` through the bundle and
//! across instructions so the timing simulator's sequential-fetch
//! invariant holds. The steps come from a live interpreter
//! ([`RvTraceSource::new`]) or from any recorded sequence
//! ([`RvTraceSource::with_lowered`]; the differential harness replays the
//! oracle's own steps this way), through the same expansion.

use std::sync::Arc;

use mos_isa::{DynInst, Program, TraceSource};

use crate::inst::RvProgram;
use crate::interp::{RvInterp, RvStep};
use crate::lower::{lower, LowerError, Lowered};

/// A [`TraceSource`] over an RV32 program: the lowered uop program plus
/// the committed-path uop stream of a sequence of retired RV steps, by
/// default those of the architectural interpreter.
#[derive(Debug, Clone)]
pub struct RvTraceSource<S = RvInterp<'static>> {
    lowered: Arc<Lowered>,
    steps: S,
    /// The step being expanded; its uops `next..end` are still to come.
    step: RvStep,
    next: u32,
    end: u32,
}

impl RvTraceSource {
    /// Lower `rv` and stream it through an interpreter of its own.
    ///
    /// # Errors
    ///
    /// Returns [`LowerError`] for an empty program or out-of-image
    /// transfer targets.
    pub fn new(rv: &RvProgram) -> Result<RvTraceSource, LowerError> {
        Ok(RvTraceSource::with_lowered(
            Arc::new(lower(rv)?),
            RvInterp::owning(rv.clone()),
        ))
    }

    /// The driving interpreter (its state is final once the stream ends).
    pub fn interp(&self) -> &RvInterp<'static> {
        &self.steps
    }
}

impl<S: Iterator<Item = RvStep>> RvTraceSource<S> {
    /// Stream `steps`, retired instructions of the RV program `lowered`
    /// was lowered from (lets callers share one [`Lowered`] across
    /// scheduler configurations, or replay steps already recorded).
    pub fn with_lowered(lowered: Arc<Lowered>, steps: S) -> RvTraceSource<S> {
        RvTraceSource {
            lowered,
            steps,
            step: RvStep {
                idx: 0,
                next_idx: 0,
                taken: false,
                eff_addr: None,
            },
            next: 0,
            end: 0,
        }
    }

    /// The lowering maps backing this stream.
    pub fn lowered(&self) -> &Lowered {
        &self.lowered
    }

    /// Take the next step and aim the cursor at its bundle; `false` once
    /// the steps run out. Out of line, so that with an interpreter behind
    /// it the per-uop path of `next` stays small.
    #[inline(never)]
    fn advance(&mut self) -> bool {
        let Some(step) = self.steps.next() else {
            return false;
        };
        let bundle = self.lowered.bundle(step.idx);
        (self.step, self.next, self.end) = (step, bundle.start, bundle.end);
        true
    }
}

/// Each retired RV instruction becomes its uop bundle. Intra-bundle uops
/// fall through to the next uop; the last uop carries the instruction's
/// control outcome, and memory uops its effective address.
impl<S: Iterator<Item = RvStep>> Iterator for RvTraceSource<S> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if self.next == self.end && !self.advance() {
            return None;
        }
        let sidx = self.next;
        self.next += 1;
        let is_last = self.next == self.end;
        let is_mem = |sidx| {
            let inst = self.lowered.program.inst(sidx);
            inst.expect("bundle uop in range").class().is_mem()
        };
        Some(DynInst {
            sidx,
            next_sidx: if is_last {
                self.lowered.start_of(self.step.next_idx)
            } else {
                self.next
            },
            taken: is_last && self.step.taken,
            eff_addr: match self.step.eff_addr {
                Some(addr) if is_mem(sidx) => Some(u64::from(addr)),
                _ => None,
            },
        })
    }
}

impl<S: Iterator<Item = RvStep>> TraceSource for RvTraceSource<S> {
    fn program(&self) -> &Program {
        &self.lowered.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use mos_isa::InstClass;

    #[test]
    fn stream_chains_next_sidx_sequentially() {
        let rv = assemble(
            "t",
            "_start:\nli t0, 2\nloop:\naddi t0, t0, -1\nbnez t0, loop\nebreak",
        )
        .unwrap();
        let mut src = RvTraceSource::new(&rv).unwrap();
        let mut stream = Vec::new();
        let mut expect_sidx = src.program().entry();
        for d in src.by_ref() {
            assert_eq!(d.sidx, expect_sidx, "fetch chain broken at {stream:?}");
            expect_sidx = d.next_sidx;
            stream.push(d);
        }
        // li, (addi, bnez) x2 = 5 committed uops; halt is never emitted.
        assert_eq!(stream.len(), 5);
        assert!(stream[2].taken, "first bnez is taken");
        assert!(!stream[4].taken, "second bnez falls through");
        assert!(src.interp().stopped_cleanly());
    }

    #[test]
    fn bundles_fall_through_internally() {
        // jal t0 expands to li+jmp: the li falls through to the jmp, the
        // jmp carries the taken edge.
        let rv = assemble("t", "_start:\njal t0, next\nnext:\nebreak").unwrap();
        let src = RvTraceSource::new(&rv).unwrap();
        let ds: Vec<DynInst> = src.collect();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].next_sidx, 1);
        assert!(!ds[0].taken);
        assert!(ds[1].taken);
        assert_eq!(ds[1].next_sidx, 2);
    }

    #[test]
    fn eff_addr_rides_the_memory_uop() {
        let rv = assemble(
            "t",
            "_start:\nli t0, 0x40\nsw t0, 4(t0)\nlw t1, 4(t0)\nebreak",
        )
        .unwrap();
        let src = RvTraceSource::new(&rv).unwrap();
        let ds: Vec<DynInst> = src.collect();
        let mems: Vec<u64> = ds.iter().filter_map(|d| d.eff_addr).collect();
        assert_eq!(mems, vec![0x44, 0x44]);
    }

    #[test]
    fn program_is_the_lowered_image() {
        let rv = assemble("t", "_start:\nfence\necall").unwrap();
        let src = RvTraceSource::new(&rv).unwrap();
        assert_eq!(src.program().inst(0).unwrap().class(), InstClass::Nop);
        assert_eq!(src.program().inst(1).unwrap().class(), InstClass::Halt);
        // The fence lowers to a nop, which *is* emitted (decode filters it).
        let ds: Vec<DynInst> = src.collect();
        assert_eq!(ds.len(), 1);
    }
}

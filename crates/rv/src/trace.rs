//! Adapter from the RV32 interpreter to the simulator's committed-path
//! uop stream: an [`RvTraceSource`] walks the functional oracle and
//! expands each retired RV instruction into its lowered uop bundle,
//! chaining `next_sidx` through the bundle and across instructions so the
//! timing simulator's sequential-fetch invariant holds.

use std::collections::VecDeque;
use std::sync::Arc;

use mos_isa::{DynInst, Program, TraceSource};

use crate::inst::RvProgram;
use crate::interp::{RvInterp, RvStep};
use crate::lower::{lower, LowerError, Lowered};

/// A [`TraceSource`] over an RV32 program: the lowered uop program plus a
/// committed-path uop stream produced by the architectural interpreter.
#[derive(Debug, Clone)]
pub struct RvTraceSource {
    lowered: Arc<Lowered>,
    interp: RvInterp,
    pending: VecDeque<DynInst>,
}

impl RvTraceSource {
    /// Lower `rv` and build the stream.
    ///
    /// # Errors
    ///
    /// Returns [`LowerError`] for an empty program or out-of-image
    /// transfer targets.
    pub fn new(rv: &RvProgram) -> Result<RvTraceSource, LowerError> {
        Ok(RvTraceSource::with_lowered(
            Arc::new(lower(rv)?),
            RvInterp::new(rv),
        ))
    }

    /// Build from an already-lowered program and a fresh interpreter over
    /// the same RV program (lets callers share one [`Lowered`] across
    /// scheduler configurations).
    pub fn with_lowered(lowered: Arc<Lowered>, interp: RvInterp) -> RvTraceSource {
        RvTraceSource {
            lowered,
            interp,
            pending: VecDeque::new(),
        }
    }

    /// The lowering maps backing this stream.
    pub fn lowered(&self) -> &Lowered {
        &self.lowered
    }

    /// The driving interpreter (its state is final once the stream ends).
    pub fn interp(&self) -> &RvInterp {
        &self.interp
    }

    /// Expand one retired RV instruction into its uop bundle. Intra-bundle
    /// uops fall through to the next uop; the last uop carries the
    /// instruction's control outcome.
    fn expand(&mut self, step: RvStep) {
        let bundle = self.lowered.bundle(step.idx);
        let last = bundle.end - 1;
        let next = self.lowered.start_of(step.next_idx);
        for sidx in bundle {
            let is_last = sidx == last;
            let inst = self
                .lowered
                .program
                .inst(sidx)
                .expect("bundle uop in range");
            self.pending.push_back(DynInst {
                sidx,
                next_sidx: if is_last { next } else { sidx + 1 },
                taken: is_last && step.taken,
                eff_addr: if inst.class().is_mem() {
                    step.eff_addr.map(u64::from)
                } else {
                    None
                },
            });
        }
    }
}

impl Iterator for RvTraceSource {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if self.pending.is_empty() {
            let step = self.interp.step()?;
            self.expand(step);
        }
        self.pending.pop_front()
    }
}

impl TraceSource for RvTraceSource {
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

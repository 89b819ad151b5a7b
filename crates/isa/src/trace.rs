use std::sync::Arc;

use crate::Program;

/// One committed-path dynamic instruction: which static instruction ran,
/// where control went next, and — for memory operations — the effective
/// address.
///
/// A stream of `DynInst`s plus the static [`Program`] is everything the
/// timing simulator needs: correct-path instruction identity and branch
/// outcomes come from the trace, while *wrong-path* fetch after a
/// misprediction walks the static program under the branch predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Static index of the instruction within the program.
    pub sidx: u32,
    /// Static index of the next committed instruction.
    pub next_sidx: u32,
    /// For control transfers: whether the transfer was taken. For
    /// fall-through instructions this is `false`.
    pub taken: bool,
    /// Effective byte address for loads and stores.
    pub eff_addr: Option<u64>,
}

/// A source of committed-path dynamic instructions over a static program.
///
/// Implemented by the RV32 frontend in `mos-rv` and the native functional
/// interpreter in `mos-asm` (both architecturally exact) and by the
/// stochastic workload walker in `mos-workload` (statistically
/// calibrated). Sources are `Iterator`s over [`DynInst`];
/// they must be deterministic for a given construction so that different
/// scheduler configurations can be compared on identical streams.
pub trait TraceSource: Iterator<Item = DynInst> {
    /// The static program the dynamic stream runs over.
    fn program(&self) -> &Program;
}

/// A boxed source is a source, so a front end can pick its trace type at
/// run time (`Simulator<Box<dyn TraceSource>>`).
impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn program(&self) -> &Program {
        (**self).program()
    }
}

/// A pre-recorded trace, replayable any number of times.
///
/// ```
/// use mos_isa::{DynInst, Program, ReplayTrace, StaticInst, TraceSource};
/// let mut p = Program::new("p");
/// p.push(StaticInst::nop());
/// let t = ReplayTrace::new(p, vec![DynInst { sidx: 0, next_sidx: 0, taken: false, eff_addr: None }]);
/// let mut run = t.clone();
/// assert_eq!(run.next().map(|d| d.sidx), Some(0));
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    program: Arc<Program>,
    events: Arc<[DynInst]>,
    pos: usize,
}

impl ReplayTrace {
    /// Wrap a program and a recorded event list.
    pub fn new(program: Program, events: Vec<DynInst>) -> ReplayTrace {
        ReplayTrace {
            program: Arc::new(program),
            events: events.into(),
            pos: 0,
        }
    }

    /// Record every event of `source` (up to `limit`) into a replayable
    /// trace.
    pub fn record<S: TraceSource>(mut source: S, limit: usize) -> ReplayTrace {
        let mut events = Vec::new();
        while events.len() < limit {
            match source.next() {
                Some(d) => events.push(d),
                None => break,
            }
        }
        ReplayTrace {
            program: Arc::new(source.program().clone()),
            events: events.into(),
            pos: 0,
        }
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Restart playback from the beginning.
    pub fn rewind(&mut self) {
        self.pos = 0;
    }

    /// The recorded events.
    pub fn events(&self) -> &[DynInst] {
        &self.events
    }
}

impl Iterator for ReplayTrace {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        let d = self.events.get(self.pos).copied()?;
        self.pos += 1;
        Some(d)
    }
}

impl TraceSource for ReplayTrace {
    fn program(&self) -> &Program {
        &self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StaticInst;

    fn trace3() -> ReplayTrace {
        let mut p = Program::new("p");
        p.push(StaticInst::nop());
        p.push(StaticInst::nop());
        let mk = |s: u32| DynInst {
            sidx: s,
            next_sidx: s + 1,
            taken: false,
            eff_addr: None,
        };
        ReplayTrace::new(p, vec![mk(0), mk(1), mk(0)])
    }

    #[test]
    fn replay_yields_in_order_and_rewinds() {
        let mut t = trace3();
        let a: Vec<u32> = t.by_ref().map(|d| d.sidx).collect();
        assert_eq!(a, vec![0, 1, 0]);
        assert_eq!(t.next(), None);
        t.rewind();
        assert_eq!(t.next().map(|d| d.sidx), Some(0));
    }

    #[test]
    fn record_truncates_at_limit() {
        let t = trace3();
        let recorded = ReplayTrace::record(t, 2);
        assert_eq!(recorded.len(), 2);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = trace3();
        let mut b = a.clone();
        a.next();
        a.next();
        assert_eq!(b.next().map(|d| d.sidx), Some(0));
    }
}

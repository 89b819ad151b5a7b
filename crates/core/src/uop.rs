use mos_isa::{FixedList, InstClass};

/// Unique identifier of one in-flight dynamic micro-operation, assigned in
/// program order by the front end. Doubles as the age used for
/// oldest-first selection and squash comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UopId(pub u64);

/// A dependence tag in the scheduler's **MOP ID name space** (Section
/// 5.2.2): the identifier broadcast on the wakeup bus. Each singleton gets
/// its own tag; both instructions of a macro-op share one, so consumers of
/// either become children of the MOP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(pub u64);

/// How an instruction ended up grouped, for the Figure 13 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupRole {
    /// Not a macro-op candidate (multi-cycle operation such as a load).
    NotCandidate,
    /// Candidate, but no pair was found.
    NotGrouped,
    /// Grouped into a dependent MOP and generates a register value.
    MopValueGen,
    /// Grouped into a dependent MOP without generating a value (branch or
    /// store address generation).
    MopNonValueGen,
    /// Grouped into an independent MOP (Section 5.4.1).
    MopIndependent,
}

/// The scheduler-facing description of one micro-operation, produced by
/// MOP formation at rename time. Plain `Copy` data: a queue entry holds
/// its uops inline and a grant copies them out.
#[derive(Debug, Clone, Copy)]
pub struct SchedUop {
    /// Program-order identity / age.
    pub id: UopId,
    /// Latency/resource class; it implies the functional-unit pool
    /// ([`InstClass::fu`]) and, but for loads, the latency the scheduler
    /// assumes ([`InstClass::exec_latency`]).
    pub class: InstClass,
    /// Destination tag (MOP ID) if the uop produces a value consumers wait
    /// on. `None` for branches and store address generations that were not
    /// merged into a value-generating MOP.
    pub dst: Option<Tag>,
    /// Source tags still potentially in flight at rename, each once.
    /// Architecturally ready operands are simply omitted. An instruction
    /// names at most two source registers, so the list is fixed at two.
    pub srcs: FixedList<Tag, 2>,
    /// `true` for loads, which broadcast speculatively and may trigger
    /// selective replay.
    pub is_load: bool,
    /// Static index (for pointer-cache feedback and diagnostics).
    pub sidx: u32,
    /// Figure-13 classification decided at formation.
    pub role: GroupRole,
    /// Cycle the instruction was fetched (threaded through rename so the
    /// `Rename` trace event can seed per-uop pipeline timelines).
    pub fetched_at: u64,
    /// Fetched while walking a mispredicted path.
    pub wrong_path: bool,
}

impl SchedUop {
    /// Convenience constructor for a uop with no in-flight sources.
    pub fn leaf(id: UopId, class: InstClass, dst: Option<Tag>) -> SchedUop {
        SchedUop {
            id,
            class,
            dst,
            srcs: FixedList::new(),
            is_load: class == InstClass::Load,
            sidx: 0,
            role: GroupRole::NotGrouped,
            fetched_at: 0,
            wrong_path: false,
        }
    }
}

/// A placeholder uop (a no-op leaf with id 0) that fills the unused
/// slots of inline uop lists; it is never scheduled.
impl Default for SchedUop {
    fn default() -> SchedUop {
        SchedUop::leaf(UopId(0), InstClass::Nop, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_order_by_age() {
        assert!(UopId(3) < UopId(10));
    }

    #[test]
    fn leaf_defaults() {
        let u = SchedUop::leaf(UopId(1), InstClass::Load, Some(Tag(5)));
        assert!(u.is_load);
        assert_eq!(u.class.fu(), mos_isa::FuKind::MemPort);
        assert!(u.srcs.is_empty());
    }
}

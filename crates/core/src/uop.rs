use mos_isa::{FuKind, InstClass, SmallList};

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
/// MOP formation at rename time.
#[derive(Debug, Clone)]
pub struct SchedUop {
    /// Program-order identity / age.
    pub id: UopId,
    /// Latency/resource class.
    pub class: InstClass,
    /// Functional-unit pool this uop issues to.
    pub fu: FuKind,
    /// Destination tag (MOP ID) if the uop produces a value consumers wait
    /// on. `None` for branches and store address generations that were not
    /// merged into a value-generating MOP.
    pub dst: Option<Tag>,
    /// Source tags still potentially in flight at rename. Architecturally
    /// ready operands are simply omitted. Inline for the ISA's two source
    /// registers, so a uop carries no heap allocation.
    pub srcs: SmallList<Tag, 2>,
    /// Latency assumed by the scheduler (for loads: address generation plus
    /// the common-case DL1 hit, per Section 2.1).
    pub sched_latency: u32,
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
            fu: class.fu(),
            dst,
            srcs: SmallList::new(),
            sched_latency: class.exec_latency(),
            is_load: class == InstClass::Load,
            sidx: 0,
            role: GroupRole::NotGrouped,
            fetched_at: 0,
            wrong_path: false,
        }
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
        assert_eq!(u.fu, FuKind::MemPort);
        assert!(u.srcs.is_empty());
    }
}

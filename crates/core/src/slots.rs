//! Top-down issue-slot accounting: the exclusive cause taxonomy behind
//! `mossim cpistack`.
//!
//! Every simulated cycle offers `issue_width` slots. Each slot is charged
//! to exactly one [`SlotCause`], so per-cause counts always sum to
//! `cycles × issue_width` — the **conservation law** checked by
//! [`SlotCounts::check_conservation`] (and, like the scheduling-invariant
//! oracle, auto-attached in debug builds of the simulator).
//!
//! The issue queue owns the counts. It charges everything it can see —
//! grants, MOP payload-sequencing blocks, wasted select-free slots, and
//! per-waiting-entry stall causes for slots that went idle while work sat
//! in the queue (oldest entries first, mirroring select priority). Slots
//! idle while the queue had nothing waiting go to the cause the simulator
//! hands it before each cycle: wrong-path recovery, frontend (IQ/ROB-full)
//! back-pressure, or a genuinely drained machine.
//!
//! The exclusivity/priority rules are documented on each variant and in
//! DESIGN §10.

/// Number of slot causes in the taxonomy (length of [`SlotCause::ALL`]).
pub const NUM_SLOT_CAUSES: usize = 9;

/// Exclusive cause charged to one cycle × issue-slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SlotCause {
    /// A grant: an entry (single uop or whole MOP) issued in this slot.
    Useful,
    /// The scheduling-loop penalty the paper targets: either a waiting
    /// entry whose operands are *actually* available (`actual_at ≤ now`)
    /// but not yet *visible* to wakeup (`ready_at > now` — the pipelined
    /// wakeup/select bubble), or a slot burned by select-free scheduling-
    /// loop speculation (stale-grant cancels, scoreboard pileup replays
    /// and their hold-off cycles).
    SchedLoop,
    /// MOP fusion overhead: the payload-sequencing slot a 2-uop MOP blocks
    /// in its second cycle, or an entry waiting for its pending tail.
    MopFusion,
    /// True data dependence: a source value genuinely not computed yet.
    NotReady,
    /// Load-miss shadow: the entry waits on a dataflow edge poisoned by a
    /// cache miss (the missed load itself or a transitively replayed
    /// consumer).
    LoadMiss,
    /// Issue-bandwidth saturation: the entry was ready and requested, but
    /// lost selection (width or functional-unit contention).
    Bandwidth,
    /// Frontend back-pressure: the queue was empty of waiting work while
    /// insert was blocked by a full issue queue or ROB.
    Frontend,
    /// Wrong-path fetch or post-squash redirect recovery.
    WrongPath,
    /// Drained/empty: nothing in the queue and no specific culprit —
    /// startup fill, I-miss fetch stalls, front-pipeline bubbles, or the
    /// end-of-program drain.
    Drained,
}

impl SlotCause {
    /// All causes, in canonical report order.
    pub const ALL: [SlotCause; NUM_SLOT_CAUSES] = [
        SlotCause::Useful,
        SlotCause::SchedLoop,
        SlotCause::MopFusion,
        SlotCause::NotReady,
        SlotCause::LoadMiss,
        SlotCause::Bandwidth,
        SlotCause::Frontend,
        SlotCause::WrongPath,
        SlotCause::Drained,
    ];

    /// Dense index of this cause (position in [`SlotCause::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in JSON schemas and reports.
    pub fn name(self) -> &'static str {
        match self {
            SlotCause::Useful => "useful",
            SlotCause::SchedLoop => "sched_loop",
            SlotCause::MopFusion => "mop_fusion",
            SlotCause::NotReady => "not_ready",
            SlotCause::LoadMiss => "load_miss",
            SlotCause::Bandwidth => "bandwidth",
            SlotCause::Frontend => "frontend",
            SlotCause::WrongPath => "wrong_path",
            SlotCause::Drained => "drained",
        }
    }
}

/// Per-cause slot counters. Sums exactly to `cycles × issue_width` when
/// accounting was enabled for the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotCounts {
    counts: [u64; NUM_SLOT_CAUSES],
}

impl SlotCounts {
    /// Charge `n` slots to `cause`.
    pub fn add(&mut self, cause: SlotCause, n: u64) {
        self.counts[cause.index()] += n;
    }

    /// Slots charged to `cause` so far.
    pub fn get(&self, cause: SlotCause) -> u64 {
        self.counts[cause.index()]
    }

    /// Total slots charged across all causes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The conservation law: charged slots must equal the slots offered.
    ///
    /// Returns a diagnostic naming both sides when it is violated.
    pub fn check_conservation(&self, cycles: u64, issue_width: u64) -> Result<(), String> {
        let offered = cycles * issue_width;
        let charged = self.total();
        if charged == offered {
            Ok(())
        } else {
            Err(format!(
                "slot-cause conservation violated: charged {charged} != \
                 {cycles} cycles x {issue_width} slots = {offered}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_names_unique() {
        let mut names = std::collections::BTreeSet::new();
        for (i, c) in SlotCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(names.insert(c.name()), "duplicate name {}", c.name());
        }
        assert_eq!(names.len(), NUM_SLOT_CAUSES);
    }

    #[test]
    fn counts_add_and_conserve() {
        let mut a = SlotCounts::default();
        a.add(SlotCause::Useful, 5);
        a.add(SlotCause::SchedLoop, 2);
        a.add(SlotCause::Drained, 1);
        assert_eq!(a.total(), 8);
        assert_eq!(a.get(SlotCause::Useful), 5);
        assert!(a.check_conservation(2, 4).is_ok());
        assert!(a.check_conservation(3, 4).is_err());
    }
}

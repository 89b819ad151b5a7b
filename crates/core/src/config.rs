//! Scheduler and macro-op formation configuration (Section 6.2's
//! scheduler configurations).

/// Which scheduling-loop model the issue queue runs (Section 6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Ideally pipelined scheduling logic — "conceptually equivalent to
    /// conventional atomic scheduling with one extra pipeline stage".
    /// Dependents of an `L`-cycle op may be selected `L` cycles after it.
    Base,
    /// Pipelined wakeup and select: a one-cycle bubble between a
    /// single-cycle instruction and its dependents (`max(L, 2)`).
    TwoCycle,
    /// Macro-op scheduling: 2-cycle scheduling of 2-cycle MOPs. Ungrouped
    /// instructions behave as in `TwoCycle`; consumers of a MOP tail
    /// execute consecutively (Figure 5).
    MacroOp,
    /// Select-free scheduling, Squash Dep recovery (Brown et al.):
    /// wakeup broadcasts speculatively; collision victims squash their
    /// dependents' wakeups so no pileup victims exist.
    SelectFreeSquashDep,
    /// Select-free scheduling, Scoreboard recovery: mis-woken dependents
    /// issue as pileup victims, are caught by a register scoreboard in the
    /// register-read stage and selectively replayed.
    SelectFreeScoreboard,
    /// Speculative wakeup (Stark, Brown and Patt): wakeup fires one
    /// cycle early — as soon as an instruction's *grandparents* have
    /// issued — speculating that the parents will be selected promptly.
    /// The select stage verifies the parents really issued; a failed
    /// verification wastes the issue slot and the instruction retries.
    SpeculativeWakeup,
}

impl SchedulerKind {
    /// `true` for the two select-free variants.
    pub fn is_select_free(self) -> bool {
        matches!(
            self,
            SchedulerKind::SelectFreeSquashDep | SchedulerKind::SelectFreeScoreboard
        )
    }

    /// `true` for every scheduler that broadcasts tags speculatively at
    /// wakeup time rather than at grant (both select-free variants and
    /// speculative wakeup).
    pub fn broadcasts_at_wakeup(self) -> bool {
        self.is_select_free() || self == SchedulerKind::SpeculativeWakeup
    }

    /// Wakeup-to-select latency floor for dependents of an issued entry:
    /// `1` when dependents of single-cycle ops can be selected in the next
    /// cycle, `2` for pipelined (2-cycle) scheduling loops.
    pub fn wakeup_floor(self) -> u32 {
        match self {
            SchedulerKind::Base
            | SchedulerKind::SelectFreeSquashDep
            | SchedulerKind::SelectFreeScoreboard
            | SchedulerKind::SpeculativeWakeup => 1,
            SchedulerKind::TwoCycle | SchedulerKind::MacroOp => 2,
        }
    }
}

/// Wakeup-array style (Section 2.2). The styles schedule identically; they
/// differ in how many distinct source tags one issue-queue entry can track,
/// which constrains MOP detection (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeupStyle {
    /// CAM-style with two tag comparators per entry: a MOP's merged source
    /// set may not exceed two tags.
    CamTwoSource,
    /// Wired-OR-style dependence vectors: no source-count restriction.
    WiredOr,
}

impl WakeupStyle {
    /// Maximum number of distinct source tags per issue-queue entry, if
    /// limited.
    pub fn max_entry_sources(self) -> Option<usize> {
        match self {
            WakeupStyle::CamTwoSource => Some(2),
            WakeupStyle::WiredOr => None,
        }
    }
}

/// How MOP detection avoids dependence cycles (Section 5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleDetection {
    /// The paper's conservative heuristic: a dependence mark of "2" may
    /// only be chosen when it is the first mark in its column.
    Heuristic,
    /// Precise in-window cycle detection (tracks transitive dependences);
    /// used for the >90 %-of-opportunities ablation.
    Precise,
}

/// Macro-op detection/formation parameters (Sections 4 and 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MopConfig {
    /// Maximum instructions per MOP. The paper evaluates 2 ("2x MOP");
    /// larger sizes implement its future-work configurations and require
    /// [`WakeupStyle::WiredOr`].
    pub max_mop_size: usize,
    /// Detection scope in instructions (8 = two rename groups on the
    /// 4-wide machine).
    pub scope: usize,
    /// Cycle-avoidance policy.
    pub cycle_detection: CycleDetection,
    /// Cycles between examining dependences and MOP pointers becoming
    /// usable (3 in the paper's optimistic setting; 100 pessimistic).
    pub detection_delay: u64,
    /// Group independent instructions with identical/no sources
    /// (Section 5.4.1).
    pub group_independent: bool,
    /// Delete pointers whose tail supplied the last-arriving operand and
    /// blacklist the pair (Section 5.4.2).
    pub last_arrival_filter: bool,
}

impl Default for MopConfig {
    fn default() -> MopConfig {
        MopConfig {
            max_mop_size: 2,
            scope: 8,
            cycle_detection: CycleDetection::Heuristic,
            detection_delay: 3,
            group_independent: true,
            last_arrival_filter: true,
        }
    }
}

/// Full scheduler configuration handed to the issue queue and formation
/// logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedConfig {
    /// Scheduling-loop model.
    pub kind: SchedulerKind,
    /// Wakeup-array style.
    pub wakeup: WakeupStyle,
    /// Issue-queue capacity in entries; `None` models the paper's
    /// "unrestricted" queue.
    pub queue_entries: Option<usize>,
    /// Issue width (instructions selected per cycle).
    pub issue_width: usize,
    /// Functional-unit pool sizes indexed by [`mos_isa::FuKind::index`]:
    /// Table 1's 4 int ALUs, 2 int MUL/DIV, 2 FP ALUs, 2 FP MUL/DIV,
    /// 2 memory ports.
    pub fu_counts: [usize; 5],
    /// Cycles after issue until an entry's execution is known good and the
    /// entry can be released (covers the load-miss discovery window).
    pub confirm_window: u32,
    /// Additional wakeup delay applied when a replayed instruction is
    /// rescheduled (Table 1's "2-cycle penalty").
    pub replay_penalty: u32,
    /// Scheduling latency assumed for loads (address generation + DL1 hit).
    pub load_sched_latency: u32,
    /// Macro-op parameters (used when `kind == MacroOp`).
    pub mop: MopConfig,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            kind: SchedulerKind::Base,
            wakeup: WakeupStyle::WiredOr,
            queue_entries: Some(32),
            issue_width: 4,
            fu_counts: [4, 2, 2, 2, 2],
            confirm_window: 8,
            replay_penalty: 2,
            load_sched_latency: 3,
            mop: MopConfig::default(),
        }
    }
}

impl SchedConfig {
    /// `true` when macro-op formation is active.
    pub fn mops_enabled(&self) -> bool {
        self.kind == SchedulerKind::MacroOp
    }

    /// Effective per-entry source-tag limit for MOP detection.
    pub fn max_entry_sources(&self) -> Option<usize> {
        self.wakeup.max_entry_sources()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakeup_floors() {
        assert_eq!(SchedulerKind::Base.wakeup_floor(), 1);
        assert_eq!(SchedulerKind::TwoCycle.wakeup_floor(), 2);
        assert_eq!(SchedulerKind::MacroOp.wakeup_floor(), 2);
        assert_eq!(SchedulerKind::SelectFreeSquashDep.wakeup_floor(), 1);
    }

    #[test]
    fn cam_limits_sources() {
        assert_eq!(WakeupStyle::CamTwoSource.max_entry_sources(), Some(2));
        assert_eq!(WakeupStyle::WiredOr.max_entry_sources(), None);
    }

    #[test]
    fn default_matches_table1() {
        let c = SchedConfig::default();
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.fu_counts[mos_isa::FuKind::IntAlu.index()], 4);
        assert_eq!(c.fu_counts[mos_isa::FuKind::MemPort.index()], 2);
        assert_eq!(c.mop.max_mop_size, 2);
        assert_eq!(c.mop.scope, 8);
    }
}

//! Machine configuration (Table 1), the scheduler presets of
//! Section 6.2, and the one table of scheduler labels every front end
//! (`mossim --sched`, the experiment counters, the RV32 oracle) names
//! them by.

use mos_core::{MopConfig, SchedConfig, SchedulerKind, WakeupStyle};
use mos_uarch::branch::BranchConfig;
use mos_uarch::cache::CacheConfig;

/// Full machine configuration. Defaults reproduce Table 1 of the paper:
/// 4-wide fetch/issue/commit, 128-entry ROB, 32-entry (or unrestricted)
/// issue queue, the listed functional units, the combined branch
/// predictor, and the two-level memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Instructions fetched per cycle (stops at the first predicted-taken
    /// branch and at I-cache line boundaries).
    pub fetch_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Re-order buffer capacity in instructions.
    pub rob_entries: usize,
    /// Front-end depth from fetch to queue insertion (Decode + Rename +
    /// Rename + Queue = 4), excluding extra MOP formation stages.
    pub front_depth: u32,
    /// Extra MOP formation stages (the paper evaluates 0, 1 and 2).
    pub extra_mop_stages: u32,
    /// Scheduler-to-execute depth (Disp Disp RF RF Exe = 5).
    pub exec_offset: u32,
    /// Scheduler configuration (kind, wakeup style, queue size, FUs, MOP
    /// parameters).
    pub sched: SchedConfig,
    /// Branch-prediction configuration.
    pub branch: BranchConfig,
    /// First-level instruction cache.
    pub il1: CacheConfig,
    /// First-level data cache.
    pub dl1: CacheConfig,
    /// Unified second-level cache.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles.
    pub memory_latency: u32,
    /// Idealization: branches are always predicted correctly (no wrong
    /// path, no squashes). For limit studies, not part of Table 1.
    pub ideal_branch: bool,
    /// Idealization: every data access hits the DL1 (loads never miss or
    /// replay). For limit studies, not part of Table 1.
    pub ideal_memory: bool,
}

/// The seven scheduler configurations the repo studies, by CLI label.
pub const SCHED_KINDS: [&str; 7] = [
    "base",
    "2cycle",
    "mop-2src",
    "mop-wor",
    "sf-squash",
    "sf-scoreboard",
    "spec-wakeup",
];

/// Standard 32-entry-queue machine configuration for a scheduler label
/// (one of [`SCHED_KINDS`]). `None` for unknown labels.
pub fn config_for(sched: &str) -> Option<MachineConfig> {
    Some(match sched {
        "base" => MachineConfig::base_32(),
        "2cycle" => MachineConfig::two_cycle_32(),
        "mop-2src" => MachineConfig::macro_op(WakeupStyle::CamTwoSource, Some(32), 1),
        "mop-wor" => MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        "sf-squash" => MachineConfig::select_free_squash_dep_32(),
        "sf-scoreboard" => MachineConfig::select_free_scoreboard_32(),
        "spec-wakeup" => MachineConfig::speculative_wakeup_32(),
        _ => return None,
    })
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::base_32()
    }
}

impl MachineConfig {
    fn table1(kind: SchedulerKind, wakeup: WakeupStyle, queue: Option<usize>) -> MachineConfig {
        let dl1 = CacheConfig::dl1();
        let exec_offset = 5;
        MachineConfig {
            fetch_width: 4,
            commit_width: 4,
            rob_entries: 128,
            front_depth: 4,
            extra_mop_stages: 0,
            exec_offset,
            sched: SchedConfig {
                kind,
                wakeup,
                queue_entries: queue,
                issue_width: 4,
                fu_counts: [4, 2, 2, 2, 2],
                // Covers the load-miss discovery window:
                // exec_offset + DL1 latency + 1.
                confirm_window: exec_offset + dl1.hit_latency + 1,
                replay_penalty: 2,
                load_sched_latency: 1 + dl1.hit_latency,
                mop: MopConfig::default(),
            },
            branch: BranchConfig::default(),
            il1: CacheConfig::il1(),
            dl1,
            l2: CacheConfig::l2(),
            memory_latency: 100,
            ideal_branch: false,
            ideal_memory: false,
        }
    }

    /// Base (ideally pipelined atomic) scheduling, unrestricted issue
    /// queue — the normalization baseline of Figure 14.
    pub fn base_unrestricted() -> MachineConfig {
        Self::table1(SchedulerKind::Base, WakeupStyle::WiredOr, None)
    }

    /// Base scheduling, 32-entry issue queue — the normalization baseline
    /// of Figures 15 and 16 and Table 2's left column.
    pub fn base_32() -> MachineConfig {
        Self::table1(SchedulerKind::Base, WakeupStyle::WiredOr, Some(32))
    }

    /// Pipelined 2-cycle scheduling, unrestricted queue (Figure 14's left
    /// bars).
    pub fn two_cycle_unrestricted() -> MachineConfig {
        Self::table1(SchedulerKind::TwoCycle, WakeupStyle::WiredOr, None)
    }

    /// Pipelined 2-cycle scheduling, 32-entry queue (Figure 15's left
    /// bars).
    pub fn two_cycle_32() -> MachineConfig {
        Self::table1(SchedulerKind::TwoCycle, WakeupStyle::WiredOr, Some(32))
    }

    /// Macro-op scheduling with the given wakeup style, queue size, and
    /// extra formation stages.
    pub fn macro_op(wakeup: WakeupStyle, queue: Option<usize>, extra_stages: u32) -> MachineConfig {
        let mut c = Self::table1(SchedulerKind::MacroOp, wakeup, queue);
        c.extra_mop_stages = extra_stages;
        c
    }

    /// Select-free scheduling, Squash Dep recovery, 32-entry queue
    /// (Figure 16).
    pub fn select_free_squash_dep_32() -> MachineConfig {
        Self::table1(
            SchedulerKind::SelectFreeSquashDep,
            WakeupStyle::WiredOr,
            Some(32),
        )
    }

    /// Select-free scheduling, Scoreboard recovery, 32-entry queue
    /// (Figure 16).
    pub fn select_free_scoreboard_32() -> MachineConfig {
        Self::table1(
            SchedulerKind::SelectFreeScoreboard,
            WakeupStyle::WiredOr,
            Some(32),
        )
    }

    /// Speculative wakeup (Stark et al.), 32-entry queue — the
    /// wakeup-phase-speculation counterpart to select-free scheduling,
    /// used by the extension study.
    pub fn speculative_wakeup_32() -> MachineConfig {
        Self::table1(
            SchedulerKind::SpeculativeWakeup,
            WakeupStyle::WiredOr,
            Some(32),
        )
    }

    /// Idealize branch prediction (limit studies).
    pub fn with_ideal_branch(mut self) -> MachineConfig {
        self.ideal_branch = true;
        self
    }

    /// Idealize the data memory system (limit studies).
    pub fn with_ideal_memory(mut self) -> MachineConfig {
        self.ideal_memory = true;
        self
    }

    /// Total fetch-to-insert delay in cycles.
    pub fn front_delay(&self) -> u64 {
        u64::from(self.front_depth) + u64::from(self.extra_mop_stages)
    }

    /// Whether the macro-op machinery (detection, pointers, formation) is
    /// active.
    pub fn mops_enabled(&self) -> bool {
        self.sched.kind == SchedulerKind::MacroOp
    }

    /// The [`SCHED_KINDS`] label of this configuration's scheduler (queue
    /// size, formation stages and idealizations do not change it).
    pub fn sched_label(&self) -> &'static str {
        match (self.sched.kind, self.sched.wakeup) {
            (SchedulerKind::Base, _) => "base",
            (SchedulerKind::TwoCycle, _) => "2cycle",
            (SchedulerKind::MacroOp, WakeupStyle::CamTwoSource) => "mop-2src",
            (SchedulerKind::MacroOp, WakeupStyle::WiredOr) => "mop-wor",
            (SchedulerKind::SelectFreeSquashDep, _) => "sf-squash",
            (SchedulerKind::SelectFreeScoreboard, _) => "sf-scoreboard",
            (SchedulerKind::SpeculativeWakeup, _) => "spec-wakeup",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        let c = MachineConfig::base_32();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.sched.queue_entries, Some(32));
        assert_eq!(c.sched.load_sched_latency, 3, "agen + 2-cycle DL1");
        assert_eq!(c.memory_latency, 100);
        assert!(MachineConfig::base_unrestricted()
            .sched
            .queue_entries
            .is_none());
    }

    #[test]
    fn macro_op_preset_sets_extra_stages() {
        let c = MachineConfig::macro_op(WakeupStyle::CamTwoSource, Some(32), 2);
        assert!(c.mops_enabled());
        assert_eq!(c.front_delay(), 6);
        assert_eq!(c.sched.max_entry_sources(), Some(2));
    }

    #[test]
    fn front_delay_does_not_wrap() {
        let mut c = MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 0);
        c.extra_mop_stages = u32::MAX;
        assert_eq!(
            c.front_delay(),
            u64::from(c.front_depth) + u64::from(u32::MAX)
        );
    }

    #[test]
    fn every_label_round_trips_through_its_config() {
        for l in SCHED_KINDS {
            let cfg = config_for(l).unwrap_or_else(|| panic!("{l} has no config"));
            assert_eq!(cfg.sched_label(), l);
        }
        assert!(config_for("bogus").is_none());
    }

    #[test]
    fn thirteen_stage_depth() {
        // Fetch(1) + front(4) + Sched(1) + exec_offset(5) + WB(1) +
        // Commit(1) = 13.
        let c = MachineConfig::base_32();
        assert_eq!(1 + c.front_depth + 1 + c.exec_offset + 1 + 1, 13);
    }
}

//! Normalized CPI stacks over the top-down slot-cause taxonomy, plus the
//! differential renderer behind `mossim cpistack --compare`.
//!
//! A [`CpiStack`] wraps one run's [`SlotCounts`] with enough metadata to
//! normalize it two ways: per-cause **slot shares** (fractions of
//! `cycles × issue_width`, summing to 1) and per-cause **CPI
//! components** (share × total CPI, summing to the run's CPI — the
//! classic stacked-bar form). The differential mode lines several stacks
//! up per cause and reports share deltas against the first (baseline)
//! stack; on a 2-cycle scheduler vs. MOP scheduling, the `sched_loop`
//! row *is* the paper's headline story in one number.

use std::fmt::Write as _;

use mos_core::{SlotCause, SlotCounts};

use crate::stats::SimStats;

/// One run's issue-slot accounting, normalized for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct CpiStack {
    /// Workload name (benchmark or RV32 program).
    pub bench: String,
    /// Scheduler spelling the run used (CLI vocabulary).
    pub sched: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Machine issue width (slots per cycle).
    pub issue_width: u64,
    /// Per-cause slot counts.
    pub slots: SlotCounts,
}

impl CpiStack {
    /// Build a stack from a finished run's statistics.
    ///
    /// The run must have had slot accounting enabled
    /// ([`crate::Simulator::enable_slot_accounting`]); otherwise the
    /// counts are all zero and [`CpiStack::check_conservation`] fails.
    pub fn from_stats(bench: &str, sched: &str, issue_width: u64, stats: &SimStats) -> CpiStack {
        CpiStack {
            bench: bench.to_string(),
            sched: sched.to_string(),
            cycles: stats.cycles,
            committed: stats.committed,
            issue_width,
            slots: stats.slots,
        }
    }

    /// Slots the machine offered over the run.
    pub fn total_slots(&self) -> u64 {
        self.cycles * self.issue_width
    }

    /// The conservation law: charged slots must equal offered slots.
    pub fn check_conservation(&self) -> Result<(), String> {
        self.slots.check_conservation(self.cycles, self.issue_width)
    }

    /// Fraction of all slots charged to `cause` (0 when no cycles ran).
    pub fn share(&self, cause: SlotCause) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            self.slots.get(cause) as f64 / total as f64
        }
    }

    /// Total cycles per committed instruction.
    pub fn cpi(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.cycles as f64 / self.committed as f64
        }
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// `cause`'s CPI component: share × total CPI. Components over
    /// [`SlotCause::ALL`] sum to [`CpiStack::cpi`].
    pub fn cpi_component(&self, cause: SlotCause) -> f64 {
        self.share(cause) * self.cpi()
    }

    /// The stack as one JSON object (hand-rolled; schema-checked in
    /// tests via `mos-testutil`'s parser). Every cause appears exactly
    /// once, in [`SlotCause::ALL`] order.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"bench\":\"{}\",\"sched\":\"{}\",\"cycles\":{},\"committed\":{},\
             \"issue_width\":{},\"ipc\":{:.4},\"cpi\":{:.4},\"conservation_ok\":{},\
             \"causes\":[",
            self.bench,
            self.sched,
            self.cycles,
            self.committed,
            self.issue_width,
            self.ipc(),
            self.cpi(),
            self.check_conservation().is_ok(),
        );
        for (i, &cause) in SlotCause::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"cause\":\"{}\",\"slots\":{},\"share\":{:.6},\"cpi\":{:.6}}}",
                cause.name(),
                self.slots.get(cause),
                self.share(cause),
                self.cpi_component(cause),
            );
        }
        s.push_str("]}");
        s
    }

    /// Markdown table of the stack, one row per cause, with a
    /// conservation footer.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "CPI stack: {} / {} — {} cycles, {} committed, IPC {:.3}, CPI {:.3}",
            self.bench,
            self.sched,
            self.cycles,
            self.committed,
            self.ipc(),
            self.cpi(),
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "| cause | slots | share | CPI |");
        let _ = writeln!(s, "|---|---:|---:|---:|");
        for &cause in &SlotCause::ALL {
            let _ = writeln!(
                s,
                "| {} | {} | {:.1}% | {:.3} |",
                cause.name(),
                self.slots.get(cause),
                100.0 * self.share(cause),
                self.cpi_component(cause),
            );
        }
        let _ = writeln!(s);
        match self.check_conservation() {
            Ok(()) => {
                let _ = writeln!(
                    s,
                    "conservation: ok ({} slots = {} cycles x {} width)",
                    self.total_slots(),
                    self.cycles,
                    self.issue_width
                );
            }
            Err(e) => {
                let _ = writeln!(s, "conservation: VIOLATED — {e}");
            }
        }
        s
    }
}

/// Differential markdown table: per-cause shares for every stack side by
/// side, then share deltas against the first (baseline) stack.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn compare_markdown(stacks: &[CpiStack]) -> String {
    assert!(!stacks.is_empty(), "nothing to compare");
    let base = &stacks[0];
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Differential CPI stack: {} ({} insts committed on {})",
        base.bench, base.committed, base.sched
    );
    let _ = writeln!(s);
    let mut header = String::from("| cause |");
    let mut rule = String::from("|---|");
    for st in stacks {
        let _ = write!(header, " {} |", st.sched);
        rule.push_str("---:|");
    }
    let _ = writeln!(s, "{header}");
    let _ = writeln!(s, "{rule}");
    for &cause in &SlotCause::ALL {
        let _ = write!(s, "| {} |", cause.name());
        for st in stacks {
            let _ = write!(s, " {:.1}% |", 100.0 * st.share(cause));
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "| **CPI** |");
    for st in stacks {
        let _ = write!(s, " {:.3} |", st.cpi());
    }
    let _ = writeln!(s);
    let _ = writeln!(s);
    for st in &stacks[1..] {
        let _ = writeln!(s, "Δ {} vs {} (share points):", st.sched, base.sched);
        for &cause in &SlotCause::ALL {
            let d = 100.0 * (st.share(cause) - base.share(cause));
            if d.abs() >= 0.05 {
                let _ = writeln!(s, "  {:<11} {:+.1}", cause.name(), d);
            }
        }
    }
    s
}

/// Differential JSON document: the stacks plus per-cause share deltas of
/// every stack against the first.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn compare_json(stacks: &[CpiStack]) -> String {
    assert!(!stacks.is_empty(), "nothing to compare");
    let base = &stacks[0];
    let mut s = String::from("{\"stacks\":[");
    for (i, st) in stacks.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&st.to_json());
    }
    s.push_str("],\"deltas\":[");
    for (i, st) in stacks[1..].iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"sched\":\"{}\",\"vs\":\"{}\",\"causes\":[",
            st.sched, base.sched
        );
        for (j, &cause) in SlotCause::ALL.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"cause\":\"{}\",\"delta_share\":{:.6}}}",
                cause.name(),
                st.share(cause) - base.share(cause),
            );
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(sched: &str, useful: u64, loop_: u64, drained: u64) -> CpiStack {
        let mut slots = SlotCounts::default();
        slots.add(SlotCause::Useful, useful);
        slots.add(SlotCause::SchedLoop, loop_);
        slots.add(SlotCause::Drained, drained);
        CpiStack {
            bench: "toy".into(),
            sched: sched.into(),
            cycles: (useful + loop_ + drained) / 4,
            committed: useful,
            issue_width: 4,
            slots,
        }
    }

    #[test]
    fn shares_and_cpi_components_reconcile() {
        let st = stack("base", 60, 20, 20);
        assert!(st.check_conservation().is_ok());
        let share_sum: f64 = SlotCause::ALL.iter().map(|&c| st.share(c)).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        let cpi_sum: f64 = SlotCause::ALL.iter().map(|&c| st.cpi_component(c)).sum();
        assert!((cpi_sum - st.cpi()).abs() < 1e-12);
    }

    #[test]
    fn conservation_violation_is_reported() {
        let mut st = stack("base", 60, 20, 20);
        st.cycles += 1;
        assert!(st.check_conservation().is_err());
        assert!(st.to_json().contains("\"conservation_ok\":false"));
        assert!(st.to_markdown().contains("conservation: VIOLATED"));
    }

    #[test]
    fn compare_renders_all_stacks_and_deltas() {
        let a = stack("base", 80, 0, 20);
        let b = stack("2cycle", 60, 30, 10);
        let md = compare_markdown(&[a.clone(), b.clone()]);
        assert!(md.contains("| sched_loop |"));
        assert!(md.contains("Δ 2cycle vs base"));
        let js = compare_json(&[a, b]);
        assert!(js.contains("\"deltas\":[{\"sched\":\"2cycle\",\"vs\":\"base\""));
    }
}

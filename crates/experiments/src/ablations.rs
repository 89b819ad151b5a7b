//! Ablation studies for the design choices the paper calls out:
//!
//! * **Detection delay** — 3 vs 100 cycles (Section 5.1.2: the paper
//!   measures an average 0.22 % loss, worst 0.76 % in parser, because
//!   pointers stored in the I-cache are reused repeatedly).
//! * **Cycle-detection policy** — the conservative heuristic vs precise
//!   in-window detection (Section 5.1.1: the heuristic keeps over 90 % of
//!   grouping opportunities).
//! * **Last-arriving-operand filter** — on/off (Section 5.4.2: gap loses
//!   opportunities without it).
//! * **Independent MOPs** — on/off (Section 5.4.1: they serialize
//!   independent work but reduce queue contention; eon shows the cost).
//! * **MOP size** — 2/3/4-instruction MOPs with wired-OR wakeup (the
//!   paper's future-work configurations, enabled by chained pointers).

use std::fmt;

use mos_core::{CycleDetection, WakeupStyle};
use mos_sim::MachineConfig;

use crate::runner::Sweep;

/// Benchmarks used for the ablations (a representative spread: the most
/// scheduler-sensitive, the long-distance case, the queue-pressure case
/// and the independent-MOP-sensitive case).
pub const ABLATION_BENCHES: [&str; 5] = ["gap", "gzip", "parser", "vortex", "eon"];

/// One named configuration's IPC per benchmark, normalized to a named
/// reference configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Study name.
    pub name: String,
    /// `(benchmark, reference IPC, variant IPCs by arm)` rows.
    pub rows: Vec<(String, f64, Vec<f64>)>,
    /// Arm labels (excluding the reference).
    pub arms: Vec<String>,
    /// Optional extra per-benchmark annotation (e.g. grouping fraction).
    pub notes: Vec<String>,
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: {}", self.name)?;
        write!(f, "{:8} {:>9}", "bench", "reference")?;
        for a in &self.arms {
            write!(f, " {a:>12}")?;
        }
        writeln!(f)?;
        for (i, (bench, base, arms)) in self.rows.iter().enumerate() {
            write!(f, "{bench:8} {base:9.3}")?;
            for v in arms {
                write!(f, " {:12.3}", v / base)?;
            }
            if let Some(n) = self.notes.get(i) {
                if !n.is_empty() {
                    write!(f, "   {n}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn mop_cfg(stages: u32) -> MachineConfig {
    MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), stages)
}

/// Detection delay: 3 (reference) vs 100 cycles.
pub fn detection_delay(sweep: &Sweep) -> Ablation {
    let mut slow_cfg = mop_cfg(1);
    slow_cfg.sched.mop.detection_delay = 100;
    let rows = ABLATION_BENCHES
        .iter()
        .zip(sweep.grid(&ABLATION_BENCHES, &[mop_cfg(1), slow_cfg]))
        .map(|(&b, s)| (b.to_owned(), s[0].ipc(), vec![s[1].ipc()]))
        .collect();
    Ablation {
        name: "MOP detection delay (3 cycles -> 100 cycles); paper: avg -0.22 %, worst -0.76 %"
            .into(),
        rows,
        arms: vec!["delay=100".into()],
        notes: Vec::new(),
    }
}

/// Cycle detection: conservative heuristic (reference) vs precise.
pub fn cycle_heuristic(sweep: &Sweep) -> Ablation {
    let mut precise_cfg = mop_cfg(1);
    precise_cfg.sched.mop.cycle_detection = CycleDetection::Precise;
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (&b, s) in ABLATION_BENCHES
        .iter()
        .zip(sweep.grid(&ABLATION_BENCHES, &[mop_cfg(1), precise_cfg]))
    {
        let (h, p) = (&s[0], &s[1]);
        let ratio = if p.grouped_frac() > 0.0 {
            h.grouped_frac() / p.grouped_frac()
        } else {
            1.0
        };
        notes.push(format!(
            "grouped {:.1}% vs {:.1}% precise ({:.0}% of opportunities kept)",
            100.0 * h.grouped_frac(),
            100.0 * p.grouped_frac(),
            100.0 * ratio,
        ));
        rows.push((b.to_owned(), h.ipc(), vec![p.ipc()]));
    }
    Ablation {
        name: "cycle detection: heuristic (reference) vs precise; paper: heuristic keeps >90 %"
            .into(),
        rows,
        arms: vec!["precise".into()],
        notes,
    }
}

/// Last-arriving-operand filter: on (reference) vs off.
pub fn last_arrival_filter(sweep: &Sweep) -> Ablation {
    let mut off_cfg = mop_cfg(1);
    off_cfg.sched.mop.last_arrival_filter = false;
    let rows = ABLATION_BENCHES
        .iter()
        .zip(sweep.grid(&ABLATION_BENCHES, &[mop_cfg(1), off_cfg]))
        .map(|(&b, s)| (b.to_owned(), s[0].ipc(), vec![s[1].ipc()]))
        .collect();
    Ablation {
        name: "last-arriving-operand filter: on (reference) vs off (Section 5.4.2)".into(),
        rows,
        arms: vec!["filter off".into()],
        notes: Vec::new(),
    }
}

/// Independent MOPs: on (reference) vs off.
pub fn independent_mops(sweep: &Sweep) -> Ablation {
    let mut off_cfg = mop_cfg(1);
    off_cfg.sched.mop.group_independent = false;
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (&b, s) in ABLATION_BENCHES
        .iter()
        .zip(sweep.grid(&ABLATION_BENCHES, &[mop_cfg(1), off_cfg]))
    {
        let (on, off) = (&s[0], &s[1]);
        notes.push(format!(
            "grouped {:.1}% -> {:.1}% without",
            100.0 * on.grouped_frac(),
            100.0 * off.grouped_frac()
        ));
        rows.push((b.to_owned(), on.ipc(), vec![off.ipc()]));
    }
    Ablation {
        name: "independent MOPs: on (reference) vs off (Section 5.4.1)".into(),
        rows,
        arms: vec!["indep off".into()],
        notes,
    }
}

/// MOP sizes 2 (reference), 3 and 4 — the paper's future work.
pub fn mop_size(sweep: &Sweep) -> Ablation {
    let cfgs: Vec<MachineConfig> = std::iter::once(mop_cfg(1))
        .chain([3usize, 4].into_iter().map(|size| {
            let mut cfg = mop_cfg(1);
            cfg.sched.mop.max_mop_size = size;
            cfg
        }))
        .collect();
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (&b, s) in ABLATION_BENCHES
        .iter()
        .zip(sweep.grid(&ABLATION_BENCHES, &cfgs))
    {
        let two = &s[0];
        let mut sizes_note = format!("grouped {:.1}%", 100.0 * two.grouped_frac());
        for bigger in &s[1..] {
            sizes_note.push_str(&format!(" / {:.1}%", 100.0 * bigger.grouped_frac()));
        }
        notes.push(sizes_note);
        rows.push((
            b.to_owned(),
            two.ipc(),
            s[1..].iter().map(mos_sim::SimStats::ipc).collect(),
        ));
    }
    Ablation {
        name: "MOP size: 2 (reference) vs 3 vs 4 instructions (future work, wired-OR)".into(),
        rows,
        arms: vec!["size=3".into(), "size=4".into()],
        notes,
    }
}

/// Run every ablation and render them.
pub fn run_all(sweep: &Sweep) -> String {
    [
        detection_delay(sweep),
        cycle_heuristic(sweep),
        last_arrival_filter(sweep),
        independent_mops(sweep),
        mop_size(sweep),
    ]
    .iter()
    .map(|a| a.to_string())
    .collect::<Vec<_>>()
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Sweep {
        Sweep::new(15_000, crate::runner::default_jobs())
    }

    #[test]
    fn detection_delay_costs_little() {
        let a = detection_delay(&sweep());
        for (bench, base, arms) in &a.rows {
            let rel = arms[0] / base;
            assert!(
                rel > 0.95,
                "{bench}: delay=100 at {rel:.3} of fast detection"
            );
        }
    }

    #[test]
    fn heuristic_keeps_most_opportunities() {
        let a = cycle_heuristic(&sweep());
        for (bench, base, arms) in &a.rows {
            let rel = arms[0] / base;
            assert!(
                rel < 1.05 && rel > 0.95,
                "{bench}: precise vs heuristic {rel:.3}"
            );
        }
    }

    #[test]
    fn larger_mops_group_no_less() {
        let a = mop_size(&sweep());
        assert_eq!(a.arms.len(), 2);
        for (bench, base, arms) in &a.rows {
            // Bigger MOPs should not catastrophically hurt.
            assert!(
                arms[1] / base > 0.85,
                "{bench}: size=4 {:.3}",
                arms[1] / base
            );
        }
    }
}

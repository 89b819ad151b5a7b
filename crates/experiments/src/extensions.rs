//! Extension studies beyond the paper's figures:
//!
//! * [`pipelined_schedulers`] — the full pipelined-scheduling design
//!   space: 2-cycle, speculative wakeup (Stark et al., speculation in
//!   the *wakeup* phase), select-free (Brown et al., speculation in
//!   the *select* phase, both recovery schemes) and macro-op scheduling
//!   (non-speculative) side by side.
//! * [`detection_scope`] — MOP detection scope 4/8/16 instructions
//!   (Section 4.2 fixes 8 after characterizing dependence distances).
//! * [`effective_window`] — IPC and grouping versus issue-queue size,
//!   quantifying the paper's claim that entry sharing "increases the
//!   effective size of the window".

use std::fmt;

use mos_core::WakeupStyle;
use mos_sim::MachineConfig;
use mos_workload::spec2000;

use crate::runner::{geomean, Job, Sweep};

/// A labeled matrix of normalized IPCs: rows are benchmarks, columns arms.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Study name.
    pub name: String,
    /// Column labels.
    pub arms: Vec<String>,
    /// `(bench, base ipc, normalized arm values)`.
    pub rows: Vec<(String, f64, Vec<f64>)>,
}

impl Matrix {
    /// Geometric mean per arm.
    pub fn means(&self) -> Vec<f64> {
        (0..self.arms.len())
            .map(|k| geomean(&self.rows.iter().map(|r| r.2[k]).collect::<Vec<_>>()))
            .collect()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Extension: {}", self.name)?;
        write!(f, "{:8} {:>7}", "bench", "base")?;
        for a in &self.arms {
            write!(f, " {a:>10}")?;
        }
        writeln!(f)?;
        for (bench, base, vals) in &self.rows {
            write!(f, "{bench:8} {base:7.3}")?;
            for v in vals {
                write!(f, " {v:10.3}")?;
            }
            writeln!(f)?;
        }
        write!(f, "{:8} {:>7}", "geomean", "")?;
        for m in self.means() {
            write!(f, " {m:10.3}")?;
        }
        writeln!(f)
    }
}

/// All pipelined schedulers, normalized to base (32-entry queue).
pub fn pipelined_schedulers(sweep: &Sweep) -> Matrix {
    let arms = vec![
        "2-cycle".to_owned(),
        "spec-wake".to_owned(),
        "sf-squash".to_owned(),
        "sf-scoreb".to_owned(),
        "MOP-wOR".to_owned(),
    ];
    let cfgs = [
        MachineConfig::base_32(),
        MachineConfig::two_cycle_32(),
        MachineConfig::speculative_wakeup_32(),
        MachineConfig::select_free_squash_dep_32(),
        MachineConfig::select_free_scoreboard_32(),
        MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
    ];
    let benches = spec2000::names();
    let rows = benches
        .iter()
        .zip(sweep.grid(&benches, &cfgs))
        .map(|(&name, s)| {
            let base = s[0].ipc();
            let vals = s[1..].iter().map(|v| v.ipc() / base).collect();
            (name.to_owned(), base, vals)
        })
        .collect();
    Matrix {
        name: "pipelined scheduling design space (normalized to base, 32-entry queue)".into(),
        arms,
        rows,
    }
}

/// Detection scope 4 / 8 (paper) / 16 instructions; reports normalized
/// IPC with grouping fractions in the labels.
pub fn detection_scope(sweep: &Sweep) -> Matrix {
    let scopes = [4usize, 8, 16];
    let arms = scopes.iter().map(|s| format!("scope={s}")).collect();
    let cfgs: Vec<MachineConfig> = std::iter::once(MachineConfig::base_32())
        .chain(scopes.iter().map(|&scope| {
            let mut cfg = MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1);
            cfg.sched.mop.scope = scope;
            cfg
        }))
        .collect();
    let benches = spec2000::names();
    let rows = benches
        .iter()
        .zip(sweep.grid(&benches, &cfgs))
        .map(|(&name, s)| {
            let base = s[0].ipc();
            let vals = s[1..].iter().map(|v| v.ipc() / base).collect();
            (name.to_owned(), base, vals)
        })
        .collect();
    Matrix {
        name: "MOP detection scope (Section 4.2 fixes 8 instructions)".into(),
        arms,
        rows,
    }
}

/// Effective window: base vs macro-op IPC across queue sizes, showing the
/// contention benefit of two instructions per entry.
pub fn effective_window(sweep: &Sweep) -> Matrix {
    let sizes: [Option<usize>; 4] = [Some(12), Some(16), Some(24), Some(32)];
    let arms = sizes
        .iter()
        .map(|s| format!("mop/q{}", s.expect("sized")))
        .collect();
    // Config order per benchmark: base-32 first, then a (base@q, mop@q)
    // pair for each queue size. Normalizing against base at the same
    // queue size isolates the macro-op benefit at that size.
    let cfgs: Vec<MachineConfig> = std::iter::once(MachineConfig::base_32())
        .chain(sizes.iter().flat_map(|&q| {
            let mut b = MachineConfig::base_32();
            b.sched.queue_entries = q;
            [b, MachineConfig::macro_op(WakeupStyle::WiredOr, q, 1)]
        }))
        .collect();
    let benches = ["gap", "gzip", "parser", "twolf", "mcf", "gcc"];
    let rows = benches
        .iter()
        .zip(sweep.grid(&benches, &cfgs))
        .map(|(&name, s)| {
            let base32 = s[0].ipc();
            let vals = s[1..]
                .chunks_exact(2)
                .map(|pair| pair[1].ipc() / pair[0].ipc())
                .collect();
            (name.to_owned(), base32, vals)
        })
        .collect();
    Matrix {
        name: "effective window: MOP/base IPC ratio by queue size (entry sharing pays most when small)"
            .into(),
        arms,
        rows,
    }
}

/// CPI attribution via idealization: how much of each benchmark's time
/// goes to branches, data memory, and the scheduling loop. Columns are
/// CPI shares removed by idealizing each subsystem (and by swapping the
/// 2-cycle scheduler back to atomic under full idealization).
pub fn cpi_breakdown(sweep: &Sweep) -> Matrix {
    let arms = vec![
        "cpi".to_owned(),
        "branch".to_owned(),
        "memory".to_owned(),
        "schedloop".to_owned(),
    ];
    let cfgs = [
        MachineConfig::base_32(),
        MachineConfig::base_32().with_ideal_branch(),
        MachineConfig::base_32().with_ideal_memory(),
        // Scheduling-loop share: ideal machine, atomic vs 2-cycle loop.
        MachineConfig::base_32()
            .with_ideal_branch()
            .with_ideal_memory(),
        MachineConfig::two_cycle_32()
            .with_ideal_branch()
            .with_ideal_memory(),
    ];
    let benches = spec2000::names();
    let rows = benches
        .iter()
        .zip(sweep.grid(&benches, &cfgs))
        .map(|(&name, s)| {
            let cpi = |i: usize| 1.0 / s[i].ipc().max(1e-9);
            let (base, no_branch, no_mem) = (cpi(0), cpi(1), cpi(2));
            let (ideal_base, ideal_two) = (cpi(3), cpi(4));
            let vals = vec![
                base,
                (base - no_branch).max(0.0),
                (base - no_mem).max(0.0),
                (ideal_two - ideal_base).max(0.0),
            ];
            (name.to_owned(), 1.0 / base, vals)
        })
        .collect();
    Matrix {
        name: "CPI attribution by idealization (branch / data memory / 2-cycle scheduling loop)"
            .into(),
        arms,
        rows,
    }
}

/// Seed sensitivity of the headline result: the Figure 14 comparison
/// re-run over several workload seeds (different program instances of
/// each benchmark model). Columns report the 2-cycle and macro-op
/// normalized IPC as mean over seeds; the honest error bars for our
/// synthetic-workload substitution. Each run gets half the sweep's
/// budget, so three seeds cost one and a half grids.
pub fn seed_sensitivity(sweep: &Sweep, seeds: &[u64]) -> Matrix {
    let insts = (sweep.insts / 2).max(1);
    let arms = vec![
        "2cyc-mean".to_owned(),
        "2cyc-min".to_owned(),
        "mop-mean".to_owned(),
        "mop-min".to_owned(),
    ];
    let benches = ["gap", "gzip", "parser", "vortex", "eon"];
    // Per benchmark: (base, 2-cycle, MOP) for each seed, flattened.
    let grid: Vec<Job> = benches
        .iter()
        .flat_map(|&name| {
            seeds.iter().flat_map(move |&seed| {
                [
                    Job::with_seed(name, MachineConfig::base_unrestricted(), insts, seed),
                    Job::with_seed(name, MachineConfig::two_cycle_unrestricted(), insts, seed),
                    Job::with_seed(
                        name,
                        MachineConfig::macro_op(WakeupStyle::WiredOr, None, 0),
                        insts,
                        seed,
                    ),
                ]
            })
        })
        .collect();
    let stats = sweep.run_jobs(&grid);
    let rows = benches
        .iter()
        .zip(stats.chunks_exact(3 * seeds.len()))
        .map(|(&name, s)| {
            let mut two = Vec::new();
            let mut mop = Vec::new();
            let mut base0 = 0.0;
            for triple in s.chunks_exact(3) {
                let base = triple[0].ipc();
                if base0 == 0.0 {
                    base0 = base;
                }
                two.push(triple[1].ipc() / base);
                mop.push(triple[2].ipc() / base);
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
            (
                name.to_owned(),
                base0,
                vec![mean(&two), min(&two), mean(&mop), min(&mop)],
            )
        })
        .collect();
    Matrix {
        name: format!(
            "seed sensitivity of Figure 14 over {} program instances (unrestricted queue)",
            seeds.len()
        ),
        arms,
        rows,
    }
}

/// Run and render all extension studies.
pub fn run_all(sweep: &Sweep) -> String {
    [
        pipelined_schedulers(sweep),
        detection_scope(sweep),
        effective_window(sweep),
        cpi_breakdown(sweep),
        seed_sensitivity(sweep, &[42, 7, 1234]),
    ]
    .iter()
    .map(|m| m.to_string())
    .collect::<Vec<_>>()
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    const N: u64 = 12_000;

    fn sweep() -> Sweep {
        Sweep::new(N, runner::default_jobs())
    }

    #[test]
    fn speculative_wakeup_between_two_cycle_and_base() {
        let m = pipelined_schedulers(&sweep());
        let means = m.means();
        let (two, spec) = (means[0], means[1]);
        assert!(
            spec > two - 0.01,
            "speculative wakeup ({spec:.3}) should beat 2-cycle ({two:.3})"
        );
        assert!(spec <= 1.02, "speculation cannot beat the atomic baseline");
    }

    #[test]
    fn wider_scope_groups_no_worse() {
        let m = detection_scope(&sweep());
        for (bench, _, vals) in &m.rows {
            assert!(
                vals[2] >= vals[0] - 0.05,
                "{bench}: scope 16 ({:.3}) should not collapse vs 4 ({:.3})",
                vals[2],
                vals[0]
            );
        }
    }

    #[test]
    fn idealization_only_helps() {
        for bench in ["mcf", "crafty"] {
            let real = Job::new(bench, MachineConfig::base_32(), N).run().ipc();
            let ib = Job::new(bench, MachineConfig::base_32().with_ideal_branch(), N).run();
            let im = Job::new(bench, MachineConfig::base_32().with_ideal_memory(), N).run();
            assert!(ib.ipc() >= real * 0.99, "{bench}: ideal branch can't hurt");
            assert!(im.ipc() >= real * 0.99, "{bench}: ideal memory can't hurt");
            assert_eq!(ib.mispredicts, 0, "{bench}: no mispredicts when ideal");
            assert_eq!(im.dl1.1, 0, "{bench}: no DL1 misses when ideal");
        }
        // mcf is memory-bound: idealizing memory must be transformative.
        let real = Job::new("mcf", MachineConfig::base_32(), N).run().ipc();
        let im = Job::new("mcf", MachineConfig::base_32().with_ideal_memory(), N)
            .run()
            .ipc();
        assert!(im > real * 1.5, "mcf: {real:.3} -> {im:.3}");
    }

    #[test]
    fn entry_sharing_pays_more_when_the_queue_is_smaller() {
        let m = effective_window(&sweep());
        let means = m.means();
        assert!(
            means[0] >= means[3] - 0.02,
            "q12 benefit {:.3} vs q32 benefit {:.3}",
            means[0],
            means[3]
        );
    }
}

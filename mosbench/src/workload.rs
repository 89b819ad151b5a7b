//! The four pinned workloads, their jobs, and how one job runs.

use std::sync::Arc;

use mos_core::WakeupStyle;
use mos_rv::{config_for, run_differential, RvProgram};
use mos_sim::{MachineConfig, SimStats, Simulator};
use mos_workload::{spec2000, SynthTrace, SyntheticProgram};

/// Functional-oracle step bound for the RV programs (each suite program
/// halts after a few thousand steps).
const RV_MAX_STEPS: usize = 5_000_000;

/// Seed of every synthetic program instance. The run's seed drives only
/// the committed-path walks (branch outcomes, addresses): program
/// instances built from different seeds differ by up to 50% in simulated
/// CPI, which would swamp host-speed differences between seeds, while
/// walks of one instance differ by under 1%.
pub const PROGRAM_SEED: u64 = 42;

/// `WorkloadSpec::trace` walks a model built from `seed` with this seed
/// mixed in; the jobs use the same mix, so at seed 42 every job's stream
/// equals `spec.trace(42)`, the stream `mossim` and the experiments run.
const WALK_SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 12 SPEC models x {base, 2cycle, mop-wor}, 32-entry queue.
    SpecQ32,
    /// 12 SPEC models x {base, mop-2src, mop-wor}, unrestricted queue.
    SpecUnrestricted,
    /// mcf x the 7 schedulers x 3 walk seeds, 32-entry queue.
    McfMemory,
    /// The 7 RV32 suite programs x the 7 schedulers, differentially checked.
    RvChecked,
}

impl Workload {
    /// Every workload, in the order a full run takes them.
    pub const ALL: [Workload; 4] = [
        Workload::SpecQ32,
        Workload::SpecUnrestricted,
        Workload::McfMemory,
        Workload::RvChecked,
    ];

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecQ32 => "spec-q32",
            Workload::SpecUnrestricted => "spec-unrestricted",
            Workload::McfMemory => "mcf-memory",
            Workload::RvChecked => "rv-checked",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Committed-instruction budget per synthetic job; `None` for the RV
    /// programs, which run to their own halt.
    pub fn default_budget(self) -> Option<u64> {
        match self {
            Workload::SpecQ32 | Workload::McfMemory => Some(40_000),
            Workload::SpecUnrestricted => Some(30_000),
            Workload::RvChecked => None,
        }
    }

    /// Milliseconds budgeted for one timed round: a little above one
    /// round's time on the reference host (a 2-vCPU Intel Xeon KVM guest).
    fn round_ms(self) -> u64 {
        match self {
            Workload::SpecQ32 => 2_000,
            Workload::SpecUnrestricted => 4_000,
            Workload::McfMemory => 3_000,
            Workload::RvChecked => 400,
        }
    }

    /// Timed rounds in a run of `seconds` (at least one). R depends on the
    /// argument only, never on elapsed time, so every commit is measured
    /// with the same best-of-R estimator.
    pub fn rounds(self, seconds: f64) -> u32 {
        let ms = (seconds.max(0.0) * 1e3).round() as u64;
        (ms / self.round_ms()).max(1) as u32
    }

    /// The pinned per-job results, embedded at build time.
    pub fn expected_table(self) -> &'static str {
        match self {
            Workload::SpecQ32 => include_str!("../expected/spec-q32.tsv"),
            Workload::SpecUnrestricted => include_str!("../expected/spec-unrestricted.tsv"),
            Workload::McfMemory => include_str!("../expected/mcf-memory.tsv"),
            Workload::RvChecked => include_str!("../expected/rv-checked.tsv"),
        }
    }

    /// `true` when the workload's inputs do not depend on the seed (the RV
    /// suite is fixed), so its pinned results hold at every seed.
    pub fn seed_independent(self) -> bool {
        self == Workload::RvChecked
    }
}

/// Where a job's committed-path stream comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A synthetic SPEC model walked by `mos-workload`.
    Spec {
        /// The generated static program (shared, cheap to clone).
        program: SyntheticProgram,
        /// Walker seed.
        walk_seed: u64,
    },
    /// An RV32 program, run through `run_differential`.
    Rv(Arc<RvProgram>),
}

/// One simulation the workload runs every round.
#[derive(Debug, Clone)]
pub struct Job {
    /// `bench/sched/sSEED` for synthetic jobs, `program/sched` for RV.
    pub label: String,
    /// Scheduler label (the `mossim --sched` vocabulary).
    pub sched: &'static str,
    /// Machine configuration.
    pub cfg: MachineConfig,
    /// Stream source.
    pub source: Source,
    /// Committed-instruction budget (`u64::MAX`: run to halt).
    pub budget: u64,
}

impl Job {
    /// A fresh synthetic stream for this job (`None` for RV jobs).
    pub fn walk(&self) -> Option<SynthTrace> {
        match &self.source {
            Source::Spec { program, walk_seed } => Some(program.walk(*walk_seed)),
            Source::Rv(_) => None,
        }
    }

    /// `true` when the macro-op machinery is active in this job.
    pub fn mops(&self) -> bool {
        self.cfg.mops_enabled()
    }

    /// Run the job once with no observer attached (release builds; debug
    /// builds auto-attach the invariant oracle and slot accounting).
    ///
    /// # Errors
    ///
    /// The differential oracle's message when an RV job diverges.
    pub fn run(&self) -> Result<SimStats, String> {
        match &self.source {
            Source::Spec { program, walk_seed } => {
                let mut sim = Simulator::new(self.cfg.clone(), program.walk(*walk_seed));
                Ok(sim.run(self.budget))
            }
            Source::Rv(rv) => run_differential(rv, self.sched, self.cfg.clone(), RV_MAX_STEPS)
                .map(|r| r.stats)
                .map_err(|e| format!("{}: {e}", self.label)),
        }
    }
}

/// Scheduler configurations of `spec-unrestricted`: Figure 14's machine.
fn unrestricted(sched: &str) -> MachineConfig {
    match sched {
        "base" => MachineConfig::base_unrestricted(),
        "mop-2src" => MachineConfig::macro_op(WakeupStyle::CamTwoSource, None, 0),
        "mop-wor" => MachineConfig::macro_op(WakeupStyle::WiredOr, None, 0),
        other => unreachable!("no unrestricted preset for {other}"),
    }
}

fn preset(sched: &'static str) -> MachineConfig {
    config_for(sched).expect("scheduler label from mos_rv::SCHED_KINDS")
}

/// Build every job of `w` for `seed`: the synthetic program instances
/// (from [`PROGRAM_SEED`]) and the walk seeds, or the assembled RV suite.
/// `budget` overrides the workload's default per-job budget for synthetic
/// jobs.
///
/// # Errors
///
/// A message when an RV suite program no longer assembles or lowers.
pub fn build_jobs(w: Workload, seed: u64, budget: Option<u64>) -> Result<Vec<Job>, String> {
    let budget = budget.or(w.default_budget()).unwrap_or(u64::MAX);
    let spec_job =
        |program: &SyntheticProgram, bench: &str, sched: &'static str, s: u64, cfg| Job {
            label: format!("{bench}/{sched}/s{s}"),
            sched,
            cfg,
            source: Source::Spec {
                program: program.clone(),
                walk_seed: s ^ WALK_SEED_MIX,
            },
            budget,
        };
    let mut jobs = Vec::new();
    match w {
        Workload::SpecQ32 | Workload::SpecUnrestricted => {
            let (scheds, config): ([&'static str; 3], fn(&'static str) -> MachineConfig) =
                if w == Workload::SpecQ32 {
                    (["base", "2cycle", "mop-wor"], preset)
                } else {
                    (["base", "mop-2src", "mop-wor"], unrestricted)
                };
            for spec in spec2000::all() {
                let program = spec.build(PROGRAM_SEED);
                for sched in scheds {
                    jobs.push(spec_job(&program, spec.name, sched, seed, config(sched)));
                }
            }
        }
        Workload::McfMemory => {
            let spec = spec2000::by_name("mcf").expect("mcf is a SPEC model");
            let program = spec.build(PROGRAM_SEED);
            for s in (0..3).map(|k| seed.wrapping_add(k)) {
                for sched in mos_rv::SCHED_KINDS {
                    jobs.push(spec_job(&program, "mcf", sched, s, preset(sched)));
                }
            }
        }
        Workload::RvChecked => {
            for p in mos_rv::suite::PROGRAMS {
                let rv = mos_rv::assemble(p.name, p.source)
                    .map_err(|e| format!("suite program {}: {e}", p.name))?;
                mos_rv::lower(&rv).map_err(|e| format!("suite program {}: {e}", p.name))?;
                let rv = Arc::new(rv);
                for sched in mos_rv::SCHED_KINDS {
                    jobs.push(Job {
                        label: format!("{}/{sched}", p.name),
                        sched,
                        cfg: preset(sched),
                        source: Source::Rv(Arc::clone(&rv)),
                        budget: u64::MAX,
                    });
                }
            }
        }
    }
    Ok(jobs)
}

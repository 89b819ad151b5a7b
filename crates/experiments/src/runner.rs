//! Shared experiment plumbing: standard seeds, instruction budgets, the
//! [`Sweep`] every study runs in, and the parallel job harness that fans
//! independent simulations across cores.
//!
//! Parallelism model: each `(benchmark, config)` simulation is one [`Job`];
//! jobs are independent and each `Simulator` stays single-threaded and
//! deterministic. [`Sweep::run_jobs`] executes a job list across the
//! sweep's worker threads and assembles results **by job index**, so
//! figure output is byte-identical for any `--jobs N` (including the
//! serial `--jobs 1` path, which runs inline without spawning threads).
//!
//! Perf totals: a [`Sweep`] adds every run's simulated cycles, commits
//! and scheduler kind ([`MachineConfig::sched_label`]) to its own totals,
//! which `experiments perf` reads after timing one study on a fresh sweep.
//!
//! Workload caching: the static synthetic program for a `(benchmark,
//! seed)` pair is generated once and shared via `Arc` (see
//! `cached_program`); every run still gets its own private trace
//! walker, so sharing cannot leak state between simulations.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use mos_sim::{MachineConfig, SimStats, Simulator, SCHED_KINDS};
use mos_workload::spec2000;
use mos_workload::{SyntheticProgram, WorkloadSpec};

/// Workload seed used by every experiment (deterministic across
/// schedulers and runs).
pub const SEED: u64 = 42;

/// Default committed-instruction budget per simulation when regenerating
/// figures from the CLI.
pub const DEFAULT_INSTS: u64 = 150_000;

/// A quicker budget for smoke tests.
pub const QUICK_INSTS: u64 = 40_000;

/// Number of worker threads to use when the caller does not specify:
/// one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A [`QUICK_INSTS`] sweep across every core, for the study smoke tests.
#[cfg(test)]
pub(crate) fn quick_sweep() -> Sweep {
    Sweep::new(QUICK_INSTS, default_jobs())
}

/// One independent simulation: a benchmark under one machine
/// configuration for a committed-instruction budget.
#[derive(Debug, Clone)]
pub struct Job {
    /// Benchmark name (one of [`spec2000::names`]).
    pub bench: &'static str,
    /// Machine configuration to simulate.
    pub cfg: MachineConfig,
    /// Committed-instruction budget.
    pub insts: u64,
    /// Workload seed (almost always [`SEED`]; seed-sensitivity studies
    /// override it).
    pub seed: u64,
}

impl Job {
    /// A job with the standard experiment seed.
    pub fn new(bench: &'static str, cfg: MachineConfig, insts: u64) -> Job {
        Job {
            bench,
            cfg,
            insts,
            seed: SEED,
        }
    }

    /// Same, with an explicit workload seed.
    pub fn with_seed(bench: &'static str, cfg: MachineConfig, insts: u64, seed: u64) -> Job {
        Job {
            bench,
            cfg,
            insts,
            seed,
        }
    }

    /// Run this job to completion (using the shared program cache).
    pub fn run(&self) -> SimStats {
        let spec = spec2000::by_name(self.bench)
            .unwrap_or_else(|| panic!("unknown benchmark `{}`", self.bench));
        let program = cached_program(&spec, self.seed);
        let trace = program.walk(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        Simulator::new(self.cfg.clone(), trace).run(self.insts)
    }
}

/// One study run: its committed-instruction budget, its worker count
/// and the totals of every simulation it ran. Every study simulates
/// through its sweep ([`Sweep::grid`], [`Sweep::run_jobs`], or for the
/// RV32 suite the same counting path), so the totals cover exactly that
/// study's runs, whatever else the process does.
#[derive(Debug)]
pub struct Sweep {
    /// Committed-instruction budget per simulation.
    pub insts: u64,
    /// Worker threads to fan simulations across (`1` runs inline).
    pub jobs: usize,
    cycles: Cell<u64>,
    commits: Cell<u64>,
    /// Bitmask over [`SCHED_KINDS`] of the scheduler kinds simulated.
    kinds: Cell<u32>,
}

impl Sweep {
    /// An empty sweep at `insts` per simulation across `jobs` workers.
    pub fn new(insts: u64, jobs: usize) -> Sweep {
        Sweep {
            insts,
            jobs,
            cycles: Cell::new(0),
            commits: Cell::new(0),
            kinds: Cell::new(0),
        }
    }

    /// Simulated cycles of every run so far.
    pub fn cycles(&self) -> u64 {
        self.cycles.get()
    }

    /// Committed instructions of every run so far.
    pub fn commits(&self) -> u64 {
        self.commits.get()
    }

    /// The CLI labels of every scheduler kind simulated so far, in
    /// [`SCHED_KINDS`] order.
    pub fn sched_kinds(&self) -> Vec<&'static str> {
        let mask = self.kinds.get();
        SCHED_KINDS
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &l)| l)
            .collect()
    }

    /// Run `simulate` on every item across the sweep's workers, add each
    /// run (labelled with its scheduler kind) to the totals, and return
    /// the stats in item order.
    ///
    /// # Panics
    ///
    /// Panics if a run's label is not one of [`SCHED_KINDS`].
    pub(crate) fn simulate<T, F>(&self, items: &[T], simulate: F) -> Vec<SimStats>
    where
        T: Sync,
        F: Fn(&T) -> (&'static str, SimStats) + Sync,
    {
        parallel_map(items, self.jobs, simulate)
            .into_iter()
            .map(|(label, stats)| {
                let kind = SCHED_KINDS.iter().position(|&l| l == label);
                let kind = kind.unwrap_or_else(|| panic!("`{label}` is not a scheduler kind"));
                self.kinds.set(self.kinds.get() | 1 << kind);
                self.cycles.set(self.cycles.get() + stats.cycles);
                self.commits.set(self.commits.get() + stats.committed);
                stats
            })
            .collect()
    }

    /// Run every job and return its stats **in job order**.
    pub fn run_jobs(&self, list: &[Job]) -> Vec<SimStats> {
        self.simulate(list, |job| (job.cfg.sched_label(), job.run()))
    }

    /// Run every `(bench, cfg)` pair of a study grid at the sweep's
    /// budget and return, per benchmark, the stats in config order.
    pub fn grid(&self, benches: &[&'static str], cfgs: &[MachineConfig]) -> Vec<Vec<SimStats>> {
        let list: Vec<Job> = benches
            .iter()
            .flat_map(|&b| cfgs.iter().map(move |c| Job::new(b, c.clone(), self.insts)))
            .collect();
        self.run_jobs(&list)
            .chunks_exact(cfgs.len())
            .map(<[SimStats]>::to_vec)
            .collect()
    }
}

/// Process-wide cache of generated synthetic programs, keyed by
/// `(benchmark name, seed)`. The stored spec guards against stale hits:
/// if a caller mutated the spec (tests do), the program is rebuilt
/// instead of served from the cache.
fn cached_program(spec: &WorkloadSpec, seed: u64) -> SyntheticProgram {
    type ProgramCache = HashMap<(&'static str, u64), (WorkloadSpec, SyntheticProgram)>;
    static CACHE: OnceLock<Mutex<ProgramCache>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let guard = cache.lock().expect("program cache poisoned");
        if let Some((cached_spec, program)) = guard.get(&(spec.name, seed)) {
            if cached_spec == spec {
                return program.clone(); // clones two Arcs, not the program
            }
        }
    }
    // Generate outside the lock so other benchmarks' jobs are not
    // serialized behind this (potentially large) build.
    let program = spec.build(seed);
    let mut guard = cache.lock().expect("program cache poisoned");
    guard
        .entry((spec.name, seed))
        .or_insert_with(|| (spec.clone(), program.clone()));
    program
}

/// Order-preserving parallel map over a slice: applies `f` to every item
/// using up to `jobs` scoped threads (work-stealing by atomic index) and
/// returns outputs positionally. `jobs <= 1` degenerates to a plain
/// serial map with no thread machinery at all.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| panic!("job {i} produced no result"))
        })
        .collect()
}

/// Render one row of percentages after a left-aligned label.
pub fn pct_row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:10}");
    for v in values {
        s.push_str(&format!(" {:6.1}", v * 100.0));
    }
    s
}

/// Geometric mean (used for cross-benchmark IPC summaries).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn a_job_smokes() {
        let s = Job::new("gzip", MachineConfig::base_32(), 2_000).run();
        assert!(s.committed >= 2_000);
        assert!(s.ipc() > 0.1);
    }

    #[test]
    #[should_panic]
    fn unknown_benchmark_panics() {
        Job::new("nope", MachineConfig::base_32(), 100).run();
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = parallel_map(&items, 1, |&x| x * x);
        let threaded = parallel_map(&items, 8, |&x| x * x);
        assert_eq!(serial, threaded);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn cached_program_respects_spec_mutation() {
        let mut spec = spec2000::by_name("gzip").expect("gzip exists");
        let a = cached_program(&spec, SEED);
        let b = cached_program(&spec, SEED);
        // Cache hit: both share the same underlying program allocation.
        assert!(std::sync::Arc::ptr_eq(&a.program_arc(), &b.program_arc()));
        spec.body_len += 17;
        let c = cached_program(&spec, SEED);
        assert!(!std::sync::Arc::ptr_eq(&a.program_arc(), &c.program_arc()));
    }

    /// Serving the static program from the cache must yield exactly the
    /// statistics of a from-scratch generation, for every benchmark.
    #[test]
    fn cached_run_matches_fresh_run() {
        for name in spec2000::names() {
            let spec = spec2000::by_name(name).expect("known benchmark");
            let fresh_trace = spec.trace(SEED);
            let fresh = Simulator::new(MachineConfig::base_32(), fresh_trace).run(2_000);
            let cached = Job::new(name, MachineConfig::base_32(), 2_000).run();
            assert_eq!(fresh, cached, "{name}: cached program changed the run");
        }
    }

    /// A sweep's totals are its own: exactly the kinds, cycles and
    /// commits of the study it ran, even with other tests simulating
    /// concurrently.
    #[test]
    fn a_sweep_counts_exactly_its_own_runs() {
        let sweep = Sweep::new(500, 2);
        crate::fig16::run(&sweep);
        assert_eq!(
            sweep.sched_kinds(),
            ["base", "mop-wor", "sf-squash", "sf-scoreboard"]
        );
        let stats = Sweep::new(500, 1)
            .grid(&spec2000::names(), &crate::fig16::configs())
            .concat();
        assert_eq!(sweep.cycles(), stats.iter().map(|s| s.cycles).sum::<u64>());
        assert_eq!(
            sweep.commits(),
            stats.iter().map(|s| s.committed).sum::<u64>()
        );
    }

    #[test]
    fn jobs_match_direct_run() {
        let list = vec![
            Job::new("gzip", MachineConfig::base_32(), 2_000),
            Job::new("gap", MachineConfig::two_cycle_32(), 2_000),
        ];
        let out = Sweep::new(2_000, 2).run_jobs(&list);
        let direct = list[0].run();
        assert_eq!(out[0].committed, direct.committed);
        assert_eq!(out[0].cycles, direct.cycles);
    }
}

//! Shared experiment plumbing: standard seeds, instruction budgets, the
//! benchmark × configuration [`grid`] every figure runs, and the parallel
//! job harness that fans independent simulations across cores.
//!
//! Parallelism model: each `(benchmark, config)` simulation is one [`Job`];
//! jobs are independent and each `Simulator` stays single-threaded and
//! deterministic. [`run_jobs`] executes a job list across worker threads
//! and assembles results **by job index**, so figure output is
//! byte-identical for any `--jobs N` (including the serial `--jobs 1`
//! path, which runs inline without spawning threads).
//!
//! Perf counters: every run adds its simulated cycles, commits and
//! scheduler kind ([`MachineConfig::sched_label`]) to process-wide counters, which `experiments perf`
//! drains after each figure sweep (see [`take_simulated_cycles`]).
//!
//! Workload caching: the static synthetic program for a `(benchmark,
//! seed)` pair is generated once and shared via `Arc` (see
//! `cached_program`); every run still gets its own private trace
//! walker, so sharing cannot leak state between simulations.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use mos_sim::{MachineConfig, Simulator, SimStats, SCHED_KINDS};
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

    /// Run this job to completion (using the shared program cache) and
    /// credit it to the perf counters.
    pub fn run(&self) -> SimStats {
        let spec = spec2000::by_name(self.bench)
            .unwrap_or_else(|| panic!("unknown benchmark `{}`", self.bench));
        let program = cached_program(&spec, self.seed);
        let trace = program.walk(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let stats = Simulator::new(self.cfg.clone(), trace).run(self.insts);
        tally(&stats, &self.cfg);
        stats
    }
}

/// Simulated cycles accumulated across all runs since the last
/// [`take_simulated_cycles`] call (drives the `experiments perf`
/// cycles-per-second metric; purely observational).
static SIM_CYCLES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Committed instructions accumulated alongside [`SIM_CYCLES`] (the
/// per-figure committed counts and commits/s in `experiments perf`
/// output).
static SIM_COMMITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Credit an out-of-band simulation (e.g. the RV32 suite sweep, whose
/// traces do not come from [`Job`]) to the global perf counters, exactly
/// as [`Job::run`] does for benchmark jobs.
pub fn tally(stats: &SimStats, cfg: &MachineConfig) {
    SIM_CYCLES.fetch_add(stats.cycles, Ordering::Relaxed);
    SIM_COMMITS.fetch_add(stats.committed, Ordering::Relaxed);
    let kind = SCHED_KINDS.iter().position(|&l| l == cfg.sched_label());
    SEEN_KINDS.fetch_or(1 << kind.expect("every config has a label"), Ordering::Relaxed);
}

/// Read and reset the global simulated-cycle counter.
pub fn take_simulated_cycles() -> u64 {
    SIM_CYCLES.swap(0, Ordering::Relaxed)
}

/// Read and reset the global committed-instruction counter.
pub fn take_simulated_commits() -> u64 {
    SIM_COMMITS.swap(0, Ordering::Relaxed)
}

/// Bitmask over [`SCHED_KINDS`] of scheduler kinds seen by [`tally`]
/// since the last [`take_sched_kinds`] call.
static SEEN_KINDS: AtomicU32 = AtomicU32::new(0);

/// Read and reset the scheduler-kind bitmask: the CLI labels of every
/// scheduler exercised by jobs since the last call, in [`SCHED_KINDS`]
/// order. Feeds the per-figure `sched_kinds` field of the
/// `experiments perf` output.
pub fn take_sched_kinds() -> Vec<&'static str> {
    let mask = SEEN_KINDS.swap(0, Ordering::Relaxed);
    SCHED_KINDS
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask & (1 << i) != 0)
        .map(|(_, &l)| l)
        .collect()
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

/// Run every job and return its stats **in job order**, fanning the work
/// across `jobs` worker threads. `jobs <= 1` runs inline (no threads);
/// results are identical either way because assembly is by index and each
/// simulation is self-contained.
pub fn run_jobs(list: &[Job], jobs: usize) -> Vec<SimStats> {
    parallel_map(list, jobs, Job::run)
}

/// Run every `(bench, cfg)` pair of a study grid across `jobs` workers
/// and return, per benchmark, the stats in config order.
pub fn grid(
    benches: &[&'static str],
    cfgs: &[MachineConfig],
    insts: u64,
    jobs: usize,
) -> Vec<Vec<SimStats>> {
    let list: Vec<Job> = benches
        .iter()
        .flat_map(|&b| cfgs.iter().map(move |c| Job::new(b, c.clone(), insts)))
        .collect();
    run_jobs(&list, jobs)
        .chunks_exact(cfgs.len())
        .map(<[SimStats]>::to_vec)
        .collect()
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

/// Simulate a benchmark by name.
///
/// # Panics
///
/// Panics if `name` is not one of the twelve benchmark models.
pub fn run_benchmark(name: &str, cfg: MachineConfig, insts: u64) -> SimStats {
    let spec = spec2000::by_name(name).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    Job::new(spec.name, cfg, insts).run()
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
    fn run_benchmark_smokes() {
        let s = run_benchmark("gzip", MachineConfig::base_32(), 2_000);
        assert!(s.committed >= 2_000);
        assert!(s.ipc() > 0.1);
    }

    #[test]
    #[should_panic]
    fn unknown_benchmark_panics() {
        run_benchmark("nope", MachineConfig::base_32(), 100);
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

    /// The mask is process-global and other tests run jobs concurrently,
    /// so assert only that our own kinds are present (never that the mask
    /// is otherwise empty).
    #[test]
    fn sched_kind_tracking_reports_cli_labels() {
        Job::new("gzip", MachineConfig::base_32(), 500).run();
        Job::new(
            "gzip",
            MachineConfig::macro_op(mos_core::WakeupStyle::WiredOr, Some(32), 1),
            500,
        )
        .run();
        let kinds = take_sched_kinds();
        assert!(kinds.contains(&"base"));
        assert!(kinds.contains(&"mop-wor"));
    }

    /// Every configuration a study builds names a scheduler kind: each
    /// job's [`tally`] looks its label up in [`SCHED_KINDS`] and panics
    /// on a miss, so running every grid at a tiny budget checks them all.
    #[test]
    fn every_study_config_has_a_label() {
        let insts = 200;
        crate::tables::table2_with(insts, 1);
        crate::fig13::run_with(insts, 1);
        crate::fig14::run_with(insts, 1);
        crate::fig15::run_with(insts, 1);
        crate::fig16::run_with(insts, 1);
        crate::ablations::run_all_with(insts, 1);
        crate::extensions::run_all_with(insts, 1);
    }

    #[test]
    fn jobs_match_direct_run() {
        let list = vec![
            Job::new("gzip", MachineConfig::base_32(), 2_000),
            Job::new("gap", MachineConfig::two_cycle_32(), 2_000),
        ];
        let out = run_jobs(&list, 2);
        let direct = run_benchmark("gzip", MachineConfig::base_32(), 2_000);
        assert_eq!(out[0].committed, direct.committed);
        assert_eq!(out[0].cycles, direct.cycles);
    }
}

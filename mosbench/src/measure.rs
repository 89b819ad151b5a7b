//! The untraced run: set-up, a checked warm-up round, then a fixed number
//! of timed rounds, reporting each job's best of R at the reference host
//! speed.

use std::hint::black_box;
use std::time::Instant;

use mos_ledger::json::Value;
use mos_sim::{OracleMode, SimStats, Simulator};

use crate::cpus::Cpus;
use crate::digest;
use crate::workload::{build_jobs, Job, Source, Workload};

/// How much work one run does.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Timed rounds of the untraced run (the traced run ignores it).
    pub rounds: u32,
    /// Per-job committed-instruction budget for synthetic jobs
    /// (`None`: the workload's own).
    pub budget: Option<u64>,
    /// Run only this many of the workload's jobs, spread evenly over its
    /// job list (`None`: all).
    pub job_limit: Option<usize>,
}

impl Settings {
    /// Every job of `w` at its own budget, timed for the workload's round
    /// count at `seconds`.
    pub fn full(w: Workload, seconds: f64) -> Settings {
        Settings {
            rounds: w.rounds(seconds),
            budget: None,
            job_limit: None,
        }
    }
}

/// Fewest set-up repetitions in the first batch.
const SETUP_MIN_REPS: usize = 15;

/// Each set-up batch (one before the warm-up round, one after every timed
/// round) repeats set-up for at least this many seconds.
const SETUP_SECONDS: f64 = 0.025;

/// `setup_s` is this percentile of every set-up repetition of the run.
/// Host noise only adds time, and a slow CPU phase can cover most of a
/// run, so a low percentile of samples spread over the run and its CPUs
/// is steadier than the median; it is not the minimum, so one lucky
/// repetition does not decide it.
const SETUP_PERCENTILE: f64 = 10.0;

/// After the timed rounds, one in this many synthetic jobs (rotating with
/// the seed) runs again with the scheduling oracle and slot accounting.
const OBSERVE_EVERY: u64 = 3;

/// Timings of [`reference_loop`] after each set-up batch.
const REFERENCE_REPS: usize = 3;

/// The best time of [`reference_loop`] on the reference host, in seconds.
/// `sim_kips` and `setup_s` are reported at this host speed.
const REFERENCE_NOMINAL_S: f64 = 0.018;

/// Host-speed reference: a fixed integer loop that shares no code with the
/// simulator. The host's slow phases stretch it and the simulator alike
/// (their per-window best times correlate at 0.92–0.95 on the reference
/// host), so its best time in a run says how fast the host was.
fn reference_loop() -> u64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    let mut acc = 0u64;
    for i in 0..3_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 3 == 0 {
            acc = acc.wrapping_add(x >> 3);
        } else if x & 5 == 1 {
            acc ^= i;
        } else {
            acc = acc.rotate_left(5);
        }
    }
    acc
}

/// Time [`reference_loop`] [`REFERENCE_REPS`] times, keeping the best.
fn time_reference(best: &mut f64) {
    for _ in 0..REFERENCE_REPS {
        let t = Instant::now();
        black_box(reference_loop());
        *best = best.min(t.elapsed().as_secs_f64());
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload run.
    pub workload: Workload,
    /// Job runs attempted (jobs x (rounds + 1) for the untraced run).
    pub attempted: u64,
    /// Job runs that failed a check.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Each job's observer-independent result, as the warm-up round saw it.
    pub results: Vec<(String, SimStats)>,
    /// Human-readable context (round counts, phase times, advisory
    /// distributions) for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// `true` when every attempted job run passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (each metric as `{"value", "unit"}`).
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub(crate) fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0-100) of a non-empty sample.
pub(crate) fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub(crate) fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Set the workload up at least `min_reps` times and for at least
/// [`SETUP_SECONDS`], appending each repetition's time in seconds to
/// `times`; returns the last repetition's jobs.
///
/// # Errors
///
/// When the workload's inputs cannot be built.
fn setup_batch(
    w: Workload,
    seed: u64,
    settings: &Settings,
    min_reps: usize,
    times: &mut Vec<f64>,
) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps.max(1) || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let rep = Instant::now();
        jobs = select(build_jobs(w, seed, settings.budget)?, settings.job_limit);
        times.push(rep.elapsed().as_secs_f64());
        reps += 1;
    }
    Ok(jobs)
}

/// Keep `limit` jobs spread evenly over the list.
pub(crate) fn select(jobs: Vec<Job>, limit: Option<usize>) -> Vec<Job> {
    match limit {
        Some(k) if k > 0 && k < jobs.len() => {
            let step = jobs.len().div_ceil(k);
            jobs.into_iter().step_by(step).collect()
        }
        _ => jobs,
    }
}

/// Run a synthetic job once with the invariant oracle (collecting) and
/// slot accounting attached; checks that neither reports a problem.
fn run_observed(job: &Job) -> Result<SimStats, String> {
    let walk = job.walk().expect("observed runs are synthetic jobs");
    let mut sim = Simulator::new(job.cfg.clone(), walk);
    sim.attach_oracle(OracleMode::Collect);
    sim.enable_slot_accounting();
    let stats = sim.run(job.budget);
    if let Some(v) = sim.oracle().and_then(|o| o.violations().first()) {
        return Err(format!("{}: scheduling invariant violated: {v}", job.label));
    }
    let width = job.cfg.sched.issue_width as u64;
    stats
        .slots
        .check_conservation(stats.cycles, width)
        .map_err(|e| format!("{}: {e}", job.label))?;
    Ok(stats)
}

/// The checks every job run must pass besides round agreement: a
/// synthetic job commits its budget (and at most one commit group more).
fn check_budget(job: &Job, stats: &SimStats) -> Result<(), String> {
    if matches!(job.source, Source::Spec { .. }) {
        let width = job.cfg.commit_width as u64;
        if stats.committed < job.budget || stats.committed >= job.budget + width {
            return Err(format!(
                "{}: committed {} for a budget of {}",
                job.label, stats.committed, job.budget
            ));
        }
    }
    Ok(())
}

/// Counts checked job runs and keeps one message per failed check.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    /// Checked job runs.
    pub(crate) attempted: u64,
    /// One message per failed check.
    pub(crate) failures: Vec<String>,
}

impl Checks {
    /// Count one checked job run; keep its message if it failed.
    pub(crate) fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.failures.push(e)).ok()
    }
}

/// Run workload `w` untraced: set-up, a plain warm-up round that checks
/// every result, [`Settings::rounds`] timed rounds that must reproduce it
/// (each followed by a set-up batch, round k pinned to the k-th allowed
/// CPU in turn), then one more round with the scheduling oracle and slot
/// accounting attached (after `peak_rss_mb` is read, so it measures plain
/// simulation). Every set-up batch is followed by timings of the
/// host-speed reference. Reports `sim_kips` and `setup_s` scaled to the
/// reference host's speed, and `peak_rss_mb`.
///
/// # Errors
///
/// When set-up fails; job failures are counted in the outcome instead.
pub fn run(w: Workload, seed: u64, settings: &Settings) -> Result<Outcome, String> {
    let cpus = Cpus::allowed();
    let mut setup_times = Vec::new();
    let mut host_ref_s = f64::INFINITY;
    cpus.pin(0);
    let jobs = setup_batch(w, seed, settings, SETUP_MIN_REPS, &mut setup_times)?;
    time_reference(&mut host_ref_s);
    let pinned = digest::pinned_for(w, seed, settings)?;
    let mut checks = Checks::default();

    let warmup = Instant::now();
    let reference: Vec<Option<SimStats>> = jobs
        .iter()
        .map(|job| {
            checks.check(job.run().and_then(|s| {
                check_budget(job, &s)?;
                digest::check_pinned(&pinned, &job.label, &s)?;
                Ok(s)
            }))
        })
        .collect();
    let warmup_s = warmup.elapsed().as_secs_f64();

    let mut best = vec![f64::INFINITY; jobs.len()];
    let mut ns_per_inst = Vec::new();
    let rounds = settings.rounds.max(1);
    let mut round_s = Vec::new();
    let start = Instant::now();
    for k in 0..rounds {
        cpus.pin(k as usize);
        let round = Instant::now();
        for (i, job) in jobs.iter().enumerate() {
            let t = Instant::now();
            let run = job.run();
            let dt = t.elapsed().as_secs_f64();
            let agreed = run.and_then(|s| agrees(job, reference[i].as_ref(), &s, "rounds"));
            if checks.check(agreed).is_some() {
                best[i] = best[i].min(dt);
                let committed = reference[i].as_ref().map_or(1, |s| s.committed.max(1));
                ns_per_inst.push(dt * 1e9 / committed as f64);
            }
        }
        round_s.push(round.elapsed().as_secs_f64());
        setup_batch(w, seed, settings, 1, &mut setup_times)?;
        time_reference(&mut host_ref_s);
    }
    cpus.release();
    let timed_s = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mib()?;

    let observed = Instant::now();
    let synthetic = jobs
        .iter()
        .zip(&reference)
        .filter(|(j, _)| matches!(j.source, Source::Spec { .. }));
    for (k, (job, want)) in synthetic.enumerate() {
        if (k as u64).wrapping_add(seed).is_multiple_of(OBSERVE_EVERY) {
            let agreed = run_observed(job)
                .and_then(|s| agrees(job, want.as_ref(), &s, "observed and plain runs"));
            checks.check(agreed);
        }
    }

    // How much slower than nominal the host ran this time (above 1: slower).
    let slowdown = host_ref_s / REFERENCE_NOMINAL_S;
    let setup_raw = percentile(&setup_times, SETUP_PERCENTILE);
    let mut notes = vec![
        format!(
            "host speed: reference loop best {:.3} ms (nominal {:.3} ms), slowdown {slowdown:.3}",
            host_ref_s * 1e3,
            REFERENCE_NOMINAL_S * 1e3
        ),
        format!(
            "setup: p{SETUP_PERCENTILE} {setup_raw:.3e} s, median {:.3e} s, of {} repetitions (as measured)",
            median(&setup_times),
            setup_times.len()
        ),
        format!("warm-up round (checked): {warmup_s:.2} s"),
        format!(
            "timed: R = {rounds} rounds of {} jobs in {timed_s:.2} s",
            jobs.len()
        ),
        format!("round seconds: {round_s:.3?}"),
        format!(
            "observer round (oracle + slot accounting, one in {OBSERVE_EVERY} synthetic jobs): {:.2} s",
            observed.elapsed().as_secs_f64()
        ),
    ];
    if !ns_per_inst.is_empty() {
        notes.push(format!(
            "advisory: job ns/inst p50 {:.1} p90 {:.1} (n = {} job runs)",
            percentile(&ns_per_inst, 50.0),
            percentile(&ns_per_inst, 90.0),
            ns_per_inst.len()
        ));
    }

    let (mut committed, mut seconds) = (0u64, 0f64);
    let mut results = Vec::new();
    for ((job, r), best) in jobs.iter().zip(reference).zip(best) {
        let Some(s) = r else { continue };
        if best.is_finite() {
            committed += s.committed;
            seconds += best;
        }
        results.push((job.label.clone(), s));
    }
    let mut metrics = Vec::new();
    if seconds > 0.0 {
        let kips = committed as f64 / seconds / 1e3;
        notes.push(format!("sim_kips as measured: {kips:.4}"));
        metrics.push(Metric::new("sim_kips", "kinst/s", kips * slowdown));
    }
    metrics.push(Metric::new("setup_s", "s", setup_raw / slowdown));
    metrics.push(Metric::new("peak_rss_mb", "MiB", peak_rss));
    Ok(Outcome {
        workload: w,
        attempted: checks.attempted,
        failed: checks.failures.len() as u64,
        metrics,
        failures: checks.failures,
        results,
        notes,
    })
}

/// A repeat run must reproduce the job's reference result exactly.
fn agrees(job: &Job, want: Option<&SimStats>, got: &SimStats, what: &str) -> Result<(), String> {
    let want = want.ok_or_else(|| format!("{}: no reference result", job.label))?;
    let diffs = digest::differing(&digest::fields(want), &digest::fields(got));
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{}: {what} disagree: {}",
            job.label,
            diffs.join(", ")
        ))
    }
}

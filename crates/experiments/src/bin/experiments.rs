//! CLI for regenerating every table and figure of the paper:
//!
//! ```text
//! experiments <study|all> [--insts N] [--jobs N]
//! experiments perf [--insts N] [--out PATH]
//! ```
//!
//! Every study is one row of [`STUDIES`]: `all` runs them in table order
//! and the usage line names them from it. `--insts N` (at least 1) is the
//! committed-instruction budget per simulation. `--jobs N` fans a study's
//! (benchmark, config) simulations across N worker threads; `--jobs 1` is
//! the serial path. Output is byte-identical for any N. `perf` is the
//! single-thread host-speed headline: it times every simulating study on
//! its own one-job [`Sweep`] and writes `BENCH_sim.json` (default path;
//! `--out` overrides) with per-study and total wall time, simulated
//! cycles and commits (the sweep's totals), IPC, cycles/s, commits/s and
//! the scheduler kinds exercised. It runs each study [`REPEAT`] times back
//! to back before the next, so a study's repetitions see the same host
//! conditions, and records the median, min and max wall time and
//! cycles/s per study and for the total (the total of repetition k sums
//! every study's k-th run).

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use mos_experiments::runner::{self, Sweep};
use mos_experiments::{
    ablations, extensions, fig13, fig14, fig15, fig16, fig6, fig7, rvsuite, tables,
};

/// One study: its CLI name, whether it simulates (and so belongs in
/// `perf`), and how to run and render it in a sweep.
type Study = (&'static str, bool, fn(&Sweep) -> String);

/// Every study, in `all` order. `table1`, `fig6` and `fig7` are
/// configuration and trace analyses, not simulations; `rv` runs its
/// programs to their own halt and ignores the budget.
const STUDIES: &[Study] = &[
    ("table1", false, |_| tables::table1()),
    ("table2", true, |s| tables::table2(s).to_string()),
    ("fig6", false, |s| fig6::run(s.insts as usize).to_string()),
    ("fig7", false, |s| fig7::run(s.insts as usize).to_string()),
    ("fig13", true, |s| fig13::run(s).to_string()),
    ("fig14", true, |s| fig14::run(s).to_string()),
    ("fig15", true, |s| fig15::run(s).to_string()),
    ("fig16", true, |s| fig16::run(s).to_string()),
    ("ablations", true, ablations::run_all),
    ("extensions", true, extensions::run_all),
    ("rv", true, |s| rvsuite::run(s).to_string()),
];

fn usage() -> ExitCode {
    let names: Vec<&str> = STUDIES.iter().map(|&(name, ..)| name).collect();
    eprintln!(
        "usage: experiments <{}|all> [--insts N] [--jobs N]\n       experiments perf [--insts N] [--out PATH]",
        names.join("|")
    );
    ExitCode::FAILURE
}

/// Value of `--<name> <value>`, if present; `Err` on a malformed value.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, ()> {
    match args.iter().position(|a| a == name) {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<T>().ok()) {
            Some(v) => Ok(Some(v)),
            None => Err(()),
        },
        None => Ok(None),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(what) = args.first().cloned() else {
        return usage();
    };
    // Every option takes a value. `perf` measures the single-thread
    // headline, so it has no `--jobs`.
    let known: &[&str] = if what == "perf" {
        &["--insts", "--out"]
    } else {
        &["--insts", "--jobs"]
    };
    if args[1..]
        .chunks(2)
        .any(|opt| !known.contains(&opt[0].as_str()))
    {
        return usage();
    }
    let insts = match flag::<u64>(&args, "--insts") {
        Ok(None) => runner::DEFAULT_INSTS,
        Ok(Some(n)) if n > 0 => n,
        Ok(Some(_)) => {
            eprintln!("error: --insts must be at least 1");
            return usage();
        }
        Err(()) => return usage(),
    };

    if what == "perf" {
        let Ok(out) = flag::<String>(&args, "--out") else {
            return usage();
        };
        return perf(insts, &out.unwrap_or_else(|| "BENCH_sim.json".to_owned()));
    }
    let Ok(jobs) = flag::<usize>(&args, "--jobs") else {
        return usage();
    };
    let sweep = Sweep::new(insts, jobs.unwrap_or_else(runner::default_jobs).max(1));
    let studies: Vec<&Study> = STUDIES
        .iter()
        .filter(|(name, ..)| what == "all" || *name == what)
        .collect();
    if studies.is_empty() {
        return usage();
    }
    for (_, _, run) in studies {
        println!("{}", run(&sweep));
    }
    ExitCode::SUCCESS
}

/// Median, min and max of `xs` (the mean of the middle two for an even
/// count).
fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = (v[(n - 1) / 2] + v[n / 2]) / 2.0;
    (median, v[0], v[n - 1])
}

/// How many times `perf` runs each study: enough for a median, min and
/// max.
const REPEAT: usize = 3;

/// Time every simulating study [`REPEAT`] times, each on its own one-job
/// sweep, and write `BENCH_sim.json`: per study and for the total, the
/// median wall time with the rates it gives, plus the min and max wall
/// time and cycles/s.
fn perf(insts: u64, out_path: &str) -> ExitCode {
    // Hand-rolled JSON: the workspace deliberately has no serde_json.
    let mut figures = Vec::new();
    let (mut totals, mut total_cycles, mut total_commits) = (vec![0.0; REPEAT], 0, 0);
    for (name, _, run) in STUDIES.iter().filter(|&&(_, simulates, _)| simulates) {
        let mut walls = Vec::with_capacity(REPEAT);
        let mut counts = None;
        for total in &mut totals {
            let sweep = Sweep::new(insts, 1);
            let start = Instant::now();
            run(&sweep);
            let wall = start.elapsed().as_secs_f64();
            walls.push(wall);
            *total += wall;
            let these = (sweep.cycles(), sweep.commits(), sweep.sched_kinds());
            assert!(
                counts.as_ref().is_none_or(|c| *c == these),
                "{name}: a repetition simulated something else"
            );
            counts = Some(these);
        }
        let (cycles, commits, kinds) = counts.expect("at least one repetition");
        let kinds = kinds
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let (wall, lo, hi) = spread(&walls);
        let (cps, ips) = (per_sec(cycles, wall), per_sec(commits, wall));
        let (cps_lo, cps_hi) = (per_sec(cycles, hi), per_sec(cycles, lo));
        eprintln!(
            "perf: {name:10} {wall:8.3}s ({lo:.3}-{hi:.3})  {cycles:>12} cycles  {commits:>12} committed  {cps:>10.0} cycles/s ({cps_lo:.0}-{cps_hi:.0})  {ips:>10.0} commits/s"
        );
        figures.push(format!(
            "    {{\"name\": \"{name}\", \"wall_seconds\": {wall:.6}, \"wall_seconds_min\": {lo:.6}, \"wall_seconds_max\": {hi:.6}, \"sim_cycles\": {cycles}, \"sim_commits\": {commits}, \"ipc\": {:.4}, \"cycles_per_sec\": {cps:.1}, \"cycles_per_sec_min\": {cps_lo:.1}, \"cycles_per_sec_max\": {cps_hi:.1}, \"commits_per_sec\": {ips:.1}, \"sched_kinds\": [{kinds}]}}",
            commits as f64 / cycles.max(1) as f64,
        ));
        total_cycles += cycles;
        total_commits += commits;
    }
    let (wall, lo, hi) = spread(&totals);
    let (cps, ips) = (per_sec(total_cycles, wall), per_sec(total_commits, wall));
    let (cps_lo, cps_hi) = (per_sec(total_cycles, hi), per_sec(total_cycles, lo));
    let json = format!(
        "{{\n  \"insts_per_sim\": {insts},\n  \"repeat\": {REPEAT},\n  \"figures\": [\n{}\n  ],\n  \"total_wall_seconds\": {wall:.6},\n  \"total_wall_seconds_min\": {lo:.6},\n  \"total_wall_seconds_max\": {hi:.6},\n  \"total_sim_cycles\": {total_cycles},\n  \"total_sim_commits\": {total_commits},\n  \"total_cycles_per_sec\": {cps:.1},\n  \"total_cycles_per_sec_min\": {cps_lo:.1},\n  \"total_cycles_per_sec_max\": {cps_hi:.1},\n  \"total_commits_per_sec\": {ips:.1}\n}}\n",
        figures.join(",\n"),
    );

    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("perf: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "perf: wrote {out_path} (total {wall:.3}s median, {lo:.3}-{hi:.3}s over {REPEAT} repetitions, 1 job)"
    );
    ExitCode::SUCCESS
}

/// Events per wall-clock second. Idle-cycle skipping (DESIGN §6) makes
/// cycles/s count cycles never stepped through, so commits/s is the
/// figure that compares across memory-bound and compute-bound sweeps.
fn per_sec(count: u64, wall: f64) -> f64 {
    count as f64 / wall.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_median_min_max() {
        assert_eq!(spread(&[3.0]), (3.0, 3.0, 3.0));
        assert_eq!(spread(&[4.0, 1.0, 2.0]), (2.0, 1.0, 4.0));
        assert_eq!(spread(&[4.0, 1.0, 3.0, 2.0]), (2.5, 1.0, 4.0));
    }

    /// Every study runs, and simulates exactly when its row says so.
    /// Each run looks its scheduler label up in `SCHED_KINDS` and panics
    /// on a miss, so this also checks that every configuration a study
    /// builds names a scheduler kind.
    #[test]
    fn every_study_config_has_a_label() {
        for &(name, simulates, run) in STUDIES {
            let sweep = Sweep::new(200, 1);
            run(&sweep);
            assert_eq!(sweep.cycles() > 0, simulates, "{name}");
            assert_eq!(sweep.sched_kinds().is_empty(), !simulates, "{name}");
        }
    }
}

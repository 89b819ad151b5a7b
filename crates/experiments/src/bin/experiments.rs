//! CLI for regenerating every table and figure of the paper:
//!
//! ```text
//! experiments <table1|table2|fig6|fig7|fig13|fig14|fig15|fig16|ablations|extensions|rv|all>
//!             [--insts N] [--jobs N]
//! experiments perf [--insts N] [--out PATH]
//! ```
//!
//! `--jobs N` fans the figure's (benchmark, config) simulations across N
//! worker threads; `--jobs 1` is the serial path. Output is byte-identical
//! for any N. `perf` is the single-thread host-speed headline: it times
//! every figure sweep on one job and writes `BENCH_sim.json` (default
//! path; `--out` overrides) with per-figure and total wall time,
//! simulated cycles and commits, IPC, cycles/s, commits/s and the
//! scheduler kinds exercised.

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use mos_experiments::{
    ablations, extensions, fig13, fig14, fig15, fig16, fig6, fig7, runner, rvsuite, tables,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <table1|table2|fig6|fig7|fig13|fig14|fig15|fig16|ablations|extensions|rv|all> \
         [--insts N] [--jobs N]\n       experiments perf [--insts N] [--out PATH]"
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
    if args[1..].chunks(2).any(|opt| !known.contains(&opt[0].as_str())) {
        return usage();
    }
    let Ok(insts) = flag::<u64>(&args, "--insts") else {
        return usage();
    };
    let insts = insts.unwrap_or(runner::DEFAULT_INSTS);

    if what == "perf" {
        let Ok(out) = flag::<String>(&args, "--out") else {
            return usage();
        };
        return perf(insts, &out.unwrap_or_else(|| "BENCH_sim.json".to_owned()));
    }
    let Ok(jobs) = flag::<usize>(&args, "--jobs") else {
        return usage();
    };
    let jobs = jobs.unwrap_or_else(runner::default_jobs).max(1);

    let run_one = |what: &str| -> Option<String> {
        match what {
            "table1" => Some(tables::table1()),
            "table2" => Some(tables::table2_with(insts, jobs).to_string()),
            "fig6" => Some(fig6::run(insts as usize).to_string()),
            "fig7" => Some(fig7::run(insts as usize).to_string()),
            "fig13" => Some(fig13::run_with(insts, jobs).to_string()),
            "fig14" => Some(fig14::run_with(insts, jobs).to_string()),
            "fig15" => Some(fig15::run_with(insts, jobs).to_string()),
            "fig16" => Some(fig16::run_with(insts, jobs).to_string()),
            "ablations" => Some(ablations::run_all_with(insts, jobs)),
            "extensions" => Some(extensions::run_all_with(insts, jobs)),
            "rv" => Some(rvsuite::run_with(jobs).to_string()),
            _ => None,
        }
    };

    if what == "all" {
        for w in [
            "table1", "table2", "fig6", "fig7", "fig13", "fig14", "fig15", "fig16", "ablations",
            "extensions", "rv",
        ] {
            println!("{}", run_one(w).expect("known experiment"));
        }
        return ExitCode::SUCCESS;
    }
    match run_one(&what) {
        Some(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        None => usage(),
    }
}

/// Time every figure sweep serially and write `BENCH_sim.json`.
fn perf(insts: u64, out_path: &str) -> ExitCode {
    /// A figure sweep by name, run at a given instruction budget.
    type Sweep = (&'static str, fn(u64));
    let sweeps: [Sweep; 8] = [
        ("table2", |n| drop(tables::table2_with(n, 1))),
        ("fig13", |n| drop(fig13::run_with(n, 1))),
        ("fig14", |n| drop(fig14::run_with(n, 1))),
        ("fig15", |n| drop(fig15::run_with(n, 1))),
        ("fig16", |n| drop(fig16::run_with(n, 1))),
        ("ablations", |n| drop(ablations::run_all_with(n, 1))),
        ("extensions", |n| drop(extensions::run_all_with(n, 1))),
        // The RV32 real-program suite under all 7 scheduler kinds; the
        // programs run to their own halt, so this sweep ignores --insts.
        ("rv", |_| drop(rvsuite::sweep(1))),
    ];

    runner::take_simulated_cycles(); // reset the counters
    runner::take_simulated_commits();
    runner::take_sched_kinds();
    // Hand-rolled JSON: the workspace deliberately has no serde_json.
    let mut json = format!("{{\n  \"insts_per_sim\": {insts},\n  \"figures\": [\n");
    let (mut total_wall, mut total_cycles, mut total_commits) = (0.0, 0, 0);
    for (i, (name, sweep)) in sweeps.iter().enumerate() {
        let start = Instant::now();
        sweep(insts);
        let wall = start.elapsed().as_secs_f64();
        let cycles = runner::take_simulated_cycles();
        let commits = runner::take_simulated_commits();
        let kinds = runner::take_sched_kinds()
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let (cps, ips) = (per_sec(cycles, wall), per_sec(commits, wall));
        eprintln!(
            "perf: {name:10} {wall:8.3}s  {cycles:>12} cycles  {commits:>12} committed  {cps:>12.0} cycles/s  {ips:>12.0} commits/s"
        );
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"wall_seconds\": {wall:.6}, \"sim_cycles\": {cycles}, \"sim_commits\": {commits}, \"ipc\": {:.4}, \"cycles_per_sec\": {cps:.1}, \"commits_per_sec\": {ips:.1}, \"sched_kinds\": [{kinds}]}}{}\n",
            commits as f64 / cycles.max(1) as f64,
            if i + 1 < sweeps.len() { "," } else { "" }
        ));
        total_wall += wall;
        total_cycles += cycles;
        total_commits += commits;
    }
    json.push_str(&format!(
        "  ],\n  \"total_wall_seconds\": {total_wall:.6},\n  \"total_sim_cycles\": {total_cycles},\n  \"total_sim_commits\": {total_commits},\n  \"total_cycles_per_sec\": {:.1},\n  \"total_commits_per_sec\": {:.1}\n}}\n",
        per_sec(total_cycles, total_wall),
        per_sec(total_commits, total_wall)
    ));

    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("perf: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("perf: wrote {out_path} ({total_wall:.3}s total, 1 job)");
    ExitCode::SUCCESS
}

/// Events per wall-clock second. Idle-cycle skipping (DESIGN §6) makes
/// cycles/s count cycles never stepped through, so commits/s is the
/// figure that compares across memory-bound and compute-bound sweeps.
fn per_sec(count: u64, wall: f64) -> f64 {
    count as f64 / wall.max(1e-9)
}

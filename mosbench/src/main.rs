//! `mosbench` command line.
//!
//! ```text
//! mosbench [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
//!          [--out FILE] [--write-expected]
//! ```
//!
//! With exactly one `--workload` the run happens in this process and the
//! last line of standard output is its result object. Otherwise every named
//! workload (all four by default) runs in a child process of its own, so
//! `peak_rss_mb` is per workload, and the last line combines them with
//! metric names prefixed by the workload.
//!
//! `--seconds S` (default 16) fixes each workload's number of timed rounds
//! as S divided by its round budget; it never stops a run by elapsed time.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use mos_ledger::json::{self, Value};
use mosbench::workload::{build_jobs, Workload};
use mosbench::{digest, measure, traced, Outcome, Settings};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    write_expected: bool,
}

const USAGE: &str = "usage: mosbench [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace [0|1]] [--out FILE] [--write-expected]";

/// The run length `BENCHMARK.json` asks for.
const DEFAULT_SECONDS: f64 = 16.0;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w = Workload::by_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?;
                args.workloads.push(w);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(format!("--seconds {v}: must be a non-negative number"));
                }
            }
            "--trace" => {
                // `--trace` alone, or with an explicit 0/1.
                let explicit = it.next_if(|v| v == "0" || v == "1");
                args.trace = explicit.as_deref() != Some("0");
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--write-expected" => args.write_expected = true,
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mosbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.write_expected {
        args.workloads
            .iter()
            .try_for_each(|&w| write_expected(w, args.seed))
            .map(|()| true)
    } else if let [w] = args.workloads[..] {
        run_one(w, &args)
    } else {
        run_children(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mosbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload in this process and print its result line.
fn run_one(w: Workload, args: &Args) -> Result<bool, String> {
    let settings = Settings::full(w, args.seconds);
    let outcome = if args.trace {
        let (outcome, spans) = traced::run(w, args.seed, &settings)?;
        let path = traced::spans_path(w, args.seed);
        write_file(&path, &json::render(&spans.to_json()))?;
        eprintln!("mosbench: spans written to {}", path.display());
        outcome
    } else {
        measure::run(w, args.seed, &settings)?
    };
    report(&outcome, args);
    write_out(args, vec![(w.name().into(), outcome.to_json())])?;
    println!("{}", json::render(&outcome.to_json()));
    Ok(outcome.correct())
}

/// Human-readable summary on standard error.
fn report(o: &Outcome, args: &Args) {
    let mode = if args.trace { "traced" } else { "untraced" };
    eprintln!(
        "mosbench: {} seed {} ({mode}): {} job runs, {} failed",
        o.workload.name(),
        args.seed,
        o.attempted,
        o.failed
    );
    for n in &o.notes {
        eprintln!("  {n}");
    }
    for f in &o.failures {
        eprintln!("mosbench: FAIL {f}");
    }
    for m in &o.metrics {
        eprintln!("  {:40} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

/// Run every workload in a child process of its own and combine them.
fn run_children(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating mosbench: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0f64, 0f64);
    let mut metrics = Vec::new();
    let mut per_workload = Vec::new();
    for &w in &args.workloads {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let result =
            json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name()))?;
        correct &= out.status.success() && result.get("correct") == Some(&Value::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(Value::as_num)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Value::as_num).unwrap_or(0.0);
        if let Some(Value::Obj(ms)) = result.get("metrics") {
            for (name, m) in ms {
                metrics.push((format!("{}.{name}", w.name()), m.clone()));
            }
        }
        per_workload.push((w.name().to_owned(), result));
    }
    write_out(args, per_workload)?;
    let combined = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted)),
        ("failed".into(), Value::Num(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", json::render(&combined));
    Ok(correct)
}

/// Regenerate `expected/<workload>.tsv` from one plain run of every job.
fn write_expected(w: Workload, seed: u64) -> Result<(), String> {
    if seed != digest::PINNED_SEED {
        return Err(format!(
            "expected tables are pinned at seed {}",
            digest::PINNED_SEED
        ));
    }
    let mut rows = Vec::new();
    for job in build_jobs(w, seed, None)? {
        rows.push((job.label.clone(), job.run()?));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.tsv", w.name()));
    write_file(&path, &digest::render_table(w.name(), &rows))?;
    eprintln!("mosbench: wrote {} ({} jobs)", path.display(), rows.len());
    Ok(())
}

/// With `--out`, write `{seed, trace, workloads: {name: result}}` there.
fn write_out(args: &Args, workloads: Vec<(String, Value)>) -> Result<(), String> {
    let Some(path) = &args.out else {
        return Ok(());
    };
    let doc = Value::Obj(vec![
        ("seed".into(), Value::Num(args.seed as f64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("workloads".into(), Value::Obj(workloads)),
    ]);
    write_file(path, &json::render(&doc))
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

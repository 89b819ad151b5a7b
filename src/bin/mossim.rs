//! `mossim` — run one benchmark or RV32 program under one scheduler and
//! print the full statistics report.
//!
//! ```text
//! mossim [trace|report|pipeview|cpistack|rvdiff|history|diff] [options]
//!   --bench NAME        benchmark model (default gzip)
//!   --rv PROG           run a real RV32 program instead: a suite name
//!                       (sum_loop, fib_rec, memcpy, strlen, gcd, collatz,
//!                       bubble_sort), a kernel name (dot_product,
//!                       list_chase, string_hash, fibonacci, call_tree,
//!                       matmul, checksum, binsearch), a .s assembly file,
//!                       or a flat little-endian RV32 binary
//!   --sched KIND        base | 2cycle | mop-2src | mop-wor | sf-squash |
//!                       sf-scoreboard | spec-wakeup  (default mop-wor);
//!                       every mode also takes the aliases twocycle /
//!                       two-cycle = 2cycle and mop / macroop / macro-op
//!                       = mop-wor
//!   --queue N           issue-queue entries; 0 = unrestricted (default 32),
//!                       else at least the fetch width (4)
//!   --stages N          extra MOP formation stages, 0..2 (default 1)
//!   --insts N           committed instructions (default 100000)
//!   --seed N            workload seed (default 42)
//!   --ideal-branch      perfect branch prediction
//!   --ideal-memory      perfect data cache
//!   --timeline N        print the first N uop timelines
//!
//! trace mode (per-cycle event tracing):
//!   --out FILE          write the last --last events as JSONL
//!                       (default trace.jsonl)
//!   --last N            ring-buffer capacity (default 4096)
//!   --check             run the scheduling-invariant oracle over the
//!                       stream; print violations and exit nonzero
//!
//! report mode (interval metrics + run report):
//!   --interval N        metric snapshot interval in cycles (default 10000)
//!   --json FILE         also write the report as one JSON document
//!                       (Markdown always goes to stdout)
//!
//! pipeview mode (per-instruction pipeline trace):
//!   --uops N            record the first N uops (default 256)
//!   --out FILE          write Kanata log to FILE instead of stdout
//!                       (open it in Konata or any Kanata viewer)
//!
//! cpistack mode (top-down cycle accounting):
//!   --compare A,B,..    run the same program under several schedulers
//!                       (labels or aliases) and print per-cause share
//!                       deltas vs the first
//!   --json FILE         also write the stack(s) as one JSON document
//!
//! rvdiff mode (differential functional oracle over RV32 programs):
//!   --rv PROG           check one program (default: the whole suite)
//!   --sched KIND        check one scheduler (default: all seven)
//!   --json FILE         also write a schema-checked JSON report (per
//!                       program/scheduler: pass/fail, uop counts,
//!                       fusion rate, sched_loop share)
//!
//! run ledger (content-addressed archive under results/ledger/, root
//! overridable with --ledger-dir PATH or MOS_LEDGER_DIR):
//!   --save              archive the run (default, report and cpistack
//!                       modes): key = hash(program, config, scheduler,
//!                       schema, git rev); record = totals + CPI stack
//!                       (+ full report JSON in report mode)
//!
//! history mode (list archived runs, newest first):
//!   --bench NAME        only this workload
//!   --sched KIND        only this scheduler
//!   --limit N           show at most N rows (default 20)
//!
//! diff mode (side-by-side metric deltas between two archived runs):
//!   mossim diff [A] [B] A/B are `latest`, `latest-N`, or a key prefix
//!                       (default: latest vs latest-1); sim-side deltas
//!                       are always real, host throughput is advisory
//!   --noise PCT         host-throughput noise band (default 20)
//! ```

use std::process::ExitCode;
use std::time::Instant;

use mopsched::isa::{Program, TraceSource};
use mopsched::ledger::{self, CpiSection, Ledger, RunIdent, RunRecord};
use mopsched::sim::cpistack::{self, CpiStack};
use mopsched::sim::metrics::DEFAULT_INTERVAL;
use mopsched::sim::report::{HostProfile, RunMeta, RunReport};
use mopsched::sim::{
    config_for, MachineConfig, OracleMode, SharedRing, SimStats, Simulator, SCHED_KINDS,
};
use mopsched::{rv, workload};

/// The most extra MOP formation stages `--stages` takes: the paper
/// evaluates 0, 1 and 2.
const MAX_STAGES: u32 = 2;

fn parse() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    match it.peek().map(String::as_str) {
        Some("trace") => {
            it.next();
            a.trace = true;
        }
        Some("report") => {
            it.next();
            a.report = true;
        }
        Some("pipeview") => {
            it.next();
            a.pipeview = true;
        }
        Some("cpistack") => {
            it.next();
            a.cpistack = true;
        }
        Some("rvdiff") => {
            it.next();
            a.rvdiff = true;
        }
        Some("history") => {
            it.next();
            a.history = true;
        }
        Some("diff") => {
            it.next();
            a.diff = true;
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--bench" => {
                a.bench = val("--bench")?;
                a.bench_explicit = true;
            }
            "--rv" => a.rv = Some(val("--rv")?),
            "--sched" => {
                a.sched = val("--sched")?;
                a.sched_explicit = true;
            }
            "--queue" => {
                a.queue = val("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--stages" => {
                a.stages = val("--stages")?
                    .parse()
                    .map_err(|e| format!("--stages: {e}"))?
            }
            "--insts" => {
                a.insts = val("--insts")?
                    .parse()
                    .map_err(|e| format!("--insts: {e}"))?
            }
            "--seed" => a.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--ideal-branch" => a.ideal_branch = true,
            "--ideal-memory" => a.ideal_memory = true,
            "--out" if a.trace || a.pipeview => a.out = Some(val("--out")?),
            "--save" if !(a.trace || a.pipeview || a.rvdiff || a.history || a.diff) => {
                a.save = true
            }
            "--ledger-dir" => a.ledger_dir = Some(val("--ledger-dir")?),
            "--limit" if a.history => {
                a.limit = val("--limit")?
                    .parse()
                    .map_err(|e| format!("--limit: {e}"))?
            }
            "--noise" if a.diff => {
                a.noise = val("--noise")?
                    .parse()
                    .map_err(|e| format!("--noise: {e}"))?
            }
            "--last" if a.trace => {
                a.last = val("--last")?.parse().map_err(|e| format!("--last: {e}"))?
            }
            "--check" if a.trace => a.check = true,
            "--interval" if a.report => {
                a.interval = val("--interval")?
                    .parse()
                    .map_err(|e| format!("--interval: {e}"))?
            }
            "--json" if a.report || a.cpistack || a.rvdiff => a.json = Some(val("--json")?),
            "--compare" if a.cpistack => a.compare = Some(val("--compare")?),
            "--uops" if a.pipeview => {
                a.uops = val("--uops")?.parse().map_err(|e| format!("--uops: {e}"))?
            }
            "--timeline" => {
                a.timeline = val("--timeline")?
                    .parse()
                    .map_err(|e| format!("--timeline: {e}"))?
            }
            "--help" | "-h" => return Err(String::new()),
            spec if a.diff && !spec.starts_with('-') && a.specs.len() < 2 => {
                a.specs.push(spec.to_string())
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if a.stages > MAX_STAGES {
        return Err(format!(
            "--stages {} is outside the studied range; use 0..{MAX_STAGES}",
            a.stages
        ));
    }
    a.sched = canonical_sched(&a.sched).to_owned();
    Ok(a)
}

struct Args {
    bench: String,
    bench_explicit: bool,
    rv: Option<String>,
    sched: String,
    sched_explicit: bool,
    queue: usize,
    stages: u32,
    insts: u64,
    seed: u64,
    ideal_branch: bool,
    ideal_memory: bool,
    timeline: usize,
    trace: bool,
    report: bool,
    pipeview: bool,
    cpistack: bool,
    rvdiff: bool,
    compare: Option<String>,
    out: Option<String>,
    last: usize,
    check: bool,
    interval: u64,
    json: Option<String>,
    uops: usize,
    save: bool,
    ledger_dir: Option<String>,
    history: bool,
    diff: bool,
    limit: usize,
    noise: f64,
    specs: Vec<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            bench: "gzip".into(),
            bench_explicit: false,
            rv: None,
            sched: "mop-wor".into(),
            sched_explicit: false,
            queue: 32,
            stages: 1,
            insts: 100_000,
            seed: 42,
            ideal_branch: false,
            ideal_memory: false,
            timeline: 0,
            trace: false,
            report: false,
            pipeview: false,
            cpistack: false,
            rvdiff: false,
            compare: None,
            out: None,
            last: 4096,
            check: false,
            interval: DEFAULT_INTERVAL,
            json: None,
            uops: 256,
            save: false,
            ledger_dir: None,
            history: false,
            diff: false,
            limit: 20,
            noise: mopsched::ledger::HOST_NOISE_BAND_PCT,
            specs: Vec::new(),
        }
    }
}

/// Build a machine configuration for `sched` with `a`'s knobs (queue
/// size, formation stages, ideal-branch/memory). `cpistack --compare`
/// needs configurations for schedulers other than `a.sched`.
fn config_named(a: &Args, sched: &str) -> Result<MachineConfig, String> {
    let mut cfg = config_for(sched).ok_or_else(|| {
        format!(
            "unknown scheduler `{sched}`; available: {}",
            SCHED_KINDS.join(", ")
        )
    })?;
    // Insertion takes whole fetch groups, so a smaller queue never
    // accepts one and the pipeline deadlocks.
    if (1..cfg.fetch_width).contains(&a.queue) {
        return Err(format!(
            "--queue {} is smaller than a fetch group; use 0 (unrestricted) or at least {}",
            a.queue, cfg.fetch_width
        ));
    }
    cfg.sched.queue_entries = (a.queue != 0).then_some(a.queue);
    if cfg.mops_enabled() {
        cfg.extra_mop_stages = a.stages;
    }
    cfg.ideal_branch = a.ideal_branch;
    cfg.ideal_memory = a.ideal_memory;
    Ok(cfg)
}

/// Load an RV32 program: a suite name, a `.s` assembly file, or a flat
/// little-endian binary image.
fn load_rv(spec: &str) -> Result<rv::RvProgram, String> {
    if let Some(p) = rv::suite::by_name(spec) {
        return Ok(p.assemble());
    }
    let name = std::path::Path::new(spec)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(spec)
        .to_owned();
    // A bare name that is neither a suite program nor a file is almost
    // certainly a typo: name the suite instead of a bare read error.
    if !std::path::Path::new(spec).exists() && !spec.contains(['/', '.']) {
        let known: Vec<&str> = rv::suite::PROGRAMS
            .iter()
            .chain(&rv::suite::KERNELS)
            .map(|p| p.name)
            .collect();
        return Err(format!(
            "unknown rv program `{spec}`; suite programs: {known:?} (or pass a .s / flat-binary path)"
        ));
    }
    if spec.ends_with(".s") || spec.ends_with(".S") {
        let src = std::fs::read_to_string(spec).map_err(|e| format!("reading {spec}: {e}"))?;
        rv::assemble(&name, &src).map_err(|e| format!("{spec}: {e}"))
    } else {
        let bytes = std::fs::read(spec).map_err(|e| format!("reading {spec}: {e}"))?;
        rv::decode_flat(&name, &bytes).map_err(|e| format!("{spec}: {e}"))
    }
}

/// The workload an invocation runs, minus its trace.
struct Workload {
    /// Name the ledger and the reports file the run under.
    name: String,
    /// Ledger source kind: `bench` or `rv`.
    source: &'static str,
    /// The human banner line the plain and trace modes print.
    banner: String,
    /// The static program the trace runs over.
    program: Program,
}

/// Load this invocation's workload (`--rv` overrides `--bench`) with a
/// fresh trace over it.
fn load_workload(a: &Args) -> Result<(Workload, Box<dyn TraceSource>), String> {
    let queue = (a.queue != 0).then_some(a.queue);
    if let Some(spec) = &a.rv {
        let prog = load_rv(spec)?;
        let trace =
            rv::RvTraceSource::new(&prog).map_err(|e| format!("lowering `{}`: {e}", prog.name))?;
        let w = Workload {
            name: spec.clone(),
            source: "rv",
            banner: format!(
                "rv32 program `{}` ({} insts), scheduler {}, queue {queue:?}",
                prog.name,
                prog.len(),
                a.sched
            ),
            program: trace.program().clone(),
        };
        Ok((w, Box::new(trace)))
    } else {
        let spec = workload::spec2000::by_name(&a.bench).ok_or_else(|| {
            format!(
                "unknown benchmark `{}`; available: {:?}",
                a.bench,
                workload::spec2000::names()
            )
        })?;
        let trace = spec.trace(a.seed);
        let w = Workload {
            name: a.bench.clone(),
            source: "bench",
            banner: format!(
                "benchmark `{}` (seed {}), scheduler {}, queue {queue:?}, {} insts",
                a.bench, a.seed, a.sched, a.insts
            ),
            program: trace.program().clone(),
        };
        Ok((w, Box::new(trace)))
    }
}

/// Open the ledger this invocation addresses: `--ledger-dir`, else
/// `$MOS_LEDGER_DIR`, else `results/ledger`.
fn open_ledger(a: &Args) -> Ledger {
    match &a.ledger_dir {
        Some(dir) => Ledger::open(dir),
        None => Ledger::open(Ledger::default_root()),
    }
}

fn now_unix() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Archive one finished run in the ledger (the `--save` flag). The key
/// covers program, config, scheduler, budget/seed, schema and git rev;
/// the record carries the sim-side totals, the CPI stack when slot
/// accounting was on, host throughput, and (from report mode) the full
/// report JSON.
#[allow(clippy::too_many_arguments)]
fn save_record(
    a: &Args,
    w: &Workload,
    sched: &str,
    cfg: &MachineConfig,
    stats: &SimStats,
    cpi: Option<&CpiStack>,
    sim_seconds: f64,
    report_json: Option<&str>,
) -> Result<(), String> {
    let git_rev = ledger::git_short_rev();
    let program_sha = ledger::program_digest(&w.program);
    let ident = RunIdent {
        kind: "run",
        bench: &w.name,
        source: w.source,
        sched,
        insts: a.insts,
        seed: a.seed,
        program_sha: &program_sha,
        git_rev: &git_rev,
    };
    let key = ledger::run_key(&ident, Some(cfg));
    let record = RunRecord {
        schema: ledger::SCHEMA_VERSION,
        key: key.clone(),
        kind: "run".into(),
        bench: w.name.clone(),
        source: w.source.into(),
        sched: sched.into(),
        insts: a.insts,
        seed: a.seed,
        git_rev,
        unix_time: now_unix(),
        host_cycles_per_sec: if sim_seconds > 0.0 {
            stats.cycles as f64 / sim_seconds
        } else {
            0.0
        },
        cached: false,
        sched_kinds: Vec::new(),
        totals: RunRecord::totals_from_stats(stats),
        cpi: cpi.map(CpiSection::from_stack),
        report: report_json
            .map(|t| ledger::json::parse(t).map_err(|e| format!("report JSON: {e}")))
            .transpose()?,
    };
    let store = open_ledger(a);
    let saved = store.save(&record)?;
    let short = ledger::short(&key);
    eprintln!("ledger: saved {short} -> {}", saved.path.display());
    if saved.replaced {
        eprintln!(
            "note: replaced record {short}: saves of the same run at one git revision \
             share a key, so an earlier save of this run was overwritten"
        );
    }
    Ok(())
}

/// Run `history` mode: list archived runs, newest first.
fn run_history(a: &Args) -> Result<(), String> {
    let store = open_ledger(a);
    let bench = a.bench_explicit.then_some(a.bench.as_str());
    let sched = a.sched_explicit.then_some(a.sched.as_str());
    print!("{}", store.history_markdown(bench, sched, a.limit));
    Ok(())
}

/// Run `diff` mode: side-by-side metric deltas between two archived
/// runs, with the noise-band verdict.
fn run_diff(a: &Args) -> Result<(), String> {
    let store = open_ledger(a);
    let spec_a = a.specs.first().map_or("latest-1", String::as_str);
    let spec_b = a.specs.get(1).map_or("latest", String::as_str);
    // `mossim diff X` means "X against latest", oldest first.
    let (spec_a, spec_b) = if a.specs.len() == 1 {
        (a.specs[0].as_str(), "latest")
    } else {
        (spec_a, spec_b)
    };
    let (key_a, key_b) = (store.resolve(spec_a)?, store.resolve(spec_b)?);
    if key_a == key_b {
        eprintln!(
            "note: `{spec_a}` and `{spec_b}` both name record {}: saves of the same run \
             at one git revision share a key, so this compares a record with itself; \
             compare saves from two commits",
            ledger::short(&key_a)
        );
    }
    let rec_a = store.load(&key_a)?;
    let rec_b = store.load(&key_b)?;
    let outcome = ledger::diff(&rec_a, &rec_b, a.noise);
    print!("{}", outcome.markdown);
    Ok(())
}

/// Run `rvdiff` mode: the differential functional oracle over RV32
/// programs × scheduler kinds. Any divergence is an error.
fn run_rvdiff(a: &Args) -> Result<(), String> {
    let programs: Vec<rv::RvProgram> = match &a.rv {
        Some(spec) => vec![load_rv(spec)?],
        None => rv::suite::PROGRAMS.iter().map(|p| p.assemble()).collect(),
    };
    let scheds: Vec<&str> = if a.sched_explicit && a.sched != "all" {
        vec![a.sched.as_str()]
    } else {
        SCHED_KINDS.to_vec()
    };
    // Validate every scheduler up front so a typo errors before output.
    for sched in &scheds {
        config_named(a, sched)?;
    }
    println!(
        "{:<12} {:<14} {:>9} {:>9} {:>8} {:>6} {:>7} {:>9}",
        "program", "sched", "rv insts", "uops", "cycles", "ipc", "fusion", "schedloop"
    );
    let mut failures = 0;
    let mut results: Vec<ledger::json::Value> = Vec::new();
    for prog in &programs {
        for sched in &scheds {
            use ledger::json::Value;
            let cfg = config_named(a, sched)?;
            let mut fields = vec![
                ("program".to_string(), Value::Str(prog.name.clone())),
                ("sched".to_string(), Value::Str(sched.to_string())),
            ];
            match rv::run_differential(prog, sched, cfg, 10_000_000) {
                Ok(rep) => {
                    println!(
                        "{:<12} {:<14} {:>9} {:>9} {:>8} {:>6.3} {:>6.1}% {:>8.1}%",
                        prog.name,
                        sched,
                        rep.rv_retired,
                        rep.uops_committed,
                        rep.cycles,
                        rep.ipc,
                        rep.fusion_rate * 100.0,
                        rep.sched_loop_share * 100.0
                    );
                    fields.extend([
                        ("pass".to_string(), Value::Bool(true)),
                        ("rv_retired".to_string(), Value::Num(rep.rv_retired as f64)),
                        (
                            "uops_committed".to_string(),
                            Value::Num(rep.uops_committed as f64),
                        ),
                        ("cycles".to_string(), Value::Num(rep.cycles as f64)),
                        ("ipc".to_string(), Value::Num(rep.ipc)),
                        ("fusion_rate".to_string(), Value::Num(rep.fusion_rate)),
                        (
                            "sched_loop_share".to_string(),
                            Value::Num(rep.sched_loop_share),
                        ),
                    ]);
                }
                Err(e) => {
                    eprintln!("FAIL {:<12} {:<14} {e}", prog.name, sched);
                    failures += 1;
                    fields.extend([
                        ("pass".to_string(), Value::Bool(false)),
                        ("error".to_string(), Value::Str(e.to_string())),
                    ]);
                }
            }
            results.push(Value::Obj(fields));
        }
    }
    if let Some(path) = &a.json {
        use ledger::json::Value;
        let doc = Value::Obj(vec![
            (
                "schema".to_string(),
                Value::Num(ledger::SCHEMA_VERSION as f64),
            ),
            ("programs".to_string(), Value::Num(programs.len() as f64)),
            ("schedulers".to_string(), Value::Num(scheds.len() as f64)),
            ("failures".to_string(), Value::Num(failures as f64)),
            ("results".to_string(), Value::Arr(results)),
        ]);
        std::fs::write(path, ledger::json::render(&doc))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("rvdiff: wrote JSON to {path}");
    }
    if failures > 0 {
        return Err(format!("{failures} differential check(s) failed"));
    }
    println!(
        "rvdiff: {} program(s) x {} scheduler(s), all committed traces and \
         final states match the functional oracle",
        programs.len(),
        scheds.len()
    );
    Ok(())
}

/// Run `report` mode: simulate with interval metrics on, print the
/// Markdown report, optionally also write the JSON document.
fn run_report(
    a: &Args,
    cfg: MachineConfig,
    w: &Workload,
    trace: Box<dyn TraceSource>,
    build_seconds: f64,
) -> Result<(), String> {
    let saved_cfg = a.save.then(|| cfg.clone());
    let mut sim = Simulator::new(cfg, trace);
    sim.enable_metrics(a.interval);
    sim.enable_slot_accounting();
    let t = Instant::now();
    sim.run(a.insts);
    let sim_seconds = t.elapsed().as_secs_f64();
    let meta = RunMeta {
        bench: w.name.clone(),
        sched: a.sched.clone(),
        insts: a.insts,
        seed: a.seed,
        interval: a.interval,
    };
    let profile = HostProfile {
        build_seconds,
        sim_seconds,
        render_seconds: 0.0,
    };
    let t = Instant::now();
    let mut report = RunReport::collect(&mut sim, meta, profile);
    let _ = report.to_markdown(); // timed dry run; re-render below with the cost filled in
    report.profile.render_seconds = t.elapsed().as_secs_f64();
    print!("{}", report.to_markdown());
    if let Some(path) = &a.json {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("report: wrote JSON to {path}");
    }
    if let Some(cfg) = &saved_cfg {
        let json = report.to_json();
        save_record(
            a,
            w,
            &a.sched,
            cfg,
            &report.stats,
            report.cpi.as_ref(),
            sim_seconds,
            Some(&json),
        )?;
    }
    Ok(())
}

/// Run `pipeview` mode: record the first `--uops` timelines and emit
/// them as a Kanata log for Konata.
fn run_pipeview(
    a: &Args,
    cfg: MachineConfig,
    w: &Workload,
    trace: Box<dyn TraceSource>,
) -> Result<(), String> {
    let mut sim = Simulator::new(cfg, trace);
    sim.enable_timeline(a.uops);
    sim.run(a.insts);
    let timeline = sim.timeline().expect("timeline enabled");
    let kanata = timeline.to_kanata(&w.program);
    match &a.out {
        Some(path) => {
            std::fs::write(path, &kanata).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "pipeview: wrote {} uop timelines to {path} (open in Konata)",
                timeline.entries().len()
            );
        }
        None => print!("{kanata}"),
    }
    Ok(())
}

/// Canonical CLI spelling for a scheduler name, accepting the paper-ish
/// aliases (`twocycle`, `mop`, ...) in `--sched` and `--compare`.
fn canonical_sched(name: &str) -> &str {
    match name {
        "twocycle" | "two-cycle" => "2cycle",
        "mop" | "macroop" | "macro-op" => "mop-wor",
        other => other,
    }
}

/// Run `cpistack` mode: simulate the workload with slot accounting on —
/// once, or once per `--compare` scheduler — check the conservation
/// invariant, and print the (differential) CPI stack.
fn run_cpistack(a: &Args) -> Result<(), String> {
    let scheds: Vec<String> = match &a.compare {
        Some(list) => list
            .split(',')
            .map(|s| canonical_sched(s.trim()).to_string())
            .filter(|s| !s.is_empty())
            .collect(),
        None => vec![a.sched.clone()],
    };
    if scheds.is_empty() {
        return Err("--compare needs at least one scheduler".into());
    }
    let mut stacks = Vec::new();
    for sched in &scheds {
        let cfg = config_named(a, sched)?;
        let width = cfg.sched.issue_width as u64;
        let saved_cfg = a.save.then(|| cfg.clone());
        let (w, trace) = load_workload(a)?;
        let t = Instant::now();
        let mut sim = Simulator::new(cfg, trace);
        sim.enable_slot_accounting();
        let stats = sim.run(a.insts);
        let sim_seconds = t.elapsed().as_secs_f64();
        let stack = CpiStack::from_stats(&w.name, sched, width, &stats);
        stack
            .check_conservation()
            .map_err(|e| format!("{sched}: {e}"))?;
        if let Some(cfg) = &saved_cfg {
            save_record(a, &w, sched, cfg, &stats, Some(&stack), sim_seconds, None)?;
        }
        stacks.push(stack);
    }
    if stacks.len() == 1 {
        print!("{}", stacks[0].to_markdown());
    } else {
        print!("{}", cpistack::compare_markdown(&stacks));
        println!(
            "conservation: ok for all {} stacks ({} cycles x width each)",
            stacks.len(),
            stacks
                .iter()
                .map(|s| s.cycles.to_string())
                .collect::<Vec<_>>()
                .join("/")
        );
    }
    if let Some(path) = &a.json {
        let doc = if stacks.len() == 1 {
            stacks[0].to_json()
        } else {
            cpistack::compare_json(&stacks)
        };
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("cpistack: wrote JSON to {path}");
    }
    Ok(())
}

/// Run the default, `trace`, `report` or `pipeview` mode: one workload
/// under one scheduler.
fn run(a: &Args) -> Result<(), String> {
    let cfg = config_named(a, &a.sched)?;
    let build = Instant::now();
    let (w, trace) = load_workload(a)?;
    let build_seconds = build.elapsed().as_secs_f64();
    if a.report {
        return run_report(a, cfg, &w, trace, build_seconds);
    }
    if a.pipeview {
        return run_pipeview(a, cfg, &w, trace);
    }
    // report and pipeview keep stdout for Markdown and Kanata; the
    // plain and trace modes open with a human banner.
    println!("{}\n", w.banner);
    let saved_cfg = a.save.then(|| cfg.clone());
    let mut sim = Simulator::new(cfg, trace);
    if a.save {
        // Observation-only; gives the archived record a CPI stack.
        sim.enable_slot_accounting();
    }
    if a.timeline > 0 {
        sim.enable_timeline(a.timeline);
    }
    let ring = a.trace.then(|| {
        let ring = SharedRing::new(a.last);
        sim.set_event_sink(Box::new(ring.clone()));
        ring
    });
    if a.check {
        sim.attach_oracle(OracleMode::Collect);
    }
    let t = Instant::now();
    let stats = sim.run(a.insts);
    let sim_seconds = t.elapsed().as_secs_f64();
    print!("{}", stats.report());
    if let Some(cfg) = &saved_cfg {
        let width = cfg.sched.issue_width as u64;
        let stack = CpiStack::from_stats(&w.name, &a.sched, width, &stats);
        save_record(
            a,
            &w,
            &a.sched,
            cfg,
            &stats,
            Some(&stack),
            sim_seconds,
            None,
        )?;
    }
    if let Some(t) = sim.timeline() {
        println!("\nfirst {} uops:", t.entries().len());
        print!("{}", t.render(&w.program));
    }
    if let Some(ring) = ring {
        let out = a.out.as_deref().unwrap_or("trace.jsonl");
        std::fs::write(out, ring.to_jsonl()).map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "trace: kept the last {} of {} events in {}",
            ring.with(|r| r.len()),
            ring.total_seen(),
            out
        );
        if ring.dropped() > 0 {
            eprintln!(
                "warning: {} events were dropped by the bounded ring; \
                 raise --last to keep them",
                ring.dropped()
            );
        }
    }
    if a.check {
        let oracle = sim.oracle().expect("attached above");
        if !oracle.is_clean() {
            for v in oracle.violations() {
                eprintln!("{v}");
            }
            return Err(format!(
                "oracle: {} scheduling-invariant violation(s) in {} events",
                oracle.violations().len(),
                oracle.events_seen()
            ));
        }
        println!(
            "oracle: checked {} events, no scheduling-invariant violations",
            oracle.events_seen()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("see the module docs at the top of mossim.rs for usage");
            return ExitCode::FAILURE;
        }
    };
    let res = if a.cpistack {
        run_cpistack(&a)
    } else if a.rvdiff {
        run_rvdiff(&a)
    } else if a.history {
        run_history(&a)
    } else if a.diff {
        run_diff(&a)
    } else {
        run(&a)
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

//! End-to-end CLI coverage of the run ledger: `mossim --save`,
//! `history`, `diff`, and the schema of `rvdiff --json`.
//!
//! All ledger state lives in a per-test temp directory passed via
//! `--ledger-dir`, so these tests never touch `results/ledger/`.

use std::path::PathBuf;
use std::process::Command;

use mopsched::ledger::json;

fn mossim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mossim"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mos_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> (String, String) {
    let out = cmd.output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "command failed:\n{stdout}\n{stderr}");
    (stdout, stderr)
}

fn save_once(ledger: &std::path::Path) -> String {
    let (_, err) = run_ok(mossim().args([
        "--bench",
        "gzip",
        "--sched",
        "mop-wor",
        "--insts",
        "5000",
        "--save",
        "--ledger-dir",
        ledger.to_str().unwrap(),
    ]));
    assert!(err.contains("ledger: saved"), "no save confirmation: {err}");
    err
}

#[test]
fn save_history_diff_pipeline() {
    let dir = temp_dir("pipeline");
    let ledger = dir.join("ledger");

    // Two saves of the same (program, config, code): the acceptance
    // criterion is that their diff reports zero sim-side deltas.
    let first = save_once(&ledger);
    assert!(!first.contains("note:"), "{first}");
    let second = save_once(&ledger);
    assert!(
        second.contains("note: replaced record"),
        "the second save names the record it replaced: {second}"
    );

    let (history, _) = run_ok(mossim().args(["history", "--ledger-dir", ledger.to_str().unwrap()]));
    assert!(history.contains("| gzip | mop-wor | 5000 |"), "{history}");
    assert_eq!(
        history.matches("| run |").count(),
        2,
        "both saves indexed: {history}"
    );

    // history filters: a non-matching bench hides both rows.
    let (filtered, _) = run_ok(mossim().args([
        "history",
        "--bench",
        "gap",
        "--ledger-dir",
        ledger.to_str().unwrap(),
    ]));
    assert!(filtered.contains("no matching archived runs"), "{filtered}");

    let (diff_md, _) = run_ok(mossim().args([
        "diff",
        "latest-1",
        "latest",
        "--ledger-dir",
        ledger.to_str().unwrap(),
    ]));
    assert!(
        diff_md.contains("Verdict: sim-identical"),
        "same config twice must be sim-identical:\n{diff_md}"
    );
    assert!(diff_md.contains("## Differential CPI stack"), "{diff_md}");
    assert!(diff_md.contains("Host throughput (advisory"), "{diff_md}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_rejects_bad_specs() {
    let dir = temp_dir("badspec");
    let ledger = dir.join("ledger");
    save_once(&ledger);
    let out = mossim()
        .args([
            "diff",
            "latest-5",
            "latest",
            "--ledger-dir",
            ledger.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "latest-5 must fail with one save");
    let out = mossim()
        .args([
            "diff",
            "zz",
            "latest",
            "--ledger-dir",
            ledger.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "non-hex prefix must fail");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rvdiff_json_report_matches_the_schema() {
    let dir = temp_dir("rvdiff");
    let json_path = dir.join("rvdiff.json");
    run_ok(mossim().args([
        "rvdiff",
        "--rv",
        "gcd",
        "--json",
        json_path.to_str().unwrap(),
    ]));
    let doc = json::parse(&std::fs::read_to_string(&json_path).unwrap()).expect("valid JSON");

    assert_eq!(doc.get("schema").and_then(json::Value::as_u64), Some(1));
    assert_eq!(doc.get("programs").and_then(json::Value::as_u64), Some(1));
    assert_eq!(doc.get("schedulers").and_then(json::Value::as_u64), Some(7));
    assert_eq!(doc.get("failures").and_then(json::Value::as_u64), Some(0));

    let results = doc.get("results").and_then(json::Value::as_arr).unwrap();
    assert_eq!(results.len(), 7, "one row per scheduler");
    for r in results {
        assert_eq!(r.get("program").and_then(json::Value::as_str), Some("gcd"));
        assert!(r.get("sched").and_then(json::Value::as_str).is_some());
        assert_eq!(r.get("pass"), Some(&json::Value::Bool(true)));
        // A passing row carries the full metric set.
        for field in [
            "rv_retired",
            "uops_committed",
            "cycles",
            "ipc",
            "fusion_rate",
            "sched_loop_share",
        ] {
            assert!(
                r.get(field).and_then(json::Value::as_num).is_some(),
                "missing {field}"
            );
        }
        let share = r
            .get("sched_loop_share")
            .and_then(json::Value::as_num)
            .unwrap();
        assert!((0.0..=1.0).contains(&share), "share out of range: {share}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scheduler aliases resolve in every mode, not only in `cpistack`: the
/// plain run and `report` take them too, and report under the label.
#[test]
fn scheduler_aliases_work_in_every_mode() {
    let (stdout, _) = run_ok(mossim().args(["--sched", "twocycle", "--insts", "2000"]));
    assert!(stdout.contains("scheduler 2cycle"), "{stdout}");

    let dir = temp_dir("alias");
    let json_path = dir.join("report.json");
    run_ok(mossim().args([
        "report",
        "--sched",
        "mop",
        "--insts",
        "2000",
        "--json",
        json_path.to_str().unwrap(),
    ]));
    let doc = std::fs::read_to_string(&json_path).unwrap();
    assert!(doc.contains("\"sched\":\"mop-wor\""), "{doc}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A queue smaller than a fetch group can never accept one: mossim
/// refuses it with a named minimum instead of deadlocking the pipeline.
#[test]
fn a_queue_smaller_than_a_fetch_group_is_a_usage_error() {
    for sched in ["base", "mop-wor"] {
        let out = mossim()
            .args(["--sched", sched, "--queue", "2", "--insts", "2000"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{sched}: {stderr}");
        assert!(!stderr.contains("panicked"), "{sched}: {stderr}");
        assert!(stderr.contains("error: --queue 2"), "{sched}: {stderr}");
        assert!(stderr.contains("at least 4"), "{sched}: {stderr}");
    }
}

/// `--stages` takes the paper's 0..2 and, like `--queue`, names a count
/// outside that range instead of simulating a machine nobody studied.
#[test]
fn stages_beyond_the_studied_range_are_a_usage_error() {
    for stages in ["3", "4294967295"] {
        let out = mossim()
            .args(["--stages", stages, "--insts", "2000"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stages}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stages}: {stderr}");
        assert!(
            stderr.contains(&format!("error: --stages {stages}")),
            "{stderr}"
        );
    }
    let out = mossim()
        .args(["--stages", "2", "--insts", "2000"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A pending MOP head in a queue barely larger than a fetch group used to
/// hold the room its own tail needed, until the deadlock check panicked.
#[test]
fn tiny_mop_queues_run_to_completion() {
    for queue in ["4", "5"] {
        let out = mossim()
            .args(["--sched", "mop-wor", "--queue", queue, "--insts", "20000"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "--queue {queue}: {stderr}");
        assert!(!stderr.contains("panicked"), "--queue {queue}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("committed        20000"),
            "--queue {queue}: {stdout}"
        );
    }
}

/// A program without `ebreak` runs off the end of its code. The timing
/// run used to wait for a next instruction until the deadlock check
/// panicked; now it drains and exits 0, while `rvdiff` still reports the
/// oracle's unclean halt.
#[test]
fn a_program_that_runs_off_its_code_drains_cleanly() {
    let dir = temp_dir("no_ebreak");
    let src = dir.join("no_ebreak.s");
    std::fs::write(&src, "_start:\n    li a0, 1\n").unwrap();
    let path = src.to_str().unwrap();
    let (stdout, _) = run_ok(mossim().args(["--rv", path]));
    assert!(stdout.contains("committed            1"), "{stdout}");
    let out = mossim()
        .args(["rvdiff", "--rv", path])
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(
        text.contains("did not halt cleanly after 1 insts (faulted: true)"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

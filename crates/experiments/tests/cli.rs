//! End-to-end checks of the `experiments` CLI's argument handling.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

/// A zero budget is a usage error, not a table of `NaN` cells or a
/// `perf` file whose totals come from the budget-free `rv` study alone.
#[test]
fn a_zero_budget_is_a_usage_error() {
    let out_path = std::env::temp_dir().join(format!("mos_cli_perf_{}.json", std::process::id()));
    let out_arg = out_path.to_str().expect("utf-8 temp path");
    for args in [
        &["fig14", "--insts", "0"][..],
        &["all", "--insts", "0"],
        &["perf", "--insts", "0", "--out", out_arg],
    ] {
        let out = experiments(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded:\n{stdout}");
        assert!(!stdout.contains("NaN"), "{args:?} printed NaN:\n{stdout}");
        assert!(
            stderr.contains("--insts must be at least 1"),
            "{args:?}: {stderr}"
        );
    }
    assert!(!out_path.exists(), "perf wrote {out_arg} for a zero budget");
}

/// The usage line names every study, and an unknown one is refused.
#[test]
fn unknown_studies_print_the_usage_line() {
    let out = experiments(&["fig99"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains(
            "experiments <table1|table2|fig6|fig7|fig13|fig14|fig15|fig16|ablations|extensions|rv|all>"
        ),
        "{stderr}"
    );
}

//! Rendering checks: every experiment's Display output must contain the
//! rows and labels a reader of the paper would look for. Small budgets —
//! these validate plumbing and formatting, not numbers.

use mos_experiments::runner::{default_jobs, Sweep};
use mos_experiments::{ablations, extensions, fig13, fig14, fig15, fig16, fig6, fig7, tables};

const N: u64 = 4_000;

fn has_all_benchmarks(text: &str) {
    for b in [
        "bzip", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser", "perl", "twolf", "vortex",
        "vpr",
    ] {
        assert!(text.contains(b), "missing {b} in:\n{text}");
    }
}

fn sweep() -> Sweep {
    Sweep::new(N, default_jobs())
}

#[test]
fn table1_and_2_render() {
    let t1 = tables::table1();
    assert!(t1.contains("Table 1"));
    let t2 = tables::table2(&sweep()).to_string();
    assert!(t2.contains("Table 2"));
    has_all_benchmarks(&t2);
}

#[test]
fn fig6_and_7_render() {
    let f6 = fig6::run(N as usize).to_string();
    assert!(f6.contains("Figure 6"));
    assert!(f6.contains("noncand"));
    has_all_benchmarks(&f6);
    let f7 = fig7::run(N as usize).to_string();
    assert!(f7.contains("Figure 7"));
    assert!(f7.contains("avg8x"));
    has_all_benchmarks(&f7);
}

#[test]
fn pipeline_figures_render() {
    let f13 = fig13::run(&sweep()).to_string();
    assert!(f13.contains("Figure 13"));
    assert!(f13.contains("paper: 16.2"));
    has_all_benchmarks(&f13);

    let f14 = fig14::run(&sweep()).to_string();
    assert!(f14.contains("Figure 14"));
    assert!(f14.contains("geomean"));
    has_all_benchmarks(&f14);

    let f15 = fig15::run(&sweep()).to_string();
    assert!(f15.contains("Figure 15"));
    assert!(f15.contains("wOR+2"));
    has_all_benchmarks(&f15);

    let f16 = fig16::run(&sweep()).to_string();
    assert!(f16.contains("Figure 16"));
    assert!(f16.contains("sf-squash"));
    has_all_benchmarks(&f16);
}

#[test]
fn ablations_and_extensions_render() {
    let a = ablations::run_all(&sweep());
    for needle in [
        "detection delay",
        "cycle detection",
        "last-arriving-operand",
        "independent MOPs",
        "MOP size",
    ] {
        assert!(a.contains(needle), "missing `{needle}`");
    }
    let e = extensions::run_all(&sweep());
    for needle in [
        "pipelined scheduling design space",
        "spec-wake",
        "detection scope",
        "effective window",
        "CPI attribution",
        "seed sensitivity",
    ] {
        assert!(e.contains(needle), "missing `{needle}`");
    }
}

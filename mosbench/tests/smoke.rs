//! Every workload through both entry points at a tiny size: one round,
//! 2k-instruction jobs, two jobs per workload.

use mos_ledger::json::{self, Value};
use mosbench::traced::{self, LAYER_METRICS};
use mosbench::{measure, Outcome, Settings, Workload};

fn tiny() -> Settings {
    Settings {
        rounds: 1,
        budget: Some(2_000),
        job_limit: Some(2),
    }
}

/// The result line parses with the ledger's JSON reader and carries
/// exactly the four keys, with every metric as `{value, unit}`.
fn check_line(o: &Outcome, names: &[&str]) {
    let line = json::render(&o.to_json());
    let v = json::parse(&line).expect("result line parses");
    let Value::Obj(keys) = &v else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        v.get("correct"),
        Some(&Value::Bool(true)),
        "{:?}",
        o.failures
    );
    assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
    assert!(v.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        panic!("metrics object")
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, names, "{}", o.workload.name());
    for (name, m) in metrics {
        assert!(
            m.get("value")
                .and_then(Value::as_num)
                .is_some_and(f64::is_finite),
            "{name}"
        );
        assert!(
            m.get("unit")
                .and_then(Value::as_str)
                .is_some_and(|u| !u.is_empty()),
            "{name}"
        );
    }
}

fn same_counts(a: &Outcome, b: &Outcome) {
    assert_eq!(a.results.len(), b.results.len());
    for ((la, sa), (lb, sb)) in a.results.iter().zip(&b.results) {
        assert_eq!(la, lb);
        assert_eq!(
            mosbench::digest::fields(sa),
            mosbench::digest::fields(sb),
            "{la}: sim-side counts differ between calls"
        );
    }
}

/// Both entry points at the same seed: every metric present with a unit,
/// both result lines well formed, and identical sim-side counts from the
/// two calls.
fn both_entry_points(w: Workload) {
    let a = measure::run(w, 42, &tiny()).expect("untraced run");
    check_line(&a, &["sim_kips", "setup_s", "peak_rss_mb"]);
    let (b, spans) = traced::run(w, 42, &tiny()).expect("traced run");
    let names: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
    check_line(&b, &names);
    assert!(!spans.spans().is_empty());
    json::parse(&json::render(&spans.to_json())).expect("spans parse");
    assert!(!a.results.is_empty());
    same_counts(&a, &b);
}

#[test]
fn spec_q32() {
    both_entry_points(Workload::SpecQ32);
}

#[test]
fn spec_unrestricted() {
    both_entry_points(Workload::SpecUnrestricted);
}

#[test]
fn mcf_memory() {
    both_entry_points(Workload::McfMemory);
}

#[test]
fn rv_checked() {
    both_entry_points(Workload::RvChecked);
}

#[test]
fn pinned_tables_parse_and_cover_every_job() {
    for w in Workload::ALL {
        let rows = mosbench::digest::parse_table(w.expected_table()).expect("table parses");
        let jobs = mosbench::workload::build_jobs(w, 42, None).expect("jobs build");
        let labels: Vec<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        let pinned: Vec<&str> = rows.iter().map(|r| r.job.as_str()).collect();
        assert_eq!(pinned, labels, "{}", w.name());
    }
}

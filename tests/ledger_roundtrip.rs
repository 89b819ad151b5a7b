//! Ledger invariants: key stability, save→load→diff round trips, and a
//! golden pin of the diff renderer's output.

use std::path::PathBuf;

use mopsched::core::{SlotCause, SlotCounts};
use mopsched::ledger::{
    self, diff, CpiSection, Ledger, Preimage, RunIdent, RunRecord, SCHEMA_VERSION,
};
use mopsched::sim::{MachineConfig, SimStats};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mos_roundtrip_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fully deterministic record (fixed provenance) for golden pinning.
fn pinned_record(key_fill: &str, cycles: u64, host: f64) -> RunRecord {
    let stats = SimStats {
        cycles,
        committed: 9 * cycles / 10,
        fetched: cycles + 200,
        branches: 100,
        mispredicts: 7,
        loads: 220,
        stores: 110,
        ..SimStats::default()
    };
    let mut slots = SlotCounts::default();
    slots.add(SlotCause::Useful, stats.committed);
    slots.add(SlotCause::SchedLoop, cycles / 10);
    slots.add(
        SlotCause::Drained,
        4 * cycles - stats.committed - cycles / 10,
    );
    RunRecord {
        schema: SCHEMA_VERSION,
        key: key_fill.repeat(32),
        kind: "run".into(),
        bench: "gzip".into(),
        source: "bench".into(),
        sched: "mop-wor".into(),
        insts: 1000,
        seed: 42,
        git_rev: "abc1234".into(),
        unix_time: 1_786_000_000,
        host_cycles_per_sec: host,
        cached: false,
        sched_kinds: Vec::new(),
        totals: RunRecord::totals_from_stats(&stats),
        cpi: Some(CpiSection {
            issue_width: 4,
            slots: SlotCause::ALL
                .iter()
                .map(|&c| (c.name().to_string(), slots.get(c)))
                .collect(),
        }),
        report: None,
    }
}

#[test]
fn run_keys_are_stable_under_field_reordering() {
    // Same fields pushed in two different orders hash identically.
    let mut forward = Preimage::new();
    forward.push("bench", "gzip");
    forward.push("sched", "mop-wor");
    forward.push("insts", 100_000u64);
    forward.push("seed", 42u64);
    let mut shuffled = Preimage::new();
    shuffled.push("seed", 42u64);
    shuffled.push("insts", 100_000u64);
    shuffled.push("sched", "mop-wor");
    shuffled.push("bench", "gzip");
    assert_eq!(forward.key(), shuffled.key());

    // And the full run_key is a pure function of its inputs.
    let ident = RunIdent {
        kind: "run",
        bench: "gzip",
        source: "bench",
        sched: "mop-wor",
        insts: 100_000,
        seed: 42,
        program_sha: "-",
        git_rev: "abc1234",
    };
    let cfg = MachineConfig::base_32();
    assert_eq!(
        ledger::run_key(&ident, Some(&cfg)),
        ledger::run_key(&ident, Some(&cfg))
    );
}

#[test]
fn save_load_diff_round_trip_is_sim_identical() {
    let store = Ledger::open(temp_root("sld"));
    let rec = pinned_record("ab", 1000, 650_000.0);
    store.save(&rec).unwrap();
    store.save(&rec).unwrap();

    let a = store.load(&store.resolve("latest-1").unwrap()).unwrap();
    let b = store.load(&store.resolve("latest").unwrap()).unwrap();
    assert_eq!(a, rec, "loaded record equals the saved one");
    assert_eq!(a.to_json(), rec.to_json(), "byte-stable serialization");

    let outcome = diff(&a, &b, ledger::HOST_NOISE_BAND_PCT);
    assert_eq!(outcome.sim_deltas, 0, "same key ⇒ zero sim-side deltas");
    assert!(outcome.host_within_noise);
    assert!(outcome.markdown.contains("Verdict: sim-identical"));
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn diffing_distinct_runs_reports_real_deltas() {
    let a = pinned_record("ab", 1000, 650_000.0);
    let b = pinned_record("cd", 1200, 660_000.0);
    let outcome = diff(&a, &b, ledger::HOST_NOISE_BAND_PCT);
    assert!(outcome.sim_deltas > 0);
    assert!(outcome.markdown.contains("real sim-side delta"));
}

#[test]
fn diff_output_matches_the_golden_pin() {
    // Two hand-built records with fixed provenance: the rendered diff is
    // fully deterministic, so any change to the renderer shows up as a
    // golden mismatch here (regenerate with UPDATE_GOLDEN=1).
    let a = pinned_record("ab", 1000, 650_000.0);
    let b = pinned_record("cd", 1200, 660_000.0);
    let got = diff(&a, &b, ledger::HOST_NOISE_BAND_PCT).markdown;

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ledger_diff.md");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        got, want,
        "ledger diff output changed; rerun with UPDATE_GOLDEN=1 to re-pin"
    );
}

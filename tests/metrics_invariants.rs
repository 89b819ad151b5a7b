//! Cross-layer invariants of the metrics subsystem: interval snapshots
//! land exactly on cycle boundaries, the interval series and histograms
//! reconcile with the end-of-run [`SimStats`] totals, log₂ histogram
//! buckets split exactly at powers of two, per-worker histogram merges
//! are byte-identical for any `--jobs N`, and the `mossim report` JSON
//! document actually parses and carries the promised schema.

use mopsched::core::WakeupStyle;
use mopsched::experiments::runner::parallel_map;
use mopsched::metrics::{bucket_bounds, bucket_index, Hist};
use mopsched::rv::{suite, RvTraceSource};
use mopsched::sim::report::{HostProfile, RunMeta, RunReport};
use mopsched::sim::{MachineConfig, Simulator};
use mopsched::workload::spec2000;
use mos_testutil::json;

/// One observed gzip `mop-wor` run with metrics on, wrapped into a report.
fn observed_run(interval: u64, insts: u64) -> RunReport {
    let cfg = MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1);
    observed("gzip", "mop-wor", cfg, interval, insts)
}

/// One observed run of `bench` on `cfg` with metrics on, as a report.
fn observed(bench: &str, sched: &str, cfg: MachineConfig, interval: u64, insts: u64) -> RunReport {
    let trace = spec2000::by_name(bench).unwrap().trace(42);
    let mut sim = Simulator::new(cfg, trace);
    sim.enable_metrics(interval);
    sim.run(insts);
    RunReport::collect(
        &mut sim,
        RunMeta {
            bench: bench.into(),
            sched: sched.into(),
            insts,
            seed: 42,
            interval,
        },
        HostProfile::default(),
    )
}

#[test]
fn interval_rows_land_exactly_on_cycle_boundaries() {
    let interval = 512; // deliberately not the default
    assert_rows_on_boundaries(&observed_run(interval, 5_000), interval);
}

/// Every interior row ends on a multiple of `interval`; the last row is
/// the partial tail up to the final cycle.
fn assert_rows_on_boundaries(r: &RunReport, interval: u64) {
    let series = r.series.as_ref().expect("metrics enabled");
    assert_eq!(series.interval, interval);
    assert!(series.rows.len() >= 2, "run too short to test boundaries");
    for (i, row) in series.rows.iter().enumerate() {
        if i + 1 < series.rows.len() {
            assert_eq!(
                row.end_cycle,
                (i as u64 + 1) * interval,
                "interior snapshot {i} must land on an interval multiple"
            );
        } else {
            // The final row is the partial tail up to the last cycle.
            assert_eq!(row.end_cycle, r.stats.cycles);
            assert!(row.end_cycle > (i as u64) * interval);
        }
    }
}

#[test]
fn series_and_histograms_reconcile_with_totals() {
    assert_reconciles(&observed_run(512, 5_000));
}

/// mcf waits on load misses most of the time, so most of its cycles are
/// skipped as idle. An interval that does not divide the 4096-cycle tag
/// prune period must still close every interior row exactly on its
/// boundary, and the series and histograms must still add up to the
/// end-of-run totals, under atomic and macro-op scheduling alike.
#[test]
fn mcf_rows_and_totals_hold_under_idle_cycle_skipping() {
    let interval = 997;
    for (sched, cfg) in [
        ("base", MachineConfig::base_32()),
        (
            "mop-wor",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        ),
    ] {
        let r = observed("mcf", sched, cfg, interval, 3_000);
        assert!(r.stats.ipc() < 0.5, "{sched}: mcf must be memory-bound");
        assert!(
            r.series.as_ref().unwrap().rows.len() >= 5,
            "{sched}: run too short to cross several boundaries"
        );
        assert_rows_on_boundaries(&r, interval);
        assert_reconciles(&r);
    }
}

/// The interval series and the queue histograms sum to the totals.
fn assert_reconciles(r: &RunReport) {
    let s = &r.stats;
    let series = r.series.as_ref().expect("metrics enabled");
    assert_eq!(series.column_total("cycles"), Some(s.cycles));
    assert_eq!(series.column_total("committed"), Some(s.committed));
    assert_eq!(
        series.column_total("replayed_uops"),
        Some(s.queue.load_replay_uops)
    );
    assert_eq!(series.column_total("pointer_hits"), Some(s.pointer_hits));
    assert_eq!(
        series.column_total("pointer_evicts"),
        Some(s.pointers.1 + s.pointers.2)
    );
    assert_eq!(
        series.column_total("occupancy_integral"),
        Some(s.queue.occupancy_integral)
    );

    let occ = r.occupancy.as_ref().expect("queue metrics enabled");
    assert_eq!(occ.count(), s.queue.cycles);
    assert_eq!(occ.sum(), s.queue.occupancy_integral);
    let delay = r.wakeup_select_delay.as_ref().unwrap();
    assert_eq!(delay.count(), s.queue.issued_entries);
    assert_eq!(delay.sum(), series.column_total("delay_sum").unwrap());
}

#[test]
fn histogram_buckets_split_exactly_at_powers_of_two() {
    assert_eq!(bucket_index(0), 0);
    for i in 1..64usize {
        let lo = 1u64 << (i - 1);
        let hi = (1u64 << i) - 1;
        assert_eq!(
            bucket_index(lo),
            i,
            "2^{} is the low edge of bucket {i}",
            i - 1
        );
        assert_eq!(
            bucket_index(hi),
            i,
            "2^{i}-1 is the high edge of bucket {i}"
        );
        assert_eq!(bucket_bounds(i), (lo, hi));
        if hi < u64::MAX {
            assert_eq!(bucket_index(hi + 1), i + 1, "2^{i} starts the next bucket");
        }
    }
    assert_eq!(bucket_index(u64::MAX), 64);
}

#[test]
fn per_worker_histogram_merge_is_byte_identical_for_any_job_count() {
    // One cheap simulation per RV program, each yielding an occupancy
    // histogram; merging the positional results must not depend on how
    // many workers computed them.
    let programs: Vec<_> = suite::PROGRAMS.iter().chain(&suite::KERNELS).collect();
    let merged_with = |jobs: usize| -> String {
        let hists: Vec<Hist> = parallel_map(&programs, jobs, |p| {
            let trace = RvTraceSource::new(&p.assemble()).expect("suite program lowers");
            let mut sim = Simulator::new(MachineConfig::base_32(), trace);
            sim.enable_metrics(64);
            sim.run(u64::MAX);
            sim.queue_metrics()
                .expect("metrics enabled")
                .occupancy
                .clone()
        });
        let mut total = Hist::default();
        for h in &hists {
            total.merge(h);
        }
        total.to_json()
    };
    let serial = merged_with(1);
    for jobs in [2, 3, 8] {
        assert_eq!(
            merged_with(jobs),
            serial,
            "histogram fold must be byte-identical with {jobs} workers"
        );
    }
}

#[test]
fn report_json_parses_and_has_the_promised_schema() {
    let r = observed_run(512, 2_000);
    let doc = json::parse(&r.to_json()).expect("report JSON must parse");

    let meta = doc.get("meta").expect("meta");
    assert_eq!(meta.get("bench").unwrap().as_str(), Some("gzip"));
    assert_eq!(meta.get("sched").unwrap().as_str(), Some("mop-wor"));
    assert_eq!(meta.get("interval").unwrap().as_u64(), Some(512));

    let totals = doc.get("totals").expect("totals");
    assert_eq!(totals.get("cycles").unwrap().as_u64(), Some(r.stats.cycles));
    assert_eq!(
        totals.get("committed").unwrap().as_u64(),
        Some(r.stats.committed)
    );
    assert!(totals.get("ipc").unwrap().as_num().is_some());
    assert!(totals.get("events_dropped").unwrap().as_u64().is_some());
    let occ = totals.get("occupancy").expect("occupancy histogram");
    assert!(occ.get("buckets").unwrap().as_arr().is_some());

    let series = doc.get("series").expect("series");
    assert_eq!(series.get("interval").unwrap().as_u64(), Some(512));
    let cols = series.get("cols").unwrap().as_arr().unwrap();
    let rows = series.get("rows").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), r.series.as_ref().unwrap().rows.len());
    for row in rows {
        let vals = row.get("vals").unwrap().as_arr().unwrap();
        assert_eq!(vals.len(), cols.len(), "each row covers every column");
    }

    let profile = doc.get("profile").expect("profile");
    assert!(profile.get("cycles_per_second").unwrap().as_num().is_some());
}

//! Observer-independent simulation results and their pinned digests.
//!
//! A job's result is every [`SimStats`] counter that attaching an observer
//! cannot change: everything except the per-kind event counts (non-zero
//! only while tracing) and the slot-cause counts (non-zero only while slot
//! accounting). The expected table for each workload lists those counters
//! per job at seed 42, plus a SHA-256 over them, and is embedded in the
//! binary at build time.

use mos_core::detect::DetectStats;
use mos_core::form::FormStats;
use mos_core::queue::QueueStats;
use mos_sim::SimStats;

use crate::measure::Settings;
use crate::workload::Workload;

/// The seed the expected tables were generated at.
pub const PINNED_SEED: u64 = 42;

/// Every observer-independent counter of `s`, by name, in a fixed order.
///
/// The destructuring is exhaustive on purpose: a counter added to
/// [`SimStats`] fails to compile here until it is listed (or explicitly
/// excluded as observer-dependent).
pub fn fields(s: &SimStats) -> Vec<(&'static str, u64)> {
    let SimStats {
        cycles,
        committed,
        fetched,
        wrong_path_fetched,
        branches,
        mispredicts,
        squashes,
        loads,
        load_l1_misses,
        load_forwards,
        stores,
        il1,
        dl1,
        l2,
        roles,
        queue,
        detect,
        form,
        pointers,
        pointer_hits,
        mop_entries_issued,
        last_arrival_filtered,
        events: _,
        slots: _,
    } = s;
    let QueueStats {
        issued_entries,
        issued_uops,
        load_replay_uops,
        collisions,
        pileup_replays,
        spec_wakeup_cancels,
        occupancy_integral,
        cycles: queue_cycles,
        cancelled_pendings,
    } = queue;
    let DetectStats {
        dependent_pairs,
        independent_pairs,
        cycle_rejects,
        src_limit_rejects,
        flow_rejects,
    } = detect;
    let FormStats {
        fused_pairs,
        cancelled,
        insts,
    } = form;
    vec![
        ("cycles", *cycles),
        ("committed", *committed),
        ("fetched", *fetched),
        ("wrong_path_fetched", *wrong_path_fetched),
        ("branches", *branches),
        ("mispredicts", *mispredicts),
        ("squashes", *squashes),
        ("loads", *loads),
        ("load_l1_misses", *load_l1_misses),
        ("load_forwards", *load_forwards),
        ("stores", *stores),
        ("il1_hits", il1.0),
        ("il1_misses", il1.1),
        ("dl1_hits", dl1.0),
        ("dl1_misses", dl1.1),
        ("l2_hits", l2.0),
        ("l2_misses", l2.1),
        ("role_not_candidate", roles[0]),
        ("role_not_grouped", roles[1]),
        ("role_mop_independent", roles[2]),
        ("role_mop_non_value_gen", roles[3]),
        ("role_mop_value_gen", roles[4]),
        ("queue_issued_entries", *issued_entries),
        ("queue_issued_uops", *issued_uops),
        ("queue_load_replay_uops", *load_replay_uops),
        ("queue_collisions", *collisions),
        ("queue_pileup_replays", *pileup_replays),
        ("queue_spec_wakeup_cancels", *spec_wakeup_cancels),
        ("queue_occupancy_integral", *occupancy_integral),
        ("queue_cycles", *queue_cycles),
        ("queue_cancelled_pendings", *cancelled_pendings),
        ("detect_dependent_pairs", *dependent_pairs),
        ("detect_independent_pairs", *independent_pairs),
        ("detect_cycle_rejects", *cycle_rejects),
        ("detect_src_limit_rejects", *src_limit_rejects),
        ("detect_flow_rejects", *flow_rejects),
        ("form_fused_pairs", *fused_pairs),
        ("form_cancelled", *cancelled),
        ("form_insts", *insts),
        ("pointer_installs", pointers.0),
        ("pointer_line_invalidations", pointers.1),
        ("pointer_filter_deletes", pointers.2),
        ("pointer_hits", *pointer_hits),
        ("mop_entries_issued", *mop_entries_issued),
        ("last_arrival_filtered", *last_arrival_filtered),
    ]
}

/// SHA-256 (hex) over the `name=value` lines of [`fields`].
pub(crate) fn sha(fields: &[(&'static str, u64)]) -> String {
    let text: String = fields.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    mos_ledger::sha::hex_digest(text.as_bytes())
}

/// One pinned job result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Job label (`bench/sched/sSEED` or `program/sched`).
    pub job: String,
    /// Digest over the fields.
    pub sha: String,
    /// The pinned counters, in [`fields`] order.
    pub fields: Vec<(String, u64)>,
}

/// Column header of an expected table.
fn header() -> String {
    let names: Vec<&str> = fields(&SimStats::default())
        .iter()
        .map(|(k, _)| *k)
        .collect();
    format!("job\tsha256\t{}", names.join("\t"))
}

/// Render an expected table: a comment line, the header, one row per job.
pub fn render_table(workload: &str, rows: &[(String, SimStats)]) -> String {
    let mut out = format!(
        "# mosbench pinned results: workload {workload}, seed {PINNED_SEED}; \
         regenerate with `mosbench --workload {workload} --write-expected`\n{}\n",
        header()
    );
    for (job, stats) in rows {
        let f = fields(stats);
        let values: Vec<String> = f.iter().map(|(_, v)| v.to_string()).collect();
        out.push_str(&format!("{job}\t{}\t{}\n", sha(&f), values.join("\t")));
    }
    out
}

/// Parse an expected table.
///
/// # Errors
///
/// When the table has no header or no row, when the header does not match
/// this build's field list, or (naming the row) when a row is malformed.
pub fn parse_table(text: &str) -> Result<Vec<Expected>, String> {
    let mut lines = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .peekable();
    let Some(head) = lines.next() else {
        return Err("expected table has no header".into());
    };
    if head != header() {
        return Err("expected-table header does not match the SimStats field list".into());
    }
    if lines.peek().is_none() {
        return Err("expected table pins no job".into());
    }
    let names: Vec<&str> = head.split('\t').skip(2).collect();
    lines
        .enumerate()
        .map(|(i, line)| {
            let cols: Vec<&str> = line.split('\t').collect();
            if cols.len() != names.len() + 2 {
                return Err(format!(
                    "expected-table row {}: {} columns",
                    i + 1,
                    cols.len()
                ));
            }
            let fields = names
                .iter()
                .zip(&cols[2..])
                .map(|(k, v)| {
                    v.parse::<u64>()
                        .map(|v| ((*k).to_owned(), v))
                        .map_err(|e| format!("expected-table row {} field {k}: {e}", i + 1))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Expected {
                job: cols[0].to_owned(),
                sha: cols[1].to_owned(),
                fields,
            })
        })
        .collect()
}

/// The pinned rows that apply to a run: all of the workload's when it
/// runs at [`PINNED_SEED`] (or does not depend on the seed) with the
/// default job budget, none otherwise.
///
/// # Errors
///
/// When the embedded table does not parse or pins no job.
pub(crate) fn pinned_for(
    w: Workload,
    seed: u64,
    settings: &Settings,
) -> Result<Vec<Expected>, String> {
    if settings.budget.is_none() && (seed == PINNED_SEED || w.seed_independent()) {
        parse_table(w.expected_table()).map_err(|e| format!("expected/{}.tsv: {e}", w.name()))
    } else {
        Ok(Vec::new())
    }
}

/// Check job `label`'s result against the run's pinned rows. A run that
/// pins nothing checks nothing; otherwise the job must have a row, and
/// every counter must match it.
pub(crate) fn check_pinned(pinned: &[Expected], label: &str, got: &SimStats) -> Result<(), String> {
    if pinned.is_empty() {
        return Ok(());
    }
    let row = pinned
        .iter()
        .find(|e| e.job == label)
        .ok_or_else(|| format!("{label}: no pinned row in the expected table"))?;
    check(row, &fields(got))
}

/// Compare a job's counters against its pinned row. `Ok` when they match;
/// otherwise a message listing every differing field.
fn check(expected: &Expected, got: &[(&'static str, u64)]) -> Result<(), String> {
    if sha(got) == expected.sha {
        return Ok(());
    }
    let diffs: Vec<String> = expected
        .fields
        .iter()
        .zip(got)
        .filter(|((_, e), (_, g))| e != g)
        .map(|((k, e), (_, g))| format!("{k} expected {e} got {g}"))
        .collect();
    Err(if diffs.is_empty() {
        format!("{}: digest differs from the pinned sha256", expected.job)
    } else {
        format!("{}: {}", expected.job, diffs.join(", "))
    })
}

/// Name every field that differs between two results (round agreement).
pub(crate) fn differing(a: &[(&'static str, u64)], b: &[(&'static str, u64)]) -> Vec<String> {
    a.iter()
        .zip(b)
        .filter(|((_, x), (_, y))| x != y)
        .map(|((k, x), (_, y))| format!("{k} {x} vs {y}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips_and_detects_changes() {
        let stats = SimStats {
            cycles: 100,
            committed: 80,
            ..SimStats::default()
        };
        let text = render_table("w", &[("gzip/base/s42".into(), stats.clone())]);
        let rows = parse_table(&text).expect("parses");
        assert_eq!(rows.len(), 1);
        assert!(check(&rows[0], &fields(&stats)).is_ok());
        let moved = SimStats {
            cycles: 101,
            ..stats
        };
        let err = check(&rows[0], &fields(&moved)).unwrap_err();
        assert!(err.contains("cycles expected 100 got 101"), "{err}");
    }

    #[test]
    fn a_job_without_a_pinned_row_fails() {
        let stats = SimStats::default();
        let rows = parse_table(&render_table(
            "w",
            &[("gzip/base/s42".into(), stats.clone())],
        ))
        .expect("parses");
        assert!(check_pinned(&rows, "gzip/base/s42", &stats).is_ok());
        let err = check_pinned(&rows, "gcc/base/s42", &stats).unwrap_err();
        assert!(err.contains("no pinned row"), "{err}");
        assert!(check_pinned(&[], "gcc/base/s42", &stats).is_ok());
    }

    #[test]
    fn a_table_without_rows_is_rejected() {
        let err = parse_table(&render_table("w", &[])).unwrap_err();
        assert!(err.contains("pins no job"), "{err}");
        assert!(parse_table("").is_err());
    }

    #[test]
    fn observer_counters_are_excluded() {
        let mut a = SimStats::default();
        let b = a.clone();
        a.slots.add(mos_core::SlotCause::Useful, 4);
        assert_eq!(sha(&fields(&a)), sha(&fields(&b)));
    }
}

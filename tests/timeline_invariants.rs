//! Pipeline-ordering invariants, checked through the timeline recorder:
//! for every committed micro-operation, stages advance monotonically
//! (fetch -> insert -> issue -> exec -> commit), the front-end delay is
//! exact, commits are in order, and fused MOP members issue together in
//! one entry with payload-RAM sequencing.
//!
//! Failures print the trailing event-trace window (via `mos-testutil`),
//! not just the offending timeline numbers.

use mopsched::core::WakeupStyle;
use mopsched::sim::MachineConfig;
use mopsched::workload::spec2000;
use mos_testutil::{run_traced_with_timeline, TracedRun};

fn record(bench: &str, cfg: MachineConfig, uops: usize, run: u64) -> TracedRun {
    let spec = spec2000::by_name(bench).expect("known benchmark");
    run_traced_with_timeline(cfg, spec.trace(42), run, 512, uops)
}

#[test]
fn stages_advance_monotonically() {
    for cfg in [
        MachineConfig::base_32(),
        MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        MachineConfig::select_free_scoreboard_32(),
    ] {
        let front = cfg.front_delay();
        let exec_offset = u64::from(cfg.exec_offset);
        let run = record("parser", cfg, 2_000, 4_000);
        for e in &run.timelines {
            run.expect(e.inserted_at >= e.fetched_at + front, || {
                format!(
                    "uop {}: insert {} vs fetch {} (+{front})",
                    e.id, e.inserted_at, e.fetched_at
                )
            });
            if let Some(issue) = e.last_issue() {
                run.expect(issue >= e.inserted_at, || {
                    format!("uop {}: issued before insert", e.id)
                });
                if let Some(exec) = e.exec_at {
                    // Head executes at issue + offset; a MOP tail one later.
                    run.expect(exec >= issue + exec_offset, || {
                        format!(
                            "uop {}: exec {} before issue {} + {exec_offset}",
                            e.id, exec, issue
                        )
                    });
                }
            }
            if let Some(commit) = e.commit_at {
                run.expect(!e.wrong_path, || {
                    format!("wrong-path uop {} committed", e.id)
                });
                let exec = e.exec_at.expect("committed uops executed");
                run.expect(commit >= exec, || {
                    format!("uop {}: commit {} before exec {}", e.id, commit, exec)
                });
            }
        }
    }
}

#[test]
fn commits_are_in_program_order() {
    let run = record("gzip", MachineConfig::base_32(), 2_000, 4_000);
    let mut last: Option<(u64, u64)> = None;
    for e in run.timelines.iter().filter(|e| e.commit_at.is_some()) {
        let c = e.commit_at.expect("filtered");
        if let Some((pid, pc)) = last {
            run.expect(pid < e.id, || {
                format!("uop {} recorded after younger uop {}", e.id, pid)
            });
            run.expect(pc <= c, || {
                format!(
                    "uop {} committed at {} after uop {} at {}",
                    e.id, c, pid, pc
                )
            });
        }
        last = Some((e.id, c));
    }
}

#[test]
fn fused_members_issue_together_and_sequence() {
    let run = record(
        "gzip",
        MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        3_000,
        6_000,
    );
    let entries = &run.timelines;
    let mut fused_pairs = 0;
    for e in entries {
        let Some(head_id) = e.mop_head else { continue };
        if head_id == e.id {
            continue;
        }
        let Some(head) = entries.iter().find(|h| h.id == head_id) else {
            continue; // head outside the recorded window
        };
        // Same entry => identical (final) issue cycle.
        if let (Some(hi), Some(ti)) = (head.last_issue(), e.last_issue()) {
            run.expect(hi == ti, || {
                format!(
                    "head {} and tail {} issued apart ({hi} vs {ti})",
                    head.id, e.id
                )
            });
        }
        // Payload-RAM sequencing: tail executes after the head.
        if let (Some(hx), Some(tx)) = (head.exec_at, e.exec_at) {
            run.expect(tx > hx, || {
                format!(
                    "tail {} exec {} not after head {} exec {}",
                    e.id, tx, head.id, hx
                )
            });
        }
        fused_pairs += 1;
    }
    assert!(
        fused_pairs > 50,
        "expected plenty of fused pairs: {fused_pairs}"
    );
}

#[test]
fn replays_show_up_as_multiple_issues() {
    let run = record("mcf", MachineConfig::base_32(), 4_000, 8_000);
    let replayed = run.timelines.iter().filter(|e| e.issues.len() > 1).count();
    assert!(replayed > 0, "mcf must replay load dependents");
}

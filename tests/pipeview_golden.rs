//! Golden-file test for the Kanata pipeline-view export.
//!
//! The fixture was produced by the CLI itself:
//!
//! ```text
//! mossim pipeview --rv sum_loop --sched mop-wor --uops 24 \
//!     --out tests/golden/sum_loop_rv_mop_wor.kanata
//! ```
//!
//! so this test pins the whole chain — RV32 frontend → event stream →
//! timeline observer → Kanata renderer — to a known-good trace. A diff
//! here means either the simulated schedule of the suite's `sum_loop`
//! changed (a timing regression) or the export format drifted; regenerate
//! the fixture with the command above only after deciding the new
//! behaviour is intended.

use mopsched::core::WakeupStyle;
use mopsched::isa::TraceSource;
use mopsched::rv::{suite, RvTraceSource};
use mopsched::sim::{MachineConfig, Simulator};

const GOLDEN: &str = include_str!("golden/sum_loop_rv_mop_wor.kanata");

#[test]
fn kanata_export_matches_the_golden_trace() {
    let prog = suite::by_name("sum_loop").expect("fixture program").assemble();
    let trace = RvTraceSource::new(&prog).expect("sum_loop lowers");
    let program = trace.program().clone();
    let cfg = MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1);
    let mut sim = Simulator::new(cfg, trace);
    sim.enable_timeline(24);
    sim.run(u64::MAX);
    let got = sim.timeline().expect("timeline enabled").to_kanata(&program);
    assert_eq!(
        got, GOLDEN,
        "Kanata export diverged from tests/golden/sum_loop_rv_mop_wor.kanata; \
         see the module docs for how to regenerate it"
    );
}

#[test]
fn golden_trace_is_well_formed_kanata() {
    let mut lines = GOLDEN.lines();
    assert_eq!(lines.next(), Some("Kanata\t0004"));
    assert!(lines.next().is_some_and(|l| l.starts_with("C=\t")));
    let mut open = std::collections::HashSet::new();
    let mut retired = 0u32;
    for line in lines {
        let mut f = line.split('\t');
        match f.next() {
            Some("I") => {
                let id = f.next().unwrap();
                assert!(open.insert(id.to_owned()), "uop {id} declared twice");
            }
            Some("R") => {
                let id = f.next().unwrap();
                assert!(open.contains(id), "retired uop {id} never declared");
                retired += 1;
            }
            Some("S") | Some("E") => {
                let id = f.next().unwrap();
                assert!(open.contains(id), "stage for undeclared uop {id}");
                let (_cycle, stage) = (f.next().unwrap(), f.next().unwrap());
                assert!(
                    matches!(stage, "F" | "Q" | "X" | "R" | "C"),
                    "unknown stage {stage}"
                );
            }
            Some("L") | Some("C") => {} // labels and cycle advances
            other => panic!("unknown Kanata record {other:?} in {line:?}"),
        }
    }
    assert_eq!(retired, 24, "every recorded uop must retire");
}

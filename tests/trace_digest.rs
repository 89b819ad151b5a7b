//! Pins the full per-scheduler event stream: for each of the seven
//! scheduler kinds on `gzip` and `mcf`, the SHA-256 of the complete trace
//! JSONL (what `mossim trace` writes, one event per line, nothing dropped)
//! must equal its line in `tests/golden/trace_digests.txt`. Any change to
//! the order or content of renames, wakeups, selects, replays, load
//! resolutions or commits shows up here, which is what makes a queue
//! rewrite provably bit-identical.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test trace_digest`, and
//! only for a change that means to move simulated results.

use std::cell::RefCell;
use std::rc::Rc;

use mopsched::ledger::sha::Sha256;
use mopsched::sim::{config_for, EventSink, Simulator, TraceEvent, SCHED_KINDS};
use mopsched::workload::spec2000;

const INSTS: u64 = 3_000;
const SEED: u64 = 42;
const BENCHES: [&str; 2] = ["gzip", "mcf"];
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/trace_digests.txt"
);

/// Hashes every event's JSON line as it arrives, so the stream is never
/// buffered.
#[derive(Clone, Default)]
struct Digest(Rc<RefCell<Sha256>>);

impl EventSink for Digest {
    fn emit(&mut self, ev: &TraceEvent) {
        let mut sha = self.0.borrow_mut();
        sha.update(ev.to_json().as_bytes());
        sha.update(b"\n");
    }
}

/// `"<bench> <sched> <sha256 hex>"` for one full traced run.
fn digest_line(bench: &str, sched: &str) -> String {
    let trace = spec2000::by_name(bench).expect("known bench").trace(SEED);
    let cfg = config_for(sched).expect("known scheduler");
    let mut sim = Simulator::new(cfg, trace);
    let digest = Digest::default();
    sim.set_event_sink(Box::new(digest.clone()));
    let stats = sim.run(INSTS);
    assert!(stats.committed >= INSTS, "{bench}/{sched} ran dry");
    let hash = std::mem::take(&mut *digest.0.borrow_mut()).finish();
    let hex: String = hash.iter().map(|b| format!("{b:02x}")).collect();
    format!("{bench} {sched} {hex}")
}

#[test]
fn trace_streams_match_the_pinned_digests() {
    let got: Vec<String> = BENCHES
        .iter()
        .flat_map(|b| SCHED_KINDS.iter().map(move |s| digest_line(b, s)))
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, got.join("\n") + "\n").unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(
        want.len(),
        got.len(),
        "one golden line per bench × scheduler"
    );
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(
            *w, g,
            "event stream changed; rerun with UPDATE_GOLDEN=1 only if that is intended"
        );
    }
}

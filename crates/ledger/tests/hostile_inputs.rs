//! Hostile inputs to the run ledger: seeded mutations of a saved record
//! file and of index lines go through `json::parse`, `RunRecord::parse`,
//! `Ledger::index`, `Ledger::resolve` and `Ledger::load`. Every call must
//! return `Ok` or `Err`; a panic fails the test with the case number and
//! the input that caused it.
//!
//! The mutations are seeded and deterministic, so a failure reproduces
//! exactly. Each replaces, inserts or deletes a byte or a token (among
//! them multi-byte UTF-8 and `../`), replaces a whole JSON string with a
//! token, or truncates the text.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use mos_core::{SlotCause, SlotCounts};
use mos_ledger::{json, CpiSection, Ledger, RunRecord, SCHEMA_VERSION};
use mos_sim::SimStats;

/// A xorshift stream: the test needs no more than reproducible choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Tokens that JSON, a record path or a key prefix treats specially, or
/// that are not ASCII.
const TOKENS: &[&str] = &[
    "../",
    "..",
    "/",
    "€",
    "é",
    "😀",
    "a€",
    "\"",
    "\\",
    "\\u20ac",
    "\\ud800",
    "\\u0000",
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "null",
    "true",
    "-1",
    "1e999",
    "18446744073709551616",
    "\"key\":",
    "latest",
    "\n",
    "",
];

/// One random edit of `text`, kept on character boundaries so the result
/// stays text, as a file read back by the ledger is.
fn mutate(text: &mut String, rng: &mut Rng) {
    let mut pos = rng.below(text.len() + 1);
    while !text.is_char_boundary(pos) {
        pos -= 1;
    }
    let next = text[pos..]
        .chars()
        .next()
        .map_or(pos, |c| pos + c.len_utf8());
    let token = *rng.pick(TOKENS);
    match rng.below(6) {
        0 => text.replace_range(pos..next, token),
        1 => text.replace_range(pos..next, ""),
        2 => text.insert_str(pos, token),
        3 | 4 => {
            // Replace the JSON string around `pos`, quotes kept.
            let open = text[..pos].rfind('"').map_or(0, |i| i + 1);
            let close = text[pos..].find('"').map_or(text.len(), |i| pos + i);
            text.replace_range(open.min(close)..close, token);
        }
        _ => text.truncate(pos),
    }
}

/// Run `f` on one input; a panic fails the test with the case and input.
fn survives(what: &str, case: usize, input: &str, f: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        panic!("{what} case {case} panicked on input {input:?}");
    }
}

fn record() -> RunRecord {
    let stats = SimStats {
        cycles: 1000,
        committed: 900,
        ..SimStats::default()
    };
    let mut slots = SlotCounts::default();
    slots.add(SlotCause::Useful, 900);
    slots.add(SlotCause::Drained, 3100);
    RunRecord {
        schema: SCHEMA_VERSION,
        key: "ab".repeat(32),
        kind: "run".into(),
        bench: "gzip".into(),
        source: "bench".into(),
        sched: "mop-wor".into(),
        insts: 1000,
        seed: 42,
        git_rev: "abc1234".into(),
        unix_time: 1_786_000_000,
        host_cycles_per_sec: 650_000.0,
        cached: false,
        sched_kinds: vec!["base".into()],
        totals: RunRecord::totals_from_stats(&stats),
        cpi: Some(CpiSection {
            issue_width: 4,
            slots: SlotCause::ALL
                .iter()
                .map(|&c| (c.name().to_string(), slots.get(c)))
                .collect(),
        }),
        report: Some(json::parse(r#"{"meta":{"bench":"gzip"},"series":null}"#).unwrap()),
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mos-ledger-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Without the hex-key checks in `IndexEntry::parse`, `RunRecord::parse`
/// and `Ledger::load`, 28 of the 3,000 index cases panic (the first is
/// case 82) and one record case does (2406), all slicing a non-ASCII key
/// into a record path; 3,000 cases of each kind take about a second in a
/// debug build.
const CASES: usize = 3_000;

#[test]
fn mutated_record_files_never_panic_parsing_or_loading() {
    let ledger = Ledger::open(temp_root("record"));
    let rec = record();
    let path = ledger.save(&rec).unwrap().path;
    let text = rec.to_json();
    let rng = &mut Rng(0x5eed_1ed6);
    for case in 0..CASES {
        let mut bad = text.clone();
        for _ in 0..1 + rng.below(3) {
            mutate(&mut bad, rng);
        }
        survives("record", case, &bad, || {
            let _ = json::parse(&bad);
            if let Ok(parsed) = RunRecord::parse(&bad) {
                let _ = ledger.load(&parsed.key);
            }
            std::fs::write(&path, &bad).unwrap();
            let _ = ledger.load(&rec.key);
        });
    }
    let _ = std::fs::remove_dir_all(ledger.root());
}

#[test]
fn mutated_index_lines_never_panic_the_index_or_resolution() {
    let ledger = Ledger::open(temp_root("index"));
    ledger.save(&record()).unwrap();
    let index_path = ledger.root().join("index.jsonl");
    let line = std::fs::read_to_string(&index_path).unwrap();
    let rng = &mut Rng(0x1de_c0de);
    for case in 0..CASES {
        let mut text = line.repeat(1 + rng.below(2));
        for _ in 0..1 + rng.below(3) {
            mutate(&mut text, rng);
        }
        survives("index", case, &text, || {
            std::fs::write(&index_path, &text).unwrap();
            for entry in ledger.index() {
                let _ = ledger.resolve(&entry.key);
                let _ = ledger.load(&entry.key);
            }
            for spec in ["latest", "latest-1", "abab"] {
                if let Ok(key) = ledger.resolve(spec) {
                    let _ = ledger.load(&key);
                }
            }
        });
    }
    let _ = std::fs::remove_dir_all(ledger.root());
}

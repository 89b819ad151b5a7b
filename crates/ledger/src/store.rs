//! The on-disk ledger: a content-addressed record store plus an
//! append-only index.
//!
//! Layout under the ledger root (default `results/ledger/`, overridable
//! with `--ledger-dir` or `MOS_LEDGER_DIR`):
//!
//! ```text
//! results/ledger/
//!   index.jsonl          one line per save, in save order
//!   ab/abcdef01…ef.json  record files, sharded by the key's first byte
//! ```
//!
//! Record files are written at `shard/<key>.json` by renaming a temporary
//! file over it; saving the same key again replaces the record (the
//! content is identical by construction — that is what content
//! addressing means here) and appends a fresh index line, so
//! `latest`/`latest-1` name *saves*, not distinct keys. Older archives
//! may also hold cache-hit index lines (`cached: true`) that left the
//! record file untouched.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::{self, Value};
use crate::key::{is_hex_key, short};
use crate::record::RunRecord;

/// One line of the ledger index: the save event for a record.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// Save sequence number: the entry's 1-based position in the index,
    /// assigned when the index is read (lines carry no number of their
    /// own; a `seq` field in lines from older builds is ignored).
    pub seq: u64,
    /// The saved record's key.
    pub key: String,
    /// Record kind (`run`; older archives may also hold `figure` /
    /// `rv_probe`).
    pub kind: String,
    /// Workload or figure name.
    pub bench: String,
    /// Scheduler label.
    pub sched: String,
    /// Instruction budget.
    pub insts: u64,
    /// Code version at save time.
    pub git_rev: String,
    /// Save time (Unix seconds).
    pub unix_time: u64,
    /// Whether the save was a figure-sweep cache hit (older archives).
    pub cached: bool,
}

impl IndexEntry {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("key".into(), Value::Str(self.key.clone())),
            ("kind".into(), Value::Str(self.kind.clone())),
            ("bench".into(), Value::Str(self.bench.clone())),
            ("sched".into(), Value::Str(self.sched.clone())),
            ("insts".into(), Value::Num(self.insts as f64)),
            ("git_rev".into(), Value::Str(self.git_rev.clone())),
            ("unix_time".into(), Value::Num(self.unix_time as f64)),
            ("cached".into(), Value::Bool(self.cached)),
        ])
    }

    /// Parse one index line, numbering it `seq`.
    fn parse(line: &str, seq: u64) -> Option<IndexEntry> {
        let v = json::parse(line).ok()?;
        Some(IndexEntry {
            seq,
            key: v
                .get("key")?
                .as_str()
                .filter(|k| is_hex_key(k))?
                .to_string(),
            kind: v.get("kind")?.as_str()?.to_string(),
            bench: v.get("bench")?.as_str()?.to_string(),
            sched: v.get("sched")?.as_str()?.to_string(),
            insts: v.get("insts")?.as_u64()?,
            git_rev: v.get("git_rev")?.as_str()?.to_string(),
            unix_time: v.get("unix_time")?.as_u64()?,
            cached: matches!(v.get("cached"), Some(Value::Bool(true))),
        })
    }
}

/// The outcome of [`Ledger::save`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Saved {
    /// The record file.
    pub path: PathBuf,
    /// Whether a record file for the key was already there and is now
    /// replaced.
    pub replaced: bool,
}

/// A ledger rooted at one directory.
#[derive(Debug, Clone)]
pub struct Ledger {
    root: PathBuf,
}

impl Ledger {
    /// Open (without touching the filesystem) a ledger at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Ledger {
        Ledger { root: root.into() }
    }

    /// The default ledger root: `$MOS_LEDGER_DIR` when set, else
    /// `results/ledger` under the current directory.
    pub fn default_root() -> PathBuf {
        match std::env::var_os("MOS_LEDGER_DIR") {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from("results/ledger"),
        }
    }

    /// This ledger's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the record file for `key`.
    pub fn record_path(&self, key: &str) -> PathBuf {
        let shard = &key[..key.len().min(2)];
        self.root.join(shard).join(format!("{key}.json"))
    }

    fn index_path(&self) -> PathBuf {
        self.root.join("index.jsonl")
    }

    /// Whether a record for `key` is archived.
    pub fn contains(&self, key: &str) -> bool {
        self.record_path(key).is_file()
    }

    /// Persist `record` and append its index line. Returns the record
    /// file path and whether it replaced a record already saved under the
    /// key (saves of one run at one git revision share a key).
    ///
    /// The record is written to a temporary file in its shard directory
    /// and renamed over `shard/<key>.json`, so a crash or a concurrent
    /// save of the same key never leaves a truncated record behind.
    pub fn save(&self, record: &RunRecord) -> Result<Saved, String> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.record_path(&record.key);
        let dir = path.parent().expect("record path has a shard directory");
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let tmp = dir.join(format!(
            ".{}.{}.{}.tmp",
            record.key,
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, record.to_json())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        let replaced = path.is_file();
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(format!(
                "rename {} -> {}: {e}",
                tmp.display(),
                path.display()
            ));
        }
        self.append_index(record)?;
        Ok(Saved { path, replaced })
    }

    /// Append an index line for `record` without rewriting its file —
    /// used by [`Ledger::save`], and by any caller that re-indexes a
    /// record whose file must stay byte-identical. The line is one
    /// append-mode write and carries no sequence number, so concurrent
    /// saves neither read the index nor race for a number.
    pub fn append_index(&self, record: &RunRecord) -> Result<(), String> {
        use std::io::Write as _;
        std::fs::create_dir_all(&self.root)
            .map_err(|e| format!("mkdir {}: {e}", self.root.display()))?;
        let entry = IndexEntry {
            seq: 0,
            key: record.key.clone(),
            kind: record.kind.clone(),
            bench: record.bench.clone(),
            sched: record.sched.clone(),
            insts: record.insts,
            git_rev: record.git_rev.clone(),
            unix_time: record.unix_time,
            cached: record.cached,
        };
        let path = self.index_path();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        let line = format!("{}\n", json::render(&entry.to_value()));
        file.write_all(line.as_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Load the record archived under `key`, which must be hex.
    pub fn load(&self, key: &str) -> Result<RunRecord, String> {
        if !is_hex_key(key) {
            return Err(format!("bad record key `{key}`: not a hex string"));
        }
        let path = self.record_path(key);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "no record {} in ledger {}: {e}",
                short(key),
                self.root.display()
            )
        })?;
        RunRecord::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Every index entry in save order, numbered `1..` in that order.
    /// Malformed lines are skipped; a missing index means an empty
    /// ledger.
    pub fn index(&self) -> Vec<IndexEntry> {
        let Ok(text) = std::fs::read_to_string(self.index_path()) else {
            return Vec::new();
        };
        let mut index: Vec<IndexEntry> = Vec::new();
        for line in text.lines() {
            index.extend(IndexEntry::parse(line, index.len() as u64 + 1));
        }
        index
    }

    /// Resolve a user-facing run spec to a key:
    ///
    /// * `latest` — the most recent save;
    /// * `latest-N` — the save N steps before it;
    /// * otherwise — an unambiguous key prefix (at least 4 hex chars).
    pub fn resolve(&self, spec: &str) -> Result<String, String> {
        let index = self.index();
        if spec == "latest" || spec.starts_with("latest-") {
            let back: usize = match spec.strip_prefix("latest-") {
                None => 0,
                Some(n) => n.parse().map_err(|_| {
                    format!("bad run spec `{spec}` (use latest, latest-N, or a key prefix)")
                })?,
            };
            if index.len() <= back {
                return Err(format!(
                    "ledger has {} save(s); `{spec}` needs at least {}",
                    index.len(),
                    back + 1
                ));
            }
            return Ok(index[index.len() - 1 - back].key.clone());
        }
        if spec.len() < 4 || !is_hex_key(spec) {
            return Err(format!(
                "bad run spec `{spec}`: use latest, latest-N, or a key prefix of >= 4 hex chars"
            ));
        }
        let mut matches: Vec<&str> = index
            .iter()
            .map(|e| e.key.as_str())
            .filter(|k| k.starts_with(spec))
            .collect();
        matches.dedup();
        match matches.len() {
            0 if self.contains(spec) => Ok(spec.to_string()),
            0 => Err(format!("no archived run matches `{spec}`")),
            1 => Ok(matches[0].to_string()),
            n => Err(format!(
                "key prefix `{spec}` is ambiguous ({n} matches): {}",
                matches
                    .iter()
                    .map(|k| short(k))
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    }

    /// The `mossim history` listing: newest first, optionally filtered
    /// by bench and/or scheduler, capped at `limit` rows.
    pub fn history_markdown(
        &self,
        bench: Option<&str>,
        sched: Option<&str>,
        limit: usize,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "| seq | key | kind | bench | sched | insts | git_rev | unix_time | cached |\n",
        );
        out.push_str("|---:|---|---|---|---|---:|---|---:|---|\n");
        let mut shown = 0usize;
        for e in self.index().iter().rev() {
            if bench.is_some_and(|b| b != e.bench) || sched.is_some_and(|s| s != e.sched) {
                continue;
            }
            if shown == limit {
                break;
            }
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                e.seq,
                short(&e.key),
                e.kind,
                e.bench,
                e.sched,
                e.insts,
                e.git_rev,
                e.unix_time,
                if e.cached { "yes" } else { "no" }
            );
            shown += 1;
        }
        if shown == 0 {
            out.push_str("| — | (no matching archived runs) | | | | | | | |\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RunRecord;
    use mos_sim::SimStats;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mos_ledger_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(key_fill: &str, bench: &str) -> RunRecord {
        RunRecord {
            schema: crate::key::SCHEMA_VERSION,
            key: key_fill.repeat(32),
            kind: "run".into(),
            bench: bench.into(),
            source: "bench".into(),
            sched: "mop-wor".into(),
            insts: 1000,
            seed: 42,
            git_rev: "abc1234".into(),
            unix_time: 1_786_000_000,
            host_cycles_per_sec: 1.0,
            cached: false,
            sched_kinds: Vec::new(),
            totals: RunRecord::totals_from_stats(&SimStats::default()),
            cpi: None,
            report: None,
        }
    }

    #[test]
    fn save_load_resolve_history() {
        let ledger = Ledger::open(temp_root("slrh"));
        let a = record("aa", "gzip");
        let b = record("bb", "gap");
        ledger.save(&a).unwrap();
        ledger.save(&b).unwrap();
        assert!(ledger.contains(&a.key));
        assert_eq!(ledger.load(&a.key).unwrap(), a);

        assert_eq!(ledger.resolve("latest").unwrap(), b.key);
        assert_eq!(ledger.resolve("latest-1").unwrap(), a.key);
        assert_eq!(ledger.resolve("aaaa").unwrap(), a.key);
        assert!(ledger.resolve("latest-2").is_err());
        assert!(ledger.resolve("zz").is_err());
        assert!(ledger.resolve("ffff").is_err());

        let history = ledger.history_markdown(None, None, 10);
        assert!(history.contains("| gzip |"));
        assert!(history.contains("| gap |"));
        let filtered = ledger.history_markdown(Some("gzip"), None, 10);
        assert!(filtered.contains("| gzip |"));
        assert!(!filtered.contains("| gap |"));
        let _ = std::fs::remove_dir_all(ledger.root());
    }

    #[test]
    fn resaving_a_key_appends_but_keeps_one_record() {
        let ledger = Ledger::open(temp_root("resave"));
        let a = record("cc", "gzip");
        assert!(!ledger.save(&a).unwrap().replaced);
        assert!(ledger.save(&a).unwrap().replaced, "the second save says so");
        assert_eq!(ledger.index().len(), 2);
        assert_eq!(ledger.index()[1].seq, 2);
        assert_eq!(
            ledger.resolve("latest").unwrap(),
            ledger.resolve("latest-1").unwrap()
        );
        assert!(!ledger.save(&record("cd", "gzip")).unwrap().replaced);
        let _ = std::fs::remove_dir_all(ledger.root());
    }

    #[test]
    fn concurrent_saves_number_the_index_one_to_n() {
        const N: usize = 8;
        let ledger = Ledger::open(temp_root("concurrent"));
        std::thread::scope(|s| {
            for i in 0..N {
                let ledger = &ledger;
                s.spawn(move || {
                    for _ in 0..4 {
                        ledger.save(&record(&format!("{i:02x}"), "gzip")).unwrap();
                    }
                });
            }
        });
        let seqs: Vec<u64> = ledger.index().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (1..=4 * N as u64).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(ledger.root());
    }

    /// A key that is not hex names no file: its index line is skipped like
    /// any malformed line, and `load` refuses it rather than slicing it or
    /// leaving the ledger root.
    #[test]
    fn non_hex_keys_are_skipped_and_refused() {
        let ledger = Ledger::open(temp_root("nonhex"));
        std::fs::create_dir_all(ledger.root()).unwrap();
        let line = |key: &str| {
            format!(
                r#"{{"key":"{key}","kind":"run","bench":"gzip","sched":"base","insts":1000,"git_rev":"abc1234","unix_time":1786000000}}"#
            )
        };
        let lines = [line("€abcdef"), line("../x"), line(""), line("aaaa")];
        std::fs::write(ledger.root().join("index.jsonl"), lines.join("\n")).unwrap();
        let keys: Vec<String> = ledger.index().into_iter().map(|e| e.key).collect();
        assert_eq!(keys, ["aaaa"]);
        assert_eq!(ledger.resolve("latest").unwrap(), "aaaa");
        for key in ["€abcdef", "../x", "", "aa/../bb"] {
            let err = ledger.load(key).unwrap_err();
            assert!(err.contains("not a hex string"), "{key}: {err}");
        }
        let _ = std::fs::remove_dir_all(ledger.root());
    }

    #[test]
    fn index_lines_from_older_builds_still_parse() {
        let ledger = Ledger::open(temp_root("older"));
        std::fs::create_dir_all(ledger.root()).unwrap();
        let old = r#"{"seq":7,"key":"aaaa","kind":"run","bench":"gzip","sched":"base","insts":1000,"git_rev":"abc1234","unix_time":1786000000,"cached":false}"#;
        std::fs::write(ledger.root().join("index.jsonl"), format!("{old}\n")).unwrap();
        ledger.save(&record("bb", "gap")).unwrap();
        let index = ledger.index();
        assert_eq!(index.len(), 2);
        assert_eq!((index[0].seq, index[0].bench.as_str()), (1, "gzip"));
        assert_eq!((index[1].seq, index[1].bench.as_str()), (2, "gap"));
        let _ = std::fs::remove_dir_all(ledger.root());
    }

    #[test]
    fn resave_replaces_the_record_whole_and_leaves_no_temp_file() {
        let ledger = Ledger::open(temp_root("atomic"));
        let mut a = record("ee", "gzip");
        ledger.save(&a).unwrap();
        a.unix_time += 1;
        let path = ledger.save(&a).unwrap().path;
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            RunRecord::parse(&text).unwrap(),
            a,
            "record is complete and current"
        );
        let shard: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(
            shard,
            vec![path.file_name().unwrap().to_owned()],
            "no temp file left"
        );
        let _ = std::fs::remove_dir_all(ledger.root());
    }

    #[test]
    fn cache_hit_index_lines_leave_the_record_untouched() {
        let ledger = Ledger::open(temp_root("hit"));
        let mut a = record("dd", "fig14");
        ledger.save(&a).unwrap();
        let before = std::fs::read(ledger.record_path(&a.key)).unwrap();
        a.cached = true;
        ledger.append_index(&a).unwrap();
        let after = std::fs::read(ledger.record_path(&a.key)).unwrap();
        assert_eq!(before, after);
        let index = ledger.index();
        assert_eq!(index.len(), 2);
        assert!(!index[0].cached);
        assert!(index[1].cached);
        let _ = std::fs::remove_dir_all(ledger.root());
    }
}

//! Persisted run records: everything one archived simulation carries.
//!
//! A [`RunRecord`] is the unit the ledger stores under a run's
//! content-addressed key: the run identity, provenance (code version,
//! wall-clock time, host throughput), the flat sim-side totals the
//! differ compares, the CPI stack when slot accounting was on, and —
//! when saved from `mossim report --save` — the full run-report JSON
//! document embedded verbatim. Serialization goes through
//! [`crate::json`]'s canonical renderer, so a record file re-rendered
//! after a parse is byte-identical.

use mos_core::{SlotCause, SlotCounts};
use mos_sim::{CpiStack, SimStats};

use crate::json::{self, Value};
use crate::key::{is_hex_key, SCHEMA_VERSION};

/// The CPI-stack section of a record: issue width plus per-cause slots.
#[derive(Debug, Clone, PartialEq)]
pub struct CpiSection {
    /// Machine issue width (slots per cycle).
    pub issue_width: u64,
    /// `(cause name, slots)` in [`SlotCause::ALL`] order.
    pub slots: Vec<(String, u64)>,
}

impl CpiSection {
    /// Capture a [`CpiStack`]'s counts.
    pub fn from_stack(stack: &CpiStack) -> CpiSection {
        CpiSection {
            issue_width: stack.issue_width,
            slots: SlotCause::ALL
                .iter()
                .map(|&c| (c.name().to_string(), stack.slots.get(c)))
                .collect(),
        }
    }

    /// Rebuild a [`CpiStack`] for differential rendering. `label`
    /// becomes the stack's scheduler column header.
    pub fn to_stack(&self, bench: &str, label: &str, cycles: u64, committed: u64) -> CpiStack {
        let mut slots = SlotCounts::default();
        for (name, n) in &self.slots {
            if let Some(&cause) = SlotCause::ALL.iter().find(|c| c.name() == name) {
                slots.add(cause, *n);
            }
        }
        CpiStack {
            bench: bench.to_string(),
            sched: label.to_string(),
            cycles,
            committed,
            issue_width: self.issue_width,
            slots,
        }
    }
}

/// One archived run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Record schema version ([`SCHEMA_VERSION`] at save time).
    pub schema: u32,
    /// Content-addressed key (64 hex chars).
    pub key: String,
    /// Record kind: `"run"`; older archives may also hold `"figure"` or
    /// `"rv_probe"`.
    pub kind: String,
    /// Workload name (benchmark / rv program / figure; older archives
    /// may also name a native assembly kernel).
    pub bench: String,
    /// Workload source: `"bench"`, `"rv"`, or `"sweep"`; older archives
    /// may also hold `"kernel"` (the removed `mossim --kernel`), and
    /// those records still load.
    pub source: String,
    /// Scheduler label (CLI vocabulary; `"all"` for sweeps).
    pub sched: String,
    /// Committed-instruction budget.
    pub insts: u64,
    /// Workload seed.
    pub seed: u64,
    /// Code version at save time (short git revision).
    pub git_rev: String,
    /// Save wall-clock time (Unix seconds).
    pub unix_time: u64,
    /// Host throughput of the archived run (simulated cycles per
    /// wall-clock second; advisory, never part of the key).
    pub host_cycles_per_sec: f64,
    /// Whether this record was served from the ledger instead of
    /// simulated (set on the figure-sweep cache hits of older archives).
    pub cached: bool,
    /// Scheduler kinds a sweep exercised (empty for single runs).
    pub sched_kinds: Vec<String>,
    /// Flat sim-side totals: `(metric name, value)` in a fixed order.
    pub totals: Vec<(String, f64)>,
    /// CPI stack, when slot accounting was enabled.
    pub cpi: Option<CpiSection>,
    /// Full `mossim report` JSON document, when saved from report mode.
    pub report: Option<Value>,
}

impl RunRecord {
    /// The flat totals a [`SimStats`] contributes to a record, in the
    /// order the differ displays them.
    pub fn totals_from_stats(stats: &SimStats) -> Vec<(String, f64)> {
        let u = |v: u64| v as f64;
        vec![
            ("cycles".into(), u(stats.cycles)),
            ("committed".into(), u(stats.committed)),
            ("ipc".into(), stats.ipc()),
            ("fetched".into(), u(stats.fetched)),
            ("wrong_path_fetched".into(), u(stats.wrong_path_fetched)),
            ("branches".into(), u(stats.branches)),
            ("mispredicts".into(), u(stats.mispredicts)),
            ("squashes".into(), u(stats.squashes)),
            ("loads".into(), u(stats.loads)),
            ("dl1_miss_rate".into(), stats.dl1_miss_rate()),
            ("stores".into(), u(stats.stores)),
            ("grouped_frac".into(), stats.grouped_frac()),
            ("mop_entries_issued".into(), u(stats.mop_entries_issued)),
            ("pointer_installs".into(), u(stats.pointers.0)),
            ("pointer_hits".into(), u(stats.pointer_hits)),
            ("issued_entries".into(), u(stats.queue.issued_entries)),
            ("issued_uops".into(), u(stats.queue.issued_uops)),
            ("load_replay_uops".into(), u(stats.queue.load_replay_uops)),
            ("mean_occupancy".into(), stats.queue.mean_occupancy()),
        ]
    }

    /// Value of a named total, if recorded.
    pub fn total(&self, name: &str) -> Option<f64> {
        self.totals.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The record as a JSON [`Value`] tree (canonical field order).
    pub fn to_value(&self) -> Value {
        let num = Value::Num;
        let s = |v: &str| Value::Str(v.to_string());
        let meta = Value::Obj(vec![
            ("bench".into(), s(&self.bench)),
            ("source".into(), s(&self.source)),
            ("sched".into(), s(&self.sched)),
            ("insts".into(), num(self.insts as f64)),
            ("seed".into(), num(self.seed as f64)),
        ]);
        let provenance = Value::Obj(vec![
            ("git_rev".into(), s(&self.git_rev)),
            ("unix_time".into(), num(self.unix_time as f64)),
            ("host_cycles_per_sec".into(), num(self.host_cycles_per_sec)),
            ("cached".into(), Value::Bool(self.cached)),
        ]);
        let totals = Value::Obj(
            self.totals
                .iter()
                .map(|(n, v)| (n.clone(), num(*v)))
                .collect(),
        );
        let cpi = match &self.cpi {
            Some(c) => Value::Obj(vec![
                ("issue_width".into(), num(c.issue_width as f64)),
                (
                    "causes".into(),
                    Value::Arr(
                        c.slots
                            .iter()
                            .map(|(name, n)| {
                                Value::Obj(vec![
                                    ("cause".into(), s(name)),
                                    ("slots".into(), num(*n as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            None => Value::Null,
        };
        Value::Obj(vec![
            ("schema".into(), num(self.schema as f64)),
            ("key".into(), s(&self.key)),
            ("kind".into(), s(&self.kind)),
            ("meta".into(), meta),
            ("provenance".into(), provenance),
            (
                "sched_kinds".into(),
                Value::Arr(self.sched_kinds.iter().map(|k| s(k)).collect()),
            ),
            ("totals".into(), totals),
            ("cpi".into(), cpi),
            ("report".into(), self.report.clone().unwrap_or(Value::Null)),
        ])
    }

    /// The record as one compact JSON document.
    pub fn to_json(&self) -> String {
        json::render(&self.to_value())
    }

    /// Parse a record document back. Rejects unknown schema versions.
    pub fn parse(text: &str) -> Result<RunRecord, String> {
        let v = json::parse(text)?;
        let schema = field_u64(&v, "schema")? as u32;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "record schema {schema} does not match supported schema {SCHEMA_VERSION}"
            ));
        }
        let meta = v.get("meta").ok_or("missing meta")?;
        let prov = v.get("provenance").ok_or("missing provenance")?;
        let totals = match v.get("totals") {
            Some(Value::Obj(pairs)) => pairs
                .iter()
                .map(|(n, t)| {
                    t.as_num()
                        .map(|x| (n.clone(), x))
                        .ok_or_else(|| format!("total `{n}` is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing totals object".into()),
        };
        let cpi = match v.get("cpi") {
            Some(Value::Null) | None => None,
            Some(c) => {
                let causes = c
                    .get("causes")
                    .and_then(Value::as_arr)
                    .ok_or("cpi without causes array")?;
                Some(CpiSection {
                    issue_width: field_u64(c, "issue_width")?,
                    slots: causes
                        .iter()
                        .map(|e| {
                            let name = e
                                .get("cause")
                                .and_then(Value::as_str)
                                .ok_or("cause without name")?;
                            let slots = field_u64(e, "slots")?;
                            Ok::<_, String>((name.to_string(), slots))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                })
            }
        };
        let sched_kinds = match v.get("sched_kinds") {
            Some(Value::Arr(items)) => items
                .iter()
                .filter_map(|i| i.as_str().map(str::to_string))
                .collect(),
            _ => Vec::new(),
        };
        let key = field_str(&v, "key")?;
        if !is_hex_key(&key) {
            return Err(format!("record key `{key}` is not a hex string"));
        }
        Ok(RunRecord {
            schema,
            key,
            kind: field_str(&v, "kind")?,
            bench: field_str(meta, "bench")?,
            source: field_str(meta, "source")?,
            sched: field_str(meta, "sched")?,
            insts: field_u64(meta, "insts")?,
            seed: field_u64(meta, "seed")?,
            git_rev: field_str(prov, "git_rev")?,
            unix_time: field_u64(prov, "unix_time")?,
            host_cycles_per_sec: prov
                .get("host_cycles_per_sec")
                .and_then(Value::as_num)
                .ok_or("provenance without host_cycles_per_sec")?,
            cached: matches!(prov.get("cached"), Some(Value::Bool(true))),
            sched_kinds,
            totals,
            cpi,
            report: match v.get("report") {
                Some(Value::Null) | None => None,
                Some(r) => Some(r.clone()),
            },
        })
    }
}

fn field_str(v: &Value, name: &str) -> Result<String, String> {
    v.get(name)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{name}`"))
}

fn field_u64(v: &Value, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(key: &str, cycles: u64) -> RunRecord {
        let stats = SimStats {
            cycles,
            committed: 900,
            fetched: 1200,
            branches: 100,
            mispredicts: 7,
            loads: 220,
            stores: 110,
            ..SimStats::default()
        };
        let mut slots = SlotCounts::default();
        slots.add(SlotCause::Useful, 900);
        slots.add(SlotCause::SchedLoop, 100);
        slots.add(SlotCause::Drained, 4 * cycles - 1000);
        RunRecord {
            schema: SCHEMA_VERSION,
            key: key.to_string(),
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
    fn json_round_trip_is_byte_identical() {
        let rec = sample("ab".repeat(32).as_str(), 1000);
        let once = rec.to_json();
        let back = RunRecord::parse(&once).expect("parses");
        assert_eq!(back, rec);
        assert_eq!(back.to_json(), once);
    }

    #[test]
    fn embedded_report_survives_round_trip() {
        let mut rec = sample("cd".repeat(32).as_str(), 1000);
        rec.report = Some(json::parse(r#"{"meta":{"bench":"gzip"},"series":null}"#).unwrap());
        let text = rec.to_json();
        let back = RunRecord::parse(&text).unwrap();
        assert_eq!(back.report, rec.report);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut rec = sample("ef".repeat(32).as_str(), 1000);
        rec.schema = SCHEMA_VERSION + 1;
        let err = RunRecord::parse(&rec.to_json()).unwrap_err();
        assert!(err.contains("schema"));
    }

    #[test]
    fn non_hex_key_is_rejected() {
        for key in ["../x", "€abcdef", ""] {
            let err = RunRecord::parse(&sample(key, 1000).to_json()).unwrap_err();
            assert!(err.contains("not a hex string"), "{key}: {err}");
        }
    }

    #[test]
    fn cpi_section_round_trips_through_stack() {
        let rec = sample("01".repeat(32).as_str(), 1000);
        let section = rec.cpi.as_ref().unwrap();
        let stack = section.to_stack("gzip", "mop-wor@abc", 1000, 900);
        assert_eq!(stack.slots.get(SlotCause::SchedLoop), 100);
        assert!(stack.check_conservation().is_ok());
        assert_eq!(CpiSection::from_stack(&stack).slots, section.slots);
    }
}

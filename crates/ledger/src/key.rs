//! Content-addressed run keys.
//!
//! A [`RunKey`] is a SHA-256 over a **canonical preimage**: a sorted
//! `name=value` listing of everything that determines a simulation's
//! sim-side results — the program digest (or, for the whole-figure
//! sweeps older archives may contain, the sweep identity), the canonicalized [`MachineConfig`], the
//! scheduler label, the run budget and seed, the ledger schema version,
//! and the code version (git revision). Two runs with equal keys are
//! byte-identical in every sim-derived statistic; that is the contract
//! the jobs-determinism tests enforce.
//!
//! Canonicalization sorts the preimage pairs by name, so the key is
//! stable under any reordering of how callers (or future struct
//! refactors) push the fields.

use std::fmt::Display;

use mos_isa::Program;
use mos_sim::MachineConfig;

use crate::sha;

/// Version of the ledger's key/record schema. Bump on any change to the
/// preimage vocabulary or the record layout; old records then simply
/// stop matching instead of being misread.
pub const SCHEMA_VERSION: u32 = 1;

/// A content-addressed run key: 64 lowercase hex characters.
pub type RunKey = String;

/// Canonical preimage under construction: named fields that will be
/// sorted and hashed into a [`RunKey`].
#[derive(Debug, Clone, Default)]
pub struct Preimage {
    pairs: Vec<(String, String)>,
}

impl Preimage {
    /// Empty preimage (carries the schema version only).
    pub fn new() -> Preimage {
        let mut p = Preimage { pairs: Vec::new() };
        p.push("schema", SCHEMA_VERSION);
        p
    }

    /// Add one named field. Order of calls does not affect the key.
    pub fn push(&mut self, name: &str, value: impl Display) {
        self.pairs.push((name.to_string(), value.to_string()));
    }

    /// The sorted `name=value` text the key hashes (one pair per line).
    pub fn canonical_text(&self) -> String {
        let mut pairs = self.pairs.clone();
        pairs.sort();
        let mut out = String::new();
        for (name, value) in &pairs {
            out.push_str(name);
            out.push('=');
            out.push_str(value);
            out.push('\n');
        }
        out
    }

    /// Hash the canonical text into a [`RunKey`].
    pub fn key(&self) -> RunKey {
        sha::hex_digest(self.canonical_text().as_bytes())
    }
}

/// Push every field of a [`MachineConfig`] onto `p`, prefixed `config.`.
/// Exhaustive by construction: destructuring binds each struct field by
/// name, so adding a field to any config struct breaks this function
/// until the new field is hashed (or explicitly ignored) — the key can
/// never silently miss a timing-relevant knob.
pub fn push_config(p: &mut Preimage, cfg: &MachineConfig) {
    let MachineConfig {
        fetch_width,
        commit_width,
        rob_entries,
        front_depth,
        extra_mop_stages,
        exec_offset,
        sched,
        branch,
        il1,
        dl1,
        l2,
        memory_latency,
        ideal_branch,
        ideal_memory,
    } = cfg;
    p.push("config.fetch_width", fetch_width);
    p.push("config.commit_width", commit_width);
    p.push("config.rob_entries", rob_entries);
    p.push("config.front_depth", front_depth);
    p.push("config.extra_mop_stages", extra_mop_stages);
    p.push("config.exec_offset", exec_offset);
    p.push("config.memory_latency", memory_latency);
    p.push("config.ideal_branch", ideal_branch);
    p.push("config.ideal_memory", ideal_memory);

    let mos_core::SchedConfig {
        kind,
        wakeup,
        queue_entries,
        issue_width,
        fu_counts,
        confirm_window,
        replay_penalty,
        load_sched_latency,
        mop,
    } = sched;
    p.push("config.sched.kind", format_args!("{kind:?}"));
    p.push("config.sched.wakeup", format_args!("{wakeup:?}"));
    p.push("config.sched.queue_entries", format_args!("{queue_entries:?}"));
    p.push("config.sched.issue_width", issue_width);
    p.push("config.sched.fu_counts", format_args!("{fu_counts:?}"));
    p.push("config.sched.confirm_window", confirm_window);
    p.push("config.sched.replay_penalty", replay_penalty);
    p.push("config.sched.load_sched_latency", load_sched_latency);

    let mos_core::MopConfig {
        max_mop_size,
        scope,
        cycle_detection,
        detection_delay,
        group_independent,
        last_arrival_filter,
    } = mop;
    p.push("config.mop.max_mop_size", max_mop_size);
    p.push("config.mop.scope", scope);
    p.push("config.mop.cycle_detection", format_args!("{cycle_detection:?}"));
    p.push("config.mop.detection_delay", detection_delay);
    p.push("config.mop.group_independent", group_independent);
    p.push("config.mop.last_arrival_filter", last_arrival_filter);

    p.push("config.branch", format_args!("{branch:?}"));
    p.push("config.il1", format_args!("{il1:?}"));
    p.push("config.dl1", format_args!("{dl1:?}"));
    p.push("config.l2", format_args!("{l2:?}"));
}

/// Digest of a static uop program: SHA-256 over its entry point and
/// every instruction's full field listing, independent of program name.
pub fn program_digest(program: &Program) -> String {
    let mut sha = sha::Sha256::new();
    sha.update(format!("entry={}\n", program.entry()).as_bytes());
    for (idx, inst) in program.iter() {
        sha.update(format!("{idx}:{inst:?}\n").as_bytes());
    }
    let digest = sha.finish();
    let mut out = String::with_capacity(64);
    for b in digest {
        use std::fmt::Write as _;
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Identity of one archivable run, before hashing.
#[derive(Debug, Clone)]
pub struct RunIdent<'a> {
    /// Record kind: `"run"` for single simulations. Older archives may
    /// also hold `"figure"` (whole figure sweeps) and `"rv_probe"` (an
    /// RV32 pairability probe); nothing saves those kinds any more.
    pub kind: &'a str,
    /// Workload name (benchmark / rv program / figure; older archives
    /// may also name a native assembly kernel).
    pub bench: &'a str,
    /// Workload source: `"bench"`, `"rv"`, or `"sweep"`; older archives
    /// may also hold `"kernel"` (the removed `mossim --kernel`), and
    /// those records still load.
    pub source: &'a str,
    /// Scheduler label (CLI vocabulary; `"all"` for sweeps).
    pub sched: &'a str,
    /// Committed-instruction budget.
    pub insts: u64,
    /// Workload seed.
    pub seed: u64,
    /// Program digest from [`program_digest`], or `"-"` when the
    /// program content is determined by the code version (archived
    /// figure sweeps generated their synthetic programs from in-repo
    /// constants).
    pub program_sha: &'a str,
    /// Code version (short git revision, `"unknown"` outside a repo).
    pub git_rev: &'a str,
}

/// Compute the content-addressed key for a run.
pub fn run_key(ident: &RunIdent<'_>, cfg: Option<&MachineConfig>) -> RunKey {
    let mut p = Preimage::new();
    p.push("kind", ident.kind);
    p.push("bench", ident.bench);
    p.push("source", ident.source);
    p.push("sched", ident.sched);
    p.push("insts", ident.insts);
    p.push("seed", ident.seed);
    p.push("program", ident.program_sha);
    p.push("git_rev", ident.git_rev);
    if let Some(cfg) = cfg {
        push_config(&mut p, cfg);
    }
    p.key()
}

/// Short display form of a key (first 12 hex characters).
pub fn short(key: &str) -> &str {
    &key[..key.len().min(12)]
}

/// The current checkout's short git revision, or `"unknown"` when git
/// is unavailable (e.g. an exported tarball).
pub fn git_short_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_stable_under_field_reordering() {
        let mut a = Preimage::new();
        a.push("bench", "gzip");
        a.push("sched", "mop-wor");
        a.push("insts", 100_000u64);
        let mut b = Preimage::new();
        b.push("insts", 100_000u64);
        b.push("bench", "gzip");
        b.push("sched", "mop-wor");
        assert_eq!(a.key(), b.key());
        assert_eq!(a.canonical_text(), b.canonical_text());
    }

    #[test]
    fn key_changes_with_any_field() {
        let ident = RunIdent {
            kind: "run",
            bench: "gzip",
            source: "bench",
            sched: "mop-wor",
            insts: 1000,
            seed: 42,
            program_sha: "-",
            git_rev: "abc1234",
        };
        let base = run_key(&ident, Some(&MachineConfig::base_32()));
        let other_cfg = run_key(&ident, Some(&MachineConfig::two_cycle_32()));
        assert_ne!(base, other_cfg);
        let mut moved = ident.clone();
        moved.seed = 43;
        assert_ne!(base, run_key(&moved, Some(&MachineConfig::base_32())));
        let mut rev = ident.clone();
        rev.git_rev = "def5678";
        assert_ne!(base, run_key(&rev, Some(&MachineConfig::base_32())));
        assert_eq!(base, run_key(&ident, Some(&MachineConfig::base_32())));
        assert_eq!(base.len(), 64);
    }

    #[test]
    fn config_canonicalization_sees_every_knob() {
        let mut cfg = MachineConfig::base_32();
        let mut p = Preimage::new();
        push_config(&mut p, &cfg);
        let before = p.key();
        cfg.sched.replay_penalty += 1;
        let mut q = Preimage::new();
        push_config(&mut q, &cfg);
        assert_ne!(before, q.key());
    }

    #[test]
    fn program_digest_ignores_name_but_not_code() {
        use mos_isa::{Program, Reg, StaticInst};
        let mut a = Program::new("one");
        a.push(StaticInst::addi(Reg::int(1), Reg::ZERO, 5));
        let mut b = Program::new("two");
        b.push(StaticInst::addi(Reg::int(1), Reg::ZERO, 5));
        assert_eq!(program_digest(&a), program_digest(&b));
        b.push(StaticInst::addi(Reg::int(2), Reg::int(1), 1));
        assert_ne!(program_digest(&a), program_digest(&b));
    }
}

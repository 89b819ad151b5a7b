//! Cross-run diffing with a noise-band verdict.
//!
//! Sim-side metrics (cycles, IPC, slot counts, …) are deterministic: the
//! same key must reproduce them bit-for-bit, so *any* sim-side delta
//! between two archived runs is real and reported as such. Host
//! throughput is the one advisory measurement — it moves with machine
//! load — so its delta is only flagged when it leaves a noise band
//! (default ±[`HOST_NOISE_BAND_PCT`]%), and even then it never makes a
//! diff "fail".

use std::fmt::Write as _;

use mos_sim::cpistack::compare_markdown;

use crate::json::fmt_num;
use crate::key::short;
use crate::record::RunRecord;

/// Default width of the host-throughput noise band, in percent.
pub const HOST_NOISE_BAND_PCT: f64 = 20.0;

/// Result of diffing two archived runs.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// The rendered side-by-side report.
    pub markdown: String,
    /// Number of sim-side metrics that differ (always real).
    pub sim_deltas: usize,
    /// Whether host throughput stayed inside the noise band.
    pub host_within_noise: bool,
}

fn delta_pct(a: f64, b: f64) -> Option<f64> {
    (a != 0.0).then(|| (b - a) / a * 100.0)
}

fn pct_cell(a: f64, b: f64) -> String {
    match delta_pct(a, b) {
        Some(p) => format!("{p:+.2}%"),
        None if b == 0.0 => "0.00%".to_string(),
        None => "n/a".to_string(),
    }
}

/// Diff two records: identity, sim-side totals, advisory host
/// throughput, and (when both carry one) a differential CPI stack.
/// `noise_pct` widens or narrows the host noise band.
pub fn diff(a: &RunRecord, b: &RunRecord, noise_pct: f64) -> DiffOutcome {
    let mut out = String::new();
    let la = format!("{}@{}", a.sched, short(&a.key));
    let lb = format!("{}@{}", b.sched, short(&b.key));

    let _ = writeln!(out, "# Run diff: {la} vs {lb}\n");
    out.push_str("| field | A | B |\n|---|---|---|\n");
    for (name, va, vb) in [
        ("key", short(&a.key).to_string(), short(&b.key).to_string()),
        ("kind", a.kind.clone(), b.kind.clone()),
        ("bench", a.bench.clone(), b.bench.clone()),
        ("sched", a.sched.clone(), b.sched.clone()),
        ("insts", a.insts.to_string(), b.insts.to_string()),
        ("seed", a.seed.to_string(), b.seed.to_string()),
        ("git_rev", a.git_rev.clone(), b.git_rev.clone()),
        (
            "unix_time",
            a.unix_time.to_string(),
            b.unix_time.to_string(),
        ),
        ("cached", a.cached.to_string(), b.cached.to_string()),
    ] {
        let _ = writeln!(out, "| {name} | {va} | {vb} |");
    }

    // Sim-side totals: union of both records' metric names, A's order
    // first so two same-shape records diff in a stable layout.
    let mut names: Vec<&str> = a.totals.iter().map(|(n, _)| n.as_str()).collect();
    for (n, _) in &b.totals {
        if !names.contains(&n.as_str()) {
            names.push(n);
        }
    }
    let mut sim_deltas = 0usize;
    out.push_str("\n## Sim-side metrics (deterministic — any delta is real)\n\n");
    out.push_str("| metric | A | B | delta |\n|---|---:|---:|---:|\n");
    for name in names {
        let va = a.total(name);
        let vb = b.total(name);
        let differs = va != vb;
        if differs {
            sim_deltas += 1;
        }
        let cell = |v: Option<f64>| v.map_or_else(|| "—".to_string(), fmt_num);
        let delta = match (va, vb) {
            (Some(x), Some(y)) if x == y => "=".to_string(),
            (Some(x), Some(y)) => pct_cell(x, y),
            _ => "only one side".to_string(),
        };
        let _ = writeln!(out, "| {name} | {} | {} | {delta} |", cell(va), cell(vb));
    }
    let verdict = if sim_deltas == 0 {
        "**Verdict: sim-identical** — no sim-side metric differs.".to_string()
    } else {
        format!("**Verdict: {sim_deltas} real sim-side delta(s).**")
    };
    let _ = writeln!(out, "\n{verdict}");

    // Host throughput: advisory only.
    let host_pct = delta_pct(a.host_cycles_per_sec, b.host_cycles_per_sec);
    let host_within_noise = host_pct.is_none_or(|p| p.abs() <= noise_pct);
    out.push_str("\n## Host throughput (advisory — machine-dependent)\n\n");
    let _ = writeln!(
        out,
        "| cycles/sec A | cycles/sec B | delta | noise band |\n|---:|---:|---:|---:|\n| {} | {} | {} | ±{noise_pct}% |",
        fmt_num(a.host_cycles_per_sec),
        fmt_num(b.host_cycles_per_sec),
        pct_cell(a.host_cycles_per_sec, b.host_cycles_per_sec),
    );
    let _ = writeln!(
        out,
        "\n{}",
        if host_within_noise {
            "Host delta is within the noise band; treat as measurement noise.".to_string()
        } else {
            format!(
                "Host delta exceeds the ±{noise_pct}% noise band — advisory only, but worth a fresh measurement."
            )
        }
    );

    // Differential CPI stack, when both sides archived one.
    if let (Some(ca), Some(cb)) = (&a.cpi, &b.cpi) {
        let cycles = |r: &RunRecord| r.total("cycles").unwrap_or(0.0) as u64;
        let committed = |r: &RunRecord| r.total("committed").unwrap_or(0.0) as u64;
        let stacks = [
            ca.to_stack(&a.bench, &la, cycles(a), committed(a)),
            cb.to_stack(&b.bench, &lb, cycles(b), committed(b)),
        ];
        out.push_str("\n## Differential CPI stack\n\n");
        out.push_str(&compare_markdown(&stacks));
    }

    DiffOutcome {
        markdown: out,
        sim_deltas,
        host_within_noise,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SCHEMA_VERSION;
    use crate::record::{CpiSection, RunRecord};
    use mos_core::{SlotCause, SlotCounts};
    use mos_sim::SimStats;

    fn record(cycles: u64, host: f64) -> RunRecord {
        let stats = SimStats {
            cycles,
            committed: 900,
            ..SimStats::default()
        };
        let mut slots = SlotCounts::default();
        slots.add(SlotCause::Useful, 900);
        slots.add(SlotCause::SchedLoop, 4 * cycles - 900);
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
    fn identical_sim_sides_are_sim_identical() {
        let a = record(1000, 650_000.0);
        let b = record(1000, 700_000.0); // host moved, sim did not
        let d = diff(&a, &b, HOST_NOISE_BAND_PCT);
        assert_eq!(d.sim_deltas, 0);
        assert!(d.host_within_noise);
        assert!(d.markdown.contains("sim-identical"));
        assert!(d.markdown.contains("Differential CPI stack"));
    }

    #[test]
    fn sim_deltas_are_counted_and_real() {
        let a = record(1000, 650_000.0);
        let b = record(1100, 650_000.0);
        let d = diff(&a, &b, HOST_NOISE_BAND_PCT);
        // cycles + ipc both moved.
        assert!(d.sim_deltas >= 2);
        assert!(d.markdown.contains("real sim-side delta"));
    }

    #[test]
    fn host_noise_band_is_advisory() {
        let a = record(1000, 650_000.0);
        let b = record(1000, 100_000.0);
        let d = diff(&a, &b, HOST_NOISE_BAND_PCT);
        assert_eq!(d.sim_deltas, 0);
        assert!(!d.host_within_noise);
        assert!(d.markdown.contains("exceeds"));
        let wide = diff(&a, &b, 1000.0);
        assert!(wide.host_within_noise);
    }
}

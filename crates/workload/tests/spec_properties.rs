//! Measured properties of every synthetic benchmark model: the knobs a
//! spec declares must actually manifest in the generated traces.

use std::collections::HashMap;

use mos_isa::{InstClass, Reg, TraceSource};
use mos_workload::spec2000;

const N: usize = 60_000;

fn class_fracs(name: &str) -> HashMap<InstClass, f64> {
    let spec = spec2000::by_name(name).expect("known benchmark");
    let mut t = spec.trace(42);
    let p = t.program().clone();
    let mut counts: HashMap<InstClass, usize> = HashMap::new();
    for d in t.by_ref().take(N) {
        *counts
            .entry(p.inst(d.sidx).expect("valid").class())
            .or_default() += 1;
    }
    counts
        .into_iter()
        .map(|(k, v)| (k, v as f64 / N as f64))
        .collect()
}

#[test]
fn every_spec_tracks_its_declared_mix() {
    for spec in spec2000::all() {
        let f = class_fracs(spec.name);
        let load = f.get(&InstClass::Load).copied().unwrap_or(0.0);
        let store = f.get(&InstClass::Store).copied().unwrap_or(0.0);
        let branch = f.get(&InstClass::CondBranch).copied().unwrap_or(0.0);
        assert!(
            (load - spec.mix.load).abs() < 0.08,
            "{}: load {:.3} vs declared {:.3}",
            spec.name,
            load,
            spec.mix.load
        );
        assert!(
            (store - spec.mix.store).abs() < 0.06,
            "{}: store {:.3} vs declared {:.3}",
            spec.name,
            store,
            spec.mix.store
        );
        assert!(
            (branch - spec.mix.branch).abs() < 0.06,
            "{}: branch {:.3} vs declared {:.3}",
            spec.name,
            branch,
            spec.mix.branch
        );
    }
}

#[test]
fn valuegen_fraction_matches_figure6_header() {
    let paper = [
        ("bzip", 49.2),
        ("crafty", 50.9),
        ("eon", 27.8),
        ("gap", 48.7),
        ("gcc", 37.4),
        ("gzip", 56.3),
        ("mcf", 40.2),
        ("parser", 47.5),
        ("perl", 42.7),
        ("twolf", 47.7),
        ("vortex", 37.6),
        ("vpr", 44.7),
    ];
    for (name, pct) in paper {
        let spec = spec2000::by_name(name).expect("known");
        let mut t = spec.trace(42);
        let p = t.program().clone();
        let vg = t
            .by_ref()
            .take(N)
            .filter(|d| {
                p.inst(d.sidx)
                    .expect("valid")
                    .is_value_generating_candidate()
            })
            .count() as f64
            / N as f64;
        assert!(
            (100.0 * vg - pct).abs() < 8.0,
            "{name}: measured {:.1}% vs paper {pct}%",
            100.0 * vg
        );
    }
}

/// Mean dependence depth of 128-instruction windows (the ROB size): what
/// an out-of-order core can actually see. `edge_floor` = 1 models atomic
/// scheduling, 2 models the pipelined 2-cycle loop.
fn mean_window_depth(name: &str, edge_floor: u64) -> f64 {
    let spec = spec2000::by_name(name).expect("known");
    let mut t = spec.trace(42);
    let p = t.program().clone();
    let insts: Vec<_> = t.by_ref().take(30_000).collect();
    let window = 128;
    let mut sum = 0.0;
    let mut count = 0;
    for start in (0..insts.len().saturating_sub(window)).step_by(64) {
        let mut lw: HashMap<Reg, (usize, InstClass)> = HashMap::new();
        let mut done = vec![0u64; window];
        for (k, d) in insts[start..start + window].iter().enumerate() {
            let inst = p.inst(d.sidx).expect("valid");
            let mut r = 0u64;
            for s in inst.src_regs() {
                if let Some(&(w, cls)) = lw.get(&s) {
                    let lat = match cls {
                        InstClass::Load => 3,
                        c => u64::from(c.exec_latency()),
                    };
                    r = r.max(done[w] + lat.max(edge_floor));
                }
            }
            done[k] = r;
            if let Some(dst) = inst.dst() {
                lw.insert(dst, (k, inst.class()));
            }
        }
        sum += *done.iter().max().expect("nonempty") as f64;
        count += 1;
    }
    sum / count as f64
}

#[test]
fn window_scale_chains_make_sensitive_specs_scheduler_bound() {
    // A 4-wide machine needs 32 cycles for a 128-instruction window; the
    // scheduler-sensitive five must have window dependence depths on that
    // order, and doubling single-cycle edges must bite them hard.
    for name in ["gap", "gzip", "parser", "twolf", "vpr"] {
        let d1 = mean_window_depth(name, 1);
        let d2 = mean_window_depth(name, 2);
        assert!(d1 > 20.0, "{name}: window depth {d1:.1} too shallow");
        assert!(
            d2 / d1 > 1.5,
            "{name}: 2-cycle edges must deepen the window ({d1:.1} -> {d2:.1})"
        );
    }
    // The insensitive extremes are shallower relative to gap.
    let gap = mean_window_depth("gap", 1);
    for name in ["vortex", "eon"] {
        let d = mean_window_depth(name, 1);
        assert!(
            d < gap * 1.1,
            "{name}: window depth {d:.1} should not exceed gap's {gap:.1}"
        );
    }
}

#[test]
fn mispredict_sensitive_branch_mix() {
    // Specs with more random branches must have more unpredictable
    // branch streams: estimate via outcome entropy of repeated branches.
    let wobble = |name: &str| {
        let spec = spec2000::by_name(name).expect("known");
        let mut t = spec.trace(42);
        let p = t.program().clone();
        let mut flips: HashMap<u32, (u64, u64)> = HashMap::new(); // (changes, total)
        let mut last: HashMap<u32, bool> = HashMap::new();
        for d in t.by_ref().take(N) {
            if p.inst(d.sidx).expect("valid").is_cond_branch() {
                let e = flips.entry(d.sidx).or_default();
                if let Some(&prev) = last.get(&d.sidx) {
                    e.1 += 1;
                    if prev != d.taken {
                        e.0 += 1;
                    }
                }
                last.insert(d.sidx, d.taken);
            }
        }
        let (c, t): (u64, u64) = flips.values().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        c as f64 / t.max(1) as f64
    };
    let crafty = wobble("crafty");
    let gap = wobble("gap");
    assert!(
        crafty > gap,
        "crafty ({crafty:.3}) must flip outcomes more than gap ({gap:.3})"
    );
}

#[test]
fn memory_footprints_scale_with_working_set() {
    let distinct_lines = |name: &str| {
        let spec = spec2000::by_name(name).expect("known");
        let mut t = spec.trace(42);
        let mut lines = std::collections::HashSet::new();
        for d in t.by_ref().take(N) {
            if let Some(a) = d.eff_addr {
                lines.insert(a & !63);
            }
        }
        lines.len()
    };
    let mcf = distinct_lines("mcf");
    let gzip = distinct_lines("gzip");
    assert!(
        mcf > gzip * 4,
        "mcf ({mcf} lines) must roam far more memory than gzip ({gzip})"
    );
}

#[test]
fn different_seeds_give_different_but_valid_traces() {
    let spec = spec2000::by_name("perl").expect("known");
    let a: Vec<_> = spec.trace(1).take(2_000).collect();
    let b: Vec<_> = spec.trace(2).take(2_000).collect();
    assert_ne!(a, b, "different seeds must differ");
    // But the static program for a given seed is shared by its walks.
    let prog = spec.build(7);
    let w1: Vec<_> = prog.walk(1).take(500).collect();
    let w2: Vec<_> = prog.walk(1).take(500).collect();
    assert_eq!(w1, w2);
}

//! The twelve synthetic SPEC CINT2000 benchmark models (Table 2 of the
//! paper), each calibrated to the per-benchmark characteristics the
//! paper's mechanisms react to. See DESIGN.md for the substitution
//! rationale and EXPERIMENTS.md for paper-vs-measured comparisons.

use crate::synth::{SynthTrace, SyntheticProgram};

/// Instruction-mix fractions of committed instructions; the remainder
/// after all named classes is single-cycle integer ALU work — i.e. the
/// value-generating MOP-candidate fraction of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Integer loads.
    pub load: f64,
    /// Integer stores.
    pub store: f64,
    /// Conditional branches.
    pub branch: f64,
    /// Integer multiplies (3-cycle).
    pub mul: f64,
    /// Integer divides (20-cycle).
    pub div: f64,
    /// Floating-point operations (2/4-cycle mix).
    pub fp: f64,
    /// Leaf-function calls (candidates that write the return address).
    pub call: f64,
}

impl Mix {
    /// ALU fraction implied by the named classes (the remainder).
    pub fn alu(&self) -> f64 {
        1.0 - (self.load + self.store + self.branch + self.mul + self.div + self.fp + self.call)
    }
}

/// The dependence-distance model: a consumer reads a producer `d`
/// instructions earlier, with `d` drawn from a short geometric component
/// (probability `short_frac`, success rate `geo_p`, offset 1) and a long
/// uniform tail over `8..=long_max` otherwise. Short-dominated specs (gap)
/// reproduce Figure 6's short bars; tail-heavy specs (vortex) its long
/// ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceModel {
    /// Probability the edge is short (geometric).
    pub short_frac: f64,
    /// Geometric success probability; mean short distance ≈ `1/geo_p`.
    pub geo_p: f64,
    /// Upper bound of the uniform long tail (inclusive).
    pub long_max: u32,
}

/// A synthetic benchmark model.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name (SPEC CINT2000).
    pub name: &'static str,
    /// Static loop-body length in instructions.
    pub body_len: usize,
    /// Instruction mix.
    pub mix: Mix,
    /// Dependence-distance model.
    pub distance: DistanceModel,
    /// Fraction of conditional branches with data-dependent (Bernoulli)
    /// outcomes the predictor cannot learn; the rest follow short repeating
    /// patterns that gshare captures.
    pub random_branch_frac: f64,
    /// Taken probability of the random branches.
    pub random_taken_prob: f64,
    /// Memory working-set size in bytes (drives DL1/L2 miss rates).
    pub working_set: u64,
    /// Fraction of memory operations that stream with a fixed stride; the
    /// rest scatter uniformly (pointer chasing).
    pub stride_frac: f64,
    /// Fraction of memory slots confined to a small hot region (stack
    /// frames, hot structures) rather than roaming the full working set;
    /// the main DL1 miss-rate lever.
    pub hot_frac: f64,
    /// Probability an ALU operation's chained source stays on the
    /// single-cycle ALU spine rather than joining a load/multiply result.
    /// High purity makes the workload scheduling-loop-bound (gap); low
    /// purity hides the loop behind multi-cycle latencies (vortex).
    pub chain_purity: f64,
    /// Inner-loop trip count (the body's back edge is taken
    /// `trip - 1` out of `trip` times).
    pub inner_trip: u32,
}

impl WorkloadSpec {
    /// Build the static program for this spec, deterministically from
    /// `seed`.
    pub fn build(&self, seed: u64) -> SyntheticProgram {
        SyntheticProgram::generate(self, seed)
    }

    /// Build the program and return a committed-path trace source over it
    /// (program and walk both derived deterministically from `seed`).
    pub fn trace(&self, seed: u64) -> SynthTrace {
        self.build(seed).walk(seed ^ 0x9e37_79b9_7f4a_7c15)
    }
}

macro_rules! spec {
    ($name:literal, body=$body:expr, load=$load:expr, store=$store:expr, br=$br:expr,
     mul=$mul:expr, div=$div:expr, fp=$fp:expr, call=$call:expr,
     short=$short:expr, geo=$geo:expr, longmax=$longmax:expr,
     randbr=$randbr:expr, takenp=$takenp:expr, ws=$ws:expr, stride=$stride:expr,
     hot=$hot:expr, purity=$purity:expr, trip=$trip:expr) => {
        WorkloadSpec {
            name: $name,
            body_len: $body,
            mix: Mix {
                load: $load,
                store: $store,
                branch: $br,
                mul: $mul,
                div: $div,
                fp: $fp,
                call: $call,
            },
            distance: DistanceModel {
                short_frac: $short,
                geo_p: $geo,
                long_max: $longmax,
            },
            random_branch_frac: $randbr,
            random_taken_prob: $takenp,
            working_set: $ws,
            stride_frac: $stride,
            hot_frac: $hot,
            chain_purity: $purity,
            inner_trip: $trip,
        }
    };
}

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// The twelve benchmark models. Calibration targets (paper):
/// value-generating candidates % of committed instructions = Figure 6's
/// header row; dependence distances per Figure 6's bars; base IPC near
/// Table 2.
pub fn all() -> Vec<WorkloadSpec> {
    // In each entry the named classes sum to 1 - valuegen target, so that
    // alu + call = Figure 6's value-generating candidate fraction.
    vec![
        // bzip: 49.2 % valuegen; compression loops, modest working set.
        spec!(
            "bzip",
            body = 160,
            load = 0.25,
            store = 0.10,
            br = 0.145,
            mul = 0.013,
            div = 0.0,
            fp = 0.0,
            call = 0.028,
            short = 0.78,
            geo = 0.40,
            longmax = 32,
            randbr = 0.12,
            takenp = 0.35,
            ws = 256 * KB,
            stride = 0.75,
            hot = 0.9,
            purity = 0.8,
            trip = 24
        ),
        // crafty: 50.9 %; chess eval, branchy with bit tricks.
        spec!(
            "crafty",
            body = 192,
            load = 0.24,
            store = 0.08,
            br = 0.155,
            mul = 0.013,
            div = 0.003,
            fp = 0.0,
            call = 0.035,
            short = 0.75,
            geo = 0.38,
            longmax = 36,
            randbr = 0.14,
            takenp = 0.40,
            ws = 96 * KB,
            stride = 0.55,
            hot = 0.9,
            purity = 0.85,
            trip = 16
        ),
        // eon: only 27.8 % valuegen — FP-heavy C++ ray tracer, high ILP.
        spec!(
            "eon",
            body = 176,
            load = 0.24,
            store = 0.13,
            br = 0.10,
            mul = 0.012,
            div = 0.0,
            fp = 0.24,
            call = 0.045,
            short = 0.55,
            geo = 0.30,
            longmax = 40,
            randbr = 0.08,
            takenp = 0.30,
            ws = 64 * KB,
            stride = 0.80,
            hot = 0.88,
            purity = 0.7,
            trip = 20
        ),
        // gap: 48.7 %; very short dependence edges (87 % of pairs within
        // 8 insts) — the worst case for 2-cycle scheduling (-19.1 %).
        spec!(
            "gap",
            body = 168,
            load = 0.3,
            store = 0.11,
            br = 0.06,
            mul = 0.04,
            div = 0.003,
            fp = 0.0,
            call = 0.03,
            short = 0.95,
            geo = 0.7,
            longmax = 24,
            randbr = 0.02,
            takenp = 0.3,
            ws = 192 * KB,
            stride = 0.95,
            hot = 0.995,
            purity = 0.97,
            trip = 28
        ),
        // gcc: 37.4 %; big instruction footprint, mixed distances.
        spec!(
            "gcc",
            body = 320,
            load = 0.27,
            store = 0.13,
            br = 0.19,
            mul = 0.026,
            div = 0.0,
            fp = 0.01,
            call = 0.04,
            short = 0.68,
            geo = 0.34,
            longmax = 40,
            randbr = 0.16,
            takenp = 0.38,
            ws = 512 * KB,
            stride = 0.50,
            hot = 0.8,
            purity = 0.8,
            trip = 10
        ),
        // gzip: 56.3 % — the highest candidate fraction, short edges.
        spec!(
            "gzip",
            body = 136,
            load = 0.21,
            store = 0.08,
            br = 0.135,
            mul = 0.012,
            div = 0.0,
            fp = 0.0,
            call = 0.02,
            short = 0.9,
            geo = 0.6,
            longmax = 28,
            randbr = 0.04,
            takenp = 0.32,
            ws = 128 * KB,
            stride = 0.75,
            hot = 0.99,
            purity = 0.93,
            trip = 32
        ),
        // mcf: 40.2 %; pointer chasing over a working set far beyond L2 —
        // Table 2's 0.34 IPC comes from memory, not the scheduler.
        spec!(
            "mcf",
            body = 128,
            load = 0.31,
            store = 0.09,
            br = 0.19,
            mul = 0.008,
            div = 0.0,
            fp = 0.0,
            call = 0.015,
            short = 0.72,
            geo = 0.40,
            longmax = 28,
            randbr = 0.1,
            takenp = 0.30,
            ws = 8 * MB,
            stride = 0.10,
            hot = 0.42,
            purity = 0.72,
            trip = 40
        ),
        // parser: 47.5 %; short-ish edges, mid working set.
        spec!(
            "parser",
            body = 192,
            load = 0.28,
            store = 0.11,
            br = 0.11,
            mul = 0.025,
            div = 0.0,
            fp = 0.0,
            call = 0.035,
            short = 0.9,
            geo = 0.6,
            longmax = 32,
            randbr = 0.05,
            takenp = 0.36,
            ws = 320 * KB,
            stride = 0.45,
            hot = 0.98,
            purity = 0.9,
            trip = 14
        ),
        // perl: 42.7 %; interpreter dispatch, mixed.
        spec!(
            "perl",
            body = 224,
            load = 0.28,
            store = 0.12,
            br = 0.14,
            mul = 0.013,
            div = 0.0,
            fp = 0.0,
            call = 0.05,
            short = 0.72,
            geo = 0.42,
            longmax = 36,
            randbr = 0.08,
            takenp = 0.38,
            ws = 192 * KB,
            stride = 0.55,
            hot = 0.94,
            purity = 0.82,
            trip = 12
        ),
        // twolf: 47.7 %; placement/routing loops.
        spec!(
            "twolf",
            body = 132,
            load = 0.27,
            store = 0.11,
            br = 0.1,
            mul = 0.03,
            div = 0.003,
            fp = 0.02,
            call = 0.025,
            short = 0.9,
            geo = 0.6,
            longmax = 32,
            randbr = 0.05,
            takenp = 0.34,
            ws = 256 * KB,
            stride = 0.50,
            hot = 0.98,
            purity = 0.9,
            trip = 18
        ),
        // vortex: 37.6 %; the longest dependence edges (only 54 % of
        // pairs within 8 insts) — 2-cycle scheduling barely hurts (-1.3 %).
        spec!(
            "vortex",
            body = 288,
            load = 0.28,
            store = 0.15,
            br = 0.17,
            mul = 0.014,
            div = 0.0,
            fp = 0.01,
            call = 0.05,
            short = 0.48,
            geo = 0.28,
            longmax = 44,
            randbr = 0.1,
            takenp = 0.30,
            ws = 448 * KB,
            stride = 0.60,
            hot = 0.75,
            purity = 0.7,
            trip = 12
        ),
        // vpr: 44.7 %; FPGA place & route, slight FP.
        spec!(
            "vpr",
            body = 176,
            load = 0.25,
            store = 0.10,
            br = 0.14,
            mul = 0.013,
            div = 0.0,
            fp = 0.05,
            call = 0.03,
            short = 0.85,
            geo = 0.5,
            longmax = 32,
            randbr = 0.06,
            takenp = 0.34,
            ws = 160 * KB,
            stride = 0.55,
            hot = 0.95,
            purity = 0.92,
            trip = 20
        ),
    ]
}

/// Look a benchmark model up by name.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    all().into_iter().find(|s| s.name == name)
}

/// The benchmark names in the paper's presentation order.
pub fn names() -> Vec<&'static str> {
    all().iter().map(|s| s.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_benchmarks_in_paper_order() {
        let n = names();
        assert_eq!(
            n,
            vec![
                "bzip", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser", "perl", "twolf",
                "vortex", "vpr"
            ]
        );
    }

    #[test]
    fn mixes_are_sane() {
        for s in all() {
            let alu = s.mix.alu();
            assert!(alu > 0.2 && alu < 0.6, "{}: alu {alu}", s.name);
            let total = s.mix.load
                + s.mix.store
                + s.mix.branch
                + s.mix.mul
                + s.mix.div
                + s.mix.fp
                + s.mix.call
                + alu;
            assert!((total - 1.0).abs() < 1e-9, "{}", s.name);
        }
    }

    #[test]
    fn valuegen_fraction_tracks_figure6_header() {
        // Figure 6's `% total insts` per benchmark: value-generating
        // candidates = ALU + calls in our model.
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
            let s = by_name(name).unwrap();
            let vg = (s.mix.alu() + s.mix.call) * 100.0;
            assert!(
                (vg - pct).abs() < 3.0,
                "{name}: model {vg:.1}% vs paper {pct}%"
            );
        }
    }

    #[test]
    fn by_name_misses_unknown() {
        assert!(by_name("nosuch").is_none());
    }

    #[test]
    fn gap_is_shorter_than_vortex() {
        let gap = by_name("gap").unwrap();
        let vortex = by_name("vortex").unwrap();
        assert!(gap.distance.short_frac > vortex.distance.short_frac + 0.3);
    }
}

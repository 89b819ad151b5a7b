//! Figure 6: characterization of the dependence-edge distance between two
//! MOP candidate instructions.
//!
//! For every *value-generating candidate* (potential MOP head) in the
//! committed stream, find the nearest dependent **single-cycle candidate**
//! (potential MOP tail) and bucket the dynamic distance into 1–3, 4–7 or
//! 8+ instructions; heads whose dependents are all multi-cycle are
//! `not MOP candidate`, and heads whose value is overwritten unread are
//! `dynamically dead`. The measurement is machine-independent — a pure
//! trace analysis, as the paper notes — and is
//! [`mos_analysis::candidate_profile`]'s histogram in three buckets.

use std::fmt;

use mos_analysis::candidate_profile;
use mos_workload::spec2000;

/// Forward-scan horizon: consumers beyond this distance count toward the
/// terminal categories (the stacked bars' `8+` tail flattens out long
/// before this).
const HORIZON: usize = 64;

/// One benchmark's distance distribution (fractions of value-generating
/// candidates; the five categories sum to 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Benchmark name.
    pub bench: String,
    /// Value-generating candidates as a percentage of committed
    /// instructions (the figure's `% total insts` header).
    pub valuegen_pct: f64,
    /// Nearest candidate tail within 1–3 instructions.
    pub d1_3: f64,
    /// Within 4–7 instructions.
    pub d4_7: f64,
    /// 8 or more instructions away.
    pub d8_plus: f64,
    /// Dependents exist but none is a single-cycle candidate.
    pub not_candidate: f64,
    /// No dependent before the value is overwritten (dynamically dead).
    pub dead: f64,
}

/// The full Figure 6 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    /// Rows in the paper's benchmark order.
    pub rows: Vec<Fig6Row>,
}

/// Analyze one benchmark over `insts` committed instructions.
pub fn analyze_one(name: &str, insts: usize) -> Fig6Row {
    let spec = spec2000::by_name(name).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    let p = candidate_profile(spec.trace(crate::runner::SEED), insts, HORIZON);
    let tails = |d: &[u64]| d.iter().sum::<u64>();
    let h = &p.distance_histogram;
    let buckets = [
        tails(&h[1..4]),
        tails(&h[4..8]),
        tails(&h[8..]),
        p.no_candidate_tail,
        p.dead,
    ];
    let denom = buckets.iter().sum::<u64>().max(1) as f64;
    Fig6Row {
        bench: name.to_owned(),
        valuegen_pct: 100.0 * p.valuegen as f64 / p.total.max(1) as f64,
        d1_3: buckets[0] as f64 / denom,
        d4_7: buckets[1] as f64 / denom,
        d8_plus: buckets[2] as f64 / denom,
        not_candidate: buckets[3] as f64 / denom,
        dead: buckets[4] as f64 / denom,
    }
}

/// Run the full characterization over every benchmark.
pub fn run(insts: usize) -> Fig6Result {
    Fig6Result {
        rows: spec2000::names()
            .into_iter()
            .map(|n| analyze_one(n, insts))
            .collect(),
    }
}

impl fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6: dependence edge distance between two candidate instructions"
        )?;
        writeln!(
            f,
            "{:8} {:>7} | {:>6} {:>6} {:>6} {:>7} {:>6}  (% of value-generating candidates)",
            "bench", "%insts", "1-3", "4-7", "8+", "noncand", "dead"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:8} {:7.1} | {:6.1} {:6.1} {:6.1} {:7.1} {:6.1}",
                r.bench,
                r.valuegen_pct,
                100.0 * r.d1_3,
                100.0 * r.d4_7,
                100.0 * r.d8_plus,
                100.0 * r.not_candidate,
                100.0 * r.dead
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_sum_to_one() {
        let r = analyze_one("gzip", 20_000);
        let sum = r.d1_3 + r.d4_7 + r.d8_plus + r.not_candidate + r.dead;
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn valuegen_pct_tracks_paper_header() {
        // gzip 56.3 %, eon 27.8 % in the paper.
        let gzip = analyze_one("gzip", 30_000);
        assert!(
            (gzip.valuegen_pct - 56.3).abs() < 6.0,
            "{}",
            gzip.valuegen_pct
        );
        let eon = analyze_one("eon", 30_000);
        assert!(
            (eon.valuegen_pct - 27.8).abs() < 6.0,
            "{}",
            eon.valuegen_pct
        );
    }

    #[test]
    fn gap_is_short_vortex_is_long() {
        let gap = analyze_one("gap", 30_000);
        let vortex = analyze_one("vortex", 30_000);
        let gap_within8 = gap.d1_3 + gap.d4_7;
        let vortex_within8 = vortex.d1_3 + vortex.d4_7;
        assert!(
            gap_within8 > vortex_within8 + 0.15,
            "gap {gap_within8:.2} vs vortex {vortex_within8:.2}"
        );
    }
}

//! Macro-op groupability characterization over arbitrary traces — the
//! generalized form of the paper's Section 4 analyses, reusable for any
//! [`TraceSource`] (RV32 programs, synthetic models, recorded traces).

use mos_isa::{Reg, TraceSource};

/// Aggregate groupability profile of a trace window.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateProfile {
    /// Committed instructions examined.
    pub total: u64,
    /// Macro-op candidates (single-cycle operations).
    pub candidates: u64,
    /// Value-generating candidates (potential MOP heads).
    pub valuegen: u64,
    /// Histogram over head→nearest-tail distances, indexed by distance
    /// (1-based; index 0 unused, `horizon` the last bucket).
    pub distance_histogram: Vec<u64>,
    /// Heads whose dependents within the horizon are all multi-cycle.
    pub no_candidate_tail: u64,
    /// Heads that die unread, or are not read within the horizon.
    pub dead: u64,
}

impl CandidateProfile {
    /// Fraction of heads with a candidate tail within `d` instructions.
    pub fn within(&self, d: usize) -> f64 {
        let total = self.valuegen.max(1) as f64;
        let sum: u64 = self.distance_histogram.iter().take(d + 1).sum();
        sum as f64 / total
    }

    /// Fraction of committed instructions that are candidates.
    pub fn candidate_frac(&self) -> f64 {
        self.candidates as f64 / self.total.max(1) as f64
    }

    /// Fraction of committed instructions that are value-generating
    /// candidates (Figure 6's `% total insts`).
    pub fn valuegen_frac(&self) -> f64 {
        self.valuegen as f64 / self.total.max(1) as f64
    }
}

/// Characterize the first `n` committed instructions of `trace` with a
/// forward horizon of `horizon` instructions: a head still open
/// `horizon` instructions after it issued is closed as it stands (no
/// candidate tail found), so every counted distance is at most
/// `horizon`.
pub fn candidate_profile<T: TraceSource>(
    mut trace: T,
    n: usize,
    horizon: usize,
) -> CandidateProfile {
    let program = trace.program().clone();
    #[derive(Clone, Copy)]
    struct Head {
        pos: u64,
        any_consumer: bool,
        done: bool,
    }
    let mut last_writer: [Option<usize>; Reg::NUM] = [None; Reg::NUM];
    let mut heads: Vec<Head> = Vec::new();
    let mut profile = CandidateProfile {
        total: 0,
        candidates: 0,
        valuegen: 0,
        distance_histogram: vec![0; horizon + 1],
        no_candidate_tail: 0,
        dead: 0,
    };
    let close = |h: &Head, dist: Option<u64>, profile: &mut CandidateProfile| match dist {
        Some(d) => profile.distance_histogram[d as usize] += 1,
        None if h.any_consumer => profile.no_candidate_tail += 1,
        None => profile.dead += 1,
    };

    for (k, d) in trace.by_ref().take(n).enumerate() {
        let inst = program.inst(d.sidx).expect("trace index valid");
        profile.total += 1;
        if inst.is_mop_candidate() {
            profile.candidates += 1;
        }
        for src in inst.src_regs() {
            if let Some(hidx) = last_writer[src.index()] {
                let h = &mut heads[hidx];
                if !h.done {
                    h.any_consumer = true;
                    if inst.is_mop_candidate() {
                        h.done = true;
                        let dist = k as u64 - h.pos;
                        let hc = *h;
                        close(&hc, Some(dist), &mut profile);
                    }
                }
            }
        }
        if let Some(dst) = inst.dst() {
            if let Some(hidx) = last_writer[dst.index()].take() {
                if !heads[hidx].done {
                    heads[hidx].done = true;
                    let hc = heads[hidx];
                    close(&hc, None, &mut profile);
                }
            }
            if inst.is_value_generating_candidate() {
                profile.valuegen += 1;
                last_writer[dst.index()] = Some(heads.len());
                heads.push(Head {
                    pos: k as u64,
                    any_consumer: false,
                    done: false,
                });
            }
        }
        // Age out heads past the horizon (heads are in position order).
        if k >= horizon {
            let cutoff = (k - horizon) as u64;
            let aged = heads.iter_mut().take_while(|h| h.pos <= cutoff);
            for h in aged.filter(|h| !h.done) {
                h.done = true;
                let hc = *h;
                close(&hc, None, &mut profile);
            }
            // Drop the classified prefix now and then to bound memory;
            // writers pointing into it are closed heads, so forget them.
            if heads.len() > 4 * horizon {
                let done = heads.iter().take_while(|h| h.done).count();
                heads.drain(..done);
                for w in &mut last_writer {
                    *w = w.and_then(|i| i.checked_sub(done));
                }
            }
        }
    }
    for h in heads.iter().filter(|h| !h.done) {
        close(h, None, &mut profile);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use mos_rv::RvTraceSource;

    /// The profile of RV32 assembly `src` followed by an `ebreak`,
    /// looking `horizon` instructions ahead.
    fn profile_within(src: &str, horizon: usize) -> CandidateProfile {
        let prog = mos_rv::assemble("t", &format!("{src}\nebreak")).expect("assembles");
        candidate_profile(RvTraceSource::new(&prog).expect("lowers"), 100_000, horizon)
    }

    fn profile(src: &str) -> CandidateProfile {
        profile_within(src, 64)
    }

    #[test]
    fn adjacent_pair_is_distance_one() {
        let p = profile("li t0, 5\naddi t1, t0, 1");
        assert_eq!(p.valuegen, 2);
        assert_eq!(p.distance_histogram[1], 1, "li -> addi at distance 1");
        assert_eq!(p.dead, 1, "addi's value dies");
        assert!((p.within(3) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn load_consumer_is_not_a_tail() {
        let p = profile("li t0, 0x100\nlw t1, 0(t0)");
        assert_eq!(p.no_candidate_tail, 1, "only consumer is a load");
    }

    #[test]
    fn overwrite_kills_the_head() {
        let p = profile("li t0, 1\nli t0, 2\naddi t1, t0, 1");
        assert_eq!(p.dead, 2, "first li dies, addi's value dies");
        assert_eq!(p.distance_histogram[1], 1, "second li pairs with addi");
    }

    #[test]
    fn candidate_fractions_are_sane() {
        let p = profile("li t0, 0x100\nlw t1, 0(t0)\nmul t2, t1, t1\naddi t3, t2, 1");
        assert_eq!(p.total, 4);
        assert_eq!(p.candidates, 2, "li and addi");
        assert!((p.candidate_frac() - 0.5).abs() < 1e-9);
        assert!((p.valuegen_frac() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn a_tail_beyond_the_horizon_leaves_the_head_dead() {
        // x5's head at position 1; its only reader is 5 instructions on.
        let p = profile_within(
            "li x20, 0\nli x5, 5\nli x6, 0\nli x7, 0\nli x8, 0\nli x9, 0\naddi x10, x5, 1",
            4,
        );
        assert_eq!(p.valuegen, 7);
        assert_eq!(
            p.distance_histogram.iter().sum::<u64>(),
            0,
            "no tail within 4"
        );
        assert_eq!(p.dead, 7, "x5 aged out unread at distance 4");
    }

    #[test]
    fn totals_balance() {
        let p = profile(
            "    li t0, 2
             loop:
                 addi t1, t0, 3
                 slli t2, t1, 1
                 addi t0, t0, -1
                 bnez t0, loop",
        );
        let classified: u64 =
            p.distance_histogram.iter().sum::<u64>() + p.no_candidate_tail + p.dead;
        assert_eq!(classified, p.valuegen, "every head classified exactly once");
    }
}

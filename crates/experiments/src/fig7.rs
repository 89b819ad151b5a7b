//! Figure 7: characterization of instructions groupable into different
//! MOP sizes.
//!
//! Idealized greedy grouping over the committed stream within an
//! 8-instruction scope — no pipeline, no pointers, no cycle heuristic —
//! for two configurations: **2x MOP** (pairs only) and **8x MOP** (chains
//! extended as far as the scope allows). Reported per benchmark as
//! fractions of committed instructions: grouped value-generating
//! candidates, grouped non-value-generating candidates, candidates left
//! ungrouped, and non-candidates; plus the average number of instructions
//! per formed 8x MOP (the paper measures 2.2–3.0).

use std::collections::VecDeque;
use std::fmt;

use mos_isa::{Reg, TraceSource};
use mos_workload::spec2000;

/// Grouping outcome for one benchmark and MOP-size configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupingShare {
    /// Grouped value-generating candidates (fraction of committed).
    pub valuegen: f64,
    /// Grouped non-value-generating candidates.
    pub nonvaluegen: f64,
    /// Candidates that found no group.
    pub candidate_ungrouped: f64,
    /// Multi-cycle instructions (never candidates).
    pub not_candidate: f64,
    /// Mean instructions per formed MOP.
    pub avg_mop_size: f64,
}

/// One benchmark's row: 2x and 8x configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Benchmark name.
    pub bench: String,
    /// Pairs only.
    pub x2: GroupingShare,
    /// Chains up to 8.
    pub x8: GroupingShare,
}

/// The full Figure 7 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Rows in the paper's benchmark order.
    pub rows: Vec<Fig7Row>,
}

#[derive(Debug, Clone)]
struct WinInst {
    pos: u64,
    is_candidate: bool,
    is_valuegen: bool,
    dst: Option<Reg>,
    /// Window positions of direct producers.
    producers: Vec<u64>,
    /// Group this instruction joined, if any (position of group head).
    group: Option<u64>,
}

fn grouping(name: &str, insts: usize, max_size: usize) -> GroupingShare {
    const SCOPE: u64 = 8;
    let spec = spec2000::by_name(name).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    let mut trace = spec.trace(crate::runner::SEED);
    let program = trace.program().clone();

    let mut last_writer: [Option<u64>; Reg::NUM] = [None; Reg::NUM];
    let mut window: VecDeque<WinInst> = VecDeque::new();
    let mut counts = (0u64, 0u64, 0u64, 0u64); // vg, nvg, cand_ungrouped, notcand
    let mut mop_sizes: Vec<(u64, u64)> = Vec::new(); // (head pos, members)
    let mut total = 0u64;

    let retire = |w: &WinInst, counts: &mut (u64, u64, u64, u64)| {
        if !w.is_candidate {
            counts.3 += 1;
        } else if w.group.is_some() {
            if w.is_valuegen {
                counts.0 += 1;
            } else {
                counts.1 += 1;
            }
        } else {
            counts.2 += 1;
        }
    };

    for (k, d) in trace.by_ref().take(insts).enumerate() {
        let k = k as u64;
        let inst = program.inst(d.sidx).expect("trace sidx valid");
        total += 1;
        // Slide the window.
        while window.front().is_some_and(|w| w.pos + SCOPE <= k) {
            let w = window.pop_front().expect("nonempty");
            retire(&w, &mut counts);
        }
        let producers: Vec<u64> = inst
            .src_regs()
            .filter_map(|s| last_writer[s.index()])
            .filter(|&p| p + SCOPE > k)
            .collect();
        let mut wi = WinInst {
            pos: k,
            is_candidate: inst.is_mop_candidate(),
            is_valuegen: inst.is_value_generating_candidate(),
            dst: inst.dst(),
            producers,
            group: None,
        };
        // Greedy grouping: join the group of the nearest in-window
        // producer that can accept us.
        if wi.is_candidate {
            for &p in &wi.producers {
                let Some(prod) = window.iter().find(|w| w.pos == p) else {
                    continue;
                };
                // The producer itself must be a value-generating candidate
                // (head or chain member).
                if !prod.is_valuegen {
                    continue;
                }
                let head = prod.group.unwrap_or(prod.pos);
                // Scope is anchored at the group head.
                if head + SCOPE <= k {
                    continue;
                }
                let members = mop_sizes
                    .iter()
                    .find(|(h, _)| *h == head)
                    .map(|(_, m)| *m)
                    .unwrap_or(1);
                if members as usize >= max_size {
                    continue;
                }
                // The producer must be free (its own group = itself) or
                // the chain tail; greedy: any member may chain us as long
                // as size allows (idealized characterization).
                wi.group = Some(head);
                match mop_sizes.iter_mut().find(|(h, _)| *h == head) {
                    Some((_, m)) => *m += 1,
                    None => {
                        mop_sizes.push((head, 2));
                        // Mark the head itself as grouped.
                        if let Some(h) = window.iter_mut().find(|w| w.pos == head) {
                            h.group = Some(head);
                        }
                    }
                }
                break;
            }
        }
        if let Some(dst) = wi.dst {
            last_writer[dst.index()] = Some(k);
        }
        window.push_back(wi);
    }
    for w in window {
        retire(&w, &mut counts);
    }

    let t = total.max(1) as f64;
    let avg = if mop_sizes.is_empty() {
        0.0
    } else {
        mop_sizes.iter().map(|(_, m)| *m).sum::<u64>() as f64 / mop_sizes.len() as f64
    };
    GroupingShare {
        valuegen: counts.0 as f64 / t,
        nonvaluegen: counts.1 as f64 / t,
        candidate_ungrouped: counts.2 as f64 / t,
        not_candidate: counts.3 as f64 / t,
        avg_mop_size: avg,
    }
}

/// Analyze one benchmark.
pub fn analyze_one(name: &str, insts: usize) -> Fig7Row {
    Fig7Row {
        bench: name.to_owned(),
        x2: grouping(name, insts, 2),
        x8: grouping(name, insts, 8),
    }
}

/// Run the characterization over every benchmark.
pub fn run(insts: usize) -> Fig7Result {
    Fig7Result {
        rows: spec2000::names()
            .into_iter()
            .map(|n| analyze_one(n, insts))
            .collect(),
    }
}

impl GroupingShare {
    /// Total grouped fraction.
    pub fn grouped(&self) -> f64 {
        self.valuegen + self.nonvaluegen
    }
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7: instructions groupable into different MOP sizes"
        )?;
        writeln!(
            f,
            "{:8} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} {:>8}  (% of committed)",
            "bench", "2x-vg", "2x-nvg", "2x-tot", "8x-vg", "8x-nvg", "8x-tot", "avg8x"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:8} | {:6.1} {:6.1} {:6.1} | {:6.1} {:6.1} {:6.1} {:8.2}",
                r.bench,
                100.0 * r.x2.valuegen,
                100.0 * r.x2.nonvaluegen,
                100.0 * r.x2.grouped(),
                100.0 * r.x8.valuegen,
                100.0 * r.x8.nonvaluegen,
                100.0 * r.x8.grouped(),
                r.x8.avg_mop_size
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let r = analyze_one("parser", 15_000);
        for s in [r.x2, r.x8] {
            let sum = s.valuegen + s.nonvaluegen + s.candidate_ungrouped + s.not_candidate;
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        }
    }

    #[test]
    fn x8_groups_at_least_as_much_as_x2() {
        let r = analyze_one("gzip", 15_000);
        assert!(r.x8.grouped() >= r.x2.grouped() - 1e-9);
        assert!(r.x8.avg_mop_size >= 2.0);
        assert!(r.x2.avg_mop_size <= 2.0 + 1e-9);
    }

    #[test]
    fn grouped_share_is_substantial() {
        // Paper: 32.9 % (2x) / 35.4 % (8x) on average, 18.7 %..47.3 %.
        let r = analyze_one("gzip", 20_000);
        assert!(r.x2.grouped() > 0.25, "2x grouped {:.3}", r.x2.grouped());
        let eon = analyze_one("eon", 20_000);
        assert!(eon.x2.grouped() < r.x2.grouped(), "eon lowest in the paper");
    }

    #[test]
    fn avg_8x_size_in_paper_band() {
        // Paper: 2.2 .. 3.0 instructions per 8x MOP.
        let r = analyze_one("gap", 20_000);
        assert!(
            r.x8.avg_mop_size > 2.0 && r.x8.avg_mop_size < 4.0,
            "avg {:.2}",
            r.x8.avg_mop_size
        );
    }
}

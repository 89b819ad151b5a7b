//! Data-dependence-graph construction and path metrics.

use mos_isa::{InstClass, Reg, TraceSource};

/// Edge-latency model. The *wakeup floor* is the minimum dependents-visible
/// latency of any operation — 1 under atomic scheduling, 2 under the
/// paper's pipelined 2-cycle loop — so the same graph answers "what does
/// this workload's critical path look like under either scheduler".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCosts {
    /// Minimum dependence-edge latency in cycles.
    pub wakeup_floor: u64,
    /// Assumed load-to-use latency (address generation + DL1 hit).
    pub load_latency: u64,
}

impl EdgeCosts {
    /// Atomic (1-cycle) scheduling: edges cost their execution latency.
    pub fn atomic() -> EdgeCosts {
        EdgeCosts {
            wakeup_floor: 1,
            load_latency: 3,
        }
    }

    /// Pipelined 2-cycle scheduling: single-cycle edges stretch to 2.
    pub fn two_cycle() -> EdgeCosts {
        EdgeCosts {
            wakeup_floor: 2,
            load_latency: 3,
        }
    }

    /// Edge cost for a producer of the given class.
    pub fn cost(&self, producer: InstClass) -> u64 {
        let lat = match producer {
            InstClass::Load => self.load_latency,
            c => u64::from(c.exec_latency()),
        };
        lat.max(self.wakeup_floor)
    }
}

/// One node of the dependence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdgNode {
    /// Static instruction index.
    pub sidx: u32,
    /// Latency class.
    pub class: InstClass,
    /// Indices (into the trace window) of direct register producers.
    pub preds: Vec<usize>,
}

/// The data dependence graph of a committed-path trace window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ddg {
    nodes: Vec<DdgNode>,
}

impl Ddg {
    /// Build the graph from the first `n` committed instructions of a
    /// trace. Register dependences use last-writer semantics; the
    /// hard-wired zero register never carries an edge.
    pub fn from_trace<T: TraceSource>(mut trace: T, n: usize) -> Ddg {
        let program = trace.program().clone();
        let mut last_writer: [Option<usize>; Reg::NUM] = [None; Reg::NUM];
        let mut nodes = Vec::with_capacity(n.min(1 << 20));
        for (k, d) in trace.by_ref().take(n).enumerate() {
            let inst = program.inst(d.sidx).expect("trace index in program");
            let mut preds: Vec<usize> = inst
                .src_regs()
                .filter_map(|s| last_writer[s.index()])
                .collect();
            preds.sort_unstable();
            preds.dedup();
            nodes.push(DdgNode {
                sidx: d.sidx,
                class: inst.class(),
                preds,
            });
            if let Some(dst) = inst.dst() {
                last_writer[dst.index()] = Some(k);
            }
        }
        Ddg { nodes }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes, in program order.
    pub fn nodes(&self) -> &[DdgNode] {
        &self.nodes
    }

    /// Per-node completion depth under `costs` (longest dependence path
    /// ending at each node, inclusive of the producers' latencies).
    pub fn depths(&self, costs: EdgeCosts) -> Vec<u64> {
        let mut done = vec![0u64; self.nodes.len()];
        for (k, node) in self.nodes.iter().enumerate() {
            let mut r = 0;
            for &p in &node.preds {
                r = r.max(done[p] + costs.cost(self.nodes[p].class));
            }
            done[k] = r;
        }
        done
    }

    /// Critical-path length under `costs`.
    pub fn critical_path(&self, costs: EdgeCosts) -> u64 {
        self.depths(costs).into_iter().max().unwrap_or(0)
    }

    /// Mean dependence depth of sliding `window`-node sub-graphs (edges
    /// confined to the window), sampled every `stride` nodes — the
    /// chain depth an out-of-order core with a `window`-entry ROB
    /// actually contends with.
    pub fn mean_window_depth(&self, window: usize, stride: usize, costs: EdgeCosts) -> f64 {
        assert!(window > 0 && stride > 0);
        if self.nodes.len() < window {
            return self.critical_path(costs) as f64;
        }
        let mut sum = 0.0;
        let mut count = 0u64;
        let mut done = vec![0u64; window];
        for start in (0..=self.nodes.len() - window).step_by(stride) {
            let mut max = 0;
            for k in 0..window {
                let node = &self.nodes[start + k];
                let mut r = 0;
                for &p in &node.preds {
                    if p >= start {
                        r = r.max(done[p - start] + costs.cost(self.nodes[p].class));
                    }
                }
                done[k] = r;
                max = max.max(r);
            }
            sum += max as f64;
            count += 1;
        }
        sum / count as f64
    }

    /// Fraction of edges whose producer is a single-cycle operation —
    /// the edges a pipelined scheduling loop stretches.
    pub fn single_cycle_edge_frac(&self) -> f64 {
        let mut total = 0u64;
        let mut single = 0u64;
        for node in &self.nodes {
            for &p in &node.preds {
                total += 1;
                if self.nodes[p].class.is_single_cycle() {
                    single += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            single as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mos_rv::RvTraceSource;

    /// The graph of RV32 assembly `src` followed by an `ebreak`.
    fn ddg_of(src: &str) -> Ddg {
        let prog = mos_rv::assemble("t", &format!("{src}\nebreak")).expect("assembles");
        Ddg::from_trace(RvTraceSource::new(&prog).expect("lowers"), 100)
    }

    /// `li t0, 0` followed by `n` dependent increments of `t0`.
    fn chain(n: usize) -> String {
        format!("li t0, 0\n{}", "addi t0, t0, 1\n".repeat(n))
    }

    #[test]
    fn serial_chain_critical_path() {
        // 6 dependent adds: path = 5 edges (the first has no producer).
        let d = ddg_of(&chain(5));
        assert_eq!(d.len(), 6);
        assert_eq!(d.critical_path(EdgeCosts::atomic()), 5);
        assert_eq!(d.critical_path(EdgeCosts::two_cycle()), 10);
    }

    #[test]
    fn independent_work_has_flat_paths() {
        let d = ddg_of("li t0, 1\nli t1, 2\nli t2, 3\nli t3, 4");
        assert_eq!(d.critical_path(EdgeCosts::atomic()), 0);
    }

    #[test]
    fn load_edges_do_not_stretch_under_two_cycle() {
        let d = ddg_of("li t0, 0x100\nlw t1, 0(t0)\naddi t2, t1, 1");
        // li -> lw (1 or 2) then lw -> addi (3 either way).
        assert_eq!(d.critical_path(EdgeCosts::atomic()), 1 + 3);
        assert_eq!(d.critical_path(EdgeCosts::two_cycle()), 2 + 3);
    }

    #[test]
    fn depths_are_monotone_in_the_floor() {
        let d = ddg_of("li t0, 1\naddi t1, t0, 1\nlw t2, 0(t1)\naddi t3, t2, 1");
        let a = d.depths(EdgeCosts::atomic());
        let b = d.depths(EdgeCosts::two_cycle());
        for (x, y) in a.iter().zip(&b) {
            assert!(y >= x);
        }
    }

    #[test]
    fn window_depth_ignores_out_of_window_edges() {
        // A long serial chain: full-graph depth grows with length, but
        // a window of 4 sees at most 3 edges.
        let d = ddg_of(&chain(40));
        let w = d.mean_window_depth(4, 1, EdgeCosts::atomic());
        assert!(w <= 3.0 + 1e-9, "window depth {w}");
        assert!(w > 2.0, "window depth {w}");
    }

    #[test]
    fn single_cycle_edge_fraction() {
        let d = ddg_of("li t0, 0x100\nlw t1, 0(t0)\naddi t2, t1, 1\naddi t3, t2, 1");
        // Edges: li->lw (single-cycle producer), lw->addi (load), addi->addi (single).
        let f = d.single_cycle_edge_frac();
        assert!((f - 2.0 / 3.0).abs() < 1e-9, "{f}");
    }

    #[test]
    fn zero_register_carries_no_edges() {
        let d = ddg_of("li t0, 1\nadd t1, zero, zero");
        assert!(d.nodes()[1].preds.is_empty());
    }
}

//! Analytical schedule bounds and estimates for width/window-limited
//! machines.

use crate::ddg::{Ddg, EdgeCosts};

/// A resource model: issue width, in-flight window (ROB) and edge costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleModel {
    /// Instructions issued per cycle.
    pub width: usize,
    /// Maximum in-flight instructions (ROB size).
    pub window: usize,
    /// Edge-latency model.
    pub costs: EdgeCosts,
}

impl ScheduleModel {
    /// The paper's machine under atomic scheduling: 4-wide, 128-entry ROB.
    pub fn table1_atomic() -> ScheduleModel {
        ScheduleModel {
            width: 4,
            window: 128,
            costs: EdgeCosts::atomic(),
        }
    }

    /// The paper's machine under the pipelined 2-cycle loop.
    pub fn table1_two_cycle() -> ScheduleModel {
        ScheduleModel {
            width: 4,
            window: 128,
            costs: EdgeCosts::two_cycle(),
        }
    }

    /// A true lower bound on execution cycles: no machine of this width
    /// can beat `max(N / width, critical path)`. The cycle simulator's
    /// measured cycles must always be at least this.
    pub fn lower_bound_cycles(&self, ddg: &Ddg) -> u64 {
        let width_bound = ddg.len().div_ceil(self.width) as u64;
        width_bound.max(ddg.critical_path(self.costs))
    }

    /// Upper bound on achievable IPC (from [`Self::lower_bound_cycles`]).
    pub fn ipc_upper_bound(&self, ddg: &Ddg) -> f64 {
        let c = self.lower_bound_cycles(ddg);
        if c == 0 {
            self.width as f64
        } else {
            ddg.len() as f64 / c as f64
        }
    }

    /// Greedy schedule estimate: issue in dependence-and-resource order
    /// with at most `width` issues per cycle and at most `window`
    /// instructions in flight (an instruction may not issue until the
    /// instruction `window` places earlier has completed). An idealized
    /// machine — no fetch breaks, perfect predictions and caches — so it
    /// overestimates real IPC but tracks scheduler sensitivity.
    pub fn estimate_cycles(&self, ddg: &Ddg) -> u64 {
        let n = ddg.len();
        if n == 0 {
            return 0;
        }
        let nodes = ddg.nodes();
        let mut issue = vec![0u64; n];
        let mut complete = vec![0u64; n];
        // Earliest issue per dependences.
        let mut slot_base = 0u64; // current cycle candidate for in-order greedy fill
        let mut issued_in_cycle = 0usize;
        for k in 0..n {
            let mut ready = 0u64;
            for &p in &nodes[k].preds {
                ready = ready.max(issue[p] + self.costs.cost(nodes[p].class));
            }
            // Window: wait for the (k - window)-th completion.
            if k >= self.window {
                ready = ready.max(complete[k - self.window]);
            }
            // Width: pack greedily.
            let t = if ready > slot_base {
                issued_in_cycle = 0;
                ready
            } else {
                if issued_in_cycle >= self.width {
                    issued_in_cycle = 0;
                    slot_base + 1
                } else {
                    slot_base
                }
            };
            slot_base = t;
            issued_in_cycle += 1;
            issue[k] = t;
            complete[k] = t + self.costs.cost(nodes[k].class);
        }
        issue[n - 1] + 1
    }

    /// IPC from [`Self::estimate_cycles`].
    pub fn estimate_ipc(&self, ddg: &Ddg) -> f64 {
        let c = self.estimate_cycles(ddg);
        if c == 0 {
            0.0
        } else {
            ddg.len() as f64 / c as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mos_asm::Interpreter;
    use mos_isa::{Opcode, Program, Reg, StaticInst as I};
    use std::iter::once;

    fn r(n: u8) -> Reg {
        Reg::int(n)
    }

    /// The graph of `insts` followed by a `halt`.
    fn ddg_of(insts: impl IntoIterator<Item = I>) -> Ddg {
        let p = Program::from_insts("t", insts.into_iter().chain([I::halt()]));
        Ddg::from_trace(Interpreter::new(&p), 100_000)
    }

    #[test]
    fn width_bound_dominates_flat_graphs() {
        let d = ddg_of((1..=8).map(|k| I::li(r(k), i64::from(k))));
        let m = ScheduleModel::table1_atomic();
        assert_eq!(m.lower_bound_cycles(&d), 2, "8 insts / width 4");
        assert!((m.ipc_upper_bound(&d) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn chain_bound_dominates_serial_graphs() {
        let d = ddg_of(once(I::li(r(1), 0)).chain(vec![I::addi(r(1), r(1), 1); 50]));
        let atomic = ScheduleModel::table1_atomic();
        let two = ScheduleModel::table1_two_cycle();
        assert_eq!(atomic.lower_bound_cycles(&d), 50);
        assert_eq!(two.lower_bound_cycles(&d), 100);
        // The estimate respects the chain too.
        assert!(atomic.estimate_cycles(&d) >= 50);
        assert!(two.estimate_cycles(&d) >= 100);
    }

    #[test]
    fn estimate_never_beats_the_bound() {
        let d = ddg_of([
            I::li(r(1), 30),
            I::li(r(2), 0),
            I::add(r(2), r(2), r(1)), // 2: loop
            I::load(r(3), 0, r(2)),
            I::add(r(2), r(2), r(3)),
            I::addi(r(1), r(1), -1),
            I::branch(Opcode::Bnez, r(1), 2),
        ]);
        for m in [
            ScheduleModel::table1_atomic(),
            ScheduleModel::table1_two_cycle(),
        ] {
            assert!(m.estimate_cycles(&d) >= m.lower_bound_cycles(&d));
        }
    }

    #[test]
    fn window_limits_far_ahead_issue() {
        // Independent instructions, tiny window: issue rate still capped
        // by completion of older work... with 1-cycle ops the window never
        // binds, so use a long-latency producer stream.
        let d = ddg_of((0..16u8).map(|i| I::li(r(1 + i % 8), i64::from(i))));
        let narrow = ScheduleModel {
            width: 4,
            window: 4,
            costs: EdgeCosts::atomic(),
        };
        let wide = ScheduleModel {
            width: 4,
            window: 128,
            costs: EdgeCosts::atomic(),
        };
        assert!(narrow.estimate_cycles(&d) >= wide.estimate_cycles(&d));
    }

    #[test]
    fn empty_graph_is_trivial() {
        let d = ddg_of([]);
        let m = ScheduleModel::table1_atomic();
        assert_eq!(m.estimate_cycles(&d), 0);
        assert_eq!(m.lower_bound_cycles(&d), 0);
    }
}

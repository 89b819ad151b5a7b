//! Table 1 (machine configuration) and Table 2 (benchmarks and base
//! IPCs with 32-entry and unrestricted issue queues).

use std::fmt;

use mos_sim::MachineConfig;
use mos_workload::spec2000;

use crate::runner::Sweep;

/// Render Table 1: the machine configuration in the paper's format.
pub fn table1() -> String {
    let c = MachineConfig::base_32();
    let mut s = String::new();
    s.push_str("Table 1: machine configuration\n");
    s.push_str(&format!(
        "  Out-of-order:  {}-wide fetch/issue/commit, {}-entry ROB, {} issue queue,\n",
        c.fetch_width,
        c.rob_entries,
        match c.sched.queue_entries {
            Some(n) => format!("{n}-entry unified"),
            None => "unrestricted".into(),
        }
    ));
    s.push_str(&format!(
        "                 speculative scheduling with selective replay ({}-cycle penalty),\n",
        c.sched.replay_penalty
    ));
    s.push_str("                 fetch stops at first taken branch in a cycle\n");
    s.push_str(&format!(
        "  FUs (latency): {} int ALU (1), {} int MUL/DIV (3/20), {} FP ALU (2), {} FP MUL/DIV (4/24), {} mem ports\n",
        c.sched.fu_counts[0], c.sched.fu_counts[1], c.sched.fu_counts[2], c.sched.fu_counts[3], c.sched.fu_counts[4]
    ));
    s.push_str(&format!(
        "  Branch pred:   combined bimodal ({}k) / gshare ({}k) with selector ({}k),\n",
        c.branch.bimodal_entries / 1024,
        c.branch.gshare_entries / 1024,
        c.branch.selector_entries / 1024
    ));
    s.push_str(&format!(
        "                 {} RAS, {}-entry {}-way BTB, >=14 cycles misprediction recovery\n",
        c.branch.ras_depth, c.branch.btb_entries, c.branch.btb_ways
    ));
    s.push_str(&format!(
        "  Memory:        {}KB {}-way {}B IL1 ({}), {}KB {}-way {}B DL1 ({}), {}KB {}-way {}B L2 ({}), memory ({})\n",
        c.il1.size_bytes / 1024, c.il1.ways, c.il1.line_bytes, c.il1.hit_latency,
        c.dl1.size_bytes / 1024, c.dl1.ways, c.dl1.line_bytes, c.dl1.hit_latency,
        c.l2.size_bytes / 1024, c.l2.ways, c.l2.line_bytes, c.l2.hit_latency,
        c.memory_latency
    ));
    s.push_str(&format!(
        "  Pipeline:      13 stages (fetch 1 + front {} + sched 1 + disp/RF/exe {} + WB 1 + commit 1)\n",
        c.front_depth, c.exec_offset
    ));
    s
}

/// One Table 2 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark name.
    pub bench: String,
    /// Base IPC with the 32-entry issue queue.
    pub ipc_32: f64,
    /// Base IPC with the unrestricted issue queue.
    pub ipc_unrestricted: f64,
}

/// Table 2 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// Rows in the paper's benchmark order.
    pub rows: Vec<Table2Row>,
    /// Committed instructions simulated per configuration.
    pub insts: u64,
}

/// Run Table 2: base scheduling IPCs, 32-entry vs unrestricted queue.
pub fn table2(sweep: &Sweep) -> Table2Result {
    let benches = spec2000::names();
    let cfgs = [MachineConfig::base_32(), MachineConfig::base_unrestricted()];
    let rows = benches
        .iter()
        .zip(sweep.grid(&benches, &cfgs))
        .map(|(&name, s)| Table2Row {
            bench: name.to_owned(),
            ipc_32: s[0].ipc(),
            ipc_unrestricted: s[1].ipc(),
        })
        .collect();
    Table2Result {
        rows,
        insts: sweep.insts,
    }
}

impl fmt::Display for Table2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2: base IPC (32-entry / unrestricted issue queue), {} insts",
            self.insts
        )?;
        writeln!(f, "{:8} {:>8} {:>14}", "bench", "32-entry", "unrestricted")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:8} {:8.2} {:14.2}",
                r.bench, r.ipc_32, r.ipc_unrestricted
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_key_parameters() {
        let t = table1();
        assert!(t.contains("128-entry ROB"));
        assert!(t.contains("4 int ALU"));
        assert!(t.contains("16KB"));
        assert!(t.contains("13 stages"));
    }

    #[test]
    fn table2_unrestricted_no_worse() {
        let t = table2(&Sweep::new(8_000, crate::runner::default_jobs()));
        assert_eq!(t.rows.len(), 12);
        for r in &t.rows {
            assert!(
                r.ipc_unrestricted >= r.ipc_32 * 0.97,
                "{}: {:.2} vs {:.2}",
                r.bench,
                r.ipc_unrestricted,
                r.ipc_32
            );
        }
    }
}

//! Quickstart: simulate one benchmark under the three headline schedulers
//! and print what macro-op scheduling does.
//!
//! ```text
//! cargo run --release --example quickstart [bench] [insts]
//! ```

use mopsched::core::WakeupStyle;
use mopsched::sim::{MachineConfig, Simulator};
use mopsched::workload::spec2000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = args.first().map(String::as_str).unwrap_or("gzip");
    let insts: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100_000);

    let Some(spec) = spec2000::by_name(bench) else {
        eprintln!(
            "unknown benchmark `{bench}`; try one of {:?}",
            spec2000::names()
        );
        std::process::exit(1);
    };

    println!("benchmark `{bench}`, {insts} committed instructions, 32-entry issue queue\n");

    let mut base_ipc = 0.0;
    for (label, cfg) in [
        ("base (atomic scheduling)", MachineConfig::base_32()),
        ("2-cycle (pipelined sched)", MachineConfig::two_cycle_32()),
        (
            "macro-op (wired-OR, +1 stage)",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        ),
    ] {
        let stats = Simulator::new(cfg, spec.trace(42)).run(insts);
        if base_ipc == 0.0 {
            base_ipc = stats.ipc();
        }
        println!(
            "{label:30} IPC {:.3}  ({:5.1} % of base)",
            stats.ipc(),
            100.0 * stats.ipc() / base_ipc
        );
        if stats.grouped_frac() > 0.0 {
            println!(
                "{:30} -> {:.1} % of instructions grouped into MOPs,",
                "",
                100.0 * stats.grouped_frac()
            );
            println!(
                "{:30}    {} MOP entries issued, {:.1} % fewer queue insertions,",
                "",
                stats.mop_entries_issued,
                100.0 * stats.insert_reduction()
            );
            println!(
                "{:30}    {} pointers installed, {} dropped with I-cache lines",
                "", stats.pointers.0, stats.pointers.1
            );
        }
    }
    println!(
        "\nThe pipelined 2-cycle scheduler loses throughput on dependent chains;\n\
         macro-op scheduling recovers it by fusing dependent pairs into one\n\
         2-cycle scheduling unit (see DESIGN.md and the paper's Figure 14)."
    );
}

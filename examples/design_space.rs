//! Scheduler design-space sweep: issue-queue size x scheduling model,
//! showing where macro-op scheduling's two benefits come from — the
//! relaxed scheduling loop (visible with unrestricted queues) and the
//! effective-window increase from entry sharing (visible under
//! contention).
//!
//! ```text
//! cargo run --release --example design_space [bench] [insts]
//! ```

use mopsched::core::WakeupStyle;
use mopsched::sim::{MachineConfig, Simulator};
use mopsched::workload::spec2000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = args.first().map(String::as_str).unwrap_or("parser");
    let insts: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(60_000);

    let Some(spec) = spec2000::by_name(bench) else {
        eprintln!("unknown benchmark `{bench}`");
        std::process::exit(1);
    };
    let queue_sizes: [(&str, Option<usize>); 4] = [
        ("16", Some(16)),
        ("32", Some(32)),
        ("64", Some(64)),
        ("unrestricted", None),
    ];

    println!("design space for `{bench}` ({insts} insts): IPC by queue size and scheduler\n");
    println!(
        "{:14} {:>8} {:>8} {:>10} {:>10}",
        "queue", "base", "2-cycle", "MOP-2src", "MOP-wOR"
    );
    for (label, q) in queue_sizes {
        let run = |cfg: MachineConfig| Simulator::new(cfg, spec.trace(42)).run(insts).ipc();
        let base = {
            let mut c = MachineConfig::base_32();
            c.sched.queue_entries = q;
            run(c)
        };
        let two = {
            let mut c = MachineConfig::two_cycle_32();
            c.sched.queue_entries = q;
            run(c)
        };
        let m2 = run(MachineConfig::macro_op(WakeupStyle::CamTwoSource, q, 1));
        let mw = run(MachineConfig::macro_op(WakeupStyle::WiredOr, q, 1));
        println!("{label:14} {base:8.3} {two:8.3} {m2:10.3} {mw:10.3}");
    }
    println!(
        "\nSmall queues: macro-op scheduling wins by packing two instructions\n\
         per entry (effective window ~1.5x). Large queues: the win comes from\n\
         issuing dependent pairs back-to-back despite the pipelined 2-cycle\n\
         scheduling loop (the paper's Figures 14 and 15)."
    );
}

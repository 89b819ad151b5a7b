//! Cross-checks between the analytical model and the cycle simulator:
//! the simulator can never beat the analytical bound, and the analytical
//! wakeup-floor sensitivity must agree in direction with the measured
//! base-vs-2-cycle gap.

use mos_analysis::{Ddg, EdgeCosts, ScheduleModel};
use mos_isa::TraceSource;
use mos_rv::{suite, RvTraceSource};
use mos_sim::{MachineConfig, Simulator};
use mos_workload::spec2000;

#[test]
fn simulator_never_beats_the_bound_on_rv_programs() {
    for p in suite::PROGRAMS.iter().chain(&suite::KERNELS) {
        let prog = p.assemble();
        let trace = || RvTraceSource::new(&prog).expect("suite program lowers");
        let ddg = Ddg::from_trace(trace(), usize::MAX);
        let bound = ScheduleModel::table1_atomic().lower_bound_cycles(&ddg);
        let stats = Simulator::new(MachineConfig::base_32(), trace()).run(u64::MAX);
        assert!(
            stats.cycles >= bound,
            "{}: simulated {} cycles beats analytical bound {}",
            p.name,
            stats.cycles,
            bound
        );
    }
}

#[test]
fn simulator_never_beats_the_bound_on_benchmarks() {
    for name in ["gap", "gzip", "mcf", "vortex"] {
        let spec = spec2000::by_name(name).expect("known");
        let n = 20_000;
        let ddg = Ddg::from_trace(spec.trace(42), n);
        let bound = ScheduleModel::table1_atomic().lower_bound_cycles(&ddg);
        let stats = Simulator::new(MachineConfig::base_32(), spec.trace(42)).run(n as u64);
        assert!(
            stats.cycles >= bound,
            "{name}: simulated {} cycles beats bound {}",
            stats.cycles,
            bound
        );
    }
}

#[test]
fn analytical_floor_sensitivity_tracks_the_simulator() {
    // Rank benchmarks by analytical 2-cycle sensitivity (estimate model)
    // and by simulated sensitivity: gap must rank above vortex in both.
    let sensitivity_analytic = |name: &str| {
        let spec = spec2000::by_name(name).expect("known");
        let ddg = Ddg::from_trace(spec.trace(42), 20_000);
        let a = ScheduleModel::table1_atomic().estimate_ipc(&ddg);
        let t = ScheduleModel::table1_two_cycle().estimate_ipc(&ddg);
        t / a
    };
    let sensitivity_sim = |name: &str| {
        let spec = spec2000::by_name(name).expect("known");
        let a = Simulator::new(MachineConfig::base_unrestricted(), spec.trace(42))
            .run(20_000)
            .ipc();
        let t = Simulator::new(MachineConfig::two_cycle_unrestricted(), spec.trace(42))
            .run(20_000)
            .ipc();
        t / a
    };
    let (ga, va) = (sensitivity_analytic("gap"), sensitivity_analytic("vortex"));
    let (gs, vs) = (sensitivity_sim("gap"), sensitivity_sim("vortex"));
    assert!(ga < va, "analytic: gap {ga:.3} should lose more than vortex {va:.3}");
    assert!(gs < vs, "simulated: gap {gs:.3} should lose more than vortex {vs:.3}");
}

#[test]
fn window_depth_separates_sensitive_from_insensitive() {
    let depth = |name: &str| {
        let spec = spec2000::by_name(name).expect("known");
        let ddg = Ddg::from_trace(spec.trace(42), 20_000);
        // Depth added by the 2-cycle floor within a ROB-sized window.
        let d1 = ddg.mean_window_depth(128, 64, EdgeCosts::atomic());
        let d2 = ddg.mean_window_depth(128, 64, EdgeCosts::two_cycle());
        d2 - d1
    };
    assert!(
        depth("gap") > depth("vortex"),
        "gap gains more window depth from the 2-cycle floor"
    );
}

#[test]
fn graph_len_matches_committed_stream() {
    let spec = spec2000::by_name("perl").expect("known");
    let n = 5_000;
    let ddg = Ddg::from_trace(spec.trace(42), n);
    assert_eq!(ddg.len(), n);
    // All predecessor indices point backward.
    for (k, node) in ddg.nodes().iter().enumerate() {
        for &p in &node.preds {
            assert!(p < k);
        }
    }
    // And every node's sidx is a valid program index.
    let t = spec.trace(42);
    let p = t.program().clone();
    for node in ddg.nodes() {
        assert!(p.inst(node.sidx).is_some());
    }
}

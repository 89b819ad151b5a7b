//! The simulator decodes each static instruction once, into the
//! `StaticRecord` table that fetch, rename and the back end read. The
//! table must say exactly what the `StaticInst` accessors say, for every
//! program the simulator runs: every SPEC model, every RV32 suite program
//! and every assembly kernel under `tests/programs/kernels/`.

use std::path::Path;

use mos_isa::{InstClass, Program};
use mos_rv::suite;
use mos_sim::StaticRecord;
use mos_workload::spec2000;

/// Compare every record of `program`'s table with its instruction.
fn assert_agrees(name: &str, program: &Program) {
    use InstClass::*;
    let table = StaticRecord::decode(program);
    assert_eq!(
        table.len(),
        program.len(),
        "{name}: one record per instruction"
    );
    for ((sidx, inst), rec) in program.iter().zip(&table) {
        let at = format!("{name} @{sidx} `{inst}`");
        let class = inst.class();
        let srcs: Vec<_> = inst.src_regs().collect();
        assert_eq!(rec.class, class, "{at}: class");
        assert_eq!(rec.dst, inst.dst(), "{at}: dst");
        assert_eq!(*rec.srcs, srcs[..], "{at}: sources");
        assert_eq!(rec.target, inst.target(), "{at}: target");
        assert_eq!(rec.is_candidate, inst.is_mop_candidate(), "{at}: candidate");
        assert_eq!(
            rec.is_valuegen,
            inst.is_value_generating_candidate(),
            "{at}: value-generating"
        );
        assert_eq!(rec.line, program.pc_of(sidx) & !63, "{at}: I-cache line");
        assert_eq!(
            rec.can_squash,
            matches!(class, CondBranch | IndirectJump | Return),
            "{at}: can squash"
        );
        let fixed = match class {
            Store | CondBranch | IndirectJump | Return => 1,
            _ => u64::from(class.exec_latency()),
        };
        assert_eq!(rec.fixed_latency, fixed, "{at}: fixed latency");
    }
}

#[test]
fn every_spec_model_decodes_to_its_accessors() {
    for spec in spec2000::all() {
        for seed in [42, 7] {
            let program = spec.build(seed);
            assert_agrees(&format!("{}/s{seed}", spec.name), program.program());
        }
    }
}

#[test]
fn every_rv_suite_program_decodes_to_its_accessors() {
    for p in &suite::PROGRAMS {
        let lowered = mos_rv::lower(&p.assemble()).expect("suite program lowers");
        assert_agrees(p.name, &lowered.program);
    }
}

#[test]
fn every_assembly_kernel_decodes_to_its_accessors() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/programs/kernels");
    let mut kernels = 0;
    for entry in std::fs::read_dir(&dir).expect("kernel directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|e| e != "s") {
            continue;
        }
        let name = path.file_stem().expect("file name").to_string_lossy();
        let source = std::fs::read_to_string(&path).expect("kernel source");
        let rv = mos_rv::assemble(&name, &source).expect("kernel assembles");
        let lowered = mos_rv::lower(&rv).expect("kernel lowers");
        assert_agrees(&name, &lowered.program);
        kernels += 1;
    }
    assert!(kernels >= suite::KERNELS.len(), "found {kernels} kernels");
}

//! Property-based differential fuzzing of the RV32 frontend: randomly
//! generated, guaranteed-terminating RV32I(+M) programs
//! ([`mos_testutil::rv_random`]) must survive the full differential check
//! — identical committed uop traces and identical final architectural
//! state between the pipeline and the functional oracle — under every
//! scheduler kind, and under the off-preset macro-op configurations
//! ([`off_preset_configs`]).

use proptest::prelude::*;

use mopsched::rv;
use mos_testutil::rv_random::{off_preset_configs, program_strategy};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// The full differential check (trace equality + state replay) passes
    /// on random programs under every scheduler kind and every
    /// off-preset configuration: no deadlock, no lost, duplicated or
    /// reordered commit.
    #[test]
    fn random_programs_pass_the_differential_check(prog in program_strategy()) {
        let presets = rv::SCHED_KINDS
            .iter()
            .map(|&sched| (sched, rv::config_for(sched).expect("known scheduler")));
        for (label, cfg) in presets.chain(off_preset_configs()) {
            rv::run_differential(&prog, label, cfg, 2_000_000)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    /// Random programs survive an encode→decode round-trip and the decoded
    /// form still passes the differential check.
    #[test]
    fn random_programs_roundtrip_through_the_encoder(prog in program_strategy()) {
        let bytes = rv::encode_program(&prog);
        let decoded = rv::decode_flat("rv-random-bin", &bytes).expect("decodes");
        prop_assert_eq!(decoded.insts.len(), prog.insts.len());
        let cfg = rv::config_for("mop-wor").expect("known scheduler");
        rv::run_differential(&decoded, "mop-wor", cfg, 2_000_000)
            .unwrap_or_else(|e| panic!("decoded: {e}"));
    }
}

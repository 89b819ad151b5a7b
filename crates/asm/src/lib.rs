//! # mos-asm
//!
//! An empty crate, kept only because `mosbench/Cargo.lock` pins it
//! (through `mos-workload`'s dependency). Deleting it rewrites that lock,
//! so it goes with the next change to the benchmark.

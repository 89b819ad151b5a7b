//! `mos-ledger`: a persistent, content-addressed archive of simulation
//! runs.
//!
//! Every simulation the CLI archives gets a
//! [`RunKey`] — a SHA-256 over a canonical preimage of everything that
//! determines its sim-side results (program digest, canonicalized
//! machine config, scheduler, budget/seed, schema version, git
//! revision) — and a [`RunRecord`] stored under `results/ledger/`,
//! sharded by key prefix, with an append-only `index.jsonl` naming each
//! save. `mossim history` lists the index, and [`diff`](mod@diff) puts
//! two archived runs side by side, with a noise-band verdict separating
//! deterministic sim-side deltas (always real) from advisory
//! host-throughput drift.
//!
//! Everything is hand-rolled on `std` only (including [`sha`] and
//! [`json`]) because the workspace builds without registry access.

#![warn(missing_docs)]

pub mod diff;
pub mod json;
pub mod key;
pub mod record;
pub mod sha;
pub mod store;

pub use diff::{diff, DiffOutcome, HOST_NOISE_BAND_PCT};
pub use key::{
    git_short_rev, program_digest, push_config, run_key, short, Preimage, RunIdent, RunKey,
    SCHEMA_VERSION,
};
pub use record::{CpiSection, RunRecord};
pub use store::{IndexEntry, Ledger, Saved};

//! `qdi-exec` — deterministic parallel campaign engine and streaming
//! binary trace store.
//!
//! Every trace-producing workload in the workspace — DPA campaigns
//! (paper eqs. 7–9), fault-injection sweeps and multi-seed P&R variance
//! studies (Table 2) — is a bag of independent jobs indexed `0..n`. This
//! crate executes such bags in parallel **without giving up bitwise
//! reproducibility**, and stores their output traces in a compact
//! append-only on-disk format so attacks can stream over trace sets
//! larger than RAM.
//!
//! Two pillars:
//!
//! * [`pool`] — a work-stealing job pool built on [`std::thread::scope`]
//!   (no dependencies beyond `std`). Jobs draw their randomness from a
//!   per-index seed derived with [`seed::derive_seed`] from one root
//!   seed, and results are merged in index order, so a run with 8
//!   workers is bit-identical to a run with 1 worker. See the
//!   *determinism contract* below.
//! * [`store`] — the `.qtrs` streaming binary trace store: a versioned
//!   header, per-trace metadata, f32/f64 sample blocks with optional
//!   XOR-delta encoding, and a CRC per record. The append-only
//!   [`store::StoreWriter`] and the chunked, iterator-style
//!   [`store::StoreReader`] keep at most one record resident, so both
//!   acquisition and attacks run in bounded memory.
//!
//! # Determinism contract
//!
//! [`pool::run_indexed`] guarantees: for a fixed job closure `f`, the
//! returned `Vec` equals `(0..jobs).map(f).collect()` regardless of the
//! worker count, as long as `f(i)` depends only on `i` (plus shared
//! read-only state). In particular any randomness must come from the
//! job's index — use [`seed::job_rng`]`(root, i)` — never from a shared
//! mutable RNG or from iteration order. Campaign drivers in `qdi-dpa`
//! and `qdi-fi` are built on this contract; their property tests assert
//! bit-identical bias traces and outcome counts across 1, 2 and 8
//! workers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod pool;
pub mod seed;
pub mod store;
pub mod supervisor;

pub use pool::{run_indexed, try_run_indexed, ExecConfig};
pub use seed::{derive_seed, job_rng};
pub use store::{
    FsckReport, SampleEncoding, StoreError, StoreInfo, StoreOptions, StoreReader, StoreWriter,
};
pub use supervisor::{
    run_supervised, Quarantine, QuarantineEntry, QuarantineKind, SupervisedRun, SupervisorPolicy,
};

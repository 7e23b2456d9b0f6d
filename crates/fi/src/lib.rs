//! `qdi-fi` — fault-injection campaigns for QDI netlists.
//!
//! The source paper's Section II argues that a quasi delay insensitive
//! circuit turns physical faults into *handshake stalls*: a perturbed
//! dual-rail computation either absorbs the perturbation or deadlocks,
//! it does not deliver silently wrong data. This crate makes that claim
//! measurable. A campaign:
//!
//! 1. enumerates (or samples) fault sites — gate output × fault model ×
//!    injection time ([`enumerate_faults`], [`sample_faults`]);
//! 2. runs the netlist once clean under a seeded [`Stimulus`] to record
//!    golden output values;
//! 3. replays the identical stimulus once per fault with the fault
//!    injected, forking each run from a snapshot of the golden run at its
//!    injection time ([`GoldenRun`]), and classifies each run
//!    ([`FaultOutcome`]): `masked`, `deadlock`, `livelock`, `protocol`,
//!    `silent`, `aborted`;
//! 4. aggregates a [`FaultReport`] with per-output-channel detection
//!    coverage computed over fan-in cones, and renders silent
//!    corruptions as deny-level `QDI0107` diagnostics.
//!
//! The `qdi-fi` binary wraps this as a CLI mirroring `qdi-lint`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod fork;
pub mod harness;
pub mod outcome;
pub mod report;
pub mod sites;

pub use campaign::{default_injection_times, run_campaign_parallel, CampaignConfig};
pub use fork::{FaultRun, GoldenRun};
pub use harness::{output_values, OutputValues, Stimulus, MAX_TOKENS};
pub use outcome::{classify, FaultOutcome};
pub use report::{ChannelCoverage, FaultRecord, FaultReport, SILENT_CORRUPTION};
pub use sites::{
    enumerate_faults, parse_model, parse_models, sample_faults, DEFAULT_DELAY_EXTRA_PS,
    DEFAULT_GLITCH_WIDTH_PS,
};

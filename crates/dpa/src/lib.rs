//! Differential Power Analysis following the formalisation of the paper's
//! Section IV (after Messerges et al.).
//!
//! The attack collects `N` power traces `S_ij` for random plaintext inputs
//! `PTI_i`, splits them with a selection function `D` into the sets
//! `S0 = {S_ij | D = 0}` and `S1 = {S_ij | D = 1}` (eq. 7), averages each
//! set (eq. 8), and forms the bias signal `T[j] = A0[j] − A1[j]` (eq. 9).
//! "If the DPA bias signal shows important peaks, it means there is a
//! strong correlation between the D function and the power signal."
//!
//! This crate implements:
//!
//! * the paper's selection functions — AES first-round XOR
//!   (`D(C1, P8, K8)`), the classic `SBOX(p ⊕ k)` variant, and DES
//!   `SBOX1(P6 ⊕ K0)` — plus oracle/closure selections for signature
//!   studies ([`selection`]);
//! * set partitioning, averaging and bias computation on one fixed-shard
//!   summation tree, bit-identical at every worker count, with full
//!   key-guess ranking ([`parallel`]) and multi-bit (Bevan–Knudsen style)
//!   combination ([`attack`]);
//! * trace campaigns against the gate-level AES byte slice of
//!   [`qdi_crypto::gatelevel`], in memory ([`parallel`]) or streamed to a
//!   resumable `.qtrs` store ([`store`]), both on the `qdi-exec` pool with
//!   one per-index noise schedule and a per-campaign noiseless-trace
//!   cache ([`campaign`]);
//! * attack-quality metrics: ghost-peak ratio and measurements to
//!   disclosure ([`metrics`]).
//!
//! # Example
//!
//! ```
//! use qdi_dpa::{parallel_attack, selection::ClosureSelect, TraceSet};
//! use qdi_analog::Trace;
//! use qdi_exec::ExecConfig;
//!
//! // Two synthetic trace classes differing at one sample.
//! let mut set = TraceSet::new();
//! for v in 0..8u8 {
//!     let mut t = Trace::zeros(0, 10, 4);
//!     if v & 1 == 1 {
//!         t.add_pulse(
//!             qdi_analog::Pulse { t0_ps: 10, charge_fc: 4.0, dur_ps: 10 },
//!             qdi_analog::PulseShape::Triangular,
//!         );
//!     }
//!     set.push(vec![v], t);
//! }
//! let sel = ClosureSelect::new("lsb", 2, |input, guess| (input[0] ^ guess as u8) & 1 == 1);
//! let result = parallel_attack(&set, &sel, ExecConfig::serial());
//! assert_eq!(result.scores.len(), 2);
//! assert!(result.scores[0].peak_abs > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod campaign;
pub mod cpa;
pub mod metrics;
pub mod parallel;
pub mod selection;
pub mod store;
pub mod template;

mod traceset;

pub use attack::{AttackResult, BiasAccumulator, GuessScore};
pub use campaign::{CampaignConfig, PlaintextSource};
pub use cpa::{cpa, CpaResult, HammingWeightSbox, LeakageModel};
pub use parallel::{
    parallel_attack, parallel_attack_windowed, parallel_bias_signal, run_parallel_campaign,
    BIAS_SHARD,
};
pub use selection::SelectionFunction;
pub use store::{
    bias_signal_from_store, bias_signals_from_store, CampaignError, ResilienceConfig,
    StoreCampaignRunner, StoreCheckpoint,
};
pub use template::{profile_bit_templates, template_attack, BitTemplates};
pub use traceset::{TraceSet, TraceSetError};

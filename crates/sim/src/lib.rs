//! Event-driven gate-level simulation of QDI asynchronous circuits.
//!
//! This crate executes [`qdi_netlist::Netlist`]s under the four-phase
//! handshake protocol of the paper's Section II:
//!
//! * [`Simulator`] — an inertial-delay event-driven engine with Muller
//!   C-element state holding and a pluggable [`DelayModel`]. The default
//!   [`LinearDelay`] makes a gate's switching time proportional to its total
//!   output capacitance, `Δt ≈ t0 + k·C` — the property equation (12) of
//!   the paper builds on.
//! * [`Testbench`] — four-phase environments: [`SourceEnv`] drives a 1-of-N
//!   channel through the valid/ack/return-to-zero/release phases of Fig. 2,
//!   [`SinkEnv`] consumes and acknowledges output channels.
//! * [`protocol`] — a conformance checker reconstructing every channel's
//!   phase sequence from the transition log.
//! * [`hazard`] — glitch detection: in a hazard-free QDI circuit each net
//!   toggles exactly once per phase (Fig. 3); anything more is flagged.
//!
//! The transition log ([`Transition`]) is the hand-off point to the
//! electrical model in `qdi-analog`: every logged edge becomes a current
//! pulse whose charge and duration derive from the switched capacitance.
//!
//! # Example
//!
//! Simulate the paper's dual-rail XOR for all four input pairs and check
//! that the number of transitions is data independent:
//!
//! ```
//! use qdi_netlist::{cells, NetlistBuilder};
//! use qdi_sim::{Testbench, TestbenchConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("xor");
//! let a = b.input_channel("a", 2);
//! let bb = b.input_channel("b", 2);
//! let ack = b.input_net("ack");
//! let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
//! b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
//! let out = b.output_channel("co", &cell.out.rails.clone(), ack);
//! let netlist = b.finish()?;
//!
//! let mut counts = Vec::new();
//! for (av, bv) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
//!     let mut tb = Testbench::new(&netlist, TestbenchConfig::default())?;
//!     tb.source(a.id, vec![av])?;
//!     tb.source(bb.id, vec![bv])?;
//!     tb.sink(out.id)?;
//!     let run = tb.run()?;
//!     assert_eq!(run.received(out.id), &[av ^ bv]);
//!     counts.push(run.transitions.len());
//! }
//! assert!(counts.windows(2).all(|w| w[0] == w[1])); // balanced cell
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod diagnose;
pub mod env;
pub mod fault;
pub mod hazard;
pub mod protocol;
pub mod replay;
pub mod simulator;
pub mod vcd;

mod error;

pub use delay::{ConstantDelay, DelayModel, LinearDelay};
pub use env::{Advance, SinkEnv, SourceEnv, Testbench, TestbenchConfig, TestbenchRun};
pub use error::{HandshakePhase, NetActivity, SimError, StalledChannel};
pub use fault::{Fault, FaultKind, FaultPlan, FaultSite};
pub use replay::{replay_witness, ReplaySide, WitnessReplay};
pub use simulator::{Simulator, TimePs, Transition, WatchdogConfig};

//! `qdi-mon`: the monitoring companion of the QDI secure flow.
//!
//! The library half hosts everything the `qdi-mon` binary does, in
//! testable form:
//!
//! * [`dashboard`] — renders a [`qdi_obs::ProgressSnapshot`] (streamed
//!   by running campaigns via `qdi_obs::progress::set_file`) as an
//!   in-place ANSI terminal frame with completed/total bars, EWMA
//!   throughput and ETA per task, plus the `exec.pool.*` gauges.
//! * [`report`] — turns a recorded telemetry JSONL (and its optional
//!   `*.timeseries.json` / `*.metrics.json` sidecars) into the
//!   self-contained HTML report of [`qdi_obs::html`].
//! * [`analyze`] — reads a `.qprof` profile ([`qdi_obs::prof`]) and
//!   emits a verdict table (parallel efficiency, idle fraction, steal
//!   rate, per-job overhead vs mean job duration) with rustc-style
//!   findings naming the dominant loss; [`flame`] renders the same
//!   profile as self-contained SVGs (`qdi-mon flame` / `qdi-mon
//!   timeline`).
//! * [`remote`] — progress sources on a running `qdi-serve` instance:
//!   `qdi-mon watch http://host:port` polls `/v1/progress`, and a
//!   `.../v1/jobs/{id}/events` URL tails the job's SSE stream.
//! * [`waterfall`] — renders one distributed trace (span JSONL from
//!   [`qdi_obs::span`], possibly spanning client + several server
//!   processes) as a self-contained waterfall SVG; `qdi-mon slo`
//!   evaluates an [`qdi_obs::slo::SloConfig`] against a scraped
//!   `/metrics` exposition.
//!
//! The binary follows the `qdi-lint` exit-code discipline: `0` success,
//! `1` a data-level failure (profile findings, a breached SLO), `2`
//! usage error or unreadable input.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod dashboard;
pub mod flame;
pub mod remote;
pub mod report;
pub mod waterfall;

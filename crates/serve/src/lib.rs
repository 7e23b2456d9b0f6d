//! `qdi-serve` — campaign-as-a-service for the QDI secure flow.
//!
//! A zero-new-dependency daemon that turns the repo's batch campaign
//! engines into a shared, multi-tenant service:
//!
//! * **job API** — HTTP/1.1 + JSON over a hand-rolled
//!   `std::net::TcpListener` server ([`http`], [`server`]): submit
//!   DPA, fault-injection and P&R campaign specs ([`spec`]), poll or
//!   long-poll status, stream live progress over SSE;
//! * **fair-share scheduling** — a bounded worker fleet leases work
//!   chunk-at-a-time, interleaving tenants by least-service-first with
//!   priority classes inside each tenant ([`scheduler`]);
//! * **durable multi-tenant artifacts** — every job owns
//!   `tenants/{tenant}/jobs/{id}/` with its trace store, checkpoint
//!   and report ([`job`]);
//! * **crash recovery** — the job table is rebuilt from durable
//!   records after `kill -9` and campaigns resume bit-identically from
//!   their [`qdi_dpa::StoreCheckpoint`]s ([`runner`]);
//! * **observability** — `GET /metrics` renders the process-wide
//!   metrics registry, the per-route RED series included ([`server`]),
//!   as one Prometheus exposition, `GET /v1/progress` the
//!   [`qdi_obs::progress::ProgressSnapshot`] data model that
//!   `qdi-mon watch` renders.
//!
//! The [`client`] module (and the `qdi-client` binary) is the thin
//! counterpart: submit / status / watch / fetch / cancel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod job;
pub mod runner;
pub mod scheduler;
pub mod server;
pub mod spec;

pub use client::{ClientError, ServeClient};
pub use http::{HttpError, Limits, Request, Response};
pub use job::{JobHandle, JobRecord, JobState, JobStatus, TraceMeta};
pub use runner::{DpaReport, GuessReport};
pub use scheduler::Scheduler;
pub use server::{ServeConfig, Server};
pub use spec::{AttackSpec, DpaJobSpec, FiJobSpec, JobKind, JobSpec, PnrJobSpec, Priority};

//! # fxrz-serve — compression as a service
//!
//! FXRZ's one-shot predict→compress path (no FRaZ-style search loop) is
//! what makes a long-lived daemon worthwhile: the trained forest loads
//! once and is amortized over every request — the ROADMAP's
//! production-serving north star. This crate provides that daemon with
//! nothing but `std`:
//!
//! * [`protocol`] — a length-prefixed binary wire format over TCP or
//!   Unix sockets, with strict bounded reads on every untrusted length;
//! * [`registry`] — trained models addressed by `id@version`, validated
//!   on load, hot-swappable via the `LoadModel` op (in-flight requests
//!   finish on the model they resolved);
//! * [`scheduler`] — bounded admission with per-request deadlines and an
//!   explicit `Busy` reply past the bound; each admitted request runs on
//!   its connection thread once one of `--threads` executors is free,
//!   with nested `par_map`s inline, keeping served results
//!   **bit-identical** to direct library calls at any thread count;
//! * [`server`] — accept loops, per-connection framing, and a graceful
//!   SIGTERM drain (stop accepting → finish in-flight → report);
//! * [`audit`] — per-request accuracy audit records (trace id, model,
//!   predicted error bound, achieved vs target ratio) appended to a
//!   JSONL sink, plus live per-model accuracy aggregates for `Stats`;
//! * [`client`] — a blocking client used by `fxrz client` and the tests.
//!
//! Every request is dispatched under a deterministic request-scoped
//! [`fxrz_telemetry::TraceContext`] that follows the job through the
//! scheduler, ties flight-recorder spans to the request, and appears as
//! `trace_id` in compress replies and audit records.
//!
//! ```no_run
//! use fxrz_serve::{Client, Server, ServerConfig};
//!
//! let server = Server::new(ServerConfig::default());
//! server.registry().load_file("nyx", 0, std::path::Path::new("model.json")).unwrap();
//! let handle = server.serve_tcp("127.0.0.1:0").unwrap();
//! let addr = handle.local_addr().unwrap();
//!
//! let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
//! client.ping().unwrap();
//! let report = handle.shutdown();
//! assert!(report.drained);
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod client;
mod lock;
pub mod names;
pub mod protocol;
pub mod registry;
pub mod scheduler;
pub mod server;

pub use audit::{AccuracyStats, AuditRecord, AuditSink};
pub use client::{Client, ClientError};
pub use protocol::{Op, Reply, Request, Status};
pub use registry::{ModelInfo, ModelRegistry, RegistryError, ServedModel};
pub use scheduler::{JobCtx, SchedCounters, Scheduler, SchedulerConfig};
pub use server::{signal, DrainReport, Server, ServerConfig, ServerHandle};

//! Session-level benchmark of the MilBack stack.
//!
//! Three workloads — `fabric_dense`, `serve_localize` and
//! `serve_payload_faults` — each generated from a seed and driven only
//! through public entry points (`Fabric::run_round`, the `ServeEngine`
//! submission path, and the `Network` stage calls in the traced run's
//! stage replay). See README.md in this directory for the workload
//! rationale, the metric → layer → workload table and how to run it.

pub mod host;
pub mod json;
pub mod replay;
pub mod run;
pub mod workload;

pub use run::{run, run_spec, Args, Output};

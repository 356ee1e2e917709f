//! End-to-end and per-layer benchmark of the ascetic workspace.
//!
//! Four workloads (`traverse`, `iterate`, `churn`, `serve`) drive the
//! workspace crates through their public functions. The untraced run
//! prints the end-to-end metrics; the traced run records a host span
//! around every timed call, arms the engine's virtual-clock tracer, and
//! prints the per-layer metrics with each layer's self time. See
//! `README.md` beside this crate for the metric catalogue.

pub mod harness;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

//! End-to-end NDPipe benchmark.
//!
//! One command drives a fleet of 4 loopback `PipeStoreServer`s (placement
//! R=2), a `Cluster` Tuner and an online upload front end through the
//! workloads `ingest`, `refresh` and `ingest_during_refresh`, checks the
//! outputs, and prints every end-to-end metric. A traced run adds the
//! per-layer metrics, taken from bench-side spans around public calls and
//! from the telemetry the program already records.

pub mod config;
pub mod fleet;
pub mod gen;
pub mod host;
pub mod ingest;
pub mod metrics;
pub mod refresh;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;

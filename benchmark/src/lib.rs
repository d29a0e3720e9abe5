//! The repo benchmark: five key-value workloads measured on both clocks —
//! host ns per request and virtual rate at a latency limit — with
//! per-crate layer metrics from a separate traced run. See `README.md`.

pub mod cli;
pub mod compare;
pub mod fixture;
pub mod layers;
pub mod phases;
pub mod reference;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod stream;
pub mod trace;

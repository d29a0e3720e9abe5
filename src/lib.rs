//! # Cornflakes: zero-copy serialization for microsecond-scale networking
//!
//! A from-scratch Rust reproduction of *Cornflakes: Zero-Copy Serialization
//! for Microsecond-Scale Networking* (Raghavan et al., SOSP 2023).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! - [`sim`] — virtual-time simulation substrate (clock, cache model,
//!   calibrated cost model, open-loop load generator).
//! - [`mem`] — pinned (DMA-safe) memory: region registry, reference-counted
//!   buffers ([`mem::RcBuf`]), arenas.
//! - [`nic`] — simulated scatter-gather NIC (descriptor rings, DMA engine,
//!   Mellanox/Intel profiles).
//! - [`net`] — UDP and TCP datapaths exposing the paper's Listing 2 API
//!   (`alloc` / `recv_packet` / `recover_ptr` / `send_object`).
//! - [`wire`](crate::core::wire) (in [`core`]) — the Cornflakes hybrid serialization library:
//!   `CFPtr` smart pointers, `CornflakesObj`, the 512-byte zero-copy
//!   threshold heuristic; `core::msgs`, the message set generated from
//!   `crates/core/schema/msgs.proto`; and `core::dynamic`, the schema
//!   interpreter the generated code is tested against.
//! - [`codegen`] — the schema compiler that generates Cornflakes message
//!   types from Protobuf-style schemas (text to text; it depends on
//!   nothing, the runtime included).
//! - [`baselines`] — from-scratch Protobuf-, FlatBuffers-, and Cap'n
//!   Proto-style serializers plus the manual copy baselines of Figure 1.
//! - [`workloads`] — YCSB, Google-distribution, Twitter-cache, and CDN trace
//!   generators.
//! - [`kv`] — the applications: custom key-value store, mini-Redis, echo
//!   server.
//! - [`cluster`] — multi-node replicated KV serving over a simulated
//!   switch: consistent-hash placement, R-way replication, probe-based
//!   failure detection, and client failover.
//! - [`telemetry`] — virtual-time observability: request span tracing with
//!   Chrome-trace export, a metrics registry, and a request-scoped flight
//!   recorder.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture and
//! experiment index.

#![forbid(unsafe_code)]

pub mod chaos_repro;

pub use cf_baselines as baselines;
pub use cf_cluster as cluster;
pub use cf_codegen as codegen;
pub use cf_kv as kv;
pub use cf_mem as mem;
pub use cf_net as net;
pub use cf_nic as nic;
pub use cf_sim as sim;
pub use cf_telemetry as telemetry;
pub use cf_workloads as workloads;
pub use cornflakes_core as core;

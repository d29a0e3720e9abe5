//! The evaluation applications (paper §6.1.2): a custom key-value store, a
//! mini-Redis, and echo servers — each parameterized over its serialization
//! approach.
//!
//! - [`store`] — the store engine: string keys mapping to values stored as
//!   one or more pinned (DMA-safe) buffers (single buffers, linked lists,
//!   or vectors of segments).
//! - [`server`] — the key-value server: one request engine generic over
//!   [`server::SerKind`] (Cornflakes via generated messages, or the
//!   Protobuf-, FlatBuffers- and Cap'n Proto-style baselines; one private
//!   codec per format) and over its transport, served here over UDP.
//! - [`tcp_server`] — the same engine behind a TCP flow table.
//! - [`engine`] — that engine: store, put dedup, versions and the single
//!   PUT / GET_SEGMENT / GET handler, generic over serializer and transport.
//! - [`client`] — the matching load-generator client (request encoding and
//!   response validation per serialization kind). Clients run on their own
//!   [`cf_sim::Sim`] so client-side costs never pollute server service
//!   times.
//! - [`echo`] — the §2.2 echo server in all its variants: no
//!   serialization, one-copy, two-copy, raw scatter-gather, the three
//!   libraries, and Cornflakes.
//! - [`redis`] — mini-Redis: RESP command parsing with either handwritten
//!   RESP serialization or Cornflakes responses (§6.2.2).
//! - [`msgs`] — the schema-generated message type (`GetMsg`), compiled by
//!   `cf-codegen` from `schema/kv.proto` at build time.

#![forbid(unsafe_code)]

pub mod client;
mod codec;
pub mod echo;
pub mod engine;
pub mod overload;
pub mod redis;
pub mod server;
pub mod sharded;
pub mod store;
pub mod tcp_server;

/// Messages generated from `schema/kv.proto` by `cf-codegen` at build time.
pub mod msgs {
    include!(concat!(env!("OUT_DIR"), "/kv_gen.rs"));
}

/// Application message types carried in the frame header's `msg_type`.
pub mod msg_type {
    /// Multi-get request (response: `GetMsg` with `vals`).
    pub const GET: u8 = 1;
    /// Put request (`keys[0]` = key, `vals[0]` = value).
    pub const PUT: u8 = 2;
    /// Get one segment of a segmented value (`id` = segment index).
    pub const GET_SEGMENT: u8 = 3;
    /// Echo request.
    pub const ECHO: u8 = 4;
    /// Replicated put: a coordinator forwarding a client put (same payload,
    /// same request id) to a backup replica. Cluster-internal.
    pub const REPL_PUT: u8 = 5;
    /// Backup's header-only acknowledgement of a [`REPL_PUT`].
    /// Cluster-internal.
    pub const REPL_ACK: u8 = 6;
    /// Header-only liveness probe between cluster nodes; answered with
    /// `PROBE | RESPONSE`. Cluster-internal.
    pub const PROBE: u8 = 7;
    /// Response marker.
    pub const RESPONSE: u8 = 0x80;
}

/// Application flag bits carried in the frame header's `flags` byte.
pub mod flags {
    /// The server handled the request in a degraded mode (e.g. a put it
    /// could not apply under memory pressure). The client should treat the
    /// operation as failed-but-acknowledged and may retry later; the
    /// request itself terminated cleanly.
    pub const DEGRADED: u8 = 0x01;
    /// The server's admission layer rejected the request without serving
    /// it (load shedding): a header-only fast-reject reply. Distinct from
    /// [`DEGRADED`] — a shed request was never processed at all. The client
    /// should back off; retrying immediately feeds the overload.
    pub const SHED: u8 = 0x02;
}

//! The Cornflakes hybrid zero-copy serialization library.
//!
//! This crate implements the paper's primary contribution (§3): a
//! serialization library whose variable-length fields are *hybrid smart
//! pointers* ([`CFBytes`]) that decide **at construction time** whether to
//!
//! - **copy** the field into a bump arena (later bulk-copied into the
//!   transmit buffer), or
//! - **zero-copy** it: recover the pinned buffer that contains the bytes
//!   (via the region registry's `recover_ptr`), take a reference, and emit
//!   an extra NIC scatter-gather entry at transmit time.
//!
//! The decision is the paper's size-threshold heuristic (§3.2.1): fields at
//! least [`SerializationConfig::zero_copy_threshold`] bytes long (512 on the
//! calibrated machine profile) use zero-copy *if* the bytes live in
//! registered DMA-safe memory; everything else — small fields, stack data,
//! unpinned heap data — is copied transparently (memory transparency, §2.3).
//!
//! Serialization itself is driven by the [`obj::CornflakesObj`] trait, which
//! mirrors the paper's Listing 1: the networking stack consumes objects
//! directly (`object_len` / `write_header` / copy- and zero-copy-entry
//! iterators) so no intermediate scatter-gather array is materialized — the
//! combined serialize-and-send API of §3.2.3.
//!
//! The wire format (§3.3, Figure 4) is a bitmap-indexed header followed by
//! field data: integers inline in the header block, variable-length fields
//! as `(offset, length)` forward pointers, lists as pointer tables, nested
//! objects as pointers to nested header blocks. Deserialization is
//! zero-copy: getters return views into the received packet buffer, and
//! UTF-8 validation of string fields is deferred until access (§6.4).
//!
//! Who defines a message: a schema. [`msgs`] is what `cf-codegen` emits
//! from `schema/msgs.proto` at build time (no message type in this crate is
//! written by hand); [`dynamic::DynMessage`] interprets the same schema
//! text at run time and is the reference the emitted code is tested
//! against; the byte layout itself is pinned by recorded fixtures
//! (`tests/golden/core_msgs/`).

// Generated code names this crate by its external path; `msgs` includes
// generated code, so the path must resolve from inside the crate too.
extern crate self as cornflakes_core;

pub mod cfbytes;
pub mod config;
pub mod ctx;
pub mod dynamic;
pub mod list;
pub mod msgs;
pub mod obj;
pub mod wire;

pub use cfbytes::{CFBytes, CFString};
pub use config::SerializationConfig;
pub use ctx::SerCtx;
pub use list::{CFList, PrimList};
pub use obj::{CornflakesObj, Entry, Footprint, HeaderWriter};
pub use wire::WireError;

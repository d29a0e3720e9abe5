//! Baseline serialization libraries, implemented from scratch.
//!
//! The paper compares Cornflakes against three general-purpose libraries —
//! Protobuf, FlatBuffers, and Cap'n Proto — plus Redis's handwritten RESP
//! serialization (§6.1.3). This crate reimplements the *relevant behaviour*
//! of each library over the same message shapes the evaluation uses (a
//! multi-get with an id and repeated byte fields), with virtual-time cost
//! charging that mirrors each library's data-movement profile:
//!
//! - [`protolite`] — Protobuf-style varint/TLV wire format. Setting a bytes
//!   field copies it into the message struct (cold copy); encoding copies it
//!   again into DMA-safe memory (warm copy) plus per-field varint work.
//!   Deserialization parses TLV and copies fields out into owned vectors.
//! - [`flatlite`] — FlatBuffers-style: a builder copies fields into a
//!   contiguous heap buffer with vtable-indexed tables; access after
//!   deserialization is zero-copy. The finished buffer is copied once more
//!   into DMA memory by the send path (the builder heap is not DMA-safe).
//! - [`capnlite`] — Cap'n Proto-style: word-aligned segments with
//!   struct/list pointers; the builder copies data into heap segments, and
//!   the stack sends the segment list (copying each into DMA memory).
//!   Deserialization is zero-copy pointer traversal.
//! - [`resp`] — the Redis serialization protocol (arrays of bulk strings),
//!   as mini-Redis's handwritten baseline.
//!
//! All three general-purpose baselines therefore perform two copies per
//! byte field (Figure 1's library profile), while Cornflakes performs zero
//! (large, pinned fields) or two cheap ones (small fields via the arena).
//! Every decode path is bounds-checked against hostile input.
//!
//! The allocations are modelled, not made: messages and builders are
//! reusable (`PGetM::decode_into` / `encode_into`, `FlatGetM::build`,
//! `CapnGetM::reset` / `finish_in_place`, `CapnReader::parse_with`), so a
//! warm caller touches no host allocator, while every `heap_alloc` and copy
//! of the library's allocating design is still charged on the virtual clock.
//! The one-shot entry points are thin wrappers over the same code.

#![forbid(unsafe_code)]

pub mod capnlite;
pub mod flatlite;
pub mod protolite;
pub mod resp;
pub mod varint;

pub use capnlite::{CapnError, CapnGetM, CapnReader};
pub use flatlite::{FlatError, FlatGetM, FlatGetMView};
pub use protolite::{PGetM, ProtoError};
pub use resp::{RespError, RespValue};

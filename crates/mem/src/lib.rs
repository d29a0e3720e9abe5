//! Pinned ("DMA-safe") memory substrate for the Cornflakes reproduction.
//!
//! Cornflakes's zero-copy transmit path requires three memory facilities
//! (paper §3.1, §4):
//!
//! 1. **A pinned memory allocator** ([`pool::PinnedPool`]) that hands out
//!    power-of-two-sized buffers from large registered regions. On real
//!    hardware these regions would be pinned by the kernel and registered
//!    with the NIC for DMA; here registration makes them *recoverable* (see
//!    below) and visible to the simulated NIC.
//! 2. **Reference-counted buffers** ([`rcbuf::RcBuf`]) providing the paper's
//!    use-after-free guarantee: the NIC (and a TCP retransmission queue)
//!    holds a reference from descriptor post until completion/ACK, so an
//!    application "free" (dropping its `RcBuf`) never releases memory with
//!    pending I/O.
//! 3. **Memory transparency** ([`registry::Registry`]): given an *arbitrary
//!    interior pointer* into application data, `recover` finds the owning
//!    registered region — if any — and reconstructs an `RcBuf` for it
//!    (incrementing the reference count). Pointers outside registered
//!    regions return `None`, telling the serialization layer to fall back to
//!    copying.
//!
//! The crate also provides the bump [`arena::Arena`] used for the copied
//! side of hybrid serialization: fast allocation, mass deallocation per
//! request batch (§3.2.2).
//!
//! # Who owns pinned memory
//!
//! One pool and one registry per datapath core, owned like the `SerCtx` that
//! holds them (DESIGN.md §13). Slot reference counts, free lists, the class
//! table and the registry are plain `Cell`/`RefCell` state and region handles
//! are `Rc`s, so the types below are neither `Send` nor `Sync`: a buffer
//! cannot be cloned, dropped, recovered or read on another thread, and the
//! request path executes no lock and no atomic read-modify-write. Only the
//! statistic cells ([`MemStats`], [`ArenaStats`]) may be shared, for reading.
//! The contract is part of the interface; these must keep failing to compile:
//!
//! ```compile_fail,E0277
//! fn is_send<T: Send>() {}
//! is_send::<cf_mem::RcBuf>();
//! ```
//! ```compile_fail,E0277
//! fn is_sync<T: Sync>() {}
//! is_sync::<cf_mem::RcBuf>();
//! ```
//! ```compile_fail,E0277
//! fn is_send<T: Send>() {}
//! is_send::<cf_mem::PinnedPool>();
//! ```
//! ```compile_fail,E0277
//! fn is_sync<T: Sync>() {}
//! is_sync::<cf_mem::PinnedPool>();
//! ```
//! ```compile_fail,E0277
//! fn is_send<T: Send>() {}
//! is_send::<cf_mem::Registry>();
//! ```
//! ```compile_fail,E0277
//! fn is_sync<T: Sync>() {}
//! is_sync::<cf_mem::Registry>();
//! ```
//! ```compile_fail,E0277
//! fn is_send<T: Send>() {}
//! is_send::<cf_mem::region::Region>();
//! ```
//! ```compile_fail,E0277
//! fn is_sync<T: Sync>() {}
//! is_sync::<cf_mem::region::Region>();
//! ```
//!
//! while the same probes accept what a metrics thread holds:
//!
//! ```
//! fn is_send_and_sync<T: Send + Sync>() {}
//! is_send_and_sync::<cf_mem::MemStats>();
//! is_send_and_sync::<cf_mem::ArenaStats>();
//! ```
//!
//! # Unsafe policy
//!
//! This crate is the workspace's unsafe boundary: it manages raw memory that
//! is referenced at once by the application, the serialization layer, and
//! the simulated NIC — all on one thread. All `unsafe` blocks carry
//! `// SAFETY:` comments; everything above this crate is safe code.

pub mod arena;
pub mod pool;
pub mod rcbuf;
pub mod region;
pub mod registry;
pub mod stats;
mod zeroed;

pub use arena::{Arena, ArenaBytes};
pub use pool::{AllocError, PinnedPool, PoolConfig};
pub use rcbuf::RcBuf;
pub use registry::Registry;
pub use stats::{ArenaStats, MemStats};

//! Simulated scatter-gather NIC.
//!
//! The paper's datapaths drive Mellanox ConnectX-5/6 and Intel E810 NICs
//! directly (custom OFED / ICE driver bindings, §4). This crate replaces the
//! hardware with a functional simulation that preserves the properties the
//! serialization stack depends on:
//!
//! - **Scatter-gather transmit** ([`nic::Nic::post_tx`]): a transmit
//!   descriptor carries up to `max_sg_entries` buffer references; the
//!   simulated DMA engine *really gathers* the referenced bytes into one
//!   contiguous frame delivered to the peer, so correctness of zero-copy
//!   serialization is end-to-end testable.
//! - **Asynchronous completions**: posted buffers ([`cf_mem::RcBuf`]s) stay
//!   referenced until the application polls the completion queue, which is
//!   what makes use-after-free protection observable.
//! - **Per-NIC limits and costs** ([`cf_sim::NicModel`]): the Intel E810
//!   supports only 8 scatter-gather entries per descriptor; per-entry
//!   descriptor costs differ slightly (Figure 10 reproduces the threshold's
//!   insensitivity to this).
//! - **RX into pinned buffers**: received frames land in pool-allocated
//!   `RcBuf`s, mirroring DMA into pre-posted receive descriptors. When the
//!   pool is exhausted, frames are dropped and counted
//!   ([`nic::NicStats::rx_nobuf_drops`]) — receive-descriptor starvation,
//!   never a panic.
//! - **Checksum offload** ([`frame::Frame::seal`]): every gathered frame
//!   carries a CRC32 FCS so receivers detect wire corruption.
//! - **Deterministic fault injection** ([`fault::FaultPlan`],
//!   [`frame::Port::install_faults`]): seeded drop / duplicate / reorder /
//!   corrupt / delay schedules on either wire direction, replacing manual
//!   queue poking in tests.
//!
//! CPU cost accounting: posting charges the per-entry descriptor cost for
//! every entry after the first (the first rides in the base per-packet
//! cost); the gather itself is NIC-side PCIe work, not CPU time, and is not
//! charged to the virtual clock.

// The crate's one `unsafe` is the feature-detected call into the
// carry-less-multiply CRC kernel (`fcs::update`).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod fault;
mod fcs;
pub mod frame;
pub mod hub;
pub mod nic;
pub mod rss;
pub mod switch;

pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use frame::{fcs_ok, frame_fcs, link, Frame, Port, FCS_OFFSET};
pub use hub::{HubStats, PortHub};
pub use nic::{frame_req_id, Nic, NicError, NicStats};
pub use rss::{
    frame_ports, toeplitz_hash, RssConfig, DEFAULT_RSS_KEY, RSS_KEY_LEN, RSS_TABLE_SIZE,
};
pub use switch::{SimSwitch, SwitchStats};

/// Maximum simulated frame size: a jumbo frame (paper §2.1).
pub const MAX_FRAME: usize = 9000;

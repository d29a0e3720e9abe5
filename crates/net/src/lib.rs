//! Networking stacks co-designed with the Cornflakes serialization library.
//!
//! The paper's central API (Listing 2) is a networking stack that
//! *understands serialization objects*: `send_object` accepts any
//! [`cornflakes_core::CornflakesObj`] and finishes serialization while
//! building the transmit descriptor — writing the object header and copied
//! fields into one DMA buffer and posting zero-copy fields as additional
//! scatter-gather entries. No intermediate scatter-gather array is
//! materialized (combined serialize-and-send, §3.2.3); the ablation path
//! [`udp::UdpStack::send_object_sga`] materializes one, reproducing the
//! Table 5 comparison.
//!
//! Two transports are provided, sharing one object gather:
//!
//! - [`udp::UdpStack`] — the main datapath, modeled on the paper's custom
//!   UDP stack over Mellanox/Intel drivers.
//! - [`tcp::TcpStack`] — a small TCP ("Demikernel-style") stack with
//!   sequence numbers, cumulative ACKs, and timeout retransmission. Its
//!   retransmission queue holds `RcBuf` references, extending the
//!   use-after-free guarantee to "until ACKed", not merely "until DMA'd"
//!   (§6.2.3). [`flow::TcpListener`] serves many such connections from a
//!   bounded slab; both run the same per-connection state machine.

#![forbid(unsafe_code)]

mod conn;
pub mod flow;
mod gather;
pub mod header;
pub mod tcp;
pub mod udp;

pub use flow::{
    FlowConfig, FlowId, ListenerStats, TcpListener, FLOW_CLOSE_FIN, FLOW_CLOSE_LOCAL,
    FLOW_CLOSE_REAP, FLOW_CLOSE_RST,
};
pub use header::{FrameMeta, PacketHeader, HEADER_BYTES};
pub use tcp::TcpStack;
pub use udp::{NetError, Packet, UdpStack};

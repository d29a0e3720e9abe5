//! The TCP-served key-value server: the request engine of
//! [`crate::server`] behind a [`TcpListener`] flow table instead of a UDP
//! stack.
//!
//! The paper's TCP integration (§6.2.3) shows Cornflakes's zero-copy
//! guarantee extending to "until ACKed"; this module extends it to *many*
//! connections at once, with every flow's state drawn from the listener's
//! bounded slab. Responses use the combined serialize-and-send gather:
//! store segments ride as zero-copy scatter-gather entries that stay
//! referenced in the flow's retransmission queue until the client's
//! cumulative ACK releases them.
//!
//! Stream framing: the transport length-prefixes each message; inside, an
//! 8-byte sub-header `[msg_type u8 | flags u8 | pad u16 | req_id u32 LE]`
//! stands in for the UDP frame header's application fields, followed by a
//! serialized [`crate::msgs::GetMsg`] (replies always carry one, with the
//! request id in `id`, exactly as over UDP).
//!
//! What TCP does not take from the engine: put dedup (each connection
//! numbers its requests from 1 and the transport already delivers exactly
//! once, so the window is sized 0), admission control, and the header's
//! version slot (the sub-header has none; nothing reads versions over TCP).

use cf_mem::RcBuf;
use cf_net::{FlowId, NetError, TcpListener, TcpStack};
use cornflakes_core::obj::serialize_into;

use crate::codec::{CornflakesCodec, KvCodec};
use crate::engine::KvEngine;
use crate::msg_type;
use crate::server::SerKind;

/// Bytes of the per-message application sub-header.
pub const TCP_SUBHDR_BYTES: usize = 8;

/// Builds the application sub-header.
pub fn sub_header(mtype: u8, fl: u8, req_id: u32) -> [u8; TCP_SUBHDR_BYTES] {
    let mut h = [0u8; TCP_SUBHDR_BYTES];
    h[0] = mtype;
    h[1] = fl;
    h[4..8].copy_from_slice(&req_id.to_le_bytes());
    h
}

/// Parses a sub-header: `(msg_type, flags, req_id)`; `None` on runts.
pub fn parse_sub_header(b: &[u8]) -> Option<(u8, u8, u32)> {
    let [msg_type, flags, _, _, id @ ..] = *b.first_chunk::<TCP_SUBHDR_BYTES>()?;
    Some((msg_type, flags, u32::from_le_bytes(id)))
}

/// A key-value server multiplexing Cornflakes-serialized requests over a
/// bounded TCP flow table (`stack` is the listener).
pub type TcpKvServer = KvEngine<TcpListener>;

impl KvEngine<TcpListener> {
    /// Creates a server over `listener`, counting as `kv.tcp.*`.
    pub fn new(listener: TcpListener) -> Self {
        Self::over(listener, SerKind::Cornflakes, "tcp", 0)
    }

    /// Pumps the transport and serves every complete buffered request.
    /// Call each scheduling quantum.
    pub fn poll(&mut self) -> Result<(), NetError> {
        self.stack.poll()?;
        loop {
            match self.stack.recv_from() {
                Ok(Some((flow, msg))) => self.handle(flow, &msg),
                // Pool pressure: leave the message queued and retry next
                // poll once replies release buffers (backpressure).
                Ok(None) | Err(NetError::RxPoolExhausted) => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Serves one stream message: a sub-header, then a request for the
    /// shared handler. A reply the flow cannot take (gone, retransmission
    /// queue full, no transmit buffer) is counted, as over UDP.
    fn handle(&mut self, flow: FlowId, msg: &RcBuf) {
        self.counters.requests.inc();
        self.counters.bytes_in.add(msg.len() as u64);
        let Some((mtype, _, req_id)) = parse_sub_header(msg.as_slice()) else {
            self.counters.malformed_drops.inc();
            return;
        };
        let payload = msg.slice(TCP_SUBHDR_BYTES, msg.len() - TCP_SUBHDR_BYTES);
        let mut codec = std::mem::take(&mut self.codecs.cornflakes);
        let served = self.serve(
            &mut codec,
            mtype,
            req_id,
            &payload,
            |listener, codec, reply_flags, _version, reply| {
                let sub = sub_header(mtype | msg_type::RESPONSE, reply_flags, req_id);
                let sent = listener.send_object_to(flow, &sub, &reply);
                codec.recycle(reply);
                matches!(sent, Ok(true))
            },
        );
        self.codecs.cornflakes = codec;
        if served.is_err() {
            self.counters.malformed_drops.inc();
        }
    }
}

/// A decoded server reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpReply {
    /// Response message type (request type | `RESPONSE`).
    pub msg_type: u8,
    /// Reply flags (e.g. [`crate::flags::DEGRADED`]).
    pub flags: u8,
    /// Echoed request id.
    pub req_id: u32,
    /// Returned value segments (gets; empty for put acks).
    pub vals: Vec<Vec<u8>>,
}

/// A well-behaved TCP client: one [`TcpStack`] connection, Cornflakes
/// request encoding (built contiguously, since the client side sends with
/// `send_bytes` — the server side is where zero-copy matters).
#[derive(Debug)]
pub struct TcpKvClient {
    /// The client's connection.
    pub stack: TcpStack,
    codec: CornflakesCodec,
    enc: Vec<u8>,
    next_req_id: u32,
}

impl TcpKvClient {
    /// Creates a client over `stack` (connect it via [`TcpKvClient::connect`]).
    pub fn new(stack: TcpStack) -> Self {
        TcpKvClient {
            stack,
            codec: CornflakesCodec::default(),
            enc: Vec::with_capacity(4096),
            next_req_id: 1,
        }
    }

    /// Initiates the handshake to `remote_port`.
    pub fn connect(&mut self, remote_port: u16) -> Result<(), NetError> {
        self.stack.connect(remote_port)
    }

    /// Pumps the connection's segments and timers.
    pub fn poll(&mut self) -> Result<(), NetError> {
        self.stack.poll()
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.stack.is_established()
    }

    /// Sends one request; returns its id.
    fn request(&mut self, mtype: u8, keys: &[&[u8]], vals: &[&[u8]]) -> Result<u32, NetError> {
        let req_id = self.next_req_id;
        self.next_req_id = self.next_req_id.wrapping_add(1);
        let ctx = self.stack.ctx();
        let mut req = self.codec.begin(None);
        for k in keys {
            req.add_keys(ctx, k);
        }
        for v in vals {
            req.add_vals(ctx, v);
        }
        self.enc.clear();
        self.enc.extend_from_slice(&sub_header(mtype, 0, req_id));
        serialize_into(&req, &mut self.enc);
        self.codec.recycle(req);
        ctx.end_request();
        self.stack.send_bytes(&self.enc).map(|()| req_id)
    }

    /// Sends a put; returns the request id to match against replies.
    pub fn put(&mut self, key: &[u8], val: &[u8]) -> Result<u32, NetError> {
        self.request(msg_type::PUT, &[key], &[val])
    }

    /// Sends a (multi-)get; returns the request id.
    pub fn get(&mut self, keys: &[&[u8]]) -> Result<u32, NetError> {
        self.request(msg_type::GET, keys, &[])
    }

    /// Pops the next complete reply, if any.
    pub fn recv_reply(&mut self) -> Result<Option<TcpReply>, NetError> {
        let Some(msg) = self.stack.recv_msg()? else {
            return Ok(None);
        };
        let Some((mtype, fl, req_id)) = parse_sub_header(msg.as_slice()) else {
            return Ok(None); // malformed reply: drop
        };
        let mut vals = Vec::new();
        let payload = msg.slice(TCP_SUBHDR_BYTES, msg.len() - TCP_SUBHDR_BYTES);
        if let Ok(resp) = self.codec.decode(self.stack.ctx(), &payload) {
            vals.extend(resp.vals.iter().map(|v| v.as_slice().to_vec()));
            self.codec.recycle(resp);
        }
        Ok(Some(TcpReply {
            msg_type: mtype,
            flags: fl,
            req_id,
            vals,
        }))
    }
}

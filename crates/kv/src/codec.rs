//! One [`KvCodec`] per serializer: all that the request engine, the client
//! and the echo server know about a serialization format.
//!
//! Every message these applications exchange has the paper's GetM shape
//! (`id`, `keys`, `vals`). A codec decodes a payload into a borrowed view of
//! that shape ([`GetM`]), builds one field by field, and puts the built
//! message on a [`UdpStack`] through the network API that minimizes that
//! library's copies (paper §6.1.3): Cornflakes hands the object to the
//! combined serialize-and-send; Protobuf encodes from its structs into the
//! DMA buffer; FlatBuffers stages its builder buffer; Cap'n Proto stages its
//! segment list. The PUT / GET_SEGMENT / GET logic lives once, in
//! [`crate::engine::KvEngine`], generic over this trait.

use cf_baselines::capnlite::{CapnGetM, CapnReader};
use cf_baselines::flatlite::{FlatGetM, FlatGetMView};
use cf_baselines::protolite::PGetM;
use cf_mem::RcBuf;
use cf_net::{NetError, PacketHeader, UdpStack, HEADER_BYTES};
use cf_sim::cost::Category;
use cornflakes_core::{CFBytes, CornflakesObj, SerCtx};

use crate::msgs::GetMsg;

/// Why a request is dropped without a reply: the payload did not decode, a
/// segment fetch named no key, or a put lacked its key or value. Counted
/// once per request as `malformed_drops`.
#[derive(Debug)]
pub(crate) struct Malformed;

/// A decoded GetM-shaped message.
pub(crate) trait GetM {
    /// The `id` field: a segment index in requests, the echoed request id
    /// in replies.
    fn id(&self) -> Option<u32>;
    fn keys(&self) -> impl Iterator<Item = &[u8]>;
    fn vals(&self) -> impl Iterator<Item = &[u8]>;
}

/// A serialization format, as the GetM-shaped applications use it.
pub(crate) trait KvCodec {
    /// A decoded message; borrows the payload unless the library copies
    /// fields out.
    type Decoded<'p>: GetM;
    /// A message under construction; borrows the fields added to it unless
    /// the library copies them in.
    type Builder<'f>;

    /// Decodes `payload`, charging the library's deserialization costs.
    fn decode<'p>(
        &mut self,
        ctx: &SerCtx,
        payload: &'p RcBuf,
    ) -> Result<Self::Decoded<'p>, Malformed>;

    /// Takes back a message the caller is done with.
    fn recycle(&mut self, _msg: Self::Decoded<'_>) {}

    /// Starts a message with the given `id` field.
    fn begin<'f>(&mut self, id: Option<u32>) -> Self::Builder<'f>;

    fn add_key<'f>(ctx: &SerCtx, msg: &mut Self::Builder<'f>, key: &'f [u8]);

    fn add_val<'f>(ctx: &SerCtx, msg: &mut Self::Builder<'f>, val: &'f [u8]);

    /// Appends one segment of a stored value to `vals`.
    fn add_segment<'f>(ctx: &SerCtx, msg: &mut Self::Builder<'f>, seg: &'f RcBuf) {
        Self::add_val(ctx, msg, seg.as_slice());
    }

    /// Finishes `msg` and transmits it under `hdr`.
    fn send(
        &mut self,
        stack: &mut UdpStack,
        hdr: PacketHeader,
        msg: Self::Builder<'_>,
    ) -> Result<(), NetError>;

    /// Builds a message from borrowed fields and transmits it.
    fn send_fields<'f>(
        &mut self,
        stack: &mut UdpStack,
        hdr: PacketHeader,
        id: Option<u32>,
        keys: impl Iterator<Item = &'f [u8]>,
        vals: impl Iterator<Item = &'f [u8]>,
    ) -> Result<(), NetError> {
        let mut msg = self.begin(id);
        for k in keys {
            Self::add_key(stack.ctx(), &mut msg, k);
        }
        for v in vals {
            Self::add_val(stack.ctx(), &mut msg, v);
        }
        self.send(stack, hdr, msg)
    }

    /// Decodes a reply, copying its values into `vals`; returns its `id`.
    /// The buffers already in `vals` are reused, then those in `spare`,
    /// and buffers `vals` no longer needs move to `spare`.
    fn read_reply(
        &mut self,
        ctx: &SerCtx,
        payload: &RcBuf,
        vals: &mut Vec<Vec<u8>>,
        spare: &mut Vec<Vec<u8>>,
    ) -> Result<Option<u32>, Malformed> {
        let msg = self.decode(ctx, payload)?;
        let mut n = 0;
        for data in msg.vals() {
            if n == vals.len() {
                vals.push(spare.pop().unwrap_or_default());
            }
            vals[n].clear();
            vals[n].extend_from_slice(data);
            n += 1;
        }
        spare.extend(vals.drain(n..));
        let id = msg.id();
        self.recycle(msg);
        Ok(id)
    }

    /// Decodes the key and value of a put-style payload.
    fn decode_put(&mut self, ctx: &SerCtx, payload: &RcBuf) -> Option<(Vec<u8>, Vec<u8>)> {
        let msg = self.decode(ctx, payload).ok()?;
        let kv = msg.keys().next().zip(msg.vals().next());
        let kv = kv.map(|(k, v)| (k.to_vec(), v.to_vec()));
        self.recycle(msg);
        kv
    }

    /// Reserializes the `id` and values of a decoded message and transmits
    /// them (the echo server).
    fn echo(
        &mut self,
        stack: &mut UdpStack,
        hdr: PacketHeader,
        req: Self::Decoded<'_>,
    ) -> Result<(), NetError> {
        let sent = self.send_fields(stack, hdr, req.id(), std::iter::empty(), req.vals());
        self.recycle(req);
        sent
    }
}

/// The codec state a front-end keeps between requests.
#[derive(Debug, Default)]
pub(crate) struct Codecs {
    pub cornflakes: CornflakesCodec,
    pub protobuf: ProtobufCodec,
    pub flatbuffers: FlatBuffersCodec,
    pub capnproto: CapnProtoCodec,
}

/// Runs `$body` with `$codec` bound to the codec of `$kind`: the one place
/// a [`crate::server::SerKind`] picks its format.
macro_rules! with_codec {
    ($kind:expr, $codecs:expr, |$codec:ident| $body:expr) => {
        match $kind {
            $crate::server::SerKind::Cornflakes => {
                let $codec = &mut $codecs.cornflakes;
                $body
            }
            $crate::server::SerKind::Protobuf => {
                let $codec = &mut $codecs.protobuf;
                $body
            }
            $crate::server::SerKind::FlatBuffers => {
                let $codec = &mut $codecs.flatbuffers;
                $body
            }
            $crate::server::SerKind::CapnProto => {
                let $codec = &mut $codecs.capnproto;
                $body
            }
        }
    };
}
pub(crate) use with_codec;

/// Transmits `prefix` followed by `bufs`, a library's heap buffers, each
/// staged into the DMA buffer by a charged (warm) copy.
fn send_staged<B: AsRef<[u8]>>(
    stack: &mut UdpStack,
    hdr: PacketHeader,
    prefix: &[u8],
    bufs: &[B],
) -> Result<(), NetError> {
    let len = prefix.len() + bufs.iter().map(|b| b.as_ref().len()).sum::<usize>();
    let mut tx = stack.alloc_tx(len)?;
    tx.write_at(HEADER_BYTES, prefix);
    let mut off = HEADER_BYTES + prefix.len();
    for buf in bufs {
        let buf = buf.as_ref();
        stack.sim().charge_memcpy(
            Category::SerializeCopy,
            buf.as_ptr() as u64,
            tx.addr() + off as u64,
            buf.len(),
        );
        tx.write_at(off, buf);
        off += buf.len();
    }
    stack.send_built(hdr, tx, len)
}

// ---- Cornflakes ----------------------------------------------------------

/// Cornflakes: messages decode in place into, and are rebuilt in, recycled
/// scratch messages, so list capacities persist across requests and a warm
/// endpoint encodes and decodes without heap allocation.
#[derive(Debug, Default)]
pub(crate) struct CornflakesCodec {
    /// Emptied messages, most recently recycled last. A request and its
    /// reply come back in the order they were taken, so each keeps its
    /// role and the list capacity it grew in it.
    spare: Vec<GetMsg>,
}

impl GetM for GetMsg {
    fn id(&self) -> Option<u32> {
        self.id.map(|i| i as u32)
    }
    fn keys(&self) -> impl Iterator<Item = &[u8]> {
        self.keys.iter().map(CFBytes::as_slice)
    }
    fn vals(&self) -> impl Iterator<Item = &[u8]> {
        self.vals.iter().map(CFBytes::as_slice)
    }
}

impl KvCodec for CornflakesCodec {
    type Decoded<'p> = GetMsg;
    type Builder<'f> = GetMsg;

    fn decode(&mut self, ctx: &SerCtx, payload: &RcBuf) -> Result<GetMsg, Malformed> {
        let mut req = self.spare.pop().unwrap_or_default();
        let decoded = req.deserialize_into(ctx, payload);
        if decoded.is_err() {
            self.recycle(req);
            return Err(Malformed);
        }
        Ok(req)
    }

    /// Drops the message's buffer references (releasing the rx frame and
    /// any store segments they pin) but keeps its list capacities.
    fn recycle(&mut self, mut msg: GetMsg) {
        msg.id = None;
        msg.keys.clear();
        msg.vals.clear();
        self.spare.push(msg);
    }

    fn begin<'f>(&mut self, id: Option<u32>) -> Self::Builder<'f> {
        let mut msg = self.spare.pop().unwrap_or_default();
        msg.id = id.map(|i| i as i32);
        msg
    }

    fn add_key(ctx: &SerCtx, msg: &mut GetMsg, key: &[u8]) {
        msg.add_keys(ctx, key);
    }

    fn add_val(ctx: &SerCtx, msg: &mut GetMsg, val: &[u8]) {
        msg.add_vals(ctx, val);
    }

    /// Under [`cornflakes_core::SerializationConfig::raw_scatter_gather`] the segment is
    /// posted as is: no `recover_ptr`, no charged refcount (the measurement
    /// study's upper bound, §2.4).
    fn add_segment(ctx: &SerCtx, msg: &mut GetMsg, seg: &RcBuf) {
        if ctx.config.raw_scatter_gather {
            msg.get_mut_vals().append(CFBytes::from_rcbuf(seg.clone()));
        } else {
            msg.add_vals(ctx, seg.as_slice());
        }
    }

    fn send(
        &mut self,
        stack: &mut UdpStack,
        hdr: PacketHeader,
        msg: GetMsg,
    ) -> Result<(), NetError> {
        let sent = if stack.ctx().config.serialize_and_send {
            stack.send_object(hdr, &msg)
        } else {
            stack.send_object_sga(hdr, &msg)
        };
        self.recycle(msg);
        sent
    }
}

// ---- Protobuf baseline ----------------------------------------------------

/// Protobuf: decoding copies every field into an owned struct; encoding
/// goes from the struct directly into DMA-safe memory. Structs are recycled
/// with their field buffers, so a warm endpoint does not touch the host
/// allocator; the library's allocations are still charged.
#[derive(Debug, Default)]
pub(crate) struct ProtobufCodec {
    /// Emptied messages, most recently recycled last (as
    /// [`CornflakesCodec`]'s, so each keeps its role).
    spare: Vec<PGetM>,
}

impl GetM for PGetM {
    fn id(&self) -> Option<u32> {
        self.id
    }
    fn keys(&self) -> impl Iterator<Item = &[u8]> {
        self.keys.iter().map(Vec::as_slice)
    }
    fn vals(&self) -> impl Iterator<Item = &[u8]> {
        self.vals.iter().map(Vec::as_slice)
    }
}

impl KvCodec for ProtobufCodec {
    type Decoded<'p> = PGetM;
    type Builder<'f> = PGetM;

    fn decode(&mut self, ctx: &SerCtx, payload: &RcBuf) -> Result<PGetM, Malformed> {
        let mut msg = self.spare.pop().unwrap_or_default();
        if msg.decode_into(&ctx.sim, payload).is_err() {
            self.recycle(msg);
            return Err(Malformed);
        }
        Ok(msg)
    }

    fn recycle(&mut self, mut msg: PGetM) {
        msg.clear();
        self.spare.push(msg);
    }

    fn begin<'f>(&mut self, id: Option<u32>) -> Self::Builder<'f> {
        let mut msg = self.spare.pop().unwrap_or_default();
        msg.id = id;
        msg
    }

    fn add_key(ctx: &SerCtx, msg: &mut PGetM, key: &[u8]) {
        msg.add_key(&ctx.sim, key);
    }

    fn add_val(ctx: &SerCtx, msg: &mut PGetM, val: &[u8]) {
        msg.add_val(&ctx.sim, val);
    }

    fn send(
        &mut self,
        stack: &mut UdpStack,
        hdr: PacketHeader,
        msg: PGetM,
    ) -> Result<(), NetError> {
        let len = msg.encoded_len();
        let sent = stack.alloc_tx(len).and_then(|mut tx| {
            let mut at = HEADER_BYTES;
            msg.encode_into(stack.sim(), tx.addr() + HEADER_BYTES as u64, |bytes| {
                tx.write_at(at, bytes);
                at += bytes.len();
            });
            stack.send_built(hdr, tx, len)
        });
        self.recycle(msg);
        sent
    }

    /// The decoded struct already owns its values: swap them for the
    /// buffers in `vals`, which the struct keeps for its next decode.
    fn read_reply(
        &mut self,
        ctx: &SerCtx,
        payload: &RcBuf,
        vals: &mut Vec<Vec<u8>>,
        _spare: &mut Vec<Vec<u8>>,
    ) -> Result<Option<u32>, Malformed> {
        let mut msg = self.decode(ctx, payload)?;
        std::mem::swap(vals, &mut msg.vals);
        let id = msg.id;
        self.recycle(msg);
        Ok(id)
    }

    /// The decoded struct is the message to send: re-encode it as it is.
    fn echo(
        &mut self,
        stack: &mut UdpStack,
        hdr: PacketHeader,
        req: PGetM,
    ) -> Result<(), NetError> {
        self.send(stack, hdr, req)
    }
}

// ---- FlatBuffers baseline --------------------------------------------------

/// FlatBuffers: reads are views into the payload; the builder copies fields
/// into its heap buffer (cold), which is then staged into DMA memory (warm).
/// The builder and the field-slice vectors it is fed are kept between
/// messages.
#[derive(Debug, Default)]
pub(crate) struct FlatBuffersCodec {
    builder: FlatGetM,
    spare: SpareFields,
}

/// A message as borrowed field slices: what the FlatBuffers one-shot
/// encoder takes, and what resolving a Cap'n Proto reader's lists yields.
pub(crate) struct Fields<'a> {
    id: Option<u32>,
    keys: Vec<&'a [u8]>,
    vals: Vec<&'a [u8]>,
}

impl GetM for Fields<'_> {
    fn id(&self) -> Option<u32> {
        self.id
    }
    fn keys(&self) -> impl Iterator<Item = &[u8]> {
        self.keys.iter().copied()
    }
    fn vals(&self) -> impl Iterator<Item = &[u8]> {
        self.vals.iter().copied()
    }
}

/// The slice vectors of a [`Fields`], kept between messages with a
/// `'static` tag but always empty — see [`recycle_slices`].
#[derive(Debug, Default)]
struct SpareFields {
    keys: Vec<&'static [u8]>,
    vals: Vec<&'static [u8]>,
}

impl SpareFields {
    fn take<'a>(&mut self, id: Option<u32>) -> Fields<'a> {
        Fields {
            id,
            keys: std::mem::take(&mut self.keys),
            vals: std::mem::take(&mut self.vals),
        }
    }

    fn put(&mut self, msg: Fields<'_>) {
        self.keys = recycle_slices(msg.keys);
        self.vals = recycle_slices(msg.vals);
    }
}

/// Recycles a slice-scratch vector for storage between messages: emptied,
/// then retagged `'static` so it can live in the codec. The retagging is a
/// collect over the empty vector, which std runs in place (same element
/// layout), so the allocation is kept (`tests/hotpath_zero_alloc.rs` would
/// count a fresh one per message). Taking it back out needs nothing —
/// `Vec` is covariant, so the `'static` tag shortens to the next message's
/// lifetime implicitly.
fn recycle_slices(mut v: Vec<&[u8]>) -> Vec<&'static [u8]> {
    v.clear();
    v.into_iter().map(|_| -> &'static [u8] { &[] }).collect()
}

impl GetM for FlatGetMView<'_> {
    fn id(&self) -> Option<u32> {
        FlatGetMView::id(self).ok().flatten()
    }
    fn keys(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.keys_len().unwrap_or(0)).filter_map(|i| self.key(i).ok())
    }
    fn vals(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.vals_len().unwrap_or(0)).filter_map(|i| self.val(i).ok())
    }
}

impl KvCodec for FlatBuffersCodec {
    type Decoded<'p> = FlatGetMView<'p>;
    type Builder<'f> = Fields<'f>;

    fn decode<'p>(
        &mut self,
        ctx: &SerCtx,
        payload: &'p RcBuf,
    ) -> Result<FlatGetMView<'p>, Malformed> {
        let view = FlatGetMView::parse(&ctx.sim, payload.as_slice()).map_err(|_| Malformed)?;
        // `parse` walks both lists; the id slot is the one field it leaves
        // unchecked.
        FlatGetMView::id(&view).map_err(|_| Malformed)?;
        Ok(view)
    }

    fn begin<'f>(&mut self, id: Option<u32>) -> Self::Builder<'f> {
        self.spare.take(id)
    }

    fn add_key<'f>(_ctx: &SerCtx, msg: &mut Fields<'f>, key: &'f [u8]) {
        msg.keys.push(key);
    }

    fn add_val<'f>(_ctx: &SerCtx, msg: &mut Fields<'f>, val: &'f [u8]) {
        msg.vals.push(val);
    }

    fn send(
        &mut self,
        stack: &mut UdpStack,
        hdr: PacketHeader,
        msg: Fields<'_>,
    ) -> Result<(), NetError> {
        let built = self
            .builder
            .build(stack.sim(), msg.id, &msg.keys, &msg.vals);
        self.spare.put(msg);
        send_staged(stack, hdr, &[], &[built])
    }
}

// ---- Cap'n Proto baseline ---------------------------------------------------

/// Cap'n Proto: reads are views into the payload's segments; the builder
/// yields a non-contiguous segment list, and the stack stages each heap
/// segment into the DMA buffer (warm copies). Builders, resolved lists and
/// the segment tables are kept between messages.
#[derive(Debug, Default)]
pub(crate) struct CapnProtoCodec {
    /// Reset builders, most recently recycled last.
    builders: Vec<CapnGetM>,
    lists: SpareFields,
    /// A reader's segment bounds.
    segs: Vec<(usize, usize)>,
    /// The framing table of the message being sent.
    table: Vec<u8>,
}

impl KvCodec for CapnProtoCodec {
    type Decoded<'p> = Fields<'p>;
    type Builder<'f> = CapnGetM;

    fn decode<'p>(&mut self, ctx: &SerCtx, payload: &'p RcBuf) -> Result<Fields<'p>, Malformed> {
        let sim = &ctx.sim;
        let reader = CapnReader::parse_with(sim, payload.as_slice(), &mut self.segs)
            .map_err(|_| Malformed)?;
        let mut msg = self.lists.take(None);
        // An absent list is a null pointer and costs nothing to resolve, so
        // a GET pays for its keys only and a reply for its values only.
        let resolved = reader
            .keys_into(sim, &mut msg.keys)
            .and_then(|()| reader.vals_into(sim, &mut msg.vals))
            .and_then(|()| reader.id());
        self.segs = reader.into_scratch();
        match resolved {
            Ok(id) => {
                msg.id = id;
                Ok(msg)
            }
            Err(_) => {
                self.lists.put(msg);
                Err(Malformed)
            }
        }
    }

    fn recycle(&mut self, msg: Fields<'_>) {
        self.lists.put(msg);
    }

    fn begin<'f>(&mut self, id: Option<u32>) -> Self::Builder<'f> {
        let mut msg = self.builders.pop().unwrap_or_default();
        if let Some(id) = id {
            msg.set_id(id);
        }
        msg
    }

    fn add_key(ctx: &SerCtx, msg: &mut CapnGetM, key: &[u8]) {
        msg.add_key(&ctx.sim, key);
    }

    fn add_val(ctx: &SerCtx, msg: &mut CapnGetM, val: &[u8]) {
        msg.add_val(&ctx.sim, val);
    }

    fn send(
        &mut self,
        stack: &mut UdpStack,
        hdr: PacketHeader,
        mut msg: CapnGetM,
    ) -> Result<(), NetError> {
        let segments = msg.finish_in_place(stack.sim());
        // Frame table first (small), then per-segment staging.
        CapnGetM::segment_table(segments, &mut self.table);
        let sent = send_staged(stack, hdr, &self.table, segments);
        msg.reset();
        self.builders.push(msg);
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_mem::PoolConfig;
    use cf_net::FrameMeta;
    use cf_nic::{link, Port};
    use cf_sim::{MachineProfile, Sim};
    use cornflakes_core::SerializationConfig;

    /// `(id, keys, vals)`, copied out of a decoded message.
    type Owned = (Option<u32>, Vec<Vec<u8>>, Vec<Vec<u8>>);
    /// `(id, keys, vals)` to send.
    type Shape<'a> = (Option<u32>, &'a [&'a [u8]], &'a [&'a [u8]]);

    fn stack(end: Port, port: u16) -> UdpStack {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let config = SerializationConfig::hybrid();
        UdpStack::with_pool_config(sim, end, port, config, PoolConfig::small_for_tests())
    }

    /// What `codec` decodes from `payload`; the message goes back to it.
    fn decoded<C: KvCodec>(codec: &mut C, ctx: &SerCtx, payload: &RcBuf) -> Option<Owned> {
        let msg = codec.decode(ctx, payload).ok()?;
        let keys = msg.keys().map(<[u8]>::to_vec).collect();
        let owned = (msg.id(), keys, msg.vals().map(<[u8]>::to_vec).collect());
        codec.recycle(msg);
        Some(owned)
    }

    /// Sends a run of message shapes through one long-lived codec and
    /// decodes each one intact, cut short and corrupted with another, and
    /// with a fresh codec: no field of an earlier message may show, and a
    /// failed decode must leave nothing behind for the next.
    fn recycled_codec_decodes_like_a_fresh_one<C: KvCodec + Default>() {
        let (a, b) = link();
        let (mut tx, mut rx) = (stack(a, 4000), stack(b, 9000));
        let (mut sender, mut reused) = (C::default(), C::default());
        let big = vec![7u8; 2500];
        let shapes: [Shape; 5] = [
            (None, &[b"key-a", b"key-bb", b"k"], &[]),
            (Some(7), &[], &[&big, b"small", &big]),
            (None, &[b"put-key"], &[b"put-value"]),
            (Some(1), &[], &[]),
            (Some(0), &[b"x"], &[&big[..100]]),
        ];
        for round in 0..3 {
            for (i, &(id, keys, vals)) in shapes.iter().enumerate() {
                let meta = FrameMeta {
                    msg_type: 0,
                    flags: 0,
                    req_id: 1,
                };
                let hdr = tx.header_to(9000, meta);
                let (k, v) = (keys.iter().copied(), vals.iter().copied());
                sender.send_fields(&mut tx, hdr, id, k, v).expect("sent");
                let pkt = rx.recv_packet().expect("delivered");
                let intact = pkt.payload.as_slice();
                let want = (
                    id,
                    keys.iter().map(|k| k.to_vec()).collect(),
                    vals.iter().map(|v| v.to_vec()).collect(),
                );
                assert_eq!(decoded(&mut reused, rx.ctx(), &pkt.payload), Some(want));
                let mut corrupt = intact.to_vec();
                corrupt[(31 * i + 7 * round) % intact.len()] ^= 0xFF;
                for bytes in [&intact[..intact.len() / 2], &corrupt] {
                    let mut payload = rx.ctx().pool.alloc(bytes.len()).expect("pool slot");
                    payload.write_at(0, bytes);
                    payload.truncate(bytes.len());
                    let fresh = decoded(&mut C::default(), rx.ctx(), &payload);
                    assert_eq!(decoded(&mut reused, rx.ctx(), &payload), fresh);
                }
            }
        }
    }

    #[test]
    fn recycled_cornflakes_codec_decodes_like_a_fresh_one() {
        recycled_codec_decodes_like_a_fresh_one::<CornflakesCodec>();
    }

    #[test]
    fn recycled_protobuf_codec_decodes_like_a_fresh_one() {
        recycled_codec_decodes_like_a_fresh_one::<ProtobufCodec>();
    }

    #[test]
    fn recycled_flatbuffers_codec_decodes_like_a_fresh_one() {
        recycled_codec_decodes_like_a_fresh_one::<FlatBuffersCodec>();
    }

    #[test]
    fn recycled_capnproto_codec_decodes_like_a_fresh_one() {
        recycled_codec_decodes_like_a_fresh_one::<CapnProtoCodec>();
    }
}

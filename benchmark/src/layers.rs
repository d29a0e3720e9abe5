//! Per-layer replays of the traced run.
//!
//! The inner layers cannot be spanned without editing `crates/` (ROADMAP
//! item 1), so the traced run takes the first [`SAMPLE_REQUESTS`] requests
//! of the workload's own stream — its message shapes, sizes and keys —
//! and drives each inner layer's public functions with them in isolation,
//! timing those calls on the host clock. A round trip has two messages
//! (request and reply); unless a metric says otherwise its value is host
//! ns per round trip, both messages together, so the numbers compare
//! directly with `host_ns_per_req`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cf_baselines::capnlite::{CapnGetM, CapnReader};
use cf_baselines::flatlite::{FlatGetM, FlatGetMView};
use cf_baselines::protolite::PGetM;
use cf_kv::client::{CLIENT_PORT, SERVER_PORT};
use cf_kv::msg_type;
use cf_kv::msgs::GetMsg;
use cf_mem::RcBuf;
use cf_net::{FrameMeta, UdpStack, HEADER_BYTES};
use cf_nic::{fcs_ok, frame_fcs, link};
use cf_sim::{Category, MachineProfile, Sim};
use cornflakes_core::obj::{serialize_to_vec, write_full_header};
use cornflakes_core::{CFBytes, CornflakesObj, SerCtx, SerializationConfig};

use crate::fixture::{pool_config, Fixture};
use crate::stats;
use crate::stream::{Workload, MAX_KEYS_PER_REQ};

/// Requests of the stream the replays use.
pub const SAMPLE_REQUESTS: usize = 1_024;
/// Fewest passes over the sample per replay, whatever the budget.
const MIN_PASSES: usize = 3;

/// Repeats `pass` — one pass over the sample, returning the ns spent in
/// each of its `N` timed regions — until `budget` is spent, and returns
/// per region the median over passes of ns per item.
fn passes<const N: usize>(
    budget: Duration,
    items: usize,
    mut pass: impl FnMut() -> [f64; N],
) -> [f64; N] {
    let t0 = Instant::now();
    let mut per_item: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    while per_item[0].len() < MIN_PASSES || t0.elapsed() < budget {
        for (series, ns) in per_item.iter_mut().zip(pass()) {
            series.push(ns / items.max(1) as f64);
        }
    }
    per_item.map(|series| stats::median(&series))
}

/// Times single calls: an `Instant` pair around the call, minus what an
/// empty pair costs on this machine.
#[derive(Clone, Copy)]
struct Lap {
    overhead_ns: f64,
}

impl Lap {
    fn calibrate() -> Lap {
        let mut empty: Vec<f64> = (0..1_001)
            .map(|_| {
                let t0 = Instant::now();
                black_box(());
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        Lap {
            overhead_ns: stats::percentile(stats::sorted(&mut empty), 50.0),
        }
    }

    #[inline]
    fn time<R>(&self, acc: &mut f64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        *acc += (t0.elapsed().as_nanos() as f64 - self.overhead_ns).max(0.0);
        r
    }
}

/// One baseline library's round trip `i`: adds its encode and decode ns.
type RoundTrip<'a> = &'a dyn Fn(usize, &mut [f64; 2]);

/// Host ns per round trip, split by message.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerMessage {
    /// Work on the request message.
    pub request: f64,
    /// Work on the reply message.
    pub reply: f64,
}

impl PerMessage {
    /// Both messages.
    pub fn total(&self) -> f64 {
        self.request + self.reply
    }
}

/// Everything the replays measured; `run` turns it into metric values.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `CFBytes::new` per value field (threshold decision + arena copy or
    /// `recover_ptr`).
    pub cfbytes_new_ns: f64,
    /// Build the Cornflakes message object (fields through `CFBytes::new`).
    pub build_ns: PerMessage,
    /// `write_full_header` of the built object.
    pub header_ns: PerMessage,
    /// In-place decode of the pre-serialised payload.
    pub deserialize_ns: PerMessage,
    /// `CFBytes` fields per round trip (request keys and values, reply
    /// values).
    pub fields_per_req: f64,
    /// Zero-copy scatter-gather entries per round trip.
    pub zc_entries_per_req: f64,
    /// Bytes sent by reference per round trip.
    pub zc_bytes_per_req: f64,
    /// Field bytes copied into the first entry per round trip.
    pub copy_bytes_per_req: f64,
    /// Zero-copy value fields ÷ value fields (replies and PUT requests).
    pub zc_field_ratio: f64,
    /// Encode and decode per round trip for Protobuf, FlatBuffers and
    /// Cap'n Proto, in that order.
    pub baseline_encode_ns: [f64; 3],
    /// See `baseline_encode_ns`.
    pub baseline_decode_ns: [f64; 3],
    /// `UdpStack::send_object` on a bare stack pair.
    pub udp_send_ns: PerMessage,
    /// `UdpStack::recv_packet` on a bare stack pair.
    pub udp_recv_ns: PerMessage,
    /// `Nic::post_tx` + completion poll for the messages' SG shapes.
    pub nic_post_tx_ns: PerMessage,
    /// `Nic::recv_into`.
    pub nic_recv_into_ns: PerMessage,
    /// `frame_fcs` + `fcs_ok` over both frames (seal and verify).
    pub fcs_ns_per_req: f64,
    /// The same work per KiB of frame.
    pub fcs_ns_per_kib: f64,
    /// `PinnedPool::alloc` + free at the workload's value sizes.
    pub pool_alloc_free_ns: f64,
    /// `Registry::recover` + release of a stored value.
    pub recover_ns: f64,
    /// `Arena::copy_in` of a round trip's copied values, then `reset`.
    pub arena_copy_reset_ns: f64,
    /// `Sim::charge` per call.
    pub charge_fixed_ns: f64,
    /// `Sim::charge_memcpy` per call at the workload's mean value size.
    pub charge_memcpy_ns: f64,
    /// `Sim::charge_meta_access` (one modelled-cache line) per call.
    pub cache_access_ns: f64,
    /// `KvStore::get` per call on the stream's GET keys (0 without GETs).
    pub store_get_ns: f64,
    /// `KvStore::put` per call on the stream's PUTs (0 without PUTs).
    pub store_put_ns: f64,
    /// Store calls' ns per round trip (GETs and PUTs weighted by their
    /// share of the sample).
    pub store_ns_per_req: f64,
}

impl Layers {
    /// What the replays explain of `KvServer::poll` per round trip:
    /// receive the request, decode it, the store calls, build the reply,
    /// send it. `kv.server_poll_residual_ns` is the poll span minus this.
    pub fn server_poll_explained_ns(&self) -> f64 {
        self.udp_recv_ns.request
            + self.deserialize_ns.request
            + self.store_ns_per_req
            + self.build_ns.reply
            + self.udp_send_ns.reply
    }
}

/// A bare `UdpStack` pair (no KV) with the sample's values pinned on the
/// replying side, as the store holds them.
struct Rig<'w> {
    w: &'w Workload,
    n: usize,
    a: UdpStack,
    b: UdpStack,
    /// Pinned value of key `j` of request `i` at `i * keys_per_req + j`.
    values: Vec<RcBuf>,
    lap: Lap,
}

fn clear(msg: &mut GetMsg) {
    msg.id = None;
    msg.keys.clear();
    msg.vals.clear();
}

impl<'w> Rig<'w> {
    fn new(w: &'w Workload) -> Rig<'w> {
        let n = SAMPLE_REQUESTS.min(w.stream.len());
        let (pa, pb) = link();
        let hybrid = SerializationConfig::hybrid;
        let profile = MachineProfile::microbench;
        let a = UdpStack::new(Sim::new(profile()), pa, CLIENT_PORT, hybrid());
        let b = UdpStack::with_pool_config(
            Sim::new(profile()),
            pb,
            SERVER_PORT,
            hybrid(),
            pool_config(),
        );
        let values = (0..n)
            .flat_map(|i| w.stream.keys_of(i))
            .map(|&id| {
                let mut buf = b
                    .ctx()
                    .pool
                    .alloc(w.keys.val_len(id) as usize)
                    .expect("pool_config() holds the sample");
                buf.fill(id as u8);
                buf
            })
            .collect();
        Rig {
            w,
            n,
            a,
            b,
            values,
            lap: Lap::calibrate(),
        }
    }

    /// The PUT value of request `i`, if it is a PUT.
    fn put_value(&self, i: usize) -> Option<&'w [u8]> {
        let len = self.w.stream.put_len[i];
        (len != 0).then(|| self.w.put_value(i, len))
    }

    /// The pinned values request `i`'s reply carries (none for a PUT).
    fn reply_values(&self, i: usize) -> &[RcBuf] {
        if self.w.stream.put_len[i] != 0 {
            return &[];
        }
        let k = self.w.stream.keys_per_req;
        &self.values[i * k..(i + 1) * k]
    }

    fn build_request(&self, ctx: &SerCtx, i: usize, msg: &mut GetMsg) {
        let (keys, k) = self.w.key_refs(i);
        for key in &keys[..k] {
            msg.add_keys(ctx, key);
        }
        if let Some(value) = self.put_value(i) {
            msg.add_vals(ctx, value);
        }
    }

    fn build_reply(&self, ctx: &SerCtx, i: usize, msg: &mut GetMsg) {
        msg.id = Some(i as i32);
        for value in self.reply_values(i) {
            msg.get_mut_vals()
                .append(CFBytes::new(ctx, value.as_slice()));
        }
    }

    fn request_meta(&self, i: usize) -> FrameMeta {
        FrameMeta {
            msg_type: if self.w.stream.put_len[i] != 0 {
                msg_type::PUT
            } else {
                msg_type::GET
            },
            flags: 0,
            req_id: i as u32,
        }
    }

    /// cornflakes-core: per-field, per-message build, header write and
    /// decode costs, and the shape counts of the built objects.
    fn core(&self, budget: Duration, out: &mut Layers) {
        let (a, b) = (self.a.ctx(), self.b.ctx());
        let (mut req, mut reply) = (GetMsg::new(), GetMsg::new());
        let mut scratch = Vec::new();

        // Shapes, and the pre-serialised payloads the decode replay reads:
        // requests land in the server side's receive pool, replies in the
        // client side's.
        let mut payloads = Vec::with_capacity(self.n);
        let (mut fields, mut value_fields, mut zc_value_fields) = (0, 0, 0);
        let (mut zc_entries, mut zc_bytes, mut copy_bytes) = (0, 0, 0);
        for i in 0..self.n {
            self.build_request(a, i, &mut req);
            self.build_reply(b, i, &mut reply);
            fields += req.keys.len() + req.vals.len() + reply.vals.len();
            for v in req.vals.iter().chain(reply.vals.iter()) {
                value_fields += 1;
                zc_value_fields += usize::from(v.is_zero_copy());
            }
            for m in [&req, &reply] {
                zc_entries += m.zero_copy_entries();
                zc_bytes += m.zero_copy_bytes();
                copy_bytes += m.copy_bytes();
            }
            let pin = |ctx: &SerCtx, m: &GetMsg| {
                ctx.pool
                    .alloc_from(&serialize_to_vec(m))
                    .expect("a frame's payload fits the pool")
            };
            payloads.push((pin(b, &req), pin(a, &reply)));
            clear(&mut req);
            clear(&mut reply);
            a.end_request();
            b.end_request();
        }
        let per_req = |count: usize| count as f64 / self.n as f64;
        out.fields_per_req = per_req(fields);
        out.zc_entries_per_req = per_req(zc_entries);
        out.zc_bytes_per_req = per_req(zc_bytes);
        out.copy_bytes_per_req = per_req(copy_bytes);
        out.zc_field_ratio = zc_value_fields as f64 / value_fields.max(1) as f64;

        // CFBytes::new per value field: stored values on the replying
        // side, PUT values (unpinned client memory) on the requesting one.
        let [ns] = passes(budget, value_fields, || {
            let mut ns = 0.0;
            for i in 0..self.n {
                self.lap.time(&mut ns, || {
                    for value in self.reply_values(i) {
                        black_box(CFBytes::new(b, value.as_slice()));
                    }
                    if let Some(value) = self.put_value(i) {
                        black_box(CFBytes::new(a, value));
                    }
                });
                a.end_request();
                b.end_request();
            }
            [ns]
        });
        out.cfbytes_new_ns = ns;

        // Build each message, then write its header.
        let [build_req, build_reply, hdr_req, hdr_reply] = passes(budget, self.n, || {
            let mut ns = [0.0; 4];
            for i in 0..self.n {
                self.lap
                    .time(&mut ns[0], || self.build_request(a, i, &mut req));
                self.lap
                    .time(&mut ns[1], || self.build_reply(b, i, &mut reply));
                for (m, acc) in [(&req, 2), (&reply, 3)] {
                    scratch.clear();
                    scratch.resize(m.header_bytes(), 0);
                    self.lap
                        .time(&mut ns[acc], || write_full_header(m, &mut scratch));
                }
                clear(&mut req);
                clear(&mut reply);
                a.end_request();
                b.end_request();
            }
            ns
        });
        out.build_ns = PerMessage {
            request: build_req,
            reply: build_reply,
        };
        out.header_ns = PerMessage {
            request: hdr_req,
            reply: hdr_reply,
        };

        // Decode in place, as the server (requests) and the client
        // (replies) do, then release the views.
        let [de_req, de_reply] = passes(budget, self.n, || {
            let mut ns = [0.0; 2];
            for (req_payload, reply_payload) in &payloads {
                self.lap.time(&mut ns[0], || {
                    req.deserialize_into(b, req_payload).expect("own encoding");
                    clear(&mut req);
                });
                self.lap.time(&mut ns[1], || {
                    reply
                        .deserialize_into(a, reply_payload)
                        .expect("own encoding");
                    clear(&mut reply);
                });
            }
            ns
        });
        out.deserialize_ns = PerMessage {
            request: de_req,
            reply: de_reply,
        };
    }

    /// cf-baselines: encode and decode both messages of a round trip with
    /// each baseline library.
    fn baselines(&self, budget: Duration, out: &mut Layers) {
        let sim = self.b.sim().clone();
        let dma = self.values.first().map_or(0, RcBuf::addr);
        let protobuf = |i: usize, ns: &mut [f64; 2]| {
            let (keys, k) = self.w.key_refs(i);
            let (req, reply) = self.lap.time(&mut ns[0], || {
                let mut req = PGetM::new();
                for key in &keys[..k] {
                    req.add_key(&sim, key);
                }
                if let Some(value) = self.put_value(i) {
                    req.add_val(&sim, value);
                }
                let mut reply = PGetM::new();
                reply.id = Some(i as u32);
                for value in self.reply_values(i) {
                    reply.add_val(&sim, value.as_slice());
                }
                (req.encode(&sim, dma), reply.encode(&sim, dma))
            });
            self.lap.time(&mut ns[1], || {
                black_box(PGetM::decode(&sim, &req).expect("own encoding"));
                black_box(PGetM::decode(&sim, &reply).expect("own encoding"));
            });
        };
        let flatbuffers = |i: usize, ns: &mut [f64; 2]| {
            let (keys, k) = self.w.key_refs(i);
            let (req, reply) = self.lap.time(&mut ns[0], || {
                let put = self.put_value(i);
                let mut vals: [&[u8]; MAX_KEYS_PER_REQ] = [&[]; MAX_KEYS_PER_REQ];
                let stored = self.reply_values(i);
                for (slot, value) in vals.iter_mut().zip(stored) {
                    *slot = value.as_slice();
                }
                (
                    FlatGetM::encode(&sim, None, &keys[..k], put.as_slice()),
                    FlatGetM::encode(&sim, Some(i as u32), &[], &vals[..stored.len()]),
                )
            });
            self.lap.time(&mut ns[1], || {
                for buf in [&req, &reply] {
                    let view = FlatGetMView::parse(&sim, buf).expect("own encoding");
                    black_box(view.id().expect("own encoding"));
                    for j in 0..view.keys_len().expect("own encoding") {
                        black_box(view.key(j).expect("own encoding"));
                    }
                    for j in 0..view.vals_len().expect("own encoding") {
                        black_box(view.val(j).expect("own encoding"));
                    }
                }
            });
        };
        let capnproto = |i: usize, ns: &mut [f64; 2]| {
            let (keys, k) = self.w.key_refs(i);
            let (req, reply) = self.lap.time(&mut ns[0], || {
                let mut req = CapnGetM::new();
                for key in &keys[..k] {
                    req.add_key(&sim, key);
                }
                if let Some(value) = self.put_value(i) {
                    req.add_val(&sim, value);
                }
                let mut reply = CapnGetM::new();
                reply.set_id(i as u32);
                for value in self.reply_values(i) {
                    reply.add_val(&sim, value.as_slice());
                }
                (
                    CapnGetM::frame(&req.finish(&sim)),
                    CapnGetM::frame(&reply.finish(&sim)),
                )
            });
            self.lap.time(&mut ns[1], || {
                for buf in [&req, &reply] {
                    let reader = CapnReader::parse(&sim, buf).expect("own encoding");
                    black_box(reader.id().expect("own encoding"));
                    black_box(reader.keys(&sim).expect("own encoding"));
                    black_box(reader.vals(&sim).expect("own encoding"));
                }
            });
        };
        let libraries: [RoundTrip<'_>; 3] = [&protobuf, &flatbuffers, &capnproto];
        for (lib, round_trip) in libraries.into_iter().enumerate() {
            let [encode, decode] = passes(budget, self.n, || {
                let mut ns = [0.0; 2];
                for i in 0..self.n {
                    round_trip(i, &mut ns);
                }
                ns
            });
            out.baseline_encode_ns[lib] = encode;
            out.baseline_decode_ns[lib] = decode;
        }
    }

    /// cf-net and cf-nic: both messages of each round trip over the bare
    /// stack pair, then the same scatter-gather shapes through the NICs
    /// alone, then the FCS alone over the same frame sizes.
    fn net_and_nic(&mut self, budget: Duration, out: &mut Layers) {
        let lap = self.lap;
        let (mut req, mut reply) = (GetMsg::new(), GetMsg::new());
        // Scatter-gather shape and frame size of every message, read off
        // the descriptors the stacks post.
        let mut shapes: Vec<[Vec<RcBuf>; 2]> = Vec::with_capacity(self.n);
        let first_entry = |ctx: &SerCtx, m: &GetMsg| {
            ctx.pool
                .alloc(HEADER_BYTES + m.header_bytes() + m.copy_bytes())
                .expect("a frame's first entry fits the pool")
        };
        for i in 0..self.n {
            self.build_request(self.a.ctx(), i, &mut req);
            self.build_reply(self.b.ctx(), i, &mut reply);
            let shape = [(self.a.ctx(), &req), (self.b.ctx(), &reply)].map(|(ctx, m)| {
                let mut entries = vec![first_entry(ctx, m)];
                m.for_each_zero_copy_entry(&mut |rc: &RcBuf| entries.push(rc.clone()));
                entries
            });
            shapes.push(shape);
            clear(&mut req);
            clear(&mut reply);
            self.a.ctx().end_request();
            self.b.ctx().end_request();
        }

        let [send_req, recv_req, send_reply, recv_reply] = passes(budget, self.n, || {
            let mut ns = [0.0; 4];
            for i in 0..self.n {
                self.build_request(self.a.ctx(), i, &mut req);
                let hdr = self.a.header_to(SERVER_PORT, self.request_meta(i));
                lap.time(&mut ns[0], || self.a.send_object(hdr, &req))
                    .expect("request sent");
                clear(&mut req);
                let pkt = lap
                    .time(&mut ns[1], || self.b.recv_packet())
                    .expect("request frame arrives");
                self.build_reply(self.b.ctx(), i, &mut reply);
                let mut meta = pkt.hdr.meta;
                meta.msg_type |= msg_type::RESPONSE;
                let reply_hdr = pkt.hdr.reply(meta);
                lap.time(&mut ns[2], || self.b.send_object(reply_hdr, &reply))
                    .expect("reply sent");
                clear(&mut reply);
                drop(pkt);
                let pkt = lap
                    .time(&mut ns[3], || self.a.recv_packet())
                    .expect("reply frame arrives");
                assert_eq!(pkt.hdr.meta.req_id, i as u32);
            }
            ns
        });
        out.udp_send_ns = PerMessage {
            request: send_req,
            reply: send_reply,
        };
        out.udp_recv_ns = PerMessage {
            request: recv_req,
            reply: recv_reply,
        };

        let (nic_a, nic_b) = (self.a.nic(), self.b.nic());
        let (pool_a, pool_b) = (&self.a.ctx().pool, &self.b.ctx().pool);
        let [tx_req, rx_req, tx_reply, rx_reply] = passes(budget, self.n, || {
            let mut ns = [0.0; 4];
            let (mut a, mut b) = (nic_a.borrow_mut(), nic_b.borrow_mut());
            for [req_shape, reply_shape] in &shapes {
                // Cloning the entries (the refcount bumps) is the stack's
                // work, timed with it above; the NIC's starts at the post.
                let mut desc = a.take_desc(0);
                desc.extend(req_shape.iter().cloned());
                lap.time(&mut ns[0], || {
                    a.post_tx(desc).expect("request posted");
                    a.poll_completions()
                });
                drop(
                    lap.time(&mut ns[1], || b.recv_into(pool_b))
                        .expect("request frame"),
                );
                let mut desc = b.take_desc(0);
                desc.extend(reply_shape.iter().cloned());
                lap.time(&mut ns[2], || {
                    b.post_tx(desc).expect("reply posted");
                    b.poll_completions()
                });
                drop(
                    lap.time(&mut ns[3], || a.recv_into(pool_a))
                        .expect("reply frame"),
                );
            }
            ns
        });
        out.nic_post_tx_ns = PerMessage {
            request: tx_req,
            reply: tx_reply,
        };
        out.nic_recv_into_ns = PerMessage {
            request: rx_req,
            reply: rx_reply,
        };

        // FCS: the sender's NIC seals each frame, the receiving stack
        // verifies it — one pass each over both frames of a round trip.
        // The bytes are hot when either runs (just gathered, just copied
        // into the receive buffer), as one reused buffer is here.
        let frame_bytes: Vec<usize> = shapes
            .iter()
            .flatten()
            .map(|entries| entries.iter().map(RcBuf::len).sum())
            .collect();
        let blob = vec![0xA5u8; frame_bytes.iter().copied().max().unwrap_or(0)];
        let [fcs] = passes(budget, self.n, || {
            let t0 = Instant::now();
            for &len in &frame_bytes {
                black_box(frame_fcs(black_box(&blob[..len])));
                black_box(fcs_ok(black_box(&blob[..len])));
            }
            [t0.elapsed().as_nanos() as f64]
        });
        out.fcs_ns_per_req = fcs;
        let kib_per_req = 2.0 * frame_bytes.iter().sum::<usize>() as f64 / 1024.0 / self.n as f64;
        out.fcs_ns_per_kib = fcs / kib_per_req;
    }

    /// cf-mem: the pool, the registry and the arena at the workload's
    /// value sizes.
    fn mem(&self, budget: Duration, out: &mut Layers) {
        let ctx = self.b.ctx();
        let [alloc_free, recover] = passes(budget, self.values.len(), || {
            let t0 = Instant::now();
            for value in &self.values {
                drop(black_box(ctx.pool.alloc(value.len())));
            }
            let t1 = Instant::now();
            for value in &self.values {
                drop(black_box(ctx.registry.recover(value.as_slice())));
            }
            [(t1 - t0).as_nanos() as f64, t1.elapsed().as_nanos() as f64]
        });
        out.pool_alloc_free_ns = alloc_free;
        out.recover_ns = recover;
        let k = self.w.stream.keys_per_req;
        // Fields below the hybrid threshold are the ones that get copied.
        let threshold = ctx.effective_threshold();
        let [arena] = passes(budget, self.n, || {
            let t0 = Instant::now();
            for request in self.values.chunks(k) {
                for value in request.iter().filter(|v| v.len() < threshold) {
                    black_box(ctx.arena.copy_in(value.as_slice()));
                }
                ctx.arena.reset();
            }
            [t0.elapsed().as_nanos() as f64]
        });
        out.arena_copy_reset_ns = arena;
    }

    /// cf-sim: what the cost model itself costs the host, per call.
    fn sim(&self, budget: Duration, out: &mut Layers) {
        let sim = Sim::new(MachineProfile::microbench());
        let mean_len = self.values.iter().map(RcBuf::len).sum::<usize>() / self.values.len().max(1);
        let dst = self.values.first().map_or(0, RcBuf::addr);
        let [fixed, memcpy, access] = passes(budget, self.values.len(), || {
            let t0 = Instant::now();
            for _ in &self.values {
                sim.charge(Category::Other, black_box(3.0));
            }
            let t1 = Instant::now();
            for value in &self.values {
                black_box(sim.charge_memcpy(Category::Other, value.addr(), dst, mean_len.max(1)));
            }
            let t2 = Instant::now();
            for value in &self.values {
                black_box(sim.charge_meta_access(Category::Other, value.refcount_addr()));
            }
            [
                (t1 - t0).as_nanos() as f64,
                (t2 - t1).as_nanos() as f64,
                t2.elapsed().as_nanos() as f64,
            ]
        });
        out.charge_fixed_ns = fixed;
        out.charge_memcpy_ns = memcpy;
        out.cache_access_ns = access;
    }
}

/// cf-kv's store, on the Cornflakes fixture's own store (its real size and
/// pool): `KvStore::get` on the sample's GET keys and `KvStore::put` of the
/// sample's PUTs. Mutates the store, so it runs after verification.
fn store(w: &Workload, fx: &mut Fixture, budget: Duration, out: &mut Layers) {
    let n = SAMPLE_REQUESTS.min(w.stream.len());
    let is_put = |i: &usize| w.stream.put_len[*i] != 0;
    let gets: Vec<u32> = (0..n)
        .filter(|i| !is_put(i))
        .flat_map(|i| w.stream.keys_of(i))
        .copied()
        .collect();
    let puts: Vec<usize> = (0..n).filter(is_put).collect();
    if !gets.is_empty() {
        let [ns] = passes(budget, gets.len(), || {
            let t0 = Instant::now();
            for &id in &gets {
                black_box(fx.server.store.get(w.keys.key(id)));
            }
            [t0.elapsed().as_nanos() as f64]
        });
        out.store_get_ns = ns;
    }
    if !puts.is_empty() {
        let segment = fx.server.put_segment_size;
        let [ns] = passes(budget, puts.len(), || {
            let t0 = Instant::now();
            for &i in &puts {
                let key = w.keys.key(w.stream.keys_of(i)[0]);
                let value = w.put_value(i, w.stream.put_len[i]);
                fx.server
                    .store
                    .put(fx.server.stack.ctx(), key, value, segment)
                    .expect("overwrite fits the pool");
            }
            [t0.elapsed().as_nanos() as f64]
        });
        out.store_put_ns = ns;
    }
    out.store_ns_per_req =
        (out.store_get_ns * gets.len() as f64 + out.store_put_ns * puts.len() as f64) / n as f64;
}

/// Runs every replay, each for `budget`.
pub fn replay(w: &Workload, cornflakes: &mut Fixture, budget: Duration) -> Layers {
    let mut out = Layers::default();
    let mut rig = Rig::new(w);
    rig.core(budget, &mut out);
    rig.baselines(budget, &mut out);
    rig.net_and_nic(budget, &mut out);
    rig.mem(budget, &mut out);
    rig.sim(budget, &mut out);
    store(w, cornflakes, budget, &mut out);
    out
}

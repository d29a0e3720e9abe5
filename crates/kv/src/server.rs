//! The key-value server over UDP: the request engine of [`crate::engine`]
//! — store, put dedup, versions and the one PUT / GET_SEGMENT / GET
//! handler, generic over the serialization approach (paper §6.1.3: each
//! baseline gets the network API that minimizes its copies) — behind a
//! [`UdpStack`], with admission control, horizon-bounded polling and
//! transmit batching. [`crate::tcp_server`] serves the same engine over
//! TCP flows.

use std::collections::VecDeque;

use cf_mem::RcBuf;
use cf_net::{FrameMeta, Packet, UdpStack};
use cf_telemetry::{FlightEvent, FlightRecorder};

use crate::codec::{with_codec, KvCodec};
use crate::engine::KvEngine;
use crate::overload::AdmissionConfig;
use crate::{flags, msg_type};

pub use crate::engine::DEFAULT_DEDUP_CAPACITY;

/// Which serialization library the server (and its clients) use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SerKind {
    /// Cornflakes (hybrid zero-copy; the threshold comes from the stack's
    /// [`cornflakes_core::SerializationConfig`]).
    Cornflakes,
    /// Protobuf-style baseline.
    Protobuf,
    /// FlatBuffers-style baseline.
    FlatBuffers,
    /// Cap'n Proto-style baseline.
    CapnProto,
}

impl SerKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SerKind::Cornflakes => "Cornflakes",
            SerKind::Protobuf => "Protobuf",
            SerKind::FlatBuffers => "FlatBuffers",
            SerKind::CapnProto => "Cap'n Proto",
        }
    }

    /// All kinds, Cornflakes first.
    pub fn all() -> [SerKind; 4] {
        [
            SerKind::Cornflakes,
            SerKind::Protobuf,
            SerKind::FlatBuffers,
            SerKind::CapnProto,
        ]
    }

    /// Lowercase key used in metric names (`kv.<key>.requests` etc.).
    pub fn metric_key(self) -> &'static str {
        match self {
            SerKind::Cornflakes => "cornflakes",
            SerKind::Protobuf => "protobuf",
            SerKind::FlatBuffers => "flatbuffers",
            SerKind::CapnProto => "capnproto",
        }
    }
}

/// Backlog occupancy fraction at or above which GETs are served before PUTs.
const PRESSURE_WATERMARK: f64 = 0.5;

/// One request admitted into the pending backlog, stamped with its
/// arrival time on the *arrival* clock (the caller's `now_ns`, which may
/// run ahead of this shard's lagging service clock under overload).
#[derive(Debug)]
pub(crate) struct Admitted {
    arrival_ns: u64,
    pkt: Packet,
}

/// Admission-control state: the bounded pending-request backlog.
#[derive(Debug)]
pub(crate) struct AdmissionState {
    cfg: AdmissionConfig,
    backlog: VecDeque<Admitted>,
}

/// The key-value server over UDP: the request engine behind a [`UdpStack`].
/// Public fields: `stack` (the datapath), `store`, `kind` and
/// `put_segment_size`.
pub type KvServer = KvEngine<UdpStack>;

impl KvEngine<UdpStack> {
    /// Creates a server over `stack` with the given strategy, counting as
    /// `kv.<kind>.*` ([`SerKind::metric_key`]).
    pub fn new(stack: UdpStack, kind: SerKind) -> Self {
        Self::over(stack, kind, kind.metric_key(), DEFAULT_DEDUP_CAPACITY)
    }

    /// [`KvServer::set_telemetry`] with the handle already attached,
    /// carrying `fr` as its flight recorder.
    pub fn set_flight_recorder(&mut self, fr: &FlightRecorder) {
        self.set_telemetry(&self.stack.telemetry().with_flight(fr));
    }

    /// Requests rejected by the admission layer with a `SHED` fast-reject.
    pub fn shed_drops(&self) -> u64 {
        self.counters.shed_drops.get()
    }

    /// Pending requests currently queued by the admission layer.
    pub fn backlog_len(&self) -> usize {
        self.admission.as_ref().map_or(0, |a| a.backlog.len())
    }

    /// Enables server-side admission control: a bounded pending-request
    /// backlog with CoDel-style shedding (oldest-first drop once sojourn
    /// exceeds the target, answered by a header-only `SHED` fast-reject)
    /// and GET-over-PUT priority under pressure. Also bounds the socket's
    /// NIC rx staging ring, so load beyond what the backlog absorbs is
    /// tail-dropped for free before the host touches it.
    ///
    /// With admission on, [`KvServer::poll`] and [`KvServer::poll_until`]
    /// serve through the admission layer.
    pub fn enable_admission(&mut self, cfg: AdmissionConfig) {
        self.stack.set_rx_backlog_limit(cfg.rx_backlog_limit);
        self.admission = Some(AdmissionState {
            cfg,
            backlog: VecDeque::with_capacity(cfg.backlog_capacity),
        });
    }

    /// Processes all pending requests at the current service clock;
    /// returns how many were handled (see [`KvServer::poll_until`]).
    pub fn poll(&mut self) -> usize {
        let now = self.stack.sim().now();
        self.poll_until(now, u64::MAX)
    }

    /// Horizon-bounded poll: serves requests while this server's *service*
    /// clock is before `horizon_ns`, then flushes any replies staged by
    /// transmit batching (one doorbell). `now_ns` is the arrival clock; an
    /// idle server's service clock is advanced to it first (spare capacity
    /// cannot be banked across idle periods). Overload harnesses pass
    /// `horizon_ns = now_ns`, so a shard can fall behind the arrival clock —
    /// that lag is what makes offered load above capacity mean something in
    /// virtual time. Returns how many requests were served.
    ///
    /// Without admission control this serves FIFO straight off the NIC —
    /// the behavior every system has before it grows an admission layer.
    /// With it ([`KvServer::enable_admission`]) arrivals are ingested into
    /// the bounded backlog stamped `now_ns`, entries whose sojourn exceeded
    /// the CoDel target are shed (oldest first, `SHED` fast-rejects), and
    /// admitted requests are served.
    pub fn poll_until(&mut self, now_ns: u64, horizon_ns: u64) -> usize {
        let n = if self.admission.is_some() {
            self.serve_admitted(now_ns, horizon_ns)
        } else {
            self.catch_up_if_idle(now_ns);
            self.serve_fifo(horizon_ns)
        };
        // Staged descriptors were validated when they were staged.
        let _ = self.stack.flush_tx();
        n
    }

    /// Serves FIFO straight off the NIC while the service clock is before
    /// `horizon_ns`.
    fn serve_fifo(&mut self, horizon_ns: u64) -> usize {
        let mut n = 0;
        while self.stack.sim().now() < horizon_ns {
            let Some(pkt) = self.recv() else { break };
            self.handle(pkt);
            n += 1;
        }
        n
    }

    /// Receives the next packet. Receive-path charges (header parse, RX
    /// base) land in their own root span; request processing gets a span
    /// per packet.
    fn recv(&mut self) -> Option<Packet> {
        let _rx = self.stack.telemetry().span("rx");
        self.stack.recv_packet()
    }

    /// Drains the NIC into the bounded backlog, stamping arrivals with
    /// `now_ns` (the arrival clock). Stops pulling once the backlog is
    /// full — excess frames stay in the bounded NIC staging ring, whose
    /// overflow tail-drops for free. Returns how many were admitted.
    pub fn ingest(&mut self, now_ns: u64) -> usize {
        let Some(adm) = &self.admission else { return 0 };
        let capacity = adm.cfg.backlog_capacity;
        // Enforce the NIC-side bound first: everything past the staging
        // ring is shed NIC-side with zero CPU cost.
        self.stack.pump_rx();
        let mut admitted = 0;
        while self.backlog_len() < capacity {
            let Some(pkt) = self.recv() else { break };
            let req_id = pkt.hdr.meta.req_id;
            self.admission
                .as_mut()
                .expect("admission enabled")
                .backlog
                .push_back(Admitted {
                    arrival_ns: now_ns,
                    pkt,
                });
            self.stack.telemetry().flight().record(
                req_id,
                now_ns,
                FlightEvent::BacklogAdmit {
                    backlog: self.backlog_len().min(u16::MAX as usize) as u16,
                },
            );
            admitted += 1;
        }
        self.counters.backlog.set(self.backlog_len() as f64);
        admitted
    }

    /// The admission-controlled half of [`KvServer::poll_until`].
    fn serve_admitted(&mut self, now_ns: u64, horizon_ns: u64) -> usize {
        if self.backlog_len() == 0 {
            self.catch_up_if_idle(now_ns);
        }
        self.ingest(now_ns);
        let mut n = 0;
        loop {
            self.shed_expired(now_ns);
            if self.stack.sim().now() >= horizon_ns {
                break;
            }
            let Some(pkt) = self.next_admitted() else {
                // Backlog empty: anything still staged NIC-side was held
                // back by a full backlog earlier in this poll.
                if self.ingest(now_ns) == 0 {
                    break;
                }
                continue;
            };
            self.handle(pkt);
            n += 1;
            // Refill as we drain so the NIC ring sheds only true excess.
            self.ingest(now_ns);
        }
        self.counters.backlog.set(self.backlog_len() as f64);
        n
    }

    /// Advances an idle server's service clock to the arrival clock:
    /// virtual time spent idle is gone, not banked as burst capacity.
    fn catch_up_if_idle(&mut self, now_ns: u64) {
        if !self.stack.has_pending_rx() {
            let now = self.stack.sim().now();
            if now < now_ns {
                self.stack.sim().clock().advance(now_ns - now);
            }
        }
    }

    /// Sheds backlog entries (oldest first) whose sojourn on the arrival
    /// clock exceeded the CoDel target, answering each with a `SHED`
    /// fast-reject. Returns how many were shed.
    fn shed_expired(&mut self, now_ns: u64) -> usize {
        let mut shed = 0;
        while let Some(adm) = &self.admission {
            let target = adm.cfg.target_sojourn_ns;
            let expired = adm
                .backlog
                .front()
                .is_some_and(|a| now_ns.saturating_sub(a.arrival_ns) > target);
            if !expired {
                break;
            }
            let victim = self
                .admission
                .as_mut()
                .expect("admission enabled")
                .backlog
                .pop_front()
                .expect("checked nonempty");
            self.stack.telemetry().flight().record(
                victim.pkt.hdr.meta.req_id,
                now_ns,
                FlightEvent::BacklogShed {
                    sojourn_ns: now_ns.saturating_sub(victim.arrival_ns),
                },
            );
            self.shed_one(victim.pkt);
            shed += 1;
        }
        shed
    }

    /// Answers one request with a header-only `SHED` fast-reject: no
    /// deserialization, no store access, a fraction of a reply's cost —
    /// the cheap "go away" that keeps shedding from consuming the
    /// capacity it is trying to protect.
    fn shed_one(&mut self, pkt: Packet) {
        let meta = FrameMeta {
            msg_type: pkt.hdr.meta.msg_type | msg_type::RESPONSE,
            flags: flags::SHED,
            req_id: pkt.hdr.meta.req_id,
        };
        let hdr = pkt.hdr.reply(meta);
        self.counters.shed_drops.inc();
        if self.stack.send_fast_reject(hdr).is_err() {
            self.counters.reply_drops.inc();
        }
    }

    /// Picks the next admitted request to serve. Under pressure (backlog at
    /// least [`PRESSURE_WATERMARK`] full) GETs are served before PUTs: reads
    /// are cheap, latency-sensitive and idempotent; writes retry safely
    /// through the dedup window. Relative order within each class is
    /// preserved, so arrival stamps at the front stay oldest-first for the
    /// shedder.
    fn next_admitted(&mut self) -> Option<Packet> {
        let adm = self.admission.as_mut()?;
        let pressure =
            adm.backlog.len() as f64 >= PRESSURE_WATERMARK * adm.cfg.backlog_capacity as f64;
        if pressure {
            if let Some(idx) = adm
                .backlog
                .iter()
                .position(|a| a.pkt.hdr.meta.msg_type != msg_type::PUT)
            {
                return adm.backlog.remove(idx).map(|a| a.pkt);
            }
        }
        adm.backlog.pop_front().map(|a| a.pkt)
    }

    /// Handles one request packet.
    pub fn handle(&mut self, pkt: Packet) {
        let req_id = pkt.hdr.meta.req_id;
        let _req = self
            .stack
            .telemetry()
            .request_span("request", u64::from(req_id));
        self.counters.requests.inc();
        self.counters.bytes_in.add(pkt.frame.len() as u64);
        self.stack.telemetry().flight().record(
            req_id,
            self.stack.sim().now(),
            FlightEvent::ShardDispatch {
                shard: self.stack.queue().min(u8::MAX as usize) as u8,
            },
        );
        let meta = pkt.hdr.meta;
        let mut hdr = pkt.hdr.reply(FrameMeta {
            msg_type: meta.msg_type | msg_type::RESPONSE,
            flags: 0,
            req_id,
        });
        let mut codecs = std::mem::take(&mut self.codecs);
        let served = with_codec!(self.kind, codecs, |codec| self.serve(
            codec,
            meta.msg_type,
            req_id,
            &pkt.payload,
            |stack, codec, reply_flags, version, reply| {
                hdr.meta.flags = reply_flags;
                hdr.version = version;
                codec.send(stack, hdr, reply).is_ok()
            },
        ));
        self.codecs = codecs;
        if served.is_err() {
            // Dropped without a reply, as the paper's server would.
            self.counters.malformed_drops.inc();
        }
    }

    // ---- Cluster replication hooks --------------------------------------

    /// Decodes the key and value of a put-style payload according to this
    /// server's serialization kind, without touching the store. The cluster
    /// layer uses this to route a client put to its replica set and to
    /// apply forwarded `REPL_PUT`s (whose payload is the client's put
    /// payload, byte-for-byte). Returns `None` on malformed payloads.
    pub fn decode_put(&mut self, payload: &RcBuf) -> Option<(Vec<u8>, Vec<u8>)> {
        let ctx = self.stack.ctx();
        with_codec!(self.kind, self.codecs, |codec| codec
            .decode_put(ctx, payload))
    }
}

//! One client/server pair under test and the single round-trip driver
//! every phase goes through, so that every reply in every phase is checked
//! and counted.

use cf_kv::client::{client_server_pair, KvClient, Response};
use cf_kv::server::{KvServer, SerKind};
use cf_mem::PoolConfig;
use cf_sim::{MachineProfile, Sim};
use cornflakes_core::SerializationConfig;

use crate::stream::Workload;

/// Put-dedup window: small enough that warm-up fills it, so the window's
/// containers stop growing before anything is timed.
const DEDUP_CAPACITY: usize = 128;

/// Requests checked byte for byte in the untimed verification pass.
pub const VERIFY_REQUESTS: usize = 20_000;

/// A pinned pool large enough for the biggest working set (200k Twitter
/// values) in any one size class.
pub(crate) fn pool_config() -> PoolConfig {
    PoolConfig {
        min_class: 64,
        max_class: 16 * 1024,
        slots_per_region: 4096,
        max_regions_per_class: 1024,
    }
}

/// What went wrong with a round trip. A request that fails in any of these
/// ways counts as failed; the benchmark exits non-zero if any did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fails {
    /// No decodable reply came back.
    pub no_reply: u64,
    /// The reply carried another request's id.
    pub wrong_id: u64,
    /// Wrong number of values, or a value of the wrong length.
    pub wrong_shape: u64,
    /// The server shed the request or served it degraded.
    pub flagged: u64,
    /// A value's bytes were not what the store must hold (verification
    /// pass only).
    pub wrong_bytes: u64,
}

impl Fails {
    /// All failures.
    pub fn total(&self) -> u64 {
        self.no_reply + self.wrong_id + self.wrong_shape + self.flagged + self.wrong_bytes
    }
}

impl std::ops::Add for Fails {
    type Output = Fails;

    fn add(self, o: Fails) -> Fails {
        Fails {
            no_reply: self.no_reply + o.no_reply,
            wrong_id: self.wrong_id + o.wrong_id,
            wrong_shape: self.wrong_shape + o.wrong_shape,
            flagged: self.flagged + o.flagged,
            wrong_bytes: self.wrong_bytes + o.wrong_bytes,
        }
    }
}

/// Hooks [`Fixture::step`] calls around its three calls into `cf-kv`. The
/// untraced phases pass [`NoProbe`], which compiles to nothing.
pub trait Probe {
    /// Before the client encodes and sends.
    fn begin(&mut self);
    /// After `send_get`/`send_put` returned request id `req_id`.
    fn sent(&mut self, req_id: u32);
    /// After `KvServer::poll` returned.
    fn polled(&mut self);
    /// After `recv_response_into` returned.
    fn received(&mut self);
}

/// The probe of every untraced phase.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn begin(&mut self) {}
    #[inline(always)]
    fn sent(&mut self, _req_id: u32) {}
    #[inline(always)]
    fn polled(&mut self) {}
    #[inline(always)]
    fn received(&mut self) {}
}

/// One serialization kind's client/server pair, preloaded with a
/// workload's keys, and the replay position in the workload's stream.
pub struct Fixture {
    /// The server machine; its clock is the virtual clock.
    pub sim: Sim,
    /// The client (on its own simulated machine).
    pub client: KvClient,
    /// The server under test.
    pub server: KvServer,
    resp: Response,
    /// Requests issued so far; the next one is stream index
    /// `pos % stream.len()`.
    pos: usize,
    /// Failures seen so far.
    pub fails: Fails,
}

impl Fixture {
    /// Builds the pair as every workload uses it — 16 MiB modelled LLC,
    /// hybrid serialization, UDP, telemetry, flight recorder and retries
    /// off — and preloads `w`'s keys.
    pub fn build(w: &Workload, kind: SerKind) -> Fixture {
        let sim = Sim::new(MachineProfile::microbench());
        let (client, mut server) = client_server_pair(
            sim.clone(),
            kind,
            SerializationConfig::hybrid(),
            pool_config(),
        );
        server.set_dedup_capacity(DEDUP_CAPACITY);
        for id in 0..w.spec.num_keys {
            server
                .store
                .preload(
                    server.stack.ctx(),
                    w.keys.key(id),
                    &[w.keys.val_len(id) as usize],
                )
                .expect("pool_config() holds every workload's values");
        }
        Fixture {
            sim,
            client,
            server,
            resp: Response::default(),
            pos: 0,
            fails: Fails::default(),
        }
    }

    /// Requests issued so far (each one attempted, each one checked).
    pub fn attempted(&self) -> u64 {
        self.pos as u64
    }

    /// One round trip of the next stream request: client send, server
    /// poll, client receive, then the in-line check of the reply's id,
    /// flags, value count and value lengths.
    #[inline]
    pub fn step<P: Probe>(&mut self, w: &Workload, probe: &mut P) {
        let i = self.pos % w.stream.len();
        self.pos += 1;
        let ids = w.stream.keys_of(i);
        let put_len = w.stream.put_len[i];
        probe.begin();
        let (keys, k) = w.key_refs(i);
        let req_id = if put_len != 0 {
            self.client.send_put(keys[0], w.put_value(i, put_len))
        } else {
            self.client.send_get(&keys[..k])
        };
        probe.sent(req_id);
        self.server.poll();
        probe.polled();
        let answered = self.client.recv_response_into(&mut self.resp);
        probe.received();
        if !answered {
            self.fails.no_reply += 1;
        } else if self.resp.id != Some(req_id) {
            self.fails.wrong_id += 1;
        } else if self.resp.flags != 0 {
            self.fails.flagged += 1;
        } else if put_len != 0 {
            self.fails.wrong_shape += u64::from(!self.resp.vals.is_empty());
        } else {
            let shape_ok = self.resp.vals.len() == ids.len()
                && ids
                    .iter()
                    .zip(&self.resp.vals)
                    .all(|(&id, v)| v.len() == w.keys.val_len(id) as usize);
            self.fails.wrong_shape += u64::from(!shape_ok);
        }
    }

    /// Untimed verification: replays the next `n` requests and compares
    /// every GET value byte for byte with what the store must hold — the
    /// last PUT to that key anywhere in this fixture's history, else the
    /// preloaded fill. Mismatches land in `fails.wrong_bytes`.
    pub fn verify(&mut self, w: &Workload, n: usize) {
        let len = w.stream.len();
        // Stream index of the last PUT to each key so far. Replay is
        // sequential, so history is the `pos` requests before now; more
        // than one lap back is overwritten by the lap after it.
        let mut last_put: Vec<Option<usize>> = vec![None; w.keys.len()];
        for p in self.pos.saturating_sub(len)..self.pos {
            let i = p % len;
            if w.stream.put_len[i] != 0 {
                last_put[w.stream.keys_of(i)[0] as usize] = Some(i);
            }
        }
        for _ in 0..n {
            let i = self.pos % len;
            let before = self.fails;
            self.step(w, &mut NoProbe);
            if self.fails != before {
                continue;
            }
            let ids = w.stream.keys_of(i);
            if w.stream.put_len[i] != 0 {
                last_put[ids[0] as usize] = Some(i);
                continue;
            }
            let bytes_ok = ids
                .iter()
                .zip(&self.resp.vals)
                .all(|(&id, got)| w.value_matches(id, last_put[id as usize], got));
            self.fails.wrong_bytes += u64::from(!bytes_ok);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Shape, WorkloadSpec};

    /// A small mixed workload: Twitter sizes and PUT share over few keys.
    static TINY: WorkloadSpec = WorkloadSpec {
        name: "tiny",
        num_keys: 64,
        keys_per_req: 1,
        shape: Shape::Twitter,
        rate_mid_krps: 1.0,
        rate_high_krps: 2.0,
        slo_us: 1.0,
        sat_requests: 1_000,
    };

    #[test]
    fn every_kind_serves_the_stream_and_verifies_byte_for_byte() {
        let w = Workload::generate(&TINY, 11);
        for kind in SerKind::all() {
            let mut fx = Fixture::build(&w, kind);
            for _ in 0..2_000 {
                fx.step(&w, &mut NoProbe);
            }
            fx.verify(&w, 2_000);
            assert_eq!(fx.fails, Fails::default(), "{kind:?}");
            assert_eq!(fx.attempted(), 4_000);
        }
    }

    #[test]
    fn verification_catches_a_value_the_stream_did_not_put() {
        let w = Workload::generate(&TINY, 11);
        let mut fx = Fixture::build(&w, SerKind::Cornflakes);
        // Behind the stream's back: right length, wrong bytes, every key.
        for id in 0..TINY.num_keys {
            let wrong = vec![0xEE; w.keys.val_len(id) as usize];
            fx.server
                .store
                .put(fx.server.stack.ctx(), w.keys.key(id), &wrong, 8_192)
                .unwrap();
        }
        fx.verify(&w, 500);
        assert!(fx.fails.wrong_bytes > 0, "{:?}", fx.fails);
        assert_eq!(
            fx.fails.total(),
            fx.fails.wrong_bytes,
            "only the bytes differ"
        );
    }

    #[test]
    fn a_reply_of_the_wrong_length_fails_the_inline_check() {
        let w = Workload::generate(&TINY, 11);
        let mut fx = Fixture::build(&w, SerKind::Cornflakes);
        for id in 0..TINY.num_keys {
            fx.server
                .store
                .put(fx.server.stack.ctx(), w.keys.key(id), b"short", 8_192)
                .unwrap();
        }
        // Requests up to the first PUT of each key read the short value.
        for _ in 0..10 {
            fx.step(&w, &mut NoProbe);
        }
        assert!(fx.fails.wrong_shape > 0, "{:?}", fx.fails);
    }
}

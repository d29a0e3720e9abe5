//! Zero-alloc steady-state hot path, proven at the allocator.
//!
//! The shared counting `#[global_allocator]` from
//! `cf_telemetry::alloctrack` wraps the system allocator; each test warms
//! a client/server pair until every pool, freelist, and scratch buffer
//! has reached its steady-state footprint, then asserts the measured
//! window performs **zero** heap allocations per request:
//!
//! - GET of a present key (single-segment value),
//! - GET of a missing key (empty reply),
//! - PUT overwriting an existing key (allocate-and-swap: the new segment
//!   replaces the old one in the key's table slot),
//! - batched multi-GET (8 keys per request, through the store's prefetch
//!   pass, whose scratch is a fixed-size array),
//! - PUTs interleaved with GETs of values of different sizes (a reply with
//!   fewer values than the last keeps the surplus buffers for the next),
//! - a replica applying versioned overwrites of keys it has seen,
//! - `SHED` fast-rejects from the admission layer (header-only replies).
//!
//! One path carries a *documented* non-zero budget instead: a PUT
//! inserting a **fresh** key. The key and its one-segment value live in
//! the store's table slot, so what remains is the table's own growth —
//! one allocation per doubling, asserted as exactly that.
//!
//! Enabling full telemetry (metrics + span tree) adds **zero** to the
//! warm path as well: the recorder a span is written to is preallocated
//! at attach time, so recording is a fixed-slot write — asserted directly below, and the
//! flight recorder carries the same proof in `flight_zero_alloc.rs`.
//!
//! The GET hit, batched GET, PUT overwrite and interleaved windows run for
//! every serializer: the baselines *model* their libraries' allocations on
//! the virtual clock, but their codecs recycle messages, builders and
//! field buffers on the host like Cornflakes's does.
//!
//! The same three ops also run a long window each, 16,384 warm rounds, held
//! to a fixed budget of stray allocations per window rather than to zero:
//! a rare per-request allocation (one request in a few hundred) hides in a
//! 64-round window and shows in a long one.
//!
//! Retries, telemetry, and the flight recorder are off in the datapath
//! zero-alloc windows so each layer's claim stands on its own.

use cornflakes::kv::client::{KvClient, Response, CLIENT_PORT, SERVER_PORT};
use cornflakes::kv::overload::AdmissionConfig;
use cornflakes::kv::server::{KvServer, SerKind};
use cornflakes::net::UdpStack;
use cornflakes::nic::link;
use cornflakes::sim::{MachineProfile, Sim};
use cornflakes::telemetry::{alloc_count, CountingAlloc, FlightRecorder, Telemetry};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const KEY: &[u8] = b"hotpath-key";
const VALUE: [u8; 256] = [0x5A; 256];
const WARMUP: usize = 256;
const WINDOW: usize = 64;
/// Warm-up and measured rounds of a long window.
const LONG_WARMUP: usize = 1_024;
const LONG_WINDOW: usize = 16_384;
/// One-off allocations a long window may hold: lazy runtime init, a rehash
/// whose timing follows the hash seed, an amortized container doubling that
/// happens to land inside the window. A fixed count, not a cost per
/// request: one allocation on every 512th request is 32 per window.
const LONG_WINDOW_STRAYS: u64 = 16;
/// Small dedup window so warmup saturates it: once full, recording a put
/// id evicts the oldest in place and the window's containers stop growing.
const DEDUP_CAPACITY: usize = 128;

const KINDS: [SerKind; 4] = [
    SerKind::Cornflakes,
    SerKind::Protobuf,
    SerKind::FlatBuffers,
    SerKind::CapnProto,
];

/// A Cornflakes client and server; see [`pair_of`].
fn pair() -> (KvClient, KvServer, Sim) {
    pair_of(SerKind::Cornflakes)
}

/// Client and server on one Sim over a point-to-point link; retries,
/// telemetry, and the flight recorder all disabled.
fn pair_of(kind: SerKind) -> (KvClient, KvServer, Sim) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (cp, sp) = link();
    let client_stack = UdpStack::new(
        sim.clone(),
        cp,
        CLIENT_PORT,
        cornflakes::core::SerializationConfig::hybrid(),
    );
    let server_stack = UdpStack::new(
        sim.clone(),
        sp,
        SERVER_PORT,
        cornflakes::core::SerializationConfig::hybrid(),
    );
    let client = KvClient::new(client_stack, kind);
    let mut server = KvServer::new(server_stack, kind);
    server.set_dedup_capacity(DEDUP_CAPACITY);
    (client, server, sim)
}

/// One GET round into a reusable response.
fn get_round(client: &mut KvClient, server: &mut KvServer, keys: &[&[u8]], resp: &mut Response) {
    client.send_get(keys);
    server.poll();
    assert!(client.recv_response_into(resp), "get answered");
}

/// One PUT round into a reusable response.
fn put_round(
    client: &mut KvClient,
    server: &mut KvServer,
    key: &[u8],
    val: &[u8],
    resp: &mut Response,
) {
    client.send_put(key, val);
    server.poll();
    assert!(client.recv_response_into(resp), "put answered");
}

#[test]
fn steady_state_get_hit_is_alloc_free() {
    for kind in KINDS {
        let (mut client, mut server, _sim) = pair_of(kind);
        let mut resp = Response::default();
        put_round(&mut client, &mut server, KEY, &VALUE, &mut resp);

        for _ in 0..WARMUP {
            get_round(&mut client, &mut server, &[KEY], &mut resp);
        }
        let before = alloc_count();
        for _ in 0..WINDOW {
            get_round(&mut client, &mut server, &[KEY], &mut resp);
            assert_eq!(resp.vals[0], VALUE);
        }
        assert_eq!(
            alloc_count() - before,
            0,
            "{kind:?}: a warm GET round trip (encode, NIC, dispatch, decode, \
             store lookup, reply) must not touch the heap allocator"
        );
    }
}

#[test]
fn steady_state_get_miss_is_alloc_free() {
    let (mut client, mut server, _sim) = pair();
    let mut resp = Response::default();

    for _ in 0..WARMUP {
        get_round(&mut client, &mut server, &[b"absent-key"], &mut resp);
    }
    let before = alloc_count();
    for _ in 0..WINDOW {
        get_round(&mut client, &mut server, &[b"absent-key"], &mut resp);
        assert!(resp.vals.is_empty(), "miss carries no values");
    }
    assert_eq!(
        alloc_count() - before,
        0,
        "a warm GET miss (empty reply) must not touch the heap allocator"
    );
}

#[test]
fn steady_state_put_overwrite_is_alloc_free() {
    for kind in KINDS {
        let (mut client, mut server, _sim) = pair_of(kind);
        let mut resp = Response::default();

        // Warmup saturates the dedup window (WARMUP > DEDUP_CAPACITY), so
        // measured-window inserts evict in place instead of growing it.
        for _ in 0..WARMUP {
            put_round(&mut client, &mut server, KEY, &VALUE, &mut resp);
        }
        let before = alloc_count();
        for _ in 0..WINDOW {
            put_round(&mut client, &mut server, KEY, &VALUE, &mut resp);
            assert_eq!(resp.flags, 0, "put applied cleanly");
        }
        assert_eq!(
            alloc_count() - before,
            0,
            "{kind:?}: a warm PUT overwrite (allocate-and-swap into pooled \
             segments, key already owned by the store) must not touch the \
             heap allocator"
        );
    }
}

#[test]
fn puts_between_gets_of_varying_sizes_are_alloc_free() {
    // A PUT reply carries no values and the GETs rotate through sizes, so
    // every reply is shorter or longer than the one before it.
    let keys: Vec<Vec<u8>> = (0..4)
        .map(|i| format!("sized-key-{i}").into_bytes())
        .collect();
    let values: Vec<Vec<u8>> = [64, 1024, 16, 300].map(|n| vec![0xA5; n]).into();
    for kind in KINDS {
        let (mut client, mut server, _sim) = pair_of(kind);
        let mut resp = Response::default();
        for (k, v) in keys.iter().zip(&values) {
            put_round(&mut client, &mut server, k, v, &mut resp);
        }
        let mut round = |client: &mut KvClient, server: &mut KvServer, i: usize| {
            let at = i % keys.len();
            get_round(client, server, &[&keys[at]], &mut resp);
            assert_eq!(resp.vals, [values[at].as_slice()], "{kind:?}: value {at}");
            put_round(client, server, KEY, &VALUE, &mut resp);
            assert!(resp.vals.is_empty(), "{kind:?}: a PUT reply has no values");
        };
        for i in 0..WARMUP {
            round(&mut client, &mut server, i);
        }
        let before = alloc_count();
        for i in 0..WINDOW {
            round(&mut client, &mut server, i);
        }
        assert_eq!(
            alloc_count() - before,
            0,
            "{kind:?}: a short reply must keep the buffers the next long one \
             reuses"
        );
    }
}

#[test]
fn fresh_key_put_allocates_only_the_key_insert() {
    let (mut client, mut server, _sim) = pair();
    let mut resp = Response::default();

    // Warm with fresh keys too, so the datapath side is steady and only
    // the store's ownership costs remain in the measured window.
    let mut keybuf = *b"fresh-key-000000";
    let stamp = |mut n: usize, buf: &mut [u8; 16]| {
        for digit in buf[10..].iter_mut().rev() {
            *digit = b'0' + (n % 10) as u8;
            n /= 10;
        }
    };
    for i in 0..WARMUP {
        stamp(i, &mut keybuf);
        put_round(&mut client, &mut server, &keybuf, &VALUE, &mut resp);
    }
    let before = alloc_count();
    for i in WARMUP..2 * WARMUP {
        stamp(i, &mut keybuf);
        put_round(&mut client, &mut server, &keybuf, &VALUE, &mut resp);
    }
    // Documented budget: inserting a key allocates nothing of its own — a
    // key of up to 38 bytes and a one-segment value are held in the table
    // slot — so the heap is touched only when the table doubles. It holds
    // 512 slots after 256 keys and grows once, at the 410th, on the way to
    // 512 keys.
    assert_eq!(server.store.len(), 2 * WARMUP);
    assert_eq!(
        alloc_count() - before,
        1,
        "256 fresh-key puts crossing one table doubling allocate that \
         table and nothing else"
    );
}

/// The replication layer's apply path on a warm replica: overwriting a key
/// the version table already owns must update the version in place, not
/// allocate a fresh copy of the key per write.
#[test]
fn versioned_overwrite_on_a_warm_replica_is_alloc_free() {
    let (_client, mut server, _sim) = pair();
    let keys: Vec<Vec<u8>> = (0..8)
        .map(|i| format!("replica-key-{i}").into_bytes())
        .collect();
    let mut version = 0;
    let mut apply = |server: &mut KvServer, round: usize| {
        for key in &keys {
            version += 1;
            let req_id = version as u32;
            let (flags, applied) = server.apply_versioned_put(req_id, key, &VALUE, version);
            assert!(applied && flags == 0, "round {round}: put applied cleanly");
        }
    };
    // Warmup writes every key and saturates the dedup window.
    for round in 0..WARMUP / 8 {
        apply(&mut server, round);
    }
    let before = alloc_count();
    for round in 0..WINDOW / 8 {
        apply(&mut server, round);
    }
    assert_eq!(
        alloc_count() - before,
        0,
        "a versioned overwrite of a known key (dedup check, pool copy, \
         store swap, version bump) must not touch the heap allocator"
    );
    assert_eq!(server.version_of(&keys[7]), version);
}

#[test]
fn steady_state_batched_get_is_alloc_free() {
    let keys: Vec<Vec<u8>> = (0..8)
        .map(|i| format!("batch-key-{i}").into_bytes())
        .collect();
    let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    for kind in KINDS {
        let (mut client, mut server, _sim) = pair_of(kind);
        let mut resp = Response::default();
        for k in &key_refs {
            put_round(&mut client, &mut server, k, &VALUE, &mut resp);
        }

        for _ in 0..WARMUP {
            get_round(&mut client, &mut server, &key_refs, &mut resp);
        }
        let before = alloc_count();
        for _ in 0..WINDOW {
            get_round(&mut client, &mut server, &key_refs, &mut resp);
            assert_eq!(resp.vals.len(), 8, "all batch values answered");
        }
        assert_eq!(
            alloc_count() - before,
            0,
            "{kind:?}: a warm batched multi-GET must not touch the heap \
             allocator"
        );
    }
}

#[test]
fn long_windows_hold_every_serializer_to_a_fixed_stray_budget() {
    let keys: Vec<Vec<u8>> = (0..8)
        .map(|i| format!("batch-key-{i}").into_bytes())
        .collect();
    let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    type Round<'a> = &'a dyn Fn(&mut KvClient, &mut KvServer, &mut Response);
    let ops: [(&str, Round); 3] = [
        ("GET hit", &|c, s, r| get_round(c, s, &[KEY], r)),
        ("8-key GET", &|c, s, r| get_round(c, s, &key_refs, r)),
        ("PUT overwrite", &|c, s, r| put_round(c, s, KEY, &VALUE, r)),
    ];
    for kind in KINDS {
        let (mut client, mut server, _sim) = pair_of(kind);
        let mut resp = Response::default();
        for k in key_refs.iter().chain([&KEY]) {
            put_round(&mut client, &mut server, k, &VALUE, &mut resp);
        }
        for (op, round) in ops {
            for _ in 0..LONG_WARMUP {
                round(&mut client, &mut server, &mut resp);
            }
            let before = alloc_count();
            for _ in 0..LONG_WINDOW {
                round(&mut client, &mut server, &mut resp);
            }
            let strays = alloc_count() - before;
            assert!(
                strays <= LONG_WINDOW_STRAYS,
                "{kind:?} {op}: {strays} allocations in {LONG_WINDOW} warm rounds, \
                 over the budget of {LONG_WINDOW_STRAYS} one-off allocations"
            );
        }
    }
}

#[test]
fn steady_state_shed_fast_reject_is_alloc_free() {
    let (mut client, mut server, sim) = pair();
    let mut resp = Response::default();
    // A sojourn target of 200µs (default) with the service clock driven
    // 300µs past each arrival: every admitted request expires and is
    // answered with a header-only SHED fast-reject.
    server.enable_admission(AdmissionConfig::default());

    let shed_round = |client: &mut KvClient, server: &mut KvServer, resp: &mut Response| {
        client.send_get(&[KEY]);
        let now = sim.now();
        server.ingest(now);
        server.poll_until(now + 300_000, u64::MAX);
        assert!(client.recv_response_into(resp), "shed reply delivered");
        assert_ne!(
            resp.flags & cornflakes::kv::flags::SHED,
            0,
            "request was fast-rejected"
        );
    };

    for _ in 0..WARMUP {
        shed_round(&mut client, &mut server, &mut resp);
    }
    let before = alloc_count();
    for _ in 0..WINDOW {
        shed_round(&mut client, &mut server, &mut resp);
    }
    assert_eq!(
        alloc_count() - before,
        0,
        "a warm SHED fast-reject (no deserialize, no store access, \
         header-only reply) must not touch the heap allocator"
    );
}

#[test]
fn telemetry_enabled_warm_path_is_also_alloc_free() {
    // The one handle in each of its four states. Full telemetry is the
    // metrics registry + span tree + charge attribution; the flight
    // recorder that takes spans and events alike and the adoption of the
    // layers' counter cells all happen at attach time (outside any measured
    // window); recording is fixed-slot writes.
    for (state, metrics, flight) in [
        ("disabled", false, false),
        ("flight-only", false, true),
        ("metrics-only", true, false),
        ("both", true, true),
    ] {
        let (mut client, mut server, sim) = pair();
        let fr = if flight {
            FlightRecorder::with_capacity(1 << 14)
        } else {
            FlightRecorder::disabled()
        };
        let tele = if metrics {
            Telemetry::attach(&sim).with_flight(&fr)
        } else {
            Telemetry::disabled().with_flight(&fr)
        };
        client.set_telemetry(&tele);
        server.set_telemetry(&tele);
        let mut resp = Response::default();
        put_round(&mut client, &mut server, KEY, &VALUE, &mut resp);

        for _ in 0..WARMUP {
            get_round(&mut client, &mut server, &[KEY], &mut resp);
        }
        let before = alloc_count();
        for _ in 0..WINDOW {
            get_round(&mut client, &mut server, &[KEY], &mut resp);
        }
        assert_eq!(
            alloc_count() - before,
            0,
            "{state}: spans, counters, charge attribution and flight events \
             must stay off the heap allocator on the warm request path — \
             their buffers preallocate at attach time"
        );
        assert_eq!(
            fr.recorded() > 0,
            flight,
            "{state}: recorder saw the traffic"
        );
        let served = tele.counter_value("kv.cornflakes.requests");
        assert_eq!(served > 0, metrics, "{state}: registry saw the traffic");
    }
}

//! The flight recorder's disabled-path guarantee, proven at the allocator.
//!
//! The shared counting `#[global_allocator]` from
//! `cf_telemetry::alloctrack` wraps the system allocator; each test reads
//! the per-thread allocation count around a hot window. Two claims:
//!
//! - a **disabled** recorder's `record` hook performs *zero* allocations
//!   (and no formatting — events are plain `Copy` structs, so there is
//!   nothing to format until an explicit export call);
//! - an **enabled** recorder adds *zero* allocations to the warm
//!   end-to-end request path: the ring is preallocated at install time
//!   and recording is a fixed-slot copy.
//!
//! The driver is deterministic (virtual clock, same ops in both measured
//! windows), so the enabled window must allocate *exactly* as much as the
//! disabled one — not merely "about as much".

use cornflakes::kv::client::{KvClient, CLIENT_PORT, SERVER_PORT};
use cornflakes::kv::server::{KvServer, SerKind};
use cornflakes::net::UdpStack;
use cornflakes::nic::link;
use cornflakes::sim::{MachineProfile, Sim};
use cornflakes::telemetry::{alloc_count, CountingAlloc, FlightEvent, FlightRecorder, Telemetry};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_record_hook_is_alloc_free() {
    // The recorder as every layer reaches it: through the handle.
    let tele = Telemetry::disabled();
    let fr = tele.flight();
    let before = alloc_count();
    for i in 0..10_000u32 {
        fr.record(i, u64::from(i), FlightEvent::ClientSend);
        fr.record(i, u64::from(i), FlightEvent::NicTxEnqueue { queue: 1 });
        fr.record(
            i,
            u64::from(i),
            FlightEvent::ClientRetry {
                attempt: 2,
                backoff_ns: 1_000,
            },
        );
        fr.record(i, u64::from(i), FlightEvent::Reply { flags: 0 });
    }
    assert_eq!(
        alloc_count() - before,
        0,
        "a disabled recorder must be one branch per hook, nothing else"
    );
    assert!(!fr.is_enabled() && fr.is_empty());
}

#[test]
fn enabled_recorder_is_alloc_free_after_preallocation() {
    let fr = FlightRecorder::with_capacity(1024);
    let before = alloc_count();
    // 4× capacity: both the fill phase and the wrap-around overwrite
    // phase stay allocation-free.
    for i in 0..4096u32 {
        fr.record(i, u64::from(i), FlightEvent::BacklogAdmit { backlog: 3 });
    }
    assert_eq!(
        alloc_count() - before,
        0,
        "recording into the preallocated ring must never allocate"
    );
    assert_eq!(fr.len(), 1024);
    assert_eq!(fr.recorded(), 4096);
}

/// Client and server on one Sim, like the chaos fixture but fault-free.
fn pair() -> (KvClient, KvServer, Sim) {
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
    (
        KvClient::new(client_stack, SerKind::Cornflakes),
        KvServer::new(server_stack, SerKind::Cornflakes),
        sim,
    )
}

/// One deterministic round: a put and a get, driven to completion.
fn round(client: &mut KvClient, server: &mut KvServer, value: &[u8]) {
    let put = client.send_put(b"anatomy-key", value);
    server.poll();
    let resp = client.recv_response().expect("put answered");
    assert_eq!(resp.id, Some(put));
    let get = client.send_get(&[b"anatomy-key"]);
    server.poll();
    let resp = client.recv_response().expect("get answered");
    assert_eq!(resp.id, Some(get));
    assert_eq!(resp.vals[0], value);
}

#[test]
fn enabled_recorder_adds_zero_allocations_to_warm_request_path() {
    let (mut client, mut server, sim) = pair();
    let value = [0x5A_u8; 256];

    // Warm everything: pools, maps, and scratch buffers reach their
    // steady-state footprint (long enough that no container doubles its
    // capacity inside a measured window).
    for _ in 0..128 {
        round(&mut client, &mut server, &value);
    }

    let before = alloc_count();
    for _ in 0..64 {
        round(&mut client, &mut server, &value);
    }
    let baseline = alloc_count() - before;

    // Install the recorder (its ring allocation lands *here*, outside any
    // measured window) and replay the identical deterministic window.
    let fr = FlightRecorder::with_capacity(1 << 14);
    client.set_flight_recorder(&fr);
    server.set_flight_recorder(&fr);

    let before = alloc_count();
    for _ in 0..64 {
        round(&mut client, &mut server, &value);
    }
    let with_recorder = alloc_count() - before;

    assert!(fr.recorded() > 0, "the recorder saw the traffic");
    assert_eq!(
        with_recorder, baseline,
        "recording must not add a single allocation to the warm request path"
    );

    // Attaching metrics afterwards keeps the recorder installed (the two
    // halves of the handle commute), and the full handle allocates no more
    // on the warm path than no handle did.
    let tele = Telemetry::attach(&sim);
    client.set_telemetry(&tele);
    server.set_telemetry(&tele);
    round(&mut client, &mut server, &value);
    let (recorded, before) = (fr.recorded(), alloc_count());
    for _ in 0..64 {
        round(&mut client, &mut server, &value);
    }
    assert!(
        alloc_count() - before <= baseline,
        "metrics + flight must not add an allocation either"
    );
    assert!(fr.recorded() > recorded, "the recorder stayed installed");
    assert!(tele.counter_value("kv.cornflakes.requests") >= 2 * (128 + 64 + 64));
}

//! Charge-trace parity for the TCP transports: per scenario, the ordered
//! sequence of cost categories both ends charge and the virtual time the
//! scenario ends at, against values recorded before `TcpStack` and
//! `TcpListener` were folded onto one `Flow`. Virtual time is the sum of
//! the charges, so an unchanged line is the proof that a refactor of the
//! transport moved neither a call nor an amount.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;

use cf_kv::msgs::GetMsg;
use cf_net::tcp::{FLAG_ACK, FLAG_SYN};
use cf_net::{FlowConfig, FlowId, TcpListener, TcpStack};
use cf_nic::{link, FaultPlan, Port, PortHub};
use cf_sim::cost::{Category, ChargeObserver};
use cf_sim::{MachineProfile, Sim};
use common::{raw_segment, send_raw, stack_and_raw_peer};
use cornflakes_core::SerializationConfig;

/// Records one letter per charge.
#[derive(Default)]
struct Recorder(RefCell<String>);

impl ChargeObserver for Recorder {
    fn on_charge(&self, cat: Category, _ns: f64) {
        self.0.borrow_mut().push(match cat {
            Category::Rx => 'R',
            Category::Deserialize => 'D',
            Category::AppGet => 'G',
            Category::AppPut => 'P',
            Category::SerializeCopy => 'C',
            Category::SerializeZeroCopy => 'Z',
            Category::HeaderWrite => 'H',
            Category::Tx => 'T',
            Category::Alloc => 'A',
            Category::Other => 'O',
        });
    }
}

/// Runs `body` with every charge on `sim` recorded; returns
/// `"<letters> @<sim.now() afterwards>"`.
fn traced(sim: &Sim, body: impl FnOnce()) -> String {
    let recorder = Rc::new(Recorder::default());
    sim.set_charge_observer(Some(recorder.clone()));
    body();
    sim.set_charge_observer(None);
    let seq = recorder.0.borrow().clone();
    format!("{seq} @{}", sim.now())
}

/// Gives every heap block whole cache lines of its own. The cost model
/// charges a copy by the lines it touches and by whether they are resident,
/// and the reassembly buffers it reads are plain `Vec<u8>`s: under the
/// system allocator's 16-byte packing the recorded times would depend on
/// which slot a buffer landed in and on what its neighbours were used for.
struct LineAligned;

fn whole_lines(layout: Layout) -> Layout {
    Layout::from_size_align(layout.size().next_multiple_of(64), layout.align().max(64))
        .expect("a valid layout padded to whole cache lines")
}

// SAFETY: forwards to `System` with a layout that is a pure function of the
// caller's, so `dealloc` (and the default `realloc`, which goes through
// `alloc` + `dealloc`) hands `System` the layout the block was allocated
// with; size and alignment only grow, so every block satisfies the
// caller's layout.
unsafe impl GlobalAlloc for LineAligned {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `whole_lines` keeps the size non-zero when the caller's is.
        unsafe { System.alloc(whole_lines(layout)) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this same padded layout.
        unsafe { System.dealloc(ptr, whole_lines(layout)) }
    }
}

#[global_allocator]
static ALLOCATOR: LineAligned = LineAligned;

/// Source bytes on a cache-line boundary, for the same reason: an unaligned
/// constant would tie the recorded times to where the linker put it.
#[repr(align(64))]
struct Aligned<const N: usize>([u8; N]);

static REQUEST: Aligned<7> = Aligned(*b"request");
static REPLY: Aligned<5> = Aligned(*b"reply");
static BYTES: Aligned<100> = Aligned([0x11; 100]);
/// Below the 512 B zero-copy threshold: copied.
static SMALL: Aligned<64> = Aligned([0xC3; 64]);

const A: u16 = 1000;
const B: u16 = 2000;
const SERVER: u16 = 9000;
const CLIENT: u16 = 4000;

fn stack(sim: &Sim, wire: Port, port: u16) -> TcpStack {
    TcpStack::new(sim.clone(), wire, port, SerializationConfig::hybrid())
}

/// Two unconnected stacks on one `Sim` (one clock, one charge stream).
fn stack_pair() -> (TcpStack, TcpStack, Sim) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (pa, pb) = link();
    (stack(&sim, pa, A), stack(&sim, pb, B), sim)
}

fn handshake(a: &mut TcpStack, b: &mut TcpStack) {
    a.connect(B).unwrap();
    b.poll().unwrap(); // SYN -> SYN|ACK
    a.poll().unwrap(); // SYN|ACK -> ACK
    b.poll().unwrap(); // ACK
}

fn established_pair() -> (TcpStack, TcpStack, Sim) {
    let (mut a, mut b, sim) = stack_pair();
    handshake(&mut a, &mut b);
    assert!(a.is_established() && b.is_established());
    (a, b, sim)
}

fn listener_rig(cfg: FlowConfig) -> (TcpListener, PortHub, TcpStack, Sim) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (server_wire, trunk) = link();
    let mut hub = PortHub::new(trunk);
    let listener = TcpListener::new(
        sim.clone(),
        server_wire,
        SERVER,
        SerializationConfig::hybrid(),
        cfg,
    );
    let client = stack(&sim, hub.attach(CLIENT), CLIENT);
    (listener, hub, client, sim)
}

fn accept(listener: &mut TcpListener, hub: &mut PortHub, client: &mut TcpStack) {
    client.connect(SERVER).unwrap();
    hub.pump();
    listener.poll().unwrap(); // SYN -> SYN|ACK
    hub.pump();
    client.poll().unwrap(); // SYN|ACK -> ACK
    hub.pump();
    listener.poll().unwrap(); // ACK -> established
}

fn accepted_rig(cfg: FlowConfig) -> (TcpListener, PortHub, TcpStack, Sim) {
    let (mut listener, mut hub, mut client, sim) = listener_rig(cfg);
    accept(&mut listener, &mut hub, &mut client);
    assert!(client.is_established());
    assert_eq!(listener.established_flows(), 1);
    (listener, hub, client, sim)
}

/// Delivers one request to the listener and returns the flow it came on.
fn request(listener: &mut TcpListener, hub: &mut PortHub, client: &mut TcpStack) -> FlowId {
    client.send_bytes(&REQUEST.0).unwrap();
    hub.pump();
    listener.poll().unwrap();
    let (flow, msg) = listener.recv_from().unwrap().expect("request delivered");
    assert_eq!(msg.as_slice(), &REQUEST.0);
    flow
}

/// A `GetMsg` with one 64 B value (copied) and one 2 KiB pinned value
/// (zero-copy).
fn two_value_msg(ctx: &cornflakes_core::SerCtx) -> GetMsg {
    let pinned = ctx.pool.alloc_from(&[0x5A; 2048]).unwrap();
    let mut m = GetMsg::new();
    m.id = Some(7);
    m.add_vals(ctx, &SMALL.0);
    m.add_vals(ctx, pinned.as_slice());
    m
}

fn stack_handshake() -> String {
    let (mut a, mut b, sim) = stack_pair();
    let line = traced(&sim, || handshake(&mut a, &mut b));
    assert!(a.is_established() && b.is_established());
    line
}

fn stack_send_object() -> String {
    let (mut a, mut b, sim) = established_pair();
    traced(&sim, || {
        let m = two_value_msg(a.ctx());
        a.send_object(&m).unwrap();
        drop(m);
        b.poll().unwrap(); // data -> ACK
        let msg = b.recv_msg().unwrap().expect("delivered");
        assert_eq!(msg.len(), a.unacked_bytes() as usize - 4);
        a.poll().unwrap(); // ACK releases the record
        assert_eq!(a.retransmit_queue_len(), 0);
    })
}

fn stack_send_bytes() -> String {
    let (mut a, mut b, sim) = established_pair();
    traced(&sim, || {
        a.send_bytes(&BYTES.0).unwrap();
        b.poll().unwrap();
        assert_eq!(b.recv_msg().unwrap().expect("delivered").len(), 100);
        a.poll().unwrap();
        assert_eq!(a.retransmit_queue_len(), 0);
    })
}

fn stack_rto_repair() -> String {
    let (mut a, mut b, sim) = established_pair();
    let to_b = b.install_faults(FaultPlan::none());
    traced(&sim, || {
        a.send_bytes(&BYTES.0).unwrap();
        assert!(to_b.drop_pending());
        b.poll().unwrap();
        sim.clock().advance(300_000);
        a.poll().unwrap(); // RTO retransmits
        assert_eq!(a.retransmissions(), 1);
        b.poll().unwrap();
        assert_eq!(b.recv_msg().unwrap().expect("repaired").len(), 100);
        a.poll().unwrap();
        assert_eq!(a.retransmit_queue_len(), 0);
    })
}

fn stack_close() -> String {
    let (mut a, mut b, sim) = established_pair();
    traced(&sim, || {
        a.close().unwrap();
        b.poll().unwrap(); // FIN -> FIN|ACK
        a.poll().unwrap(); // FIN|ACK -> ACK
        assert!(a.is_closed() && b.is_closed());
    })
}

fn listener_accept() -> String {
    let (mut listener, mut hub, mut client, sim) = listener_rig(FlowConfig::default());
    let line = traced(&sim, || accept(&mut listener, &mut hub, &mut client));
    assert_eq!(listener.established_flows(), 1);
    line
}

fn listener_request_and_object_reply() -> String {
    let (mut listener, mut hub, mut client, sim) = accepted_rig(FlowConfig::default());
    traced(&sim, || {
        let flow = request(&mut listener, &mut hub, &mut client);
        let reply = two_value_msg(listener.ctx());
        assert!(listener
            .send_object_to(flow, &[1, 2, 3, 4, 5, 6, 7, 8], &reply)
            .unwrap());
        drop(reply);
        hub.pump();
        client.poll().unwrap();
        let msg = client.recv_msg().unwrap().expect("reply delivered");
        assert_eq!(&msg.as_slice()[..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
        hub.pump();
        listener.poll().unwrap(); // the client's ACK releases the record
    })
}

fn listener_duplicate_syn() -> String {
    let (mut listener, mut hub, _client, sim) = listener_rig(FlowConfig::default());
    let line = traced(&sim, || {
        for _ in 0..2 {
            hub.inject(raw_segment(CLIENT + 1, SERVER, 1, 0, FLAG_SYN));
            hub.pump();
            listener.poll().unwrap(); // SYN|ACK, then the re-sent SYN|ACK
        }
    });
    assert_eq!(listener.syn_backlog_len(), 1);
    line
}

fn listener_rto() -> String {
    let (mut listener, mut hub, mut client, sim) = accepted_rig(FlowConfig::default());
    let to_client = client.install_faults(FaultPlan::none());
    traced(&sim, || {
        let flow = request(&mut listener, &mut hub, &mut client);
        assert!(listener.send_bytes_to(flow, &REPLY.0).unwrap());
        hub.pump();
        assert!(to_client.drop_pending());
        client.poll().unwrap();
        sim.clock().advance(300_000);
        listener.poll().unwrap(); // the wheel fires the RTO
        assert_eq!(listener.stats().retransmissions, 1);
        hub.pump();
        client.poll().unwrap();
        assert_eq!(
            client.recv_msg().unwrap().expect("repaired").as_slice(),
            &REPLY.0
        );
        hub.pump();
        listener.poll().unwrap();
    })
}

fn listener_idle_reap() -> String {
    let (mut listener, _hub, _client, sim) = accepted_rig(FlowConfig::default());
    let line = traced(&sim, || {
        sim.clock().advance(3_000_000);
        listener.poll().unwrap();
    });
    assert_eq!(listener.stats().reaps, 1);
    line
}

fn listener_syn_reject() -> String {
    let (mut listener, mut hub, mut client, sim) = listener_rig(FlowConfig {
        syn_backlog: 0,
        ..FlowConfig::default()
    });
    let line = traced(&sim, || {
        client.connect(SERVER).unwrap();
        hub.pump();
        listener.poll().unwrap(); // SYN -> RST
        hub.pump();
        client.poll().unwrap();
    });
    assert!(client.is_closed());
    line
}

/// Hostile input: an ACK for bytes never sent must not release the record
/// whose only transmission was lost.
fn stack_forged_ack() -> String {
    let (mut a, raw, sim) = stack_and_raw_peer();
    a.connect(A).unwrap();
    raw.recv().expect("SYN");
    send_raw(&raw, raw_segment(A, B, 1, 2, FLAG_SYN | FLAG_ACK));
    a.poll().unwrap();
    assert!(a.is_established());
    raw.recv().expect("handshake ACK");
    traced(&sim, || {
        a.send_bytes(&BYTES.0).unwrap();
        raw.recv().expect("the data segment, lost here");
        // snd_nxt is 2 + 4 + 100; acknowledge 1000 past it.
        send_raw(&raw, raw_segment(A, B, 2, 106 + 1000, FLAG_ACK));
        a.poll().unwrap();
        assert_eq!(a.retransmit_queue_len(), 1, "forged ACK released it");
        sim.clock().advance(300_000);
        a.poll().unwrap(); // the record survived: the RTO repairs
        assert_eq!(a.retransmissions(), 1);
        raw.recv().expect("retransmission");
        send_raw(&raw, raw_segment(A, B, 2, 106, FLAG_ACK));
        a.poll().unwrap();
        assert_eq!(a.retransmit_queue_len(), 0);
    })
}

fn listener_forged_ack() -> String {
    let (mut listener, mut hub, mut client, sim) = accepted_rig(FlowConfig::default());
    let to_client = client.install_faults(FaultPlan::none());
    traced(&sim, || {
        let flow = request(&mut listener, &mut hub, &mut client);
        assert!(listener.send_bytes_to(flow, &REPLY.0).unwrap());
        hub.pump();
        assert!(to_client.drop_pending());
        // snd_nxt is 2 + 4 + 5 after the reply; acknowledge 1000 past it.
        hub.inject(raw_segment(CLIENT, SERVER, 13, 11 + 1000, FLAG_ACK));
        hub.pump();
        listener.poll().unwrap();
        sim.clock().advance(300_000);
        listener.poll().unwrap(); // the record survived: the RTO repairs
        assert_eq!(listener.stats().retransmissions, 1);
        hub.pump();
        client.poll().unwrap();
        assert_eq!(
            client.recv_msg().unwrap().expect("repaired").as_slice(),
            &REPLY.0
        );
    })
}

/// Hostile input: a passive stack completes its handshake only on the ACK
/// that acknowledges its SYN.
fn stack_stray_handshake_ack() -> String {
    let (mut b, raw, sim) = stack_and_raw_peer();
    traced(&sim, || {
        send_raw(&raw, raw_segment(A, B, 1, 0, FLAG_SYN));
        b.poll().unwrap(); // -> SYN|ACK
        send_raw(&raw, raw_segment(A, B, 2, 77, FLAG_ACK));
        b.poll().unwrap();
        assert!(!b.is_established(), "a wrong-numbered ACK establishes");
        send_raw(&raw, raw_segment(A, B, 2, 2, FLAG_ACK));
        b.poll().unwrap();
        assert!(b.is_established());
    })
}

/// A lost SYN|ACK is repaired by the initiator's re-sent SYN.
fn stack_lost_synack() -> String {
    let (mut a, mut b, sim) = stack_pair();
    let to_a = a.install_faults(FaultPlan::none());
    traced(&sim, || {
        a.connect(B).unwrap();
        b.poll().unwrap(); // SYN -> SYN|ACK
        assert!(to_a.drop_pending());
        a.poll().unwrap();
        a.connect(B).unwrap(); // the application retries
        b.poll().unwrap(); // duplicate SYN -> SYN|ACK again
        a.poll().unwrap();
        b.poll().unwrap();
        assert!(a.is_established() && b.is_established());
    })
}

type Scenario = (&'static str, fn() -> String);

const SCENARIOS: [Scenario; 11] = [
    ("stack_handshake", stack_handshake),
    ("stack_send_object", stack_send_object),
    ("stack_send_bytes", stack_send_bytes),
    ("stack_rto_repair", stack_rto_repair),
    ("stack_close", stack_close),
    ("listener_accept", listener_accept),
    (
        "listener_request_and_object_reply",
        listener_request_and_object_reply,
    ),
    ("listener_duplicate_syn", listener_duplicate_syn),
    ("listener_rto", listener_rto),
    ("listener_idle_reap", listener_idle_reap),
    ("listener_syn_reject", listener_syn_reject),
];

/// The two hostile-input fixes, one scenario per endpoint each: these fail
/// on the commit `EXPECTED` was recorded on.
const HOSTILE: [Scenario; 4] = [
    ("stack_forged_ack", stack_forged_ack),
    ("listener_forged_ack", listener_forged_ack),
    ("stack_stray_handshake_ack", stack_stray_handshake_ack),
    ("stack_lost_synack", stack_lost_synack),
];

fn run(scenarios: &[Scenario]) -> String {
    let mut out = String::new();
    for (name, scenario) in scenarios {
        out.push_str(&format!("{name}: {}\n", scenario()));
    }
    out
}

/// Captured on the commit before the refactor (d41e27b).
const EXPECTED: &str = "\
stack_handshake: TRTRTR @642
stack_send_object: CCZZZZTHHCZZTRRTRR @2372
stack_send_bytes: TCRRTRR @1325
stack_rto_repair: TCTRRTRR @301559
stack_close: TRTRT @1177
listener_accept: TRTRTR @642
listener_request_and_object_reply: TCRRTRCCZZZZTHHCZZTRRRTRR @3020
listener_duplicate_syn: RTRT @428
listener_rto: TCRRTRTCRRTTRTRRR @302386
listener_idle_reap: T @3000706
listener_syn_reject: TRTR @385
";

/// Captured with the fixes in place.
const EXPECTED_HOSTILE: &str = "\
stack_forged_ack: TCRTR @301043
listener_forged_ack: TCRRTRTCRTRRTRTR @302279
stack_stray_handshake_ack: RTRR @428
stack_lost_synack: TRTTRTRTR @963
";

#[test]
fn scenarios_charge_the_recorded_sequences_and_end_times() {
    let actual = run(&SCENARIOS);
    assert_eq!(
        actual.trim(),
        EXPECTED.trim(),
        "a TCP scenario's charges or end time moved:\n{actual}"
    );
}

#[test]
fn hostile_input_scenarios_charge_the_recorded_sequences_and_end_times() {
    let actual = run(&HOSTILE);
    assert_eq!(
        actual.trim(),
        EXPECTED_HOSTILE.trim(),
        "a hostile-input scenario's charges or end time moved:\n{actual}"
    );
}

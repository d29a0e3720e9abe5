//! TCP-lite end-to-end tests: handshake, data transfer, loss recovery, and
//! the extended use-after-free guarantee (buffers held until ACK).

#![allow(clippy::field_reassign_with_default)] // builder-style test setup

mod common;

use cf_net::tcp::{FLAG_ACK, FLAG_SYN};
use cf_net::TcpStack;
use cf_nic::{link, FaultPlan};
use cf_sim::{Clock, MachineProfile, Sim};
use common::{raw_segment, send_raw, stack_and_raw_peer};
use cornflakes_core::msgs::Single;
use cornflakes_core::{CFBytes, CornflakesObj, SerializationConfig};

/// Builds a connected pair sharing one clock so RTO timing is coherent.
fn established_pair() -> (TcpStack, TcpStack, Clock) {
    let sim_a = Sim::new(MachineProfile::tiny_for_tests());
    let clock = sim_a.clock();
    // The peer shares the same Sim (one virtual machine hosting both ends
    // keeps the clocks aligned; costs still accrue consistently).
    let sim_b = sim_a.clone();
    let (pa, pb) = link();
    let mut a = TcpStack::new(sim_a, pa, 1000, SerializationConfig::hybrid());
    let mut b = TcpStack::new(sim_b, pb, 2000, SerializationConfig::hybrid());
    a.connect(2000).unwrap();
    b.poll().unwrap(); // SYN -> SYN|ACK
    a.poll().unwrap(); // SYN|ACK -> ACK
    b.poll().unwrap(); // ACK
    assert!(a.is_established());
    assert!(b.is_established());
    (a, b, clock)
}

#[test]
fn handshake_establishes_both_sides() {
    let (_a, _b, _clock) = established_pair();
}

fn send_msg(tx: &mut TcpStack, data: &[u8], pinned: bool) {
    let mut m = Single::default();
    m.id = Some(data.len() as u32);
    m.val = Some(if pinned {
        let v = tx.ctx().pool.alloc_from(data).unwrap();
        CFBytes::new(tx.ctx(), v.as_slice())
    } else {
        CFBytes::new(tx.ctx(), data)
    });
    tx.send_object(&m).unwrap();
}

#[test]
fn message_roundtrip() {
    let (mut a, mut b, _clock) = established_pair();
    send_msg(&mut a, b"hello over tcp", false);
    b.poll().unwrap();
    let msg = b.recv_msg().unwrap().expect("message delivered");
    let d = Single::deserialize(b.ctx(), &msg).unwrap();
    assert_eq!(d.id, Some(14));
    assert_eq!(d.val.unwrap().as_slice(), b"hello over tcp");
}

#[test]
fn large_zero_copy_message_roundtrip() {
    let (mut a, mut b, _clock) = established_pair();
    let payload = vec![0xEEu8; 4000];
    send_msg(&mut a, &payload, true);
    b.poll().unwrap();
    let msg = b.recv_msg().unwrap().expect("message delivered");
    let d = Single::deserialize(b.ctx(), &msg).unwrap();
    assert_eq!(d.val.unwrap().as_slice(), &payload[..]);
}

#[test]
fn multiple_messages_in_order() {
    let (mut a, mut b, _clock) = established_pair();
    for i in 0..5u32 {
        send_msg(&mut a, format!("message number {i}").as_bytes(), false);
    }
    b.poll().unwrap();
    for i in 0..5u32 {
        let msg = b.recv_msg().unwrap().expect("in-order delivery");
        let d = Single::deserialize(b.ctx(), &msg).unwrap();
        assert_eq!(
            d.val.unwrap().as_slice(),
            format!("message number {i}").as_bytes()
        );
    }
    assert!(b.recv_msg().unwrap().is_none());
}

#[test]
fn buffers_held_until_acked_then_released() {
    let (mut a, mut b, _clock) = established_pair();
    let value = a.ctx().pool.alloc(2048).unwrap();
    let mut m = Single::default();
    m.val = Some(CFBytes::new(a.ctx(), value.as_slice()));
    assert_eq!(value.refcount(), 2);
    a.send_object(&m).unwrap();
    drop(m);
    // Sent and DMA-completed, but not ACKed: the retransmission queue must
    // still hold the reference.
    assert_eq!(a.retransmit_queue_len(), 1);
    assert_eq!(value.refcount(), 2, "held for possible retransmission");

    b.poll().unwrap(); // receives data, sends ACK
    a.poll().unwrap(); // processes ACK
    assert_eq!(a.retransmit_queue_len(), 0);
    assert_eq!(value.refcount(), 1, "released on cumulative ACK");
}

#[test]
fn lost_segment_is_retransmitted() {
    let (mut a, mut b, clock) = established_pair();
    let payload = vec![0x5Au8; 1500];
    send_msg(&mut a, &payload, true);

    // Drop the data segment on the wire.
    let faults = b.install_faults(FaultPlan::none());
    assert!(faults.drop_pending(), "a frame was in flight to drop");
    b.poll().unwrap();
    assert!(b.recv_msg().unwrap().is_none(), "segment was lost");

    // Advance past the RTO; the sender retransmits from the queue.
    clock.advance(300_000);
    a.poll().unwrap();
    assert_eq!(a.retransmissions(), 1);
    b.poll().unwrap();
    let msg = b.recv_msg().unwrap().expect("retransmission delivered");
    let d = Single::deserialize(b.ctx(), &msg).unwrap();
    assert_eq!(d.val.unwrap().as_slice(), &payload[..]);

    // ACK flows back; queue drains.
    a.poll().unwrap();
    assert_eq!(a.retransmit_queue_len(), 0);
}

#[test]
fn duplicate_segment_is_reacked_not_redelivered() {
    let (mut a, mut b, clock) = established_pair();
    send_msg(&mut a, b"only once", false);
    b.poll().unwrap();
    assert!(b.recv_msg().unwrap().is_some());

    // Suppress the ACK so the sender retransmits a duplicate.
    let faults = a.install_faults(FaultPlan::none());
    assert!(faults.drop_pending(), "ACK dropped");
    clock.advance(300_000);
    a.poll().unwrap();
    assert_eq!(a.retransmissions(), 1);
    b.poll().unwrap();
    assert!(b.recv_msg().unwrap().is_none(), "duplicate not redelivered");
    // The re-ACK repairs the sender.
    a.poll().unwrap();
    assert_eq!(a.retransmit_queue_len(), 0);
}

#[test]
fn corrupted_segment_is_dropped_and_retransmitted() {
    let (mut a, mut b, clock) = established_pair();
    let payload = vec![0xA5u8; 900];
    send_msg(&mut a, &payload, false);

    // Flip one bit in the in-flight segment: the receiver must drop the
    // marked frame (counted) and the RTO must repair the loss.
    let faults = b.install_faults(FaultPlan::none());
    assert!(faults.corrupt_pending(), "a frame was in flight to corrupt");
    b.poll().unwrap();
    assert!(b.recv_msg().unwrap().is_none(), "corrupt segment discarded");

    clock.advance(300_000);
    a.poll().unwrap();
    assert_eq!(a.retransmissions(), 1);
    b.poll().unwrap();
    let msg = b.recv_msg().unwrap().expect("retransmission delivered");
    let d = Single::deserialize(b.ctx(), &msg).unwrap();
    assert_eq!(d.val.unwrap().as_slice(), &payload[..]);
}

#[test]
fn error_bursts_at_every_fcs_kernel_boundary_are_dropped_counted_and_repaired() {
    use cf_telemetry::Telemetry;

    let (mut a, mut b, clock) = established_pair();
    let tele = Telemetry::new(clock.clone());
    b.set_telemetry(&tele);
    let to_b = b.install_faults(FaultPlan::none());
    let to_a = a.install_faults(FaultPlan::none());

    let mut drops = 0;
    for len in common::FCS_FRAME_LENS {
        // One message is one segment: TCP header, length prefix, bytes.
        let data: Vec<u8> = (0..len - cf_net::tcp::TCP_HEADER_BYTES - 4)
            .map(|i| (i * 29 + len) as u8)
            .collect();
        for (first_bit, width) in common::fcs_boundary_bursts(len) {
            a.send_bytes(&data).unwrap();
            assert!(to_b.corrupt_pending_at(first_bit, width));
            b.poll().unwrap();
            assert!(
                b.recv_msg().unwrap().is_none(),
                "{len} B segment, {width} bits flipped from bit {first_bit}: surfaced"
            );
            drops += 1;
            assert_eq!(
                tele.counter_value("net.tcp.rx_corrupt_drops"),
                drops,
                "{len} B segment, bit {first_bit}: counted exactly once"
            );
            assert_eq!(to_a.pending(), 0, "a corrupt segment is not ACKed");

            // The RTO repairs it with the same bytes, which verify.
            clock.advance(300_000);
            a.poll().unwrap();
            b.poll().unwrap();
            let msg = b.recv_msg().unwrap().expect("retransmission delivered");
            assert_eq!(msg.as_slice(), &data[..]);
            a.poll().unwrap();
            assert_eq!(a.retransmit_queue_len(), 0);
        }
    }
    assert_eq!(a.retransmissions(), drops);
}

#[test]
fn random_loss_plan_is_recovered_by_retransmission() {
    let (mut a, mut b, clock) = established_pair();
    // Seeded stochastic faults on the data direction: heavy loss plus
    // corruption, repaired entirely by TCP's RTO machinery.
    let faults = b.install_faults(FaultPlan::seeded(7).with_drop(0.3).with_corrupt(0.1));
    let mut expected = Vec::new();
    for i in 0..8u32 {
        let payload = format!("resilient message {i}").into_bytes();
        send_msg(&mut a, &payload, i % 2 == 0);
        expected.push(payload);
    }
    let mut got = Vec::new();
    for _round in 0..200 {
        b.poll().unwrap();
        while let Some(msg) = b.recv_msg().unwrap() {
            let d = Single::deserialize(b.ctx(), &msg).unwrap();
            got.push(d.val.unwrap().as_slice().to_vec());
        }
        clock.advance(250_000);
        a.poll().unwrap();
        if got.len() == expected.len() && a.retransmit_queue_len() == 0 {
            break;
        }
    }
    assert_eq!(got, expected, "in-order exactly-once under seeded faults");
    let stats = faults.stats();
    assert!(
        stats.dropped + stats.corrupted > 0,
        "the plan actually perturbed the wire"
    );
}

#[test]
fn bounded_rx_backlog_drops_are_recovered_by_rto() {
    use cf_telemetry::Telemetry;

    let (mut a, mut b, clock) = established_pair();
    let tele = Telemetry::new(clock.clone());
    b.set_telemetry(&tele);
    b.set_rx_backlog_limit(1);

    // Three messages, three data segments, all on the wire before the
    // receiver polls: a burst the bounded ring cannot hold.
    for i in 0..3u32 {
        send_msg(&mut a, format!("bounded message {i}").as_bytes(), false);
    }
    b.poll().unwrap();
    assert_eq!(
        tele.counter_value("net.tcp.backlog_drops"),
        2,
        "ring of 1 keeps the oldest segment and tail-drops the rest"
    );

    // The in-order prefix that survived is delivered immediately; the
    // dropped tail is NOT a protocol violation — it looks like loss, and
    // the sender's retransmission timer recovers it.
    let mut received = Vec::new();
    while let Some(msg) = b.recv_msg().unwrap() {
        received.push(msg);
    }
    assert_eq!(received.len(), 1);

    let mut rounds = 0;
    while received.len() < 3 {
        rounds += 1;
        assert!(rounds <= 10, "RTO recovery should converge");
        clock.advance(300_000);
        a.poll().unwrap(); // RTO fires; unacked segments retransmit
        b.poll().unwrap(); // bounded ring admits at least one per round
        while let Some(msg) = b.recv_msg().unwrap() {
            received.push(msg);
        }
    }
    assert!(
        a.retransmissions() >= 1,
        "recovery went through the RTO path"
    );

    // Everything arrived exactly once and in order despite the drops.
    for (i, msg) in received.iter().enumerate() {
        let d = Single::deserialize(b.ctx(), msg).unwrap();
        assert_eq!(
            d.val.unwrap().as_slice(),
            format!("bounded message {i}").as_bytes()
        );
    }
    // The sender's queue drains once the final ACK lands.
    a.poll().unwrap();
    assert_eq!(a.retransmit_queue_len(), 0);
}

#[test]
fn reasm_cap_overflow_is_dropped_as_loss_and_recovered_by_rto() {
    let (mut a, mut b, clock) = established_pair();
    // The receiver's reassembly buffer holds 256 KiB (`DEFAULT_REASM_CAP`):
    // 32 messages of 8,192 stream bytes each (8,188 bytes behind the
    // 4-byte length prefix) fill it exactly, and a 33rd does not fit.
    const CAP: usize = 256 * 1024;
    const MSG: usize = 8188;
    for _ in 0..32 {
        a.send_bytes(&[0xAA; MSG]).unwrap(); // fits
    }
    a.send_bytes(&[0xBB; MSG]).unwrap(); // would pass the cap: dropped
    b.poll().unwrap();
    assert_eq!(b.reasm_overflow_drops(), 1);
    assert!(b.reasm_len() <= CAP, "cap is a hard ceiling");

    // The first 32 messages are intact; the overflow segment was treated
    // as loss, not as corruption of the stream.
    for i in 0..32 {
        let m = b
            .recv_msg()
            .unwrap()
            .expect("message under the cap delivered");
        assert_eq!(m.as_slice(), &[0xAA; MSG], "message {i}");
    }
    assert!(
        b.recv_msg().unwrap().is_none(),
        "the 33rd message was dropped"
    );

    // Draining the app buffer makes room; the sender's RTO resends the
    // dropped tail and the stream continues with no data loss.
    clock.advance(300_000);
    a.poll().unwrap();
    assert!(a.retransmissions() >= 1, "recovery via the RTO path");
    b.poll().unwrap();
    let last = b.recv_msg().unwrap().expect("retransmission delivered");
    assert_eq!(last.as_slice(), &[0xBB; MSG]);
    a.poll().unwrap();
    assert_eq!(a.retransmit_queue_len(), 0);
}

#[test]
fn close_returns_pool_occupancy_to_baseline() {
    let (mut a, mut b, _clock) = established_pair();
    let baseline = a.ctx().pool.live_slots();

    // A pinned in-flight message: the retransmission queue holds pool
    // buffers until ACKed.
    let value = a.ctx().pool.alloc_from(&[0xCD; 2000]).unwrap();
    let mut m = Single::default();
    m.val = Some(CFBytes::new(a.ctx(), value.as_slice()));
    a.send_object(&m).unwrap();
    drop(m);
    drop(value);
    assert!(
        a.ctx().pool.live_slots() > baseline,
        "unACKed send pins pool buffers"
    );

    // Graceful close: FIN rides behind the data; the peer's ACKs plus its
    // FIN|ACK release every record immediately on teardown.
    a.close().unwrap();
    b.poll().unwrap(); // data + FIN -> ACKs + FIN|ACK, b closes
    a.poll().unwrap(); // ACK releases records; FIN completes the close
    assert!(a.is_closed());
    assert!(b.is_closed());
    assert_eq!(
        a.ctx().pool.live_slots(),
        baseline,
        "close returns every pool buffer, not just on drop"
    );
    assert_eq!(a.retransmit_queue_len(), 0);
}

#[test]
fn ack_for_bytes_never_sent_releases_nothing_and_the_rto_still_repairs() {
    let (mut a, raw, sim) = stack_and_raw_peer();
    let clock = sim.clock();
    a.connect(1000).unwrap();
    raw.recv().expect("SYN");
    send_raw(&raw, raw_segment(1000, 2000, 1, 2, FLAG_SYN | FLAG_ACK));
    a.poll().unwrap();
    assert!(a.is_established());
    raw.recv().expect("handshake ACK");

    let value = a.ctx().pool.alloc(2048).unwrap();
    let mut m = Single::default();
    m.val = Some(CFBytes::new(a.ctx(), value.as_slice()));
    a.send_object(&m).unwrap();
    drop(m);
    raw.recv().expect("the data segment, lost here");
    let sent = a.unacked_bytes();

    send_raw(&raw, raw_segment(1000, 2000, 2, 2 + sent + 1000, FLAG_ACK));
    a.poll().unwrap();
    assert_eq!(a.retransmit_queue_len(), 1, "the record survives");
    assert_eq!(a.unacked_bytes(), sent, "snd_una did not pass snd_nxt");
    assert_eq!(value.refcount(), 2, "still held for retransmission");

    clock.advance(300_000);
    a.poll().unwrap();
    assert_eq!(a.retransmissions(), 1, "the RTO still repairs the flow");
    raw.recv().expect("retransmission");
    send_raw(&raw, raw_segment(1000, 2000, 2, 2 + sent, FLAG_ACK));
    a.poll().unwrap();
    assert_eq!(a.retransmit_queue_len(), 0);
    assert_eq!(value.refcount(), 1, "released by the genuine ACK");
}

#[test]
fn passive_open_completes_only_on_the_ack_of_its_syn() {
    let (mut b, raw, _sim) = stack_and_raw_peer();
    send_raw(&raw, raw_segment(1000, 2000, 1, 0, FLAG_SYN));
    b.poll().unwrap();
    raw.recv().expect("SYN|ACK");
    send_raw(&raw, raw_segment(1000, 2000, 2, 77, FLAG_ACK));
    b.poll().unwrap();
    assert!(!b.is_established(), "a stray ACK must not establish");
    send_raw(&raw, raw_segment(1000, 2000, 2, 2, FLAG_ACK));
    b.poll().unwrap();
    assert!(b.is_established());
}

#[test]
fn lost_synack_is_repaired_by_a_resent_syn() {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (pa, pb) = link();
    let mut a = TcpStack::new(sim.clone(), pa, 1000, SerializationConfig::hybrid());
    let mut b = TcpStack::new(sim, pb, 2000, SerializationConfig::hybrid());
    let to_a = a.install_faults(FaultPlan::none());
    a.connect(2000).unwrap();
    b.poll().unwrap(); // SYN -> SYN|ACK
    assert!(to_a.drop_pending(), "the SYN|ACK is lost");
    a.poll().unwrap();
    assert!(!a.is_established());

    a.connect(2000).unwrap(); // the application retries
    b.poll().unwrap(); // duplicate SYN -> SYN|ACK again
    a.poll().unwrap(); // SYN|ACK -> ACK
    b.poll().unwrap();
    assert!(a.is_established() && b.is_established());
}

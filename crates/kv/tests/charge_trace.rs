//! Charge-trace parity: the ordered sequence of cost categories one warm
//! `KvServer::poll` charges, per serializer and request shape, against
//! sequences recorded before the per-serializer handlers were folded into
//! one. Virtual time is the sum of these charges, so an unchanged sequence
//! is the structural proof that a refactor of the request path did not move
//! it — independent of heap addresses, which shift the cache-dependent
//! amounts but never the calls.

use std::cell::RefCell;
use std::rc::Rc;

use cf_kv::client::{client_server_pair, KvClient};
use cf_kv::server::{KvServer, SerKind};
use cf_mem::PoolConfig;
use cf_sim::cost::{Category, ChargeObserver};
use cf_sim::{MachineProfile, Sim};
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

const BATCH_KEYS: [(&[u8], usize); 8] = [
    (b"b0", 64),
    (b"b1", 128),
    (b"b2", 256),
    (b"b3", 512),
    (b"b4", 1024),
    (b"b5", 2048),
    (b"b6", 96),
    (b"b7", 700),
];

type Send = fn(&mut KvClient);

/// The request shapes, each sent by its `Send`; the third send is the one
/// traced.
const SHAPES: [(&str, Send); 5] = [
    ("get_64", |c| {
        c.send_get(&[b"small"]);
    }),
    ("get_4k", |c| {
        c.send_get(&[b"large"]);
    }),
    ("get_8keys", |c| {
        let keys: Vec<&[u8]> = BATCH_KEYS.iter().map(|&(k, _)| k).collect();
        c.send_get(&keys);
    }),
    ("put_1k", |c| {
        c.send_put(b"written", &[0x42; 1024]);
    }),
    ("get_segment", |c| {
        c.send_get_segment(b"list", 2);
    }),
];

fn rig(kind: SerKind) -> (KvClient, KvServer, Sim) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (client, mut server) = client_server_pair(
        sim.clone(),
        kind,
        SerializationConfig::hybrid(),
        PoolConfig::small_for_tests(),
    );
    let mut values = vec![
        (b"small".as_slice(), vec![64]),
        (b"large", vec![4096]),
        (b"list", vec![4096, 4096, 1000]),
    ];
    values.extend(BATCH_KEYS.iter().map(|&(k, len)| (k, vec![len])));
    for (key, segments) in values {
        server
            .store
            .preload(server.stack.ctx(), key, &segments)
            .expect("preload");
    }
    (client, server, sim)
}

fn trace(kind: SerKind, send: Send) -> String {
    let (mut client, mut server, sim) = rig(kind);
    for _ in 0..2 {
        send(&mut client);
        assert_eq!(server.poll(), 1);
        client.recv_response().expect("warm-up reply");
    }
    send(&mut client);
    let recorder = Rc::new(Recorder::default());
    sim.set_charge_observer(Some(recorder.clone()));
    assert_eq!(server.poll(), 1);
    sim.set_charge_observer(None);
    client.recv_response().expect("traced reply");
    let seq = recorder.0.borrow().clone();
    seq
}

/// Captured on the commit before the refactor (09876a6), one line per
/// `SerKind` x shape.
const EXPECTED: &str = "\
cornflakes get_64: RDDDDGGGCCTHHC
cornflakes get_4k: RDDDDGGGZZZZTHHZZT
cornflakes get_8keys: RDDDDDDDDDDDGGGCCGGGCCGGGCCGGGZZZZGGGZZZZGGGZZZZGGGCCGGGZZZZTHHCCCCZZZZZZZZTTTT
cornflakes put_1k: RDDDDDPPGGGTHH
cornflakes get_segment: RDDDDGGGZZZZTHHZZT
protobuf get_64: RDADDDGGGACAHHCHT
protobuf get_4k: RDADDDGGGACAHHCHT
protobuf get_8keys: RDADDDADDDADDDADDDADDDADDDADDDADDDGGGACGGGACGGGACGGGACGGGACGGGACGGGACGGGACAHHCHCHCHCHCHCHCHCHT
protobuf put_1k: RDADDDADDPPGGGAHHT
protobuf get_segment: RDADDDGGGACAHHCHT
flatbuffers get_64: RDDDDGGGAHCHHCT
flatbuffers get_4k: RDDDDGGGAHCHHCT
flatbuffers get_8keys: RDDDDDDDDDDDDDDDDDDGGGGGGGGGGGGGGGGGGGGGGGGAHCHCHCHCHCHCHCHCHHCT
flatbuffers put_1k: RDDDDDPPGGGAHCT
flatbuffers get_segment: RDDDDGGGAHCHHCT
capnproto get_64: RDDDDGGGHCHCHCCT
capnproto get_4k: RDDDDGGGHCHACHCCCT
capnproto get_8keys: RDDDDDDDDDDDDDDDDDDGGGHCGGGHCGGGHCGGGHCGGGHCGGGHCGGGHACGGGHCHCHCCCT
capnproto put_1k: RDDDDDPPGGGHCT
capnproto get_segment: RDDDDGGGHCHCHCCT
";

#[test]
fn warm_poll_charges_the_recorded_category_sequence() {
    let mut actual = String::new();
    for kind in SerKind::all() {
        for (shape, send) in SHAPES {
            let line = format!("{} {shape}: {}\n", kind.metric_key(), trace(kind, send));
            actual.push_str(&line);
        }
    }
    assert_eq!(
        actual.trim(),
        EXPECTED.trim(),
        "charge sequences moved; actual:\n{actual}"
    );
}

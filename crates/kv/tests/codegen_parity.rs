//! Parity between the schema-generated messages, the `DynMessage`
//! interpreter and the recorded hand-written encoding.
//!
//! `GetMsg` (generated from `schema/kv.proto`) and `cornflakes_core::msgs::
//! GetM` (generated from core's `schema/msgs.proto`) have the same layout,
//! so their wire encodings must be byte-identical and cross-deserializable
//! — and identical to what `DynMessage` produces from the schema text and
//! to the bytes recorded from the hand-written `GetM` before it was
//! deleted. The emitter, the interpreter and the recording are three
//! independent statements of one format.

use cf_codegen::parser::parse;
use cf_sim::{MachineProfile, Sim};
use cornflakes_core::dynamic::{DynMessage, DynValue};
use cornflakes_core::msgs::{Batch, GetM, KvPair};
use cornflakes_core::obj::serialize_to_vec;
use cornflakes_core::{CFBytes, CornflakesObj, SerCtx, SerializationConfig};

use cf_kv::msgs::GetMsg;

/// The instance of the first test as the hand-written `GetM` serialized it.
const RECORDED: &[u8] = include_bytes!("../../../tests/golden/core_msgs/GetM_parity_42.bin");

fn ctx() -> SerCtx {
    SerCtx::new(
        Sim::new(MachineProfile::tiny_for_tests()),
        SerializationConfig::hybrid(),
    )
}

#[test]
fn generated_interpreted_and_recorded_encodings_match() {
    let c = ctx();
    let pinned = c.pool.alloc(2048).unwrap();

    let mut generated = GetMsg::new();
    generated.id = Some(42);
    generated.add_keys(&c, b"key-one");
    generated.add_keys(&c, b"key-two");
    generated.add_vals(&c, pinned.as_slice());

    let mut core_msg = GetM::new();
    core_msg.id = Some(42);
    core_msg.keys.append(CFBytes::new(&c, b"key-one"));
    core_msg.keys.append(CFBytes::new(&c, b"key-two"));
    core_msg.vals.append(CFBytes::new(&c, pinned.as_slice()));

    let schema = parse(include_str!("../schema/kv.proto")).expect("parses");
    let mut interpreted = DynMessage::new(&schema, "GetMsg").expect("message exists");
    assert!(interpreted.set_scalar("id", 42));
    assert!(interpreted.push_bytes(&c, "keys", b"key-one"));
    assert!(interpreted.push_bytes(&c, "keys", b"key-two"));
    assert!(interpreted.push_bytes(&c, "vals", pinned.as_slice()));

    assert_eq!(generated.footprint(), core_msg.footprint());
    assert_eq!(generated.footprint(), interpreted.footprint());
    let wire = serialize_to_vec(&generated);
    assert_eq!(
        wire,
        serialize_to_vec(&core_msg),
        "wire encodings must be byte-identical"
    );
    assert_eq!(
        wire,
        serialize_to_vec(&interpreted),
        "and the interpreter's"
    );
    assert_eq!(wire, RECORDED, "and the recorded hand-written encoding");
}

#[test]
fn cross_deserialization() {
    let c = ctx();
    let rx = ctx();
    let mut generated = GetMsg::new();
    generated.id = Some(7);
    generated.add_vals(&c, &[0xAB; 600]);
    let wire = serialize_to_vec(&generated);
    let pkt = rx.pool.alloc_from(&wire).unwrap();

    // The core message decodes the KV message's encoding...
    let core_msg = GetM::deserialize(&rx, &pkt).unwrap();
    assert_eq!(core_msg.id, Some(7));
    assert_eq!(core_msg.vals.get(0).unwrap().as_slice(), &[0xAB; 600][..]);

    // ...the generated type decodes its own encoding...
    let gen = GetMsg::deserialize(&rx, &pkt).unwrap();
    assert_eq!(gen.id, Some(7));
    assert_eq!(gen.vals.get(0).unwrap().as_slice(), &[0xAB; 600][..]);

    // ...and so does the interpreter.
    let schema = parse(include_str!("../schema/kv.proto")).expect("parses");
    let interpreted = DynMessage::decode(&rx, &schema, "GetMsg", &pkt).unwrap();
    assert!(matches!(interpreted.get("id"), Some(DynValue::Scalar(7))));
    match interpreted.get("vals") {
        Some(DynValue::BytesList(l)) => assert_eq!(l[0].as_slice(), &[0xAB; 600][..]),
        other => panic!("expected vals list, got {other:?}"),
    }
}

#[test]
fn generated_nested_messages_roundtrip() {
    let c = ctx();
    let rx = ctx();
    let pinned = c.pool.alloc(1024).unwrap();
    let mut batch = Batch::new();
    batch.set_id(99);
    for i in 0..3u64 {
        let mut pair = KvPair::new();
        pair.set_key(&c, format!("k{i}").as_bytes());
        pair.set_val(&c, if i == 1 { pinned.as_slice() } else { b"small" });
        batch.add_pairs(pair);
        batch.add_versions(i * 10);
    }
    assert_eq!(batch.zero_copy_entries(), 1);

    let wire = serialize_to_vec(&batch);
    let pkt = rx.pool.alloc_from(&wire).unwrap();
    let d = Batch::deserialize(&rx, &pkt).unwrap();
    assert_eq!(d.get_id(), Some(99));
    assert_eq!(d.get_pairs().len(), 3);
    assert_eq!(d.get_pairs().get(1).unwrap().get_val().unwrap().len(), 1024);
    assert_eq!(
        d.get_pairs().get(2).unwrap().get_key().unwrap().as_slice(),
        b"k2"
    );
    let versions: Vec<u64> = d.get_versions().iter().collect();
    assert_eq!(versions, vec![0, 10, 20]);
}

#[test]
fn generated_accessors_match_listing_1() {
    // The paper's Listing 1 API surface: new / init_vals / get_mut_vals /
    // get_keys / deserialize.
    let c = ctx();
    let mut m = GetMsg::new();
    m.init_vals(4);
    m.get_mut_vals().append(CFBytes::new(&c, b"v"));
    assert_eq!(m.get_vals().len(), 1);
    assert_eq!(m.get_keys().len(), 0);
}

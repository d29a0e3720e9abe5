//! Wire parity between dynamic (runtime-schema) messages and the generated
//! code: a `DynMessage` built against `schema/msgs.proto` must serialize to
//! the exact bytes the generated `cornflakes_core::msgs::GetM` produces —
//! which are the bytes recorded from the hand-written `GetM` before it was
//! deleted — and must decode them back.

use cf_sim::{MachineProfile, Sim};
use cornflakes_core::msgs::GetM;
use cornflakes_core::obj::serialize_to_vec;
use cornflakes_core::{CFBytes, CornflakesObj, SerCtx, SerializationConfig};

use cf_codegen::parser::parse;
use cornflakes_core::dynamic::{DynMessage, DynValue};

/// The schema `cornflakes_core::msgs` is generated from.
const SCHEMA: &str = include_str!("../schema/msgs.proto");

/// The instance below as the hand-written `GetM` serialized it.
const RECORDED: &[u8] = include_bytes!("../../../tests/golden/core_msgs/GetM_parity_77.bin");

fn ctx() -> SerCtx {
    SerCtx::new(
        Sim::new(MachineProfile::tiny_for_tests()),
        SerializationConfig::hybrid(),
    )
}

#[test]
fn dynamic_encoding_matches_reference_bytes() {
    let schema = parse(SCHEMA).expect("parses");
    let c = ctx();
    let pinned = c.pool.alloc(2048).expect("pool");

    let mut dynamic = DynMessage::new(&schema, "GetM").expect("message exists");
    assert!(dynamic.set_scalar("id", 77));
    assert!(dynamic.push_bytes(&c, "keys", b"key-one"));
    assert!(dynamic.push_bytes(&c, "keys", b"key-two"));
    assert!(dynamic.push_bytes(&c, "vals", pinned.as_slice()));

    let mut reference = GetM::new();
    reference.id = Some(77);
    reference.keys.append(CFBytes::new(&c, b"key-one"));
    reference.keys.append(CFBytes::new(&c, b"key-two"));
    reference.vals.append(CFBytes::new(&c, pinned.as_slice()));

    assert_eq!(dynamic.footprint(), reference.footprint());
    assert_eq!(
        serialize_to_vec(&dynamic),
        serialize_to_vec(&reference),
        "dynamic and generated wire bytes must be identical"
    );
    assert_eq!(
        serialize_to_vec(&dynamic),
        RECORDED,
        "and identical to the recorded hand-written encoding"
    );
}

#[test]
fn dynamic_decodes_reference_encoding() {
    let schema = parse(SCHEMA).expect("parses");
    let tx = ctx();
    let rx = ctx();
    let mut reference = GetM::new();
    reference.id = Some(5);
    reference.vals.append(CFBytes::new(&tx, &[0xEE; 700]));
    let wire = serialize_to_vec(&reference);
    let pkt = rx.pool.alloc_from(&wire).expect("pool");

    let d = DynMessage::decode(&rx, &schema, "GetM", &pkt).expect("decodes");
    assert_eq!(d.name(), "GetM");
    match d.get("id") {
        Some(DynValue::Scalar(v)) => assert_eq!(*v, 5),
        other => panic!("expected scalar id, got {other:?}"),
    }
    match d.get("vals") {
        Some(DynValue::BytesList(l)) => {
            assert_eq!(l.len(), 1);
            assert_eq!(l[0].as_slice(), &[0xEE; 700][..]);
        }
        other => panic!("expected vals list, got {other:?}"),
    }
    assert!(d.get("keys").is_none(), "absent field reads as None");
}

#[test]
fn dynamic_nested_and_scalar_lists_roundtrip() {
    let schema = parse(
        "message Inner { string name = 1; uint64 seq = 2; }\n\
         message Outer { uint32 shard = 1; repeated Inner items = 2; repeated uint64 sums = 3; }",
    )
    .expect("parses");
    let c = ctx();

    let mut outer = DynMessage::new(&schema, "Outer").expect("exists");
    outer.set_scalar("shard", 3);
    for i in 0..3u64 {
        let mut inner = DynMessage::new(&schema, "Inner").expect("exists");
        inner.push_bytes(&c, "name", b"nope"); // wrong kind: rejected
        assert!(inner.set_bytes(&c, "name", format!("item-{i}").as_bytes()));
        assert!(inner.set_scalar("seq", 100 + i));
        assert!(outer.push_message("items", inner));
        outer.push_scalar("sums", i * 11);
    }

    let wire = serialize_to_vec(&outer);
    let rx = ctx();
    let pkt = rx.pool.alloc_from(&wire).expect("pool");
    let d = DynMessage::decode(&rx, &schema, "Outer", &pkt).expect("decodes");
    match d.get("items") {
        Some(DynValue::MessageList(items)) => {
            assert_eq!(items.len(), 3);
            for (i, item) in items.iter().enumerate() {
                match item.get("name") {
                    Some(DynValue::Bytes(b)) => {
                        assert_eq!(b.as_slice(), format!("item-{i}").as_bytes())
                    }
                    other => panic!("bad name: {other:?}"),
                }
                match item.get("seq") {
                    Some(DynValue::Scalar(v)) => assert_eq!(*v, 100 + i as u64),
                    other => panic!("bad seq: {other:?}"),
                }
            }
        }
        other => panic!("expected items, got {other:?}"),
    }
    match d.get("sums") {
        Some(DynValue::ScalarList(l)) => assert_eq!(l, &vec![0, 11, 22]),
        other => panic!("expected sums, got {other:?}"),
    }
}

#[test]
fn type_mismatches_are_rejected() {
    let schema = parse(SCHEMA).expect("parses");
    let c = ctx();
    let mut m = DynMessage::new(&schema, "GetM").expect("exists");
    assert!(!m.set_bytes(&c, "id", b"not bytes"), "id is a scalar");
    assert!(!m.set_scalar("keys", 1), "keys is repeated bytes");
    assert!(!m.set_bytes(&c, "keys", b"singular set on repeated"));
    assert!(!m.push_bytes(&c, "missing", b"x"), "unknown field");
    assert!(DynMessage::new(&schema, "Nope").is_none());
}

//! Property-based tests for the wire format.
//!
//! Invariants:
//! 1. Any message shape round-trips bit-exactly through
//!    serialize → assemble → deserialize.
//! 2. `object_len` always equals the assembled frame size.
//! 3. Deserializing *arbitrary bytes* returns `Ok`/`Err` but never panics
//!    and never reads out of bounds (offsets are untrusted input).

use proptest::prelude::*;

use cf_sim::{MachineProfile, Sim};
use cornflakes_core::msgs::{Batch, GetM, KvPair, Put};
use cornflakes_core::obj::serialize_to_vec;
use cornflakes_core::{CFBytes, CornflakesObj, SerCtx, SerializationConfig};

fn ctx(threshold: usize) -> SerCtx {
    SerCtx::new(
        Sim::new(MachineProfile::tiny_for_tests()),
        SerializationConfig {
            zero_copy_threshold: threshold,
            ..SerializationConfig::hybrid()
        },
    )
}

/// Strategy for one field's bytes: sizes biased around the threshold.
fn field_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..16),
        proptest::collection::vec(any::<u8>(), 500..530),
        proptest::collection::vec(any::<u8>(), 1000..2100),
    ]
}

/// Builds a CFBytes either from pinned memory (zero-copy eligible) or heap.
fn make_field(ctx: &SerCtx, data: &[u8], pinned: bool) -> CFBytes {
    if pinned && !data.is_empty() {
        let v = ctx.pool.alloc_from(data).expect("pool alloc");
        CFBytes::new(ctx, v.as_slice())
    } else {
        CFBytes::new(ctx, data)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn getm_roundtrips(
        id in proptest::option::of(any::<u32>()),
        keys in proptest::collection::vec((field_bytes(), any::<bool>()), 0..8),
        vals in proptest::collection::vec((field_bytes(), any::<bool>()), 0..8),
        threshold in prop_oneof![Just(0usize), Just(512), Just(usize::MAX)],
    ) {
        let tx = ctx(threshold);
        let rx = ctx(512);
        let mut m = GetM::new();
        m.id = id;
        for (bytes, pinned) in &keys {
            m.keys.append(make_field(&tx, bytes, *pinned));
        }
        for (bytes, pinned) in &vals {
            m.vals.append(make_field(&tx, bytes, *pinned));
        }
        let wire = serialize_to_vec(&m);
        prop_assert_eq!(wire.len(), m.object_len());
        let pkt = rx.pool.alloc_from(&wire).unwrap();
        let d = GetM::deserialize(&rx, &pkt).unwrap();
        prop_assert_eq!(d.id, id);
        prop_assert_eq!(d.keys.len(), keys.len());
        for (i, (bytes, _)) in keys.iter().enumerate() {
            prop_assert_eq!(d.keys.get(i).unwrap().as_slice(), &bytes[..]);
        }
        prop_assert_eq!(d.vals.len(), vals.len());
        for (i, (bytes, _)) in vals.iter().enumerate() {
            prop_assert_eq!(d.vals.get(i).unwrap().as_slice(), &bytes[..]);
        }
    }

    #[test]
    fn put_roundtrips(
        id in proptest::option::of(any::<u32>()),
        key in proptest::option::of(field_bytes()),
        val in proptest::option::of(field_bytes()),
    ) {
        let tx = ctx(512);
        let rx = ctx(512);
        let m = Put {
            id,
            key: key.as_ref().map(|k| make_field(&tx, k, false)),
            val: val.as_ref().map(|v| make_field(&tx, v, true)),
        };
        let wire = serialize_to_vec(&m);
        prop_assert_eq!(wire.len(), m.object_len());
        let pkt = rx.pool.alloc_from(&wire).unwrap();
        let d = Put::deserialize(&rx, &pkt).unwrap();
        prop_assert_eq!(d.id, id);
        prop_assert_eq!(d.key.map(|k| k.as_slice().to_vec()), key);
        prop_assert_eq!(d.val.map(|v| v.as_slice().to_vec()), val);
    }

    #[test]
    fn nested_batch_roundtrips(
        id in proptest::option::of(any::<u32>()),
        pairs in proptest::collection::vec(
            (proptest::option::of(field_bytes()), proptest::option::of(field_bytes())),
            0..5,
        ),
        versions in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let tx = ctx(512);
        let rx = ctx(512);
        let mut b = Batch { id, ..Batch::default() };
        for (k, v) in &pairs {
            b.pairs.append(KvPair {
                key: k.as_ref().map(|k| make_field(&tx, k, false)),
                val: v.as_ref().map(|v| make_field(&tx, v, true)),
            });
        }
        for &v in &versions {
            b.versions.push(v);
        }
        let wire = serialize_to_vec(&b);
        prop_assert_eq!(wire.len(), b.object_len());
        let pkt = rx.pool.alloc_from(&wire).unwrap();
        let d = Batch::deserialize(&rx, &pkt).unwrap();
        prop_assert_eq!(d.id, id);
        prop_assert_eq!(d.pairs.len(), pairs.len());
        for (i, (k, v)) in pairs.iter().enumerate() {
            let p = d.pairs.get(i).unwrap();
            prop_assert_eq!(p.key.as_ref().map(|x| x.as_slice().to_vec()), k.clone());
            prop_assert_eq!(p.val.as_ref().map(|x| x.as_slice().to_vec()), v.clone());
        }
        let got: Vec<u64> = d.versions.iter().collect();
        prop_assert_eq!(got, versions);
    }

    #[test]
    fn arbitrary_bytes_never_panic_deserializers(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let rx = ctx(512);
        let pkt = rx.pool.alloc_from(&bytes.iter().copied().chain([0]).collect::<Vec<_>>()).unwrap();
        let _ = GetM::deserialize(&rx, &pkt);
        let _ = Put::deserialize(&rx, &pkt);
        let _ = Batch::deserialize(&rx, &pkt);
    }

    #[test]
    fn mutated_valid_frames_never_panic(
        seed_vals in proptest::collection::vec(field_bytes(), 1..4),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let tx = ctx(512);
        let rx = ctx(512);
        let mut m = GetM::new();
        for v in &seed_vals {
            m.vals.append(make_field(&tx, v, true));
        }
        let mut wire = serialize_to_vec(&m);
        for (idx, byte) in flips {
            let i = idx.index(wire.len());
            wire[i] ^= byte;
        }
        let pkt = rx.pool.alloc_from(&wire).unwrap();
        let _ = GetM::deserialize(&rx, &pkt); // Ok or Err, never panic
    }
}

//! The reuse paths against fresh objects: a recycled message, builder or
//! list must decode and encode exactly as a fresh one does.
//!
//! - A random sequence of well-formed, truncated and corrupted messages is
//!   decoded into one recycled `PGetM` and into one pair of recycled Cap'n
//!   Proto lists. After each message the result equals a fresh decode of
//!   the same bytes: no field of an earlier message leaks, and an error
//!   leaves nothing behind. The two decodes run on two clocks that must
//!   read the same afterwards, so the reuse path charges what the fresh
//!   one does, call for call.
//! - Encoding from a recycled message or builder is byte-identical to the
//!   allocating entry points on the same inputs.

use cf_baselines::capnlite::{CapnError, CapnGetM, CapnReader};
use cf_baselines::flatlite::FlatGetM;
use cf_baselines::protolite::PGetM;
use cf_sim::{MachineProfile, Sim};
use proptest::prelude::*;

/// `(id, keys, vals)`; values long enough to span Cap'n Proto segments.
type Shape = (Option<u32>, Vec<Vec<u8>>, Vec<Vec<u8>>);

fn shape() -> impl Strategy<Value = Shape> {
    (
        prop::option::of(any::<u32>()),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..5),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..5000), 0..4),
    )
}

/// What happens to an encoding before it is decoded: kept (0), cut at
/// `at` (1) or with the bytes at `at` XOR-ed with `mask` (2).
type Damage = (u8, Vec<(u16, u8)>);

fn damage() -> impl Strategy<Value = Damage> {
    (
        0u8..3,
        prop::collection::vec((any::<u16>(), 1u8..=255), 1..4),
    )
}

fn damaged(mut wire: Vec<u8>, (kind, at): &Damage) -> Vec<u8> {
    if wire.is_empty() {
        return wire;
    }
    match kind {
        1 => wire.truncate(at[0].0 as usize % wire.len()),
        2 => {
            for &(pos, mask) in at {
                let i = pos as usize % wire.len();
                wire[i] ^= mask;
            }
        }
        _ => {}
    }
    wire
}

fn refs(fields: &[Vec<u8>]) -> Vec<&[u8]> {
    fields.iter().map(Vec::as_slice).collect()
}

fn fill_proto(sim: &Sim, m: &mut PGetM, (id, keys, vals): &Shape) {
    m.id = *id;
    for k in keys {
        m.add_key(sim, k);
    }
    for v in vals {
        m.add_val(sim, v);
    }
}

fn fill_capn(sim: &Sim, b: &mut CapnGetM, (id, keys, vals): &Shape) {
    if let Some(id) = id {
        b.set_id(*id);
    }
    for k in keys {
        b.add_key(sim, k);
    }
    for v in vals {
        b.add_val(sim, v);
    }
}

/// A list resolved into recycled storage against a fresh resolution: on
/// error the list is empty, not holding an earlier message's fields.
fn same_list(got: Result<(), CapnError>, list: &[&[u8]], want: Result<Vec<&[u8]>, CapnError>) {
    match want {
        Ok(want) => {
            assert_eq!(got, Ok(()));
            assert_eq!(list, want);
        }
        Err(e) => {
            assert_eq!(got, Err(e));
            assert!(list.is_empty());
        }
    }
}

fn sim() -> Sim {
    Sim::new(MachineProfile::tiny_for_tests())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recycled_protobuf_message_decodes_like_a_fresh_one(
        msgs in prop::collection::vec((shape(), damage()), 1..12)
    ) {
        let (build, fresh_clock, reused_clock) = (sim(), sim(), sim());
        let mut reused = PGetM::new();
        for (shape, damage) in &msgs {
            let mut m = PGetM::new();
            fill_proto(&build, &mut m, shape);
            let wire = damaged(m.encode(&build, 0), damage);
            let fresh = PGetM::decode(&fresh_clock, &wire);
            let got = reused.decode_into(&reused_clock, &wire);
            match fresh {
                Ok(fresh) => {
                    prop_assert_eq!(got, Ok(()));
                    prop_assert_eq!(&reused, &fresh);
                }
                Err(e) => {
                    prop_assert_eq!(got, Err(e));
                    prop_assert_eq!(&reused, &PGetM::new());
                }
            }
            prop_assert_eq!(fresh_clock.now(), reused_clock.now());
        }
    }

    #[test]
    fn recycled_capnproto_lists_resolve_like_fresh_ones(
        msgs in prop::collection::vec((shape(), damage()), 1..12)
    ) {
        let (build, fresh_clock, reused_clock) = (sim(), sim(), sim());
        let mut segs = Vec::new();
        let (mut keys, mut vals): (Vec<&[u8]>, Vec<&[u8]>) = (Vec::new(), Vec::new());
        let wires: Vec<Vec<u8>> = msgs
            .iter()
            .map(|(shape, damage)| {
                let mut b = CapnGetM::new();
                fill_capn(&build, &mut b, shape);
                damaged(CapnGetM::frame(&b.finish(&build)), damage)
            })
            .collect();
        for wire in &wires {
            let fresh = CapnReader::parse(&fresh_clock, wire);
            match CapnReader::parse_with(&reused_clock, wire, &mut segs) {
                Err(e) => prop_assert_eq!(fresh.err(), Some(e)),
                Ok(reader) => {
                    let fresh = fresh.expect("the same bytes parse");
                    // Each list on its own, whatever the other did.
                    let got = reader.keys_into(&reused_clock, &mut keys);
                    same_list(got, &keys, fresh.keys(&fresh_clock));
                    let got = reader.vals_into(&reused_clock, &mut vals);
                    same_list(got, &vals, fresh.vals(&fresh_clock));
                    prop_assert_eq!(reader.id(), fresh.id());
                    segs = reader.into_scratch();
                }
            }
            prop_assert_eq!(fresh_clock.now(), reused_clock.now());
        }
    }

    #[test]
    fn reused_encoders_write_what_fresh_ones_write(shapes in prop::collection::vec(shape(), 1..8)) {
        let s = sim();
        let mut proto = PGetM::new();
        let mut flat = FlatGetM::default();
        let mut capn = CapnGetM::new();
        let mut table = Vec::new();
        for shape in &shapes {
            let (id, keys, vals) = shape;

            proto.clear();
            fill_proto(&s, &mut proto, shape);
            let mut fresh = PGetM::new();
            fill_proto(&s, &mut fresh, shape);
            let mut wire = Vec::new();
            proto.encode_into(&s, 0, |bytes| wire.extend_from_slice(bytes));
            prop_assert_eq!(wire.len(), proto.encoded_len());
            prop_assert_eq!(wire, fresh.encode(&s, 0));

            let built = flat.build(&s, *id, &refs(keys), &refs(vals));
            prop_assert_eq!(built, &FlatGetM::encode(&s, *id, &refs(keys), &refs(vals))[..]);

            capn.reset();
            fill_capn(&s, &mut capn, shape);
            let segments = capn.finish_in_place(&s);
            CapnGetM::segment_table(segments, &mut table);
            let wire: Vec<u8> = table.iter().chain(segments.iter().flatten()).copied().collect();
            let mut fresh = CapnGetM::new();
            fill_capn(&s, &mut fresh, shape);
            prop_assert_eq!(wire, CapnGetM::frame(&fresh.finish(&s)));
        }
    }
}

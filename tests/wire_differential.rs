//! The wire format's differential oracle: generated code against the
//! `DynMessage` interpreter, on valid instances and under structure-aware
//! mutation.
//!
//! Every message of both schemas (`crates/core/schema/msgs.proto`,
//! `crates/kv/schema/kv.proto`) is produced twice from one random
//! description — by the type `cf-codegen` emitted and by
//! [`DynMessage`], which interprets the schema text — and the two
//! encodings must be the same bytes. The frame is then mutated where the
//! format keeps its structure (a bitmap bit, an offset, a length, a list
//! count, a truncation, a splice of two frames) and decoded three ways:
//! generated `deserialize`, generated `deserialize_into` over a scratch
//! message that still holds something else, and `DynMessage::decode`. All
//! three must accept or reject together, with the same error, and every
//! accepted decode must hold the same fields — compared by re-encoding,
//! which writes every presence bit, scalar, count and byte of a decoded
//! message into one comparable string. An in-place decode that equals a
//! fresh one shows nothing of the previous request.
//!
//! The case count comes from the proptest shim's `Config`; generation is
//! seeded from the message name, so a failure reproduces exactly. A
//! disagreement is a finding: fix the side that is wrong and commit the
//! printed frame beside `tests/golden/`.

use proptest::prelude::*;
use proptest::sample::Index;
use proptest::strategy::generate_one;
use proptest::test_runner::TestRng;

use cornflakes::codegen::ast::{Field, FieldType, Schema};
use cornflakes::codegen::parser::parse;
use cornflakes::core::dynamic::DynMessage;
use cornflakes::core::msgs::{Batch, GetM, Keyed, KvPair, Put, Single};
use cornflakes::core::obj::serialize_to_vec;
use cornflakes::core::wire::{Bitmap, ForwardPtr, BITMAP_LEN_PREFIX, PTR_SIZE};
use cornflakes::core::{CFBytes, CFList, CornflakesObj, Entry, SerCtx, SerializationConfig};
use cornflakes::kv::msgs::GetMsg;
use cornflakes::mem::{PoolConfig, RcBuf};
use cornflakes::sim::{MachineProfile, Sim};

/// Cases per message shape.
const CASES: u32 = 10_000;

const CORE_PROTO: &str = include_str!("../crates/core/schema/msgs.proto");
const KV_PROTO: &str = include_str!("../crates/kv/schema/kv.proto");

/// One field of a message description, before either implementation has
/// seen it.
#[derive(Clone, Debug)]
enum Src {
    Absent,
    Scalar(u64),
    Bytes(Blob),
    BytesList(Vec<Blob>),
    Msg(Vec<Src>),
    MsgList(Vec<Vec<Src>>),
    ScalarList(Vec<u64>),
}

/// Field bytes and where they live: pinned memory takes the zero-copy arm
/// from 512 bytes up, anything else is copied.
#[derive(Clone, Debug)]
struct Blob {
    data: Vec<u8>,
    pinned: bool,
}

/// The sender's context plus the pinned source buffers of the instance
/// being built (a zero-copy field points into them).
struct Tx {
    ctx: SerCtx,
    pinned: Vec<RcBuf>,
}

impl Tx {
    /// Hands `f` the bytes a field is built from: `b.data` where it lies,
    /// or a pinned copy of it.
    fn with_source<R>(&mut self, b: &Blob, f: impl FnOnce(&SerCtx, &[u8]) -> R) -> R {
        // (The pool has no empty buffers: an empty field is never pinned.)
        if !b.pinned || b.data.is_empty() {
            return f(&self.ctx, &b.data);
        }
        let buf = self.ctx.pool.alloc_from(&b.data).expect("pool");
        let built = f(&self.ctx, buf.as_slice());
        self.pinned.push(buf);
        built
    }

    fn bytes(&mut self, b: &Blob) -> CFBytes {
        self.with_source(b, CFBytes::new)
    }
}

impl Src {
    fn scalar(&self) -> Option<u64> {
        match self {
            Src::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    fn bytes(&self, tx: &mut Tx) -> Option<CFBytes> {
        match self {
            Src::Bytes(b) => Some(tx.bytes(b)),
            _ => None,
        }
    }

    fn bytes_list(&self, tx: &mut Tx) -> CFList<CFBytes> {
        let mut list = CFList::new();
        if let Src::BytesList(blobs) = self {
            for b in blobs {
                list.append(tx.bytes(b));
            }
        }
        list
    }
}

/// A generated message type and the schema text it came from.
trait Shape: CornflakesObj + Default {
    const PROTO: &'static str;
    const NAME: &'static str;
    /// Builds the generated type from a description (one `Src` per schema
    /// field, in schema order).
    fn build(fields: &[Src], tx: &mut Tx) -> Self;
}

impl Shape for GetM {
    const PROTO: &'static str = CORE_PROTO;
    const NAME: &'static str = "GetM";
    fn build(f: &[Src], tx: &mut Tx) -> Self {
        GetM {
            id: f[0].scalar().map(|v| v as u32),
            keys: f[1].bytes_list(tx),
            vals: f[2].bytes_list(tx),
        }
    }
}

impl Shape for Put {
    const PROTO: &'static str = CORE_PROTO;
    const NAME: &'static str = "Put";
    fn build(f: &[Src], tx: &mut Tx) -> Self {
        Put {
            id: f[0].scalar().map(|v| v as u32),
            key: f[1].bytes(tx),
            val: f[2].bytes(tx),
        }
    }
}

impl Shape for Single {
    const PROTO: &'static str = CORE_PROTO;
    const NAME: &'static str = "Single";
    fn build(f: &[Src], tx: &mut Tx) -> Self {
        Single {
            id: f[0].scalar().map(|v| v as u32),
            val: f[1].bytes(tx),
        }
    }
}

impl Shape for KvPair {
    const PROTO: &'static str = CORE_PROTO;
    const NAME: &'static str = "KvPair";
    fn build(f: &[Src], tx: &mut Tx) -> Self {
        KvPair {
            key: f[0].bytes(tx),
            val: f[1].bytes(tx),
        }
    }
}

impl Shape for Batch {
    const PROTO: &'static str = CORE_PROTO;
    const NAME: &'static str = "Batch";
    fn build(f: &[Src], tx: &mut Tx) -> Self {
        let mut m = Batch {
            id: f[0].scalar().map(|v| v as u32),
            ..Batch::default()
        };
        if let Src::MsgList(pairs) = &f[1] {
            for p in pairs {
                m.pairs.append(KvPair::build(p, tx));
            }
        }
        if let Src::ScalarList(versions) = &f[2] {
            m.versions = versions.iter().copied().collect();
        }
        m
    }
}

impl Shape for Keyed {
    const PROTO: &'static str = CORE_PROTO;
    const NAME: &'static str = "Keyed";
    fn build(f: &[Src], tx: &mut Tx) -> Self {
        Keyed {
            id: f[0].scalar().map(|v| v as u32),
            pair: match &f[1] {
                Src::Msg(pair) => Some(KvPair::build(pair, tx)),
                _ => None,
            },
        }
    }
}

impl Shape for GetMsg {
    const PROTO: &'static str = KV_PROTO;
    const NAME: &'static str = "GetMsg";
    fn build(f: &[Src], tx: &mut Tx) -> Self {
        GetMsg {
            id: f[0].scalar().map(|v| v as u32 as i32),
            keys: f[1].bytes_list(tx),
            vals: f[2].bytes_list(tx),
        }
    }
}

/// Draws field bytes on both sides of the 512-byte threshold.
fn blob(rng: &mut TestRng) -> Blob {
    let len = prop_oneof![0usize..16, 500usize..530, 600usize..1100];
    let data = generate_one(
        &proptest::collection::vec(any::<u8>(), generate_one(&len, rng)),
        rng,
    );
    Blob {
        data,
        pinned: rng.gen_ratio(2, 3),
    }
}

/// Longest list a drawn instance holds; the scratch's dirty message holds
/// longer ones.
const MAX_LIST: usize = 6;
const DIRTY_LIST: usize = 8;

/// Draws a description of `name` from its schema alone: each singular
/// field absent one time in four, lists empty (absent on the wire), of one
/// element or of up to [`MAX_LIST`]. With `full`, every field is present
/// and every list has [`DIRTY_LIST`] elements.
fn draw(schema: &Schema, name: &str, rng: &mut TestRng, full: bool) -> Vec<Src> {
    let fields = &schema.message(name).expect("message in schema").fields;
    let count = |rng: &mut TestRng| match full {
        true => DIRTY_LIST,
        false => generate_one(&prop_oneof![Just(0usize), Just(1), 2..MAX_LIST + 1], rng),
    };
    fields
        .iter()
        .map(|f| match (&f.ty, f.repeated) {
            (_, false) if !full && rng.gen_ratio(1, 4) => Src::Absent,
            (FieldType::Scalar(_), false) => Src::Scalar(rng.next_u64()),
            (FieldType::Scalar(_), true) => {
                Src::ScalarList((0..count(rng)).map(|_| rng.next_u64()).collect())
            }
            (FieldType::Bytes | FieldType::Str, false) => Src::Bytes(blob(rng)),
            (FieldType::Bytes | FieldType::Str, true) => {
                Src::BytesList((0..count(rng)).map(|_| blob(rng)).collect())
            }
            (FieldType::Message(inner), false) => Src::Msg(draw(schema, inner, rng, full)),
            (FieldType::Message(inner), true) => Src::MsgList(
                (0..count(rng))
                    .map(|_| draw(schema, inner, rng, full))
                    .collect(),
            ),
        })
        .collect()
}

/// The message type a nested field holds.
fn nested(f: &Field) -> &str {
    match &f.ty {
        FieldType::Message(inner) => inner,
        _ => panic!("{}: a message for a non-message field", f.name),
    }
}

/// Builds the interpreter's instance of the same description.
fn interpret(schema: &Schema, name: &str, fields: &[Src], tx: &mut Tx) -> DynMessage {
    let mut m = DynMessage::new(schema, name).expect("message in schema");
    let descriptor = &schema.message(name).expect("message in schema").fields;
    for (f, src) in descriptor.iter().zip(fields) {
        let accepted = match src {
            Src::Absent => true,
            // The interpreter keeps the low bits a narrower field has room
            // for, as the generated setters' casts do.
            Src::Scalar(v) => m.set_scalar(&f.name, *v),
            Src::Bytes(b) => tx.with_source(b, |ctx, data| m.set_bytes(ctx, &f.name, data)),
            Src::BytesList(blobs) => blobs
                .iter()
                .all(|b| tx.with_source(b, |ctx, data| m.push_bytes(ctx, &f.name, data))),
            Src::ScalarList(vals) => vals.iter().all(|v| m.push_scalar(&f.name, *v)),
            Src::Msg(item) => m.set_message(&f.name, interpret(schema, nested(f), item, tx)),
            Src::MsgList(items) => items
                .iter()
                .all(|item| m.push_message(&f.name, interpret(schema, nested(f), item, tx))),
        };
        assert!(
            accepted,
            "{name}.{}: the interpreter refused {src:?}",
            f.name
        );
    }
    m
}

/// What a header word means. Mutations are aimed at these.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    BitmapLen,
    Bitmap,
    Scalar,
    Offset,
    Len,
    Count,
}

/// Walks a *valid* frame by its schema and records where every structural
/// word sits, nested blocks and list tables included.
fn sites(schema: &Schema, name: &str, wire: &[u8], block: usize, out: &mut Vec<(usize, Kind)>) {
    let fields: &[Field] = &schema.message(name).expect("message in schema").fields;
    out.push((block, Kind::BitmapLen));
    out.push((block + BITMAP_LEN_PREFIX, Kind::Bitmap));
    let bitmap = Bitmap(&wire[block + BITMAP_LEN_PREFIX..block + BITMAP_LEN_PREFIX + 4]);
    let mut cursor = block + BITMAP_LEN_PREFIX + 4;
    for (i, f) in fields.iter().enumerate() {
        if !bitmap.is_set(i) {
            continue;
        }
        if let (FieldType::Scalar(s), false) = (&f.ty, f.repeated) {
            out.push((cursor, Kind::Scalar));
            cursor += s.wire_width();
            continue;
        }
        let ptr = ForwardPtr::get(wire, cursor).expect("valid frame");
        out.push((cursor, Kind::Offset));
        let second = if f.repeated { Kind::Count } else { Kind::Len };
        out.push((cursor + 4, second));
        cursor += PTR_SIZE;
        match (&f.ty, f.repeated) {
            (FieldType::Message(inner), false) => {
                sites(schema, inner, wire, ptr.offset as usize, out)
            }
            (FieldType::Scalar(_), true) | (_, false) => {}
            (elem, true) => {
                for j in 0..ptr.len as usize {
                    let entry = ptr.offset as usize + j * PTR_SIZE;
                    out.push((entry, Kind::Offset));
                    out.push((entry + 4, Kind::Len));
                    if let FieldType::Message(inner) = elem {
                        let e = ForwardPtr::get(wire, entry).expect("valid frame");
                        sites(schema, inner, wire, e.offset as usize, out);
                    }
                }
            }
        }
    }
}

/// One mutation, as drawn: an operator, a position choice and a value.
type Mutation = (u8, Index, u32);

/// Applies `m` to `wire`. `sites` describe the frame before any mutation;
/// a site a truncation has removed is skipped.
fn mutate(wire: &mut Vec<u8>, sites: &[(usize, Kind)], other: &[u8], (op, at, v): Mutation) {
    let word = |wire: &[u8], off: usize| -> Option<u32> {
        Some(u32::from_le_bytes(wire.get(off..off + 4)?.try_into().ok()?))
    };
    let of_kind = |kinds: &[Kind]| -> Vec<usize> {
        sites
            .iter()
            .filter(|(_, k)| kinds.contains(k))
            .map(|(off, _)| *off)
            .collect()
    };
    match op {
        // Flip one presence bit (or a bit no field owns).
        0 => {
            let targets = of_kind(&[Kind::Bitmap]);
            let off = targets[at.index(targets.len())];
            if let Some(b) = wire.get_mut(off) {
                *b ^= 1 << (v % 8);
            }
        }
        // Move an offset, a length, a count, a bitmap length or a scalar:
        // off by one, off by an entry, to a boundary, or by one bit.
        1..=3 => {
            let targets = match op {
                1 => of_kind(&[Kind::Offset]),
                2 => of_kind(&[Kind::Len, Kind::Count]),
                _ => of_kind(&[Kind::BitmapLen, Kind::Scalar, Kind::Count]),
            };
            if targets.is_empty() {
                return;
            }
            let off = targets[at.index(targets.len())];
            let Some(old) = word(wire, off) else { return };
            let new = match v % 8 {
                0 => old.wrapping_add(1),
                1 => old.wrapping_sub(1),
                2 => old.wrapping_add(PTR_SIZE as u32),
                3 => old.wrapping_sub(PTR_SIZE as u32),
                4 => 0,
                5 => wire.len() as u32,
                6 => u32::MAX,
                _ => old ^ (1 << ((v >> 3) % 32)),
            };
            wire[off..off + 4].copy_from_slice(&new.to_le_bytes());
        }
        // Truncate (never to nothing: an empty payload is a 1-byte buffer
        // to the pool).
        4 => {
            let keep = 1 + at.index(wire.len());
            wire.truncate(keep);
        }
        // Splice: this frame's head, the other frame's tail.
        _ => {
            let cut = at.index(wire.len());
            wire.truncate(cut);
            wire.extend_from_slice(&other[cut.min(other.len())..]);
            if wire.is_empty() {
                wire.push(v as u8);
            }
        }
    }
}

/// `(Σ copied bytes, zero-copy entries, Σ zero-copy bytes)` over what
/// `obj`'s visitor yields.
fn entry_sums(obj: &impl CornflakesObj) -> (usize, usize, usize) {
    let mut sums = (0, 0, 0);
    obj.for_each_entry(&mut |e| match e {
        Entry::Copy(bytes) => sums.0 += bytes.len(),
        Entry::ZeroCopy(rc) => {
            sums.1 += 1;
            sums.2 += rc.len();
        }
    });
    sums
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn ctx(pool: PoolConfig) -> SerCtx {
    SerCtx::with_pool_config(
        Sim::new(MachineProfile::tiny_for_tests()),
        SerializationConfig::hybrid(),
        pool,
    )
}

/// Both ends of the oracle for one message shape.
struct Rig<M: Shape> {
    schema: Schema,
    tx: Tx,
    rx: SerCtx,
    /// A frame with every field present and lists longer than any drawn
    /// instance's: what the scratch holds before a decode.
    dirty_pkt: RcBuf,
    scratch: M,
}

impl<M: Shape> Rig<M> {
    fn new(rng: &mut TestRng) -> Self {
        let schema = parse(M::PROTO).expect("schema parses");
        schema.validate().expect("schema validates");
        let mut tx = Tx {
            ctx: ctx(PoolConfig::default()),
            pinned: Vec::new(),
        };
        // Frames of up to 64 KiB: a splice can double a frame.
        let rx = ctx(PoolConfig {
            max_class: 64 * 1024,
            ..PoolConfig::default()
        });
        let dirty_wire = serialize_to_vec(&M::build(&draw(&schema, M::NAME, rng, true), &mut tx));
        let dirty_pkt = rx.pool.alloc_from(&dirty_wire).expect("pool");
        Rig {
            schema,
            tx,
            rx,
            dirty_pkt,
            scratch: M::default(),
        }
    }

    /// One description, two encoders: returns the one encoding.
    fn encode(&mut self, src: &[Src], what: &dyn Fn() -> String) -> Vec<u8> {
        let generated = M::build(src, &mut self.tx);
        let interpreted = interpret(&self.schema, M::NAME, src, &mut self.tx);
        let wire = serialize_to_vec(&generated);
        let fp = generated.footprint();
        assert_eq!(fp, interpreted.footprint(), "footprints differ: {}", what());
        // The footprint describes the bytes: their length, the copied
        // entries, and the zero-copy entries' count and length.
        assert_eq!(wire.len(), fp.len(), "{}", what());
        let described = (fp.copy, fp.zc_entries, fp.zc_bytes);
        assert_eq!(entry_sums(&generated), described, "{}", what());
        assert_eq!(entry_sums(&interpreted), described, "{}", what());
        let interpreted_wire = serialize_to_vec(&interpreted);
        assert!(
            wire == interpreted_wire,
            "encodings differ: {}\n generated   {}\n interpreted {}",
            what(),
            hex(&wire),
            hex(&interpreted_wire)
        );
        drop((generated, interpreted));
        self.tx.pinned.clear();
        self.tx.ctx.end_request();
        wire
    }

    /// Decodes `frame` three ways and holds them to each other; returns
    /// whether it was accepted. With `redirty` the scratch first decodes
    /// the long message; otherwise it keeps what the last call left in
    /// it, a failed decode's remains included.
    ///
    /// Decoded fields are compared by re-encoding: every one is a view of
    /// the packet, so two decodes of one frame that hold the same fields
    /// produce the same bytes, and any difference in a presence bit, a
    /// scalar, a count or a field's bytes shows.
    fn decode(&mut self, frame: &[u8], redirty: bool, what: &dyn Fn() -> String) -> bool {
        let what = || format!("{}, frame {}", what(), hex(frame));
        let pkt = self.rx.pool.alloc_from(frame).expect("pool");
        if redirty {
            self.scratch
                .deserialize_into(&self.rx, &self.dirty_pkt)
                .expect("dirty frame decodes");
        }
        let fresh = M::deserialize(&self.rx, &pkt);
        let in_place = self.scratch.deserialize_into(&self.rx, &pkt);
        let interp = DynMessage::decode(&self.rx, &self.schema, M::NAME, &pkt);
        assert_eq!(
            fresh.as_ref().err(),
            in_place.as_ref().err(),
            "fresh and in-place decodes disagree: {}",
            what()
        );
        assert_eq!(
            fresh.as_ref().err(),
            interp.as_ref().err(),
            "generated code and the interpreter disagree: {}",
            what()
        );
        let (Ok(fresh), Ok(interp)) = (fresh, interp) else {
            return false;
        };
        let fields = serialize_to_vec(&fresh);
        assert!(
            fields == serialize_to_vec(&self.scratch),
            "the in-place decode shows the previous message: {}",
            what()
        );
        assert!(
            fields == serialize_to_vec(&interp),
            "generated code and the interpreter read different fields: {}",
            what()
        );
        true
    }
}

/// Runs the whole oracle over one message shape.
fn check<M: Shape>() {
    let config = ProptestConfig::with_cases(CASES);
    let mut rng = TestRng::deterministic(M::NAME);
    let mut rig = Rig::<M>::new(&mut rng);
    let mutations = proptest::collection::vec((0u8..6, any::<Index>(), any::<u32>()), 1..4);
    let mut previous = rig.dirty_pkt.as_slice().to_vec();
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for case in 0..config.cases {
        let src = draw(&rig.schema, M::NAME, &mut rng, false);
        let wire = rig.encode(&src, &|| format!("{} case {case}, {src:?}", M::NAME));

        // One frame in four goes in as it is, the rest mutated.
        let mut frame = wire.clone();
        let muts = generate_one(&mutations, &mut rng);
        if case % 4 != 0 {
            let mut at = Vec::new();
            sites(&rig.schema, M::NAME, &wire, 0, &mut at);
            for m in &muts {
                mutate(&mut frame, &at, &previous, *m);
            }
        }
        previous = wire;
        let what = || format!("{} case {case}, mutations {muts:?}", M::NAME);
        match rig.decode(&frame, case % 2 == 0, &what) {
            true => accepted += 1,
            false => rejected += 1,
        }
    }
    // The mutator must land on both sides, or the oracle proves nothing.
    assert!(
        accepted > config.cases / 4 && rejected > config.cases / 4,
        "{}: {accepted} accepted, {rejected} rejected",
        M::NAME
    );
}

/// Replays `tests/crashers/<Message>.<what>.bin`: frames on which the three
/// decoders once disagreed.
#[test]
fn recorded_crashers_stay_fixed() {
    fn replay<M: Shape>(frame: &[u8], file: &str) {
        let mut rig = Rig::<M>::new(&mut TestRng::deterministic(file));
        for redirty in [true, false] {
            rig.decode(frame, redirty, &|| file.to_string());
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/crashers");
    let mut replayed = 0;
    for entry in std::fs::read_dir(dir).expect("tests/crashers") {
        let path = entry.expect("directory entry").path();
        let file = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("file name");
        let frame = std::fs::read(&path).expect("crasher readable");
        match file.split('.').next() {
            Some("GetM") => replay::<GetM>(&frame, file),
            Some("Put") => replay::<Put>(&frame, file),
            Some("Single") => replay::<Single>(&frame, file),
            Some("KvPair") => replay::<KvPair>(&frame, file),
            Some("Batch") => replay::<Batch>(&frame, file),
            Some("Keyed") => replay::<Keyed>(&frame, file),
            Some("GetMsg") => replay::<GetMsg>(&frame, file),
            _ => panic!("{file}: name a crasher <Message>.<what>.bin"),
        }
        replayed += 1;
    }
    assert!(replayed > 0, "the recorded crashers are gone");
}

#[test]
fn getm_generated_and_interpreted_agree() {
    check::<GetM>();
}

#[test]
fn put_generated_and_interpreted_agree() {
    check::<Put>();
}

#[test]
fn single_generated_and_interpreted_agree() {
    check::<Single>();
}

#[test]
fn kvpair_generated_and_interpreted_agree() {
    check::<KvPair>();
}

#[test]
fn batch_generated_and_interpreted_agree() {
    check::<Batch>();
}

#[test]
fn keyed_generated_and_interpreted_agree() {
    check::<Keyed>();
}

#[test]
fn kv_getmsg_generated_and_interpreted_agree() {
    check::<GetMsg>();
}

//! Runtime-schema messages: interpret a parsed [`Schema`] without code
//! generation — the executable specification of the wire format.
//!
//! Everything that runs uses the compiled path ([`crate::msgs`],
//! `cf_kv::msgs`: build-time output of `cf-codegen`). A [`DynMessage`] is
//! the second, independent statement of the same format, written against
//! the schema's AST instead of emitted from it, and exists to be compared
//! with the first: for every message of both schemas it must produce the
//! generated type's bytes from the same fields, and accept, reject (with
//! the same error) and read the same fields from the same frames, valid or
//! mutated, as the generated `deserialize` and in-place `deserialize_into`
//! do (`tests/wire_differential.rs`, `crates/core/tests/dynamic_parity.rs`,
//! `crates/kv/tests/codegen_parity.rs`). It is not on any request path.
//!
//! Only the field shapes the static path supports are interpreted: scalars,
//! `string`/`bytes`, `repeated` over those, nested messages and repeated
//! nested messages, and packed repeated scalars.

use cf_codegen::ast::{Field, FieldType, Message, Schema};
use cf_mem::RcBuf;

use crate::cfbytes::CFBytes;
use crate::ctx::SerCtx;
use crate::list::{ListElem, MAX_LIST_LEN};
use crate::obj::{charge_deserialize, CornflakesObj, Entry, Footprint, HeaderWriter};
use crate::wire::{
    bitmap_bytes, bitmap_set, get_u32, get_u64, put_u32, put_u64, Bitmap, ForwardPtr, WireError,
    BITMAP_LEN_PREFIX, PTR_SIZE,
};

/// A dynamically typed field value.
#[derive(Clone, Debug)]
pub enum DynValue {
    /// Any scalar, widened to 64 bits (floats as bits).
    Scalar(u64),
    /// A bytes or string field.
    Bytes(CFBytes),
    /// A nested message.
    Message(Box<DynMessage>),
    /// A repeated bytes/string field.
    BytesList(Vec<CFBytes>),
    /// A repeated nested message.
    MessageList(Vec<DynMessage>),
    /// A packed repeated scalar.
    ScalarList(Vec<u64>),
}

/// A message instance interpreted against a [`Schema`] at runtime.
///
/// Holds its own copies of the message descriptor (name + field types), so
/// instances stay usable after the schema text goes away.
#[derive(Clone, Debug)]
pub struct DynMessage {
    descriptor: Message,
    fields: Vec<Option<DynValue>>,
}

impl DynMessage {
    /// Creates an empty instance of `message_name` from `schema`.
    ///
    /// Returns `None` if the schema has no such message.
    pub fn new(schema: &Schema, message_name: &str) -> Option<Self> {
        let descriptor = schema.message(message_name)?.clone();
        let fields = vec![None; descriptor.fields.len()];
        Some(DynMessage { descriptor, fields })
    }

    /// The message name.
    pub fn name(&self) -> &str {
        &self.descriptor.name
    }

    fn field_index(&self, name: &str) -> Option<usize> {
        self.descriptor.fields.iter().position(|f| f.name == name)
    }

    /// Sets a scalar field (floats via `to_bits`, bools as 0/1).
    pub fn set_scalar(&mut self, name: &str, v: u64) -> bool {
        match self.field_index(name) {
            Some(i) if matches!(self.descriptor.fields[i].ty, FieldType::Scalar(_)) => {
                self.fields[i] = Some(DynValue::Scalar(v));
                true
            }
            _ => false,
        }
    }

    /// Sets a bytes/string field through the hybrid heuristic.
    pub fn set_bytes(&mut self, ctx: &SerCtx, name: &str, data: &[u8]) -> bool {
        match self.field_index(name) {
            Some(i)
                if matches!(
                    self.descriptor.fields[i].ty,
                    FieldType::Bytes | FieldType::Str
                ) && !self.descriptor.fields[i].repeated =>
            {
                self.fields[i] = Some(DynValue::Bytes(CFBytes::new(ctx, data)));
                true
            }
            _ => false,
        }
    }

    /// Appends to a repeated bytes/string field.
    pub fn push_bytes(&mut self, ctx: &SerCtx, name: &str, data: &[u8]) -> bool {
        match self.field_index(name) {
            Some(i)
                if matches!(
                    self.descriptor.fields[i].ty,
                    FieldType::Bytes | FieldType::Str
                ) && self.descriptor.fields[i].repeated =>
            {
                let v = CFBytes::new(ctx, data);
                match &mut self.fields[i] {
                    Some(DynValue::BytesList(l)) => l.push(v),
                    slot => *slot = Some(DynValue::BytesList(vec![v])),
                }
                true
            }
            _ => false,
        }
    }

    /// Appends to a packed repeated scalar field.
    pub fn push_scalar(&mut self, name: &str, v: u64) -> bool {
        match self.field_index(name) {
            Some(i)
                if matches!(self.descriptor.fields[i].ty, FieldType::Scalar(_))
                    && self.descriptor.fields[i].repeated =>
            {
                match &mut self.fields[i] {
                    Some(DynValue::ScalarList(l)) => l.push(v),
                    slot => *slot = Some(DynValue::ScalarList(vec![v])),
                }
                true
            }
            _ => false,
        }
    }

    /// Sets a nested message field.
    pub fn set_message(&mut self, name: &str, m: DynMessage) -> bool {
        match self.field_index(name) {
            Some(i)
                if matches!(&self.descriptor.fields[i].ty, FieldType::Message(t)
                    if *t == m.descriptor.name)
                    && !self.descriptor.fields[i].repeated =>
            {
                self.fields[i] = Some(DynValue::Message(Box::new(m)));
                true
            }
            _ => false,
        }
    }

    /// Appends to a repeated nested-message field.
    pub fn push_message(&mut self, name: &str, m: DynMessage) -> bool {
        match self.field_index(name) {
            Some(i)
                if matches!(&self.descriptor.fields[i].ty, FieldType::Message(t)
                    if *t == m.descriptor.name)
                    && self.descriptor.fields[i].repeated =>
            {
                match &mut self.fields[i] {
                    Some(DynValue::MessageList(l)) => l.push(m),
                    slot => *slot = Some(DynValue::MessageList(vec![m])),
                }
                true
            }
            _ => false,
        }
    }

    /// Reads a field by name, if present.
    pub fn get(&self, name: &str) -> Option<&DynValue> {
        self.fields[self.field_index(name)?].as_ref()
    }

    /// Width of a scalar field's value (8 for anything else, as a forward
    /// pointer).
    fn scalar_width(ty: &FieldType) -> usize {
        match ty {
            FieldType::Scalar(s) => s.wire_width(),
            _ => PTR_SIZE,
        }
    }

    /// Width of a present field's entry in the fixed block.
    fn entry_width(f: &Field) -> usize {
        if f.repeated {
            PTR_SIZE
        } else {
            Self::scalar_width(&f.ty)
        }
    }

    fn present(&self, i: usize) -> bool {
        match &self.fields[i] {
            None => false,
            Some(DynValue::BytesList(l)) => !l.is_empty(),
            Some(DynValue::MessageList(l)) => !l.is_empty(),
            Some(DynValue::ScalarList(l)) => !l.is_empty(),
            Some(_) => true,
        }
    }

    /// Writes a nested message's forward pointer at `entry`, then its block.
    fn write_nested(&self, w: &mut HeaderWriter<'_>, entry: usize) {
        let fixed = self.footprint().fixed;
        let block = w.alloc_block(fixed);
        ForwardPtr {
            offset: block as u32,
            len: fixed as u32,
        }
        .put(w.buf(), entry);
        w.count_entry();
        self.write_header(w, block);
    }
}

/// Allocates a `count`-entry list table and points the field entry at
/// `entry` to it; returns the table's offset.
fn write_table(w: &mut HeaderWriter<'_>, count: usize, entry: usize) -> usize {
    let table = w.alloc_block(count * PTR_SIZE);
    ForwardPtr {
        offset: table as u32,
        len: count as u32,
    }
    .put(w.buf(), entry);
    w.count_entry();
    table
}

impl CornflakesObj for DynMessage {
    fn footprint(&self) -> Footprint {
        let mut fp = Footprint {
            fixed: BITMAP_LEN_PREFIX + bitmap_bytes(self.descriptor.fields.len()),
            ..Footprint::default()
        };
        for (i, f) in self.descriptor.fields.iter().enumerate() {
            if !self.present(i) {
                continue;
            }
            fp.fixed += Self::entry_width(f);
            match self.fields[i].as_ref().expect("present") {
                DynValue::Scalar(_) => {}
                DynValue::Bytes(b) => fp += b.elem_footprint(),
                DynValue::Message(m) => fp += m.footprint().nested(),
                DynValue::BytesList(l) => {
                    fp.aux += l.len() * PTR_SIZE;
                    for b in l {
                        fp += b.elem_footprint();
                    }
                }
                DynValue::MessageList(l) => {
                    fp.aux += l.len() * PTR_SIZE;
                    for m in l {
                        fp += m.footprint().nested();
                    }
                }
                DynValue::ScalarList(l) => fp.copy += l.len() * Self::scalar_width(&f.ty),
            }
        }
        fp
    }

    fn write_header(&self, w: &mut HeaderWriter<'_>, block: usize) {
        let nf = self.descriptor.fields.len();
        let mut bm = vec![0u8; bitmap_bytes(nf)];
        for i in 0..nf {
            if self.present(i) {
                bitmap_set(&mut bm, i);
            }
        }
        put_u32(w.buf(), block, bitmap_bytes(nf) as u32);
        w.buf()[block + BITMAP_LEN_PREFIX..block + BITMAP_LEN_PREFIX + bm.len()]
            .copy_from_slice(&bm);
        let mut cursor = block + BITMAP_LEN_PREFIX + bitmap_bytes(nf);
        for (i, f) in self.descriptor.fields.iter().enumerate() {
            if !self.present(i) {
                continue;
            }
            match self.fields[i].as_ref().expect("present") {
                DynValue::Scalar(v) => {
                    match Self::scalar_width(&f.ty) {
                        8 => put_u64(w.buf(), cursor, *v),
                        _ => put_u32(w.buf(), cursor, *v as u32),
                    }
                    w.count_entry();
                }
                DynValue::Bytes(b) => b.write_elem(w, cursor),
                DynValue::Message(m) => m.write_nested(w, cursor),
                DynValue::BytesList(l) => {
                    let table = write_table(w, l.len(), cursor);
                    for (j, b) in l.iter().enumerate() {
                        b.write_elem(w, table + j * PTR_SIZE);
                    }
                }
                DynValue::MessageList(l) => {
                    let table = write_table(w, l.len(), cursor);
                    for (j, m) in l.iter().enumerate() {
                        m.write_nested(w, table + j * PTR_SIZE);
                    }
                }
                DynValue::ScalarList(l) => {
                    let offset = w.assign_copy(l.len() * Self::scalar_width(&f.ty));
                    ForwardPtr {
                        offset,
                        len: l.len() as u32,
                    }
                    .put(w.buf(), cursor);
                    w.count_entry();
                }
            }
            cursor += Self::entry_width(f);
        }
    }

    fn for_each_entry(&self, cb: &mut dyn FnMut(Entry<'_>)) {
        for (f, v) in self.descriptor.fields.iter().zip(&self.fields) {
            match v {
                Some(DynValue::Bytes(b)) => b.elem_for_each(cb),
                Some(DynValue::Message(m)) => m.for_each_entry(cb),
                Some(DynValue::BytesList(l)) => l.iter().for_each(|b| b.elem_for_each(cb)),
                Some(DynValue::MessageList(l)) => l.iter().for_each(|m| m.for_each_entry(cb)),
                Some(DynValue::ScalarList(l)) if !l.is_empty() => {
                    // Pack on the fly (little-endian, truncated to the wire
                    // width) to match the static path's layout.
                    let w = Self::scalar_width(&f.ty);
                    let mut packed = Vec::with_capacity(l.len() * w);
                    for &v in l {
                        packed.extend_from_slice(&v.to_le_bytes()[..w]);
                    }
                    cb(Entry::Copy(&packed));
                }
                _ => {}
            }
        }
    }

    fn deserialize_at(_ctx: &SerCtx, _payload: &RcBuf, _block: usize) -> Result<Self, WireError> {
        // `CornflakesObj::deserialize_at` has no schema parameter;
        // dynamic decoding goes through [`DynMessage::decode`].
        Err(WireError::MissingField { field: usize::MAX })
    }
}

impl DynMessage {
    /// Decodes a payload against `schema`'s `message_name` (the dynamic
    /// counterpart of the generated `deserialize`).
    pub fn decode(
        ctx: &SerCtx,
        schema: &Schema,
        message_name: &str,
        payload: &RcBuf,
    ) -> Result<Self, WireError> {
        Self::decode_at(ctx, schema, message_name, payload, 0)
    }

    fn decode_at(
        ctx: &SerCtx,
        schema: &Schema,
        message_name: &str,
        payload: &RcBuf,
        block: usize,
    ) -> Result<Self, WireError> {
        let descriptor = schema
            .message(message_name)
            .ok_or(WireError::MissingField { field: 0 })?
            .clone();
        let buf = payload.as_slice();
        let nf = descriptor.fields.len();
        let bm_len = get_u32(buf, block)? as usize;
        if bm_len != bitmap_bytes(nf) {
            return Err(WireError::BadBitmap {
                found: bm_len,
                expected: bitmap_bytes(nf),
            });
        }
        let bm_start = block + BITMAP_LEN_PREFIX;
        let bm = buf
            .get(bm_start..bm_start + bm_len)
            .ok_or(WireError::Truncated {
                needed: bm_start + bm_len,
                available: buf.len(),
            })?
            .to_vec();
        let bitmap = Bitmap(&bm);
        let mut cursor = bm_start + bm_len;
        let mut fields = Vec::with_capacity(nf);
        let mut present_count = 0usize;
        for (i, f) in descriptor.fields.iter().enumerate() {
            if !bitmap.is_set(i) {
                fields.push(None);
                continue;
            }
            present_count += 1;
            let value = match (&f.ty, f.repeated) {
                (FieldType::Scalar(s), false) => {
                    let v = if s.wire_width() == 8 {
                        get_u64(buf, cursor)?
                    } else {
                        get_u32(buf, cursor)? as u64
                    };
                    cursor += s.wire_width();
                    DynValue::Scalar(v)
                }
                (FieldType::Scalar(s), true) => {
                    let ptr = ForwardPtr::get(buf, cursor)?;
                    cursor += PTR_SIZE;
                    let w = s.wire_width();
                    let count = list_count(ptr)?;
                    let (off, _) = ptr.check_range(count * w, buf.len())?;
                    let mut l = Vec::with_capacity(count);
                    for j in 0..count {
                        l.push(if w == 8 {
                            get_u64(buf, off + j * 8)?
                        } else {
                            get_u32(buf, off + j * 4)? as u64
                        });
                    }
                    DynValue::ScalarList(l)
                }
                (FieldType::Bytes | FieldType::Str, false) => {
                    let b = CFBytes::read_elem(ctx, payload, cursor)?;
                    cursor += PTR_SIZE;
                    DynValue::Bytes(b)
                }
                (FieldType::Bytes | FieldType::Str, true) => {
                    let ptr = ForwardPtr::get(buf, cursor)?;
                    cursor += PTR_SIZE;
                    let count = list_count(ptr)?;
                    let (table, _) = ptr.check_range(count * PTR_SIZE, buf.len())?;
                    let mut l = Vec::with_capacity(count);
                    for j in 0..count {
                        l.push(CFBytes::read_elem(ctx, payload, table + j * PTR_SIZE)?);
                    }
                    DynValue::BytesList(l)
                }
                (FieldType::Message(t), false) => {
                    let ptr = ForwardPtr::get(buf, cursor)?;
                    cursor += PTR_SIZE;
                    let (inner, _) = ptr.check_range(ptr.len as usize, buf.len())?;
                    DynValue::Message(Box::new(Self::decode_at(ctx, schema, t, payload, inner)?))
                }
                (FieldType::Message(t), true) => {
                    let ptr = ForwardPtr::get(buf, cursor)?;
                    cursor += PTR_SIZE;
                    let count = list_count(ptr)?;
                    let (table, _) = ptr.check_range(count * PTR_SIZE, buf.len())?;
                    let mut l = Vec::with_capacity(count);
                    for j in 0..count {
                        let e = ForwardPtr::get(buf, table + j * PTR_SIZE)?;
                        let (inner, _) = e.check_range(e.len as usize, buf.len())?;
                        l.push(Self::decode_at(ctx, schema, t, payload, inner)?);
                    }
                    DynValue::MessageList(l)
                }
            };
            fields.push(Some(value));
        }
        charge_deserialize(
            ctx,
            payload.addr() + block as u64,
            cursor - block,
            present_count,
        );
        Ok(DynMessage { descriptor, fields })
    }
}

/// A list pointer's element count, refused above the format's limit before
/// anything is multiplied by it or sized from it.
fn list_count(ptr: ForwardPtr) -> Result<usize, WireError> {
    let count = ptr.len as usize;
    if count > MAX_LIST_LEN {
        return Err(WireError::TooLarge);
    }
    Ok(count)
}

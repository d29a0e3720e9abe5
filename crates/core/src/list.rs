//! List fields: repeated bytes/strings/messages and packed primitives.

use cf_mem::RcBuf;
use cf_sim::cost::Category;

use crate::cfbytes::{CFBytes, CFString};
use crate::ctx::SerCtx;
use crate::obj::{CornflakesObj, Entry, Footprint, HeaderWriter};
use crate::wire::{ForwardPtr, WireError, PTR_SIZE};

/// Upper bound on decoded list lengths; guards against hostile counts.
pub const MAX_LIST_LEN: usize = 1 << 20;

/// An element of a repeated field.
///
/// Implemented by [`CFBytes`], [`CFString`], and (via
/// `impl_message_list_elem!`) every nested [`CornflakesObj`] message type.
pub trait ListElem: Sized {
    /// This element's contribution to the object holding it (its table
    /// entry is the holder's).
    fn elem_footprint(&self) -> Footprint;
    /// Writes this element's table entry at `entry` (8 bytes) and any aux
    /// blocks/data offsets.
    fn write_elem(&self, w: &mut HeaderWriter<'_>, entry: usize);
    /// Reads an element whose table entry is at `entry`.
    fn read_elem(ctx: &SerCtx, payload: &RcBuf, entry: usize) -> Result<Self, WireError>;
    /// Visits the element's data entries in order.
    fn elem_for_each(&self, f: &mut dyn FnMut(Entry<'_>));
}

impl ListElem for CFBytes {
    fn elem_footprint(&self) -> Footprint {
        match self {
            CFBytes::Copied(a) => Footprint {
                copy: a.len(),
                ..Footprint::default()
            },
            CFBytes::ZeroCopy(r) => Footprint {
                zc_entries: 1,
                zc_bytes: r.len(),
                ..Footprint::default()
            },
        }
    }

    fn write_elem(&self, w: &mut HeaderWriter<'_>, entry: usize) {
        let len = self.len();
        let offset = match self {
            CFBytes::Copied(_) => w.assign_copy(len),
            CFBytes::ZeroCopy(_) => w.assign_zc(len),
        };
        ForwardPtr {
            offset,
            len: len as u32,
        }
        .put(w.buf(), entry);
        w.count_entry();
    }

    fn read_elem(ctx: &SerCtx, payload: &RcBuf, entry: usize) -> Result<Self, WireError> {
        let ptr = ForwardPtr::get(payload.as_slice(), entry)?;
        let (off, _end) = ptr.check_range(ptr.len as usize, payload.len())?;
        ctx.sim
            .charge(Category::Deserialize, ctx.sim.costs().refcount_update);
        Ok(CFBytes::ZeroCopy(payload.slice(off, ptr.len as usize)))
    }

    fn elem_for_each(&self, f: &mut dyn FnMut(Entry<'_>)) {
        f(match self {
            CFBytes::Copied(a) => Entry::Copy(a.as_slice()),
            CFBytes::ZeroCopy(r) => Entry::ZeroCopy(r),
        });
    }
}

impl ListElem for CFString {
    fn elem_footprint(&self) -> Footprint {
        self.0.elem_footprint()
    }
    fn write_elem(&self, w: &mut HeaderWriter<'_>, entry: usize) {
        self.0.write_elem(w, entry);
    }
    fn read_elem(ctx: &SerCtx, payload: &RcBuf, entry: usize) -> Result<Self, WireError> {
        Ok(CFString(CFBytes::read_elem(ctx, payload, entry)?))
    }
    fn elem_for_each(&self, f: &mut dyn FnMut(Entry<'_>)) {
        self.0.elem_for_each(f);
    }
}

/// Writes a nested message as a list/field element: allocates its header
/// block, stores the forward pointer, recurses.
pub fn nested_write_elem<M: CornflakesObj>(obj: &M, w: &mut HeaderWriter<'_>, entry: usize) {
    let fixed = obj.footprint().fixed;
    let block = w.alloc_block(fixed);
    ForwardPtr {
        offset: block as u32,
        len: fixed as u32,
    }
    .put(w.buf(), entry);
    w.count_entry();
    obj.write_header(w, block);
}

/// Reads a nested message element written by [`nested_write_elem`].
pub fn nested_read_elem<M: CornflakesObj>(
    ctx: &SerCtx,
    payload: &RcBuf,
    entry: usize,
) -> Result<M, WireError> {
    let ptr = ForwardPtr::get(payload.as_slice(), entry)?;
    let (block, _) = ptr.check_range(ptr.len as usize, payload.len())?;
    M::deserialize_at(ctx, payload, block)
}

/// Implements [`ListElem`] for a message type, making it usable both as a
/// nested field and inside `repeated` lists. A blanket impl over
/// `CornflakesObj` would overlap with the `CFBytes`/`CFString` impls under
/// coherence rules, so generated message types invoke
/// this macro instead.
#[macro_export]
macro_rules! impl_message_list_elem {
    ($ty:ty) => {
        impl $crate::list::ListElem for $ty {
            fn elem_footprint(&self) -> $crate::obj::Footprint {
                $crate::obj::CornflakesObj::footprint(self).nested()
            }
            fn write_elem(&self, w: &mut $crate::obj::HeaderWriter<'_>, entry: usize) {
                $crate::list::nested_write_elem(self, w, entry);
            }
            fn read_elem(
                ctx: &$crate::ctx::SerCtx,
                payload: &cf_mem::RcBuf,
                entry: usize,
            ) -> Result<Self, $crate::wire::WireError> {
                $crate::list::nested_read_elem(ctx, payload, entry)
            }
            fn elem_for_each(&self, f: &mut dyn FnMut($crate::obj::Entry<'_>)) {
                $crate::obj::CornflakesObj::for_each_entry(self, f);
            }
        }
    };
}

/// A repeated field: `repeated bytes`, `repeated string`, or a repeated
/// nested message.
///
/// On the wire, the field's entry points at a table of per-element forward
/// pointers in the header region.
#[derive(Clone, Debug, PartialEq)]
pub struct CFList<T: ListElem> {
    items: Vec<T>,
}

impl<T: ListElem> Default for CFList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: ListElem> CFList<T> {
    /// Creates an empty list.
    pub fn new() -> Self {
        CFList { items: Vec::new() }
    }

    /// Creates an empty list with capacity (paper Listing 1's `init_vals`).
    pub fn with_capacity(cap: usize) -> Self {
        CFList {
            items: Vec::with_capacity(cap),
        }
    }

    /// Appends an element.
    pub fn append(&mut self, item: T) {
        self.items.push(item);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the list is empty (empty lists are absent on the wire).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Element access.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.items.get(i)
    }

    /// Iterates over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// The list's contribution to the object holding it: its element
    /// table plus every element's own.
    pub fn footprint(&self) -> Footprint {
        let mut fp = Footprint {
            aux: self.items.len() * PTR_SIZE,
            ..Footprint::default()
        };
        for item in &self.items {
            fp += item.elem_footprint();
        }
        fp
    }

    /// Writes the list: allocates the element table, stores its forward
    /// pointer (offset = table, len = count) at `entry`, then writes each
    /// element.
    pub fn write(&self, w: &mut HeaderWriter<'_>, entry: usize) {
        let table = w.alloc_block(self.items.len() * PTR_SIZE);
        ForwardPtr {
            offset: table as u32,
            len: self.items.len() as u32,
        }
        .put(w.buf(), entry);
        w.count_entry();
        for (i, item) in self.items.iter().enumerate() {
            item.write_elem(w, table + i * PTR_SIZE);
        }
    }

    /// Reads a list whose field entry is at `entry`.
    pub fn read(ctx: &SerCtx, payload: &RcBuf, entry: usize) -> Result<Self, WireError> {
        let mut list = CFList::new();
        list.read_into(ctx, payload, entry)?;
        Ok(list)
    }

    /// Drops all elements, keeping the allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Reads a list whose field entry is at `entry` *into* this list,
    /// replacing its contents but reusing its element-vector capacity —
    /// the in-place decode path is heap-allocation-free once the vector
    /// has grown to the steady-state list length.
    ///
    /// On error the list is left cleared (never partially decoded).
    pub fn read_into(
        &mut self,
        ctx: &SerCtx,
        payload: &RcBuf,
        entry: usize,
    ) -> Result<(), WireError> {
        self.items.clear();
        let ptr = ForwardPtr::get(payload.as_slice(), entry)?;
        let count = ptr.len as usize;
        if count > MAX_LIST_LEN {
            return Err(WireError::TooLarge);
        }
        let (table, _) = ptr.check_range(count * PTR_SIZE, payload.len())?;
        self.items.reserve(count);
        for i in 0..count {
            match T::read_elem(ctx, payload, table + i * PTR_SIZE) {
                Ok(item) => self.items.push(item),
                Err(e) => {
                    self.items.clear();
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Visits every element's data entries, in order.
    pub fn for_each_entry(&self, f: &mut dyn FnMut(Entry<'_>)) {
        for item in &self.items {
            item.elem_for_each(f);
        }
    }
}

impl<'a, T: ListElem> IntoIterator for &'a CFList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// A fixed-width primitive list element.
pub trait Scalar: Copy {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Encodes little-endian into `out[..WIDTH]`.
    fn encode(self, out: &mut [u8]);
    /// Decodes little-endian from `inp[..WIDTH]`.
    fn decode(inp: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn encode(self, out: &mut [u8]) {
                out[..Self::WIDTH].copy_from_slice(&self.to_le_bytes());
            }
            fn decode(inp: &[u8]) -> Self {
                <$t>::from_le_bytes(inp[..Self::WIDTH].try_into().expect("scalar width"))
            }
        }
    )*};
}

impl_scalar!(u32, i32, u64, i64, f32, f64);

/// A packed list of fixed-width primitives (`repeated int64` etc.).
///
/// Built app-side the data is an owned packed vector; deserialized it is a
/// zero-copy view into the packet. Packed primitive data always travels in
/// the copied-data region (integers are never worth a scatter-gather entry;
/// cf. the paper's note that integer fields are copied regardless of the
/// threshold).
#[derive(Clone, Debug)]
pub struct PrimList<T: Scalar> {
    data: PrimStorage,
    _marker: std::marker::PhantomData<T>,
}

#[derive(Clone, Debug)]
enum PrimStorage {
    Own(Vec<u8>),
    View(RcBuf),
}

impl<T: Scalar> Default for PrimList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> PrimList<T> {
    /// Creates an empty list.
    pub fn new() -> Self {
        PrimList {
            data: PrimStorage::Own(Vec::new()),
            _marker: std::marker::PhantomData,
        }
    }

    /// Appends a value.
    ///
    /// # Panics
    ///
    /// Panics if called on a deserialized (view) list; deserialized
    /// messages are read-only, matching the generated-API semantics.
    pub fn push(&mut self, v: T) {
        match &mut self.data {
            PrimStorage::Own(vec) => {
                let off = vec.len();
                vec.resize(off + T::WIDTH, 0);
                v.encode(&mut vec[off..]);
            }
            PrimStorage::View(_) => panic!("cannot append to a deserialized primitive list"),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw().len() / T::WIDTH
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.raw().is_empty()
    }

    /// Element at `i`.
    pub fn get(&self, i: usize) -> Option<T> {
        let raw = self.raw();
        let start = i.checked_mul(T::WIDTH)?;
        if start + T::WIDTH > raw.len() {
            return None;
        }
        Some(T::decode(&raw[start..]))
    }

    /// Iterates over decoded values.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("in range"))
    }

    fn raw(&self) -> &[u8] {
        match &self.data {
            PrimStorage::Own(v) => v,
            PrimStorage::View(r) => r.as_slice(),
        }
    }

    /// Packed byte size (this list's copied-data contribution).
    pub fn byte_len(&self) -> usize {
        self.raw().len()
    }

    /// Writes the field entry: offset into the copied-data region + count.
    pub fn write(&self, w: &mut HeaderWriter<'_>, entry: usize) {
        let offset = w.assign_copy(self.byte_len());
        ForwardPtr {
            offset,
            len: self.len() as u32,
        }
        .put(w.buf(), entry);
        w.count_entry();
    }

    /// Reads a list whose field entry is at `entry`.
    pub fn read(ctx: &SerCtx, payload: &RcBuf, entry: usize) -> Result<Self, WireError> {
        let ptr = ForwardPtr::get(payload.as_slice(), entry)?;
        let count = ptr.len as usize;
        if count > MAX_LIST_LEN {
            return Err(WireError::TooLarge);
        }
        let bytes = count * T::WIDTH;
        let (off, _) = ptr.check_range(bytes, payload.len())?;
        ctx.sim
            .charge(Category::Deserialize, ctx.sim.costs().refcount_update);
        Ok(PrimList {
            data: PrimStorage::View(payload.slice(off, bytes)),
            _marker: std::marker::PhantomData,
        })
    }

    /// The packed bytes (this list's single copied entry).
    pub fn packed(&self) -> &[u8] {
        self.raw()
    }
}

impl<T: Scalar> FromIterator<T> for PrimList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut l = PrimList::new();
        for v in iter {
            l.push(v);
        }
        l
    }
}

impl<T: Scalar + PartialEq> PartialEq for PrimList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SerializationConfig;
    use cf_sim::{MachineProfile, Sim};

    fn ctx() -> SerCtx {
        SerCtx::new(
            Sim::new(MachineProfile::tiny_for_tests()),
            SerializationConfig::hybrid(),
        )
    }

    #[test]
    fn primlist_push_get_iter() {
        let mut l = PrimList::<u64>::new();
        l.push(1);
        l.push(u64::MAX);
        l.push(42);
        assert_eq!(l.len(), 3);
        assert_eq!(l.get(1), Some(u64::MAX));
        assert_eq!(l.get(3), None);
        let all: Vec<u64> = l.iter().collect();
        assert_eq!(all, vec![1, u64::MAX, 42]);
        assert_eq!(l.byte_len(), 24);
    }

    #[test]
    fn primlist_from_iter_eq() {
        let a: PrimList<u32> = (0..5u32).collect();
        let b: PrimList<u32> = (0..5u32).collect();
        assert_eq!(a, b);
        let c: PrimList<u32> = (0..6u32).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn cflist_accumulates_sizes() {
        let c = ctx();
        let mut l = CFList::<CFBytes>::with_capacity(2);
        l.append(CFBytes::new(&c, b"copied-small"));
        let pinned = c.pool.alloc(1024).unwrap();
        l.append(CFBytes::new(&c, pinned.as_slice()));
        assert_eq!(l.len(), 2);
        let table = 16;
        assert_eq!(
            l.footprint(),
            Footprint {
                fixed: 0,
                aux: table,
                copy: 12,
                zc_entries: 1,
                zc_bytes: 1024,
            }
        );
    }

    #[test]
    fn cflist_iteration_order() {
        let c = ctx();
        let mut l = CFList::<CFBytes>::new();
        l.append(CFBytes::new(&c, b"a"));
        let pinned = c.pool.alloc(600).unwrap();
        l.append(CFBytes::new(&c, pinned.as_slice()));
        l.append(CFBytes::new(&c, b"b"));
        let mut copies = Vec::new();
        let mut zcs = 0;
        l.for_each_entry(&mut |e| match e {
            Entry::Copy(b) => copies.push(b.to_vec()),
            Entry::ZeroCopy(r) => {
                assert_eq!(r.len(), 600);
                zcs += 1;
            }
        });
        assert_eq!(copies, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(zcs, 1);
    }

    #[test]
    #[should_panic(expected = "deserialized")]
    fn primlist_view_is_readonly() {
        let c = ctx();
        // Build a fake packed payload and read it as a view.
        let payload = c
            .pool
            .alloc_from(&{
                // entry at offset 0: offset=8, count=1; data at 8..16.
                let mut v = vec![0u8; 16];
                crate::wire::put_u32(&mut v, 0, 8);
                crate::wire::put_u32(&mut v, 4, 1);
                crate::wire::put_u64(&mut v, 8, 7);
                v
            })
            .unwrap();
        let mut l = PrimList::<u64>::read(&c, &payload, 0).unwrap();
        assert_eq!(l.get(0), Some(7));
        l.push(8); // must panic
    }

    #[test]
    fn hostile_list_count_rejected() {
        let c = ctx();
        let mut v = vec![0u8; 8];
        crate::wire::put_u32(&mut v, 0, 0);
        crate::wire::put_u32(&mut v, 4, u32::MAX); // absurd count
        let payload = c.pool.alloc_from(&v).unwrap();
        assert!(matches!(
            CFList::<CFBytes>::read(&c, &payload, 0),
            Err(WireError::TooLarge)
        ));
        assert!(matches!(
            PrimList::<u64>::read(&c, &payload, 0),
            Err(WireError::TooLarge)
        ));
    }
}

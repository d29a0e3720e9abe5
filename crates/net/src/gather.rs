//! The combined serialize-and-send gather (paper Listing 2, §3.2.3), once
//! for every transport: the object header and the copied fields go into the
//! first scatter-gather entry behind whatever the transport put there, and
//! each zero-copy field becomes one further entry.

use cf_mem::RcBuf;
use cf_sim::cost::Category;
use cornflakes_core::obj::write_full_header;
use cornflakes_core::{CornflakesObj, Footprint, SerCtx};

/// Writes `obj`'s header region and then its copied field data into `tx`
/// from byte `off` on, charging header-write and copy costs. `fp` is `obj`'s
/// footprint, computed once by the caller for the whole send; `scratch` is
/// the caller's reusable header staging buffer.
pub(crate) fn write_head(
    ctx: &SerCtx,
    scratch: &mut Vec<u8>,
    obj: &impl CornflakesObj,
    fp: Footprint,
    tx: &mut RcBuf,
    off: usize,
) {
    let costs = ctx.sim.costs();
    let hb = fp.header();

    // Object header: assembled in scratch, then stored to the DMA buffer.
    // Charged as header-write bytes plus per-field accounting.
    scratch.clear();
    scratch.resize(hb, 0);
    let entries = write_full_header(obj, scratch);
    ctx.sim.charge(
        Category::HeaderWrite,
        costs.header_fixed + entries as f64 * costs.per_field,
    );
    ctx.sim
        .charge_write(Category::HeaderWrite, tx.addr() + off as u64, hb);
    tx.write_at(off, scratch);

    // Copied field data, in iteration order (which matches the offsets the
    // header writer assigned).
    let mut cursor = off + hb;
    let tx_addr = tx.addr();
    obj.for_each_copy_entry(&mut |bytes: &[u8]| {
        ctx.sim.charge_memcpy(
            Category::SerializeCopy,
            bytes.as_ptr() as u64,
            tx_addr + cursor as u64,
            bytes.len(),
        );
        tx.write_at(cursor, bytes);
        cursor += bytes.len();
    });
}

/// Appends `obj`'s zero-copy entries to `entries`, charging the per-entry
/// reference-count clone.
pub(crate) fn collect_zero_copy(ctx: &SerCtx, obj: &impl CornflakesObj, entries: &mut Vec<RcBuf>) {
    let costs = ctx.sim.costs();
    let raw = ctx.config.raw_scatter_gather;
    obj.for_each_zero_copy_entry(&mut |rc: &RcBuf| {
        if !raw {
            ctx.sim
                .charge_meta_access(Category::SerializeZeroCopy, rc.refcount_addr());
            ctx.sim
                .charge(Category::SerializeZeroCopy, costs.refcount_update);
        }
        entries.push(rc.clone());
    });
}

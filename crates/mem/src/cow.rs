//! Copy-on-write pinned buffers (paper §7, "Memory safety").
//!
//! Cornflakes's baseline guarantee is use-after-free protection only: an
//! application that writes a buffer *in place* while a send is in flight
//! corrupts the transmission. The paper sketches the remedy this module
//! implements: "a library of smart pointers for developers where writes to
//! the smart pointer automatically trigger new allocations and raw pointer
//! swaps, reducing write protection to the case of free protection."
//!
//! A [`CowBuf`] wraps an [`RcBuf`]. Reads and sends share the underlying
//! buffer as usual; a write first checks the reference count, and if anyone
//! else (the NIC's completion queue, a TCP retransmission queue, another
//! reader) still holds the buffer, the write lands in a *fresh* pinned
//! allocation and the smart pointer swaps to it — in-flight I/O keeps the
//! old, immutable bytes.

use crate::pool::{AllocError, PinnedPool};
use crate::rcbuf::{fits, RcBuf};

/// A pinned buffer with copy-on-write semantics over its reference count.
#[derive(Debug)]
pub struct CowBuf {
    buf: RcBuf,
}

impl CowBuf {
    /// Takes ownership of a pinned buffer.
    pub fn new(buf: RcBuf) -> Self {
        CowBuf { buf }
    }

    /// Allocates a fresh buffer from `pool` holding `data`.
    pub fn from_bytes(pool: &PinnedPool, data: &[u8]) -> Result<Self, AllocError> {
        Ok(CowBuf {
            buf: pool.alloc_from(data)?,
        })
    }

    /// The current contents.
    pub fn read(&self) -> &[u8] {
        self.buf.as_slice()
    }

    /// Length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Shares the underlying buffer for sending (the reference the NIC or
    /// retransmission queue will hold). Subsequent writes through this
    /// `CowBuf` will copy-on-write instead of disturbing the share.
    pub fn share(&self) -> RcBuf {
        self.buf.clone()
    }

    /// Whether a write right now would copy (someone else holds the buffer).
    pub fn is_shared(&self) -> bool {
        self.buf.refcount() > 1
    }

    /// Writes `data` at `offset`. If the buffer is shared, the contents are
    /// first moved to a fresh allocation from `pool` (pointer swap); the
    /// previous buffer remains untouched for whoever holds it.
    ///
    /// # Panics
    ///
    /// Panics if the write exceeds the buffer, as [`RcBuf::write_at`] does.
    pub fn write_at(
        &mut self,
        pool: &PinnedPool,
        offset: usize,
        data: &[u8],
    ) -> Result<(), AllocError> {
        assert!(
            fits(offset, data.len(), self.buf.len()),
            "write of {} bytes at {offset} exceeds CowBuf of {}",
            data.len(),
            self.buf.len()
        );
        if self.is_shared() {
            let mut fresh = pool.alloc(self.buf.len())?;
            fresh.write_at(0, self.buf.as_slice());
            self.buf = fresh;
        }
        self.buf.write_at(offset, data);
        Ok(())
    }

    /// Replaces the whole value (always a fresh allocation — the put path's
    /// allocate-and-swap).
    pub fn replace(&mut self, pool: &PinnedPool, data: &[u8]) -> Result<(), AllocError> {
        self.buf = pool.alloc_from(data)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use crate::registry::Registry;

    fn pool() -> PinnedPool {
        PinnedPool::new(Registry::new(), PoolConfig::small_for_tests())
    }

    #[test]
    fn unshared_writes_are_in_place() {
        let p = pool();
        let mut c = CowBuf::from_bytes(&p, b"hello world!").unwrap();
        let addr_before = c.share().addr();
        drop(c.share()); // transient share released
        assert!(!c.is_shared());
        c.write_at(&p, 0, b"HELLO").unwrap();
        assert_eq!(&c.read()[..5], b"HELLO");
        assert_eq!(c.share().addr(), addr_before, "no reallocation");
    }

    #[test]
    fn shared_writes_copy_and_swap() {
        let p = pool();
        let mut c = CowBuf::from_bytes(&p, b"immutable while in flight").unwrap();
        let in_flight = c.share(); // e.g. held by the NIC until completion
        assert!(c.is_shared());

        c.write_at(&p, 0, b"MUTATED..").unwrap();
        // The in-flight copy is untouched; the CowBuf sees the new bytes.
        assert_eq!(&*in_flight, b"immutable while in flight");
        assert_eq!(&c.read()[..9], b"MUTATED..");
        assert_ne!(c.share().addr(), in_flight.addr(), "pointer swapped");
        // The old buffer is released once the in-flight reference drops.
        assert_eq!(in_flight.refcount(), 1);
    }

    #[test]
    fn write_after_share_released_is_in_place_again() {
        let p = pool();
        let mut c = CowBuf::from_bytes(&p, b"0123456789").unwrap();
        let share = c.share();
        c.write_at(&p, 0, b"AAAA").unwrap(); // CoW
        let addr = c.share().addr();
        drop(share);
        c.write_at(&p, 4, b"BBBB").unwrap(); // in place
        assert_eq!(c.share().addr(), addr);
        assert_eq!(&c.read()[..8], b"AAAABBBB");
    }

    #[test]
    fn replace_always_swaps() {
        let p = pool();
        let mut c = CowBuf::from_bytes(&p, b"old").unwrap();
        let old = c.share();
        c.replace(&p, b"new value").unwrap();
        assert_eq!(&*old, b"old");
        assert_eq!(c.read(), b"new value");
        assert_eq!(c.len(), 9);
    }

    #[test]
    fn write_at_refuses_ranges_whose_end_wraps() {
        use crate::rcbuf::{panic_message, WRAPPING_WRITES};
        let p = pool();
        let mut c = CowBuf::from_bytes(&p, &[0u8; 64]).unwrap();
        for (offset, len) in WRAPPING_WRITES {
            let msg = panic_message(|| c.write_at(&p, offset, &[0xEE; 16][..len]));
            assert!(msg.contains("exceeds CowBuf"), "({offset}, {len}): {msg}");
        }
        assert!(
            c.read().iter().all(|&x| x == 0),
            "a refused write writes nothing"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds CowBuf")]
    fn bounds_checked() {
        let p = pool();
        let mut c = CowBuf::from_bytes(&p, b"tiny").unwrap();
        let _ = c.write_at(&p, 2, b"toolong");
    }
}

//! Wire-format primitives (paper §3.3, Figure 4).
//!
//! A serialized Cornflakes object is laid out as:
//!
//! ```text
//! +-------------------------------+  offset 0 (object start)
//! | header region                 |
//! |   root header block           |
//! |     u32 bitmap length (bytes) |
//! |     bitmap                    |
//! |     per-present-field entries |  ints inline; others (u32,u32) pairs
//! |   aux blocks (list tables,    |
//! |   nested object blocks) ...   |
//! +-------------------------------+  offset = header_bytes
//! | copied field data             |  written by the CPU (arena copies)
//! +-------------------------------+  offset = header_bytes + copy_bytes
//! | zero-copy field data          |  gathered by the NIC from app memory
//! +-------------------------------+  offset = object_len
//! ```
//!
//! All integers are little-endian. Forward pointers are `(u32 offset,
//! u32 length-or-count)` with offsets absolute from the object start, so
//! the header can be written before (and independently of) the data it
//! points to — the property that lets the NIC append zero-copy fields the
//! CPU never touches.
//!
//! Every decode is bounds-checked: offsets arrive from the network and are
//! untrusted.

use std::fmt;

/// Size of a forward pointer / list entry in the header region.
pub const PTR_SIZE: usize = 8;

/// Size of the bitmap-length prefix.
pub const BITMAP_LEN_PREFIX: usize = 4;

/// Decoding/encoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a fixed-size read.
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// A forward pointer referenced bytes outside the payload.
    BadOffset {
        /// The out-of-range offset.
        offset: usize,
        /// The referenced length.
        len: usize,
        /// Payload size.
        payload: usize,
    },
    /// The bitmap length did not match the schema.
    BadBitmap {
        /// Bitmap bytes found on the wire.
        found: usize,
        /// Bitmap bytes the schema requires.
        expected: usize,
    },
    /// A string field contained invalid UTF-8 (surfaced lazily, on access).
    Utf8,
    /// A field the caller required is absent from the bitmap.
    MissingField {
        /// Schema index of the missing field.
        field: usize,
    },
    /// A list or object exceeded an implementation limit.
    TooLarge,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} bytes, had {available}")
            }
            WireError::BadOffset {
                offset,
                len,
                payload,
            } => {
                write!(
                    f,
                    "bad forward pointer: [{offset}, {offset}+{len}) outside payload of {payload}"
                )
            }
            WireError::BadBitmap { found, expected } => {
                write!(f, "bitmap of {found} bytes, schema expects {expected}")
            }
            WireError::Utf8 => write!(f, "string field is not valid UTF-8"),
            WireError::MissingField { field } => write!(f, "required field {field} absent"),
            WireError::TooLarge => write!(f, "object exceeds implementation limits"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bitmap bytes needed for `num_fields` fields, rounded up to 4-byte
/// alignment so following entries stay aligned. `const` so generated code
/// can size stack bitmaps with it. Always ≥ 4 for a non-empty schema.
pub const fn bitmap_bytes(num_fields: usize) -> usize {
    num_fields.div_ceil(8).div_ceil(4) * 4
}

/// Writes `v` little-endian at `buf[off..off+4]`.
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Writes `v` little-endian at `buf[off..off+8]`.
#[inline]
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32` at `buf[off..off+4]`.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> Result<u32, WireError> {
    let end = off.checked_add(4).ok_or(WireError::TooLarge)?;
    let bytes = buf
        .get(off..end)
        .and_then(<[u8]>::first_chunk)
        .ok_or(WireError::Truncated {
            needed: end,
            available: buf.len(),
        })?;
    Ok(u32::from_le_bytes(*bytes))
}

/// Reads a little-endian `u64` at `buf[off..off+8]`.
#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> Result<u64, WireError> {
    let end = off.checked_add(8).ok_or(WireError::TooLarge)?;
    let bytes = buf
        .get(off..end)
        .and_then(<[u8]>::first_chunk)
        .ok_or(WireError::Truncated {
            needed: end,
            available: buf.len(),
        })?;
    Ok(u64::from_le_bytes(*bytes))
}

/// A decoded forward pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForwardPtr {
    /// Absolute offset from the object start.
    pub offset: u32,
    /// Length in bytes (for data) or element count (for lists).
    pub len: u32,
}

impl ForwardPtr {
    /// Encodes at `buf[off..off+8]`.
    pub fn put(self, buf: &mut [u8], off: usize) {
        put_u32(buf, off, self.offset);
        put_u32(buf, off + 4, self.len);
    }

    /// Decodes from `buf[off..off+8]`.
    pub fn get(buf: &[u8], off: usize) -> Result<Self, WireError> {
        Ok(ForwardPtr {
            offset: get_u32(buf, off)?,
            len: get_u32(buf, off + 4)?,
        })
    }

    /// Bounds-checks `[offset, offset + byte_len)` against a payload of
    /// `payload` bytes and returns the range.
    pub fn check_range(self, byte_len: usize, payload: usize) -> Result<(usize, usize), WireError> {
        let off = self.offset as usize;
        let end = off.checked_add(byte_len).ok_or(WireError::TooLarge)?;
        if end > payload {
            return Err(WireError::BadOffset {
                offset: off,
                len: byte_len,
                payload,
            });
        }
        Ok((off, end))
    }
}

/// Presence bitmap operations over a header block.
#[derive(Clone, Copy, Debug)]
pub struct Bitmap<'a>(pub &'a [u8]);

impl Bitmap<'_> {
    /// Whether schema field `idx` is present.
    pub fn is_set(&self, idx: usize) -> bool {
        let byte = idx / 8;
        byte < self.0.len() && self.0[byte] & (1 << (idx % 8)) != 0
    }
}

/// Sets bit `idx` in a mutable bitmap slice.
pub fn bitmap_set(bits: &mut [u8], idx: usize) {
    bits[idx / 8] |= 1 << (idx % 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_bytes_rounds_to_u32() {
        assert_eq!(bitmap_bytes(0), 0);
        assert_eq!(bitmap_bytes(1), 4);
        assert_eq!(bitmap_bytes(8), 4);
        assert_eq!(bitmap_bytes(32), 4);
        assert_eq!(bitmap_bytes(33), 8);
        assert_eq!(bitmap_bytes(64), 8);
    }

    #[test]
    fn u32_roundtrip() {
        let mut b = [0u8; 8];
        put_u32(&mut b, 2, 0xDEADBEEF);
        assert_eq!(get_u32(&b, 2).unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn u64_roundtrip() {
        let mut b = [0u8; 16];
        put_u64(&mut b, 5, u64::MAX - 7);
        assert_eq!(get_u64(&b, 5).unwrap(), u64::MAX - 7);
    }

    #[test]
    fn reads_are_bounds_checked() {
        let b = [0u8; 6];
        assert!(matches!(get_u32(&b, 4), Err(WireError::Truncated { .. })));
        assert!(matches!(get_u64(&b, 0), Err(WireError::Truncated { .. })));
        assert!(matches!(
            get_u32(&b, usize::MAX - 1),
            Err(WireError::TooLarge)
        ));
    }

    #[test]
    fn forward_ptr_roundtrip() {
        let mut b = [0u8; 8];
        let p = ForwardPtr {
            offset: 100,
            len: 42,
        };
        p.put(&mut b, 0);
        assert_eq!(ForwardPtr::get(&b, 0).unwrap(), p);
    }

    #[test]
    fn forward_ptr_range_check() {
        let p = ForwardPtr { offset: 10, len: 0 };
        assert_eq!(p.check_range(5, 20).unwrap(), (10, 15));
        assert!(p.check_range(11, 20).is_err());
        let evil = ForwardPtr {
            offset: u32::MAX,
            len: 0,
        };
        assert!(evil.check_range(usize::MAX, 100).is_err());
    }

    #[test]
    fn bitmap_ops() {
        let mut bits = [0u8; 4];
        bitmap_set(&mut bits, 0);
        bitmap_set(&mut bits, 9);
        bitmap_set(&mut bits, 31);
        let bm = Bitmap(&bits);
        assert!(bm.is_set(0));
        assert!(!bm.is_set(1));
        assert!(bm.is_set(9));
        assert!(bm.is_set(31));
        assert!(!bm.is_set(200), "out of range reads as absent");
    }

    #[test]
    fn error_display() {
        let e = WireError::BadOffset {
            offset: 9,
            len: 8,
            payload: 10,
        };
        assert!(e.to_string().contains("bad forward pointer"));
    }
}

//! Protobuf base-128 varints.

/// Maximum encoded size of a u64 varint.
pub const MAX_VARINT: usize = 10;

/// Encodes `v` into `out`, returning the number of bytes written.
///
/// # Panics
///
/// Panics if `out` is too short (callers size buffers with
/// [`varint_len`]).
pub fn encode_varint(mut v: u64, out: &mut [u8]) -> usize {
    let mut i = 0;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out[i] = byte;
            return i + 1;
        }
        out[i] = byte | 0x80;
        i += 1;
    }
}

/// Decodes a varint from `buf`, returning `(value, bytes_consumed)`, or
/// `None` on truncation/overlong encodings.
pub fn decode_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    for (i, &b) in buf.iter().enumerate().take(MAX_VARINT) {
        v |= u64::from(b & 0x7F) << (7 * i);
        if b & 0x80 == 0 {
            // Reject a 10th byte carrying more than the u64's last bit.
            if i == MAX_VARINT - 1 && b > 1 {
                return None;
            }
            return Some((v, i + 1));
        }
    }
    None
}

/// Encoded size of `v`.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = [0u8; MAX_VARINT];
            let n = encode_varint(v, &mut buf);
            assert_eq!(n, varint_len(v), "len for {v}");
            let (d, m) = decode_varint(&buf[..n]).expect("decodes");
            assert_eq!(d, v);
            assert_eq!(m, n);
        }
    }

    #[test]
    fn truncated_input_rejected() {
        let mut buf = [0u8; MAX_VARINT];
        let n = encode_varint(u64::MAX, &mut buf);
        assert!(decode_varint(&buf[..n - 1]).is_none());
        assert!(decode_varint(&[]).is_none());
        assert!(decode_varint(&[0x80]).is_none());
    }

    #[test]
    fn overlong_encoding_rejected() {
        // 11 continuation bytes.
        let bad = [0xFFu8; 11];
        assert!(decode_varint(&bad).is_none());
    }
}

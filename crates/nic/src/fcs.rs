//! The CRC32 kernels behind [`crate::frame::frame_fcs`].
//!
//! CRC-32/IEEE 802.3: polynomial `0x04C11DB7`, bit-reflected (so the
//! constant that appears in code is `0xEDB88320`), register initialised to
//! and finally XORed with all-ones by the caller. [`update`] advances the
//! raw register over a run of bytes and is incremental:
//! `update(update(c, a), b) == update(c, a ++ b)`.
//!
//! Two kernels compute it:
//!
//! - [`update_portable`]: slice-by-16 over const-built tables (16 KiB of
//!   `.rodata`), safe code, every platform. It also finishes every tail
//!   and handles every run too short to fold.
//! - `update_clmul` (`x86_64` only): four 128-bit lanes folded forward by
//!   carry-less multiplication, then reduced 512 → 128 → 64 → 32 bits with
//!   a Barrett step, for runs of at least 64 bytes (`FOLD_MIN`). Selected at
//!   run time when the CPU reports PCLMULQDQ — a property of the machine
//!   the code observes, not a build or configuration choice.
//!
//! The byte-at-a-time table walk both replace survives only as the
//! `#[cfg(test)]` reference the kernels are compared against.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the register after byte `b` followed by `k` zero
/// bytes, so sixteen input bytes are absorbed with sixteen independent
/// lookups instead of a sixteen-deep dependent chain.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Advances the raw CRC register `crc` over `data` with the fastest kernel
/// this machine has.
pub(crate) fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `update_clmul` is safe code whose only requirement is
        // that the CPU executes PCLMULQDQ (SSE2, its other dependency, is
        // part of the x86_64 baseline), and the detection macro has just
        // reported that it does.
        return unsafe { update_clmul(crc, data) };
    }
    update_portable(crc, data)
}

/// Slice-by-16: sixteen bytes per step, the remainder a byte at a time.
fn update_portable(mut crc: u32, data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<16>();
    for block in blocks {
        let v = u128::from_le_bytes(*block) ^ u128::from(crc);
        crc = 0;
        for (k, table) in TABLES.iter().enumerate() {
            // Byte `15 - k` of the block is followed by `k` more bytes.
            crc ^= table[(v >> (8 * (15 - k))) as usize & 0xFF];
        }
    }
    for &b in tail {
        crc = TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(target_arch = "x86_64")]
use clmul::{update_clmul, FOLD_MIN};

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::update_portable;

    /// Shortest run handed to the fold kernel: one full set of four lanes.
    pub(super) const FOLD_MIN: usize = 64;

    // x^n mod P, bit-reflected, for the distances the lanes are folded
    // across: 512 ± 32 bits (four lanes ahead), 128 ± 32 bits (one lane
    // ahead) and 64 bits (the 96 → 64 step).
    const K_512: (i64, i64) = (0x0001_5444_2BD4, 0x0001_C6E4_1596);
    const K_128: (i64, i64) = (0x0001_7519_97D0, 0x0000_CCAA_009E);
    const K_64: i64 = 0x0001_63CD_6124;
    // Barrett: the polynomial with its x^32 term, and floor(x^64 / P).
    const P_X: i64 = 0x0001_DB71_0641;
    const MU: i64 = 0x0001_F701_1641;

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(lane: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*lane);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `acc · x^distance + next`: both halves of `acc` multiplied by the
    /// key for their distance, summed into the lane they land on.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, key: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, key);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, key);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Carry-less-multiply fold (Gopal et al., "Fast CRC Computation for
    /// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with
    /// the standard constants for the reflected IEEE polynomial.
    ///
    /// Meant for `data.len() >= FOLD_MIN`; shorter input is handed to
    /// [`update_portable`] unchanged, as are the bytes past the last whole
    /// 16-byte lane. Safe code: the only thing a caller must establish is
    /// that the CPU has PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update_clmul(crc: u32, data: &[u8]) -> u32 {
        let (lanes, tail) = data.as_chunks::<16>();
        let mut groups = lanes.chunks_exact(4);
        let Some(first) = groups.next() else {
            return update_portable(crc, data);
        };

        // The incoming register is XORed into the first four message bytes.
        let mut x = [
            _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(crc as i32)),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        let k512 = _mm_set_epi64x(K_512.1, K_512.0);
        for group in groups.by_ref() {
            for (acc, lane) in x.iter_mut().zip(group) {
                *acc = fold(*acc, load(lane), k512);
            }
        }

        // Four lanes into one, then the lanes that did not fill a group.
        let k128 = _mm_set_epi64x(K_128.1, K_128.0);
        let mut acc = x[0];
        for &next in &x[1..] {
            acc = fold(acc, next, k128);
        }
        for lane in groups.remainder() {
            acc = fold(acc, load(lane), k128);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k128),
            _mm_srli_si128::<8>(acc),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K_64)),
            _mm_srli_si128::<4>(acc),
        );

        // Barrett reduction 64 → 32 bits; the result is bits 32..64.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let folded = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(acc, t2))) as u32;

        update_portable(folded, tail)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::MAX_FRAME;

    /// The byte-at-a-time table walk the kernels replaced: the reference
    /// they must agree with on every input.
    pub(crate) fn update_bytewise(crc: u32, data: &[u8]) -> u32 {
        data.iter().fold(crc, |c, &b| {
            TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    type Kernel = (&'static str, fn(u32, &[u8]) -> u32);

    /// Every kernel this machine can run, called directly — the portable
    /// one is exercised even where `update` would always pick the fold.
    fn kernels() -> Vec<Kernel> {
        let everywhere: [Kernel; 2] = [("portable", update_portable), ("dispatch", update)];
        everywhere.into_iter().chain(clmul_kernel()).collect()
    }

    #[cfg(target_arch = "x86_64")]
    fn clmul_kernel() -> Option<Kernel> {
        std::arch::is_x86_feature_detected!("pclmulqdq").then_some((
            "clmul",
            // SAFETY: only constructed once PCLMULQDQ has been detected.
            |crc, data| unsafe { update_clmul(crc, data) },
        ))
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn clmul_kernel() -> Option<Kernel> {
        None
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = cf_sim::rng::SplitMix64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn fcs_first_table_is_the_bitwise_definition() {
        for b in 0..=255u8 {
            let mut c = u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            assert_eq!(TABLES[0][b as usize], c);
        }
    }

    #[test]
    fn fcs_known_answer() {
        for (name, kernel) in kernels() {
            assert_eq!(!kernel(!0, b"123456789"), 0xCBF4_3926, "{name}");
        }
    }

    #[test]
    fn fcs_kernels_match_bytewise_at_every_length() {
        let max = MAX_FRAME + 64;
        let bytes = random_bytes(0xC0FF_EE00, max + 16);
        // Slide the start with the length so 16-byte loads hit every
        // alignment; one bytewise walk per start gives every prefix's CRC.
        for start in 0..16 {
            let window = &bytes[start..start + max];
            let mut reference = Vec::with_capacity(max + 1);
            reference.push(!0u32);
            for b in window {
                let prev = reference[reference.len() - 1];
                reference.push(update_bytewise(prev, std::slice::from_ref(b)));
            }
            for (name, kernel) in kernels() {
                for len in (start..=max).step_by(16) {
                    assert_eq!(
                        kernel(!0, &window[..len]),
                        reference[len],
                        "{name}: len {len} at offset {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn fcs_kernels_match_bytewise_at_every_misalignment() {
        // Lengths around each kernel boundary, from every start offset.
        let lens = [
            0, 1, 15, 16, 17, 31, 32, 63, 64, 65, 79, 80, 127, 128, 129, 191, 192, 255, 256, 1500,
            4274, MAX_FRAME,
        ];
        for seed in 0..4u64 {
            let bytes = random_bytes(seed, MAX_FRAME + 16);
            for (name, kernel) in kernels() {
                for start in 0..16 {
                    for len in lens {
                        let data = &bytes[start..start + len];
                        // A non-trivial incoming register, as the masked
                        // frame walk produces.
                        let crc = 0x1234_5678 ^ seed as u32;
                        assert_eq!(
                            kernel(crc, data),
                            update_bytewise(crc, data),
                            "{name}: seed {seed} len {len} at offset {start}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fcs_update_is_incremental() {
        let bytes = random_bytes(9, 1024);
        for (name, kernel) in kernels() {
            let whole = kernel(!0, &bytes);
            for split in [0, 1, 18, 22, 63, 64, 65, 500, 1023, 1024] {
                let (a, b) = bytes.split_at(split);
                assert_eq!(kernel(kernel(!0, a), b), whole, "{name}: split at {split}");
            }
        }
    }
}

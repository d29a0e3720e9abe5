//! The CRC32 kernels behind [`crate::frame::frame_fcs`].
//!
//! CRC-32/IEEE 802.3: polynomial `0x04C11DB7`, bit-reflected (so the
//! constant that appears in code is `0xEDB88320`), register initialised to
//! and finally XORed with all-ones by the caller. [`update`] advances the
//! raw register over a run of bytes and is incremental:
//! `update(update(c, a), b) == update(c, a ++ b)`. [`update_masked`] does
//! the same with chosen bytes among the first 64 read as zero, which is how
//! a frame is checked with its own FCS field blanked in one pass.
//!
//! Three kernels compute it:
//!
//! - [`update_portable`]: slice-by-16 over const-built tables (16 KiB of
//!   `.rodata`), safe code, every platform. It also finishes the 128-bit
//!   kernel's tails and handles every run too short to fold.
//! - `update_clmul` (`x86_64` only): four 128-bit lanes folded forward by
//!   carry-less multiplication, then reduced 512 → 128 → 64 → 32 bits with
//!   a Barrett step, for runs of at least 64 bytes (`FOLD_MIN`).
//! - `update_vpclmul` (`x86_64` only): four 512-bit accumulators folded
//!   256 bytes per step with VPCLMULQDQ, reduced 512 → 128 bits in one
//!   multiply per lane, then the same 128 → 32-bit tail. Its first 64-byte
//!   block is a masked load, so the bytes [`update_masked`] blanks are
//!   cleared in the register and cost nothing, and its last partial lane is
//!   folded from the data's final 16 bytes, so it takes no bytewise step.
//!
//! Dispatch takes the widest kernel the CPU reports — VPCLMULQDQ with
//! AVX-512F/BW in [`update_masked`], else PCLMULQDQ, else portable in
//! [`update`] — a property of the machine the code observes, not a build or
//! configuration choice. The folding
//! constants are not typed in: a `const fn` derives each from its distance.
//!
//! The byte-at-a-time table walk all three replace survives only as the
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

/// Advances the raw CRC register `crc` over `data` with the 128-bit fold
/// where the CPU has PCLMULQDQ, else slice-by-16. Frames reach the 512-bit
/// kernel through [`update_masked`].
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

/// [`update`] with the bytes that `clear` flags among the first 64 of
/// `data` (bit `i`: byte `i`) read as zero: one call into the 512-bit
/// kernel where the CPU has it and `data` fills a block, else
/// [`update_masked_runs`].
pub(crate) fn update_masked(crc: u32, data: &[u8], clear: u64) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN && has_vpclmul() {
        // SAFETY: `update_vpclmul` is safe code apart from loads it proves
        // in bounds itself, and its only requirement is that the CPU
        // executes VPCLMULQDQ and AVX-512F/BW, which `has_vpclmul` has just
        // reported.
        return unsafe { update_vpclmul(crc, data, clear) };
    }
    update_masked_runs(crc, data, clear)
}

/// [`update_masked`] for any machine and any length: [`update`] over each
/// run of kept bytes, and over as many zeros as each run of flagged bytes
/// has bytes in `data`. For a frame, three calls: the head, the FCS field,
/// the body.
fn update_masked_runs(mut crc: u32, data: &[u8], clear: u64) -> u32 {
    let (mut rest, mut clear) = (data, clear);
    while clear != 0 && !rest.is_empty() {
        let kept = clear.trailing_zeros() as usize;
        let blanked = (clear >> kept).trailing_ones() as usize;
        let (run, after) = rest.split_at(kept.min(rest.len()));
        let (field, after) = after.split_at(blanked.min(after.len()));
        crc = update(update(crc, run), &[0; 64][..field.len()]);
        rest = after;
        clear = clear.checked_shr((kept + blanked) as u32).unwrap_or(0);
    }
    update(crc, rest)
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
use clmul::{has_vpclmul, update_clmul, update_vpclmul, FOLD_MIN};

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, __m512i, _mm256_castsi256_si128, _mm256_extracti128_si256, _mm256_xor_si256,
        _mm512_castsi512_si256, _mm512_clmulepi64_epi128, _mm512_extracti64x4_epi64,
        _mm512_loadu_si512, _mm512_maskz_loadu_epi8, _mm512_maskz_mov_epi64, _mm512_set_epi64,
        _mm512_ternarylogic_epi64, _mm512_xor_si512, _mm_add_epi8, _mm_and_si128, _mm_blendv_epi8,
        _mm_clmulepi64_si128, _mm_cmpgt_epi8, _mm_cvtsi128_si32, _mm_cvtsi32_si128, _mm_set1_epi8,
        _mm_set_epi32, _mm_set_epi64x, _mm_set_epi8, _mm_shuffle_epi8, _mm_srli_si128,
        _mm_sub_epi8, _mm_xor_si128,
    };

    use super::{update_masked_runs, update_portable, POLY};

    /// Shortest run handed to a fold kernel: one full set of four lanes.
    pub(super) const FOLD_MIN: usize = 64;

    /// The folding constant for a distance of `n` bits: x^n mod P,
    /// bit-reflected and shifted left by one (a 33-bit value), which is the
    /// form a carry-less multiply of reflected operands needs. Starts from
    /// x^0 (bit 31 in the reflected register) and multiplies by x `n` times.
    const fn key(n: u32) -> i64 {
        let mut r = 1u32 << 31;
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { POLY ^ (r >> 1) } else { r >> 1 };
            i += 1;
        }
        (r as i64) << 1
    }

    // Each distance's pair is (x^(d + 32), x^(d - 32)): the keys for the
    // low and the high half of a lane folded `d` bits ahead. 2048 is four
    // 512-bit accumulators ahead, 512 one accumulator (or four 128-bit
    // lanes), 384 / 256 / 128 three, two and one lanes; 64 is the 96 → 64
    // step.
    const K_2048: (i64, i64) = (key(2048 + 32), key(2048 - 32));
    pub(super) const K_512: (i64, i64) = (key(512 + 32), key(512 - 32));
    const K_384: (i64, i64) = (key(384 + 32), key(384 - 32));
    const K_256: (i64, i64) = (key(256 + 32), key(256 - 32));
    pub(super) const K_128: (i64, i64) = (key(128 + 32), key(128 - 32));
    pub(super) const K_64: i64 = key(64);
    // Barrett: the polynomial with its x^32 term, and floor(x^64 / P).
    const P_X: i64 = 0x0001_DB71_0641;
    const MU: i64 = 0x0001_F701_1641;

    /// Whether the CPU runs [`update_vpclmul`].
    #[inline]
    pub(super) fn has_vpclmul() -> bool {
        std::arch::is_x86_feature_detected!("vpclmulqdq")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
    }

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

    /// 128 → 96 → 64 bits, then a Barrett reduction to the 32-bit register.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(acc: __m128i) -> u32 {
        let k128 = _mm_set_epi64x(K_128.1, K_128.0);
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k128),
            _mm_srli_si128::<8>(acc),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K_64)),
            _mm_srli_si128::<4>(acc),
        );

        // The result is bits 32..64.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(acc, t2))) as u32
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
        update_portable(reduce(acc), tail)
    }

    /// Four 64-bit keys per 512-bit register: `(lo, hi)` in every lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn keys512(k: (i64, i64)) -> __m512i {
        _mm512_set_epi64(k.1, k.0, k.1, k.0, k.1, k.0, k.1, k.0)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load512(block: &[u8; 64]) -> __m512i {
        // SAFETY: `block` is 64 readable bytes and the load is unaligned.
        unsafe { _mm512_loadu_si512(block.as_ptr().cast()) }
    }

    /// [`fold`] on four lanes at once: `acc · x^distance + next`, the three
    /// terms summed by one ternary XOR.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold512(acc: __m512i, next: __m512i, key: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(acc, key);
        let hi = _mm512_clmulepi64_epi128::<0x11>(acc, key);
        _mm512_ternarylogic_epi64::<0x96>(lo, hi, next)
    }

    /// The VPCLMULQDQ form of [`update_clmul`] for AVX-512 machines, with
    /// the bytes `clear` flags in the first 64 read as zero: that block is
    /// loaded under the inverse mask, so blanking them is free.
    ///
    /// Meant for `data.len() >= FOLD_MIN`, where it takes no bytewise step at
    /// all; shorter input is handed to [`update_masked_runs`]. Safe code
    /// apart from its block loads: the only thing a caller must establish
    /// is that the CPU has VPCLMULQDQ and AVX-512F/BW.
    #[target_feature(enable = "pclmulqdq,avx512f,avx512bw,vpclmulqdq")]
    pub(super) fn update_vpclmul(crc: u32, data: &[u8], clear: u64) -> u32 {
        let (blocks, rest) = data.as_chunks::<64>();
        let Some((first, blocks)) = blocks.split_first() else {
            return update_masked_runs(crc, data, clear);
        };
        // SAFETY: `first` is 64 readable bytes and the load is unaligned;
        // the bytes the mask leaves out are not read at all.
        let head = unsafe { _mm512_maskz_loadu_epi8(!clear, first.as_ptr().cast()) };
        // The incoming register is XORed into the first four message bytes.
        let mut acc = _mm512_xor_si512(head, _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, crc.into()));

        // From 256 bytes on, four accumulators (one per block of a 256-byte
        // group) each folded 256 bytes ahead, then into one; the blocks that
        // did not fill a group follow one at a time.
        let k512 = keys512(K_512);
        let mut blocks = blocks;
        if let [b1, b2, b3, after @ ..] = blocks {
            let mut x = [acc, load512(b1), load512(b2), load512(b3)];
            let mut groups = after.chunks_exact(4);
            let k2048 = keys512(K_2048);
            for group in groups.by_ref() {
                for (x, block) in x.iter_mut().zip(group) {
                    *x = fold512(*x, load512(block), k2048);
                }
            }
            acc = x[0];
            for &next in &x[1..] {
                acc = fold512(acc, next, k512);
            }
            blocks = groups.remainder();
        }
        for block in blocks {
            acc = fold512(acc, load512(block), k512);
        }

        // Four lanes into one: lane i is folded across the 3 - i lanes after
        // it in one multiply per half, and the last lane passes unchanged.
        let kred = _mm512_set_epi64(0, 0, K_128.1, K_128.0, K_256.1, K_256.0, K_384.1, K_384.0);
        let lo = _mm512_clmulepi64_epi128::<0x00>(acc, kred);
        let hi = _mm512_clmulepi64_epi128::<0x11>(acc, kred);
        let last = _mm512_maskz_mov_epi64(0xC0, acc);
        let sum = _mm512_ternarylogic_epi64::<0x96>(lo, hi, last);
        let sum = _mm256_xor_si256(
            _mm512_castsi512_si256(sum),
            _mm512_extracti64x4_epi64::<1>(sum),
        );
        let mut acc = _mm_xor_si128(
            _mm256_castsi256_si128(sum),
            _mm256_extracti128_si256::<1>(sum),
        );

        // The lanes that did not fill a block, then the bytes past them.
        let (lanes, tail) = rest.as_chunks::<16>();
        let k128 = _mm_set_epi64x(K_128.1, K_128.0);
        for lane in lanes {
            acc = fold(acc, load(lane), k128);
        }
        if let Some(last) = data.last_chunk::<16>().filter(|_| !tail.is_empty()) {
            acc = fold_tail(acc, load(last), tail.len());
        }
        reduce(acc)
    }

    /// Appends the last `r` (1..16) bytes of the data to `acc`, given the
    /// data's final 16 bytes `last`, whose top `r` bytes they are. The
    /// 16 + `r` bytes are split again, into the accumulator's first `r`
    /// (zero-extended at the front, which adds nothing) and a whole lane of
    /// its other 16 − `r` and the new ones, and the first is folded one lane
    /// onto the second — in place of `r` bytewise steps.
    #[inline]
    #[target_feature(enable = "pclmulqdq,avx2")]
    fn fold_tail(acc: __m128i, last: __m128i, r: usize) -> __m128i {
        let iota = _mm_set_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
        let r = r as i8;
        // A shuffle index with its top bit set reads zero.
        let head = _mm_shuffle_epi8(acc, _mm_sub_epi8(iota, _mm_set1_epi8(16 - r)));
        let moved = _mm_shuffle_epi8(acc, _mm_add_epi8(iota, _mm_set1_epi8(r)));
        let new_bytes = _mm_cmpgt_epi8(iota, _mm_set1_epi8(15 - r));
        let lane = _mm_blendv_epi8(moved, last, new_bytes);
        fold(head, lane, _mm_set_epi64x(K_128.1, K_128.0))
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
    /// one is exercised even where `update` would always pick a fold.
    fn kernels() -> Vec<Kernel> {
        let everywhere: [Kernel; 2] = [("portable", update_portable), ("dispatch", update)];
        everywhere.into_iter().chain(fold_kernels()).collect()
    }

    #[cfg(target_arch = "x86_64")]
    fn fold_kernels() -> Vec<Kernel> {
        let mut found: Vec<Kernel> = Vec::new();
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: only constructed once PCLMULQDQ has been detected.
            found.push(("clmul", |crc, data| unsafe { update_clmul(crc, data) }));
        }
        if has_vpclmul() {
            // SAFETY: only constructed once `has_vpclmul` has reported true.
            found.push(("vpclmul", |crc, data| unsafe {
                update_vpclmul(crc, data, 0)
            }));
        }
        found
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn fold_kernels() -> Vec<Kernel> {
        Vec::new()
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fcs_derived_keys_are_the_published_constants() {
        // Gopal et al. (Intel 2009), the reflected IEEE polynomial's fold
        // constants, as every PCLMULQDQ CRC32 prints them.
        assert_eq!(clmul::K_512, (0x0001_5444_2BD4, 0x0001_C6E4_1596));
        assert_eq!(clmul::K_128, (0x0001_7519_97D0, 0x0000_CCAA_009E));
        assert_eq!(clmul::K_64, 0x0001_63CD_6124);
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
            0, 1, 15, 16, 17, 31, 32, 63, 64, 65, 79, 80, 127, 128, 129, 191, 192, 255, 256, 257,
            319, 320, 447, 448, 511, 512, 513, 1500, 4274, MAX_FRAME,
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

    type MaskedKernel = (&'static str, fn(u32, &[u8], u64) -> u32);

    /// Every masked walk this machine can run, called directly.
    fn masked_kernels() -> Vec<MaskedKernel> {
        let mut found: Vec<MaskedKernel> =
            vec![("runs", update_masked_runs), ("dispatch", update_masked)];
        #[cfg(target_arch = "x86_64")]
        if has_vpclmul() {
            // SAFETY: only constructed once `has_vpclmul` has reported true.
            found.push(("vpclmul", |crc, data, clear| unsafe {
                update_vpclmul(crc, data, clear)
            }));
        }
        found
    }

    #[test]
    fn fcs_masked_kernels_clear_exactly_the_flagged_bytes() {
        let bytes = random_bytes(0x3A5C, 600 + 16);
        let mut rng = cf_sim::rng::SplitMix64::new(17);
        for len in 0..=600 {
            // Sparse and dense masks, with a bit past the data's end now
            // and then; every start offset of a 16-byte load.
            let clear = match len % 3 {
                0 => rng.next_u64() & rng.next_u64(),
                1 => rng.next_u64() | rng.next_u64(),
                _ => 0xF << 18,
            };
            let data = &bytes[len % 16..len % 16 + len];
            let blanked: Vec<u8> = data
                .iter()
                .enumerate()
                .map(|(i, &b)| if i < 64 && clear >> i & 1 != 0 { 0 } else { b })
                .collect();
            let crc = 0x0BAD_F00D ^ len as u32;
            let want = update_bytewise(crc, &blanked);
            for (name, kernel) in masked_kernels() {
                assert_eq!(kernel(crc, data, clear), want, "{name}: len {len}");
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

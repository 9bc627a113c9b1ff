//! SHA-NI compression kernel for x86 / x86-64.
//!
//! The only module in the workspace allowed to contain `unsafe`: the SHA
//! extension is reachable only through `core::arch` intrinsics, and a
//! `#[target_feature]` function may only be called once the CPU has been
//! asked whether it has the feature. Both conditions are set up and used in
//! this file: [`kernel`] is the only way to obtain the function, and it
//! hands it out only after `is_x86_feature_detected!` said yes.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86")]
use core::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use super::{Kernel, K};

/// The SHA-NI kernel, if this CPU supports every instruction it uses.
pub(super) fn kernel() -> Option<Kernel> {
    let supported = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    supported.then_some(compress as Kernel)
}

/// Safe face of [`compress_sha_ni`]. Private: only [`kernel`] names it, and
/// only after detecting the features the kernel is compiled for.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: `kernel` is the sole source of this function pointer and
    // returns it only when `is_x86_feature_detected!` reported `sha`,
    // `sse2`, `ssse3` and `sse4.1` — exactly the features
    // `compress_sha_ni` enables. The function has no other requirement:
    // all its memory accesses go through the two references.
    unsafe { compress_sha_ni(state, blocks) }
}

/// Folds the whole 64-byte blocks of `blocks` into `state` with the
/// `sha256rnds2` / `sha256msg1` / `sha256msg2` instructions (the flow of
/// Intel's "SHA Extensions" white paper: two state registers in
/// ABEF / CDGH order, four rounds per step, the message schedule kept in
/// four rotating registers).
///
/// # Safety
///
/// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1` features.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    // Big-endian message words -> little-endian lanes.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY (all loads/stores below): `state` is 32 readable and writable
    // bytes, each `block` from `chunks_exact(64)` is 64 readable bytes and
    // `K` is 256; every pointer offset stays inside its object and the
    // `loadu`/`storeu` forms have no alignment requirement.
    let dcba = _mm_loadu_si128(state.as_ptr().cast());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

    for block in blocks.chunks_exact(64) {
        let abef_in = abef;
        let cdgh_in = cdgh;
        let p = block.as_ptr();
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), byte_swap);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), byte_swap);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), byte_swap);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), byte_swap);

        // Rounds 4g..4g+4 with message words W[4g..4g+4] in `$w`.
        macro_rules! rounds4 {
            ($g:expr, $w:expr) => {{
                let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add(4 * $g).cast()));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }};
        }
        // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], four at a
        // time: `$g4..$g1` hold the words of 4..1 groups back; msg1 adds σ0
        // to the oldest group, alignr supplies W[t-7..t-3], msg2 adds σ1.
        macro_rules! schedule {
            ($g4:expr, $g3:expr, $g2:expr, $g1:expr) => {
                _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32($g4, $g3), _mm_alignr_epi8::<4>($g1, $g2)),
                    $g1,
                )
            };
        }
        rounds4!(0, w0);
        rounds4!(1, w1);
        rounds4!(2, w2);
        rounds4!(3, w3);
        // The four registers rotate, so each unrolled step names them
        // statically (an indexed array would go through memory).
        for g in [4, 8, 12] {
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(g, w0);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(g + 1, w1);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(g + 2, w2);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(g + 3, w3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16::<0xF0>(feba, dchg));
    _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), _mm_alignr_epi8::<8>(dchg, feba));
}

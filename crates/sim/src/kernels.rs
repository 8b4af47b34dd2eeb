//! Per-element kernels for the single-PE hot loops of the benchmark
//! applications: little-endian codecs between MRAM bytes and typed
//! values, the wrapping accumulates of the MLP and GNN layers, ReLU, the
//! BFS frontier scan and the strided row copy of the GNN transpose.
//!
//! **One plain form per operation.** Each operation is the per-element
//! loop that states its semantics, so the kernel is its own reference.
//! A second form exists only when it is a *different algorithm* that a
//! benchmark workload measures: [`for_each_new_bit`] scans 64-bit words
//! instead of single bits (BFS runs it every iteration). [`reference`]
//! keeps that per-bit scan, a per-byte [`copy_rows`] and the shift-based
//! [`decode_sext`] / [`encode_trunc`] as independent oracles for
//! `crates/sim/tests/kernels.rs` and `bench_json --kernels`. Arithmetic
//! wraps, like the PEs' fixed-width ALUs.
//!
//! Zero-copy entry points over PE memory live on [`crate::pe::Pe`]
//! (`read_i32s` / `write_i32s` / `read_sext` / `write_trunc`).

use crate::dtype::DType;

// Everything from here to the `reference` module runs once per PE per
// app iteration; simlint's hot-alloc lint keeps the region allocation-free.
// simlint: hot(begin, per-element kernels)

/// Decodes little-endian `i32`s from `src` into `dst`. Every codec panics
/// unless the byte slice holds exactly `elements * width` bytes.
pub fn decode_i32(src: &[u8], dst: &mut [i32]) {
    assert_eq!(src.len(), dst.len() * 4, "decode length mismatch");
    for (s, d) in src.chunks_exact(4).zip(dst) {
        *d = i32::from_le_bytes(s.try_into().unwrap());
    }
}

/// Encodes `src` into little-endian bytes in `dst`.
pub fn encode_i32(src: &[i32], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len() * 4, "encode length mismatch");
    for (s, d) in src.iter().zip(dst.chunks_exact_mut(4)) {
        d.copy_from_slice(&s.to_le_bytes());
    }
}

/// As [`decode_i32`], for `u32`.
pub fn decode_u32(src: &[u8], dst: &mut [u32]) {
    assert_eq!(src.len(), dst.len() * 4, "decode length mismatch");
    for (s, d) in src.chunks_exact(4).zip(dst) {
        *d = u32::from_le_bytes(s.try_into().unwrap());
    }
}

/// As [`encode_i32`], for `u32`.
pub fn encode_u32(src: &[u32], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len() * 4, "encode length mismatch");
    for (s, d) in src.iter().zip(dst.chunks_exact_mut(4)) {
        d.copy_from_slice(&s.to_le_bytes());
    }
}

/// As [`encode_i32`], for `u64` (8 bytes per element).
pub fn encode_u64(src: &[u64], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len() * 8, "encode length mismatch");
    for (s, d) in src.iter().zip(dst.chunks_exact_mut(8)) {
        d.copy_from_slice(&s.to_le_bytes());
    }
}

/// Sign-extending decode of 1/2/4-byte little-endian elements into `i32`
/// — the typed view the GNN uses for its word-bit sensitivity study
/// (narrow elements behave like fixed-width PE registers). Panics if
/// `dtype` is wider than 4 bytes or the lengths disagree.
pub fn decode_sext(dtype: DType, src: &[u8], dst: &mut [i32]) {
    match dtype.size_bytes() {
        1 => {
            assert_eq!(src.len(), dst.len(), "decode length mismatch");
            for (s, d) in src.iter().zip(dst) {
                *d = *s as i8 as i32;
            }
        }
        2 => {
            assert_eq!(src.len(), dst.len() * 2, "decode length mismatch");
            for (s, d) in src.chunks_exact(2).zip(dst) {
                *d = i16::from_le_bytes([s[0], s[1]]) as i32;
            }
        }
        4 => decode_i32(src, dst),
        w => panic!("decode_sext supports 1/2/4-byte elements, got {w}"),
    }
}

/// Truncating encode of `i32` values to 1/2/4-byte little-endian elements
/// (the low bytes, exactly what storing through a narrow PE register
/// would keep). Inverse of [`decode_sext`] for values that fit the width.
/// Panics if `dtype` is wider than 4 bytes or the lengths disagree.
pub fn encode_trunc(dtype: DType, src: &[i32], dst: &mut [u8]) {
    match dtype.size_bytes() {
        1 => {
            assert_eq!(dst.len(), src.len(), "encode length mismatch");
            for (s, d) in src.iter().zip(dst) {
                *d = *s as u8;
            }
        }
        2 => {
            assert_eq!(dst.len(), src.len() * 2, "encode length mismatch");
            for (s, d) in src.iter().zip(dst.chunks_exact_mut(2)) {
                d.copy_from_slice(&(*s as i16).to_le_bytes());
            }
        }
        4 => encode_i32(src, dst),
        w => panic!("encode_trunc supports 1/2/4-byte elements, got {w}"),
    }
}

/// Wrapping partial-vector accumulate fused with the little-endian decode
/// of the column: `acc[i] += x * le_i32(src[4i..])`. This is the MLP
/// inner loop run directly over the weight column bytes staged in PE
/// MRAM — no intermediate decode buffer. Panics unless
/// `src.len() == acc.len() * 4`.
pub fn axpy_i32_bytes(acc: &mut [i32], x: i32, src: &[u8]) {
    assert_eq!(src.len(), acc.len() * 4, "axpy length mismatch");
    for (a, s) in acc.iter_mut().zip(src.chunks_exact(4)) {
        let v = i32::from_le_bytes(s.try_into().unwrap());
        *a = a.wrapping_add(x.wrapping_mul(v));
    }
}

/// Wraps `v` to its low `width` bytes, sign-extended — the fixed-width PE
/// register semantics of the GNN's narrow-element arithmetic.
#[inline(always)]
fn wrap(v: i32, width: usize) -> i32 {
    match width {
        1 => v as i8 as i32,
        2 => v as i16 as i32,
        _ => v,
    }
}

/// Element-wise wrapping accumulate at the declared element width:
/// `acc[i] = wrap(acc[i] + src[i])` — the segment-sum step of the GNN
/// aggregation (`partial.row(u) += F.row(v)`). Panics if the lengths
/// differ or `dtype` is wider than 4 bytes.
pub fn add_wrap(dtype: DType, acc: &mut [i32], src: &[i32]) {
    assert_eq!(acc.len(), src.len(), "add_wrap length mismatch");
    let w = dtype.size_bytes();
    assert!(w <= 4, "add_wrap supports 1/2/4-byte elements, got {w}");
    for (a, s) in acc.iter_mut().zip(src) {
        *a = wrap(a.wrapping_add(*s), w);
    }
}

/// Wrapping multiply-accumulate at the declared element width:
/// `acc[i] = wrap(acc[i] + x * xs[i])` — one row step of the GNN
/// combination gemm. Panics like [`add_wrap`].
pub fn axpy_wrap(dtype: DType, acc: &mut [i32], x: i32, xs: &[i32]) {
    assert_eq!(acc.len(), xs.len(), "axpy_wrap length mismatch");
    let w = dtype.size_bytes();
    assert!(w <= 4, "axpy_wrap supports 1/2/4-byte elements, got {w}");
    for (a, s) in acc.iter_mut().zip(xs) {
        *a = wrap(a.wrapping_add(x.wrapping_mul(*s)), w);
    }
}

/// Element-wise ReLU in place: `xs[i] = max(xs[i], 0)`.
pub fn relu_i32(xs: &mut [i32]) {
    for x in xs {
        *x = (*x).max(0);
    }
}

/// Visits, in ascending order, every bit position set in `news` but not
/// in `olds` — the frontier-expansion scan of BFS (newly visited
/// vertices). Bit `v` lives at `bitmap[v / 8] & (1 << (v % 8))`, matching
/// the apps' layout. The bulk runs 64 bits at a time on `u64` words with
/// `trailing_zeros`, so a mostly-unchanged bitmap costs one compare per
/// word instead of one per bit. Panics if the slice lengths differ.
pub fn for_each_new_bit(news: &[u8], olds: &[u8], mut f: impl FnMut(usize)) {
    assert_eq!(news.len(), olds.len(), "bitmap length mismatch");
    let mut nb = news.chunks_exact(8);
    let mut ob = olds.chunks_exact(8);
    let mut base = 0usize;
    for (n, o) in nb.by_ref().zip(ob.by_ref()) {
        let mut diff =
            u64::from_le_bytes(n.try_into().unwrap()) & !u64::from_le_bytes(o.try_into().unwrap());
        while diff != 0 {
            f(base + diff.trailing_zeros() as usize);
            diff &= diff - 1;
        }
        base += 64;
    }
    for (i, (n, o)) in nb.remainder().iter().zip(ob.remainder()).enumerate() {
        let mut diff = n & !o;
        while diff != 0 {
            f(base + i * 8 + diff.trailing_zeros() as usize);
            diff &= diff.wrapping_sub(1);
        }
    }
}

/// Copies `rows` rows of `row_bytes` bytes from a strided layout in `src`
/// (consecutive rows `src_pitch` bytes apart, starting at `src_off`) to a
/// strided layout in `dst` — the typed scatter/gather between staged
/// row-major blocks and column-block-major collective payloads (the GNN
/// AllGather transpose). Each row is one `copy_from_slice`. Panics if a
/// pitch is smaller than the row or either layout overruns its slice.
#[allow(clippy::too_many_arguments)] // two (slice, offset, pitch) views + a row shape
pub fn copy_rows(
    dst: &mut [u8],
    dst_off: usize,
    dst_pitch: usize,
    src: &[u8],
    src_off: usize,
    src_pitch: usize,
    row_bytes: usize,
    rows: usize,
) {
    if rows == 0 || row_bytes == 0 {
        return;
    }
    assert!(
        dst_pitch >= row_bytes && src_pitch >= row_bytes,
        "row pitch smaller than the row"
    );
    assert!(
        src_off + (rows - 1) * src_pitch + row_bytes <= src.len(),
        "source rows overrun the slice"
    );
    assert!(
        dst_off + (rows - 1) * dst_pitch + row_bytes <= dst.len(),
        "destination rows overrun the slice"
    );
    for r in 0..rows {
        let s = src_off + r * src_pitch;
        let d = dst_off + r * dst_pitch;
        dst[d..d + row_bytes].copy_from_slice(&src[s..s + row_bytes]);
    }
}

// simlint: hot(end)

/// Independent formulations of the four kernels that have one. The
/// property suite pins each kernel to its oracle and `bench_json
/// --kernels` times the pair; production paths never call them.
pub mod reference {
    use crate::dtype::DType;

    /// Oracle of [`super::decode_sext`]: widen, then shift to sign-extend.
    pub fn decode_sext_scalar_ref(dtype: DType, src: &[u8], dst: &mut [i32]) {
        let w = dtype.size_bytes();
        assert!(w <= 4, "decode_sext supports 1/2/4-byte elements");
        assert_eq!(src.len(), dst.len() * w, "decode length mismatch");
        for (s, d) in src.chunks_exact(w).zip(dst) {
            let mut buf = [0u8; 4];
            buf[..w].copy_from_slice(s);
            let shift = 32 - 8 * w as u32;
            *d = (i32::from_le_bytes(buf) << shift) >> shift;
        }
    }

    /// Oracle of [`super::encode_trunc`]: the low bytes of the full word.
    pub fn encode_trunc_scalar_ref(dtype: DType, src: &[i32], dst: &mut [u8]) {
        let w = dtype.size_bytes();
        assert!(w <= 4, "encode_trunc supports 1/2/4-byte elements");
        assert_eq!(dst.len(), src.len() * w, "encode length mismatch");
        for (s, d) in src.iter().zip(dst.chunks_exact_mut(w)) {
            d.copy_from_slice(&s.to_le_bytes()[..w]);
        }
    }

    /// Oracle of [`super::for_each_new_bit`]: the bit-at-a-time scan.
    pub fn for_each_new_bit_scalar_ref(news: &[u8], olds: &[u8], mut f: impl FnMut(usize)) {
        assert_eq!(news.len(), olds.len(), "bitmap length mismatch");
        let get = |bm: &[u8], v: usize| bm[v / 8] & (1 << (v % 8)) != 0;
        for v in 0..news.len() * 8 {
            if get(news, v) && !get(olds, v) {
                f(v);
            }
        }
    }

    /// Oracle of [`super::copy_rows`]: byte-at-a-time row scatter/gather.
    #[allow(clippy::too_many_arguments)] // mirrors the kernel signature
    pub fn copy_rows_scalar_ref(
        dst: &mut [u8],
        dst_off: usize,
        dst_pitch: usize,
        src: &[u8],
        src_off: usize,
        src_pitch: usize,
        row_bytes: usize,
        rows: usize,
    ) {
        for r in 0..rows {
            for b in 0..row_bytes {
                dst[dst_off + r * dst_pitch + b] = src[src_off + r * src_pitch + b];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrip() {
        let vals: Vec<i32> = (0..37).map(|i| i * -3 + 5).collect();
        let mut bytes = vec![0u8; vals.len() * 4];
        encode_i32(&vals, &mut bytes);
        let mut back = vec![0i32; vals.len()];
        decode_i32(&bytes, &mut back);
        assert_eq!(back, vals);
    }

    #[test]
    fn sext_matches_fixed_width_semantics() {
        let bytes = [0xFFu8, 0x7F, 0x80, 0x01];
        let mut out = vec![0i32; 4];
        decode_sext(DType::I8, &bytes, &mut out);
        assert_eq!(out, vec![-1, 127, -128, 1]);
        let mut out = vec![0i32; 2];
        decode_sext(DType::I16, &bytes, &mut out);
        assert_eq!(out, vec![0x7FFF, 0x0180]);
    }

    #[test]
    fn axpy_accumulates_wrapping() {
        let mut acc = vec![i32::MAX, 1, 2];
        axpy_wrap(DType::I32, &mut acc, 2, &[1, 10, 100]);
        assert_eq!(acc, vec![i32::MIN + 1, 21, 202]);
    }

    #[test]
    fn add_wrap_wraps_at_the_element_width() {
        let mut acc = vec![127, -128, 5];
        add_wrap(DType::I8, &mut acc, &[1, -1, 1]);
        assert_eq!(acc, vec![-128, 127, 6]);
        let mut acc = vec![32767, -32768, 5];
        add_wrap(DType::I16, &mut acc, &[1, -1, 1]);
        assert_eq!(acc, vec![-32768, 32767, 6]);
        let mut acc = vec![100];
        axpy_wrap(DType::I8, &mut acc, 2, &[14]);
        assert_eq!(acc, vec![-128]);
    }

    #[test]
    fn new_bit_scan_matches_layout() {
        let news = [0b1010_0001u8, 0x00, 0x80];
        let olds = [0b0010_0000u8, 0x00, 0x00];
        let mut seen = Vec::new();
        for_each_new_bit(&news, &olds, |v| seen.push(v));
        assert_eq!(seen, vec![0, 7, 23]);
    }

    #[test]
    fn copy_rows_transposes_blocks() {
        // Two 2-byte rows interleaved into a 4-byte-pitch destination.
        let src = [1u8, 2, 3, 4];
        let mut dst = [0u8; 8];
        copy_rows(&mut dst, 2, 4, &src, 0, 2, 2, 2);
        assert_eq!(dst, [0, 0, 1, 2, 0, 0, 3, 4]);
    }
}

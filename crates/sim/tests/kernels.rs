//! Seeded property suite for `pim_sim::kernels`: every kernel that has an
//! independent formulation (`kernels::reference`) is pinned byte-for-byte
//! to it over deterministic splitmix64 inputs at empty, short, word-sized
//! and ragged lengths — plus the `Pe` typed-view entry points over
//! page-straddling MRAM regions.
//!
//! The single-form kernels (`decode_i32`, `add_wrap`, ...) are their own
//! reference; their unit tests sit next to them, and the apps' CPU
//! references check their semantics end to end.

use pim_sim::kernels::{self, reference as oracle};
use pim_sim::pe::{Pe, PAGE_BYTES};
use pim_sim::testgen::SplitMix64;
use pim_sim::DType;

/// Element counts covering: empty, single, short, powers of two ± 1 and
/// a long ragged run.
const LENS: [usize; 10] = [0, 1, 3, 8, 15, 16, 17, 64, 100, 257];

fn i32s(g: &mut SplitMix64, n: usize) -> Vec<i32> {
    (0..n).map(|_| g.next_u64() as i32).collect()
}

fn u32s(g: &mut SplitMix64, n: usize) -> Vec<u32> {
    (0..n).map(|_| g.next_u64() as u32).collect()
}

const NARROW: [DType; 3] = [DType::I8, DType::I16, DType::I32];

#[test]
fn narrow_codecs_match_scalar_oracles() {
    let mut g = SplitMix64::new(0x5ed7);
    for dt in NARROW {
        let w = dt.size_bytes();
        for n in LENS {
            let bytes = g.bytes(n * w);
            let mut fast = vec![0i32; n];
            let mut slow = vec![0i32; n];
            kernels::decode_sext(dt, &bytes, &mut fast);
            oracle::decode_sext_scalar_ref(dt, &bytes, &mut slow);
            assert_eq!(fast, slow, "decode_sext {dt} x{n}");

            // Truncating encode accepts arbitrary i32s (only the low
            // bytes survive), so feed it unwrapped values too.
            let vals = i32s(&mut g, n);
            let mut fast = vec![0u8; n * w];
            let mut slow = vec![0u8; n * w];
            kernels::encode_trunc(dt, &vals, &mut fast);
            oracle::encode_trunc_scalar_ref(dt, &vals, &mut slow);
            assert_eq!(fast, slow, "encode_trunc {dt} x{n}");

            // decode(encode(wrapped)) is the identity on wrapped values,
            // and encode(decode(bytes)) is the identity on bytes — the
            // property the GNN transpose's pure-byte `copy_rows` rewrite
            // rests on.
            let mut round = vec![0i32; n];
            kernels::decode_sext(dt, &fast, &mut round);
            let mut back = vec![0u8; n * w];
            kernels::encode_trunc(dt, &round, &mut back);
            assert_eq!(back, fast, "byte roundtrip {dt} x{n}");
        }
    }
}

#[test]
fn bitmap_kernels_match_scalar_oracles() {
    let mut g = SplitMix64::new(0xb17);
    // Byte lengths: ragged tails exercise the u64 word scan's remainder
    // path.
    for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 200, 1024] {
        let olds = g.bytes(n);
        let news: Vec<u8> = g.bytes(n).iter().zip(&olds).map(|(s, o)| s | o).collect();

        // New-bit scan: the merged bitmap vs the old one must visit the
        // same positions in the same ascending order as the per-bit scan.
        let mut got = Vec::new();
        let mut want = Vec::new();
        kernels::for_each_new_bit(&news, &olds, |v| got.push(v));
        oracle::for_each_new_bit_scalar_ref(&news, &olds, |v| want.push(v));
        assert_eq!(got, want, "for_each_new_bit x{n}");
        assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending order x{n}");
    }
}

#[test]
fn copy_rows_matches_scalar_oracle() {
    let mut g = SplitMix64::new(0xc0b);
    for (rows, row_bytes, src_pitch, dst_pitch, src_off, dst_off) in [
        (0usize, 8usize, 8usize, 8usize, 0usize, 0usize),
        (4, 0, 3, 5, 1, 2),
        (1, 5, 5, 5, 0, 3),
        (7, 12, 20, 12, 4, 0),   // gather: strided -> packed
        (7, 12, 12, 40, 0, 16),  // scatter: packed -> strided
        (16, 64, 96, 64, 32, 0), // block-sized rows
        (5, 17, 17, 33, 2, 1),   // ragged everything
    ] {
        let src = g.bytes(src_off + rows.saturating_sub(1) * src_pitch + row_bytes + 8);
        let dst0 = g.bytes(dst_off + rows.saturating_sub(1) * dst_pitch + row_bytes + 8);
        let mut fast = dst0.clone();
        let mut slow = dst0;
        kernels::copy_rows(
            &mut fast, dst_off, dst_pitch, &src, src_off, src_pitch, row_bytes, rows,
        );
        oracle::copy_rows_scalar_ref(
            &mut slow, dst_off, dst_pitch, &src, src_off, src_pitch, row_bytes, rows,
        );
        assert_eq!(fast, slow, "copy_rows {rows}x{row_bytes}");
    }
}

#[test]
fn pe_typed_views_roundtrip_across_page_boundaries() {
    let mut g = SplitMix64::new(0x9e9e);
    // Offsets placed so the typed runs straddle page boundaries, start
    // unaligned, and span previously-untouched MRAM.
    for offset in [
        0usize,
        4,
        60,
        PAGE_BYTES - 4,
        PAGE_BYTES - 100,
        3 * PAGE_BYTES - 8,
    ] {
        for n in [1usize, 16, 17, (PAGE_BYTES / 4) + 9] {
            let vals = i32s(&mut g, n);
            let mut pe = Pe::new();
            pe.write_i32s(offset, &vals);
            let mut back = vec![0i32; n];
            pe.read_i32s(offset, &mut back);
            assert_eq!(back, vals, "i32 roundtrip at {offset} x{n}");
            // The bytes in MRAM are the scalar encoding.
            let expect: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(pe.peek(offset, n * 4), expect, "bytes at {offset} x{n}");

            let uvals = u32s(&mut g, n);
            let mut pe = Pe::new();
            pe.write_u32s(offset, &uvals);
            let mut back = vec![0u32; n];
            pe.read_u32s(offset, &mut back);
            assert_eq!(back, uvals, "u32 roundtrip at {offset} x{n}");

            for dt in NARROW {
                let raw = i32s(&mut g, n);
                let mut pe = Pe::new();
                pe.write_trunc(offset, dt, &raw);
                let mut got = vec![0i32; n];
                pe.read_sext(offset, dt, &mut got);
                let mut bytes = vec![0u8; n * dt.size_bytes()];
                oracle::encode_trunc_scalar_ref(dt, &raw, &mut bytes);
                let mut want = vec![0i32; n];
                oracle::decode_sext_scalar_ref(dt, &bytes, &mut want);
                assert_eq!(got, want, "{dt} view at {offset} x{n}");
            }
        }
    }
}

#[test]
fn pe_typed_reads_of_untouched_mram_are_zero() {
    let mut pe = Pe::new();
    // A read that spans one materialized island and the gaps around it.
    pe.write_i32s(PAGE_BYTES, &[7, -7]);
    let mut out = vec![1i32; 16];
    pe.read_i32s(PAGE_BYTES - 16, &mut out);
    let mut want = vec![0i32; 16];
    want[4] = 7;
    want[5] = -7;
    assert_eq!(out, want);
}

//! Property tests of the two-tier evaluation model: the baked deployment
//! engines (`nn_lut::core::engine`) must be **bit-identical** to their
//! reference counterparts at all three precisions, for every input —
//! random, NaN, ±infinity, out-of-domain, and breakpoint-exact values —
//! and the batch kernels must match the scalar loops bit for bit.

use nn_lut::core::engine::{BakedF16Lut, BakedInt32Lut, BakedLut};
use nn_lut::core::lut::{LookupTable, Segment};
use nn_lut::core::precision::{input_scale_for_domain, F16Lut, Int32Lut, Precision};
use nn_lut::core::train::TrainConfig;
use nn_lut::core::NnLutKit;
use proptest::prelude::*;

/// Random valid tables, occasionally containing coincident breakpoints
/// (every element contributes one breakpoint + one segment; a small dup
/// tag duplicates both, and one trailing segment keeps the Eq. 4
/// invariant `segments = breakpoints + 1`).
fn arb_table() -> impl Strategy<Value = LookupTable> {
    (
        proptest::collection::vec(
            (-50.0f32..50.0, -8.0f32..8.0, -20.0f32..20.0, 0u8..8),
            0..16,
        ),
        (-8.0f32..8.0, -20.0f32..20.0),
    )
        .prop_map(|(elems, last)| {
            let mut bps = Vec::new();
            let mut segs = Vec::new();
            for (d, s, t, dup) in elems {
                bps.push(d);
                segs.push(Segment::new(s, t));
                if dup == 0 {
                    bps.push(d);
                    segs.push(Segment::new(t * 0.25, s));
                }
            }
            bps.sort_by(f32::total_cmp);
            segs.push(Segment::new(last.0, last.1));
            LookupTable::new(bps, segs).expect("constructed table is valid")
        })
}

fn next_up(x: f32) -> f32 {
    f32::from_bits(if x >= 0.0 {
        x.to_bits() + 1
    } else {
        x.to_bits() - 1
    })
}

fn next_down(x: f32) -> f32 {
    f32::from_bits(if x > 0.0 {
        x.to_bits() - 1
    } else {
        x.to_bits() + 1
    })
}

/// Random probes plus every adversarial input class: specials, huge
/// out-of-domain magnitudes, and breakpoint-exact / ±1-ulp values.
fn probes(lut: &LookupTable, random: Vec<f32>) -> Vec<f32> {
    let mut xs = random;
    xs.extend([
        f32::NAN,
        // Payload-carrying NaNs (quiet with low bits set, negative,
        // signaling-pattern): the grid cell map must send every one of
        // them to segment 0, exactly like `partition_point`.
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0x7fc0_3fff),
        f32::from_bits(0xffc0_0001),
        f32::from_bits(0x7f80_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN,
        -0.0,
        0.0,
        1e30,
        -1e30,
        1e-38,
    ]);
    for &d in lut.breakpoints() {
        xs.extend([d, next_up(d), next_down(d)]);
    }
    xs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// FP32: baked segment index and evaluation equal the reference table
    /// everywhere, bit for bit.
    #[test]
    fn baked_f32_is_bit_identical(
        lut in arb_table(),
        random in proptest::collection::vec(-200.0f32..200.0, 1..64),
    ) {
        let baked = BakedLut::new(lut.clone());
        for x in probes(&lut, random) {
            prop_assert_eq!(
                baked.segment_index(x),
                lut.segment_index(x),
                "segment index diverged at {}", x
            );
            prop_assert_eq!(
                baked.eval(x).to_bits(),
                lut.eval(x).to_bits(),
                "eval diverged at {}", x
            );
        }
    }

    /// The in-place batch kernel produces exactly the scalar results.
    #[test]
    fn batch_kernels_match_scalar_loops(
        lut in arb_table(),
        random in proptest::collection::vec(-200.0f32..200.0, 1..200),
    ) {
        let baked = BakedLut::new(lut.clone());
        let xs = probes(&lut, random);
        let want: Vec<u32> = xs.iter().map(|&x| lut.eval(x).to_bits()).collect();

        let mut in_place = xs.clone();
        baked.eval_slice(&mut in_place);
        for (i, (&got, &w)) in in_place.iter().zip(&want).enumerate() {
            prop_assert_eq!(got.to_bits(), w, "eval_slice diverged at {}", xs[i]);
        }
    }

    /// SIMD dispatch: whichever route the bake chose (the AVX2 register
    /// kernel for ≤ 16 segments on an AVX2 host, the scalar oracle
    /// otherwise — [`nn_lut::core::engine::simd::detect`]), `eval_slice`
    /// must equal the scalar oracle `eval_slice_scalar` **bit for bit**
    /// on every input class — NaN payloads, infinities, breakpoint-exact
    /// and ±1-ulp values, duplicate-breakpoint tables (which force the
    /// general scan layout) — and on every tail length, so the
    /// non-multiple-of-lane-width remainder handling is covered too.
    /// With `--no-default-features` this degenerates to scalar-vs-scalar
    /// and stays trivially green; the CI `simd` legs are where it bites.
    #[test]
    fn simd_dispatch_is_bit_identical_to_scalar_oracle(
        lut in arb_table(),
        random in proptest::collection::vec(-200.0f32..200.0, 1..200),
    ) {
        let baked = BakedLut::new(lut.clone());
        prop_assert_eq!(baked.simd_level(), nn_lut::core::engine::simd::detect());
        let xs = probes(&lut, random);
        // Cut the batch to assorted lengths: exercises full 8-lane AVX2
        // blocks and every scalar-tail remainder 0..=7 as the random
        // length varies.
        for cut in [0usize, 1, 2, 3, 5, 7, 8, 13] {
            if cut > xs.len() {
                break;
            }
            let slice = &xs[..xs.len() - cut];
            let mut fast = slice.to_vec();
            let mut oracle = slice.to_vec();
            baked.eval_slice(&mut fast);
            baked.eval_slice_scalar(&mut oracle);
            for (i, (&f, &o)) in fast.iter().zip(&oracle).enumerate() {
                prop_assert_eq!(
                    f.to_bits(),
                    o.to_bits(),
                    "SIMD kernel ({:?}) diverged from scalar oracle at x = {} (len {})",
                    baked.simd_level(), slice[i], slice.len()
                );
            }
        }
    }

    /// FP16: the baked half-precision engine equals `F16Lut::eval` bit for
    /// bit (same rounding at every step, same segment select).
    #[test]
    fn baked_f16_is_bit_identical(
        lut in arb_table(),
        random in proptest::collection::vec(-200.0f32..200.0, 1..64),
    ) {
        let reference = F16Lut::from_lut(&lut).expect("params fit binary16");
        let baked = BakedF16Lut::new(reference.clone());
        for x in probes(&lut, random) {
            prop_assert_eq!(
                baked.eval(x).to_bits(),
                reference.eval(x).to_bits(),
                "f16 eval diverged at {}", x
            );
        }
        let xs = probes(&lut, vec![]);
        let mut batch = xs.clone();
        baked.eval_slice(&mut batch);
        for (&x, &got) in xs.iter().zip(&batch) {
            prop_assert_eq!(
                got.to_bits(),
                reference.eval(x).to_bits(),
                "f16 eval_slice diverged at {}", x
            );
        }
    }

    /// INT32: the baked integer engine equals `Int32Lut` bit for bit in
    /// both the real and the pre-quantized integer domain.
    #[test]
    fn baked_int32_is_bit_identical(
        lut in arb_table(),
        random in proptest::collection::vec(-200.0f32..200.0, 1..64),
        q_probes in proptest::collection::vec(-200_000i64..200_000, 1..32),
    ) {
        let reference = Int32Lut::from_lut(&lut, input_scale_for_domain((-60.0, 60.0)));
        let baked = BakedInt32Lut::new(reference.clone());
        for x in probes(&lut, random) {
            prop_assert_eq!(
                baked.eval(x).to_bits(),
                reference.eval(x).to_bits(),
                "int32 eval diverged at {}", x
            );
        }
        for q in q_probes {
            let q = q as i32;
            prop_assert_eq!(
                baked.eval_quantized(q),
                reference.eval_quantized(q),
                "int32 quantized eval diverged at {}", q
            );
        }
        for q in [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX] {
            prop_assert_eq!(
                baked.eval_quantized(q),
                reference.eval_quantized(q),
                "int32 extreme quantized eval diverged at {}", q
            );
        }
        let xs = probes(&lut, vec![]);
        let mut batch = xs.clone();
        baked.eval_slice(&mut batch);
        for (&x, &got) in xs.iter().zip(&batch) {
            prop_assert_eq!(
                got.to_bits(),
                reference.eval(x).to_bits(),
                "int32 eval_slice diverged at {}", x
            );
        }
    }
}

/// A trained kit's deployed ops run on baked engines; the kit's public
/// scalar ops must therefore match the reference tables at each precision.
#[test]
fn kit_ops_match_reference_tables_at_all_precisions() {
    let kit = NnLutKit::train_with(16, 2024, &TrainConfig::fast());
    let probe: Vec<f32> = (-80..=80).map(|i| i as f32 * 0.11).collect();

    // FP32: kit GELU is exactly the master GELU table.
    let master = kit.tables().gelu.clone();
    for &x in &probe {
        assert_eq!(
            kit.gelu(x).to_bits(),
            master.eval(x).to_bits(),
            "fp32 at {x}"
        );
    }

    // FP16 / INT32: kit GELU equals the reference reduced-precision table.
    let f16_kit = kit.with_precision(Precision::F16).unwrap();
    let f16_ref = F16Lut::from_lut(&master).unwrap();
    for &x in &probe {
        assert_eq!(
            f16_kit.gelu(x).to_bits(),
            f16_ref.eval(x).to_bits(),
            "fp16 at {x}"
        );
    }

    let i32_kit = kit.with_precision(Precision::Int32).unwrap();
    let i32_ref = Int32Lut::from_lut(
        &master,
        input_scale_for_domain(nn_lut::core::funcs::TargetFunction::Gelu.domain()),
    );
    for &x in &probe {
        assert_eq!(
            i32_kit.gelu(x).to_bits(),
            i32_ref.eval(x).to_bits(),
            "int32 at {x}"
        );
    }

    // Batch entry point agrees with the scalar one.
    let mut batch = probe.clone();
    kit.gelu_slice(&mut batch);
    for (&x, &got) in probe.iter().zip(&batch) {
        assert_eq!(got.to_bits(), kit.gelu(x).to_bits(), "batch at {x}");
    }
}

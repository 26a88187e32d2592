//! Drop-in non-linear operation kit (paper §4.3).
//!
//! The paper replaces **all** the non-linear operations of a BERT model with
//! a single piece of LUT hardware whose *contents* change per operation:
//!
//! * GELU — one GELU-trained LUT lookup per element;
//! * Softmax — max-subtract (comparator), EXP LUT per element, exact sum
//!   (MAC array), one DIV LUT lookup of the denominator, multiply;
//! * LayerNorm — exact mean/variance (MAC array), one 1/SQRT LUT lookup with
//!   §3.3.2 input scaling, multiply.
//!
//! [`NnLutKit`] bundles the four Table-1 LUTs behind exactly that dataflow.
//! The same type also hosts the **Linear-LUT baseline**
//! ([`NnLutKit::linear_baseline`]): identical hardware, different table
//! contents — which is precisely the comparison of the paper's Table 2.

use crate::convert::nn_to_lut;
use crate::engine::{BakedF16Lut, BakedInt32Lut, BakedLut};
use crate::error::CoreError;
use crate::funcs::TargetFunction;
use crate::linear_lut::{BreakpointMode, LinearLutBuilder};
use crate::lut::LookupTable;
use crate::nn::ApproxNet;
use crate::precision::{f16_round, input_scale_for_domain, F16Lut, Int32Lut, Precision};
use crate::recipe::{recipe_for, train_recipe, Recipe};
use crate::scaling::eval_with_input_scaling;
use crate::train::TrainConfig;

/// A lookup table deployed at one of the paper's three precisions.
///
/// Each variant caches the *baked* evaluation engine
/// (see [`crate::engine`]) — kits bake once at assembly and every lookup
/// afterwards runs the branchless grid-indexed kernel, bit-identical to
/// the reference table at the same precision.
#[derive(Debug, Clone, PartialEq)]
pub enum LutOp {
    /// Plain FP32 table.
    F32(BakedLut),
    /// Binary16 table (constants and MAC rounded to half precision).
    F16(BakedF16Lut),
    /// I-BERT-style integer table.
    Int32(BakedInt32Lut),
}

impl LutOp {
    /// Evaluates the table at `x`.
    #[inline]
    pub fn eval(&self, x: f32) -> f32 {
        match self {
            LutOp::F32(l) => l.eval(x),
            LutOp::F16(l) => l.eval(x),
            LutOp::Int32(l) => l.eval(x),
        }
    }

    /// Evaluates the table over a whole slice in place (batch kernel).
    pub fn eval_slice(&self, xs: &mut [f32]) {
        match self {
            LutOp::F32(l) => l.eval_slice(xs),
            LutOp::F16(l) => l.eval_slice(xs),
            LutOp::Int32(l) => l.eval_slice(xs),
        }
    }

    /// The deployment precision of this op.
    pub fn precision(&self) -> Precision {
        match self {
            LutOp::F32(_) => Precision::F32,
            LutOp::F16(_) => Precision::F16,
            LutOp::Int32(_) => Precision::Int32,
        }
    }
}

/// The four FP32 master tables of a kit plus the 1/SQRT training domain.
#[derive(Debug, Clone, PartialEq)]
pub struct KitTables {
    /// GELU table (domain (−5, 5)).
    pub gelu: LookupTable,
    /// exp table (domain (−256, 0)).
    pub exp: LookupTable,
    /// 1/x table (domain (1, 1024)).
    pub recip: LookupTable,
    /// 1/√x table (trained on `rsqrt_domain`, deployed with input scaling).
    pub rsqrt: LookupTable,
    /// The 1/√x training domain (paper §3.3.2: (1, K)).
    pub rsqrt_domain: (f32, f32),
}

/// The complete non-linear operation kit: GELU + Softmax + LayerNorm from a
/// single LUT primitive.
///
/// # Examples
///
/// ```
/// use nnlut_core::NnLutKit;
/// use nnlut_core::train::TrainConfig;
///
/// let kit = NnLutKit::train_with(16, 42, &TrainConfig::fast());
/// let mut row = vec![1.0f32, 2.0, 3.0];
/// kit.softmax(&mut row);
/// let sum: f32 = row.iter().sum();
/// assert!((sum - 1.0).abs() < 0.05);
/// assert!(row[2] > row[1] && row[1] > row[0]);
/// ```
#[derive(Debug, Clone)]
pub struct NnLutKit {
    tables: KitTables,
    nets: Option<KitNets>,
    precision: Precision,
    shift_bits: u32,
    gelu_op: LutOp,
    exp_op: LutOp,
    recip_op: LutOp,
    rsqrt_op: LutOp,
}

/// The trained approximator networks behind a kit (absent for the
/// Linear-LUT baseline, which is curve-fit rather than trained).
#[derive(Debug, Clone, PartialEq)]
struct KitNets {
    gelu: ApproxNet,
    exp: ApproxNet,
    recip: ApproxNet,
    rsqrt: ApproxNet,
}

/// The 1/√x LUT is trained on (1, K) with K = 1024 and deployed behind a
/// 2^10 input scaler (paper §3.3.2).
const RSQRT_DOMAIN: (f32, f32) = (1.0, 1024.0);
const SHIFT_BITS: u32 = 10;

impl NnLutKit {
    /// Trains all four Table-1 approximators with the paper's full
    /// configuration and packages them as an FP32 kit.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2`.
    pub fn train(entries: usize, seed: u64) -> Self {
        Self::train_with(entries, seed, &TrainConfig::paper())
    }

    /// Trains with a custom [`TrainConfig`] (tests use [`TrainConfig::fast`]).
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2`.
    pub fn train_with(entries: usize, seed: u64, cfg: &TrainConfig) -> Self {
        Self::train_impl(entries, seed, cfg, None)
    }

    /// Trains with every recipe's input-sampling mode overridden.
    ///
    /// Passing [`crate::train::SamplingMode::Uniform`] reproduces the
    /// paper's literal §3.3.1 recipe, whose knee regions are weakly
    /// trained — the configuration in which §3.3.3 calibration has the
    /// most to repair (see the AB-CAL ablation bench).
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2`.
    pub fn train_with_sampling(
        entries: usize,
        seed: u64,
        cfg: &TrainConfig,
        sampling: crate::train::SamplingMode,
    ) -> Self {
        Self::train_impl(entries, seed, cfg, Some(sampling))
    }

    fn train_impl(
        entries: usize,
        seed: u64,
        cfg: &TrainConfig,
        sampling: Option<crate::train::SamplingMode>,
    ) -> Self {
        let make_recipe = |func: TargetFunction| {
            let mut r = recipe_for(func);
            if let Some(s) = sampling {
                r.sampling = s;
            }
            r
        };
        let train_one =
            |recipe: &Recipe, salt: u64| train_recipe(recipe, entries, cfg, seed ^ salt).0;
        let gelu = train_one(&make_recipe(TargetFunction::Gelu), 0x01);
        let exp = train_one(&make_recipe(TargetFunction::Exp), 0x02);
        let recip = train_one(&make_recipe(TargetFunction::Recip), 0x03);
        let rsqrt = {
            let recipe = Recipe {
                domain: RSQRT_DOMAIN,
                ..make_recipe(TargetFunction::Rsqrt)
            };
            train_recipe(&recipe, entries, cfg, seed ^ 0x04).0
        };
        let tables = KitTables {
            gelu: nn_to_lut(&gelu),
            exp: nn_to_lut(&exp),
            recip: nn_to_lut(&recip),
            rsqrt: nn_to_lut(&rsqrt),
            rsqrt_domain: RSQRT_DOMAIN,
        };
        let nets = Some(KitNets {
            gelu,
            exp,
            recip,
            rsqrt,
        });
        Self::assemble(tables, nets, Precision::F32)
            .expect("FP32 assembly of valid tables cannot fail")
    }

    /// Builds the **Linear-LUT baseline**: the same kit hardware loaded with
    /// equally-spaced-breakpoint, least-squares-fit table contents
    /// (paper §4.1 "Linear-LUT").
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2`.
    pub fn linear_baseline(entries: usize) -> Self {
        Self::linear_baseline_with_mode(entries, BreakpointMode::Linear)
    }

    /// Linear-LUT baseline with an explicit breakpoint mode (the AB-BP
    /// ablation compares Linear vs Exponential placement).
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2` (and, for exponential mode, if a domain is
    /// non-positive — only the GELU domain, which always uses linear mode).
    pub fn linear_baseline_with_mode(entries: usize, mode: BreakpointMode) -> Self {
        // GELU's domain spans zero, so exponential placement applies only to
        // the positive-domain tables (the paper's exponential mode is
        // defined for magnitude ranges).
        let fit = |func: TargetFunction, domain: (f32, f32), m: BreakpointMode| {
            LinearLutBuilder::new(entries, domain)
                .mode(m)
                .fit(|x| func.eval(x))
                .expect("baseline fit of a valid domain cannot fail")
        };
        let exp_mode = mode; // (−256, 0) is non-positive: fall back below.
        let exp_table = match exp_mode {
            BreakpointMode::Linear => fit(TargetFunction::Exp, (-256.0, 0.0), mode),
            BreakpointMode::Exponential => {
                // Mirror the domain: fit exp(−u) on u ∈ (0, 256) log-spaced,
                // then mirror breakpoints back.
                let lut = LinearLutBuilder::new(entries, (1e-3, 256.0))
                    .mode(BreakpointMode::Exponential)
                    .fit(|u| (-(u as f64)).exp() as f32)
                    .expect("mirrored exp fit");
                mirror_lut(&lut)
            }
        };
        let tables = KitTables {
            gelu: fit(TargetFunction::Gelu, (-5.0, 5.0), BreakpointMode::Linear),
            exp: exp_table,
            recip: fit(TargetFunction::Recip, (1.0, 1024.0), mode),
            rsqrt: fit(TargetFunction::Rsqrt, RSQRT_DOMAIN, mode),
            rsqrt_domain: RSQRT_DOMAIN,
        };
        Self::assemble(tables, None, Precision::F32)
            .expect("FP32 assembly of valid tables cannot fail")
    }

    fn assemble(
        tables: KitTables,
        nets: Option<KitNets>,
        precision: Precision,
    ) -> Result<Self, CoreError> {
        let make = |lut: &LookupTable, domain: (f32, f32)| -> Result<LutOp, CoreError> {
            Ok(match precision {
                Precision::F32 => LutOp::F32(BakedLut::new(lut.clone())),
                Precision::F16 => LutOp::F16(BakedF16Lut::new(F16Lut::from_lut(lut)?)),
                Precision::Int32 => LutOp::Int32(BakedInt32Lut::new(Int32Lut::from_lut(
                    lut,
                    input_scale_for_domain(domain),
                ))),
            })
        };
        let gelu_op = make(&tables.gelu, TargetFunction::Gelu.domain())?;
        let exp_op = make(&tables.exp, TargetFunction::Exp.domain())?;
        let recip_op = make(&tables.recip, TargetFunction::Recip.domain())?;
        let rsqrt_op = make(&tables.rsqrt, tables.rsqrt_domain)?;
        Ok(Self {
            tables,
            nets,
            precision,
            shift_bits: SHIFT_BITS,
            gelu_op,
            exp_op,
            recip_op,
            rsqrt_op,
        })
    }

    /// Re-deploys the same master tables at a different precision.
    ///
    /// # Errors
    ///
    /// FP16 conversion fails if a table constant overflows binary16.
    pub fn with_precision(&self, precision: Precision) -> Result<Self, CoreError> {
        Self::assemble(self.tables.clone(), self.nets.clone(), precision)
    }

    /// The deployment precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The FP32 master tables.
    pub fn tables(&self) -> &KitTables {
        &self.tables
    }

    /// LUT entry count.
    pub fn entries(&self) -> usize {
        self.tables.gelu.entries()
    }

    /// GELU via one LUT lookup.
    pub fn gelu(&self, x: f32) -> f32 {
        self.gelu_op.eval(x)
    }

    /// In-place GELU over a slice (batch kernel).
    pub fn gelu_slice(&self, xs: &mut [f32]) {
        self.gelu_op.eval_slice(xs);
    }

    /// `exp(x)` via the EXP LUT, clamped to be non-negative (a free output
    /// ReLU in hardware; the LUT can dip fractionally below zero in its
    /// flat tail).
    pub fn exp(&self, x: f32) -> f32 {
        self.exp_op.eval(x).max(0.0)
    }

    /// `1/x` via the DIV LUT.
    pub fn recip(&self, x: f32) -> f32 {
        self.recip_op.eval(x)
    }

    /// `1/√x` via the 1/SQRT LUT behind the §3.3.2 power-of-two input
    /// scaler: works for any positive `x`, not just the trained (1, K).
    pub fn inv_sqrt(&self, x: f32) -> f32 {
        if x <= 0.0 {
            return f32::INFINITY;
        }
        eval_with_input_scaling(
            |v| self.rsqrt_op.eval(v),
            self.tables.rsqrt_domain,
            (1u64 << self.shift_bits) as f32,
            x,
        )
    }

    /// In-place Softmax over one row: exact max-subtract, one batched
    /// EXP-LUT pass, exact sum, one DIV LUT lookup, one scale pass.
    pub fn softmax(&self, xs: &mut [f32]) {
        if xs.is_empty() {
            return;
        }
        let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for x in xs.iter_mut() {
            *x -= max;
        }
        self.exp_op.eval_slice(xs);
        let mut sum = 0.0f32;
        for x in xs.iter_mut() {
            *x = x.max(0.0);
            sum += *x;
        }
        let inv = self.recip(sum).max(0.0);
        self.scale_slice(xs, inv);
    }

    /// In-place LayerNorm over one row (no affine): exact mean/variance,
    /// 1/SQRT LUT for the reciprocal standard deviation.
    ///
    /// Returns the variance that was fed to the LUT, so callers can capture
    /// it for §3.3.3 calibration.
    pub fn layer_norm(&self, xs: &mut [f32], eps: f32) -> f32 {
        if xs.is_empty() {
            return 0.0;
        }
        let n = xs.len() as f32;
        let mean = xs.iter().sum::<f32>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
        let inv_std = self.inv_sqrt(var + eps);
        for x in xs.iter_mut() {
            *x -= mean;
        }
        self.scale_slice(xs, inv_std);
        var + eps
    }

    /// Fused in-place LayerNorm **with affine** over one row — bit for
    /// bit the result of [`NnLutKit::layer_norm`] followed by the
    /// elementwise `x·γ + β` the transformer backend applies, in fewer
    /// row passes.
    ///
    /// The unfused sequence needs three read-write sweeps after the two
    /// statistics passes (subtract mean, scale by 1/σ, affine); here they
    /// collapse into one sweep whose per-element op chain —
    /// `((x − mean) · inv_std) · γ + β`, with the kit's precision
    /// semantics on the first two steps — is the unfused chain verbatim,
    /// so every intermediate rounds identically. Five row passes become
    /// three.
    ///
    /// Returns the variance fed to the 1/SQRT LUT (`var + eps`), exactly
    /// like [`NnLutKit::layer_norm`], so calibration capture can use
    /// either entry point.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` or `beta` length differs from `xs`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nnlut_core::NnLutKit;
    ///
    /// let kit = NnLutKit::linear_baseline(16);
    /// let row = [1.0f32, 4.0, -2.5, 0.5];
    /// let gamma = [1.1f32, 0.9, 1.0, 1.2];
    /// let beta = [0.0f32, -0.1, 0.2, 0.0];
    /// let mut fused = row.to_vec();
    /// let fed = kit.layer_norm_fused_affine(&mut fused, 1e-5, &gamma, &beta);
    ///
    /// let mut unfused = row.to_vec();
    /// assert_eq!(fed, kit.layer_norm(&mut unfused, 1e-5));
    /// for ((u, &g), &b) in unfused.iter_mut().zip(&gamma).zip(&beta) {
    ///     *u = *u * g + b;
    /// }
    /// for (f, u) in fused.iter().zip(&unfused) {
    ///     assert_eq!(f.to_bits(), u.to_bits());
    /// }
    /// ```
    pub fn layer_norm_fused_affine(
        &self,
        xs: &mut [f32],
        eps: f32,
        gamma: &[f32],
        beta: &[f32],
    ) -> f32 {
        assert_eq!(xs.len(), gamma.len(), "gamma length mismatch");
        assert_eq!(xs.len(), beta.len(), "beta length mismatch");
        if xs.is_empty() {
            return 0.0;
        }
        let n = xs.len() as f32;
        let mean = xs.iter().sum::<f32>() / n;
        // Two-pass Σ(x − mean)², NOT Σx² − mean²: reassociating the
        // variance would change its bits and, through the 1/SQRT LUT,
        // every output bit.
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
        let inv_std = self.inv_sqrt(var + eps);
        match self.precision {
            Precision::F16 => {
                // The unfused chain is: subtract, then `scale_slice`'s
                // f16-rounded multiply, then the backend's plain-f32
                // affine. Reproduced verbatim.
                let f16_factor = f16_round(inv_std);
                for ((x, &g), &b) in xs.iter_mut().zip(gamma).zip(beta) {
                    *x = f16_round(f16_round(*x - mean) * f16_factor) * g + b;
                }
            }
            _ => {
                for ((x, &g), &b) in xs.iter_mut().zip(gamma).zip(beta) {
                    *x = (*x - mean) * inv_std * g + b;
                }
            }
        }
        var + eps
    }

    /// Re-calibrates one of the kit's approximators on captured activation
    /// inputs and re-converts it to LUT form (paper §3.3.3). The paper
    /// calibrates the LayerNorm op, i.e. `func = Rsqrt`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoCalibrationSamples`] if the kit was built as a
    ///   Linear-LUT baseline (no networks to calibrate) or `captured` is
    ///   empty.
    pub fn calibrate(
        &mut self,
        func: TargetFunction,
        captured: &[f32],
        cfg: &crate::calibrate::CalibrationConfig,
        seed: u64,
    ) -> Result<(), CoreError> {
        let rsqrt_domain = self.tables.rsqrt_domain;
        let shift_bits = self.shift_bits;
        let nets = self.nets.as_mut().ok_or(CoreError::NoCalibrationSamples)?;
        let (net, domain) = match func {
            TargetFunction::Gelu => (&mut nets.gelu, TargetFunction::Gelu.domain()),
            TargetFunction::Exp => (&mut nets.exp, TargetFunction::Exp.domain()),
            TargetFunction::Recip => (&mut nets.recip, TargetFunction::Recip.domain()),
            TargetFunction::Rsqrt => (&mut nets.rsqrt, rsqrt_domain),
            _ => return Err(CoreError::NoCalibrationSamples),
        };
        // The 1/SQRT LUT sits behind the input scaler: fold each captured
        // raw variance to the operand the LUT actually receives, so the
        // regression matches the deployed distribution.
        let folded: Vec<f32>;
        let samples: &[f32] = if func == TargetFunction::Rsqrt {
            let s = (1u64 << shift_bits) as f32;
            folded = captured
                .iter()
                .filter(|x| **x > 0.0)
                .map(|&x| crate::scaling::fold_into_domain(rsqrt_domain, s, x).0)
                .collect();
            &folded
        } else {
            captured
        };
        let updated =
            crate::calibrate::calibrate(net, |x| func.eval(x), domain, samples, cfg, seed)?;
        let lut = nn_to_lut(&updated);
        *net = updated;
        match func {
            TargetFunction::Gelu => self.tables.gelu = lut,
            TargetFunction::Exp => self.tables.exp = lut,
            TargetFunction::Recip => self.tables.recip = lut,
            TargetFunction::Rsqrt => self.tables.rsqrt = lut,
            _ => unreachable!(),
        }
        // Re-derive the deployed ops at the current precision.
        *self = Self::assemble(self.tables.clone(), self.nets.clone(), self.precision)?;
        Ok(())
    }

    /// Whole-slice multiplication with the kit's precision semantics
    /// (FP16 rounds input, factor and product; FP32/INT32 multiply in
    /// FP32 — the INT32 unit re-quantizes at the next matmul boundary).
    /// The precision branch is hoisted out of the loop so the common
    /// FP32/INT32 path is a plain vectorizable scale.
    fn scale_slice(&self, xs: &mut [f32], factor: f32) {
        match self.precision {
            Precision::F16 => {
                let f16_factor = f16_round(factor);
                for x in xs {
                    *x = f16_round(f16_round(*x) * f16_factor);
                }
            }
            _ => {
                for x in xs {
                    *x *= factor;
                }
            }
        }
    }
}

/// Mirrors a LUT through x → −x (used to realize exponential-mode
/// breakpoints on the negative exp domain).
fn mirror_lut(lut: &LookupTable) -> LookupTable {
    let mut breakpoints: Vec<f32> = lut.breakpoints().iter().map(|&d| -d).collect();
    breakpoints.reverse();
    let mut segments: Vec<crate::lut::Segment> = lut
        .segments()
        .iter()
        .map(|s| crate::lut::Segment::new(-s.slope, s.intercept))
        .collect();
    segments.reverse();
    LookupTable::new(breakpoints, segments).expect("mirroring preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_kit() -> NnLutKit {
        // Seed picked for a fast-config kit whose DIV table is accurate
        // near the softmax denominators these tests produce; fast-config
        // quality is seed-sensitive, and the vendored offline RNG draws a
        // different stream per seed than the crates.io StdRng.
        NnLutKit::train_with(16, 9, &TrainConfig::fast())
    }

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let kit = fast_kit();
        let mut row = vec![-1.0f32, 0.0, 1.0, 3.0];
        kit.softmax(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 0.05, "softmax sum {sum}");
        for w in row.windows(2) {
            assert!(w[0] <= w[1] + 1e-3, "order violated: {row:?}");
        }
        assert!(row.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn softmax_matches_exact_closely() {
        let kit = fast_kit();
        let logits = vec![0.5f32, -2.0, 1.5, 0.0, -0.7, 2.2];
        let mut approx = logits.clone();
        kit.softmax(&mut approx);
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        for (a, e) in approx.iter().zip(exps.iter().map(|e| e / sum)) {
            // Fast-config kits are a bit looser than the paper config;
            // tests/approximation.rs checks the tight paper-config bound.
            assert!((a - e).abs() < 0.06, "approx {a} vs exact {e}");
        }
    }

    #[test]
    fn layer_norm_normalizes() {
        let kit = fast_kit();
        let mut xs: Vec<f32> = (0..64).map(|i| (i as f32) * 0.1 - 3.0).collect();
        let fed = kit.layer_norm(&mut xs, 1e-5);
        assert!(fed > 0.0);
        let mean: f32 = xs.iter().sum::<f32>() / xs.len() as f32;
        let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.05, "post-LN mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "post-LN variance {var}");
    }

    #[test]
    fn layer_norm_handles_tiny_variance_via_scaling() {
        let kit = fast_kit();
        // Variance ~1e-4 ≪ 1: only works thanks to §3.3.2 input scaling.
        let mut xs: Vec<f32> = (0..32).map(|i| 5.0 + (i as f32) * 0.001).collect();
        kit.layer_norm(&mut xs, 1e-9);
        let var: f32 = {
            let m: f32 = xs.iter().sum::<f32>() / xs.len() as f32;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / xs.len() as f32
        };
        assert!((var - 1.0).abs() < 0.2, "tiny-variance LN variance {var}");
    }

    #[test]
    fn gelu_slice_close_to_exact() {
        let kit = fast_kit();
        let mut xs: Vec<f32> = (-20..=20).map(|i| i as f32 * 0.25).collect();
        let exact: Vec<f32> = xs.iter().map(|&x| crate::funcs::gelu(x)).collect();
        kit.gelu_slice(&mut xs);
        for (a, e) in xs.iter().zip(&exact) {
            assert!((a - e).abs() < 0.05, "{a} vs {e}");
        }
    }

    #[test]
    fn precision_conversion_roundtrip_behaviour() {
        let kit = fast_kit();
        let f16 = kit.with_precision(Precision::F16).unwrap();
        let i32k = kit.with_precision(Precision::Int32).unwrap();
        assert_eq!(f16.precision(), Precision::F16);
        assert_eq!(i32k.precision(), Precision::Int32);
        for x in [-2.0f32, -0.5, 0.0, 0.5, 2.0] {
            let base = kit.gelu(x);
            assert!((f16.gelu(x) - base).abs() < 0.02, "f16 gelu at {x}");
            assert!((i32k.gelu(x) - base).abs() < 0.02, "int32 gelu at {x}");
        }
    }

    #[test]
    fn linear_baseline_shares_hardware_shape() {
        let kit = NnLutKit::linear_baseline(16);
        assert_eq!(kit.entries(), 16);
        assert!(kit.nets.is_none());
        // Same dataflow, but fixed breakpoints make the small-denominator
        // division poor — exactly the paper's Table 2(a) observation. The
        // output is still finite and order-preserving.
        let mut row = vec![0.0f32, 1.0];
        kit.softmax(&mut row);
        assert!(row.iter().all(|p| p.is_finite() && *p >= 0.0));
        assert!(row[1] >= row[0]);
        // The NN-LUT kit, by contrast, nails the same row.
        let kit = fast_kit();
        let mut row = vec![0.0f32, 1.0];
        kit.softmax(&mut row);
        assert!((row[0] + row[1] - 1.0).abs() < 0.05, "nn row {row:?}");
    }

    #[test]
    fn linear_baseline_rsqrt_is_worse_than_nn() {
        let nn = fast_kit();
        let lin = NnLutKit::linear_baseline(16);
        // Error where LayerNorm lives: small variances.
        let band = (1.0f32, 16.0f32);
        let err = |k: &NnLutKit| {
            crate::metrics::mean_abs_error(|x| k.inv_sqrt(x), |x| 1.0 / x.sqrt(), band, 2_000)
        };
        let e_nn = err(&nn);
        let e_lin = err(&lin);
        assert!(
            e_nn < e_lin,
            "NN-LUT rsqrt {e_nn} should beat Linear-LUT {e_lin}"
        );
    }

    #[test]
    fn calibrate_rsqrt_improves_band_error() {
        let mut kit = fast_kit();
        let band = (0.25f32, 4.0f32);
        let captured: Vec<f32> = (0..600)
            .map(|i| band.0 + (band.1 - band.0) * (i as f32 + 0.5) / 600.0)
            .collect();
        let before =
            crate::metrics::mean_abs_error(|x| kit.inv_sqrt(x), |x| 1.0 / x.sqrt(), band, 1_500);
        kit.calibrate(
            TargetFunction::Rsqrt,
            &captured,
            &crate::calibrate::CalibrationConfig::default(),
            9,
        )
        .unwrap();
        let after =
            crate::metrics::mean_abs_error(|x| kit.inv_sqrt(x), |x| 1.0 / x.sqrt(), band, 1_500);
        assert!(
            after <= before * 1.05,
            "calibration regressed band error {before} -> {after}"
        );
    }

    #[test]
    fn baseline_kit_refuses_calibration() {
        let mut kit = NnLutKit::linear_baseline(8);
        let err = kit
            .calibrate(
                TargetFunction::Rsqrt,
                &[1.0, 2.0],
                &crate::calibrate::CalibrationConfig::default(),
                0,
            )
            .unwrap_err();
        assert_eq!(err, CoreError::NoCalibrationSamples);
    }

    #[test]
    fn empty_rows_are_noops() {
        let kit = fast_kit();
        let mut empty: Vec<f32> = vec![];
        kit.softmax(&mut empty);
        kit.layer_norm(&mut empty, 1e-5);
        kit.layer_norm_fused_affine(&mut empty, 1e-5, &[], &[]);
        assert!(empty.is_empty());
    }

    /// Rows of assorted lengths, plus specials.
    fn fusion_rows() -> Vec<Vec<f32>> {
        let mut rows: Vec<Vec<f32>> = [1usize, 3, 63, 64, 65, 128, 200]
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|i| ((i as f32) * 0.37 - (n as f32) * 0.11).sin() * 4.0)
                    .collect()
            })
            .collect();
        rows.push(vec![f32::NEG_INFINITY, 0.0, 1.0, f32::NAN, 2.0]);
        rows
    }

    #[test]
    fn layer_norm_fused_affine_is_bit_identical_at_all_precisions() {
        let f32_kit = fast_kit();
        for kit in [
            f32_kit.with_precision(Precision::F16).unwrap(),
            f32_kit.with_precision(Precision::Int32).unwrap(),
            f32_kit,
        ] {
            for row in fusion_rows() {
                let n = row.len();
                let gamma: Vec<f32> = (0..n).map(|i| 0.8 + (i as f32) * 0.01).collect();
                let beta: Vec<f32> = (0..n).map(|i| (i as f32) * 0.02 - 0.3).collect();
                let mut fused = row.clone();
                let fed_fused = kit.layer_norm_fused_affine(&mut fused, 1e-5, &gamma, &beta);
                let mut unfused = row.clone();
                let fed_unfused = kit.layer_norm(&mut unfused, 1e-5);
                for ((u, &g), &b) in unfused.iter_mut().zip(&gamma).zip(&beta) {
                    *u = *u * g + b;
                }
                assert_eq!(fed_fused.to_bits(), fed_unfused.to_bits());
                for (i, (f, u)) in fused.iter().zip(&unfused).enumerate() {
                    assert_eq!(
                        f.to_bits(),
                        u.to_bits(),
                        "{:?} layer_norm diverged at index {i} of row len {n}",
                        kit.precision()
                    );
                }
            }
        }
    }
}

//! Offline training of approximator networks (paper §3.3.1, §4.1).
//!
//! The paper's hyper-parameters — "learning-rate = 0.001 (w/ multi-step),
//! ADAM optimizer, and L1-Loss", 100 K auto-generated samples — are the
//! defaults of [`TrainConfig::paper`]. Training happens in a **normalized
//! input space** `z = (x − lo)/(hi − lo) ∈ [0, 1]` so that one learning rate
//! works for every Table-1 domain (widths range from 10 to 1023); the
//! trained network is mapped back to raw coordinates with
//! [`crate::ApproxNet::denormalized`], which is exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::CoreError;
use crate::funcs::validate_domain;
use crate::nn::ApproxNet;

/// Training loss (paper §4.1: "L1 loss slightly outperforms the other
/// choices, partially due to modest penalization for the outliers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Loss {
    /// Mean absolute error (the paper's choice).
    #[default]
    L1,
    /// Mean squared error (kept for the AB-LOSS ablation).
    L2,
}

/// How training inputs are drawn from the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SamplingMode {
    /// Uniform over the domain (the paper's choice: "we uniformly sample
    /// values within the range").
    #[default]
    Uniform,
    /// Log-uniform distance from the curvature-heavy edge — an extension
    /// that oversamples where `exp`, `1/x`, `1/√x` actually bend.
    LogUniform,
}

/// Hyper-parameters for approximator training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Epoch indices at which the learning rate is multiplied by `gamma`.
    pub milestones: Vec<usize>,
    /// Multi-step decay factor.
    pub gamma: f32,
    /// Number of generated training samples.
    pub samples: usize,
    /// Loss function.
    pub loss: Loss,
    /// Solve the convex readout (`m`, `c`) by regularized least squares on
    /// the initial hinge features before Adam starts. This is an extension
    /// over the paper's plain Adam recipe: it removes the slow linear phase
    /// of training without changing what is learned (Adam still moves every
    /// parameter, including the breakpoints).
    pub ls_init: bool,
}

impl TrainConfig {
    /// The paper's configuration: 100 K samples, Adam @ 1e-3, multi-step
    /// decay, L1 loss, uniform sampling.
    pub fn paper() -> Self {
        Self {
            epochs: 40,
            batch_size: 256,
            learning_rate: 1e-3,
            milestones: vec![24, 34],
            gamma: 0.1,
            samples: 100_000,
            loss: Loss::L1,
            ls_init: true,
        }
    }

    /// A reduced configuration for unit tests and doc examples (same
    /// algorithm, ~10× less work).
    pub fn fast() -> Self {
        Self {
            epochs: 14,
            batch_size: 256,
            learning_rate: 1e-3,
            milestones: vec![9, 12],
            gamma: 0.2,
            samples: 16_000,
            loss: Loss::L1,
            ls_init: true,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// A generated training set over a (normalized) input domain.
///
/// Inputs are stored in normalized coordinates `z ∈ [0, 1]`; targets are the
/// exact function values at the corresponding raw inputs.
#[derive(Debug, Clone)]
pub struct Dataset {
    zs: Vec<f32>,
    ys: Vec<f32>,
    lo: f32,
    hi: f32,
}

impl Dataset {
    /// Generates `n` samples of `func` over `domain` (paper: "the training
    /// dataset of NN-LUT can be automatically generated").
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDomain`] for a malformed domain.
    pub fn generate<F: Fn(f32) -> f32>(
        func: F,
        domain: (f32, f32),
        n: usize,
        mode: SamplingMode,
        curvature_at_hi: bool,
        seed: u64,
    ) -> Result<Self, CoreError> {
        validate_domain(domain)?;
        let (lo, hi) = domain;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut zs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            // Stratified draw: sample i covers slice i/n..(i+1)/n, keeping
            // coverage uniform even for small n.
            let u = (i as f32 + rng.gen::<f32>()) / n as f32;
            let z = match mode {
                SamplingMode::Uniform => u,
                SamplingMode::LogUniform => {
                    let d = 10f32.powf(-4.0 * (1.0 - u));
                    if curvature_at_hi {
                        1.0 - d
                    } else {
                        d
                    }
                }
            };
            let x = lo + (hi - lo) * z;
            zs.push(z);
            ys.push(func(x));
        }
        Ok(Self { zs, ys, lo, hi })
    }

    /// Builds a dataset from raw-space inputs (used by calibration, where
    /// the inputs are captured activations rather than generated samples).
    /// Inputs are clamped into the domain before normalization.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidDomain`] for a malformed domain.
    /// * [`CoreError::NoCalibrationSamples`] if `raw_xs` is empty.
    pub fn from_raw_samples<F: Fn(f32) -> f32>(
        func: F,
        domain: (f32, f32),
        raw_xs: &[f32],
    ) -> Result<Self, CoreError> {
        validate_domain(domain)?;
        if raw_xs.is_empty() {
            return Err(CoreError::NoCalibrationSamples);
        }
        let (lo, hi) = domain;
        let mut zs = Vec::with_capacity(raw_xs.len());
        let mut ys = Vec::with_capacity(raw_xs.len());
        for &x in raw_xs {
            let xc = x.clamp(lo, hi);
            zs.push((xc - lo) / (hi - lo));
            ys.push(func(xc));
        }
        Ok(Self { zs, ys, lo, hi })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.zs.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.zs.is_empty()
    }

    /// The raw-space domain this dataset was generated over.
    pub fn domain(&self) -> (f32, f32) {
        (self.lo, self.hi)
    }
}

/// Summary statistics of one training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Mean loss over the first epoch.
    pub initial_loss: f32,
    /// Mean loss over the final epoch.
    pub final_loss: f32,
    /// Number of epochs executed.
    pub epochs: usize,
}

/// Adam state for one parameter vector.
struct Adam {
    m1: Vec<f32>,
    m2: Vec<f32>,
    t: i32,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl Adam {
    fn new(n: usize) -> Self {
        Self {
            m1: vec![0.0; n],
            m2: vec![0.0; n],
            t: 0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for i in 0..params.len() {
            self.m1[i] = self.beta1 * self.m1[i] + (1.0 - self.beta1) * grads[i];
            self.m2[i] = self.beta2 * self.m2[i] + (1.0 - self.beta2) * grads[i] * grads[i];
            let mhat = self.m1[i] / bc1;
            let vhat = self.m2[i] / bc2;
            params[i] -= lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// Trains `net` (whose parameters live in the dataset's normalized space)
/// with minibatch Adam, returning per-run statistics.
///
/// The gradients are exact sub-gradients of the piecewise-linear network:
/// for pre-activation `z_j = n_j·z + b_j > 0`,
/// `∂ŷ/∂m_j = z_j`, `∂ŷ/∂n_j = m_j·z`, `∂ŷ/∂b_j = m_j`, and `∂ŷ/∂c = 1`.
pub fn train(net: &mut ApproxNet, data: &Dataset, cfg: &TrainConfig, seed: u64) -> TrainReport {
    if cfg.ls_init {
        least_squares_readout(net, data);
    }
    let h = net.hidden();
    let nparams = 3 * h + 1;
    let mut adam = Adam::new(nparams);
    let mut grads = vec![0.0f32; nparams];
    let mut params = vec![0.0f32; nparams];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut order: Vec<usize> = (0..data.len()).collect();

    let mut initial_loss = f32::NAN;
    let mut final_loss = f32::NAN;
    let mut lr = cfg.learning_rate;

    for epoch in 0..cfg.epochs {
        if cfg.milestones.contains(&epoch) {
            lr *= cfg.gamma;
        }
        // Fisher–Yates shuffle.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0f64;
        let mut seen = 0usize;
        for batch in order.chunks(cfg.batch_size.max(1)) {
            grads.fill(0.0);
            let mut batch_loss = 0.0f64;
            {
                let (m, n, b, c) = net.params_mut();
                for &idx in batch {
                    let z = data.zs[idx];
                    let y = data.ys[idx];
                    // Forward.
                    let mut pred = *c;
                    for j in 0..h {
                        let pre = n[j] * z + b[j];
                        if pre > 0.0 {
                            pred += m[j] * pre;
                        }
                    }
                    let err = pred - y;
                    let (l, dl) = match cfg.loss {
                        Loss::L1 => (err.abs(), err.signum()),
                        Loss::L2 => (err * err, 2.0 * err),
                    };
                    batch_loss += l as f64;
                    // Backward (accumulate).
                    for j in 0..h {
                        let pre = n[j] * z + b[j];
                        if pre > 0.0 {
                            grads[j] += dl * pre; // ∂/∂m_j
                            grads[h + j] += dl * m[j] * z; // ∂/∂n_j
                            grads[2 * h + j] += dl * m[j]; // ∂/∂b_j
                        }
                    }
                    grads[3 * h] += dl; // ∂/∂c
                }
            }
            let bs = batch.len() as f32;
            for g in &mut grads {
                *g /= bs;
            }
            // Gather params → Adam step → scatter back.
            {
                let (m, n, b, c) = net.params_mut();
                params[..h].copy_from_slice(m);
                params[h..2 * h].copy_from_slice(n);
                params[2 * h..3 * h].copy_from_slice(b);
                params[3 * h] = *c;
                adam.step(&mut params, &grads, lr);
                m.copy_from_slice(&params[..h]);
                n.copy_from_slice(&params[h..2 * h]);
                b.copy_from_slice(&params[2 * h..3 * h]);
                *c = params[3 * h];
            }
            epoch_loss += batch_loss;
            seen += batch.len();
        }
        let mean = (epoch_loss / seen.max(1) as f64) as f32;
        if epoch == 0 {
            initial_loss = mean;
        }
        final_loss = mean;
    }

    TrainReport {
        initial_loss,
        final_loss,
        epochs: cfg.epochs,
    }
}

/// Solves the readout layer `min_{m,c} Σ (Σ_j m_j·φ_j(z) + c − y)²` by
/// ridge-regularized normal equations over the hinge features
/// `φ_j(z) = ReLU(n_j·z + b_j)` of the *current* first layer.
///
/// At most 4096 samples participate (strided), which is plenty for H ≤ 64
/// unknowns. A singular system (e.g. all-dead features) leaves the net
/// untouched.
fn least_squares_readout(net: &mut ApproxNet, data: &Dataset) {
    let h = net.hidden();
    let k = h + 1;
    let stride = (data.len() / 4096).max(1);
    let mut ata = vec![0.0f64; k * k];
    let mut aty = vec![0.0f64; k];
    let mut phi = vec![0.0f64; k];
    let mut count = 0usize;
    {
        let (_, n, b, _) = net.params_mut();
        for idx in (0..data.len()).step_by(stride) {
            let z = data.zs[idx] as f64;
            let y = data.ys[idx] as f64;
            for j in 0..h {
                phi[j] = (n[j] as f64 * z + b[j] as f64).max(0.0);
            }
            phi[h] = 1.0;
            for r in 0..k {
                if phi[r] == 0.0 {
                    continue;
                }
                for c in 0..k {
                    ata[r * k + c] += phi[r] * phi[c];
                }
                aty[r] += phi[r] * y;
            }
            count += 1;
        }
    }
    if count == 0 {
        return;
    }
    let ridge = 1e-8 * count as f64;
    for r in 0..k {
        ata[r * k + r] += ridge;
    }
    if let Some(w) = solve_dense(&mut ata, &mut aty, k) {
        let (m, _, _, c) = net.params_mut();
        for j in 0..h {
            m[j] = w[j] as f32;
        }
        *c = w[h] as f32;
    }
}

/// Solves the dense `k × k` system `a · x = y` (`a` row-major) by
/// Gaussian elimination with partial pivoting, in place: `a` and `y` are
/// overwritten. Returns `x`, or `None` when a pivot falls below `1e-30`
/// (a numerically singular system). The operation order is fixed, so
/// equal inputs give bit-identical solutions. The least-squares readout
/// fit here and the transformer crate's ridge regression head both solve
/// through it.
pub fn solve_dense(a: &mut [f64], y: &mut [f64], k: usize) -> Option<Vec<f64>> {
    debug_assert_eq!(a.len(), k * k);
    for col in 0..k {
        // Pivot.
        let mut pivot = col;
        for r in col + 1..k {
            if a[r * k + col].abs() > a[pivot * k + col].abs() {
                pivot = r;
            }
        }
        if a[pivot * k + col].abs() < 1e-30 {
            return None;
        }
        if pivot != col {
            for c in 0..k {
                a.swap(col * k + c, pivot * k + c);
            }
            y.swap(col, pivot);
        }
        // Eliminate below.
        let diag = a[col * k + col];
        for r in col + 1..k {
            let factor = a[r * k + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for c in col..k {
                a[r * k + c] -= factor * a[col * k + c];
            }
            y[r] -= factor * y[col];
        }
    }
    // Back-substitute.
    let mut x = vec![0.0f64; k];
    for col in (0..k).rev() {
        let mut acc = y[col];
        for c in col + 1..k {
            acc -= a[col * k + c] * x[c];
        }
        x[col] = acc / a[col * k + col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{init_for_seed, InitStrategy};

    fn fit(
        func: fn(f32) -> f32,
        domain: (f32, f32),
        strategy: InitStrategy,
        curvature_at_hi: bool,
    ) -> (ApproxNet, TrainReport) {
        let data = Dataset::generate(
            func,
            domain,
            8_000,
            SamplingMode::Uniform,
            curvature_at_hi,
            1,
        )
        .unwrap();
        let mut net = init_for_seed(strategy, 15, curvature_at_hi, 2);
        let report = train(&mut net, &data, &TrainConfig::fast(), 3);
        (net.denormalized(domain.0, domain.1), report)
    }

    #[test]
    fn training_reduces_loss_without_ls_init() {
        // Disable the least-squares warm start to verify the Adam path
        // itself learns.
        let data = Dataset::generate(
            |x| x.tanh(),
            (-4.0, 4.0),
            8_000,
            SamplingMode::Uniform,
            false,
            1,
        )
        .unwrap();
        let mut net = init_for_seed(InitStrategy::random(), 15, false, 2);
        let cfg = TrainConfig {
            ls_init: false,
            ..TrainConfig::fast()
        };
        let report = train(&mut net, &data, &cfg, 3);
        assert!(
            report.final_loss < report.initial_loss * 0.5,
            "loss {} -> {} did not halve",
            report.initial_loss,
            report.final_loss
        );
    }

    #[test]
    fn ls_init_starts_near_optimum() {
        let data = Dataset::generate(
            |x| x.tanh(),
            (-4.0, 4.0),
            8_000,
            SamplingMode::Uniform,
            false,
            1,
        )
        .unwrap();
        let mut net = init_for_seed(InitStrategy::random(), 15, false, 2);
        let report = train(&mut net, &data, &TrainConfig::fast(), 3);
        assert!(
            report.initial_loss < 0.05,
            "LS warm start should make epoch-0 loss small, got {}",
            report.initial_loss
        );
        assert!(report.final_loss <= report.initial_loss * 1.1);
    }

    #[test]
    fn trained_tanh_is_accurate() {
        let (net, report) = fit(|x| x.tanh(), (-4.0, 4.0), InitStrategy::random(), false);
        assert!(report.final_loss < 0.05, "final loss {}", report.final_loss);
        // Spot-check raw-space accuracy after denormalization.
        for i in 0..=40 {
            let x = -4.0 + 8.0 * i as f32 / 40.0;
            assert!(
                (net.eval(x) - x.tanh()).abs() < 0.2,
                "x={x}: {} vs {}",
                net.eval(x),
                x.tanh()
            );
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (a, _) = fit(|x| x.sin(), (0.0, 3.0), InitStrategy::random(), false);
        let (b, _) = fit(|x| x.sin(), (0.0, 3.0), InitStrategy::random(), false);
        assert_eq!(a, b);
    }

    #[test]
    fn l2_loss_also_converges() {
        let data = Dataset::generate(
            |x| x * x,
            (0.0, 1.0),
            4_000,
            SamplingMode::Uniform,
            false,
            1,
        )
        .unwrap();
        let mut net = init_for_seed(InitStrategy::random(), 8, false, 2);
        let mut cfg = TrainConfig::fast();
        cfg.loss = Loss::L2;
        let report = train(&mut net, &data, &cfg, 3);
        assert!(report.final_loss < 0.01, "L2 loss {}", report.final_loss);
    }

    #[test]
    fn dataset_generate_respects_domain() {
        let d =
            Dataset::generate(|x| x, (2.0, 10.0), 500, SamplingMode::Uniform, false, 7).unwrap();
        assert_eq!(d.len(), 500);
        assert_eq!(d.domain(), (2.0, 10.0));
        // Targets equal raw inputs for the identity function; raw inputs
        // must lie inside the domain.
        for (&z, &y) in d.zs.iter().zip(&d.ys) {
            assert!((0.0..=1.0).contains(&z));
            assert!((2.0..=10.0).contains(&y));
        }
    }

    #[test]
    fn dataset_loguniform_concentrates_samples() {
        let d = Dataset::generate(
            |x| 1.0 / x,
            (1.0, 1024.0),
            1_000,
            SamplingMode::LogUniform,
            false,
            7,
        )
        .unwrap();
        let near_lo = d.zs.iter().filter(|&&z| z < 0.01).count();
        assert!(near_lo > 400, "{near_lo} of 1000 samples near curvature");
    }

    #[test]
    fn dataset_rejects_bad_inputs() {
        assert!(Dataset::generate(|x| x, (1.0, 1.0), 10, SamplingMode::Uniform, false, 0).is_err());
        assert_eq!(
            Dataset::from_raw_samples(|x| x, (0.0, 1.0), &[]).unwrap_err(),
            CoreError::NoCalibrationSamples
        );
    }

    #[test]
    fn from_raw_samples_clamps_into_domain() {
        let d = Dataset::from_raw_samples(|x| 2.0 * x, (0.0, 1.0), &[-5.0, 0.5, 7.0]).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.zs, vec![0.0, 0.5, 1.0]);
        assert_eq!(d.ys, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn milestones_decay_learning_rate_without_divergence() {
        let data = Dataset::generate(
            |x| x.abs(),
            (-1.0, 1.0),
            2_000,
            SamplingMode::Uniform,
            false,
            1,
        )
        .unwrap();
        let mut net = init_for_seed(InitStrategy::random(), 4, false, 2);
        let cfg = TrainConfig {
            epochs: 10,
            milestones: vec![2, 5, 8],
            gamma: 0.1,
            ..TrainConfig::fast()
        };
        let report = train(&mut net, &data, &cfg, 3);
        assert!(report.final_loss.is_finite());
        assert!(report.final_loss < report.initial_loss);
    }
}

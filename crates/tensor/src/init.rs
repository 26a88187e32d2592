//! Deterministic, seedable weight initializers.
//!
//! Every matrix the reproduction creates is seeded, so every table the
//! bench binaries print is exactly regenerable. Normal sampling is implemented
//! with Box–Muller on top of [`rand`]'s uniform source to avoid an extra
//! dependency.

use crate::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws one standard-normal sample via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let z = nnlut_tensor::init::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // u1 in (0, 1] so ln(u1) is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// A matrix with i.i.d. `N(0, std²)` entries.
pub fn normal_matrix(rows: usize, cols: usize, std: f32, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| standard_normal(&mut rng) * std)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// A matrix with i.i.d. `U(lo, hi)` entries.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform_matrix(rows: usize, cols: usize, lo: f32, hi: f32, seed: u64) -> Matrix {
    assert!(lo < hi, "uniform bounds must satisfy lo < hi");
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Xavier/Glorot-uniform initialization: `U(±sqrt(6/(fan_in+fan_out)))`.
///
/// This is the initialization BERT-family models use for linear layers; the
/// synthetic frozen bodies use it so activations have realistic magnitudes.
pub fn xavier_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    uniform_matrix(rows, cols, -bound, bound, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_matrix_is_deterministic() {
        let a = normal_matrix(4, 4, 1.0, 99);
        let b = normal_matrix(4, 4, 1.0, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = normal_matrix(4, 4, 1.0, 1);
        let b = normal_matrix(4, 4, 1.0, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let m = normal_matrix(200, 200, 2.0, 3);
        let n = (m.rows() * m.cols()) as f32;
        let mean: f32 = m.as_slice().iter().sum::<f32>() / n;
        let var: f32 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / n;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 4.0).abs() < 0.2, "variance {var} too far from 4");
    }

    #[test]
    fn uniform_respects_bounds() {
        let m = uniform_matrix(50, 50, -0.25, 0.75, 5);
        assert!(m.as_slice().iter().all(|&v| (-0.25..0.75).contains(&v)));
    }

    #[test]
    fn xavier_bound_shrinks_with_size() {
        let small = xavier_matrix(4, 4, 1).abs_max();
        let large = xavier_matrix(400, 400, 1).abs_max();
        assert!(large < small);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_bad_bounds_panics() {
        let _ = uniform_matrix(2, 2, 1.0, 1.0, 0);
    }
}

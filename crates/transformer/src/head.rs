//! Downstream heads trained on frozen features.
//!
//! The paper evaluates *fine-tuned* models whose Transformer parameters are
//! frozen during calibration. The analogue here: extract features from the
//! frozen synthetic body once, train a small head on them, then hold the
//! head fixed while the non-linear ops are swapped underneath it.

use nnlut_core::train::solve_dense;
use nnlut_tensor::stats::argmax;
use nnlut_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A linear softmax classifier `argmax(x·W + b)` trained with full-batch
/// Adam on cross-entropy.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxHead {
    w: Matrix, // d × C
    b: Vec<f32>,
}

impl SoftmaxHead {
    /// Trains on `(n × d)` features with integer class labels.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree, `classes < 2`, or a label is out of range.
    pub fn train(features: &Matrix, labels: &[usize], classes: usize, seed: u64) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature/label count mismatch"
        );
        assert!(classes >= 2, "need at least two classes");
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        let d = features.cols();
        let n = features.rows();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = Matrix::from_vec(
            d,
            classes,
            (0..d * classes)
                .map(|_| (rng.gen::<f32>() - 0.5) * 0.01)
                .collect(),
        );
        let mut b = vec![0.0f32; classes];

        // Adam state.
        let np = d * classes + classes;
        let (mut m1, mut m2) = (vec![0.0f32; np], vec![0.0f32; np]);
        let (beta1, beta2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 0.05f32);
        let mut grads = vec![0.0f32; np];
        let mut probs = vec![0.0f32; classes];
        for t in 1..=200i32 {
            grads.fill(0.0);
            for i in 0..n {
                let x = features.row(i);
                for c in 0..classes {
                    let mut z = b[c];
                    for j in 0..d {
                        z += x[j] * w[(j, c)];
                    }
                    probs[c] = z;
                }
                // Softmax.
                let mx = probs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0f32;
                for p in probs.iter_mut() {
                    *p = (*p - mx).exp();
                    sum += *p;
                }
                for p in probs.iter_mut() {
                    *p /= sum;
                }
                // Gradient of CE: (p − onehot) ⊗ x.
                for c in 0..classes {
                    let g = probs[c] - if labels[i] == c { 1.0 } else { 0.0 };
                    if g == 0.0 {
                        continue;
                    }
                    for j in 0..d {
                        grads[j * classes + c] += g * x[j];
                    }
                    grads[d * classes + c] += g;
                }
            }
            let inv_n = 1.0 / n as f32;
            let bc1 = 1.0 - beta1.powi(t);
            let bc2 = 1.0 - beta2.powi(t);
            let mut step = |idx: usize, p: &mut f32, g: f32| {
                let g = g * inv_n + 1e-4 * *p; // small weight decay
                m1[idx] = beta1 * m1[idx] + (1.0 - beta1) * g;
                m2[idx] = beta2 * m2[idx] + (1.0 - beta2) * g * g;
                *p -= lr * (m1[idx] / bc1) / ((m2[idx] / bc2).sqrt() + eps);
            };
            for j in 0..d {
                for c in 0..classes {
                    let idx = j * classes + c;
                    let g = grads[idx];
                    let mut p = w[(j, c)];
                    step(idx, &mut p, g);
                    w[(j, c)] = p;
                }
            }
            for c in 0..classes {
                let idx = d * classes + c;
                let g = grads[idx];
                step(idx, &mut b[c], g);
            }
        }
        Self { w, b }
    }

    /// Class logits for one feature vector.
    pub fn logits(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.w.rows(), "feature dimension mismatch");
        let classes = self.w.cols();
        let mut out = self.b.clone();
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for (c, o) in out.iter_mut().enumerate().take(classes) {
                *o += xj * self.w[(j, c)];
            }
        }
        out
    }

    /// Predicted class.
    pub fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.logits(x))
    }
}

/// A ridge-regression head `y = x·w + b` with closed-form normal equations.
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeHead {
    w: Vec<f32>,
    b: f32,
}

impl RidgeHead {
    /// Fits on `(n × d)` features and scalar targets with L2 penalty
    /// `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or `lambda < 0`.
    pub fn fit(features: &Matrix, targets: &[f32], lambda: f32) -> Self {
        assert_eq!(
            features.rows(),
            targets.len(),
            "feature/target count mismatch"
        );
        assert!(lambda >= 0.0, "lambda must be non-negative");
        let d = features.cols();
        let k = d + 1;
        let mut ata = vec![0.0f64; k * k];
        let mut aty = vec![0.0f64; k];
        for i in 0..features.rows() {
            let x = features.row(i);
            let y = targets[i] as f64;
            for r in 0..d {
                let xr = x[r] as f64;
                if xr == 0.0 {
                    continue;
                }
                for c in 0..d {
                    ata[r * k + c] += xr * x[c] as f64;
                }
                ata[r * k + d] += xr;
                aty[r] += xr * y;
            }
            for c in 0..d {
                ata[d * k + c] += x[c] as f64;
            }
            ata[d * k + d] += 1.0;
            aty[d] += y;
        }
        for r in 0..d {
            ata[r * k + r] += lambda as f64;
        }
        let sol = solve_dense(&mut ata, &mut aty, k)
            .expect("ridge system is positive definite for lambda > 0");
        Self {
            w: sol[..d].iter().map(|&v| v as f32).collect(),
            b: sol[d] as f32,
        }
    }

    /// Predicted scalar.
    pub fn predict(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.w.len(), "feature dimension mismatch");
        self.b + x.iter().zip(&self.w).map(|(a, b)| a * b).sum::<f32>()
    }
}

/// Span-extraction head: two per-position linear *boundary* scorers (start
/// and end) over position-centered, neighbor-augmented features, trained
/// with softmax-over-positions cross-entropy.
///
/// Two standard tricks make this linear head work:
///
/// * **Position centering** — positional-embedding components are identical
///   across examples and would otherwise dominate the scores; subtracting
///   each position's training-set mean removes them exactly.
/// * **Neighbor augmentation** — a span *start* is "an answer position
///   whose left neighbor is not"; the start scorer sees
///   `[feat_i ‖ feat_{i−1}]` and the end scorer `[feat_i ‖ feat_{i+1}]`
///   (zeros beyond the sequence edges), so boundaries are linearly
///   distinguishable from span interiors.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanHead {
    w_start: Vec<f32>, // length 2d
    b_start: f32,
    w_end: Vec<f32>, // length 2d
    b_end: f32,
    position_mean: Matrix,
}

/// `[feat_i ‖ feat_{i+offset}]` with zero padding beyond the edges.
fn neighbor_augment(feat: &Matrix, offset: isize) -> Matrix {
    let (seq, d) = feat.shape();
    let mut out = Matrix::zeros(seq, 2 * d);
    for i in 0..seq {
        out.row_mut(i)[..d].copy_from_slice(feat.row(i));
        let j = i as isize + offset;
        if j >= 0 && (j as usize) < seq {
            out.row_mut(i)[d..].copy_from_slice(feat.row(j as usize));
        }
    }
    out
}

impl SpanHead {
    /// Trains on per-example `(seq × d)` feature matrices with gold
    /// start/end positions.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are empty or inconsistent.
    pub fn train(examples: &[(Matrix, usize, usize)], seed: u64) -> Self {
        assert!(!examples.is_empty(), "need at least one training example");
        let d = examples[0].0.cols();
        let seq = examples[0].0.rows();
        // Per-position mean feature over the training set.
        let mut position_mean = Matrix::zeros(seq, d);
        for (feat, _, _) in examples {
            assert_eq!(feat.shape(), (seq, d), "inconsistent feature shapes");
            position_mean += feat;
        }
        position_mean.scale(1.0 / examples.len() as f32);
        let centered: Vec<(Matrix, usize, usize)> = examples
            .iter()
            .map(|(feat, s, e)| (feat - &position_mean, *s, *e))
            .collect();
        // Boundary features: start sees its left neighbor, end its right.
        let start_examples: Vec<(Matrix, usize, usize)> = centered
            .iter()
            .map(|(f, s, e)| (neighbor_augment(f, -1), *s, *e))
            .collect();
        let end_examples: Vec<(Matrix, usize, usize)> = centered
            .iter()
            .map(|(f, s, e)| (neighbor_augment(f, 1), *s, *e))
            .collect();
        let d = 2 * d;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut head = Self {
            w_start: (0..d).map(|_| (rng.gen::<f32>() - 0.5) * 0.01).collect(),
            b_start: 0.0,
            w_end: (0..d).map(|_| (rng.gen::<f32>() - 0.5) * 0.01).collect(),
            b_end: 0.0,
            position_mean,
        };
        // Full-batch Adam over the 2(d+1) parameters.
        let np = 2 * (d + 1);
        let (mut m1, mut m2) = (vec![0.0f32; np], vec![0.0f32; np]);
        let (beta1, beta2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 0.05f32);
        for t in 1..=300i32 {
            let mut g_ws = vec![0.0f32; d];
            let mut g_bs = 0.0f32;
            let mut g_we = vec![0.0f32; d];
            let mut g_be = 0.0f32;
            for (feat, start, _) in &start_examples {
                accumulate_position_ce(
                    feat,
                    *start,
                    &head.w_start,
                    head.b_start,
                    &mut g_ws,
                    &mut g_bs,
                );
            }
            for (feat, _, end) in &end_examples {
                accumulate_position_ce(feat, *end, &head.w_end, head.b_end, &mut g_we, &mut g_be);
            }
            let inv_n = 1.0 / start_examples.len() as f32;
            let bc1 = 1.0 - beta1.powi(t);
            let bc2 = 1.0 - beta2.powi(t);
            let mut step = |idx: usize, p: &mut f32, g: f32| {
                let g = g * inv_n;
                m1[idx] = beta1 * m1[idx] + (1.0 - beta1) * g;
                m2[idx] = beta2 * m2[idx] + (1.0 - beta2) * g * g;
                *p -= lr * (m1[idx] / bc1) / ((m2[idx] / bc2).sqrt() + eps);
            };
            for j in 0..d {
                let mut p = head.w_start[j];
                step(j, &mut p, g_ws[j]);
                head.w_start[j] = p;
                let mut p = head.w_end[j];
                step(d + 1 + j, &mut p, g_we[j]);
                head.w_end[j] = p;
            }
            step(d, &mut head.b_start, g_bs);
            step(2 * d + 1, &mut head.b_end, g_be);
        }
        head
    }

    /// Predicts `(start, end)` for a `(seq × d)` feature matrix, enforcing
    /// `start ≤ end` by scanning the best valid pair.
    ///
    /// # Panics
    ///
    /// Panics if `feat`'s shape differs from the training shape.
    pub fn predict(&self, feat: &Matrix) -> (usize, usize) {
        assert_eq!(
            feat.shape(),
            self.position_mean.shape(),
            "feature shape differs from training"
        );
        let feat = &(feat - &self.position_mean);
        let starts = position_scores(&neighbor_augment(feat, -1), &self.w_start, self.b_start);
        let ends = position_scores(&neighbor_augment(feat, 1), &self.w_end, self.b_end);
        let mut best = (0usize, 0usize);
        let mut best_score = f32::NEG_INFINITY;
        for s in 0..starts.len() {
            for e in s..(s + 8).min(ends.len()) {
                let score = starts[s] + ends[e];
                if score > best_score {
                    best_score = score;
                    best = (s, e);
                }
            }
        }
        best
    }
}

fn position_scores(feat: &Matrix, w: &[f32], b: f32) -> Vec<f32> {
    feat.rows_iter()
        .map(|row| b + row.iter().zip(w).map(|(a, c)| a * c).sum::<f32>())
        .collect()
}

fn accumulate_position_ce(
    feat: &Matrix,
    gold: usize,
    w: &[f32],
    b: f32,
    g_w: &mut [f32],
    g_b: &mut f32,
) {
    let mut scores = position_scores(feat, w, b);
    let mx = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for s in scores.iter_mut() {
        *s = (*s - mx).exp();
        sum += *s;
    }
    for (pos, s) in scores.iter().enumerate() {
        let g = s / sum - if pos == gold { 1.0 } else { 0.0 };
        if g == 0.0 {
            continue;
        }
        let row = feat.row(pos);
        for j in 0..g_w.len() {
            g_w[j] += g * row[j];
        }
        *g_b += g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlut_tensor::init::normal_matrix;

    /// Linearly separable features: class = sign of first coordinate.
    fn separable(n: usize, d: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let feats = normal_matrix(n, d, 1.0, seed);
        let labels = (0..n).map(|i| (feats[(i, 0)] > 0.0) as usize).collect();
        (feats, labels)
    }

    #[test]
    fn softmax_head_learns_separable_data() {
        let (feats, labels) = separable(200, 8, 3);
        let head = SoftmaxHead::train(&feats, &labels, 2, 0);
        let correct = (0..feats.rows())
            .filter(|&i| head.predict(feats.row(i)) == labels[i])
            .count();
        assert!(correct >= 195, "train accuracy {correct}/200");
    }

    #[test]
    fn softmax_head_three_classes() {
        let feats = normal_matrix(300, 6, 1.0, 4);
        let labels: Vec<usize> = (0..300)
            .map(|i| {
                let r = feats.row(i);
                nnlut_tensor::stats::argmax(&[r[0], r[1], r[2]])
            })
            .collect();
        let head = SoftmaxHead::train(&feats, &labels, 3, 0);
        let correct = (0..300)
            .filter(|&i| head.predict(feats.row(i)) == labels[i])
            .count();
        assert!(correct >= 270, "3-class train accuracy {correct}/300");
    }

    #[test]
    fn ridge_recovers_linear_function() {
        let feats = normal_matrix(120, 5, 1.0, 7);
        let targets: Vec<f32> = (0..120)
            .map(|i| {
                let r = feats.row(i);
                2.0 * r[0] - 1.0 * r[3] + 0.5
            })
            .collect();
        let head = RidgeHead::fit(&feats, &targets, 1e-4);
        for i in 0..120 {
            let p = head.predict(feats.row(i));
            assert!((p - targets[i]).abs() < 0.01, "{} vs {}", p, targets[i]);
        }
    }

    #[test]
    fn span_head_finds_marked_positions() {
        // Feature = 1.0 in coordinate 0 at the gold start, coordinate 1 at
        // the gold end, small noise elsewhere.
        let mut examples = Vec::new();
        for s in 0..8usize {
            let e = s + 2;
            let mut feat = normal_matrix(12, 4, 0.05, s as u64);
            feat[(s, 0)] = 1.0;
            feat[(e, 1)] = 1.0;
            examples.push((feat, s, e));
        }
        let head = SpanHead::train(&examples, 0);
        let mut hits = 0;
        for (feat, s, e) in &examples {
            let (ps, pe) = head.predict(feat);
            if ps == *s && pe == *e {
                hits += 1;
            }
        }
        assert!(hits >= 6, "span head got {hits}/8 exact");
    }

    #[test]
    fn span_predict_enforces_order() {
        let feat = normal_matrix(10, 4, 1.0, 9);
        let head = SpanHead::train(&[(normal_matrix(10, 4, 0.1, 1), 2, 4)], 0);
        let (s, e) = head.predict(&feat);
        assert!(s <= e);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        let feats = normal_matrix(4, 2, 1.0, 0);
        let _ = SoftmaxHead::train(&feats, &[0, 1, 2, 0], 2, 0);
    }
}

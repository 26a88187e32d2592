//! The Transformer encoder and synthetic "pre-trained" bodies.
//!
//! The accuracy experiments need a frozen Transformer whose non-linear ops
//! see realistic input distributions. [`BertModel::new_synthetic`] builds a
//! deterministic random body with Xavier-initialized projections and — key
//! for the LayerNorm experiments — per-layer output gains spread
//! log-uniformly, so the variances feeding 1/√x span from ≪1 to ≫1
//! (the regime paper §3.3.2 motivates input scaling with).

use std::ops::Range;
use std::sync::Mutex;

use nnlut_core::calibrate::{ActivationCapture, RowCapture};
use nnlut_core::codebook::CodebookSpec;
use nnlut_tensor::init::{normal_matrix, xavier_matrix};
use nnlut_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::backend::Nonlinearity;
use crate::config::{Activation, NormKind, TransformerConfig};
use crate::exec::{par_map, run_row_chunks, BatchExecutor};
use crate::gemm::{key_panels, pack_keys, LmHead, Panels};
use crate::quant::{Linear, MatmulMode};

/// One encoder layer's codebook-calibration taps: a [`RowCapture`]
/// reservoir per distinct activation stream entering a linear site
/// (q/k/v share their input; wo, ff1 and ff2 each see their own).
struct LayerTaps {
    attn_in: RowCapture,
    ctx: RowCapture,
    ffn_in: RowCapture,
    ffn_mid: RowCapture,
}

impl LayerTaps {
    fn new(hidden: usize, ffn: usize, cap: usize, seed: u64) -> Self {
        Self {
            attn_in: RowCapture::new(hidden, cap, seed ^ 1),
            ctx: RowCapture::new(hidden, cap, seed ^ 2),
            ffn_in: RowCapture::new(hidden, cap, seed ^ 3),
            ffn_mid: RowCapture::new(ffn, cap, seed ^ 4),
        }
    }
}

/// Per-channel affine parameters of a normalization site (`γ`, `β`).
#[derive(Debug, Clone, PartialEq)]
pub struct Affine {
    /// Scale `γ`.
    pub gamma: Vec<f32>,
    /// Shift `β`.
    pub beta: Vec<f32>,
}

impl Affine {
    /// Applies `γ∘x + β` to every row (used directly for MobileBERT's
    /// NoNorm, and after normalization for LayerNorm).
    pub fn apply_rows(&self, m: &mut Matrix) {
        let cols = m.cols();
        self.apply_chunk(m.as_mut_slice(), cols);
    }

    /// Row-chunk form of [`Affine::apply_rows`] (row-local, so chunked
    /// parallel application is bit-identical to serial).
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not `cols` long or `data` is not a whole
    /// number of rows.
    pub fn apply_chunk(&self, data: &mut [f32], cols: usize) {
        assert_eq!(self.gamma.len(), cols, "gamma length mismatch");
        assert_eq!(data.len() % cols, 0, "chunk is not a whole number of rows");
        for row in data.chunks_exact_mut(cols) {
            for (v, (&g, &b)) in row.iter_mut().zip(self.gamma.iter().zip(&self.beta)) {
                *v = *v * g + b;
            }
        }
    }
}

/// A fixed-shape batch of token sequences: every sequence padded to the
/// longest one, with the true lengths kept as the attention mask. This is
/// the unit the serving layer's dynamic batcher emits and
/// [`BertModel::encode_batch`] consumes.
///
/// Padding uses token id [`PaddedBatch::PAD_ID`]; padded positions flow
/// through the row-local ops (projections, GELU, LayerNorm) as dead rows —
/// they can never pollute valid rows, because every cross-row interaction
/// in the encoder goes through attention, where the mask excludes them —
/// and are stripped when the batch is unpacked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaddedBatch {
    /// `sequences × max_len` row-major token ids, pad positions = `PAD_ID`.
    ids: Vec<usize>,
    /// True (unpadded) length of each sequence.
    lens: Vec<usize>,
    /// Padded length (the longest sequence).
    max_len: usize,
}

impl PaddedBatch {
    /// The token id written into padded positions. Any in-vocabulary id
    /// works (padded rows are masked, then discarded); 0 is always valid.
    pub const PAD_ID: usize = 0;

    /// Packs sequences into a fixed-shape padded batch.
    ///
    /// # Panics
    ///
    /// Panics if `seqs` is empty or any sequence is empty.
    pub fn pack(seqs: &[Vec<usize>]) -> Self {
        assert!(!seqs.is_empty(), "cannot pack an empty batch");
        let max_len = seqs.iter().map(Vec::len).max().unwrap_or(0);
        assert!(max_len > 0, "cannot pack an empty sequence");
        let mut ids = Vec::with_capacity(seqs.len() * max_len);
        let mut lens = Vec::with_capacity(seqs.len());
        for seq in seqs {
            assert!(!seq.is_empty(), "cannot pack an empty sequence");
            ids.extend_from_slice(seq);
            ids.extend(std::iter::repeat_n(Self::PAD_ID, max_len - seq.len()));
            lens.push(seq.len());
        }
        Self { ids, lens, max_len }
    }

    /// Number of sequences in the batch.
    pub fn sequences(&self) -> usize {
        self.lens.len()
    }

    /// The padded sequence length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Per-sequence true lengths (the attention mask).
    pub fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// The `sequences × max_len` row-major padded token ids.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Total *real* tokens (what throughput should be measured in).
    pub fn tokens(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Total padded positions actually computed (`sequences × max_len`).
    pub fn padded_tokens(&self) -> usize {
        self.lens.len() * self.max_len
    }
}

/// One encoder block: multi-head self-attention + feed-forward, with
/// post-norm residuals (BERT layout).
#[derive(Debug, Clone)]
pub struct EncoderLayer {
    pub(crate) wq: Linear,
    pub(crate) wk: Linear,
    pub(crate) wv: Linear,
    pub(crate) wo: Linear,
    pub(crate) ff1: Linear,
    pub(crate) ff2: Linear,
    pub(crate) norm1: Affine,
    pub(crate) norm2: Affine,
}

/// The reduction scope of a block's two per-tensor quantities: the INT8
/// activation quantizer and the I-BERT GELU scale. The block reads it in
/// exactly those two places.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// Over the whole activation matrix, as per-tensor hardware takes
    /// them ([`BertModel::encode_batch`]).
    Matrix,
    /// Per token row, as a step-at-a-time decoder takes them — so a
    /// prefill row equals the same row fed through one decode step.
    Row,
}

/// One sequence of [`BertModel::attend_pairs`]: its query rows and the
/// positions they attend over.
pub(crate) struct Span<'a> {
    /// Its first row of `q` and of the context.
    pub(crate) row: usize,
    /// Each query row's softmax depth: the positions it attends to, from
    /// the first. Its length is the sequence's row count.
    pub(crate) depths: Vec<usize>,
    /// Its keys: rows `hidden` apart at [`Scope::Matrix`], Kᵀ blocks
    /// `hidden` wide (a KV cache's) at [`Scope::Row`].
    pub(crate) keys: &'a [f32],
    /// Its value rows, `positions × hidden` row-major.
    pub(crate) values: &'a [f32],
}

/// A BERT-style encoder with embeddings.
///
/// # Examples
///
/// ```
/// use nnlut_transformer::{BertModel, MatmulMode, Nonlinearity, TransformerConfig};
///
/// let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 42);
/// let tokens = vec![1usize, 5, 9, 2];
/// let h = model.encode(&tokens, &Nonlinearity::exact(), MatmulMode::F32, None);
/// assert_eq!(h.shape(), (4, 64));
/// ```
#[derive(Debug, Clone)]
pub struct BertModel {
    pub(crate) config: TransformerConfig,
    /// The token embedding `E` (`vocab × hidden`), stored once as the tied
    /// LM head's weight `Eᵀ` in split 16-column panels: token `t`'s row is
    /// column `t`, joined from both halves by [`BertModel::embed_into`] and
    /// screened panel by panel by [`BertModel::greedy_tokens`].
    pub(crate) token_embedding: LmHead,
    pub(crate) pos_embedding: Matrix,
    pub(crate) layers: Vec<EncoderLayer>,
    pub(crate) eps: f32,
}

impl BertModel {
    /// Builds a deterministic synthetic pre-trained body.
    ///
    /// The per-layer normalization gains `γ` are scaled by factors spread
    /// log-uniformly over `[0.07, 3.0]` across layers, which makes the
    /// LayerNorm input variances span roughly four orders of magnitude —
    /// the distribution shape reported for BERT-family models and the
    /// reason the paper's input scaling exists.
    pub fn new_synthetic(config: TransformerConfig, seed: u64) -> Self {
        config.validate();
        let d = config.hidden;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut salt = 0u64;
        let mut next_seed = |rng: &mut StdRng| {
            salt += 1;
            rng.gen::<u64>() ^ salt
        };
        // MobileBERT's bottleneck structure keeps each block's contribution
        // to the residual stream small; without LayerNorm re-mixing, an
        // undamped random block would bury the token-identity signal after
        // a few layers. Damp the block *output* projections for NoNorm.
        let out_damp = match config.norm {
            NormKind::LayerNorm => 1.0f32,
            NormKind::NoNorm => 0.2,
        };
        let mut linear = |rng: &mut StdRng, rows: usize, cols: usize, damp: f32| {
            let mut w = xavier_matrix(rows, cols, next_seed(rng));
            if damp != 1.0 {
                w.scale(damp);
            }
            let b = normal_matrix(1, cols, 0.02, next_seed(rng)).into_vec();
            Linear::new(w, b)
        };
        let layers = (0..config.layers)
            .map(|l| {
                // Log-spaced gain: layer 0 ≈ 0.3 … last ≈ 3.0. Only safe
                // under LayerNorm, which re-normalizes every block; NoNorm
                // bodies (MobileBERT) keep γ ≈ 1 like the real model.
                // Combined with the token-embedding norm spread below, the
                // LayerNorm input variances still span ~4 orders of
                // magnitude, without shrinking GELU inputs so far that the
                // activation sits entirely inside one LUT segment (which
                // would be an artifact, not a property of BERT bodies).
                let t = if config.layers > 1 {
                    l as f32 / (config.layers - 1) as f32
                } else {
                    0.5
                };
                let gain = match config.norm {
                    NormKind::LayerNorm => 0.3f32 * (3.0f32 / 0.3).powf(t),
                    NormKind::NoNorm => 1.0,
                };
                let affine = |rng: &mut StdRng, gain: f32| {
                    let gamma: Vec<f32> = (0..d)
                        .map(|_| gain * (0.9 + 0.2 * rng.gen::<f32>()))
                        .collect();
                    let beta: Vec<f32> = (0..d).map(|_| 0.05 * (rng.gen::<f32>() - 0.5)).collect();
                    Affine { gamma, beta }
                };
                EncoderLayer {
                    wq: linear(&mut rng, d, d, 1.0),
                    wk: linear(&mut rng, d, d, 1.0),
                    wv: linear(&mut rng, d, d, 1.0),
                    wo: linear(&mut rng, d, d, out_damp),
                    ff1: linear(&mut rng, d, config.ffn, 1.0),
                    ff2: linear(&mut rng, config.ffn, d, out_damp),
                    norm1: affine(&mut rng, gain),
                    norm2: affine(&mut rng, gain),
                }
            })
            .collect();
        // Token-embedding norms vary widely in real BERT vocabularies
        // (frequent vs rare tokens); spread them log-uniformly over
        // [0.3, 3.0] so different positions feed LayerNorm with different
        // variances — the per-row diversity that makes LayerNorm the most
        // approximation-sensitive op (paper Table 2a). NoNorm bodies keep
        // uniform norms: without per-block renormalization the spread would
        // just drown quiet tokens.
        let mut token_embedding = normal_matrix(config.vocab, d, 1.0, seed ^ 0xe0e0);
        if config.norm == NormKind::LayerNorm {
            for (t, row) in token_embedding.rows_iter_mut().enumerate() {
                let u = (t % 16) as f32 / 15.0;
                let scale = 0.12f32 * (4.0f32 / 0.12).powf(u);
                for v in row {
                    *v *= scale;
                }
            }
        }
        Self {
            token_embedding: LmHead::new(token_embedding),
            pos_embedding: normal_matrix(config.max_seq, d, 0.3, seed ^ 0xf0f0),
            config,
            layers,
            eps: 1e-5,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// Writes the embedding of `token` at position `pos` (token row plus
    /// position row) into `row`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub(crate) fn embed_into(&self, token: usize, pos: usize, row: &mut [f32]) {
        assert!(
            token < self.config.vocab,
            "token id {token} out of vocabulary"
        );
        let (tok, at) = (self.token_embedding.col(token), self.pos_embedding.row(pos));
        for ((v, t), &p) in row.iter_mut().zip(tok).zip(at) {
            *v = t + p;
        }
    }

    /// Panics unless a sequence of `n` tokens fits the model: non-empty
    /// and at most `max_seq` long.
    pub(crate) fn check_len(&self, n: usize) {
        assert!(n > 0, "cannot embed an empty sequence");
        assert!(
            n <= self.config.max_seq,
            "sequence length {n} exceeds max_seq {}",
            self.config.max_seq
        );
    }

    /// The `(len × d)` embedding of one sequence, computed serially.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, longer than `max_seq`, or contains an
    /// id outside the vocabulary.
    pub(crate) fn embed(&self, tokens: &[usize]) -> Matrix {
        let n = tokens.len();
        self.check_len(n);
        let mut x = Matrix::zeros(n, self.config.hidden);
        for (pos, (&t, row)) in tokens.iter().zip(x.rows_iter_mut()).enumerate() {
            self.embed_into(t, pos, row);
        }
        x
    }

    /// Runs the encoder over a token sequence, returning the `(seq × d)`
    /// final hidden states.
    ///
    /// `capture`, when provided, records the variance input of every
    /// LayerNorm invocation (for §3.3.3 calibration).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, longer than `max_seq`, or contains an
    /// id outside the vocabulary.
    pub fn encode(
        &self,
        tokens: &[usize],
        nl: &Nonlinearity,
        mode: MatmulMode,
        mut capture: Option<&mut ActivationCapture>,
    ) -> Matrix {
        let mut x = self.embed(tokens);
        for layer in &self.layers {
            x = self.encode_layer_tapped(layer, &x, nl, mode, capture.as_deref_mut(), None);
        }
        x
    }

    /// Calibrates and bakes a centroid codebook onto **every** linear
    /// layer of the body (wq/wk/wv/wo/ff1/ff2 of each encoder layer),
    /// enabling [`MatmulMode::Codebook`].
    ///
    /// Runs each `calib` token sequence through an FP32 forward pass with
    /// per-site [`RowCapture`] reservoir taps on the rows entering each
    /// linear (the §3.3.3 capture machinery, row-shaped), then k-means +
    /// partial-product bake per site. The q/k/v projections share one
    /// activation stream (they read the same rows) but draw distinct
    /// per-site k-means seeds, so their codebooks are independent.
    ///
    /// `capture_rows` bounds the reservoir per site (256–1024 is plenty;
    /// the reservoir makes cost O(cap), not O(tokens)). Deterministic:
    /// same model, spec, and calibration set → bitwise-identical
    /// codebooks, so replicas baked independently still agree.
    ///
    /// # Panics
    ///
    /// Panics if `calib` is empty (or holds only sequences whose
    /// activations are non-finite — nothing to calibrate on), or if any
    /// sequence violates [`BertModel::encode`]'s preconditions.
    pub fn bake_codebooks(
        &mut self,
        spec: &CodebookSpec,
        calib: &[Vec<usize>],
        nl: &Nonlinearity,
        capture_rows: usize,
    ) {
        assert!(!calib.is_empty(), "codebook calibration needs sequences");
        let d = self.config.hidden;
        let ffn = self.config.ffn;
        let mut taps: Vec<LayerTaps> = (0..self.layers.len())
            .map(|l| LayerTaps::new(d, ffn, capture_rows, spec.seed ^ ((l as u64) << 32)))
            .collect();

        // Capture pass: the FP32 forward, with taps on.
        for tokens in calib {
            let mut x = self.embed(tokens);
            for (layer, tap) in self.layers.iter().zip(taps.iter_mut()) {
                x = self.encode_layer_tapped(layer, &x, nl, MatmulMode::F32, None, Some(tap));
            }
        }

        // Bake pass: k-means + partial-product tables per linear site.
        for (l, (layer, tap)) in self.layers.iter_mut().zip(taps.iter()).enumerate() {
            let site = |s: u64| (l as u64) * 6 + s;
            layer.wq.bake_codebook(&tap.attn_in, spec, site(0));
            layer.wk.bake_codebook(&tap.attn_in, spec, site(1));
            layer.wv.bake_codebook(&tap.attn_in, spec, site(2));
            layer.wo.bake_codebook(&tap.ctx, spec, site(3));
            layer.ff1.bake_codebook(&tap.ffn_in, spec, site(4));
            layer.ff2.bake_codebook(&tap.ffn_mid, spec, site(5));
        }
    }

    /// True once every linear layer carries a baked codebook — the
    /// precondition the serving front doors check before accepting
    /// [`MatmulMode::Codebook`] traffic.
    pub fn has_codebooks(&self) -> bool {
        self.layers.iter().all(|layer| {
            layer.wq.has_codebook()
                && layer.wk.has_codebook()
                && layer.wv.has_codebook()
                && layer.wo.has_codebook()
                && layer.ff1.has_codebook()
                && layer.ff2.has_codebook()
        })
    }

    /// Total bytes held by every baked partial-product table across the
    /// model — the memory side of the accuracy-per-table-size frontier
    /// the bench ledger records. Unbaked linears contribute zero.
    pub fn codebook_table_bytes(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|layer| {
                [
                    &layer.wq, &layer.wk, &layer.wv, &layer.wo, &layer.ff1, &layer.ff2,
                ]
            })
            .filter_map(|lin| lin.codebook().map(|cb| cb.table_bytes()))
            .sum()
    }

    /// Runs the encoder over a whole padded batch, returning one
    /// `(len × d)` hidden-state matrix per sequence (pad rows stripped).
    ///
    /// Each layer is the one transformer block the decoder also runs
    /// (q/k/v, attention, wo, residual, norm, FFN, activation,
    /// FFN, residual, norm), with the decoder's pair attention at
    /// whole-matrix scope — here bidirectional over each sequence's valid
    /// rows. Every stage works on
    /// the packed `(sequences·max_len) × d` activation buffer through
    /// `exec` — [`crate::exec::SerialExecutor`] for the reference serial
    /// path, `nnlut_serve`'s thread pool for the parallel one. The two are
    /// **bit-identical** for any lane count (see [`crate::exec`]).
    ///
    /// With [`MatmulMode::F32`] and [`MatmulMode::F16`] bodies and the
    /// exact/LUT backends, each sequence's result is additionally
    /// independent of its batch-mates (attention masks pad columns;
    /// everything else is row-local), so dynamic batching never changes a
    /// response. Two backends legitimately break that independence —
    /// exactly as they would on real per-tensor-quantized hardware —
    /// because they take *per-tensor* scales over the whole packed
    /// activation matrix: [`MatmulMode::Int8`] GEMMs, and the I-BERT GELU
    /// (its 16-bit quantization scale comes from `abs_max` of the full
    /// batch, pad rows included).
    ///
    /// Activation capture (§3.3.3 calibration) is a training-time concern
    /// and intentionally not offered on the serving path.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, longer than `max_seq`, or contains an
    /// id outside the vocabulary.
    pub fn encode_batch(
        &self,
        batch: &PaddedBatch,
        nl: &Nonlinearity,
        mode: MatmulMode,
        exec: &dyn BatchExecutor,
    ) -> Vec<Matrix> {
        let b = batch.sequences();
        let l = batch.max_len();
        assert!(b > 0, "cannot encode an empty batch");
        self.check_len(l);
        let d = self.config.hidden;
        // Embedding: row-local (token + position), parallel over all rows.
        let mut x = Matrix::zeros(b * l, d);
        run_row_chunks(exec, x.as_mut_slice(), b * l, d, &|first_row, chunk| {
            for (i, row) in chunk.chunks_exact_mut(d).enumerate() {
                let r = first_row + i;
                self.embed_into(batch.ids()[r], r % l, row);
            }
        });
        for layer in &self.layers {
            x = self.block(layer, &x, nl, mode, Scope::Matrix, exec, |q, k, v| {
                let spans: Vec<Span> = batch
                    .lens()
                    .iter()
                    .enumerate()
                    .map(|(s, &valid)| {
                        let block = s * l * d..(s + 1) * l * d;
                        Span {
                            row: s * l,
                            depths: (0..l).map(|r| if r < valid { valid } else { 0 }).collect(),
                            keys: &k.as_slice()[block.clone()],
                            values: &v.as_slice()[block],
                        }
                    })
                    .collect();
                self.attend_pairs(q, &spans, Scope::Matrix, nl, mode, exec)
            });
        }
        // Unpack: keep only each sequence's valid rows.
        batch
            .lens()
            .iter()
            .enumerate()
            .map(|(s, &len)| Matrix::from_vec(len, d, x.row_block(s * l, s * l + len).to_vec()))
            .collect()
    }

    /// One transformer block over the rows of `x` — the body `encode_batch`
    /// and the decoder both run. It projects q/k/v, hands them
    /// to the caller's `attend(&q, &k, &v) -> ctx`, then runs wo →
    /// residual → norm1 → FFN1 → activation → FFN2 → residual → norm2.
    /// The stages run through `exec` in that order, one call each — except
    /// an INT8 projection at [`Scope::Matrix`], whose per-tensor quantizer
    /// runs serially, and any stage whose rows fit one chunk. `scope`
    /// picks where the per-tensor reductions are taken.
    #[allow(clippy::too_many_arguments)] // every argument is an input of the block
    pub(crate) fn block(
        &self,
        layer: &EncoderLayer,
        x: &Matrix,
        nl: &Nonlinearity,
        mode: MatmulMode,
        scope: Scope,
        exec: &dyn BatchExecutor,
        attend: impl FnOnce(&Matrix, &Matrix, &Matrix) -> Matrix,
    ) -> Matrix {
        // F32/F16/Codebook projections are row-local at either scope; only
        // INT8's activation quantizer needs per-row application.
        let project = |lin: &Linear, m: &Matrix| match (mode, scope) {
            (MatmulMode::Int8, Scope::Row) => {
                let (rows, in_dim) = m.shape();
                let cols = lin.out_dim();
                let mut out = Matrix::zeros(rows, cols);
                run_row_chunks(exec, out.as_mut_slice(), rows, cols, &|first_row, chunk| {
                    for (i, out_row) in chunk.chunks_exact_mut(cols).enumerate() {
                        let row = Matrix::from_vec(1, in_dim, m.row(first_row + i).to_vec());
                        out_row.copy_from_slice(lin.apply(&row, mode).row(0));
                    }
                });
                out
            }
            _ => lin.apply_exec(m, mode, exec),
        };
        // Residual `a + b`, then the block's norm, as two row-local stages,
        // in `b`'s buffer (the projection output is dead after the add).
        let add_norm = |a: &Matrix, b: Matrix, affine: &Affine| {
            let (rows, cols) = a.shape();
            let mut m = b;
            run_row_chunks(exec, m.as_mut_slice(), rows, cols, &|first_row, chunk| {
                let base = first_row * cols;
                for (i, o) in chunk.iter_mut().enumerate() {
                    *o += a.as_slice()[base + i];
                }
            });
            let (gamma, beta) = (&affine.gamma, &affine.beta);
            let norm = |chunk: &mut [f32]| match self.config.norm {
                NormKind::LayerNorm => nl.layer_norm_chunk(chunk, cols, gamma, beta, self.eps),
                NormKind::NoNorm => affine.apply_chunk(chunk, cols),
            };
            run_row_chunks(exec, m.as_mut_slice(), rows, cols, &|_, chunk| norm(chunk));
            m
        };

        let q = project(&layer.wq, x);
        let k = project(&layer.wk, x);
        let v = project(&layer.wv, x);
        let ctx = attend(&q, &k, &v);
        let x1 = add_norm(x, project(&layer.wo, &ctx), &layer.norm1);

        let mut hmid = project(&layer.ff1, &x1);
        let (rows, cols) = hmid.shape();
        let gelu = self.config.activation == Activation::Gelu;
        let whole = (gelu && scope == Scope::Matrix).then(|| nl.gelu_kernel(&hmid));
        let activate = |chunk: &mut [f32]| match &whole {
            Some(kernel) => kernel.apply_chunk(chunk),
            // Per-row GELU: the I-BERT scale comes from each row alone.
            None if gelu => {
                for row in chunk.chunks_exact_mut(cols) {
                    let row_m = Matrix::from_vec(1, cols, row.to_vec());
                    nl.gelu_kernel(&row_m).apply_chunk(row);
                }
            }
            // ReLU is piecewise linear — exact on any hardware.
            None => {
                for v in chunk {
                    *v = v.max(0.0);
                }
            }
        };
        run_row_chunks(exec, hmid.as_mut_slice(), rows, cols, &|_, chunk| {
            activate(chunk)
        });
        add_norm(&x1, project(&layer.ff2, &hmid), &layer.norm2)
    }

    /// Multi-head attention over every (sequence, head) pair of `spans`,
    /// in one executor call: each pair scores its query rows against its
    /// keys on the packed tile (`q·Kᵀ/√dh`), softmaxes each row over its
    /// depth (a depth-0 row is all-zero, keeping pad rows finite), applies
    /// V, and writes its context block into the shared output under a
    /// mutex. `scope` says what the spans hold:
    ///
    /// * [`Scope::Matrix`] (`encode_batch`): a padded sequence's row-major
    ///   K and V blocks. The pair packs its head's Kᵀ inside its lane, and
    ///   every row's product runs over the whole block — on the tile for
    ///   F32 and Codebook bodies, through one whole-block
    ///   [`crate::quant::matmul`] (pad rows of V included) for F16 and INT8.
    /// * [`Scope::Row`] (the decoder): a KV cache's Kᵀ blocks and V rows,
    ///   the query rows its last positions. Each row's product runs over
    ///   its own prefix — the causal tile for F32 and Codebook, a
    ///   `1 × depth` [`crate::quant::matmul`] per row for F16 and INT8 — so
    ///   a row's context is the same whether it arrives alone or with
    ///   others.
    ///
    /// The tile products keep the reference loops' per-element order, so
    /// the encoder's result equals serial `encode`'s. A pair's math is the
    /// same on whichever lane runs it and the blocks are disjoint, so the
    /// result is executor-independent.
    pub(crate) fn attend_pairs(
        &self,
        q: &Matrix,
        spans: &[Span<'_>],
        scope: Scope,
        nl: &Nonlinearity,
        mode: MatmulMode,
        exec: &dyn BatchExecutor,
    ) -> Matrix {
        let (rows, d) = q.shape();
        let heads = self.config.heads;
        let dh = self.config.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        let ctx = Mutex::new(Matrix::zeros(rows, d));
        par_map(exec, spans.len() * heads, |pair| {
            let (span, h) = (&spans[pair / heads], pair % heads);
            let head_cols = h * dh..(h + 1) * dh;
            let (m, n) = (span.depths.len(), span.values.len() / d);
            let packed;
            let keys = match scope {
                Scope::Matrix => {
                    packed = pack_keys(span.keys, d, 0..n, head_cols.clone());
                    key_panels(&packed, dh, n, 0..dh)
                }
                Scope::Row => key_panels(span.keys, d, n, head_cols.clone()),
            };
            let mut scores = Matrix::zeros(m, n);
            keys.product(
                &q.as_slice()[span.row * d + h * dh..],
                d,
                m,
                false,
                scores.as_mut_slice(),
                n,
            );
            scores.scale(scale);
            nl.apply_softmax_rows_masked(&mut scores, &span.depths);
            let part = match (mode, scope) {
                (MatmulMode::F32 | MatmulMode::Codebook, _) => {
                    let mut part = Matrix::zeros(m, dh);
                    Panels::row_major(&span.values[h * dh..], n, dh, d).product(
                        scores.as_slice(),
                        n,
                        m,
                        scope == Scope::Row,
                        part.as_mut_slice(),
                        dh,
                    );
                    part
                }
                (_, Scope::Matrix) => {
                    let vh = copy_block(span.values, d, 0..n, head_cols.clone());
                    crate::quant::matmul(&scores, &vh, mode)
                }
                (_, Scope::Row) => {
                    let mut part = Matrix::zeros(m, dh);
                    for ((probs, out), &depth) in scores
                        .rows_iter()
                        .zip(part.rows_iter_mut())
                        .zip(&span.depths)
                    {
                        let probs = Matrix::from_vec(1, depth, probs[..depth].to_vec());
                        let vh = copy_block(span.values, d, 0..depth, head_cols.clone());
                        out.copy_from_slice(crate::quant::matmul(&probs, &vh, mode).row(0));
                    }
                    part
                }
            };
            let mut ctx = ctx.lock().expect("attention context poisoned");
            for (r, part_row) in part.rows_iter().enumerate() {
                ctx.row_mut(span.row + r)[head_cols.clone()].copy_from_slice(part_row);
            }
        });
        ctx.into_inner().expect("attention context poisoned")
    }

    /// One encoder layer, serially — the independent oracle
    /// [`BertModel::encode_batch`]'s shared block is tested against — with
    /// optional LayerNorm capture and codebook-calibration taps
    /// recording the rows entering each linear site (see
    /// [`BertModel::bake_codebooks`]). The taps are passive: the returned
    /// activations are bit-identical with them on or off. Its attention
    /// runs the row-major reference loops ([`Matrix::matmul_transpose`],
    /// [`crate::quant::matmul`]), which the packed tile of
    /// [`BertModel::attend_pairs`] must equal.
    fn encode_layer_tapped(
        &self,
        layer: &EncoderLayer,
        x: &Matrix,
        nl: &Nonlinearity,
        mode: MatmulMode,
        mut capture: Option<&mut ActivationCapture>,
        mut taps: Option<&mut LayerTaps>,
    ) -> Matrix {
        let heads = self.config.heads;
        let dh = self.config.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();

        // Multi-head self-attention.
        if let Some(t) = taps.as_deref_mut() {
            t.attn_in.record_rows(x.as_slice());
        }
        let q = layer.wq.apply(x, mode);
        let k = layer.wk.apply(x, mode);
        let v = layer.wv.apply(x, mode);
        let mut ctx = Matrix::zeros(0, 0);
        for h in 0..heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let qh = q.col_slice(lo, hi);
            let kh = k.col_slice(lo, hi);
            let vh = v.col_slice(lo, hi);
            let mut scores = qh.matmul_transpose(&kh);
            scores.scale(scale);
            nl.apply_softmax_rows(&mut scores);
            let ctx_h = crate::quant::matmul(&scores, &vh, mode);
            ctx = if h == 0 { ctx_h } else { ctx.hcat(&ctx_h) };
        }
        if let Some(t) = taps.as_deref_mut() {
            t.ctx.record_rows(ctx.as_slice());
        }
        let attn_out = layer.wo.apply(&ctx, mode);
        let mut x1 = x + &attn_out;
        self.apply_norm(&layer.norm1, &mut x1, nl, capture.as_deref_mut());

        // Feed-forward.
        if let Some(t) = taps.as_deref_mut() {
            t.ffn_in.record_rows(x1.as_slice());
        }
        let mut hmid = layer.ff1.apply(&x1, mode);
        match self.config.activation {
            Activation::Gelu => nl.apply_gelu(&mut hmid),
            // ReLU is piecewise linear — computed exactly on any hardware.
            Activation::Relu => hmid.map_inplace(|v| v.max(0.0)),
        }
        if let Some(t) = taps {
            t.ffn_mid.record_rows(hmid.as_slice());
        }
        let ff_out = layer.ff2.apply(&hmid, mode);
        let mut x2 = &x1 + &ff_out;
        self.apply_norm(&layer.norm2, &mut x2, nl, capture);
        x2
    }

    fn apply_norm(
        &self,
        affine: &Affine,
        m: &mut Matrix,
        nl: &Nonlinearity,
        capture: Option<&mut ActivationCapture>,
    ) {
        match self.config.norm {
            NormKind::LayerNorm => {
                nl.apply_layer_norm_rows(m, &affine.gamma, &affine.beta, self.eps, capture)
            }
            // MobileBERT NoNorm: pure affine, no mean/variance, nothing to
            // approximate (and nothing to capture).
            NormKind::NoNorm => affine.apply_rows(m),
        }
    }

    /// Mean-pooled final hidden states — the sentence feature used by the
    /// classification heads (mean pooling is the standard robust choice
    /// for frozen-body sentence classification).
    pub fn pooled_features(
        &self,
        tokens: &[usize],
        nl: &Nonlinearity,
        mode: MatmulMode,
    ) -> Vec<f32> {
        let h = self.encode(tokens, nl, mode, None);
        let (rows, cols) = h.shape();
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            for (o, &v) in out.iter_mut().zip(h.row(r)) {
                *o += v;
            }
        }
        for o in &mut out {
            *o /= rows as f32;
        }
        out
    }
}

/// Copies the `rows × cols` block of a row-major buffer `width` values
/// wide into a fresh matrix (the per-sequence, per-head view attention
/// works on, whether the rows come from a projection or a K/V cache).
pub(crate) fn copy_block(
    flat: &[f32],
    width: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), cols.len());
    for (r, out_row) in rows.zip(out.rows_iter_mut()) {
        out_row.copy_from_slice(&flat[r * width + cols.start..r * width + cols.end]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::FakeLanes;
    use crate::exec::SerialExecutor;
    use nnlut_core::train::TrainConfig;
    use nnlut_core::NnLutKit;

    fn tiny_model() -> BertModel {
        BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9)
    }

    #[test]
    fn encode_shape_and_determinism() {
        let m = tiny_model();
        let tokens = vec![3usize, 1, 4, 1, 5];
        let a = m.encode(&tokens, &Nonlinearity::exact(), MatmulMode::F32, None);
        let b = m.encode(&tokens, &Nonlinearity::exact(), MatmulMode::F32, None);
        assert_eq!(a.shape(), (5, 64));
        assert_eq!(a, b);
    }

    #[test]
    fn codebook_bake_enables_codebook_mode_end_to_end() {
        let mut m = tiny_model();
        assert!(!m.has_codebooks());
        let nl = Nonlinearity::exact();
        let calib: Vec<Vec<usize>> = (0..6)
            .map(|s| (0..10).map(|i| (s * 13 + i * 7) % 100).collect())
            .collect();
        m.bake_codebooks(&CodebookSpec::default(), &calib, &nl, 256);
        assert!(m.has_codebooks());

        let tokens = vec![3usize, 1, 4, 1, 5, 9, 2, 6];
        let approx = m.encode(&tokens, &nl, MatmulMode::Codebook, None);
        let again = m.encode(&tokens, &nl, MatmulMode::Codebook, None);
        assert_eq!(approx, again, "codebook encode must be deterministic");
        assert_eq!(approx.shape(), (8, 64));
        assert!(approx.as_slice().iter().all(|v| v.is_finite()));

        // The approximation should stay in the same ballpark as FP32 —
        // LayerNorm after every block keeps scales comparable, so a loose
        // relative bound is meaningful without being flaky.
        let exact = m.encode(&tokens, &nl, MatmulMode::F32, None);
        let rel = (&exact - &approx).frobenius_norm() / exact.frobenius_norm();
        assert!(rel < 1.0, "codebook body drifted unreasonably: rel {rel}");

        // Batched == serial, bitwise, sequence by sequence.
        use crate::exec::SerialExecutor;
        let seqs = vec![tokens.clone(), vec![7usize, 7, 7], vec![50usize; 12]];
        let batch = PaddedBatch::pack(&seqs);
        let batched = m.encode_batch(&batch, &nl, MatmulMode::Codebook, &SerialExecutor);
        for (seq, got) in seqs.iter().zip(&batched) {
            let want = m.encode(seq, &nl, MatmulMode::Codebook, None);
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "batch diverged from serial");
            }
        }
    }

    #[test]
    fn codebook_bake_is_deterministic_across_replicas() {
        let nl = Nonlinearity::exact();
        let calib: Vec<Vec<usize>> = vec![vec![1, 2, 3, 4, 5], vec![9, 8, 7]];
        let bake = || {
            let mut m = tiny_model();
            m.bake_codebooks(&CodebookSpec::default(), &calib, &nl, 128);
            m.encode(&[2usize, 4, 8], &nl, MatmulMode::Codebook, None)
        };
        let (a, b) = (bake(), bake());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "independent bakes diverged");
        }
    }

    #[test]
    fn different_tokens_give_different_features() {
        let m = tiny_model();
        let a = m.pooled_features(&[1, 2, 3], &Nonlinearity::exact(), MatmulMode::F32);
        let b = m.pooled_features(&[4, 5, 6], &Nonlinearity::exact(), MatmulMode::F32);
        assert_ne!(a, b);
    }

    #[test]
    fn nn_lut_encoding_tracks_exact() {
        let m = tiny_model();
        let kit = NnLutKit::train_with(16, 5, &TrainConfig::fast());
        let tokens: Vec<usize> = (0..16).map(|i| (i * 7) % 128).collect();
        let exact = m.encode(&tokens, &Nonlinearity::exact(), MatmulMode::F32, None);
        let approx = m.encode(&tokens, &Nonlinearity::all_lut(&kit), MatmulMode::F32, None);
        // Raw feature-space deviation compounds over layers; what the
        // paper's experiments show is that *task decisions* survive, which
        // eval.rs tests. Here we only require the encoding to stay in the
        // same ballpark rather than diverge.
        let rel = (&exact - &approx).frobenius_norm() / exact.frobenius_norm();
        assert!(rel < 0.8, "NN-LUT encoding relative deviation {rel}");
    }

    #[test]
    fn layernorm_variances_span_wide_range() {
        let m = tiny_model();
        let mut cap = ActivationCapture::new(4096, 3);
        let tokens: Vec<usize> = (0..32).map(|i| (i * 11) % 128).collect();
        m.encode(
            &tokens,
            &Nonlinearity::exact(),
            MatmulMode::F32,
            Some(&mut cap),
        );
        // 4 layers × 2 norms × 32 rows = 256 variance samples.
        assert_eq!(cap.len(), 256);
        let min = cap.samples().iter().cloned().fold(f32::INFINITY, f32::min);
        let max = cap.samples().iter().cloned().fold(0.0f32, f32::max);
        assert!(min < 0.5, "smallest LN variance {min} not ≪ 1");
        assert!(max > 2.0, "largest LN variance {max} not ≫ 1");
    }

    #[test]
    fn mobilebert_records_no_layernorm_activity() {
        let m = BertModel::new_synthetic(TransformerConfig::mobilebert_tiny(), 9);
        let mut cap = ActivationCapture::new(128, 3);
        m.encode(
            &[1, 2, 3, 4],
            &Nonlinearity::exact(),
            MatmulMode::F32,
            Some(&mut cap),
        );
        assert!(cap.is_empty(), "NoNorm must not feed the 1/sqrt capture");
    }

    #[test]
    fn int8_body_stays_close_to_fp32() {
        let m = tiny_model();
        let tokens: Vec<usize> = (0..12).map(|i| (i * 5) % 128).collect();
        let f32_out = m.encode(&tokens, &Nonlinearity::exact(), MatmulMode::F32, None);
        let i8_out = m.encode(&tokens, &Nonlinearity::exact(), MatmulMode::Int8, None);
        let rel = (&f32_out - &i8_out).frobenius_norm() / f32_out.frobenius_norm();
        assert!(rel < 0.35, "INT8 body relative deviation {rel}");
    }

    #[test]
    fn padded_batch_packs_and_counts() {
        let batch = PaddedBatch::pack(&[vec![1, 2, 3], vec![4], vec![5, 6]]);
        assert_eq!(batch.sequences(), 3);
        assert_eq!(batch.max_len(), 3);
        assert_eq!(batch.lens(), &[3, 1, 2]);
        assert_eq!(batch.tokens(), 6);
        assert_eq!(batch.padded_tokens(), 9);
        let pad = PaddedBatch::PAD_ID;
        assert_eq!(batch.ids(), &[1, 2, 3, 4, pad, pad, 5, 6, pad]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn packing_empty_batch_panics() {
        PaddedBatch::pack(&[]);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn packing_empty_sequence_panics() {
        PaddedBatch::pack(&[vec![1], vec![]]);
    }

    /// Mixed-length batched encode must reproduce the single-sequence path
    /// exactly, serially and on three lanes, in every matmul mode whose
    /// result is independent of batch-mates (INT8 and the I-BERT GELU take
    /// per-tensor scales, so they are left out): padding and batch-mates
    /// never change a valid row. (Matrix equality is element-exact up to
    /// -0.0 == +0.0.)
    #[test]
    fn batched_encode_matches_single_sequences() {
        let mut m = tiny_model();
        let kit = NnLutKit::train_with(16, 5, &TrainConfig::fast());
        let seqs = vec![
            (0..11usize).map(|i| (i * 7) % 128).collect::<Vec<_>>(),
            vec![3, 1, 4, 1, 5],
            (0..17usize).map(|i| (i * 13) % 128).collect::<Vec<_>>(),
            vec![99],
        ];
        m.bake_codebooks(&CodebookSpec::default(), &seqs, &Nonlinearity::exact(), 128);
        let batch = PaddedBatch::pack(&seqs);
        let execs: [&dyn BatchExecutor; 2] = [&SerialExecutor, &FakeLanes(3)];
        for nl in [Nonlinearity::exact(), Nonlinearity::all_lut(&kit)] {
            for mode in [MatmulMode::F32, MatmulMode::F16, MatmulMode::Codebook] {
                for exec in execs {
                    let batched = m.encode_batch(&batch, &nl, mode, exec);
                    assert_eq!(batched.len(), seqs.len());
                    for (seq, got) in seqs.iter().zip(&batched) {
                        let want = m.encode(seq, &nl, mode, None);
                        assert_eq!(got, &want, "{mode} batched encode diverged for {seq:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn batched_encode_handles_mobilebert_bodies() {
        let m = BertModel::new_synthetic(TransformerConfig::mobilebert_tiny(), 9);
        let seqs = vec![vec![1usize, 2, 3, 4, 5, 6], vec![7, 8]];
        let batch = PaddedBatch::pack(&seqs);
        let batched = m.encode_batch(
            &batch,
            &Nonlinearity::exact(),
            MatmulMode::F32,
            &SerialExecutor,
        );
        for (seq, got) in seqs.iter().zip(&batched) {
            let want = m.encode(seq, &Nonlinearity::exact(), MatmulMode::F32, None);
            assert_eq!(got, &want, "NoNorm batched encode diverged");
        }
    }

    #[test]
    fn batched_encode_is_independent_of_batch_composition() {
        let m = tiny_model();
        let a = vec![10usize, 20, 30, 40];
        let b = vec![50usize, 60];
        let together = m.encode_batch(
            &PaddedBatch::pack(&[a.clone(), b.clone()]),
            &Nonlinearity::exact(),
            MatmulMode::F32,
            &SerialExecutor,
        );
        let alone = m.encode_batch(
            &PaddedBatch::pack(std::slice::from_ref(&a)),
            &Nonlinearity::exact(),
            MatmulMode::F32,
            &SerialExecutor,
        );
        assert_eq!(together[0], alone[0], "batch-mate changed a response");
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn batched_bad_token_panics() {
        let batch = PaddedBatch::pack(&[vec![9999usize]]);
        tiny_model().encode_batch(
            &batch,
            &Nonlinearity::exact(),
            MatmulMode::F32,
            &SerialExecutor,
        );
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        tiny_model().encode(&[], &Nonlinearity::exact(), MatmulMode::F32, None);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn bad_token_panics() {
        tiny_model().encode(&[9999], &Nonlinearity::exact(), MatmulMode::F32, None);
    }
}

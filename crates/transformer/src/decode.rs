//! Incremental (KV-cached) autoregressive decoding.
//!
//! The encoder path ([`BertModel::encode_batch`]) recomputes every
//! position's keys and values on every call — the right shape for one-shot
//! encodes, and quadratically wasteful for generation, where each new
//! token only needs its *own* query against the keys/values of everything
//! before it. This module adds the decoder-serving shape the repo's
//! `ext_decoder` paper artifact models: a per-sequence [`KvCache`]
//! holding each layer's appended K/V rows, a causal
//! [`BertModel::prefill`] that populates the cache from a prompt in wide
//! row-parallel passes, and
//! [`BertModel::decode_batch`] and [`BertModel::decode_step`], which feed
//! one token per sequence — all through the same baked LUT kernels and
//! the [`BatchExecutor`] seam the serving layer already drives.
//!
//! All three are thin callers of one public decoder forward,
//! [`BertModel::extend`], which is also the serving replica's only way to
//! feed tokens into caches: it takes any mix of sequences, each with its
//! new tokens (a prompt on a fresh cache, the last emitted token on a
//! parked one), embeds them at their cache depths, then per layer runs
//! the one transformer block `encode_batch` runs over all the new rows.
//! Its attention pushes the new rows' K/V, then attends every (sequence,
//! head) pair from its cache in one executor call — the model's one pair
//! attention, which `encode_batch` runs too, bidirectionally over each
//! sequence's valid rows. `prefill` is the forward on one empty cache,
//! `decode_batch` with one token per sequence, and `decode_step` is
//! `decode_batch`'s one-row [`SerialExecutor`] case — the step-at-a-time
//! oracle the wide and batched forms are tested against.
//!
//! The cache keeps each layer's keys as Kᵀ blocks of 16 positions, the
//! packed GEMM tile's panels, and its values row-major. A pair's attention
//! (`q·Kᵀ`, then the probabilities times V) runs the tile over both where
//! they lie, its query rows taken as the cache's last positions: a
//! prompt's keys are packed once, into the cache, and no head copies it.
//!
//! Serving batches both halves of a token's cost across the sequences of
//! a decode batch. [`BertModel::decode_batch`] runs the block **once over
//! all B rows** per layer, each row attending against its own cache, so
//! every weight streams once per batch. [`BertModel::greedy_tokens`]
//! reads all B next tokens in **one pass over the tied LM head**: the
//! token embedding is stored once as `Eᵀ` in the packed GEMM's 16-column
//! panels (the crate's `gemm` module), and the pass folds each register tile's
//! logits into a running per-row argmax, split across the executor's
//! lanes by panel range. At the bench shape (50,265 × 768) that pass is
//! most of a token's time, and reading the 154 MB of panels once for B
//! rows instead of B times is the batching gain.
//!
//! # Determinism contract (extended to decode)
//!
//! The serving layer's bit-identity guarantee extends to generation
//! because every op on the decode path is **token-row-local**:
//!
//! * projections run one token row at a time in a fixed k-order
//!   ([`nnlut_tensor::Matrix::matmul_rows_into`] semantics), so row `r`
//!   of a wide prefill GEMM equals the same row computed alone;
//! * the causal softmax of a row at position `p` evaluates exactly its
//!   `p + 1` cached scores with the same per-row kernel as the masked
//!   batch path ([`Nonlinearity::softmax_chunk_masked`]'s valid-prefix
//!   property);
//! * scores and context keep the reference loops' per-element order
//!   (`0.0`, then `+=` over ascending channels or positions, no FMA) on
//!   the packed tile — a row at position `p` sums its context over its
//!   own prefix `0..=p`, whether it arrives in a wide prefill or alone in
//!   a step (F16 and INT8 run each row's `1 × (p+1)` product on its own);
//! * per-tensor reductions that would couple rows — the INT8 activation
//!   quantizer and the I-BERT GELU scale — are taken **per token row** on
//!   this path (exactly what a step-at-a-time decoder does on real
//!   hardware), never over a batch or a whole prompt.
//!
//! Consequences, each pinned by tests here and in `tests/serve_decode.rs`:
//!
//! 1. `prefill(prompt)` produces bit-identical hidden states and cache
//!    contents to feeding the prompt through [`BertModel::decode_step`]
//!    one token at a time (cached attention == full recompute);
//! 2. [`BertModel::decode_batch`] over any mix of sequences, at any mix
//!    of cache depths, equals each sequence decoded alone, and
//!    [`BertModel::greedy_tokens`] equals the serial first-max loop over
//!    the row-major embedding, at any lane count — continuous batching
//!    never changes a generated token;
//! 3. rebuilding a lost cache by re-prefilling `prompt ++ generated` and
//!    continuing yields the same remaining tokens as the uninterrupted
//!    run (the sharded layer's failover-with-cache-rebuild leans on 1).

use nnlut_core::engine::chunk_ranges;
use nnlut_tensor::Matrix;

use crate::backend::Nonlinearity;
use crate::exec::{par_map, BatchExecutor, SerialExecutor};
use crate::gemm::{key_block_floats, push_key};
use crate::model::{BertModel, Scope, Span};
use crate::quant::MatmulMode;

/// One sequence's appended K/V rows for every layer — the state a
/// generation carries between decode steps.
///
/// Append-only: position `p`'s K/V rows are written once, by the decoder
/// forward [`BertModel::extend`], and never mutated. Keys are stored as
/// Kᵀ blocks of 16 positions, the packed tile's panels, so the new rows
/// score their queries against them in place; values stay row-major,
/// which the tile reads in place too. The cache is the only place the
/// decoder's attention reads K and V. Buffers are reserved
/// to `capacity` positions (keys: rounded up to whole blocks) up front, so
/// the heap footprint is a function of `(layers, hidden, capacity)` from
/// the first token — [`KvCache::approx_bytes`] reports that bound and the
/// unit tests pin that it never moves as the cache grows.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    /// Per layer: appended keys as Kᵀ blocks of 16 positions, each
    /// `hidden × 16` (the `gemm` module's `push_key` layout), zero past
    /// the last position.
    k: Vec<Vec<f32>>,
    /// Per layer: appended value rows, `len × hidden` row-major.
    v: Vec<Vec<f32>>,
    /// Cached positions so far (every layer holds exactly this many rows).
    len: usize,
    /// Hidden width of each cached row.
    hidden: usize,
    /// Maximum positions the cache will ever hold (the model's `max_seq`).
    capacity: usize,
}

impl KvCache {
    /// An empty cache for `layers` layers of `hidden`-wide rows, reserved
    /// to `capacity` positions.
    pub(crate) fn new(layers: usize, hidden: usize, capacity: usize) -> Self {
        Self {
            k: (0..layers)
                .map(|_| Vec::with_capacity(key_block_floats(hidden, capacity)))
                .collect(),
            v: (0..layers)
                .map(|_| Vec::with_capacity(capacity * hidden))
                .collect(),
            len: 0,
            hidden,
            capacity,
        }
    }

    /// Cached positions (tokens whose K/V every layer holds).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before any token has been cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum positions this cache can hold (the model's `max_seq`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True once the cache holds `capacity` positions — the next decode
    /// step would have nowhere to sit.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Layers this cache spans.
    pub fn layers(&self) -> usize {
        self.k.len()
    }

    /// The heap bound this cache can ever occupy: every layer's K and V
    /// buffer at full *capacity* (reserved at construction), independent
    /// of how many positions are currently cached. At a capacity that is a
    /// multiple of 16 the key blocks hold no padding, and the bound is that
    /// of `capacity` row-major K and V rows.
    pub fn approx_bytes(&self) -> usize {
        let floats = key_block_floats(self.hidden, self.capacity) + self.capacity * self.hidden;
        std::mem::size_of::<Self>()
            + self.k.len() * 2 * (std::mem::size_of::<Vec<f32>>())
            + self.k.len() * floats * std::mem::size_of::<f32>()
    }

    /// Positions `layer` holds (the current step's included, once pushed).
    fn positions(&self, layer: usize) -> usize {
        self.v[layer].len() / self.hidden
    }

    /// Appends one position's K/V rows for `layer`.
    fn push(&mut self, layer: usize, k_row: &[f32], v_row: &[f32]) {
        debug_assert_eq!(k_row.len(), self.hidden);
        debug_assert_eq!(v_row.len(), self.hidden);
        let pos = self.positions(layer);
        push_key(&mut self.k[layer], pos, k_row);
        self.v[layer].extend_from_slice(v_row);
    }
}

impl BertModel {
    /// An empty [`KvCache`] shaped for this model (one K/V plane per
    /// layer, reserved to `max_seq` positions).
    pub fn new_cache(&self) -> KvCache {
        KvCache::new(self.layers.len(), self.config.hidden, self.config.max_seq)
    }

    /// Panics unless `cache` is shaped for this model.
    fn check_cache(&self, cache: &KvCache) {
        assert_eq!(
            cache.layers(),
            self.layers.len(),
            "cache/model layer mismatch"
        );
        assert_eq!(
            cache.hidden, self.config.hidden,
            "cache/model width mismatch"
        );
    }

    /// The one decoder forward: feeds each sequence's new `tokens` after
    /// the positions its cache already holds, appends their K/V rows to
    /// every layer, and returns their final hidden states stacked in input
    /// order (`Σ tokens.len() × hidden`). Sequences may mix any token
    /// counts and cache depths — a fresh cache with its prompt beside a
    /// parked one with its last token — and each row equals the same token
    /// fed alone through [`BertModel::decode_step`].
    ///
    /// Each token is embedded at its own cache depth, serially. Each layer
    /// then runs the shared block over all the new rows at per-row scope,
    /// pushes the rows' K/V to their caches, and attends every (sequence,
    /// head) pair from its cache in one executor call (the model's one
    /// pair attention, each row over its own prefix). A row's math reads
    /// only its own row and its cache's prefix, so it is the same at any
    /// lane count, under any batch composition and however a sequence's
    /// tokens are split across calls.
    ///
    /// # Panics
    ///
    /// Panics if no sequence brings a token, if a cache is shaped for a
    /// different model or would outgrow its capacity, or if a token is
    /// outside the vocabulary.
    pub fn extend(
        &self,
        seqs: &mut [(&mut KvCache, &[usize])],
        nl: &Nonlinearity,
        mode: MatmulMode,
        exec: &dyn BatchExecutor,
    ) -> Matrix {
        let d = self.config.hidden;
        // Each sequence's first row in the stacked activations.
        let mut starts = Vec::with_capacity(seqs.len());
        let mut rows = 0;
        for (cache, tokens) in seqs.iter() {
            self.check_cache(cache);
            assert!(
                cache.len + tokens.len() <= cache.capacity,
                "KV cache is full ({} positions)",
                cache.capacity
            );
            starts.push(rows);
            rows += tokens.len();
        }
        assert!(rows > 0, "nothing to extend");
        let mut x = Matrix::zeros(rows, d);
        for ((cache, tokens), &start) in seqs.iter().zip(&starts) {
            for (i, &token) in tokens.iter().enumerate() {
                self.embed_into(token, cache.len + i, x.row_mut(start + i));
            }
        }

        for (l, layer) in self.layers.iter().enumerate() {
            x = self.block(layer, &x, nl, mode, Scope::Row, exec, |q, k, v| {
                for ((cache, tokens), &start) in seqs.iter_mut().zip(&starts) {
                    for r in start..start + tokens.len() {
                        cache.push(l, k.row(r), v.row(r));
                    }
                }
                // A sequence that brings no token has nothing to attend.
                let spans: Vec<Span> = seqs
                    .iter()
                    .zip(&starts)
                    .filter(|((_, tokens), _)| !tokens.is_empty())
                    .map(|((cache, tokens), &row)| {
                        let n = cache.positions(l);
                        Span {
                            row,
                            depths: (n + 1 - tokens.len()..=n).collect(),
                            keys: &cache.k[l],
                            values: &cache.v[l],
                        }
                    })
                    .collect();
                self.attend_pairs(q, &spans, Scope::Row, nl, mode, exec)
            });
        }
        for (cache, tokens) in seqs.iter_mut() {
            cache.len += tokens.len();
        }
        x
    }

    /// Causal prefill: runs the prompt through the decoder forward on an
    /// empty `cache`, populating it with every layer's K/V rows, and
    /// returns the final hidden state of the **last** prompt position —
    /// the row the first generated token is read from.
    ///
    /// Bit-identical to feeding the prompt through
    /// [`BertModel::decode_step`] one token at a time (see the module
    /// docs), at every [`MatmulMode`] and every `exec` lane count.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, longer than `max_seq`, or contains an
    /// id outside the vocabulary; or if `cache` is non-empty or shaped for
    /// a different model.
    pub fn prefill(
        &self,
        tokens: &[usize],
        cache: &mut KvCache,
        nl: &Nonlinearity,
        mode: MatmulMode,
        exec: &dyn BatchExecutor,
    ) -> Vec<f32> {
        self.check_len(tokens.len());
        assert!(cache.is_empty(), "prefill requires an empty cache");
        let x = self.extend(&mut [(cache, tokens)], nl, mode, exec);
        x.row(tokens.len() - 1).to_vec()
    }

    /// One incremental decode step: embeds `token` at position
    /// `cache.len()`, appends its K/V rows to every layer, attends over
    /// the cached context, and returns the new position's final hidden
    /// state — the one-row, [`SerialExecutor`] case of
    /// [`BertModel::decode_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the cache is full or shaped for a different model, or if
    /// `token` is outside the vocabulary.
    pub fn decode_step(
        &self,
        cache: &mut KvCache,
        token: usize,
        nl: &Nonlinearity,
        mode: MatmulMode,
    ) -> Vec<f32> {
        self.decode_batch(&mut [(cache, token)], nl, mode, &SerialExecutor)
            .into_vec()
    }

    /// Greedy next-token readout of one hidden row: the one-row,
    /// [`SerialExecutor`] case of [`BertModel::greedy_tokens`].
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not `hidden`-dim wide.
    pub fn greedy_token(&self, hidden: &[f32]) -> usize {
        let row = Matrix::from_vec(1, hidden.len(), hidden.to_vec());
        self.greedy_tokens(&row, &SerialExecutor)[0]
    }

    /// Greedy next-token readout of every row of `hidden` in one pass over
    /// the tied LM head. Row `i`'s logit for token `t` is its dot with
    /// token `t`'s embedding, in FP32: `0.0`, then `+= h[c]·E[t][c]` for
    /// `c` ascending, no FMA. Its token is the first `t` whose logit is
    /// strictly greater than every earlier one (from `−inf`), so ties go
    /// to the lowest id, NaN logits never win, and a row with no logit
    /// above `−inf` reads token 0.
    ///
    /// The embedding's panels are split across `exec` lanes. Each lane
    /// screens its panels' columns on the high 16 bits of `E`, up to four
    /// rows at a time, and rescores exactly, with the packed GEMM tile,
    /// only the columns whose error bound lets them reach the best; their
    /// logits fold into a running per-row best. No `rows × vocab` logits
    /// buffer is built, and each panel is read once per call, not once per
    /// row. The lanes' bests merge in lane order
    /// under the same strict `>`, so the tokens equal the serial fold at
    /// any lane count and are row-local: batch composition never changes
    /// a chosen token.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not `hidden`-dim wide.
    pub fn greedy_tokens(&self, hidden: &Matrix, exec: &dyn BatchExecutor) -> Vec<usize> {
        assert_eq!(hidden.cols(), self.config.hidden, "hidden width mismatch");
        let head = &self.token_embedding;
        let ranges = chunk_ranges(head.panel_count(), exec.lanes());
        let lanes = par_map(exec, ranges.len(), |lane| {
            head.argmax_cols(hidden.as_slice(), hidden.rows(), ranges[lane].clone())
        });
        let mut best = vec![(0usize, f32::NEG_INFINITY); hidden.rows()];
        for lane in lanes {
            for (b, (id, logit)) in best.iter_mut().zip(lane) {
                if logit > b.1 {
                    *b = (id, logit);
                }
            }
        }
        best.into_iter().map(|(id, _)| id).collect()
    }

    /// Advances many sequences by one token each — the continuous-batching
    /// workhorse. `steps` pairs each sequence's cache with the token to
    /// feed it. Returns the new hidden states as a `B × hidden` matrix,
    /// row `i` for step `i`.
    ///
    /// The decoder forward with one token per sequence: all `B` rows run
    /// as one block per layer at per-row scope, so every weight streams
    /// once per batch rather than once per sequence, and each row attends
    /// against its own cache alone. Every other stage is row-local at this
    /// scope (the INT8 quantizer and the I-BERT GELU scale are taken per
    /// row), so each row is bit-identical to stepping its sequence alone,
    /// at any lane count and under any batch composition — the property
    /// the tests here and `tests/serve_decode.rs` pin across precisions
    /// and thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty, or if a cache is full or shaped for a
    /// different model, or a token is outside the vocabulary.
    pub fn decode_batch(
        &self,
        steps: &mut [(&mut KvCache, usize)],
        nl: &Nonlinearity,
        mode: MatmulMode,
        exec: &dyn BatchExecutor,
    ) -> Matrix {
        assert!(!steps.is_empty(), "cannot decode an empty batch");
        let mut seqs: Vec<(&mut KvCache, &[usize])> = steps
            .iter_mut()
            .map(|(cache, token)| (&mut **cache, std::slice::from_ref(token)))
            .collect();
        self.extend(&mut seqs, nl, mode, exec)
    }

    /// Serial greedy generation — the step-at-a-time oracle the serving
    /// layer's continuous batching is proven against. Prefills `prompt`,
    /// reads the first token greedily, then decodes one position at a
    /// time until `max_new` tokens exist. Returns the generated tokens
    /// (never the prompt).
    ///
    /// # Panics
    ///
    /// Panics if `prompt.len() + max_new` exceeds `max_seq` (every
    /// generated position must fit the cache), on an empty prompt, or if
    /// `max_new` is zero.
    pub fn generate(
        &self,
        prompt: &[usize],
        max_new: usize,
        nl: &Nonlinearity,
        mode: MatmulMode,
    ) -> Vec<usize> {
        assert!(max_new > 0, "must generate at least one token");
        assert!(
            max_new <= self.config.max_seq.saturating_sub(prompt.len()),
            "prompt ({}) + max_new ({max_new}) exceeds max_seq {}",
            prompt.len(),
            self.config.max_seq
        );
        let mut cache = self.new_cache();
        let mut hidden = self.prefill(prompt, &mut cache, nl, mode, &SerialExecutor);
        let mut out = Vec::with_capacity(max_new);
        out.push(self.greedy_token(&hidden));
        while out.len() < max_new {
            let last = *out.last().expect("just pushed");
            hidden = self.decode_step(&mut cache, last, nl, mode);
            out.push(self.greedy_token(&hidden));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformerConfig;
    use crate::exec::tests::FakeLanes;
    use nnlut_core::codebook::CodebookSpec;
    use nnlut_core::train::TrainConfig;
    use nnlut_core::NnLutKit;

    fn tiny_model() -> BertModel {
        BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9)
    }

    impl KvCache {
        /// `layer`'s cached keys, `positions × hidden` row-major.
        fn keys(&self, layer: usize) -> Vec<f32> {
            crate::gemm::key_rows(&self.k[layer], self.hidden, self.positions(layer))
        }
    }

    fn backends() -> Vec<Nonlinearity> {
        let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
        vec![
            Nonlinearity::exact(),
            Nonlinearity::all_lut(&kit),
            Nonlinearity::all_ibert(),
        ]
    }

    fn prompt(len: usize, salt: usize) -> Vec<usize> {
        (0..len).map(|i| (i * 7 + salt) % 128).collect()
    }

    /// Cached attention == full recompute, at every step, for every
    /// backend and matmul mode: prefilling a prefix — serially or on three
    /// lanes — yields bit-identical hidden states and cache contents to
    /// stepping token by token.
    #[test]
    fn prefill_matches_step_by_step_bitwise() {
        let mut m = tiny_model();
        let calib: Vec<Vec<usize>> = (0..4).map(|s| prompt(5 + s, s)).collect();
        m.bake_codebooks(
            &CodebookSpec::default(),
            &calib,
            &Nonlinearity::exact(),
            128,
        );
        let tokens = prompt(13, 3);
        let modes = [
            MatmulMode::F32,
            MatmulMode::F16,
            MatmulMode::Int8,
            MatmulMode::Codebook,
        ];
        let execs: [&dyn BatchExecutor; 2] = [&SerialExecutor, &FakeLanes(3)];
        for nl in backends() {
            for mode in modes {
                // Incremental: one decode_step per token.
                let mut inc = m.new_cache();
                let mut inc_hidden = Vec::new();
                for &t in &tokens {
                    inc_hidden = m.decode_step(&mut inc, t, &nl, mode);
                }
                for (t, exec) in (1..=tokens.len()).flat_map(|t| execs.map(|e| (t, e))) {
                    // Wide prefill of every prefix matches the incremental
                    // cache bit for bit up to that prefix.
                    let mut pre = m.new_cache();
                    let hidden = m.prefill(&tokens[..t], &mut pre, &nl, mode, exec);
                    assert_eq!(pre.len(), t);
                    for l in 0..pre.layers() {
                        assert_eq!(
                            pre.keys(l).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            inc.keys(l)[..t * 64]
                                .iter()
                                .map(|v| v.to_bits())
                                .collect::<Vec<_>>(),
                            "{mode} K cache diverged at layer {l} prefix {t} on {} lanes",
                            exec.lanes()
                        );
                        assert_eq!(
                            pre.v[l].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            inc.v[l][..t * 64]
                                .iter()
                                .map(|v| v.to_bits())
                                .collect::<Vec<_>>(),
                            "{mode} V cache diverged at layer {l} prefix {t} on {} lanes",
                            exec.lanes()
                        );
                    }
                    if t == tokens.len() {
                        let want: Vec<u32> = inc_hidden.iter().map(|v| v.to_bits()).collect();
                        let got: Vec<u32> = hidden.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            got,
                            want,
                            "{mode} final hidden diverged on {} lanes",
                            exec.lanes()
                        );
                    }
                }
            }
        }
    }

    /// The causal path really is causal: extending the prompt never
    /// changes an earlier position's cached K/V.
    #[test]
    fn prefix_rows_are_independent_of_suffix() {
        let m = tiny_model();
        let nl = Nonlinearity::exact();
        let mut short = m.new_cache();
        m.prefill(
            &prompt(6, 0),
            &mut short,
            &nl,
            MatmulMode::F32,
            &SerialExecutor,
        );
        let mut long = m.new_cache();
        let mut extended = prompt(6, 0);
        extended.extend(prompt(5, 40));
        m.prefill(&extended, &mut long, &nl, MatmulMode::F32, &SerialExecutor);
        for l in 0..short.layers() {
            assert_eq!(
                short.keys(l),
                long.keys(l)[..short.keys(l).len()],
                "suffix tokens leaked into prefix keys at layer {l}"
            );
        }
    }

    /// Growth bounds: the cache's reported footprint is a constant of its
    /// configuration (never of fill level), `len` tracks positions
    /// exactly, and a full cache refuses another step.
    #[test]
    fn cache_growth_is_bounded_and_tracked() {
        let m = tiny_model();
        let nl = Nonlinearity::exact();
        let mut cache = m.new_cache();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 64);
        let bound = cache.approx_bytes();
        for (i, t) in prompt(64, 1).into_iter().enumerate() {
            m.decode_step(&mut cache, t, &nl, MatmulMode::F32);
            assert_eq!(cache.len(), i + 1);
            assert_eq!(cache.approx_bytes(), bound, "footprint moved at step {i}");
        }
        assert!(cache.is_full());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.decode_step(&mut cache, 1, &nl, MatmulMode::F32)
        }));
        assert!(r.is_err(), "a full cache must refuse another step");
    }

    /// Kᵀ blocks cost nothing over row-major keys when the capacity is a
    /// whole number of 16-position blocks (the bench model's `max_seq` is
    /// 640): `approx_bytes` is the row-major bound, and a cache filled to
    /// capacity — prefilled, then stepped across block edges — never
    /// outgrows the reservation it started with.
    #[test]
    fn cache_bytes_match_the_row_major_bound() {
        use std::mem::size_of;
        for (layers, hidden, capacity) in [(4usize, 64usize, 64usize), (2, 768, 640)] {
            let cache = KvCache::new(layers, hidden, capacity);
            let row_major = size_of::<KvCache>()
                + layers * 2 * size_of::<Vec<f32>>()
                + layers * 2 * capacity * hidden * size_of::<f32>();
            assert_eq!(
                cache.approx_bytes(),
                row_major,
                "{layers}x{hidden}x{capacity}"
            );
            for (k, v) in cache.k.iter().zip(&cache.v) {
                assert_eq!(
                    (k.capacity(), v.capacity()),
                    (capacity * hidden, capacity * hidden)
                );
            }
        }
        let m = tiny_model();
        let nl = Nonlinearity::exact();
        let mut cache = m.new_cache();
        let reserved: Vec<usize> = cache.k.iter().map(Vec::capacity).collect();
        m.prefill(
            &prompt(40, 2),
            &mut cache,
            &nl,
            MatmulMode::F32,
            &SerialExecutor,
        );
        while !cache.is_full() {
            m.decode_step(&mut cache, 3, &nl, MatmulMode::F32);
        }
        assert_eq!(
            cache.k.iter().map(Vec::capacity).collect::<Vec<_>>(),
            reserved
        );
        assert!(cache.k.iter().all(|k| k.len() == 64 * 64));
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The B-row decode block == each sequence stepped alone by
    /// `decode_step`, bit for bit — hidden rows, greedy tokens and caches —
    /// at every matmul mode and backend and one to four lanes, over several
    /// consecutive steps of a batch whose members sit at different cache
    /// depths and whose composition changes between steps.
    #[test]
    fn decode_batch_matches_serial_per_sequence() {
        let mut m = tiny_model();
        let calib: Vec<Vec<usize>> = (0..4).map(|s| prompt(5 + s, s)).collect();
        m.bake_codebooks(
            &CodebookSpec::default(),
            &calib,
            &Nonlinearity::exact(),
            128,
        );
        let prompts: Vec<Vec<usize>> = (0..5).map(|s| prompt(3 + s * 2, s)).collect();
        let modes = [
            MatmulMode::F32,
            MatmulMode::F16,
            MatmulMode::Int8,
            MatmulMode::Codebook,
        ];
        for (backend, nl) in ["exact", "LUT", "I-BERT"].into_iter().zip(backends()) {
            for mode in modes {
                for lanes in 1..=4 {
                    let exec = FakeLanes(lanes);
                    let mut oracle: Vec<(KvCache, usize)> = Vec::new();
                    let mut batched: Vec<(KvCache, usize)> = Vec::new();
                    for p in &prompts {
                        let mut cache = m.new_cache();
                        let h = m.prefill(p, &mut cache, &nl, mode, &SerialExecutor);
                        let token = m.greedy_token(&h);
                        oracle.push((cache.clone(), token));
                        batched.push((cache, token));
                    }
                    for step in 0..4 {
                        // Step 0 runs everyone; later steps leave out a
                        // rotating member, so depths diverge further.
                        let members: Vec<usize> = (0..prompts.len())
                            .filter(|&i| step == 0 || i % 4 != step)
                            .collect();
                        let mut want = Vec::new();
                        for &i in &members {
                            let (cache, token) = &mut oracle[i];
                            let h = m.decode_step(cache, *token, &nl, mode);
                            *token = m.greedy_token(&h);
                            want.push(bits(&h));
                        }
                        let mut refs: Vec<(&mut KvCache, usize)> = batched
                            .iter_mut()
                            .enumerate()
                            .filter(|(i, _)| members.contains(i))
                            .map(|(_, (cache, token))| (cache, *token))
                            .collect();
                        let hidden = m.decode_batch(&mut refs, &nl, mode, &exec);
                        let tokens = m.greedy_tokens(&hidden, &exec);
                        for (j, &i) in members.iter().enumerate() {
                            let what =
                                format!("{backend} {mode} {lanes} lanes step {step} seq {i}");
                            assert_eq!(bits(hidden.row(j)), want[j], "{what}: hidden");
                            assert_eq!(tokens[j], oracle[i].1, "{what}: token");
                            batched[i].1 = tokens[j];
                        }
                    }
                    for ((got, _), (want, _)) in batched.iter().zip(&oracle) {
                        assert_eq!(got.len(), want.len());
                        for l in 0..got.layers() {
                            assert_eq!(
                                bits(&got.keys(l)),
                                bits(&want.keys(l)),
                                "{mode} K layer {l}"
                            );
                            assert_eq!(bits(&got.v[l]), bits(&want.v[l]), "{mode} V layer {l}");
                        }
                    }
                }
            }
        }
    }

    /// One `extend` call == each sequence fed alone, bit for bit — every
    /// hidden row and every cache — at every backend and matmul mode,
    /// serially and on three lanes. Round one feeds prompts of different
    /// lengths (one of none) to fresh caches, each last row checked against
    /// the sequence's own `prefill`; round two feeds a mix of multi-token
    /// chunks, single tokens and a prompt on a fresh cache. Every row is
    /// checked against `decode_step` over the same tokens.
    #[test]
    fn extend_matches_each_sequence_alone() {
        let mut m = tiny_model();
        let calib: Vec<Vec<usize>> = (0..4).map(|s| prompt(5 + s, s)).collect();
        m.bake_codebooks(
            &CodebookSpec::default(),
            &calib,
            &Nonlinearity::exact(),
            128,
        );
        let rounds: Vec<Vec<Vec<usize>>> = [[1usize, 7, 16, 17, 3, 0], [3, 1, 5, 1, 2, 4]]
            .iter()
            .enumerate()
            .map(|(r, lens)| {
                lens.iter()
                    .enumerate()
                    .map(|(s, &len)| prompt(len, 10 * r + s))
                    .collect()
            })
            .collect();
        let modes = [
            MatmulMode::F32,
            MatmulMode::F16,
            MatmulMode::Int8,
            MatmulMode::Codebook,
        ];
        let execs: [&dyn BatchExecutor; 2] = [&SerialExecutor, &FakeLanes(3)];
        for (backend, nl) in ["exact", "LUT", "I-BERT"].into_iter().zip(backends()) {
            for (mode, exec) in modes.into_iter().flat_map(|m| execs.map(|e| (m, e))) {
                let what = format!("{backend} {mode} on {} lanes", exec.lanes());
                let mut oracle: Vec<KvCache> = rounds[0].iter().map(|_| m.new_cache()).collect();
                let mut caches = oracle.clone();
                for (r, round) in rounds.iter().enumerate() {
                    let mut seqs: Vec<(&mut KvCache, &[usize])> = caches
                        .iter_mut()
                        .zip(round)
                        .map(|(cache, tokens)| (cache, tokens.as_slice()))
                        .collect();
                    let hidden = m.extend(&mut seqs, &nl, mode, exec);
                    let mut rows = hidden.rows_iter();
                    for (s, (cache, tokens)) in oracle.iter_mut().zip(round).enumerate() {
                        let got: Vec<&[f32]> = rows.by_ref().take(tokens.len()).collect();
                        let what = format!("{what}: round {r} seq {s}");
                        if let (0, Some(last)) = (r, got.last()) {
                            let mut alone = m.new_cache();
                            let h = m.prefill(tokens, &mut alone, &nl, mode, &SerialExecutor);
                            assert_eq!(bits(last), bits(&h), "{what}: prefill");
                        }
                        for (&t, got) in tokens.iter().zip(got) {
                            let want = m.decode_step(cache, t, &nl, mode);
                            assert_eq!(bits(got), bits(&want), "{what}: step");
                        }
                    }
                    assert!(rows.next().is_none());
                }
                for (s, (got, want)) in caches.iter().zip(&oracle).enumerate() {
                    assert_eq!(got.len(), want.len(), "{what}: seq {s} length");
                    for l in 0..got.layers() {
                        assert_eq!(
                            bits(&got.keys(l)),
                            bits(&want.keys(l)),
                            "{what}: seq {s} K {l}"
                        );
                        assert_eq!(bits(&got.v[l]), bits(&want.v[l]), "{what}: seq {s} V {l}");
                    }
                }
            }
        }
    }

    /// `greedy_tokens` at one to four lanes == `greedy_token` row by row ==
    /// a first-max loop over the row-major embedding, for B = 1…9 and
    /// vocabularies that leave a partial last panel. The rows include one
    /// whose logits are all negative and greatest in the last panel (its
    /// zero padding must not win), an all-zero row (every logit ties: id
    /// 0), and rows holding NaN and ±inf.
    #[test]
    fn greedy_tokens_match_the_serial_first_max() {
        for vocab in [37usize, 128, 129] {
            let cfg = TransformerConfig {
                vocab,
                ..TransformerConfig::roberta_tiny()
            };
            let d = cfg.hidden;
            let mut m = BertModel::new_synthetic(cfg, 4);
            // Column 0 positive and smallest at the last id, so the row
            // (−1, 0, …) reads only negative logits, the greatest at vocab−1.
            let mut e = m.token_embedding.unpack().transposed();
            for (t, row) in e.rows_iter_mut().enumerate() {
                row[0] = 1.0 + (vocab - 1 - t) as f32 / 256.0;
            }
            m.token_embedding = crate::gemm::LmHead::new(e.clone());
            let mut negative = vec![0.0f32; d];
            negative[0] = -1.0;
            let mut pool = vec![negative, vec![0.0; d]];
            for (c, special) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
                .into_iter()
                .enumerate()
            {
                let mut row = m.embed(&[c + 5]).into_vec();
                row[c + 1] = special;
                pool.push(row);
            }
            pool.extend((0..4).map(|s| m.embed(&prompt(1, 11 * s)).into_vec()));
            let first_max = |h: &[f32]| {
                let mut best = (0usize, f32::NEG_INFINITY);
                for (t, e_row) in e.rows_iter().enumerate() {
                    let mut logit = 0.0f32;
                    for (&hv, &ev) in h.iter().zip(e_row) {
                        logit += hv * ev;
                    }
                    if logit > best.1 {
                        best = (t, logit);
                    }
                }
                best.0
            };
            assert_eq!(first_max(&pool[0]), vocab - 1);
            for b in 1..=9usize {
                let rows: Vec<f32> = (0..b)
                    .flat_map(|i| pool[(i + b) % pool.len()].clone())
                    .collect();
                let hidden = Matrix::from_vec(b, d, rows);
                let want: Vec<usize> = hidden.rows_iter().map(first_max).collect();
                let one: Vec<usize> = hidden.rows_iter().map(|h| m.greedy_token(h)).collect();
                assert_eq!(one, want, "vocab {vocab} B {b}: greedy_token");
                for lanes in 1..=4 {
                    let got = m.greedy_tokens(&hidden, &FakeLanes(lanes));
                    assert_eq!(got, want, "vocab {vocab} B {b} at {lanes} lanes");
                }
            }
        }
    }

    /// At a realistic vocabulary (2,003 ids: 126 panels, the last one
    /// partial) the screen drops most columns, so the tokens rest on its
    /// bound rather than on rescoring nearly every column. Hidden rows from
    /// `prefill` and `decode_batch`, in batches of one to eight, read at
    /// one to four lanes the row-major first max over the unpacked `E`.
    #[test]
    fn greedy_tokens_at_a_realistic_vocabulary() {
        let cfg = TransformerConfig {
            vocab: 2003,
            ..TransformerConfig::roberta_tiny()
        };
        let d = cfg.hidden;
        let m = BertModel::new_synthetic(cfg, 5);
        let e = m.token_embedding.unpack().transposed();
        let nl = Nonlinearity::exact();
        let mut caches: Vec<KvCache> = (0..4).map(|_| m.new_cache()).collect();
        let mut rows = Vec::new();
        for (s, cache) in caches.iter_mut().enumerate() {
            let p = prompt(6 + s, 13 * s);
            rows.extend(m.prefill(&p, cache, &nl, MatmulMode::F32, &SerialExecutor));
        }
        let mut steps: Vec<(&mut KvCache, usize)> =
            caches.iter_mut().zip([3, 1900, 77, 2002]).collect();
        let stepped = m.decode_batch(&mut steps, &nl, MatmulMode::F32, &SerialExecutor);
        rows.extend(stepped.into_vec());
        let first_max = |h: &[f32]| {
            let mut best = (0usize, f32::NEG_INFINITY);
            for (t, e_row) in e.rows_iter().enumerate() {
                let mut logit = 0.0f32;
                for (&hv, &ev) in h.iter().zip(e_row) {
                    logit += hv * ev;
                }
                if logit > best.1 {
                    best = (t, logit);
                }
            }
            best.0
        };
        for b in [1usize, 2, 3, 4, 8] {
            // The last `b` rows: up to four decode rows, or all eight.
            let hidden = Matrix::from_vec(b, d, rows[(8 - b) * d..].to_vec());
            let want: Vec<usize> = hidden.rows_iter().map(first_max).collect();
            for lanes in 1..=4 {
                let got = m.greedy_tokens(&hidden, &FakeLanes(lanes));
                assert_eq!(got, want, "B {b} at {lanes} lanes");
            }
        }
    }

    /// Stored as Eᵀ panels, the embedding still reads back E's rows plus
    /// the position rows, bit for bit, through `embed` and `embed_into`.
    #[test]
    fn embedding_reads_back_token_plus_position_rows() {
        let m = tiny_model();
        let e = m.token_embedding.unpack().transposed();
        let tokens = prompt(20, 3);
        let x = m.embed(&tokens);
        for (pos, &t) in tokens.iter().enumerate() {
            let want: Vec<f32> = e
                .row(t)
                .iter()
                .zip(m.pos_embedding.row(pos))
                .map(|(&a, &b)| a + b)
                .collect();
            assert_eq!(bits(x.row(pos)), bits(&want), "embed pos {pos}");
            let mut row = vec![f32::NAN; 64];
            m.embed_into(t, pos, &mut row);
            assert_eq!(bits(&row), bits(&want), "embed_into pos {pos}");
        }
    }

    /// Greedy generation is deterministic, prompt-sensitive, and length-
    /// capped exactly as documented.
    #[test]
    fn generate_is_deterministic_and_bounded() {
        let m = tiny_model();
        let nl = Nonlinearity::exact();
        let a = m.generate(&prompt(8, 2), 6, &nl, MatmulMode::F32);
        let b = m.generate(&prompt(8, 2), 6, &nl, MatmulMode::F32);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let c = m.generate(&prompt(8, 5), 6, &nl, MatmulMode::F32);
        assert_ne!(a, c, "different prompts should usually diverge");
        assert!(a.iter().all(|&t| t < 128), "tokens stay in vocabulary");
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq")]
    fn generate_rejects_overlong_budget() {
        let m = tiny_model();
        m.generate(&prompt(60, 0), 8, &Nonlinearity::exact(), MatmulMode::F32);
    }

    /// Failover semantics: re-prefilling `prompt ++ generated` rebuilds a
    /// cache bit-identical to the uninterrupted incremental one, so
    /// generation continues with identical tokens.
    #[test]
    fn cache_rebuild_resumes_identically() {
        let m = tiny_model();
        let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
        let nl = Nonlinearity::all_lut(&kit);
        let p = prompt(9, 4);
        let want = m.generate(&p, 8, &nl, MatmulMode::F32);

        // Interrupted run: 3 tokens in, the replica (and its cache) dies.
        let survived = &want[..3];
        // Rebuild: prefill prompt ++ survivors, continue for the rest.
        let mut rebuilt: Vec<usize> = p.clone();
        rebuilt.extend(survived);
        let tail = m.generate(&rebuilt, 8 - 3, &nl, MatmulMode::F32);
        let mut resumed = survived.to_vec();
        resumed.extend(tail);
        assert_eq!(resumed, want, "rebuilt cache diverged from fault-free run");
    }
}

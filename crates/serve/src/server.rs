//! The synchronous serving front door.
//!
//! [`LutServer`] owns a frozen [`BertModel`] and an [`NnLutKit`] whose
//! engines were baked at construction (the kit bakes on assembly — see
//! `nnlut_core::ops`), so the steady state does no training, no
//! conversion, no allocation of table state: submit → pack → encode →
//! respond. "Synchronous" means the caller's thread drives the queue;
//! the parallelism lives *inside* a batch (row ranges across the pool),
//! which is the right shape for a single-tenant CPU deployment and keeps
//! the whole layer deterministic — the serial oracle the asynchronous
//! door is tested against. For a concurrent front door with deadlines,
//! timed batch closes and backpressure, see
//! [`ShardedServer`](crate::ShardedServer).

use std::time::Instant;

use nnlut_core::NnLutKit;
use nnlut_tensor::Matrix;
use nnlut_transformer::{BertModel, MatmulMode, Nonlinearity, TransformerConfig};

use crate::batcher::{BatchPolicy, Batcher};
use crate::metrics::{BatchRecord, ServeMetrics};
use crate::pool::ThreadPool;

/// Identifier handed back by [`LutServer::submit`]; responses carry it so
/// callers can match answers to requests.
pub type RequestId = u64;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the pool (`1` = fully serial reference path).
    pub threads: usize,
    /// Dynamic batching policy (area budget + length buckets).
    pub policy: BatchPolicy,
    /// GEMM precision of the transformer body.
    pub mode: MatmulMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            policy: BatchPolicy::default_policy(),
            mode: MatmulMode::F32,
        }
    }
}

/// One finished encode request.
#[derive(Debug, Clone)]
pub struct EncodeResponse {
    /// The id returned at submission.
    pub id: RequestId,
    /// Final hidden states, `(tokens × hidden)`, pad rows stripped.
    pub hidden: Matrix,
    /// Real token count of the request.
    pub tokens: usize,
    /// Wall-clock latency of the batch this request rode in (the
    /// synchronous server's per-request latency).
    pub latency: std::time::Duration,
}

/// Validates a request against a model's shape at the door: rejecting
/// here beats panicking mid-batch. Shared by the synchronous and
/// asynchronous front doors.
///
/// # Panics
///
/// Panics if `tokens` is empty, longer than the model's `max_seq`, or
/// contains an out-of-vocabulary id.
pub(crate) fn validate_request(cfg: &TransformerConfig, tokens: &[usize]) {
    assert!(!tokens.is_empty(), "cannot submit an empty request");
    assert!(
        tokens.len() <= cfg.max_seq,
        "request length {} exceeds max_seq {}",
        tokens.len(),
        cfg.max_seq
    );
    for &t in tokens {
        assert!(t < cfg.vocab, "token id {t} out of vocabulary");
    }
}

/// [`validate_request`] for a generation's prompt, plus its token
/// budget: every generated position must fit the KV cache. Checked once,
/// at the sharded door ([`crate::ShardedServer`]) before it routes the
/// request; a replica trusts what the door hands it.
///
/// # Panics
///
/// Panics on the same prompts as [`validate_request`], if `max_new` is
/// zero, or if `prompt.len() + max_new` exceeds the model's `max_seq`.
pub(crate) fn validate_generate(cfg: &TransformerConfig, prompt: &[usize], max_new: usize) {
    validate_request(cfg, prompt);
    assert!(max_new > 0, "must generate at least one token");
    // `validate_request` bounds the prompt by `max_seq`, so the
    // subtraction cannot wrap; the sum `prompt.len() + max_new` could.
    assert!(
        max_new <= cfg.max_seq - prompt.len(),
        "prompt ({}) + max_new ({max_new}) exceeds max_seq {}",
        prompt.len(),
        cfg.max_seq
    );
}

/// The deterministic batching inference server over the baked LUT engines.
///
/// The LUT kit is deployed on all three non-linearity sites
/// ([`Nonlinearity::all_lut`]) — the paper's "Altogether" configuration —
/// at whatever precision the kit was assembled with (FP32 / FP16 / INT32
/// baked engines). Pooled and serial servers produce **bit-identical**
/// responses; see the crate docs for the contract and
/// `tests/serve_determinism.rs` for the proof.
///
/// # Examples
///
/// Length-bucketed admission keeps padding tight while `drain` still
/// returns responses in submission order:
///
/// ```
/// use nnlut_core::{train::TrainConfig, NnLutKit};
/// use nnlut_serve::{BatchPolicy, LutServer, ServerConfig};
/// use nnlut_transformer::{BertModel, TransformerConfig};
///
/// let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 7);
/// let kit = NnLutKit::train_with(16, 7, &TrainConfig::fast());
/// let config = ServerConfig {
///     policy: BatchPolicy::bucketed(vec![4, 16]),
///     ..ServerConfig::default()
/// };
/// let mut server = LutServer::new(model, kit, config);
/// let long = server.submit(vec![1; 20]); // overflow bucket
/// let short = server.submit(vec![2, 3]); // ≤4 bucket
/// let responses = server.drain();
/// assert_eq!(responses[0].id, long);     // submission order restored
/// assert_eq!(responses[1].id, short);
/// assert!(server.metrics().padding_efficiency() == 1.0); // no mixed-length padding
/// ```
#[derive(Debug, Clone)]
pub struct LutServer {
    model: BertModel,
    nl: Nonlinearity,
    pool: ThreadPool,
    batcher: Batcher,
    mode: MatmulMode,
    metrics: ServeMetrics,
    next_id: RequestId,
}

impl LutServer {
    /// Builds a server around a frozen model and a kit with pre-baked
    /// engines.
    pub fn new(model: BertModel, kit: NnLutKit, config: ServerConfig) -> Self {
        Self::with_backend(model, Nonlinearity::all_lut(&kit), config)
    }

    /// Builds a server with an explicit per-site backend selection (e.g.
    /// the exact-FP32 baseline for accuracy A/B serving).
    ///
    /// # Panics
    ///
    /// Panics if `config.mode` is [`MatmulMode::Codebook`] and the model
    /// has no baked codebooks — rejecting the misconfiguration at the
    /// door instead of mid-batch.
    pub fn with_backend(model: BertModel, nl: Nonlinearity, config: ServerConfig) -> Self {
        crate::check_codebook_mode(&model, config.mode);
        Self {
            model,
            nl,
            pool: ThreadPool::new(config.threads),
            batcher: Batcher::new(config.policy),
            mode: config.mode,
            metrics: ServeMetrics::new(),
            next_id: 0,
        }
    }

    /// The served model.
    pub fn model(&self) -> &BertModel {
        &self.model
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Requests waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.batcher.queue_depth()
    }

    /// Metrics accumulated over every batch served so far.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Enqueues an encode request, returning its id. No work happens
    /// until [`LutServer::step`] or [`LutServer::drain`].
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, longer than the model's `max_seq`, or
    /// contains an out-of-vocabulary id (rejecting at the door beats
    /// panicking mid-batch).
    pub fn submit(&mut self, tokens: Vec<usize>) -> RequestId {
        validate_request(self.model.config(), &tokens);
        let id = self.next_id;
        self.next_id += 1;
        self.batcher.push(id, tokens);
        id
    }

    /// Packs and encodes **one** batch (from the bucket whose front
    /// request is oldest). Returns the batch's responses (in submission
    /// order within the batch), or `None` if the queue was empty.
    pub fn step(&mut self) -> Option<Vec<EncodeResponse>> {
        let depth = self.batcher.queue_depth();
        let closed = self.batcher.next_closed_batch()?;
        let start = Instant::now();
        let hidden = self
            .model
            .encode_batch(&closed.batch, &self.nl, self.mode, &self.pool);
        let latency = start.elapsed();
        self.metrics.record(BatchRecord {
            sequences: closed.batch.sequences(),
            tokens: closed.batch.tokens(),
            padded_tokens: closed.batch.padded_tokens(),
            queue_depth: depth,
            latency,
            bucket: closed.bucket,
            reason: closed.reason,
            queue_waits: closed.queue_waits,
        });
        Some(
            closed
                .ids
                .into_iter()
                .zip(hidden)
                .map(|(id, hidden)| EncodeResponse {
                    id,
                    tokens: hidden.rows(),
                    hidden,
                    latency,
                })
                .collect(),
        )
    }

    /// Drains the whole queue batch by batch, returning every response in
    /// submission order (buckets may interleave dispatch, so the drain
    /// re-sorts by id before returning).
    pub fn drain(&mut self) -> Vec<EncodeResponse> {
        let mut out = Vec::new();
        while let Some(mut responses) = self.step() {
            out.append(&mut responses);
        }
        out.sort_by_key(|r| r.id);
        out
    }

    /// Convenience: submit a whole workload, drain it, and hand back the
    /// responses (still in submission order).
    pub fn serve(&mut self, requests: Vec<Vec<usize>>) -> Vec<EncodeResponse> {
        for tokens in requests {
            self.submit(tokens);
        }
        self.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlut_core::train::TrainConfig;
    use nnlut_transformer::TransformerConfig;

    fn tiny_server(threads: usize, policy: BatchPolicy) -> LutServer {
        let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9);
        let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
        LutServer::new(
            model,
            kit,
            ServerConfig {
                threads,
                policy,
                ..ServerConfig::default()
            },
        )
    }

    fn workload() -> Vec<Vec<usize>> {
        (0..7)
            .map(|r| {
                (0..(1 + (r * 11) % 23))
                    .map(|i| (i * 7 + r) % 128)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn serve_returns_every_request_in_order_with_metrics() {
        let mut server = tiny_server(1, BatchPolicy::default_policy());
        let responses = server.serve(workload());
        assert_eq!(responses.len(), 7);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.hidden.shape(), (workload()[i].len(), 64));
            assert_eq!(r.tokens, workload()[i].len());
        }
        assert_eq!(server.queue_depth(), 0);
        assert!(server.metrics().total_tokens() > 0);
        assert!(server.metrics().tokens_per_sec() > 0.0);
        assert!(server.metrics().latency_percentile(95.0).is_some());
        assert!(server.metrics().queue_wait_percentile(95.0).is_some());
    }

    #[test]
    fn responses_do_not_depend_on_batch_policy() {
        // F32 body + masked attention: the same request must produce the
        // same bits whether it was served alone, packed FIFO, or packed
        // through length buckets.
        let batched = tiny_server(1, BatchPolicy::default_policy()).serve(workload());
        let unbatched = tiny_server(1, BatchPolicy::unbatched()).serve(workload());
        let bucketed = tiny_server(1, BatchPolicy::bucketed(vec![4, 12])).serve(workload());
        for ((a, b), c) in batched.iter().zip(&unbatched).zip(&bucketed) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.hidden, b.hidden, "policy changed response {}", a.id);
            assert_eq!(a.id, c.id);
            assert_eq!(a.hidden, c.hidden, "buckets changed response {}", a.id);
        }
    }

    #[test]
    fn pooled_server_is_bit_identical_to_serial() {
        let serial = tiny_server(1, BatchPolicy::default_policy()).serve(workload());
        let pooled = tiny_server(4, BatchPolicy::default_policy()).serve(workload());
        for (a, b) in serial.iter().zip(&pooled) {
            for (x, y) in a.hidden.as_slice().iter().zip(b.hidden.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "pooled diverged on {}", a.id);
            }
        }
    }

    #[test]
    fn step_serves_exactly_one_batch() {
        let mut server = tiny_server(
            1,
            BatchPolicy {
                max_batch: 2,
                max_padded_tokens: 4096,
                bucket_edges: Vec::new(),
            },
        );
        for tokens in workload() {
            server.submit(tokens);
        }
        let first = server.step().unwrap();
        assert_eq!(first.len(), 2);
        assert_eq!(server.queue_depth(), 5);
        assert!(server.metrics().batches_served() == 1);
    }

    #[test]
    fn bucketed_drain_restores_submission_order() {
        let mut server = tiny_server(1, BatchPolicy::bucketed(vec![4]));
        // Alternate long/short so buckets dispatch out of id order.
        let lens = [20usize, 2, 18, 3, 16, 1];
        for len in lens {
            server.submit(vec![1; len]);
        }
        let responses = server.drain();
        let ids: Vec<RequestId> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        for (r, len) in responses.iter().zip(lens) {
            assert_eq!(r.tokens, len);
        }
        // Both buckets dispatched at least one batch.
        assert!(server.metrics().per_bucket().len() == 2);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn submit_rejects_bad_tokens_at_the_door() {
        tiny_server(1, BatchPolicy::default_policy()).submit(vec![10_000]);
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq")]
    fn submit_rejects_overlong_requests() {
        tiny_server(1, BatchPolicy::default_policy()).submit(vec![1; 65]);
    }
}

//! # nnlut-serve
//!
//! The serving layer of the NN-LUT reproduction: a synchronous serial
//! oracle and one asynchronous front door that take variable-length
//! encode and generation requests and drive the baked LUT engines at
//! full-machine width, without ever changing a bit of the answer.
//!
//! NN-LUT's pitch is that *one* generic LUT datapath serves every
//! non-linearity; this crate is the serving analogue — one generic
//! admission/batching/parallelism layer serves every workload:
//!
//! ```text
//! requests ──▶ length buckets ──▶ [`Batcher`] ──▶ [`ThreadPool`] ──▶ baked kernels
//!              (FIFO within       (pack/pad,       (row-range          (BakedLut &
//!               each bucket)       attn mask)       lanes)              friends)
//! ```
//!
//! * [`pool`] — a small **scoped-thread worker pool** (std-only; the
//!   build container has no rayon) implementing the transformer crate's
//!   [`nnlut_transformer::BatchExecutor`] seam with deterministic chunk
//!   assignment.
//! * [`batcher`] — **length-bucketed admission**: one FIFO queue per
//!   length bucket, packed/padded into fixed-shape
//!   [`nnlut_transformer::PaddedBatch`]es under a [`BatchPolicy`] budget,
//!   with deadline-aware batch-close planning ([`ClosePolicy`]) — plus a
//!   dedicated **decode plane**: live generations' single-token steps
//!   queue separately and close into wide [`ClosedDecodeBatch`]es under
//!   the same area budget, decode-priority but with prefill
//!   anti-starvation. One expiry call culls lapsed deadlines from both
//!   planes.
//! * [`server`] — the synchronous [`LutServer`], the serial oracle: the
//!   caller's thread drives `submit`/`step`/`drain`.
//! * [`async_server`] — the crate-private replica behind the shard door:
//!   `max_in_flight` identical worker threads each close, run and report
//!   one batch at a time (outcomes in completion order), requests carry
//!   optional deadlines, and under-filled batches close on age or
//!   deadline pressure. Encodes and generations share one
//!   admission path and one table of unresolved requests, so expiry,
//!   failure and the shutdown sweep each have one code path. A batch of
//!   either plane runs one way: its encodes through
//!   [`BertModel::encode_batch`](nnlut_transformer::BertModel::encode_batch),
//!   its generation members — prompts and decode steps alike — through
//!   one [`BertModel::extend`](nnlut_transformer::BertModel::extend)
//!   call, and their next tokens through one LM-head pass. The module
//!   also holds the door's public types: [`Ticket`], [`GenerateTicket`],
//!   [`ServeError`] and the per-replica [`AsyncServerConfig`].
//! * [`metrics`] — bounded streaming aggregates (O(sketch capacity), not
//!   O(batches served)): per-batch latency, queue-wait percentiles over a
//!   fixed-size [`QuantileSketch`], per-bucket padding efficiency,
//!   deadline misses and end-to-end tokens/sec; [`ServeMetrics::merge`]
//!   rolls replica snapshots up for the shard.
//! * [`shard`] — the replica-sharded [`ShardedServer`], the only
//!   asynchronous front door: `submit` returns a [`Ticket`], N replicas
//!   share one `Arc`-shared copy of the weights, join-shortest-queue
//!   routing by outstanding padded area, one admission door that rejects
//!   submissions above its [`ServePolicy`] watermark as
//!   [`ServeError::Overloaded`], a per-replica
//!   `Healthy → Degraded → Quarantined` health machine with
//!   stall watchdogs, front-of-queue failover under a retry budget, and
//!   exponential-backoff probe re-admission. The door has one admission
//!   path and one request table for both request kinds.
//! * [`fault`] — deterministic, seedable fault injection
//!   ([`FaultPlan`]): panic at batch *k* on replica *r*, stall for *d*,
//!   bounce an admission — keyed to event coordinates so chaos runs are
//!   reproducible (`tests/serve_chaos.rs`).
//! * [`trace`] — the structured-observability layer: every request
//!   carries a [`RequestTrace`] of monotonic-clock [`Stage`] events
//!   (queryable per-stage breakdown from the [`Ticket`]), and a bounded
//!   [`FlightRecorder`] ring journals fleet-wide events, frozen into an
//!   [`IncidentReport`] on health transitions, batch panics and stalls.
//!   Strictly passive — see the module docs.
//! * [`http`] — a dependency-free `std::net` listener serving
//!   `GET /healthz` (per-replica health), `GET /metrics`
//!   (Prometheus text exposition), `GET /trace` (recent flight-recorder
//!   events) and `GET /incident` (last incident snapshot) for the sharded
//!   fleet ([`ShardedServer::serve_http`]).
//!
//! ## Determinism contract
//!
//! The whole layer is built so that **pooled results are bit-identical to
//! serial results**, at all three baked precisions (FP32 / FP16 / INT32):
//!
//! 1. chunk boundaries are a pure function of `(work, lanes)`
//!    ([`nnlut_core::engine::chunk_ranges`]) — never of scheduling;
//! 2. every parallel kernel is row-local, and cross-row reductions (the
//!    INT8 per-tensor quantizer) stay serial — there are no
//!    atomics-ordered reductions anywhere;
//! 3. workers write disjoint row ranges; nothing is shared mutably;
//! 4. admission is FIFO within a length bucket and deadlines only decide
//!    *when* a batch closes, never the packing order, so batch
//!    composition stays a pure function of (arrival order, lengths,
//!    policy).
//!
//! `tests/serve_determinism.rs` property-tests the claim across thread
//! counts 1/2/4/8, NaN/inf payloads and batch sizes that don't divide
//! evenly; `tests/serve_async.rs` extends it to the asynchronous front
//! door ([`ShardedServer`]). The full story lives in
//! `docs/ARCHITECTURE.md`.
//!
//! ## Quickstart
//!
//! ```
//! use nnlut_core::{train::TrainConfig, NnLutKit};
//! use nnlut_serve::{BatchPolicy, LutServer, ServerConfig};
//! use nnlut_transformer::{BertModel, TransformerConfig};
//!
//! let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 42);
//! let kit = NnLutKit::train_with(16, 42, &TrainConfig::fast());
//! let mut server = LutServer::new(model, kit, ServerConfig::default());
//! server.submit(vec![1, 2, 3, 4]);
//! server.submit(vec![5, 6]);
//! let responses = server.drain();
//! assert_eq!(responses.len(), 2);
//! assert_eq!(responses[0].hidden.shape(), (4, 64));
//! assert!(server.metrics().tokens_per_sec() > 0.0);
//! ```
//!
//! For the asynchronous front door (tickets, deadlines, timed batch
//! closes) see [`ShardedServer`] and `examples/serve_async.rs`.

#![warn(missing_docs)]

pub mod async_server;
pub mod batcher;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod server;
pub mod shard;
pub mod trace;

pub use async_server::{AsyncServerConfig, GenerateResponse, GenerateTicket, ServeError, Ticket};
pub use batcher::{
    BatchPolicy, Batcher, ClosePolicy, CloseReason, CloseTarget, ClosedBatch, ClosedDecodeBatch,
    ServePolicy,
};
pub use fault::{BatchFault, Fault, FaultPlan, INJECTED_PANIC_PREFIX};
pub use http::{HttpHandle, HttpResponse};
pub use metrics::{
    BatchRecord, BucketStats, QuantileSketch, ServeMetrics, DEFAULT_SKETCH_CAPACITY,
};
pub use pool::ThreadPool;
pub use server::{EncodeResponse, LutServer, RequestId, ServerConfig};
pub use shard::{ReplicaHealth, ReplicaStatus, ShardConfig, ShardMetrics, ShardedServer};
pub use trace::{
    FlightEvent, FlightRecorder, IncidentReport, RequestTrace, Stage, TraceBreakdown, TraceConfig,
    TraceEvent, DEFAULT_RECORDER_CAPACITY,
};

/// Front-door guard both server constructors run: a config asking for
/// [`nnlut_transformer::MatmulMode::Codebook`] against a model whose
/// linears were never baked is a deployment error — fail at construction
/// with an actionable message, not mid-batch inside a worker thread.
///
/// # Panics
///
/// Panics if `mode` is `Codebook` and `model.has_codebooks()` is false.
pub(crate) fn check_codebook_mode(
    model: &nnlut_transformer::BertModel,
    mode: nnlut_transformer::MatmulMode,
) {
    assert!(
        mode != nnlut_transformer::MatmulMode::Codebook || model.has_codebooks(),
        "ServerConfig.mode = Codebook but the model has no baked codebooks — \
         call BertModel::bake_codebooks before constructing the server",
    );
}

//! # nnlut-transformer
//!
//! A BERT-style Transformer encoder with **pluggable non-linearity
//! backends**, plus the synthetic evaluation harness that reproduces the
//! NN-LUT paper's software evaluation (Tables 2 and 3).
//!
//! The paper's experiments follow one pattern: take a *frozen* fine-tuned
//! Transformer, swap its GELU / Softmax / LayerNorm implementations
//! (exact FP32 → NN-LUT / Linear-LUT / I-BERT, each independently), and
//! measure downstream task quality. This crate provides each ingredient:
//!
//! * [`config`] — model shapes: RoBERTa-like (LayerNorm + GELU) and
//!   MobileBERT-like (NoNorm + ReLU, where Softmax is the only true
//!   non-linearity — paper §4.3).
//! * [`backend`] — the [`backend::Nonlinearity`] selector: per-op choice of
//!   exact, LUT-kit (NN-LUT or Linear-LUT contents), or I-BERT integer.
//! * [`model`] — embeddings, multi-head attention, feed-forward, residuals;
//!   deterministic synthetic "pre-trained" bodies. Besides the
//!   single-sequence [`model::BertModel::encode`], the serving-oriented
//!   [`model::BertModel::encode_batch`] runs a whole padded
//!   [`model::PaddedBatch`] with mask-aware softmax.
//! * [`decode`] — incremental autoregressive decoding: per-sequence
//!   [`decode::KvCache`], causal [`model::BertModel::prefill`], single-token
//!   [`model::BertModel::decode_step`], and the batched forms continuous
//!   batching drives — all bit-identical to step-at-a-time serial decoding.
//! * [`exec`] — the [`exec::BatchExecutor`] seam the batched path is
//!   parallelized through (serial here; `nnlut-serve` provides the
//!   scoped-thread pool), with the determinism contract that makes pooled
//!   and serial execution bit-identical.
//! * [`quant`] — FP32 / FP16 / INT8 matrix-multiply modes (Table 2(b) runs
//!   the body in INT8; Table 3 in FP16).
//! * [`tasks`] — synthetic GLUE-like classification/regression tasks and a
//!   SQuAD-like span-extraction task (the module docs say why these
//!   substitute for the real datasets).
//! * [`head`] — frozen-body head training (the "fine-tuned downstream
//!   model" of the paper, with all Transformer parameters frozen).
//! * [`metrics`] — accuracy, Matthews correlation (CoLA), Pearson/Spearman
//!   (STS-B), token-level span F1 (SQuAD).
//! * [`eval`] — the end-to-end benchmark pipeline used by the Table 2/3
//!   reproduction binaries.

#![allow(clippy::needless_range_loop)] // parallel-array math reads clearest with explicit indices

pub mod backend;
pub mod config;
pub mod decode;
pub mod eval;
pub mod exec;
mod gemm;
pub mod head;
pub mod metrics;
pub mod model;
pub mod quant;
pub mod softermax;
pub mod tasks;

pub use backend::{Nonlinearity, OpImpl};
pub use config::TransformerConfig;
pub use decode::KvCache;
pub use eval::TaskBench;
pub use exec::{BatchExecutor, SerialExecutor};
pub use model::{BertModel, PaddedBatch};
pub use quant::{Linear, MatmulMode};

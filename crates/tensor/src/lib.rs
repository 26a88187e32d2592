//! Minimal dense linear-algebra substrate for the NN-LUT reproduction.
//!
//! The NN-LUT paper evaluates its approximation framework inside BERT-class
//! transformer models. This crate provides exactly the tensor machinery those
//! models need — no more:
//!
//! * [`Matrix`] — an owned, row-major `f32` matrix with blocked matrix
//!   multiplication, transposition, and row/column iteration.
//! * [`quant`] — symmetric INT8 quantization and an INT8-operand matmul
//!   for the paper's Table 2(b) body (products are summed in f32, not i32;
//!   see ROADMAP item 6).
//! * [`init`] — deterministic, seedable weight initializers (uniform, normal
//!   via Box–Muller, Xavier).
//! * [`stats`] — the reductions the evaluation harness needs (mean, variance,
//!   argmax, correlation coefficients).
//!
//! Everything is deterministic given a seed, and there are no SIMD
//! intrinsics — the goal is auditable reference semantics first. This crate
//! spawns no threads of its own, but it is *designed to be driven by them*:
//! the serving layer (`nnlut-serve`) splits work across a scoped thread
//! pool by row ranges, and the kernels here uphold the **determinism
//! contract** that makes pooled results bit-identical to serial ones:
//!
//! * Chunk boundaries never change per-element math. [`Matrix::matmul`] is
//!   the full-range call of [`Matrix::matmul_rows_into`]; each output row
//!   accumulates in a fixed k-block order that does not depend on which
//!   rows are computed alongside it, so any partition of the row space
//!   reproduces the serial bits.
//! * No atomics-ordered reductions. Reductions that cross rows (e.g. the
//!   per-tensor quantizer maximum in [`quant`]) are computed by a single
//!   serial pass — never accumulated concurrently — so their results do
//!   not depend on thread interleaving.
//! * Workers write disjoint [`Matrix::row_block_mut`] views; nothing is
//!   shared mutably, so there is no ordering to get wrong.

pub mod init;
pub mod matrix;
pub mod quant;
pub mod stats;

pub use matrix::Matrix;
pub use quant::{QuantizedMatrix, Quantizer};

//! # NN-LUT
//!
//! A faithful, from-scratch Rust reproduction of **"NN-LUT: Neural
//! Approximation of Non-Linear Operations for Efficient Transformer
//! Inference"** (Yu et al., DAC 2022).
//!
//! NN-LUT trains a tiny one-hidden-layer ReLU network against a costly
//! non-linear function (GELU, exp, 1/x, 1/sqrt(x), ...) and then transforms
//! the trained network *exactly* into a first-order lookup table, so that a
//! single table-lookup plus one multiply-accumulate replaces the original
//! operation in hardware.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the paper's contribution: LUTs, the approximator network,
//!   training, the exact NN-to-LUT conversion, input scaling, precision
//!   modes, calibration and the Linear-LUT baseline.
//! * [`tensor`] — minimal dense linear algebra and INT8 quantization.
//! * [`ibert`] — the I-BERT integer-only baseline kernels.
//! * [`transformer`] — a BERT-style encoder with pluggable non-linearity
//!   backends plus the synthetic evaluation harness.
//! * [`serve`] — the serving layer: deterministic scoped thread pool,
//!   length-bucketed deadline-aware request batcher, and two servers
//!   over the baked engines — the synchronous `LutServer` (the serial
//!   oracle) and the asynchronous front door `ShardedServer` (replicas
//!   with background workers, tickets, per-request deadlines,
//!   backpressure, failover) — with pooled results bit-identical to
//!   serial.
//! * [`hw`] — the 7 nm-class arithmetic-unit cost model (paper Table 4).
//! * [`npu`] — the cycle-level accelerator simulator (paper Table 5).
//!
//! The repository-level `README.md` quickstart and
//! `docs/ARCHITECTURE.md` (two-tier evaluation model, serving pipeline,
//! determinism contract) are the prose companions to these API docs.
//!
//! ## Quickstart
//!
//! ```
//! use nn_lut::core::{recipe, convert::nn_to_lut, funcs::TargetFunction};
//!
//! // Train a 16-entry NN-LUT for GELU with the paper's Table-1 recipe…
//! let net = recipe::train_for(TargetFunction::Gelu, 16, 42);
//! // …convert it exactly into a lookup table…
//! let lut = nn_to_lut(&net);
//! // …and use it as a drop-in replacement.
//! let approx = lut.eval(0.5_f32);
//! let exact = TargetFunction::Gelu.eval(0.5_f32);
//! assert!((approx - exact).abs() < 0.05);
//! ```

pub use nnlut_core as core;
pub use nnlut_hw as hw;
pub use nnlut_ibert as ibert;
pub use nnlut_npu as npu;
pub use nnlut_serve as serve;
pub use nnlut_tensor as tensor;
pub use nnlut_transformer as transformer;

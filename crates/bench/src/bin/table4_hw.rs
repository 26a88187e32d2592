//! **T4** — Table 4 reproduction: arithmetic-unit cost comparison from the
//! 7 nm-class component cost model (see `nnlut-hw` for the synthesis-flow
//! substitution).
//!
//! Run: `cargo run --release -p nnlut-bench --bin table4_hw`

use nnlut_hw::report::render_table4;

fn main() {
    println!("== Table 4: arithmetic-unit comparison (7nm-class cost model) ==\n");
    print!("{}", render_table4());
    println!();
    println!("Per-stage breakdown:");
    for unit in [
        nnlut_hw::nn_lut_unit(nnlut_hw::UnitPrecision::Int32, 16),
        nnlut_hw::ibert_unit(),
    ] {
        println!("  {}:", unit.name);
        for (stage, cost) in unit.stage_breakdown() {
            println!(
                "    {:<14} area {:>8.1} um2   delay {:>5.2} ns",
                stage, cost.area_um2, cost.delay_ns
            );
        }
    }
}

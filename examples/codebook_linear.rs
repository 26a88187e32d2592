//! Amortized GEMM quickstart: bake centroid codebooks onto a model and
//! serve its frozen linear layers by table lookup (`MatmulMode::Codebook`)
//! — the LUT-NN / TableNet idea wired through the full serving stack.
//!
//! The walk: calibrate (k-means over captured activation rows) → bake
//! (centroid·weight partial-product tables) → serve (nearest-centroid
//! assignment + gather-add instead of GEMM), then verify the two
//! properties the engine guarantees: bounded drift from the exact FP32
//! body, and pooled == serial bit-identity.
//!
//! Run: `cargo run --release --example codebook_linear`

use nn_lut::core::codebook::CodebookSpec;
use nn_lut::core::train::TrainConfig;
use nn_lut::core::NnLutKit;
use nn_lut::serve::{BatchPolicy, LutServer, ServerConfig};
use nn_lut::transformer::{BertModel, MatmulMode, Nonlinearity, TransformerConfig};

fn main() {
    // 1. A synthetic RoBERTa-tiny encoder and a mixed-length calibration
    //    workload (in production: a slice of real traffic).
    let mut model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 42);
    let calibration: Vec<Vec<usize>> = (0..16)
        .map(|r| (0..8 + (r * 5) % 24).map(|i| (i * 7 + r) % 128).collect())
        .collect();

    // 2. Bake: one F32 capture pass taps the input of all six linears per
    //    layer, reservoir-samples up to 256 rows each, learns one k-means
    //    codebook per 4-wide activation subvector group, and precomputes
    //    the centroid·weight partial-product tables. Deterministic: same
    //    seed + same data ⇒ identical tables on every machine.
    let spec = CodebookSpec::default(); // sub_len 4, 16 centroids, 8 Lloyd iters
    println!(
        "baking codebooks ({} centroids per {}-wide group) …",
        spec.centroids, spec.sub_len
    );
    model.bake_codebooks(&spec, &calibration, &Nonlinearity::exact(), 256);
    println!(
        "baked: {} KiB of partial-product tables across the model",
        model.codebook_table_bytes() / 1024
    );

    // 3. Serve it. The only change from an F32 deployment is the mode —
    //    admission, batching, pooling, sharding all behave identically.
    let kit = NnLutKit::train_with(16, 42, &TrainConfig::fast());
    let serve = |mode: MatmulMode, threads: usize| {
        let mut server = LutServer::new(
            model.clone(),
            kit.clone(),
            ServerConfig {
                threads,
                policy: BatchPolicy::default_policy(),
                mode,
            },
        );
        server.serve(calibration.clone())
    };
    let exact = serve(MatmulMode::F32, 1);
    let codebook = serve(MatmulMode::Codebook, 1);

    // 4. Accuracy: the served hidden states stay close to the exact FP32
    //    body — LayerNorm re-centers every sublayer, so per-layer lookup
    //    error does not compound freely.
    let (mut err, mut norm) = (0.0f64, 0.0f64);
    for (a, e) in codebook.iter().zip(&exact) {
        for (x, y) in a.hidden.as_slice().iter().zip(e.hidden.as_slice()) {
            err += f64::from(x - y).powi(2);
            norm += f64::from(*y).powi(2);
        }
    }
    println!(
        "relative error of codebook-served hidden states vs F32: {:.4}",
        (err / norm).sqrt()
    );

    // 5. Determinism: the gather kernel is row-local, so a pooled server
    //    reproduces the serial one bit for bit — same contract as every
    //    other mode, at every thread count.
    let pooled = serve(MatmulMode::Codebook, 4);
    let identical = pooled.iter().zip(&codebook).all(|(p, s)| {
        p.hidden
            .as_slice()
            .iter()
            .zip(s.hidden.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    println!("pooled (4 threads) == serial, bit for bit: {identical}");
    assert!(identical, "the determinism contract must hold");
}

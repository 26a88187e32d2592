//! The Table-1 training recipes: input ranges, initialization, and the
//! one-call training entry points used throughout the reproduction.

use crate::funcs::TargetFunction;
use crate::init::{init_for_seed, InitStrategy};
use crate::nn::ApproxNet;
use crate::train::{train, Dataset, SamplingMode, TrainConfig, TrainReport};

/// One row of the paper's Table 1, extended with the curvature orientation
/// used by the log-uniform initializer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recipe {
    /// The target non-linear operation.
    pub func: TargetFunction,
    /// Training input range.
    pub domain: (f32, f32),
    /// Weight/bias initialization strategy (Table 1 columns 4–5).
    pub init: InitStrategy,
    /// Whether the function's curvature concentrates at the upper domain
    /// edge (true for `exp` on (−256, 0], false for `1/x` and `1/√x`).
    pub curvature_at_hi: bool,
    /// Training-input sampling mode. The paper samples uniformly; this
    /// reproduction defaults the three large-dynamic-range functions to
    /// log-uniform sampling because a uniformly weighted L1 loss all but
    /// ignores the narrow knee of `exp` near 0 and of `1/x`, `1/√x` near 1
    /// (the AB-SAMP ablation bench quantifies the difference).
    pub sampling: SamplingMode,
}

/// Returns the Table-1 recipe for `func`.
///
/// | Function | Input data | Weight init | Bias init |
/// |---|---|---|---|
/// | GELU   | (−5, 5)     | Random | Random |
/// | Exp    | (−256, 0)   | Positive Random | Positive Random |
/// | Divide | (1, 1024)   | Negative Random | Positive Random |
/// | 1/SQRT | (0.1, 1024) | Negative Random | Positive Random |
///
/// Extension functions (erf/tanh/sigmoid/swish/h-swish) use the GELU row.
pub fn recipe_for(func: TargetFunction) -> Recipe {
    match func {
        TargetFunction::Exp => Recipe {
            func,
            domain: func.domain(),
            init: InitStrategy::positive_positive(),
            curvature_at_hi: true,
            sampling: SamplingMode::LogUniform,
        },
        TargetFunction::Recip | TargetFunction::Rsqrt => Recipe {
            func,
            domain: func.domain(),
            init: InitStrategy::negative_positive(),
            curvature_at_hi: false,
            sampling: SamplingMode::LogUniform,
        },
        _ => Recipe {
            func,
            domain: func.domain(),
            init: InitStrategy::random(),
            curvature_at_hi: false,
            sampling: SamplingMode::Uniform,
        },
    }
}

/// Trains an approximator for an arbitrary recipe / entry count / config.
///
/// Returns the trained network in **raw input coordinates** together with
/// the training report. `entries` is the LUT size the network will convert
/// into (`entries − 1` hidden neurons).
///
/// # Panics
///
/// Panics if `entries < 2` — a first-order LUT needs at least two segments
/// to be an approximator (one segment is just a line).
pub fn train_recipe(
    recipe: &Recipe,
    entries: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> (ApproxNet, TrainReport) {
    assert!(
        entries >= 2,
        "a LUT needs at least 2 entries, got {entries}"
    );
    let neurons = entries - 1;
    let data = Dataset::generate(
        |x| recipe.func.eval(x),
        recipe.domain,
        cfg.samples,
        recipe.sampling,
        recipe.curvature_at_hi,
        seed,
    )
    .expect("Table-1 domains are valid");
    let mut net = init_for_seed(recipe.init, neurons, recipe.curvature_at_hi, seed ^ 0xa5a5);
    let report = train(&mut net, &data, cfg, seed ^ 0x5a5a);
    (net.denormalized(recipe.domain.0, recipe.domain.1), report)
}

/// Same as [`train_recipe`] but over a custom domain (used by the input
/// scaling wrapper, which trains 1/√x on (1, K) instead of Table 1's
/// (0.1, 1024)).
pub fn train_recipe_with_domain(
    func: TargetFunction,
    domain: (f32, f32),
    entries: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> (ApproxNet, TrainReport) {
    let base = recipe_for(func);
    let recipe = Recipe { domain, ..base };
    train_recipe(&recipe, entries, cfg, seed)
}

/// Trains an `entries`-entry approximator for `func` with the paper's full
/// configuration ([`TrainConfig::paper`]).
///
/// # Panics
///
/// Panics if `entries < 2`.
pub fn train_for(func: TargetFunction, entries: usize, seed: u64) -> ApproxNet {
    train_recipe(&recipe_for(func), entries, &TrainConfig::paper(), seed).0
}

/// Trains with the reduced [`TrainConfig::fast`] configuration — same
/// algorithm, ~10× less work. Used by unit tests and doc examples.
///
/// # Panics
///
/// Panics if `entries < 2`.
pub fn train_for_fast(func: TargetFunction, entries: usize, seed: u64) -> ApproxNet {
    train_recipe(&recipe_for(func), entries, &TrainConfig::fast(), seed).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::nn_to_lut;
    use crate::metrics::mean_abs_error;

    #[test]
    fn recipes_match_table1() {
        let exp = recipe_for(TargetFunction::Exp);
        assert_eq!(exp.domain, (-256.0, 0.0));
        assert_eq!(exp.init, InitStrategy::positive_positive());
        let div = recipe_for(TargetFunction::Recip);
        assert_eq!(div.domain, (1.0, 1024.0));
        assert_eq!(div.init, InitStrategy::negative_positive());
        let rsqrt = recipe_for(TargetFunction::Rsqrt);
        assert_eq!(rsqrt.domain, (0.1, 1024.0));
        assert_eq!(rsqrt.init, InitStrategy::negative_positive());
        let gelu = recipe_for(TargetFunction::Gelu);
        assert_eq!(gelu.domain, (-5.0, 5.0));
        assert_eq!(gelu.init, InitStrategy::random());
    }

    #[test]
    fn fast_gelu_lut_is_accurate() {
        let net = train_for_fast(TargetFunction::Gelu, 16, 11);
        let lut = nn_to_lut(&net);
        assert_eq!(lut.entries(), 16);
        let err = mean_abs_error(
            |x| lut.eval(x),
            |x| TargetFunction::Gelu.eval(x),
            (-5.0, 5.0),
            2_000,
        );
        assert!(err < 0.03, "GELU L1 error {err}");
    }

    #[test]
    fn fast_exp_lut_is_accurate_near_zero() {
        let net = train_for_fast(TargetFunction::Exp, 16, 12);
        let lut = nn_to_lut(&net);
        // The region that matters for Softmax is (−10, 0].
        let err = mean_abs_error(
            |x| lut.eval(x),
            |x| TargetFunction::Exp.eval(x),
            (-10.0, 0.0),
            2_000,
        );
        assert!(err < 0.08, "exp L1 error near zero {err}");
    }

    #[test]
    #[should_panic(expected = "at least 2 entries")]
    fn one_entry_lut_panics() {
        let _ = train_for_fast(TargetFunction::Gelu, 1, 0);
    }

    #[test]
    fn custom_domain_recipe_trains() {
        let (net, report) = train_recipe_with_domain(
            TargetFunction::Rsqrt,
            (1.0, 1024.0),
            16,
            &TrainConfig::fast(),
            5,
        );
        assert!(report.final_loss < 0.05, "rsqrt loss {}", report.final_loss);
        // Training may push a few hinges slightly outside the domain, but
        // the bulk must stay inside it for the LUT to resolve the curve.
        let lut = nn_to_lut(&net);
        let inside = lut
            .breakpoints()
            .iter()
            .filter(|d| (0.0..=1100.0).contains(*d))
            .count();
        assert!(inside >= 10, "only {inside}/15 breakpoints near the domain");
    }
}

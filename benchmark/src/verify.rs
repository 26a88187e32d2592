//! The output check: a seeded sample of served results against the
//! serial oracles, and the approximation error of the same sample
//! against exact FP32.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nnlut_core::NnLutKit;
use nnlut_tensor::Matrix;
use nnlut_transformer::{BertModel, MatmulMode, Nonlinearity, PaddedBatch, SerialExecutor};

use crate::inputs::MAX_NEW;

/// Outcome of checking one run's sample.
pub struct Check {
    pub checked: usize,
    pub mismatches: Vec<String>,
    /// Frobenius error against `Nonlinearity::exact()` + FP32, relative
    /// to the exact outputs' norm: of each sampled encode's served hidden
    /// states, and of each sampled generation's prompt encoded under the
    /// served configuration.
    pub rel_err: f64,
}

enum Item<'a> {
    Encode(&'a [usize], &'a Matrix),
    Generate(&'a [usize], &'a [usize]),
}

/// `(mismatch, squared error, squared exact norm)` of one served output.
fn check_one(
    item: &Item<'_>,
    model: &BertModel,
    nl: &Nonlinearity,
    mode: MatmulMode,
) -> (Option<String>, f64, f64) {
    let encode = |tokens: &[usize], nl: &Nonlinearity, mode| {
        let batch = PaddedBatch::pack(&[tokens.to_vec()]);
        model
            .encode_batch(&batch, nl, mode, &SerialExecutor)
            .remove(0)
    };
    let (mismatch, served, tokens) = match item {
        Item::Encode(tokens, hidden) => {
            let same = bits(hidden.as_slice()) == bits(encode(tokens, nl, mode).as_slice());
            let mismatch = (!same).then(|| {
                format!(
                    "encode of {} tokens differs from the serial oracle",
                    tokens.len()
                )
            });
            (mismatch, (*hidden).clone(), *tokens)
        }
        Item::Generate(prompt, served_tokens) => {
            let oracle = model.generate(prompt, MAX_NEW, nl, mode);
            let mismatch = (oracle != *served_tokens).then(|| {
                format!(
                    "generation from a {}-token prompt: served {served_tokens:?}, oracle {oracle:?}",
                    prompt.len()
                )
            });
            // Tokens carry no error to measure; the prompt's hidden
            // states under the served configuration do.
            (mismatch, encode(prompt, nl, mode), *prompt)
        }
    };
    let reference = encode(tokens, &Nonlinearity::exact(), MatmulMode::F32);
    let (served, reference) = (served.as_slice(), reference.as_slice());
    let (mut err, mut norm) = (0.0f64, 0.0f64);
    for (s, r) in served.iter().zip(reference) {
        err += (f64::from(*s) - f64::from(*r)).powi(2);
        norm += f64::from(*r).powi(2);
    }
    (mismatch, err, norm)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Checks every kept output on two threads, one per core (the sample is
/// small and each item is a whole serial forward pass, so it splits well).
pub fn check(
    model: &BertModel,
    kit: &NnLutKit,
    mode: MatmulMode,
    encodes: &[(Vec<usize>, Matrix)],
    gens: &[(Vec<usize>, Vec<usize>)],
) -> Check {
    let nl = Nonlinearity::all_lut(kit);
    let items: Vec<Item<'_>> = gens
        .iter()
        .map(|(p, t)| Item::Generate(p, t))
        .chain(encodes.iter().map(|(t, h)| Item::Encode(t, h)))
        .collect();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = check_one(item, model, &nl, mode);
                results.lock().expect("a checker thread panicked").push(r);
            });
        }
    });
    let results = results.into_inner().expect("a checker thread panicked");
    let (err, norm) = results
        .iter()
        .fold((0.0, 0.0), |(e, n), r| (e + r.1, n + r.2));
    Check {
        checked: results.len(),
        mismatches: results.into_iter().filter_map(|r| r.0).collect(),
        rel_err: (err / norm.max(f64::MIN_POSITIVE)).sqrt(),
    }
}

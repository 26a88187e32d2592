//! `benchmark compare A B`: per (workload, metric), the medians and
//! quartiles of two sets of runs and a verdict under the bounds that
//! `BENCHMARK.json` fixes.
//!
//! A and B are files of result lines as `--out` appends them. Verdicts
//! follow the benchmark's rule: **better** when B wins at least nine
//! tenths of all (A, B) run pairs and the medians differ by more than A's
//! quartile distance; **unresolved** when A's own spread (quartile
//! distance over median) is wider than the bound, unless every run of B
//! beats every run of A; **worse** when B's median is worse than A's by
//! more than the bound; **same** otherwise. Per-layer metrics have no
//! bound, so they read only better or same.

use std::collections::BTreeMap;

use nnlut_bench::Json;

use crate::stats::{median, quartiles};

struct Bound {
    lower_is_better: bool,
    bound: Option<f64>,
}

/// Reads every metric's direction (and, for end-to-end metrics, bound)
/// from `BENCHMARK.json`.
fn bounds(text: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = Json::parse(text)?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("no {key} list"))?
        {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without `better`")?;
            out.insert(
                name.to_string(),
                Bound {
                    lower_is_better: better == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// `(workload, metric) → values` over every result line of `text`.
fn runs(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = Json::parse(line)?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("result line without a workload")?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err("result line without metrics".into());
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without a value")?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

fn verdict(a: &[f64], b: &[f64], rule: &Bound) -> &'static str {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return "unresolved";
    };
    // Signed so that positive means B is better.
    let gain = |x: f64, y: f64| if rule.lower_is_better { x - y } else { y - x };
    let spread = quartiles(a).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let pairs = a.len() * b.len();
    let wins = a
        .iter()
        .flat_map(|x| b.iter().map(move |y| gain(*x, *y)))
        .filter(|g| *g > 0.0)
        .count();
    if 10 * wins >= 9 * pairs && gain(ma, mb) > spread {
        return "better";
    }
    let Some(bound) = rule.bound else {
        return "same";
    };
    if spread / ma.abs() > bound && wins < pairs {
        "unresolved"
    } else if -gain(ma, mb) / ma.abs() > bound {
        "worse"
    } else {
        "same"
    }
}

pub fn compare(spec: &str, a: &str, b: &str) -> Result<String, String> {
    let rules = bounds(spec)?;
    let (ra, rb) = (runs(a)?, runs(b)?);
    let mut out = format!(
        "{:<16} {:<28} {:>12} {:>25} {:>12} {:>25}  verdict\n",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3"
    );
    let q = |xs: &[f64]| {
        quartiles(xs).map_or("n<2".to_string(), |(lo, hi)| format!("{lo:.4}..{hi:.4}"))
    };
    for ((workload, metric), va) in &ra {
        let Some(vb) = rb.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(rule) = rules.get(metric) else {
            continue;
        };
        out.push_str(&format!(
            "{workload:<16} {metric:<28} {:>12.4} {:>25} {:>12.4} {:>25}  {}\n",
            median(va).unwrap_or(f64::NAN),
            q(va),
            median(vb).unwrap_or(f64::NAN),
            q(vb),
            verdict(va, vb, rule)
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let lower = Bound {
            lower_is_better: true,
            bound: Some(0.1),
        };
        let a = [100.0, 101.0, 99.0, 100.5, 100.2];
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5, 82.0], &lower),
            "better"
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0, 118.0, 122.0], &lower),
            "worse"
        );
        assert_eq!(
            verdict(&a, &[100.1, 99.9, 100.3, 101.5, 98.8], &lower),
            "same"
        );
        let noisy = [50.0, 100.0, 150.0, 75.0, 125.0];
        assert_eq!(
            verdict(&noisy, &[100.0, 110.0, 90.0, 95.0, 105.0], &lower),
            "unresolved"
        );
        let higher = Bound {
            lower_is_better: false,
            bound: Some(0.1),
        };
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5, 82.0], &higher),
            "worse"
        );
    }

    #[test]
    fn reads_result_lines() {
        let text = "{\"workload\": \"encode\", \"seed\": 1, \"metrics\": {\"tok_s\": {\"value\": 5.0, \"unit\": \"tok/s\"}}}\n\
                    {\"workload\": \"encode\", \"seed\": 2, \"metrics\": {\"tok_s\": {\"value\": 7.0, \"unit\": \"tok/s\"}}}\n";
        let r = runs(text).unwrap();
        assert_eq!(
            r[&("encode".to_string(), "tok_s".to_string())],
            vec![5.0, 7.0]
        );
    }
}

//! End-to-end serving benchmark of the NN-LUT workspace.
//!
//! Drives the real front door (`ShardedServer`: 2 replicas × 1 encode
//! thread × 1 batch in flight) with seeded traffic, checks a sample of
//! the served outputs bit-for-bit against the serial oracles, and prints
//! the end-to-end metrics. `--trace 1` runs the same workload with the
//! flight recorder and an op-profiling sink on, replays its inputs op by
//! op, and prints the per-layer metrics instead. README.md has the
//! workloads, the metrics and how to compare two commits.
//!
//! ```text
//! benchmark --workload NAME|--all --seed S [--seconds N] [--trace 0|1] [--out F] [--smoke]
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! Every metric prints as a `workload.metric value unit` line, and the
//! last line of standard output is the run's result as one JSON object;
//! `--out F` also appends that object, tagged with workload and seed, to F.

mod compare;
mod drive;
mod inputs;
mod measure;
mod replay;
mod stats;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use nnlut_transformer::Nonlinearity;

use crate::drive::Source;
use crate::inputs::{Inputs, Workload};
use crate::measure::{pct, Metrics};
use crate::replay::Journal;

/// Least share of `encode_batch` wall time the replay's op spans must
/// cover for the op labels to be trusted.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    /// The workload to run here; `None` with `--all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut all = false;
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} takes a value"));
        match a.as_str() {
            "--workload" => {
                let name = value(a)?;
                args.workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--all" => all = true,
            "--seed" => args.seed = value(a)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value(a)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace` alone means on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => args.out = Some(PathBuf::from(value(a)?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_some() == all {
        return Err("name one --workload, or pass --all".into());
    }
    Ok(args)
}

/// One run's result: the JSON line's fields.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

impl Report {
    fn json(&self, tag: Option<(&str, u64)>) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        let tag = tag.map_or(String::new(), |(w, s)| {
            format!("\"workload\": \"{w}\", \"seed\": {s}, ")
        });
        format!(
            "{{{tag}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args, workload: Workload) -> Result<Report, String> {
    let name = workload.name();
    let cfg = drive::model_config(args.smoke);
    let inputs = Inputs::generate(workload, args.seed, cfg.vocab, cfg.max_seq);

    // Set up several times and report the median; only the last fleet
    // serves. Each fleet is shut down before the next is built, so the
    // repeats do not stack in memory.
    let setups = if args.trace { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut stack = None;
    for _ in 0..setups {
        drop(stack.take());
        let t = Instant::now();
        stack = Some(drive::start(workload, &cfg, &inputs, args.trace)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut stack = stack.expect("at least one set-up");

    let driven = drive::drive(&stack.server, &inputs, args.seconds);
    let serve = stack.server.metrics();
    let status = stack.server.status();
    let shard = stack.server.shard_metrics();
    stack.server.shutdown();
    let peak_rss = measure::peak_rss_mib()?;

    for source in [Source::Encode, Source::Generate] {
        let (sent, ok) = driven
            .done
            .iter()
            .filter(|d| d.source == source)
            .fold((0, 0), |(s, k), d| (s + 1, k + usize::from(d.ok)));
        if sent > 0 {
            println!(
                "{name}.requests.{} sent {sent} succeeded {ok} failed {} ({:.1} s window)",
                source.label(),
                sent - ok,
                (driven.end - driven.start).as_secs_f64()
            );
        }
    }
    println!(
        "{name}.shard failovers {} stalls {} retries_exhausted {}",
        shard.failovers, shard.stalls, shard.retries_exhausted
    );

    // The output check runs on a rebuilt, bit-identical model after the
    // fleet is gone, so it neither contends with the timed window nor
    // counts in the peak RSS above.
    let (kit, model) = drive::build_model(workload, &cfg, &inputs.calib);
    let check = verify::check(
        &model,
        &kit,
        workload.mode(),
        &driven.kept_encodes,
        &driven.kept_gens,
    );
    for m in &check.mismatches {
        eprintln!("{name}: MISMATCH {m}");
    }
    let expected = inputs.verify_encodes.len() + inputs.verify_prompts.len();
    println!(
        "{name}.check {} of {expected} sampled outputs match the serial oracle, {} mismatched",
        check.checked - check.mismatches.len(),
        check.mismatches.len()
    );
    let correct = check.mismatches.is_empty() && check.checked == expected;

    let enc_lat = measure::latencies(&driven.done, Source::Encode);
    let gen_lat = measure::latencies(&driven.done, Source::Generate);
    let (ttft, itl) = measure::generation_latencies(&driven.done);
    let dist = |label: &str, xs: &[f64]| {
        if !xs.is_empty() {
            println!(
                "{name}.{label} p50 {:.2} ms p90 {:.2} ms p95 {:.2} ms max {:.2} ms (n={})",
                pct(xs, 50.0),
                pct(xs, 90.0),
                pct(xs, 95.0),
                pct(xs, 100.0),
                xs.len()
            );
        }
    };
    dist("encode_latency", &enc_lat);
    dist("generation_latency", &gen_lat);
    dist("ttft", &ttft);
    dist("itl", &itl);
    dist("generator_lateness", &measure::lateness(&driven.done));

    // Like `tok_s`, the latency is the generations' where the workload
    // generates, else the encodes'.
    let latency = if gen_lat.is_empty() {
        &enc_lat
    } else {
        &gen_lat
    };
    let end_to_end: Metrics = vec![
        ("tok_s".into(), measure::tok_s(&driven), "tok/s"),
        ("latency_p50_ms".into(), pct(latency, 50.0), "ms"),
        ("rel_err".into(), check.rel_err, "ratio"),
        (
            "setup_s".into(),
            stats::median(&setup_s).unwrap_or(f64::NAN),
            "s",
        ),
        ("peak_rss_mib".into(), peak_rss, "MiB"),
    ];
    let metrics = if !args.trace {
        end_to_end
    } else {
        // Traced end-to-end numbers print for the overhead comparison
        // against untraced runs; the result carries the layers.
        for (n, v, u) in &end_to_end {
            println!("{name}.traced.{n} {v} {u}");
        }
        let lut = stack
            .profile
            .as_ref()
            .expect("traced runs attach a sink")
            .snapshot();
        let mut metrics = measure::live_layers(&driven, &serve, &status, &shard, &lut);

        // The replay runs on the workload's own inputs: its encode
        // requests where it has them, else its prompts.
        let encodes: Vec<Vec<usize>> = inputs
            .encodes
            .iter()
            .chain(&inputs.prompts)
            .take(64)
            .cloned()
            .collect();
        let prompts: Vec<Vec<usize>> = inputs
            .prompts
            .iter()
            .chain(&encodes)
            .take(16)
            .cloned()
            .collect();
        let mut journal = Journal::new(driven.start);
        journal.add_requests(&driven.done);
        let nl = Nonlinearity::all_lut(&kit);
        let replayed = replay::replay(
            &model,
            &nl,
            workload.mode(),
            &encodes,
            &prompts,
            &mut journal,
        )?;
        let coverage = replayed
            .iter()
            .find(|m| m.0 == "model.coverage")
            .map_or(0.0, |m| m.1);
        metrics.extend(replayed);

        let path = PathBuf::from(format!(
            "target/benchmark/spans-{name}-seed{}.jsonl",
            args.seed
        ));
        journal
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "{name}.spans {} written to {}",
            journal.spans.len(),
            path.display()
        );
        for (span, self_ms) in journal.self_times() {
            println!("{name}.self_time {span} {self_ms:.1} ms");
        }
        if coverage < MIN_COVERAGE {
            return Err(format!(
                "op spans cover {:.1}% of encode_batch wall time, below {:.0}%",
                coverage * 100.0,
                MIN_COVERAGE * 100.0
            ));
        }
        metrics
    };
    for (n, v, u) in &metrics {
        if !v.is_finite() {
            return Err(format!("{name}.{n} is not a finite number ({v})"));
        }
        println!("{name}.{n} {v} {u}");
    }
    Ok(Report {
        correct,
        attempted: driven.done.len(),
        failed: driven.done.iter().filter(|d| !d.ok).count(),
        metrics,
    })
}

/// `--all`: one child process per workload, so no workload's heap or
/// threads carry over into the next.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let rest: Vec<&String> = argv.iter().filter(|a| *a != "--all").collect();
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(&rest)
            .args(["--workload", w.name()])
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn compare_files(a: &str, b: &str) -> Result<String, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    compare::compare(&read("BENCHMARK.json")?, &read(a)?, &read(b)?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("usage: benchmark compare A.jsonl B.jsonl");
            return ExitCode::from(2);
        };
        return match compare_files(a, b) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return match run_all(&argv) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{}: seed {} · {} s · trace {} · {cores} cores available, 2 compute threads",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let report = match run(&args, w) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.out {
        let line = report.json(Some((w.name(), args.seed)));
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{line}\n").as_bytes()));
        if let Err(e) = appended {
            eprintln!("benchmark: append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", report.json(None));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlut_bench::Json;

    /// Every workload at smoke scale emits every metric `BENCHMARK.json`
    /// lists, untraced and traced, and passes its output check.
    #[test]
    fn every_listed_metric_is_emitted() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = Json::parse(&spec).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("a list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let listed = names("workloads");
        assert_eq!(listed.len(), Workload::ALL.len());
        for w in Workload::ALL {
            assert!(
                listed.iter().any(|n| n == w.name()),
                "{} not listed",
                w.name()
            );
            for trace in [false, true] {
                let args = Args {
                    workload: Some(w),
                    seed: 1,
                    seconds: 2.0,
                    trace,
                    smoke: true,
                    out: None,
                };
                let report = run(&args, w).expect("smoke run");
                assert!(report.correct, "{} failed its output check", w.name());
                assert_eq!(report.failed, 0);
                let key = if trace { "per_layer" } else { "end_to_end" };
                for metric in names(key) {
                    assert!(
                        report.metrics.iter().any(|m| m.0 == metric),
                        "{} (trace {trace}) does not emit {metric}",
                        w.name()
                    );
                }
            }
        }
    }
}

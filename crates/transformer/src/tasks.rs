//! Synthetic GLUE-like and SQuAD-like tasks.
//!
//! The paper evaluates on GLUE (8 tasks) and SQuAD v1.1. Those datasets
//! need real pre-trained language models to be meaningful; this
//! reproduction substitutes *synthetic* tasks whose labels are learnably
//! encoded in token statistics. What the substitution
//! preserves — and what the paper's claim is actually about — is the
//! sensitivity of a frozen feature extractor + trained head to
//! approximation error injected at the non-linear ops.
//!
//! Task structure mirrors GLUE's variety: binary classification (most
//! tasks), three-way classification (MNLI), regression scored by
//! Pearson/Spearman (STS-B), and Matthews correlation (CoLA). Per-task
//! label-noise rates mirror the difficulty spread of the real benchmark
//! (RTE hard, SST-2 easy).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Output structure of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Two classes, scored by accuracy (or Matthews correlation for CoLA).
    Binary,
    /// Three classes (MNLI), scored by accuracy.
    ThreeClass,
    /// Scalar target in [0, 5] (STS-B), scored by Pearson/Spearman.
    Regression,
}

/// The eight GLUE tasks of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlueTask {
    /// Paraphrase detection.
    Mrpc,
    /// Textual entailment (the hardest of the eight).
    Rte,
    /// Linguistic acceptability — scored by Matthews correlation.
    Cola,
    /// Sentiment (the easiest).
    Sst2,
    /// Semantic similarity regression — scored by Pearson/Spearman.
    StsB,
    /// Question-pair duplication.
    Qqp,
    /// NLI with three classes.
    Mnli,
    /// QA-derived entailment.
    Qnli,
}

impl GlueTask {
    /// All tasks in the paper's column order.
    pub const ALL: [GlueTask; 8] = [
        GlueTask::Mrpc,
        GlueTask::Rte,
        GlueTask::Cola,
        GlueTask::Sst2,
        GlueTask::StsB,
        GlueTask::Qqp,
        GlueTask::Mnli,
        GlueTask::Qnli,
    ];

    /// Upper-case display name matching the paper's table headers.
    pub fn name(self) -> &'static str {
        match self {
            GlueTask::Mrpc => "MRPC",
            GlueTask::Rte => "RTE",
            GlueTask::Cola => "CoLA",
            GlueTask::Sst2 => "SST-2",
            GlueTask::StsB => "STS-B",
            GlueTask::Qqp => "QQP",
            GlueTask::Mnli => "MNLI",
            GlueTask::Qnli => "QNLI",
        }
    }

    /// Output structure.
    pub fn kind(self) -> TaskKind {
        match self {
            GlueTask::StsB => TaskKind::Regression,
            GlueTask::Mnli => TaskKind::ThreeClass,
            _ => TaskKind::Binary,
        }
    }

    /// Number of classes (1 for regression).
    pub fn classes(self) -> usize {
        match self.kind() {
            TaskKind::Binary => 2,
            TaskKind::ThreeClass => 3,
            TaskKind::Regression => 1,
        }
    }

    /// Label-noise rate controlling task difficulty (mirrors the relative
    /// difficulty spread of real GLUE).
    pub fn label_noise(self) -> f32 {
        match self {
            GlueTask::Mrpc => 0.09,
            GlueTask::Rte => 0.17,
            GlueTask::Cola => 0.13,
            GlueTask::Sst2 => 0.035,
            GlueTask::StsB => 0.10,
            GlueTask::Qqp => 0.07,
            GlueTask::Mnli => 0.09,
            GlueTask::Qnli => 0.05,
        }
    }

    /// Deterministic per-task data seed.
    pub fn seed(self) -> u64 {
        match self {
            GlueTask::Mrpc => 0x11,
            GlueTask::Rte => 0x22,
            GlueTask::Cola => 0x33,
            GlueTask::Sst2 => 0x44,
            GlueTask::StsB => 0x55,
            GlueTask::Qqp => 0x66,
            GlueTask::Mnli => 0x77,
            GlueTask::Qnli => 0x88,
        }
    }
}

impl std::fmt::Display for GlueTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One classification/regression example.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Token-id sequence.
    pub tokens: Vec<usize>,
    /// Class id (as f32) for classification, or the scalar target for
    /// regression.
    pub label: f32,
}

/// A generated train/eval split.
#[derive(Debug, Clone)]
pub struct TaskData {
    /// Training examples (for head fitting).
    pub train: Vec<Example>,
    /// Evaluation examples (for scoring).
    pub eval: Vec<Example>,
    /// Number of classes (1 for regression).
    pub classes: usize,
}

/// Generates a synthetic GLUE-like dataset.
///
/// Class `c` examples draw each token from the vocabulary slice congruent
/// to `c` (mod `classes`) with probability `1 − token_noise`, else uniformly
/// — a bag-of-words signal a frozen-random-transformer + linear head can
/// learn. Classification labels are flipped with the task's
/// [`GlueTask::label_noise`], capping attainable accuracy below 100 % like
/// the real benchmark. Regression targets are the realized signal fraction
/// scaled to [0, 5] with additive noise.
///
/// # Panics
///
/// Panics if `vocab < 8` or `seq_len == 0`.
pub fn generate_glue(
    task: GlueTask,
    vocab: usize,
    seq_len: usize,
    n_train: usize,
    n_eval: usize,
) -> TaskData {
    assert!(vocab >= 8, "vocabulary too small for class-signal slices");
    assert!(seq_len > 0, "sequence length must be positive");
    let mut rng = StdRng::seed_from_u64(task.seed() ^ 0x6c7565); // "lue"
    let classes = task.classes().max(2); // regression uses 2 signal slices
    let token_noise = 0.25f32;
    let gen_split = |n: usize, rng: &mut StdRng| {
        (0..n)
            .map(|_| match task.kind() {
                TaskKind::Regression => {
                    // Signal fraction p drives the token mix; the target is
                    // the *realized* class-1 fraction (a pure function of
                    // the bag of words, so the feature→target mapping is
                    // learnable) plus label noise.
                    let p: f32 = rng.gen();
                    let tokens: Vec<usize> = (0..seq_len)
                        .map(|_| {
                            let class = if rng.gen::<f32>() < p { 1 } else { 0 };
                            draw_from_class(rng, vocab, classes, class)
                        })
                        .collect();
                    let realized = tokens.iter().filter(|&&t| t % classes == 1).count() as f32
                        / seq_len as f32;
                    let noise = (rng.gen::<f32>() - 0.5) * task.label_noise() * 5.0;
                    Example {
                        tokens,
                        label: (realized * 5.0 + noise).clamp(0.0, 5.0),
                    }
                }
                _ => {
                    let class = rng.gen_range(0..task.classes());
                    let tokens: Vec<usize> = (0..seq_len)
                        .map(|_| {
                            if rng.gen::<f32>() > token_noise {
                                draw_from_class(rng, vocab, classes, class)
                            } else {
                                rng.gen_range(0..vocab)
                            }
                        })
                        .collect();
                    let label = if rng.gen::<f32>() < task.label_noise() {
                        rng.gen_range(0..task.classes()) as f32
                    } else {
                        class as f32
                    };
                    Example { tokens, label }
                }
            })
            .collect()
    };
    let train = gen_split(n_train, &mut rng);
    let eval = gen_split(n_eval, &mut rng);
    TaskData {
        train,
        eval,
        classes: task.classes(),
    }
}

fn draw_from_class(rng: &mut StdRng, vocab: usize, classes: usize, class: usize) -> usize {
    // Vocabulary slice: ids congruent to `class` (mod classes).
    let per = vocab / classes;
    let k = rng.gen_range(0..per);
    (k * classes + class).min(vocab - 1)
}

/// One span-extraction example (SQuAD-like).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanExample {
    /// Token-id sequence.
    pub tokens: Vec<usize>,
    /// Answer start position (inclusive).
    pub start: usize,
    /// Answer end position (inclusive).
    pub end: usize,
}

/// A generated span-task split.
#[derive(Debug, Clone)]
pub struct SpanData {
    /// Training examples.
    pub train: Vec<SpanExample>,
    /// Evaluation examples.
    pub eval: Vec<SpanExample>,
}

/// Generates a SQuAD-like span-extraction dataset.
///
/// The last 16 vocabulary ids form an "answer vocabulary"; each example
/// hides a contiguous answer span of 2–4 such tokens in a context of
/// ordinary tokens, with 4 % distractor answer-tokens sprinkled in so the
/// head cannot be trivially perfect.
///
/// # Panics
///
/// Panics if `vocab < 32` or `seq_len < 8`.
pub fn generate_squad(vocab: usize, seq_len: usize, n_train: usize, n_eval: usize) -> SpanData {
    assert!(vocab >= 32, "vocabulary too small for an answer slice");
    assert!(seq_len >= 8, "sequence too short for spans");
    let answer_lo = vocab - 16;
    let mut rng = StdRng::seed_from_u64(0x5155_4144); // "QUAD"
    let gen_split = |n: usize, rng: &mut StdRng| {
        (0..n)
            .map(|_| {
                let span_len = rng.gen_range(2..=4usize);
                let start = rng.gen_range(0..seq_len - span_len);
                let end = start + span_len - 1;
                let tokens: Vec<usize> = (0..seq_len)
                    .map(|i| {
                        // In-span positions always draw from the answer
                        // vocabulary; context positions only with the 2%
                        // distractor probability (short-circuit keeps the
                        // RNG call sequence identical to the two-branch
                        // form, preserving generated datasets).
                        let answer_token = (i >= start && i <= end) || rng.gen::<f32>() < 0.02;
                        if answer_token {
                            rng.gen_range(answer_lo..vocab)
                        } else {
                            rng.gen_range(0..answer_lo)
                        }
                    })
                    .collect();
                SpanExample { tokens, start, end }
            })
            .collect()
    };
    SpanData {
        train: gen_split(n_train, &mut rng),
        eval: gen_split(n_eval, &mut rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_tasks_have_paper_names() {
        let names: Vec<&str> = GlueTask::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            ["MRPC", "RTE", "CoLA", "SST-2", "STS-B", "QQP", "MNLI", "QNLI"]
        );
    }

    #[test]
    fn task_kinds_match_glue() {
        assert_eq!(GlueTask::StsB.kind(), TaskKind::Regression);
        assert_eq!(GlueTask::Mnli.kind(), TaskKind::ThreeClass);
        assert_eq!(GlueTask::Cola.kind(), TaskKind::Binary);
        assert_eq!(GlueTask::Mnli.classes(), 3);
        assert_eq!(GlueTask::StsB.classes(), 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_glue(GlueTask::Sst2, 128, 16, 8, 8);
        let b = generate_glue(GlueTask::Sst2, 128, 16, 8, 8);
        assert_eq!(a.train, b.train);
        assert_eq!(a.eval, b.eval);
    }

    #[test]
    fn binary_labels_are_binary() {
        let d = generate_glue(GlueTask::Mrpc, 128, 16, 64, 64);
        for e in d.train.iter().chain(&d.eval) {
            assert!(e.label == 0.0 || e.label == 1.0);
            assert_eq!(e.tokens.len(), 16);
            assert!(e.tokens.iter().all(|&t| t < 128));
        }
    }

    #[test]
    fn mnli_has_three_classes() {
        let d = generate_glue(GlueTask::Mnli, 128, 16, 128, 16);
        let mut seen = [false; 3];
        for e in &d.train {
            seen[e.label as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all three classes present");
    }

    #[test]
    fn regression_targets_in_range() {
        let d = generate_glue(GlueTask::StsB, 128, 32, 64, 64);
        for e in &d.train {
            assert!((0.0..=5.0).contains(&e.label));
        }
        // Targets must vary (not all identical).
        let first = d.train[0].label;
        assert!(d.train.iter().any(|e| (e.label - first).abs() > 0.5));
    }

    #[test]
    fn classification_signal_is_present() {
        // Class-0 examples should contain more class-0-slice tokens than
        // class-1 examples do.
        let d = generate_glue(GlueTask::Sst2, 128, 32, 256, 1);
        let frac0 = |e: &Example| {
            e.tokens.iter().filter(|&&t| t % 2 == 0).count() as f32 / e.tokens.len() as f32
        };
        let mean0: f32 = d
            .train
            .iter()
            .filter(|e| e.label == 0.0)
            .map(frac0)
            .sum::<f32>()
            / d.train.iter().filter(|e| e.label == 0.0).count() as f32;
        let mean1: f32 = d
            .train
            .iter()
            .filter(|e| e.label == 1.0)
            .map(frac0)
            .sum::<f32>()
            / d.train.iter().filter(|e| e.label == 1.0).count() as f32;
        assert!(
            mean0 > mean1 + 0.2,
            "class token signal too weak: {mean0} vs {mean1}"
        );
    }

    #[test]
    fn squad_spans_are_consistent() {
        let d = generate_squad(128, 32, 32, 32);
        for e in d.train.iter().chain(&d.eval) {
            assert!(e.start <= e.end);
            assert!(e.end < e.tokens.len());
            assert!((2..=4).contains(&(e.end - e.start + 1)));
            // The span itself is made of answer-vocabulary tokens.
            for i in e.start..=e.end {
                assert!(e.tokens[i] >= 128 - 16);
            }
        }
    }
}

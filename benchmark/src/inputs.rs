//! The four workloads and their seeded inputs.
//!
//! Every token list, length and verification pick a run uses is drawn
//! here from `--seed` alone, before any server starts, so no input
//! depends on timing and the same seed always sends the same requests in
//! the same order. The generator is splitmix64, kept local so the
//! benchmark needs no RNG crate.

use nnlut_transformer::MatmulMode;

/// Draws per stratum block (see [`Rng::stratified`]).
const STRATUM: usize = 16;

/// Encode request lengths, every workload.
const ENCODE_LENGTHS: Lengths = Lengths::LogUniform(12, 128);

/// Tokens every generation asks for.
pub const MAX_NEW: usize = 6;

/// splitmix64: a 64-bit counter through a bijective finalizer.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// `n` uniform `[0, 1)` draws, block-stratified: every run of
    /// [`STRATUM`] consecutive draws holds one draw from each
    /// `1/STRATUM` slice, in seeded order. Any prefix therefore carries
    /// nearly the distribution's own quantiles, which keeps the
    /// seed-to-seed spread of a median length (and so of a median
    /// latency) far below that of independent draws.
    fn stratified(&mut self, n: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(n + STRATUM);
        while out.len() < n {
            let mut slots: Vec<usize> = (0..STRATUM).collect();
            self.shuffle(&mut slots);
            for s in slots {
                out.push((s as f64 + self.unit()) / STRATUM as f64);
            }
        }
        out.truncate(n);
        out
    }
}

/// A request-length distribution.
#[derive(Debug, Clone, Copy)]
pub enum Lengths {
    LogUniform(usize, usize),
    Uniform(usize, usize),
}

impl Lengths {
    fn at(self, q: f64) -> usize {
        match self {
            Lengths::LogUniform(lo, hi) => {
                let (a, b) = ((lo as f64).ln(), (hi as f64 + 1.0).ln());
                ((a + (b - a) * q).exp() as usize).clamp(lo, hi)
            }
            Lengths::Uniform(lo, hi) => (lo + (q * (hi - lo + 1) as f64) as usize).min(hi),
        }
    }
}

/// The traffic of a run: closed-loop encode clients and closed-loop
/// generation clients, either of them absent.
///
/// Every workload is a closed loop that keeps both replicas busy for the
/// whole window, because the 2-vCPU recording host's speed drifts by
/// 10–40% over minutes and every timing follows it. The timings of a saturated closed loop
/// follow the drift one for one. On a part-idle fleet queueing multiplies
/// it, and so does a fixed Poisson demand beside a closed loop, which
/// leaves the loop only the capacity left over (README.md has the
/// measurements).
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub encode_clients: usize,
    pub gen_clients: usize,
}

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Encode,
    Generate,
    Mixed,
    EncodeCodebook,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Encode,
        Workload::Generate,
        Workload::Mixed,
        Workload::EncodeCodebook,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Encode => "encode",
            Workload::Generate => "generate",
            Workload::Mixed => "mixed",
            Workload::EncodeCodebook => "encode_codebook",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn mode(self) -> MatmulMode {
        match self {
            Workload::EncodeCodebook => MatmulMode::Codebook,
            _ => MatmulMode::F32,
        }
    }

    pub fn load(self) -> Load {
        let load = |encode_clients, gen_clients| Load {
            encode_clients,
            gen_clients,
        };
        match self {
            // Identical load and inputs for both encode workloads: only
            // the matmul mode differs, so a GEMM change moves one and a
            // codebook-kernel change the other.
            Workload::Encode | Workload::EncodeCodebook => load(16, 0),
            Workload::Generate => load(0, 8),
            Workload::Mixed => load(1, 8),
        }
    }

    pub fn prompt_lengths(self) -> Lengths {
        match self {
            Workload::Mixed => Lengths::Uniform(128, 256),
            _ => Lengths::Uniform(32, 128),
        }
    }

    /// Served generations checked against serial `BertModel::generate`.
    pub fn verified_generations(self) -> usize {
        match self {
            Workload::Generate => 4,
            Workload::Mixed => 2,
            _ => 0,
        }
    }
}

/// Encodes whose responses are checked bit-for-bit against the serial
/// oracle, at most.
const VERIFIED_ENCODES: usize = 16;

/// The checked encodes are drawn from the first `VERIFY_ROUNDS` requests
/// per encode client, which every run sends in its first seconds —
/// `mixed`'s single client, at about one a second on a slow host,
/// included.
const VERIFY_ROUNDS: usize = 4;

/// Everything a run sends, drawn from the seed.
pub struct Inputs {
    pub load: Load,
    pub warmup: Vec<Vec<usize>>,
    /// Codebook calibration sequences (used only by `encode_codebook`).
    pub calib: Vec<Vec<usize>>,
    /// Encode requests, taken in order by whichever client is free
    /// (cycled if a run outpaces the pool).
    pub encodes: Vec<Vec<usize>>,
    /// Generation prompts, taken the same way.
    pub prompts: Vec<Vec<usize>>,
    /// Indices into `encodes` whose responses are verified.
    pub verify_encodes: Vec<usize>,
    /// Indices into `prompts` (all in the first round, so always sent)
    /// whose generations are verified.
    pub verify_prompts: Vec<usize>,
}

fn sequences(
    rng: &mut Rng,
    n: usize,
    lengths: Lengths,
    vocab: usize,
    max_len: usize,
) -> Vec<Vec<usize>> {
    rng.stratified(n)
        .into_iter()
        .map(|q| {
            let len = lengths.at(q).min(max_len);
            (0..len).map(|_| rng.below(vocab)).collect()
        })
        .collect()
}

/// Picks `k` distinct indices below `n`, sorted.
fn pick(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

impl Inputs {
    /// Draws every input of `workload`. Each kind of input has its own
    /// stream, so changing one client count does not reshuffle another's
    /// tokens.
    pub fn generate(workload: Workload, seed: u64, vocab: usize, max_seq: usize) -> Inputs {
        let load = workload.load();
        let stream = |s| Rng::new(seed, s);
        let mut rng = stream(1);
        let warmup = sequences(&mut rng, 4, ENCODE_LENGTHS, vocab, max_seq);
        let calib = sequences(&mut rng, 8, Lengths::Uniform(32, 64), vocab, max_seq);

        let mut rng = stream(2);
        let (encodes, verify_encodes) = if load.encode_clients > 0 {
            let pool = sequences(&mut rng, 4096, ENCODE_LENGTHS, vocab, max_seq);
            let window = VERIFY_ROUNDS * load.encode_clients;
            (pool, pick(&mut rng, window, VERIFIED_ENCODES.min(window)))
        } else {
            (Vec::new(), Vec::new())
        };

        let mut rng = stream(3);
        let prompts = if load.gen_clients > 0 {
            let lengths = workload.prompt_lengths();
            sequences(&mut rng, 1024, lengths, vocab, max_seq - MAX_NEW)
        } else {
            Vec::new()
        };
        let verify_prompts = pick(&mut rng, load.gen_clients, workload.verified_generations());
        Inputs {
            load,
            warmup,
            calib,
            encodes,
            prompts,
            verify_encodes,
            verify_prompts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(Workload::Mixed, 7, 50_265, 640);
        let b = Inputs::generate(Workload::Mixed, 7, 50_265, 640);
        let c = Inputs::generate(Workload::Mixed, 8, 50_265, 640);
        assert_eq!(a.encodes, b.encodes);
        assert_eq!(a.prompts, b.prompts);
        assert_ne!(a.encodes, c.encodes);
        assert_ne!(a.prompts, c.prompts);
    }

    #[test]
    fn lengths_stay_in_range_and_fit_the_model() {
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, 3, 50_265, 640);
            for t in &inputs.encodes {
                assert!((12..=128).contains(&t.len()));
            }
            for p in &inputs.prompts {
                assert!(p.len() + MAX_NEW <= 640);
            }
            let window = VERIFY_ROUNDS * inputs.load.encode_clients;
            assert_eq!(inputs.verify_encodes.len(), VERIFIED_ENCODES.min(window));
            assert!(inputs.verify_encodes.iter().all(|&i| i < window));
        }
    }
}

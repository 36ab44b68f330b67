//! Seeded randomness and order statistics.

/// splitmix64: small, seedable and independent of the program's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// A child generator for one named input stream, so that adding a
    /// stream never shifts the draws of another.
    pub fn fork(seed: u64, stream: &str) -> Rng {
        let mut h = seed;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Rng::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k ≤ 4` distinct indices below `n`, ascending, without allocating.
    pub fn choose4(&mut self, n: usize, k: usize) -> ([usize; 4], usize) {
        let k = k.min(4).min(n);
        let mut out = [0usize; 4];
        let mut len = 0;
        while len < k {
            let c = self.below(n);
            if !out[..len].contains(&c) {
                out[len] = c;
                len += 1;
            }
        }
        out[..len].sort_unstable();
        (out, len)
    }
}

/// Quantile of an unsorted sample, interpolating linearly between the
/// two nearest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FxHash-style hasher for the benchmark's own pattern sets (keys are
/// generated by the benchmark, not taken from outside input).
#[derive(Default, Clone, Copy)]
pub struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

pub type FastBuild = std::hash::BuildHasherDefault<FastHasher>;

/// The fastest of repeated timings of one operation.
///
/// The host the benchmark was tuned on is shared: a neighbour's load
/// slows stretches of a run, up to whole runs, by 10–50%, and it only
/// ever slows. The best of several repetitions spread over the run reads
/// the program's own cost and moves least with that load.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

//! Small statistics helpers and the seeded generator that makes every
//! workload input.

/// SplitMix64: a tiny, seedable generator. The benchmark derives every
/// input from `--seed` through it, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with mean `mean`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples per window of [`windowed_p50_p99`]. For 69 independent samples
/// the median of the window maximum is the 99th percentile
/// (`0.5^(1/69) ≈ 0.990`).
pub const TAIL_WINDOW: usize = 69;

/// `(p50, p99)` of latency series, each in arrival order (for example one
/// per client): the medians, over consecutive windows of
/// [`TAIL_WINDOW`] samples of a series, of each window's median and
/// maximum. For independent samples these estimate the 50th and 99th
/// percentiles; a burst of stalls from other load on the host moves only
/// the windows it falls in. With fewer than three windows it falls back
/// to the plain quantiles of all samples.
pub fn windowed_p50_p99(series: &[Vec<f64>]) -> (f64, f64) {
    let windows: Vec<&[f64]> = series.iter().flat_map(|s| s.chunks_exact(TAIL_WINDOW)).collect();
    if windows.len() < 3 {
        let all: Vec<f64> = series.concat();
        return (median(&all), quantile(&all, 0.99));
    }
    let p50s: Vec<f64> = windows.iter().map(|w| median(w)).collect();
    let maxes: Vec<f64> = windows.iter().map(|w| quantile(w, 1.0)).collect();
    (median(&p50s), median(&maxes))
}

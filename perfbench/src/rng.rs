//! The input generator's random source: SplitMix64, kept here so the
//! benchmark's inputs never change when the simulator's own RNG does.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, salted per use so workloads draw
    /// independent streams from one seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// One element of `items`.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() as u64) as usize]
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// A low-discrepancy stream in `[0, 1)`: the golden-ratio sequence from
/// a seeded start. Every prefix spreads evenly over the interval, so
/// runs of any length, under any seed, draw nearly the same mix.
#[derive(Debug, Clone)]
pub struct Spread(f64);

impl Spread {
    /// A stream whose start is drawn from `rng`.
    pub fn new(rng: &mut Rng) -> Self {
        Spread((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// The next point.
    fn next_unit(&mut self) -> f64 {
        self.0 = (self.0 + 0.618_033_988_749_894_9).fract();
        self.0
    }

    /// The next point mapped log-uniformly onto `lo..hi`, rounded to a
    /// multiple of `step`.
    pub fn next_log(&mut self, lo: u64, hi: u64, step: u64) -> u64 {
        let v = lo as f64 * (hi as f64 / lo as f64).powf(self.next_unit());
        ((v / step as f64).round() as u64 * step).clamp(lo, hi - step)
    }
}

/// The value nearest `v` (in multiples of `step`, within `lo..hi`)
/// that `taken` does not hold yet; records and returns it.
pub fn claim(
    taken: &mut std::collections::BTreeSet<u64>,
    v: u64,
    lo: u64,
    hi: u64,
    step: u64,
) -> u64 {
    for d in 0..(hi - lo) / step {
        for c in [v.checked_add(d * step), v.checked_sub(d * step)]
            .into_iter()
            .flatten()
        {
            if (lo..hi).contains(&c) && taken.insert(c) {
                return c;
            }
        }
    }
    panic!("no free value left in {lo}..{hi}");
}

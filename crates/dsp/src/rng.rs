//! Seedable random sampling for the simulator.
//!
//! Everything stochastic in the reproduction — AWGN, channel draws, the
//! random MAC delays of §7.2, payload generation — flows through
//! [`DspRng`], a self-contained xoshiro256** generator (seeded through
//! SplitMix64) with the Gaussian and complex-Gaussian sampling the
//! channel needs. Keeping the generator in-tree avoids an external
//! `rand` dependency and freezes the stream across toolchain updates;
//! Gaussian variates use the Box–Muller transform so the workspace does
//! not need `rand_distr` either.
//!
//! Every experiment takes an explicit `u64` seed, making all paper
//! figures regenerable bit-for-bit.

use crate::cplx::Cplx;
use std::f64::consts::PI;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic random source for channels, traffic, and MACs.
#[derive(Debug, Clone)]
pub struct DspRng {
    state: [u64; 4],
    /// Spare Gaussian variate from the last Box–Muller draw.
    spare: Option<f64>,
}

impl DspRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        DspRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            spare: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Skips the next `n` raw draws: afterwards the generator is where
    /// `n` calls of [`Self::next_u64`] would have left it. Each skipped
    /// draw costs one state update, far less than the Box–Muller
    /// transform a drawn Gaussian pays; a stream that knows how many
    /// draws each output spends can seek to any output this way.
    ///
    /// # Panics
    /// Panics if a spare Gaussian variate is pending: skipping raw
    /// draws under it would split a Box–Muller pair, so the skipped
    /// count would no longer map to whole variates.
    pub fn discard(&mut self, n: u64) {
        assert!(
            self.spare.is_none(),
            "discard would split a pending Box-Muller pair"
        );
        for _ in 0..n {
            self.next_u64();
        }
    }

    /// Derives an independent child generator; used to give each node or
    /// link its own stream so adding a node never perturbs the draws of
    /// another (important for paired "two consecutive runs" comparisons,
    /// §11.2).
    pub fn fork(&mut self, salt: u64) -> DspRng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
        DspRng::seed_from(s)
    }

    /// Stateless stream splitting: derives the generator for a
    /// `(seed, path)` pair without any parent generator to consume.
    ///
    /// Unlike [`Self::fork`], whose children depend on how many forks
    /// preceded them, `from_path` is a pure function of its arguments —
    /// the stream for `(seed, [LINK, from, to, packet])` is the same no
    /// matter when, where, or in what order it is derived. The Monte
    /// Carlo impairment layer leans on this: every per-packet channel
    /// realization is keyed on its coordinates, so trials can be
    /// evaluated in any order (or in parallel) and stay bit-identical
    /// to a serial sweep.
    ///
    /// Each path element is absorbed through a SplitMix64 round, so
    /// `[a, b]` and `[b, a]` (and different path lengths) yield
    /// unrelated streams.
    pub fn from_path(seed: u64, path: &[u64]) -> DspRng {
        let mut acc = seed ^ 0x6A09_E667_F3BC_C909; // domain-separate from seed_from
        for &p in path {
            let mut sm = acc ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            acc = splitmix64(&mut sm);
        }
        DspRng::seed_from(acc)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[lo, hi]` (inclusive) — the §7.2 random delay
    /// "picking a random number between 1 and 32".
    pub fn uniform_int(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_int: empty range {lo}..={hi}");
        let span = hi - lo + 1; // span == 0 means the full 2^64 range
        if span == 0 {
            return self.next_u64();
        }
        // Widening-multiply range reduction; bias is < 2^-64 per draw,
        // far below anything the experiments can resolve.
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// A random bit.
    pub fn bit(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `n` random bits (random payloads for the workload generators).
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.bit()).collect()
    }

    /// `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n);
        while v.len() < n {
            let chunk = self.next_u64().to_le_bytes();
            let take = (n - v.len()).min(8);
            v.extend_from_slice(&chunk[..take]);
        }
        v
    }

    /// Standard normal variate via Box–Muller.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Draw u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - self.uniform();
        let u2: f64 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * PI * u2).sin_cos();
        self.spare = Some(r * s);
        r * c
    }

    /// Circularly-symmetric complex Gaussian with total power
    /// `E[|z|²] = power` — the AWGN model of §8 ("a wireless channel with
    /// additive white Gaussian noise"). Each quadrature gets half the
    /// power.
    pub fn complex_gaussian(&mut self, power: f64) -> Cplx {
        let s = (power / 2.0).sqrt();
        Cplx::new(self.gaussian() * s, self.gaussian() * s)
    }

    /// Uniform phase in `(-π, π]` — used for random channel phase γ.
    pub fn phase(&mut self) -> f64 {
        self.uniform_range(-PI, PI)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = DspRng::seed_from(99);
        let mut b = DspRng::seed_from(99);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn forked_streams_are_independent_of_siblings() {
        let mut root1 = DspRng::seed_from(7);
        let mut root2 = DspRng::seed_from(7);
        let mut a1 = root1.fork(1);
        let _ = root1.fork(2); // extra fork must not change a1's stream
        let mut a2 = root2.fork(1);
        for _ in 0..10 {
            assert_eq!(a1.uniform().to_bits(), a2.uniform().to_bits());
        }
    }

    #[test]
    fn from_path_is_pure_and_order_free() {
        let draw = |path: &[u64]| DspRng::from_path(9, path).uniform().to_bits();
        // Pure: same coordinates, same stream, however often derived.
        assert_eq!(draw(&[1, 2, 3]), draw(&[1, 2, 3]));
        // Path order and length matter.
        assert_ne!(draw(&[1, 2, 3]), draw(&[3, 2, 1]));
        assert_ne!(draw(&[1, 2]), draw(&[1, 2, 0]));
        // Seed matters.
        assert_ne!(
            DspRng::from_path(9, &[5]).uniform().to_bits(),
            DspRng::from_path(10, &[5]).uniform().to_bits()
        );
        // Distinct from the plain seeded stream and from fork children.
        assert_ne!(
            DspRng::from_path(9, &[]).uniform().to_bits(),
            DspRng::seed_from(9).uniform().to_bits()
        );
    }

    #[test]
    fn from_path_neighbor_streams_uncorrelated() {
        // Adjacent packet indices must give unrelated draws (a cheap
        // smoke check against accidental lattice structure).
        let mut seen = std::collections::BTreeSet::new();
        for packet in 0..64u64 {
            seen.insert(DspRng::from_path(3, &[7, 11, packet]).next_u64());
        }
        assert_eq!(seen.len(), 64, "colliding neighbor streams");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = DspRng::seed_from(12345);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn discard_skips_raw_draws() {
        let mut drawn = DspRng::seed_from(5);
        let mut skipped = drawn.clone();
        for _ in 0..37 {
            drawn.next_u64();
        }
        skipped.discard(37);
        assert_eq!(skipped.next_u64(), drawn.next_u64());
        // A whole Box–Muller pair leaves no spare behind, so the stream
        // can be skipped again.
        drawn.gaussian();
        drawn.gaussian();
        drawn.discard(0);
    }

    #[test]
    #[should_panic(expected = "Box-Muller")]
    fn discard_refuses_to_split_a_gaussian_pair() {
        let mut rng = DspRng::seed_from(5);
        rng.gaussian();
        rng.discard(1);
    }

    #[test]
    fn complex_gaussian_power() {
        let mut rng = DspRng::seed_from(777);
        let n = 100_000;
        let p = (0..n)
            .map(|_| rng.complex_gaussian(4.0).norm_sq())
            .sum::<f64>()
            / n as f64;
        assert!((p - 4.0).abs() < 0.1, "power {p}");
    }

    #[test]
    fn uniform_int_bounds() {
        let mut rng = DspRng::seed_from(3);
        for _ in 0..1000 {
            let v = rng.uniform_int(1, 32);
            assert!((1..=32).contains(&v));
        }
        // all endpoints reachable
        let draws: Vec<u64> = (0..2000).map(|_| rng.uniform_int(1, 4)).collect();
        for t in 1..=4 {
            assert!(draws.contains(&t));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DspRng::seed_from(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn phase_in_range() {
        let mut rng = DspRng::seed_from(21);
        for _ in 0..1000 {
            let p = rng.phase();
            assert!(p > -PI - 1e-12 && p <= PI + 1e-12);
        }
    }

    #[test]
    fn bits_are_balanced() {
        let mut rng = DspRng::seed_from(31);
        let bits = rng.bits(10_000);
        let ones = bits.iter().filter(|&&b| b).count();
        assert!((4000..6000).contains(&ones));
    }

    #[test]
    fn bytes_have_exact_length() {
        let mut rng = DspRng::seed_from(41);
        for n in [0, 1, 7, 8, 9, 31] {
            assert_eq!(rng.bytes(n).len(), n);
        }
    }
}

//! FNV-1a folding and seed mixing.

/// FNV-1a over 64-bit words, the fold `CityOutcome::fingerprint` uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::default();
    for w in words {
        h.eat(w);
    }
    h.finish()
}

/// SplitMix64 finaliser over `(seed, index)`: well-spread, distinct
/// seeds for consecutive realizations.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

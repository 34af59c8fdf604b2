#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Offline, deterministic stand-in for the `rand` crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this crate re-implements **exactly the API subset the workspace uses** —
//! [`rngs::StdRng`], [`SeedableRng`], the [`Rng`] source trait, the
//! [`RngExt`] convenience extension (`random`, `random_range`), and
//! [`seq::SliceRandom`] (`shuffle`, `choose`) — with the same names and call
//! signatures, so swapping the real `rand` back in later is a one-line
//! `Cargo.toml` change. Apart from the two seed-derivation functions
//! [`split_mix64`] and [`derive_stream_seed`], plain arithmetic on `u64`
//! that needs no generator, it adds nothing the real crate lacks. In
//! particular a generator's state can be neither read nor set: a resumed
//! optimizer run reaches its RNG position by replaying its seeded draws.
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64: a small, fast, well-tested PRNG whose statistical quality is
//! far beyond what the Monte-Carlo acquisition estimates and randomized
//! baselines here need. Streams are **stable across platforms and releases of
//! this workspace**: every seed documents a reproducible experiment, which is
//! what `CmmfConfig::seed` and the paper-reproduction harnesses rely on
//! (see `ARCHITECTURE.md`, "Determinism & parallelism").

/// A source of random 64-bit words. The minimal trait bound used by generic
/// samplers in this workspace (e.g. `EipvScorer::eipv_mc`).
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (high half of [`Rng::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        // cmmf-lint: allow(D6) -- value is < 2^32 by the shift; the cast is a lossless relabel
        (self.next_u64() >> 32) as u32
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types constructible from a seed. Mirrors `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed;

    /// Constructs the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs the generator from a `u64` via SplitMix64 expansion.
    fn seed_from_u64(state: u64) -> Self;
}

/// SplitMix64 step: expands sparse user seeds into well-mixed state words.
/// Public so callers can derive independent per-task seeds from a base seed
/// (the per-candidate RNG-stream scheme of the parallel optimizer).
#[inline]
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent stream seed from a base seed and a list of tags
/// (e.g. `[iteration, candidate, stage]`). The foundation of the optimizer's
/// per-candidate RNG-stream scheme: every parallel work item draws from its
/// own deterministic stream, so results do not depend on scheduling order or
/// thread count. Tag order matters; distinct tag lists give (with overwhelming
/// probability) uncorrelated streams.
pub fn derive_stream_seed(base: u64, tags: &[u64]) -> u64 {
    let mut state = base ^ 0xD6E8_FEB8_6659_FD93;
    let mut out = split_mix64(&mut state);
    for &t in tags {
        state ^= t.wrapping_mul(0xA24B_AED4_963E_E407);
        out ^= split_mix64(&mut state);
    }
    out
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman & Vigna).
    /// Deterministic, platform-independent, 256-bit state.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            // An all-zero state is a fixed point of xoshiro; nudge it.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            StdRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let s = [
                super::split_mix64(&mut sm),
                super::split_mix64(&mut sm),
                super::split_mix64(&mut sm),
                super::split_mix64(&mut sm),
            ];
            StdRng { s }
        }
    }
}

/// Uniform sampling of a type over its "natural" full range
/// (`[0, 1)` for floats). Mirrors `rand`'s `StandardUniform` distribution.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for usize {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // cmmf-lint: allow(D6) -- uniform random bits: truncation to the platform word is the sample
        rng.next_u64() as usize
    }
}

/// Ranges a uniform value can be drawn from. Mirrors `rand`'s `SampleRange`.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Modulo bias is < 2^-64 per draw for the spans used here
                // (all far below 2^32) — irrelevant next to MC noise.
                let draw = (rng.next_u64() as u128) % span;
                (self.start as i128 + draw as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let draw = (rng.next_u64() as u128) % span;
                (lo as i128 + draw as i128) as $t
            }
        }
    )*};
}
int_sample_range!(usize, u64, u32, u16, u8, i64, i32, i16, i8);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let u = <$t as Standard>::sample(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let u = <$t as Standard>::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
float_sample_range!(f64, f32);

/// Convenience sampling methods on any [`Rng`]. Mirrors the modern `rand`
/// method names (`random`, `random_range`, `random_bool`).
pub trait RngExt: Rng {
    /// One value of `T` from its standard distribution (`[0,1)` for floats).
    #[inline]
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// One value uniform in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Slice utilities. Mirrors `rand::seq`.
pub mod seq {
    use super::{Rng, RngExt};

    /// Random slice operations. Mirrors `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly chosen element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn floats_are_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let i = rng.random_range(3..17usize);
            assert!((3..17).contains(&i));
            let f = rng.random_range(-2.0..=2.0f64);
            assert!((-2.0..=2.0).contains(&f));
        }
        // Every bucket of a small range is hit.
        let mut hits = [false; 5];
        for _ in 0..1000 {
            hits[rng.random_range(0..5usize)] = true;
        }
        assert!(hits.iter().all(|&h| h));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn from_seed_uses_all_bytes() {
        let mut s1 = [0u8; 32];
        let mut s2 = [0u8; 32];
        s2[31] = 1;
        let mut a = StdRng::from_seed(s1);
        let mut b = StdRng::from_seed(s2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
        s1[0] = 9;
        let _ = StdRng::from_seed(s1);
    }
}

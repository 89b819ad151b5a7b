//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small slice of the rand 0.9 API it actually
//! uses: [`rngs::SmallRng`] (xoshiro256++, the same algorithm rand 0.9
//! uses for its 64-bit `SmallRng`), [`SeedableRng::seed_from_u64`]
//! (SplitMix64 seeding, as upstream), [`Rng::random`] for `f64`/`bool`,
//! and [`Rng::random_range`] over integer ranges (Lemire's widening
//! multiply, bias-free for the range sizes used here).
//!
//! The exact output stream is not bit-identical to crates.io rand —
//! callers in this workspace only rely on determinism for a fixed seed
//! and on sound uniform distributions, both of which hold.

use std::ops::{Bound, RangeBounds};

/// Seedable random number generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Create a generator from a `u64` seed via SplitMix64 expansion.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly over their whole domain by [`Rng::random`].
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random bits into [0, 1), matching upstream's Standard f64.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

/// Integer types usable with [`Rng::random_range`].
pub trait UniformInt: Copy + PartialOrd {
    /// Lossless widening to the sampling domain.
    fn to_i128(self) -> i128;
    /// Narrowing back after sampling (the value is in range by construction).
    fn from_i128(v: i128) -> Self;
    /// Largest representable value, for unbounded upper ends.
    const MAX: Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn to_i128(self) -> i128 { self as i128 }
            #[inline]
            fn from_i128(v: i128) -> Self { v as $t }
            const MAX: Self = <$t>::MAX;
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, i128);

/// The raw generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Sample a value uniformly over `T`'s domain.
    #[inline]
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Sample uniformly from an integer range (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn random_range<T: UniformInt, B: RangeBounds<T>>(&mut self, range: B) -> T
    where
        Self: Sized,
    {
        let lo = match range.start_bound() {
            Bound::Included(&v) => v.to_i128(),
            Bound::Excluded(&v) => v.to_i128() + 1,
            Bound::Unbounded => panic!("random_range requires a lower bound"),
        };
        let hi = match range.end_bound() {
            Bound::Included(&v) => v.to_i128(),
            Bound::Excluded(&v) => v.to_i128() - 1,
            Bound::Unbounded => T::MAX.to_i128(),
        };
        assert!(lo <= hi, "cannot sample from empty range");
        let span = (hi - lo + 1) as u128;
        if span == 0 || span > u64::MAX as u128 {
            // Full 64-bit domain: a raw word is already uniform.
            return T::from_i128(lo + self.next_u64() as i128);
        }
        // Lemire's widening-multiply method with rejection of the biased
        // low zone; the loop terminates with overwhelming probability.
        let span = span as u64;
        let zone = span.wrapping_neg() % span;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (span as u128);
            if (m as u64) >= zone {
                return T::from_i128(lo + (m >> 64) as i128);
            }
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators (subset of `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — the algorithm behind rand 0.9's 64-bit `SmallRng`.
    /// Fast, small-state, and statistically strong for simulation use;
    /// not cryptographically secure (neither is upstream `SmallRng`).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            let s = [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let v = rng.random_range(0..3u64);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..200 {
            let v = rng.random_range(2..=4u32);
            assert!((2..=4).contains(&v));
            let w: i64 = rng.random_range(1..64);
            assert!((1..64).contains(&w));
            let u = rng.random_range(0..5usize);
            assert!(u < 5);
        }
    }
}

//! Stand-in for the subset of `rand` 0.8 this repository's non-test code
//! uses: `SmallRng` seeded with `seed_from_u64`, `gen::<bool|f64>()`,
//! `gen_range` over half-open `f64` / `u32` / `usize` ranges, `gen_bool`,
//! and `SliceRandom::{shuffle, partial_shuffle}`.
//!
//! The algorithms are written from the published crate's documented
//! behaviour (xoshiro256++ state, PCG32 seed expansion, widening-multiply
//! range rejection, 53-bit floats, Fisher-Yates from the back), so a seed
//! is meant to give the stream the published crate gives. That has not
//! been checked against the published crate: this build environment has
//! no registry access. Every number the benchmark records was produced
//! with this file.

pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Types `Rng::gen` can produce (the published crate's `Standard`
/// distribution).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        // sign bit of a u32
        (rng.next_u32() as i32) < 0
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits, uniform in [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Half-open ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($ty:ty, $wide:ty, $next:ident) => {
        impl SampleRange<$ty> for std::ops::Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                let range = self.end - self.start;
                // widening multiply with a conservative rejection zone
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.$next() as $ty;
                    let wide = (v as $wide) * (range as $wide);
                    let (hi, lo) = ((wide >> <$ty>::BITS) as $ty, wide as $ty);
                    if lo <= zone {
                        return self.start + hi;
                    }
                }
            }
        }
    };
}

int_range!(u32, u64, next_u32);
int_range!(usize, u128, next_u64);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let mut scale = self.end - self.start;
        loop {
            // 52 mantissa bits under exponent 0 give [1, 2); shift to [0, 1)
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + self.start;
            if res < self.end {
                return res;
            }
            // rounding pushed the result onto `end`: shrink by one ulp
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside range [0, 1]");
        if p == 1.0 {
            return true;
        }
        // 2^64 as f64; the cast saturates nowhere because p < 1
        let p_int = (p * 2.0 * (1u64 << 63) as f64) as u64;
        self.next_u64() < p_int
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (the published crate's `SmallRng` on 64-bit targets).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            // the default seed expansion: one PCG32 output per four seed bytes
            const MUL: u64 = 6364136223846793005;
            const INC: u64 = 11634580027462260723;
            let mut pcg32 = || {
                state = state.wrapping_mul(MUL).wrapping_add(INC);
                let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
                xorshifted.rotate_right((state >> 59) as u32)
            };
            let mut s = [0u64; 4];
            for word in &mut s {
                let (lo, hi) = (pcg32(), pcg32());
                *word = u64::from(lo) | u64::from(hi) << 32;
            }
            if s == [0; 4] {
                // xoshiro must not start from the all-zero state
                return SmallRng::seed_from_u64(0);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            // the low bits of xoshiro are the weaker ones
            (self.next_u64() >> 32) as u32
        }

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

pub mod seq {
    use super::Rng;

    fn gen_index<R: Rng + ?Sized>(rng: &mut R, ubound: usize) -> usize {
        if ubound <= u32::MAX as usize {
            rng.gen_range(0..ubound as u32) as usize
        } else {
            rng.gen_range(0..ubound)
        }
    }

    pub trait SliceRandom {
        type Item;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Shuffle `amount` elements into the tail; returns (chosen, rest).
        fn partial_shuffle<R: Rng + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [Self::Item], &mut [Self::Item]);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, gen_index(rng, i + 1));
            }
        }

        fn partial_shuffle<R: Rng + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [T], &mut [T]) {
            let len = self.len();
            let end = len.saturating_sub(amount);
            for i in (end..len).rev() {
                self.swap(i, gen_index(rng, i + 1));
            }
            let (rest, chosen) = self.split_at_mut(end);
            (chosen, rest)
        }
    }
}

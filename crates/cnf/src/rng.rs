//! The workspace's one seeded pseudo-random generator.
//!
//! Every stand-in instance (`gridsat-satgen`) and every synthetic load
//! trace (`gridsat-nws`) is drawn from a seed through this module, so a
//! recorded number is reproducible exactly as long as these streams do
//! not move. The algorithms are the ones the instances were first drawn
//! with: an xoshiro256++ state filled by PCG32 seed expansion,
//! widening-multiply range sampling with a rejection zone, 53-bit unit
//! floats, and Fisher–Yates from the back. The unit tests below pin the
//! streams; a change that fails them re-baselines every simulated number
//! in `BENCH_*.json`, `table1.csv` and `benchmark/BASELINE.json`.
//!
//! Not cryptographic, and not meant to be: it seeds experiments and test
//! cases.

use std::ops::Range;

/// xoshiro256++ behind inherent sampling methods.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

macro_rules! int_range {
    ($(#[$doc:meta])* $name:ident, $ty:ty, $wide:ty, $next:ident) => {
        $(#[$doc])*
        pub fn $name(&mut self, range: Range<$ty>) -> $ty {
            assert!(range.start < range.end, "cannot sample empty range");
            let span = range.end - range.start;
            // widening multiply with a conservative rejection zone
            let zone = (span << span.leading_zeros()).wrapping_sub(1);
            loop {
                let wide = (self.$next() as $ty as $wide) * (span as $wide);
                let (hi, lo) = ((wide >> <$ty>::BITS) as $ty, wide as $ty);
                if lo <= zone {
                    return range.start + hi;
                }
            }
        }
    };
}

impl Rng {
    /// The generator for `seed`: four state words, each from two PCG32
    /// outputs of a stream started at `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut state = seed;
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
            return Rng::seed_from_u64(0);
        }
        Rng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
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

    /// The high half of one `next_u64` (xoshiro's low bits are the
    /// weaker ones).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A fair coin: the top bit of one `next_u32`.
    pub fn next_bool(&mut self) -> bool {
        (self.next_u32() as i32) < 0
    }

    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside range [0, 1]");
        if p == 1.0 {
            return true;
        }
        // p * 2^64; the cast cannot saturate because p < 1
        let p_int = (p * 2.0 * (1u64 << 63) as f64) as u64;
        self.next_u64() < p_int
    }

    int_range!(
        /// Uniform in the half-open `range`, from `next_u32` draws.
        range_u32, u32, u64, next_u32
    );
    int_range!(
        /// Uniform in the half-open `range`, from `next_u64` draws.
        range_usize, usize, u128, next_u64
    );

    /// Uniform in the half-open `range`.
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let mut scale = range.end - range.start;
        loop {
            // 52 mantissa bits under exponent 0 give [1, 2); shift to [0, 1)
            let value1_2 = f64::from_bits((self.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + range.start;
            if res < range.end {
                return res;
            }
            // rounding pushed the result onto `end`: shrink by one ulp
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }

    /// An index below `ubound`; 32-bit draws whenever the bound fits.
    fn index_below(&mut self, ubound: usize) -> usize {
        if ubound <= u32::MAX as usize {
            self.range_u32(0..ubound as u32) as usize
        } else {
            self.range_usize(0..ubound)
        }
    }

    /// Fisher–Yates from the back.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.index_below(i + 1));
        }
    }

    /// Shuffle `amount` elements into the tail of `xs`; returns
    /// `(chosen, rest)`.
    pub fn partial_shuffle<'a, T>(
        &mut self,
        xs: &'a mut [T],
        amount: usize,
    ) -> (&'a mut [T], &'a mut [T]) {
        let len = xs.len();
        let end = len.saturating_sub(amount);
        for i in (end..len).rev() {
            xs.swap(i, self.index_below(i + 1));
        }
        let (rest, chosen) = xs.split_at_mut(end);
        (chosen, rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first outputs of every call shape for one seed, captured from
    /// the generator the recorded instances and traces were drawn with.
    /// Each field starts from a fresh `Rng::seed_from_u64(seed)`.
    struct Golden {
        seed: u64,
        next_u64: [u64; 3],
        /// `3..1000` twice, `0..u32::MAX`, `0..3_000_000_000`
        range_u32: [u32; 4],
        /// `0..1000`, `1..7`, `0..usize::MAX`, `0..(usize::MAX / 3) * 2`
        range_usize: [usize; 4],
        /// bits of `-0.05..0.05`, `0.5..1.5`, `-3.0..-1.0`
        range_f64: [u64; 3],
        /// 32 draws of `gen_bool(0.3)`, first draw in bit 0
        gen_bool_03: u32,
        /// 32 draws of `next_bool`, first draw in bit 0
        next_bool: u32,
        /// bits of three `next_f64`
        next_f64: [u64; 3],
        /// `0..10` shuffled
        shuffle: [u8; 10],
        /// then, on the same generator, 3 chosen of a fresh `0..10`
        partial_shuffle: [u8; 3],
    }

    const GOLDEN: [Golden; 3] = [
        Golden {
            seed: 0x0,
            next_u64: [0x7283e4c96896188c, 0x706b7f2de031bf37, 0xfad96ea1180d0e12],
            range_u32: [440, 979, 1984993125, 2691237066],
            range_usize: [447, 3, 18075600217600495121, 5683653707403554039],
            range_f64: [0xbf75935ebdbf0fe8, 0x3fee0d6fe5bc0636, 0xbff0a4d22bdcfe60],
            gen_bool_03: 0x8863a400,
            next_bool: 0x569c5a74,
            next_f64: [0x3fdca0f9325a2586, 0x3fdc1adfcb780c6e, 0x3fef5b2dd42301a1],
            shuffle: [8, 1, 0, 5, 2, 3, 6, 7, 9, 4],
            partial_shuffle: [2, 8, 0],
        },
        Golden {
            seed: 0x7,
            next_u64: [0xf8147426ec6452e5, 0x505f52ac1981a9f1, 0x719aa23777f9af19],
            range_u32: [969, 316, 1905959478, 1233831507],
            range_usize: [969, 3, 4774370799569821732, 5057816455123570508],
            range_f64: [0x3fa804173afc1410, 0x3fea0bea55833034, 0xc000e655dc888066],
            gen_bool_03: 0x1910188,
            next_bool: 0x764e8261,
            next_f64: [0x3fef028e84dd8c8a, 0x3fd417d4ab06606a, 0x3fdc66a88dddfe6a],
            shuffle: [8, 4, 6, 1, 0, 7, 5, 9, 2, 3],
            partial_shuffle: [6, 3, 5],
        },
        Golden {
            seed: 0xdeadbeef0badcafe,
            next_u64: [0xf1050b6c8a3d287f, 0x626f132cf9208ff, 0x20bb5e56308ba993],
            range_u32: [941, 26, 549150293, 306263738],
            range_usize: [941, 1, 2358582554133244306, 7165667887442885309],
            range_f64: [0x3fa69a9be2820c3a, 0x3fe0c4de2659f240, 0xc005f44a1a9cf746],
            gen_bool_03: 0x300716,
            next_bool: 0xd546f8e9,
            next_f64: [0x3fee20a16d9147a5, 0x3f989bc4cb3e4820, 0x3fc05daf2b1845d4],
            shuffle: [6, 2, 7, 5, 3, 8, 4, 1, 0, 9],
            partial_shuffle: [5, 8, 9],
        },
    ];

    #[test]
    fn streams_match_the_recorded_generator() {
        for g in &GOLDEN {
            let seed = g.seed;
            let rng = || Rng::seed_from_u64(seed);
            let mut r = rng();
            assert_eq!([(); 3].map(|_| r.next_u64()), g.next_u64, "seed {seed:#x}");
            let mut r = rng();
            let got = [
                r.range_u32(3..1000),
                r.range_u32(3..1000),
                r.range_u32(0..u32::MAX),
                r.range_u32(0..3_000_000_000),
            ];
            assert_eq!(got, g.range_u32, "seed {seed:#x}");
            let mut r = rng();
            let got = [
                r.range_usize(0..1000),
                r.range_usize(1..7),
                r.range_usize(0..usize::MAX),
                r.range_usize(0..(usize::MAX / 3) * 2),
            ];
            assert_eq!(got, g.range_usize, "seed {seed:#x}");
            let mut r = rng();
            let got = [
                r.range_f64(-0.05..0.05),
                r.range_f64(0.5..1.5),
                r.range_f64(-3.0..-1.0),
            ];
            assert_eq!(got.map(f64::to_bits), g.range_f64, "seed {seed:#x}");
            let mut r = rng();
            let got = (0..32).fold(0, |m, i| m | u32::from(r.gen_bool(0.3)) << i);
            assert_eq!(got, g.gen_bool_03, "seed {seed:#x}");
            let mut r = rng();
            let got = (0..32).fold(0, |m, i| m | u32::from(r.next_bool()) << i);
            assert_eq!(got, g.next_bool, "seed {seed:#x}");
            let mut r = rng();
            assert_eq!(
                [(); 3].map(|_| r.next_f64().to_bits()),
                g.next_f64,
                "seed {seed:#x}"
            );
            let mut r = rng();
            let mut xs: [u8; 10] = std::array::from_fn(|i| i as u8);
            r.shuffle(&mut xs);
            assert_eq!(xs, g.shuffle, "seed {seed:#x}");
            let mut xs: [u8; 10] = std::array::from_fn(|i| i as u8);
            let (chosen, rest) = r.partial_shuffle(&mut xs, 3);
            assert_eq!(
                (&*chosen, rest.len()),
                (&g.partial_shuffle[..], 7),
                "seed {seed:#x}"
            );
        }
    }

    #[test]
    fn ranges_stay_in_bounds_and_edge_cases_hold() {
        let mut r = Rng::seed_from_u64(99);
        for _ in 0..10_000 {
            assert!((5..8).contains(&r.range_u32(5..8)));
            assert!((5..8).contains(&r.range_usize(5..8)));
            assert!((-1.0..1.0).contains(&r.range_f64(-1.0..1.0)));
            assert!((0.0..1.0).contains(&r.next_f64()));
        }
        assert_eq!(r.range_u32(7..8), 7);
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(0.0));
        let mut one = [1u8];
        let (chosen, rest) = r.partial_shuffle(&mut one, 5);
        assert_eq!((chosen.len(), rest.len()), (1, 0));
        r.shuffle::<u8>(&mut []);
    }
}

//! The workspace's one pseudo-random generator: xoshiro256++ (Blackman
//! and Vigna), seeded through [`splitmix64`].
//!
//! Every random draw in the pipeline — weight init, data synthesis,
//! sampling, fuzzing, Monte-Carlo bounds — goes through [`Rng`], so a
//! seed fixes a whole run. The generator is not cryptographic.
//!
//! ```
//! use opad_par::Rng;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let die = rng.gen_range(1..=6u32);
//! assert!((1..=6).contains(&die));
//! let u = rng.gen_f64();
//! assert!((0.0..1.0).contains(&u));
//! assert_eq!(Rng::seed_from_u64(7).gen_range(1..=6u32), die);
//! ```

use crate::{splitmix64, GOLDEN_GAMMA};
use std::ops::{Range, RangeInclusive};

/// A xoshiro256++ generator. Cloning it forks an identical stream.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose four state words are four successive outputs of
    /// the splitmix64 generator started at `seed`. The same seed always
    /// gives the same stream, and no seed gives the all-zero state.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut s = [0; 4];
        for (k, word) in (0u64..).zip(&mut s) {
            *word = splitmix64(seed.wrapping_add(k.wrapping_mul(GOLDEN_GAMMA)));
        }
        Rng { s }
    }

    /// A generator resumed from [`Rng::state`] output, `None` for the
    /// all-zero state (xoshiro256++ would only ever return zeros from it).
    pub fn from_state(s: [u64; 4]) -> Option<Rng> {
        (s != [0; 4]).then_some(Rng { s })
    }

    /// The four state words: `Rng::from_state(rng.state())` continues
    /// `rng`'s stream exactly.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let out = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        self.s = [s0, s1, s2 ^ t, s3.rotate_left(45)];
        out
    }

    /// A uniform `f64` in `[0, 1)`, on the grid of multiples of 2⁻⁵³.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f32` in `[0, 1)`, on the grid of multiples of 2⁻²⁴.
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// `true` with probability `p` (`p` outside `[0, 1]` saturates).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from `range`: an integer range (`a..b` or `a..=b`)
    /// or a float one. Integer draws have no modulo bias, and a half-open
    /// float range never returns its upper end.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Shuffles `items` in place (Fisher–Yates): every permutation is
    /// equally likely.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// A uniform integer in `[0, n)` for `n > 0`, by Lemire's
    /// multiply-and-reject: the few low products that would bias the
    /// result are redrawn.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        (m >> 64) as u64
    }

    /// A uniform offset in `[0, span]`, where `span` is `hi - lo` of an
    /// inclusive integer range (so `u64::MAX` is the full 64-bit range).
    fn offset_inclusive(&mut self, span: u64) -> u64 {
        match span.checked_add(1) {
            Some(n) => self.below(n),
            None => self.next_u64(),
        }
    }
}

/// A range of `T` values [`Rng::gen_range`] can draw from.
pub trait SampleRange<T> {
    /// One uniform draw from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! int_ranges {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = self.end.wrapping_sub(self.start) as $u as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range");
                let span = hi.wrapping_sub(lo) as $u as u64;
                lo.wrapping_add(rng.offset_inclusive(span) as $t)
            }
        }
    )*};
}

int_ranges!(u32 => u32, u64 => u64, usize => usize, i32 => u32, i64 => u64);

macro_rules! float_ranges {
    ($($t:ty => $unit:ident),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (self.start, self.end);
                assert!(lo < hi && (hi - lo).is_finite(), "gen_range: empty or unbounded range");
                // Rounding can carry `lo + (hi - lo) * u` up to `hi`;
                // such draws are redrawn.
                loop {
                    let x = lo + (hi - lo) * rng.$unit();
                    if x < hi {
                        return x;
                    }
                }
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi && (hi - lo).is_finite(), "gen_range: empty or unbounded range");
                (lo + (hi - lo) * rng.$unit()).min(hi)
            }
        }
    )*};
}

float_ranges!(f32 => gen_f32, f64 => gen_f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_first_output() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn xoshiro256pp_matches_the_reference_stream() {
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(got, [41_943_041, 58_720_359, 3_588_806_011_781_223]);
    }

    #[test]
    fn seeding_takes_four_successive_splitmix64_outputs() {
        let rng = Rng::seed_from_u64(0);
        assert_eq!(rng.s[0], 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.s[1], splitmix64(GOLDEN_GAMMA));
        assert_eq!(rng.s[3], splitmix64(3u64.wrapping_mul(GOLDEN_GAMMA)));
    }

    #[test]
    fn state_round_trips_and_rejects_all_zero() {
        let mut a = Rng::seed_from_u64(5);
        a.next_u64();
        let mut b = Rng::from_state(a.state()).unwrap();
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(Rng::from_state([0; 4]).is_none());
    }

    #[test]
    fn full_width_inclusive_ranges_take_every_bit() {
        let mut a = Rng::seed_from_u64(9);
        let mut b = a.clone();
        assert_eq!(a.gen_range(0..=u64::MAX), b.next_u64());
        assert_eq!(
            a.gen_range(i64::MIN..=i64::MAX),
            i64::MIN.wrapping_add(b.next_u64() as i64)
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_integer_ranges_panic() {
        Rng::seed_from_u64(0).gen_range(3..3usize);
    }
}

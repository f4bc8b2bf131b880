//! Deterministic, splittable random seeding and the simulation's one
//! random number generator.
//!
//! Every stochastic component (workload generators, device jitter,
//! dispatch shuffles) draws from its own [`SmallRng`] derived from a root
//! seed plus a component label. Adding or removing one component therefore
//! never perturbs the streams of the others — a property plain sequential
//! seeding (`seed`, `seed+1`, ...) does not have when code is refactored.
//!
//! [`SmallRng`] follows rand 0.8.5's `SmallRng` draw for draw, because the
//! seeded generators decide which workload a seed produces:
//!
//! * The generator is xoshiro256++ (rand's 64-bit choice). rand's
//!   `next_u32` is the upper half of `next_u64`: the lowest bits of
//!   xoshiro have linear dependencies.
//! * [`SeedSeq::rng`] seeds it as rand's `seed_from_u64` does: PCG32
//!   outputs fill the state, the rand_core default that rand 0.8.5's
//!   `SmallRng` inherits. With it the archived `fig7r` row "16" (IOR,
//!   64 requests per process) reproduces bit for bit; seeding xoshiro's
//!   own way (SplitMix64) does not.
//! * Integer ranges use a widening multiply and reject low halves above
//!   `(range << range.leading_zeros()) - 1` (the exact modulus zone for
//!   `u8`). Types up to 32 bits draw `next_u32`, the upper half.
//! * Half-open float ranges scale a `[1, 2) - 1` draw; inclusive float
//!   ranges narrow the scale as rand's `UniformFloat::new_inclusive` does.
//! * `gen_bool(p)` compares a `u64` draw against `p * 2^64`.
//! * `shuffle` is Fisher–Yates from the back, drawing each index through
//!   a `u32` range.
//!
//! The tests pin each algorithm with rand 0.8.5's and rand_xoshiro's
//! published value-stability vectors.

use std::ops::{Range, RangeInclusive};

/// A splittable seed: a 64-bit root that derives independent child seeds by
/// hashing in a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedSeq {
    root: u64,
}

impl SeedSeq {
    /// Create from a root seed.
    pub const fn new(root: u64) -> Self {
        SeedSeq { root }
    }

    /// Derive a child seed for a labelled component.
    pub fn derive(self, label: &str) -> SeedSeq {
        let mut h = self.root ^ 0x9e37_79b9_7f4a_7c15;
        for &b in label.as_bytes() {
            h ^= u64::from(b);
            h = splitmix64(h);
        }
        SeedSeq { root: h }
    }

    /// Derive a child seed for an indexed component (e.g. per-rank).
    pub fn derive_idx(self, label: &str, idx: u64) -> SeedSeq {
        let child = self.derive(label);
        SeedSeq { root: splitmix64(child.root ^ splitmix64(idx.wrapping_add(0xabcd_ef01))) }
    }

    /// Materialize an RNG for this seed.
    pub fn rng(self) -> SmallRng {
        SmallRng::seed_from_u64(self.root)
    }
}

/// SplitMix64 mixing function (public domain, Vigna). Used only for seed
/// derivation, never as the simulation RNG itself.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// rand 0.8.5's `SmallRng` on 64-bit targets: xoshiro256++.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// rand_core 0.6's default `seed_from_u64`, which rand 0.8.5's
    /// `SmallRng` inherits: eight PCG32 outputs, little-endian, fill the
    /// four state words. (xoshiro's all-zero fixed point, which rand
    /// remaps, would take eight zero PCG32 outputs in a row.)
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut pcg32 = || {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            u64::from(xorshifted.rotate_right((state >> 59) as u32))
        };
        SmallRng {
            s: std::array::from_fn(|_| {
                let lo = pcg32();
                lo | (pcg32() << 32)
            }),
        }
    }

    /// The next 64-bit variate.
    #[inline]
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

    /// A value uniformly distributed in `range`, half-open or inclusive,
    /// of `u8`, `u32`, `u64`, `usize` or `f64`.
    ///
    /// # Panics
    /// On an empty range, or a float range wider than `f64::MAX`.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(|| self.next_u64())
    }

    /// `true` with probability `p` (rand's `Bernoulli`).
    ///
    /// # Panics
    /// When `p` lies outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        bernoulli(p, || self.next_u64())
    }

    /// Shuffle `slice` in place (rand's `SliceRandom::shuffle`).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        shuffle(slice, || self.next_u64());
    }

    /// Fill `out` with uniform draws from `0..n`, consuming exactly the
    /// variates `out.len()` calls of `gen_range(0..n)` would, in order.
    ///
    /// This runs `gen_range`'s `u64` sampling step without its branch:
    /// every variate is written to the current slot, and the slot advances
    /// only when the variate is accepted. For a range at or just above a
    /// power of two, such as the 2^20 slots of a 64 GiB IOR file, about
    /// half the variates are rejected, and the branch mispredicts on most
    /// of them.
    ///
    /// # Panics
    /// When `n` is zero.
    #[inline]
    pub fn fill_below(&mut self, n: u64, out: &mut [u64]) {
        assert!(n > 0, "fill_below: empty range");
        let zone = shifted_zone(n);
        let mut k = 0;
        while k < out.len() {
            let (x, accepted) = below(self.next_u64(), n, zone);
            out[k] = x;
            k += usize::from(accepted);
        }
    }
}

/// Ranges [`SmallRng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// One value of the range, drawn from a stream of 64-bit variates
    /// (types up to 32 bits use each variate's upper half).
    fn sample(self, words: impl FnMut() -> u64) -> T;
}

/// rand's widening-multiply sampling step for `0..n`: the candidate
/// `v * n / 2^64`, and whether the low half of the product lies in `zone`
/// (the candidate is accepted).
#[inline]
fn below(v: u64, n: u64, zone: u64) -> (u64, bool) {
    let m = u128::from(v) * u128::from(n);
    ((m >> 64) as u64, m as u64 <= zone)
}

/// rand's conservative rejection zone for a `0..n` draw of 64 bits. It
/// serves 32-bit draws too: for a draw taken as the upper half of a
/// variate, rand's 32-bit zone shifted up by 32 bits, with the low bits
/// set, equals this one.
#[inline]
fn shifted_zone(n: u64) -> u64 {
    (n << n.leading_zeros()).wrapping_sub(1)
}

/// rand 0.8.5's `UniformInt::sample_single_inclusive` for a type of
/// `bits` bits: an offset uniform in `0..n`, or any value of the type
/// when `n` is 0 (the whole type).
fn uniform_int(n: u64, bits: u32, mut words: impl FnMut() -> u64) -> u64 {
    // Types up to 32 bits draw rand's `next_u32`, the upper half of a
    // variate.
    let shift = if bits > 32 { 0 } else { 32 };
    if n == 0 {
        return words() >> shift;
    }
    // 8- and 16-bit types reject by the exact modulus zone.
    let zone = if bits <= 16 {
        let n = n as u32;
        let zone = u32::MAX - (u32::MAX - n + 1) % n;
        (u64::from(zone) << 32) | u64::from(u32::MAX)
    } else {
        shifted_zone(n)
    };
    loop {
        let (x, accepted) = below(words() & (u64::MAX << shift), n, zone);
        if accepted {
            return x;
        }
    }
}

macro_rules! int_ranges {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample(self, words: impl FnMut() -> u64) -> $ty {
                assert!(self.start < self.end, "gen_range: low >= high");
                (self.start..=self.end - 1).sample(words)
            }
        }

        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample(self, words: impl FnMut() -> u64) -> $ty {
                let (low, high) = self.into_inner();
                assert!(low <= high, "gen_range: low > high");
                let n = high.wrapping_sub(low).wrapping_add(1) as u64;
                low.wrapping_add(uniform_int(n, <$ty>::BITS, words) as $ty)
            }
        }
    )*};
}

int_ranges!(u8, u32, u64, usize);

/// A draw in `[0, 1)` as rand's `UniformFloat` makes it: a `[1, 2)` float
/// from the high 52 bits of one variate, minus one.
#[inline]
fn unit(v: u64) -> f64 {
    f64::from_bits((1023 << 52) | (v >> 12)) - 1.0
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, mut words: impl FnMut() -> u64) -> f64 {
        let Range { start: low, end: high } = self;
        assert!(low < high, "gen_range: low >= high");
        let scale = high - low;
        assert!(scale.is_finite(), "gen_range: range overflow");
        loop {
            let res = unit(words()) * scale + low;
            if res < high {
                return res;
            }
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    /// `UniformFloat::new_inclusive`: the largest scale for which the
    /// largest draw still lands at or below `high`.
    fn sample(self, mut words: impl FnMut() -> u64) -> f64 {
        let (low, high) = self.into_inner();
        assert!(low <= high, "gen_range: low > high");
        assert!(low.is_finite() && high.is_finite(), "gen_range: non-finite bound");
        let max_rand = unit(u64::MAX);
        let mut scale = (high - low) / max_rand;
        assert!(scale.is_finite(), "gen_range: range overflow");
        while scale * max_rand + low > high {
            scale = f64::from_bits(scale.to_bits() - 1);
        }
        unit(words()) * scale + low
    }
}

/// `true` with probability `p`: a draw below `p * 2^64`. `p == 1` draws
/// nothing.
fn bernoulli(p: f64, words: impl FnOnce() -> u64) -> bool {
    const SCALE: f64 = 2.0 * (1u64 << 63) as f64;
    if p == 1.0 {
        return true;
    }
    assert!((0.0..1.0).contains(&p), "gen_bool: probability {p} is not in [0, 1]");
    words() < (p * SCALE) as u64
}

/// Fisher–Yates from the back, as rand 0.8.5 draws it: each index through
/// a `u32` range whenever the bound fits.
fn shuffle<T>(slice: &mut [T], mut words: impl FnMut() -> u64) {
    for i in (1..slice.len()).rev() {
        let j = match u32::try_from(i + 1) {
            Ok(bound) => (0..bound).sample(&mut words) as usize,
            Err(_) => (0..i + 1).sample(&mut words),
        };
        slice.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let a = SeedSeq::new(42).derive("hdd");
        let b = SeedSeq::new(42).derive("hdd");
        assert_eq!(a, b);
        let (mut ra, mut rb) = (a.rng(), b.rng());
        for _ in 0..16 {
            assert_eq!(ra.next_u64(), rb.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let a = SeedSeq::new(42).derive("hdd");
        let b = SeedSeq::new(42).derive("ssd");
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_children_diverge() {
        let s = SeedSeq::new(7);
        let seeds: Vec<u64> = (0..64).map(|i| s.derive_idx("rank", i).root).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "collision in derived seeds");
    }

    #[test]
    fn different_roots_diverge() {
        assert_ne!(SeedSeq::new(1).derive("x"), SeedSeq::new(2).derive("x"));
    }

    /// rand's test generator: `Pcg32::new(seed, 11634580027462260723)`.
    struct Pcg32 {
        state: u64,
        inc: u64,
    }

    impl Pcg32 {
        const MUL: u64 = 6_364_136_223_846_793_005;

        fn new(seed: u64) -> Self {
            let inc = (11_634_580_027_462_260_723u64 << 1) | 1;
            let mut pcg = Pcg32 { state: seed.wrapping_add(inc), inc };
            pcg.step();
            pcg
        }

        fn step(&mut self) {
            self.state = self.state.wrapping_mul(Self::MUL).wrapping_add(self.inc);
        }

        fn next_u32(&mut self) -> u32 {
            let state = self.state;
            self.step();
            let rot = (state >> 59) as u32;
            ((((state >> 18) ^ state) >> 27) as u32).rotate_right(rot)
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            let hi = u64::from(self.next_u32());
            (hi << 32) | lo
        }

        /// Variates whose upper half is `next_u32`: what the samplers of
        /// types up to 32 bits read, so they consume rand's `next_u32`.
        fn u32_words(&mut self) -> impl FnMut() -> u64 + '_ {
            move || u64::from(self.next_u32()) << 32
        }
    }

    /// Replays a fixed list of variates; `drawn` counts those consumed.
    struct Scripted {
        values: Vec<u64>,
        drawn: usize,
    }

    impl Scripted {
        fn new(values: &[u64]) -> Self {
            Scripted { values: values.to_vec(), drawn: 0 }
        }

        fn words(&mut self) -> impl FnMut() -> u64 + '_ {
            move || {
                self.drawn += 1;
                self.values[self.drawn - 1]
            }
        }
    }

    #[test]
    fn xoshiro256plusplus_reference_stream() {
        // rand_xoshiro's `Xoshiro256PlusPlus` reference test.
        let mut rng = SmallRng { s: [1, 2, 3, 4] };
        let expected: [u64; 10] = [
            41_943_041,
            58_720_359,
            3_588_806_011_781_223,
            3_591_011_842_654_386,
            9_228_616_714_210_784_205,
            9_973_669_472_204_895_162,
            14_011_001_112_246_962_877,
            12_406_186_145_184_390_807,
            15_849_039_046_786_891_736,
            10_450_023_813_501_588_000,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn seed_from_u64_fills_the_state_with_pcg32() {
        // State words computed by an independent PCG32 implementation.
        assert_eq!(
            SmallRng::seed_from_u64(0).s,
            [
                0x45cd_b581_f973_f2ec,
                0xad6c_ad06_7346_f087,
                0x67e7_1733_e3a3_d0d0,
                0xfe7d_8ad7_72ea_9bf2,
            ]
        );
        assert_eq!(
            SmallRng::seed_from_u64(0x5eed).s,
            [
                0x3d2c_0cba_f32f_3f86,
                0xa4d5_4297_78f9_b3ed,
                0x44c6_806b_018c_376a,
                0x5446_177d_0b10_3151,
            ]
        );
    }

    #[test]
    fn gen_range_value_stability() {
        // rand 0.8.5 `distributions::uniform::tests::value_stability`.
        let mut rng = Pcg32::new(897);
        let got: Vec<u32> = (0..3).map(|_| (11u32..219).sample(rng.u32_words())).collect();
        assert_eq!(got, [17, 66, 214]);
        let mut rng = Pcg32::new(897);
        let got: Vec<u8> = (0..3).map(|_| (11u8..219).sample(rng.u32_words())).collect();
        assert_eq!(got, [17, 66, 214]);
        let mut rng = Pcg32::new(897);
        let got: Vec<f64> = (0..3).map(|_| (-1e10f64..1e10).sample(|| rng.next_u64())).collect();
        assert_eq!(got, [-4_673_848_682.871_551, 6_388_267_422.932_352, 4_857_075_081.198_343]);
    }

    #[test]
    fn gen_bool_value_stability() {
        // rand 0.8.5 `distributions::bernoulli::test::value_stability`.
        let mut rng = Pcg32::new(3);
        let got: Vec<bool> = (0..10).map(|_| bernoulli(0.4532, || rng.next_u64())).collect();
        assert_eq!(got, [true, false, false, true, false, false, true, true, true, true]);
    }

    #[test]
    fn shuffle_value_stability() {
        // rand 0.8.5 `seq::test::value_stability_slice`.
        let mut rng = Pcg32::new(414);
        let mut nums = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        shuffle(&mut nums, rng.u32_words());
        assert_eq!(nums, [9, 5, 3, 10, 7, 12, 8, 11, 6, 4, 0, 2, 1]);
    }

    #[test]
    fn integer_range_rejects_above_the_shifted_zone() {
        // range 3: zone = (3 << 62) - 1. A draw whose low product half
        // exceeds it is rejected and the next one used.
        let rejected = u64::MAX; // lo = u64::MAX * 3 mod 2^64 = 2^64 - 3 > zone
        let accepted = 1u64 << 63; // hi = 1, lo = 2^63 <= zone
        let mut rng = Scripted::new(&[rejected, accepted]);
        assert_eq!((10u64..13).sample(rng.words()), 11);
        assert_eq!(rng.drawn, 2);
        // The zone is conservative: even for a power-of-two range (8, zone
        // 2^63 - 1) a draw whose low half exceeds it is rejected.
        let mut rng = Scripted::new(&[0xdead_beef_0000_0000, 0xa000_0000_0000_0000]);
        assert_eq!((0u64..8).sample(rng.words()), 5);
        assert_eq!(rng.drawn, 2);
        // u32 ranges consume the upper half: 0x8000_0000 * 2 has high
        // word 1 and low word 0, and the lower half is ignored.
        let mut rng = Scripted::new(&[0x8000_0000_ffff_ffff]);
        assert_eq!((0u32..=1).sample(rng.words()), 1);
        // The whole type takes one draw as it is.
        let mut rng = Scripted::new(&[0x1234_5678_9abc_def0]);
        assert_eq!((0u32..=u32::MAX).sample(rng.words()), 0x1234_5678);
        assert_eq!((0u8..=u8::MAX).sample(Scripted::new(&[0x00ab_0000_0000_0000]).words()), 0);
    }

    #[test]
    fn u8_ranges_reject_by_the_exact_modulus_zone() {
        // range 3 over u32 draws: zone = 2^32 - 1 - (2^32 - 3) % 3
        // = 2^32 - 2, where the shifted zone would be 3 << 30 - 1.
        // Upper half 0x5555_5555 times 3 has low word 0xffff_ffff: past
        // even the modulus zone, so it is rejected.
        let over = 0x5555_5555u64 << 32;
        // Upper half 0x9555_5556 times 3 has high word 1 and low word
        // 0xc000_0002: past the shifted zone, inside the modulus one.
        let inside = 0x9555_5556u64 << 32;
        let mut rng = Scripted::new(&[over, inside]);
        assert_eq!((7u8..10).sample(rng.words()), 8);
        assert_eq!(rng.drawn, 2);
        // The 32-bit sampler, by contrast, rejects `inside`.
        let mut rng = Scripted::new(&[inside, 0]);
        assert_eq!((7u32..10).sample(rng.words()), 7);
        assert_eq!(rng.drawn, 2);
    }

    #[test]
    fn shuffle_draws_u32_indices_from_the_upper_half() {
        // Three elements: index 2 swaps with a draw from 0..3, then index
        // 1 with a draw from 0..2, each from the upper half alone.
        let mut rng = Scripted::new(&[0xaaaa_aaab_0000_0000, 0x0000_0000_ffff_ffff]);
        let mut v = ['a', 'b', 'c'];
        shuffle(&mut v, rng.words());
        // 0xaaaa_aaab * 3 -> hi 2 (no swap); 0 * 2 -> hi 0 (swap 1 and 0).
        assert_eq!(v, ['b', 'a', 'c']);
        assert_eq!(rng.drawn, 2);
        // Zero and one elements draw nothing.
        let mut rng = Scripted::new(&[]);
        shuffle(&mut [0u8; 1], rng.words());
        shuffle(&mut [0u8; 0], rng.words());
        assert_eq!(rng.drawn, 0);
    }

    #[test]
    fn float_ranges_scale_a_one_two_draw() {
        let v = 0x8000_0000_0000_0000u64; // mantissa 0x80000_00000000 -> 1.5
        let mut rng = Scripted::new(&[v]);
        assert_eq!((2.0f64..6.0).sample(rng.words()), 0.5 * 4.0 + 2.0);
        // Inclusive: the largest draw maps to at most `high`.
        let mut rng = Scripted::new(&[u64::MAX]);
        let x = (1.0f64..=3.0).sample(rng.words());
        assert!(x <= 3.0 && x > 2.999_999_999);
    }

    #[test]
    fn inclusive_float_ranges_narrow_the_scale() {
        // 0.3..=0.9: (high - low) / max_rand rounds so that the largest
        // draw overshoots `high`, so the scale steps down until it fits.
        let (low, high) = (0.3f64, 0.9);
        let max_rand = unit(u64::MAX);
        let naive = (high - low) / max_rand;
        assert!(naive * max_rand + low > high, "the case must need narrowing");
        let x = (low..=high).sample(Scripted::new(&[u64::MAX]).words());
        assert!(x <= high);
        assert_eq!(x, f64::from_bits(naive.to_bits() - 1) * max_rand + low);
        // A point range is the point itself.
        assert_eq!((5.0f64..=5.0).sample(Scripted::new(&[u64::MAX]).words()), 5.0);
    }

    #[test]
    fn gen_bool_compares_against_p_times_two_to_the_64() {
        let mut rng = Scripted::new(&[(1u64 << 63) - 1, 1u64 << 63, 0]);
        assert!(bernoulli(0.5, rng.words()));
        assert!(!bernoulli(0.5, rng.words()));
        // p = 1 draws nothing; p = 0 draws once and is never true.
        assert!(bernoulli(1.0, rng.words()));
        assert_eq!(rng.drawn, 2);
        assert!(!bernoulli(0.0, rng.words()));
        assert_eq!(rng.drawn, 3);
    }

    #[test]
    fn fill_below_draws_what_gen_range_draws() {
        // Powers of two and their neighbours (where about half the
        // variates are rejected), tiny ranges, and the top of u64.
        let ranges =
            [1, 2, 3, 7, 1000, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, u64::MAX / 3, u64::MAX];
        for (seed, &n) in ranges.iter().enumerate() {
            let mut reference = SmallRng::seed_from_u64(seed as u64);
            let mut fast = reference.clone();
            let want: Vec<u64> = (0..1000).map(|_| reference.gen_range(0..n)).collect();
            let mut got = vec![0u64; 1000];
            fast.fill_below(n, &mut got[..1]);
            fast.fill_below(n, &mut got[1..]);
            assert_eq!(got, want, "range {n}");
            assert_eq!(fast.next_u64(), reference.next_u64(), "range {n}: same variates consumed");
        }
    }
}

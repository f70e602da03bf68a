//! Clockwise-arc geometry on the 160-bit identifier circle.
//!
//! Chord assigns each key to the first node whose identifier is equal to
//! or follows the key clockwise; equivalently a node owns every key in the
//! half-open arc `(predecessor, self]`. All the containment predicates
//! here follow that convention and handle wrap-around through zero, plus
//! the degenerate single-node ring where a node is its own predecessor and
//! owns everything.

use crate::Id;

/// True iff `x` lies in the clockwise half-open arc `(a, b]`.
///
/// When `a == b` the arc is the *entire* ring (a single node owns every
/// key), matching Chord's convention.
#[inline]
pub fn in_arc(a: Id, b: Id, x: Id) -> bool {
    if a == b {
        return true;
    }
    if a < b {
        a < x && x <= b
    } else {
        // Arc wraps through zero.
        x > a || x <= b
    }
}

/// True iff `x` lies in the clockwise open arc `(a, b)`.
///
/// When `a == b` the arc is the whole ring minus the shared endpoint —
/// the convention Chord's `notify`/stabilize step uses.
#[inline]
pub fn in_open_arc(a: Id, b: Id, x: Id) -> bool {
    if a == b {
        return x != a;
    }
    if a < b {
        a < x && x < b
    } else {
        x > a || x < b
    }
}

/// Clockwise distance from `from` to `to` (how far you walk clockwise to
/// get from `from` to `to`); `0` when they coincide.
#[inline]
pub fn distance(from: Id, to: Id) -> Id {
    to.wrapping_sub(from)
}

/// The identifier halfway along the clockwise arc from `a` to `b`; the
/// spot where a node plants a Sybil to split the arc `(a, b]` in half.
///
/// For `a == b` (full ring) this is the antipode of `a`.
#[inline]
pub fn midpoint(a: Id, b: Id) -> Id {
    let d = b.wrapping_sub(a);
    if d.is_zero() {
        // Full ring: halfway around.
        return a.wrapping_add(Id::pow2(159));
    }
    a.wrapping_add(d.half())
}

/// The point a fraction `num/den` of the way clockwise from `a` to `b`.
/// Used by tests and by placement policies that avoid exact midpoints.
///
/// # Panics
/// Panics if `den == 0` or `num > den`.
pub fn fraction_point(a: Id, b: Id, num: u32, den: u32) -> Id {
    assert!(den > 0 && num <= den);
    let d = b.wrapping_sub(a);
    // Compute d * num / den with 160-bit ops: repeated halving only works
    // for powers of two, so do schoolbook multiply-then-divide on limbs
    // via u128 per limb.
    let limbs = d.limbs();
    let mut acc = [0u128; 3];
    for (i, &l) in limbs.iter().enumerate() {
        acc[i] = l as u128 * num as u128;
    }
    // Propagate carries.
    let mut carry = 0u128;
    let mut prod = [0u64; 3];
    for i in 0..3 {
        let v = acc[i] + carry;
        prod[i] = v as u64;
        carry = v >> 64;
    }
    // Divide the 3-limb product by den, most-significant first.
    let mut rem = carry; // bits above limb 2 (can be nonzero only transiently)
    let mut quot = [0u64; 3];
    for i in (0..3).rev() {
        let cur = (rem << 64) | prod[i] as u128;
        quot[i] = (cur / den as u128) as u64;
        rem = cur % den as u128;
    }
    let step = Id::from_limbs(quot[0], quot[1], quot[2]);
    a.wrapping_add(step)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::from(v)
    }

    #[test]
    fn in_arc_simple() {
        assert!(in_arc(id(10), id(20), id(15)));
        assert!(in_arc(id(10), id(20), id(20))); // end inclusive
        assert!(!in_arc(id(10), id(20), id(10))); // start exclusive
        assert!(!in_arc(id(10), id(20), id(25)));
        assert!(!in_arc(id(10), id(20), id(5)));
    }

    #[test]
    fn in_arc_wrapping() {
        let a = Id::MAX.wrapping_sub(id(5));
        let b = id(5);
        assert!(in_arc(a, b, Id::ZERO));
        assert!(in_arc(a, b, Id::MAX));
        assert!(in_arc(a, b, id(5)));
        assert!(!in_arc(a, b, a));
        assert!(!in_arc(a, b, id(6)));
        assert!(!in_arc(a, b, id(1000)));
    }

    #[test]
    fn degenerate_arc_is_full_ring() {
        assert!(in_arc(id(7), id(7), id(7)));
        assert!(in_arc(id(7), id(7), id(123456)));
        assert!(in_arc(id(7), id(7), Id::ZERO));
    }

    #[test]
    fn open_arc_excludes_both_ends() {
        assert!(in_open_arc(id(10), id(20), id(15)));
        assert!(!in_open_arc(id(10), id(20), id(10)));
        assert!(!in_open_arc(id(10), id(20), id(20)));
        // Degenerate: everything except the endpoint.
        assert!(in_open_arc(id(7), id(7), id(8)));
        assert!(!in_open_arc(id(7), id(7), id(7)));
    }

    #[test]
    fn complementary_arcs_partition_the_ring() {
        // For a != b, every x is in exactly one of (a,b] and (b,a].
        let a = id(1000);
        let b = id(77);
        for xv in [0u128, 1, 77, 78, 999, 1000, 1001, u64::MAX as u128] {
            let x = id(xv);
            assert!(in_arc(a, b, x) ^ in_arc(b, a, x), "x = {xv}");
        }
    }

    #[test]
    fn distance_wraps_clockwise() {
        assert_eq!(distance(id(10), id(25)), id(15));
        assert_eq!(distance(id(25), id(10)), Id::MAX.wrapping_sub(id(14)));
    }

    #[test]
    fn midpoint_bisects() {
        let m = midpoint(id(10), id(20));
        assert_eq!(m, id(15));
        // Wrapping arc: from MAX-1 to 3 has length 5, midpoint 2 past MAX-1.
        let a = Id::MAX.wrapping_sub(Id::ONE);
        let m2 = midpoint(a, id(3));
        assert_eq!(m2, a.wrapping_add(id(2)));
        assert!(in_arc(a, id(3), m2));
    }

    #[test]
    fn midpoint_of_full_ring_is_antipode() {
        let a = id(42);
        assert_eq!(midpoint(a, a), a.wrapping_add(Id::pow2(159)));
    }

    #[test]
    fn fraction_point_endpoints_and_middle() {
        assert_eq!(fraction_point(id(100), id(200), 0, 4), id(100));
        assert_eq!(fraction_point(id(100), id(200), 4, 4), id(200));
        assert_eq!(fraction_point(id(100), id(200), 1, 2), id(150));
        assert_eq!(fraction_point(id(100), id(200), 1, 4), id(125));
    }

    #[test]
    fn fraction_point_wrapping_arc() {
        let a = Id::MAX.wrapping_sub(id(9)); // 10 before wrap
        let b = id(10);
        let q = fraction_point(a, b, 1, 2);
        assert_eq!(q, Id::ZERO);
    }

    #[test]
    fn fraction_point_large_ids_no_overflow() {
        let a = Id::ZERO;
        let b = Id::MAX;
        let half = fraction_point(a, b, 1, 2);
        // MAX/2 = 2^159 - 1 (integer division).
        assert_eq!(half, Id::pow2(159).wrapping_sub(Id::ONE));
        let third = fraction_point(a, b, 1, 3);
        assert!(third < half);
        let two_thirds = fraction_point(a, b, 2, 3);
        assert!(two_thirds > half);
    }
}

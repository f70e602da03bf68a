//! Unit-circle embedding of ring identifiers.
//!
//! The paper visualizes the DHT (Figures 2 and 3) by mapping each 160-bit
//! identifier onto the perimeter of the unit circle:
//!
//! ```text
//! x = sin(2π · id / 2^160)        y = cos(2π · id / 2^160)
//! ```
//!
//! so identifier 0 sits at the top (12 o'clock) and identifiers advance
//! clockwise — the usual way Chord rings are drawn.

use crate::Id;

/// A point on (or near) the unit circle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

/// Maps an identifier to its unit-circle position using the paper's
/// `(sin, cos)` convention.
pub fn ring_xy(id: Id) -> Point {
    let theta = 2.0 * std::f64::consts::PI * id.to_unit_fraction();
    Point {
        x: theta.sin(),
        y: theta.cos(),
    }
}

/// Maps an identifier to a circle of radius `r` centered at `(cx, cy)` —
/// convenient for SVG canvases where y grows downward.
pub fn ring_xy_scaled(id: Id, cx: f64, cy: f64, r: f64) -> Point {
    let p = ring_xy(id);
    Point {
        x: cx + r * p.x,
        // Flip y so clockwise on the ring stays clockwise on screen.
        y: cy - r * p.y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn zero_is_at_twelve_oclock() {
        let p = ring_xy(Id::ZERO);
        assert!(close(p.x, 0.0) && close(p.y, 1.0));
    }

    #[test]
    fn quarter_points() {
        // 2^158 = quarter ring -> 3 o'clock (x=1, y=0).
        let q = ring_xy(Id::pow2(158));
        assert!(close(q.x, 1.0) && close(q.y, 0.0));
        // Half ring -> 6 o'clock.
        let h = ring_xy(Id::pow2(159));
        assert!(close(h.x, 0.0) && close(h.y, -1.0));
        // Three quarters -> 9 o'clock.
        let t = ring_xy(Id::pow2(158).wrapping_add(Id::pow2(159)));
        assert!(close(t.x, -1.0) && close(t.y, 0.0));
    }

    #[test]
    fn all_points_on_unit_circle() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xe3bed);
        for _ in 0..200 {
            let p = ring_xy(Id::random(&mut rng));
            let r2 = p.x * p.x + p.y * p.y;
            assert!(close(r2, 1.0));
        }
    }

    #[test]
    fn scaled_embedding_centers_and_flips() {
        let p = ring_xy_scaled(Id::ZERO, 100.0, 100.0, 50.0);
        assert!(close(p.x, 100.0) && close(p.y, 50.0)); // top of circle
        let q = ring_xy_scaled(Id::pow2(158), 100.0, 100.0, 50.0);
        assert!(close(q.x, 150.0) && close(q.y, 100.0)); // right of circle
    }
}

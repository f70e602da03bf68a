//! Machine-speed calibration.
//!
//! The benchmark runs on shared machines whose speed swings by a third
//! within minutes, as neighbours come and go; a run's raw wall times
//! follow the machine as much as the code. A fixed kernel that uses
//! none of the library — sorting and ordered-map inserts over
//! pseudo-random keys, the operations the simulators spend their time
//! on — is timed after every trial. Its median over a run measures the
//! machine's speed during that run, and the end-to-end times are scaled
//! to a machine on which the kernel takes [`REFERENCE_S`].

use std::collections::BTreeMap;
use std::time::Instant;

/// Keys the kernel sorts; a quarter of them go through a `BTreeMap`.
const KEYS: usize = 400_000;

/// The kernel's wall time on the reference machine, in seconds.
pub const REFERENCE_S: f64 = 0.02;

/// Runs the kernel once and returns its wall time in seconds.
pub fn kernel_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let map: BTreeMap<u64, usize> = keys
        .iter()
        .step_by(4)
        .enumerate()
        .map(|(i, k)| (k.rotate_left(17), i))
        .collect();
    std::hint::black_box((&keys, &map));
    t.elapsed().as_secs_f64()
}

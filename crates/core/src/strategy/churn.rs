//! §IV-A *Churn* as a strategy layer.
//!
//! The paper's first observation is that churn alone balances load: a
//! departing node's tasks merge into its successor, and a joining node
//! immediately splits an arc and acquires work. Modeled here as a
//! [`StrategyScope::TickOnly`] layer so it can run standalone
//! ([`crate::config::StrategyKind::Churn`]) or compose underneath any
//! Sybil strategy as background turbulence (§VI-B-1).
//!
//! One churn pass, [`churn_pass`], serves every substrate through
//! [`ChurnOps`]. It keeps the per-candidate Bernoulli distribution of
//! §IV-A but draws per event, not per candidate: each draw is a
//! [`geometric_skip`] over the candidates that do not fire. It walks the
//! worker table in decision order and compacts the waiting pool in
//! place, so a tick allocates nothing.

use super::{ChurnOps, Strategy, StrategyScope};
use rand::Rng;

/// Bernoulli-per-tick churn: each active node leaves with probability
/// `leave_p`, each waiting node joins with probability `join_p`, drawn
/// per event by [`churn_pass`].
#[derive(Debug, Clone, Copy)]
pub struct BackgroundChurn {
    pub leave_p: f64,
    pub join_p: f64,
}

impl Strategy for BackgroundChurn {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn scope(&self) -> StrategyScope {
        StrategyScope::TickOnly
    }

    fn on_tick(&self, ops: &mut dyn ChurnOps) {
        ops.churn_pass(self.leave_p, self.join_p);
    }
}

/// How many candidates a Bernoulli(`p`) pass passes over before its
/// next event: `floor(ln(1 − U) / ln(1 − p))` for the next draw `U` of
/// `rng`. Firing on the candidate after the skip gives every candidate
/// an independent chance `p`, as one trial per candidate would, with
/// one draw per event instead of one per candidate. `p ≥ 1` fires on
/// every candidate and `p ≤ 0` never fires; neither draws.
pub fn geometric_skip<R: Rng + ?Sized>(rng: &mut R, p: f64) -> usize {
    if p >= 1.0 {
        return 0;
    }
    if p.is_nan() || p <= 0.0 {
        return usize::MAX;
    }
    let u: f64 = rng.gen();
    // `as` saturates, so a skip past `usize::MAX` means no event.
    (ln_1p(-u) / ln_1p(-p)) as usize
}

/// `ln(1 + x)` for `x > −1`, in plain arithmetic instead of the
/// platform's `log1p`: every build draws the same skips, and a binary
/// that runs churn links no libm. `ln(u) · x / (u − 1)` recovers the
/// low bits of `x` that rounding `u = 1 + x` loses.
fn ln_1p(x: f64) -> f64 {
    let u = 1.0 + x;
    if u == 1.0 {
        return x;
    }
    ln(u) * x / (u - 1.0)
}

/// Natural log of a positive normal `x`: write `x = m · 2^e` with `m`
/// in `[√½, √2)`, then `ln m = 2 atanh(s)` for `s = (m − 1) / (m + 1)`,
/// `|s| < 0.172`; twelve odd terms of the series reach below 1e-18.
fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut m = f64::from_bits((bits & ((1 << 52) - 1)) | (1023 << 52));
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let (mut term, mut sum) = (s, 0.0);
    for k in 0..12 {
        sum += term / f64::from(2 * k + 1);
        term *= s2;
    }
    2.0 * sum + e as f64 * std::f64::consts::LN_2
}

/// One tick of churn over `ops`: leave events at `leave_p` among the
/// active workers in decision order, then join events at `join_p` among
/// the waiting workers in pool order. A worker that left this tick is
/// at the end of the pool, so it gets a join trial in the same tick.
pub fn churn_pass<O: ChurnOps + ?Sized>(ops: &mut O, leave_p: f64, join_p: f64) {
    // Leaves. The last active node never leaves (the network would
    // vanish): once it is alone, no further skip is drawn. A departure
    // only deactivates the departing worker, so walking the live table
    // visits the same candidates as a snapshot taken before the pass.
    let slots = ops.worker_slots();
    let mut w = 0;
    'leaves: while ops.active_count() > 1 && w < slots {
        let mut skip = geometric_skip(ops.churn_rng(), leave_p);
        loop {
            if w >= slots {
                break 'leaves;
            }
            if ops.is_active(w) {
                if skip == 0 {
                    break;
                }
                skip -= 1;
            }
            w += 1;
        }
        ops.depart(w);
        w += 1;
    }
    // Joins, compacting the pool in place: the skipped workers and a
    // worker whose join failed stay waiting, in their relative order.
    let n = ops.waiting().len();
    let (mut keep, mut read) = (0, 0);
    while read < n {
        let skip = geometric_skip(ops.churn_rng(), join_p);
        let at = read.saturating_add(skip).min(n);
        ops.waiting().copy_within(read..at, keep);
        keep += at - read;
        if at == n {
            break;
        }
        let w = ops.waiting()[at];
        read = at + 1;
        if !ops.rejoin(w) {
            ops.waiting()[keep] = w;
            keep += 1;
        }
    }
    ops.waiting().truncate(keep);
}

#[cfg(test)]
mod tests {
    use super::{churn_pass, ChurnOps};
    use crate::config::{SimConfig, StrategyKind};
    use crate::sim::Sim;
    use crate::worker::WorkerId;
    use autobal_stats::rng::{seeded_rng, DetRng};
    use rand::Rng;

    /// A worker table without a ring: `depart` and `rejoin` only move
    /// workers between the active set and the waiting pool.
    struct Pool {
        active: Vec<bool>,
        active_count: usize,
        waiting: Vec<WorkerId>,
        rng: DetRng,
        joins_succeed: bool,
        leaves: u64,
        join_events: u64,
    }

    impl Pool {
        /// `active` active workers, then `waiting` waiting ones.
        fn new(active: usize, waiting: usize, seed: u64) -> Pool {
            Pool {
                active: (0..active + waiting).map(|i| i < active).collect(),
                active_count: active,
                waiting: (active..active + waiting).collect(),
                rng: seeded_rng(seed),
                joins_succeed: true,
                leaves: 0,
                join_events: 0,
            }
        }
    }

    impl ChurnOps for Pool {
        fn worker_slots(&self) -> usize {
            self.active.len()
        }
        fn is_active(&self, w: WorkerId) -> bool {
            self.active[w]
        }
        fn active_count(&self) -> usize {
            self.active_count
        }
        fn churn_rng(&mut self) -> &mut DetRng {
            &mut self.rng
        }
        fn depart(&mut self, w: WorkerId) {
            self.active[w] = false;
            self.active_count -= 1;
            self.waiting.push(w);
            self.leaves += 1;
        }
        fn waiting(&mut self) -> &mut Vec<WorkerId> {
            &mut self.waiting
        }
        fn rejoin(&mut self, w: WorkerId) -> bool {
            self.join_events += 1;
            if self.joins_succeed {
                self.active[w] = true;
                self.active_count += 1;
            }
            self.joins_succeed
        }
    }

    /// Mean and (population) variance of `xs`.
    fn mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    /// Over 40k passes of 1,000 candidates at p = 0.01, the events per
    /// pass follow Binomial(1000, 0.01): mean 10, variance 9.9. The
    /// standard error is 0.016 for the mean and about 0.07 for the
    /// variance, so ±0.08 and ±0.35 are each about five of them. A skip
    /// one too long (mean 9.90) fails the mean bound.
    #[test]
    fn skip_pass_event_counts_match_the_binomial() {
        let (n, p, passes) = (1_000usize, 0.01, 40_000);
        let (mean, var) = (n as f64 * p, n as f64 * p * (1.0 - p));
        // Leaves: a fresh table of `n` active workers each pass.
        let mut pool = Pool::new(n, 0, 11);
        let mut leaves = Vec::with_capacity(passes);
        for _ in 0..passes {
            pool.active.iter_mut().for_each(|a| *a = true);
            pool.active_count = n;
            pool.waiting.clear();
            pool.leaves = 0;
            churn_pass(&mut pool, p, 0.0);
            leaves.push(pool.leaves as f64);
        }
        // Joins: `n` waiting workers whose joins fail, so the pool
        // keeps all of them, in order, from pass to pass.
        let mut pool = Pool::new(0, n, 12);
        pool.joins_succeed = false;
        let mut joins = Vec::with_capacity(passes);
        for _ in 0..passes {
            pool.join_events = 0;
            churn_pass(&mut pool, 0.0, p);
            joins.push(pool.join_events as f64);
            assert!(pool.waiting.iter().copied().eq(0..n), "pool order kept");
        }
        for (side, counts) in [("leave", &leaves), ("join", &joins)] {
            let (m, v) = mean_var(counts);
            assert!((m - mean).abs() < 0.08, "{side} mean {m} vs {mean}");
            assert!((v - var).abs() < 0.35, "{side} variance {v} vs {var}");
        }
    }

    /// The portable `ln_1p` agrees with the platform's to a few ulps
    /// over the arguments a skip takes: `−U` for a 53-bit draw `U`, and
    /// `−p` for rates from 1e-12 to just under 1.
    #[test]
    fn portable_ln_1p_matches_the_platform() {
        let mut rng = seeded_rng(16);
        let rates = (0..=48).map(|i| 10f64.powf(-12.0 + 0.25 * f64::from(i)).min(0.999_999));
        let draws = (0..100_000).map(|_| rng.gen::<f64>());
        for x in rates.chain(draws).map(|v| -v) {
            let (ours, std) = (super::ln_1p(x), x.ln_1p());
            assert!(
                (ours - std).abs() <= 4.0 * f64::EPSILON * std.abs(),
                "ln_1p({x}): {ours} vs {std}"
            );
        }
    }

    /// How many `f64` draws `rng` made since it was `before` (at most
    /// `max`).
    fn draws_since(before: &DetRng, rng: &DetRng, max: usize) -> usize {
        let next = rng.clone().gen::<u64>();
        let mut probe = before.clone();
        (0..=max)
            .find(|_| probe.gen::<u64>() == next)
            .unwrap_or_else(|| panic!("more than {max} draws"))
    }

    #[test]
    fn zero_rate_fires_nothing_and_draws_at_most_once() {
        let mut pool = Pool::new(1_000, 1_000, 13);
        for _ in 0..100 {
            let before = pool.rng.clone();
            churn_pass(&mut pool, 0.0, 0.0);
            assert!(draws_since(&before, &pool.rng, 1) <= 1);
        }
        assert_eq!((pool.leaves, pool.join_events), (0, 0));
        assert_eq!(pool.active_count, 1_000);
        assert!(pool.waiting.iter().copied().eq(1_000..2_000));
    }

    #[test]
    fn unit_rate_removes_every_active_worker_but_the_last() {
        let mut pool = Pool::new(1_000, 0, 14);
        let before = pool.rng.clone();
        churn_pass(&mut pool, 1.0, 0.0);
        assert_eq!(draws_since(&before, &pool.rng, 0), 0, "p = 1 draws nothing");
        assert_eq!(pool.active_count, 1);
        assert!(pool.active[999], "the last in decision order stays");
        assert!(
            pool.waiting.iter().copied().eq(0..999),
            "leavers queue in order"
        );
    }

    #[test]
    fn tiny_rate_fires_nothing_on_a_large_ring() {
        let cfg = SimConfig {
            nodes: 10_000,
            tasks: 100_000,
            strategy: StrategyKind::Churn,
            churn_rate: 1e-12,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(cfg, 15);
        for _ in 0..1_000 {
            sim.step();
        }
        let m = sim.messages();
        assert_eq!((m.churn_leaves, m.churn_joins), (0, 0));
    }

    #[test]
    fn churn_layer_moves_population_both_ways() {
        let cfg = SimConfig {
            nodes: 100,
            tasks: 5_000,
            strategy: StrategyKind::Churn,
            churn_rate: 0.05,
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, 9).run();
        assert!(res.completed);
        assert!(res.messages.churn_leaves > 0);
        assert!(res.messages.churn_joins > 0);
    }

    #[test]
    fn network_never_fully_drains() {
        let cfg = SimConfig {
            nodes: 4,
            tasks: 400,
            strategy: StrategyKind::Churn,
            churn_rate: 0.9,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(cfg, 10);
        for _ in 0..300 {
            sim.step();
            assert!(sim.active_count() >= 1, "the last node must stay");
        }
    }
}

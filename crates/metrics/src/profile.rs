//! Opt-in wall-clock phase profiling (`profile` feature).
//!
//! Same discipline as the root crate's `count-allocs`: strictly
//! additive instrumentation that never feeds back into anything
//! deterministic. Timings are collected into a thread-local table and
//! surfaced only through explicitly-invoked report rendering on the
//! CLI — golden traces, metrics JSONL, and every simulator decision
//! are byte-identical whether the feature is on, off, or the machine
//! is slow.
//!
//! Usage: wrap a phase in a [`span`] guard; nested spans subtract their
//! time from the enclosing phase, so the report shows *self* time.
//!
//! ```
//! let _t = autobal_metrics::profile::span("checks");
//! // ... phase body ...
//! ```
//!
//! With the feature off every call compiles to a unit struct and the
//! table renders empty; call sites need no `cfg` of their own.

#[cfg(feature = "profile")]
mod imp {
    use std::cell::RefCell;
    use std::time::Instant;

    #[derive(Clone, Copy, Default)]
    struct PhaseTotals {
        /// Nanoseconds of self time (child spans subtracted).
        self_ns: u128,
        entries: u64,
    }

    struct ProfileState {
        /// One row per phase name, in first-entry order. Rows are
        /// never removed, so a slot stays valid while its span is open.
        phases: Vec<(&'static str, PhaseTotals)>,
        /// Open-span stack: (phase's slot in `phases`, start, child
        /// time to subtract).
        stack: Vec<(usize, Instant, u128)>,
    }

    impl ProfileState {
        /// The slot of `phase`, adding a row on its first entry.
        fn slot(&mut self, phase: &'static str) -> usize {
            let found = self.phases.iter().position(|(n, _)| *n == phase);
            found.unwrap_or_else(|| {
                self.phases.push((phase, PhaseTotals::default()));
                self.phases.len() - 1
            })
        }
    }

    thread_local! {
        static STATE: RefCell<ProfileState> = const {
            RefCell::new(ProfileState {
                phases: Vec::new(),
                stack: Vec::new(),
            })
        };
    }

    /// RAII guard for one phase entry.
    pub struct SpanGuard {
        _private: (),
    }

    pub fn span(phase: &'static str) -> SpanGuard {
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            let slot = st.slot(phase);
            st.stack.push((slot, Instant::now(), 0));
        });
        SpanGuard { _private: () }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            STATE.with(|s| {
                let mut st = s.borrow_mut();
                let Some((slot, start, child_ns)) = st.stack.pop() else {
                    return;
                };
                let elapsed = start.elapsed().as_nanos();
                if let Some((_, _, parent_child)) = st.stack.last_mut() {
                    *parent_child += elapsed;
                }
                if let Some((_, t)) = st.phases.get_mut(slot) {
                    t.self_ns += elapsed.saturating_sub(child_ns);
                    t.entries += 1;
                }
            });
        }
    }

    /// Renders this thread's per-phase self-time table, sorted by
    /// descending self time, and clears the accumulators.
    pub fn take_report() -> String {
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            // Zero the rows in place rather than dropping them: spans
            // still open hold their slots.
            let mut rows: Vec<_> = st
                .phases
                .iter_mut()
                .filter(|(_, t)| t.entries > 0)
                .map(|(n, t)| (*n, std::mem::take(t)))
                .collect();
            rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
            let total: u128 = rows.iter().map(|(_, t)| t.self_ns).sum();
            let mut out = String::from("phase profile (self time)\n");
            for (name, t) in &rows {
                let pct = if total == 0 {
                    0.0
                } else {
                    t.self_ns as f64 * 100.0 / total as f64
                };
                out.push_str(&format!(
                    "  {:<12} {:>12.3} ms  {:>6.2}%  x{}\n",
                    name,
                    t.self_ns as f64 / 1e6,
                    pct,
                    t.entries
                ));
            }
            if rows.is_empty() {
                out.push_str("  (no spans recorded)\n");
            }
            out
        })
    }
}

#[cfg(not(feature = "profile"))]
mod imp {
    /// Zero-sized guard; the disabled build compiles spans away.
    pub struct SpanGuard {
        _private: (),
    }

    #[inline(always)]
    pub fn span(_phase: &'static str) -> SpanGuard {
        SpanGuard { _private: () }
    }

    /// Disabled builds report an empty table.
    pub fn take_report() -> String {
        String::from("phase profile (self time)\n  (profile feature disabled)\n")
    }
}

pub use imp::{span, take_report, SpanGuard};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_guard_is_droppable_in_any_build() {
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let report = take_report();
        assert!(report.starts_with("phase profile"));
        #[cfg(feature = "profile")]
        {
            assert!(report.contains("outer"), "{report}");
            assert!(report.contains("inner"), "{report}");
            // Accumulators were drained.
            assert!(take_report().contains("no spans recorded"));
        }
    }

    /// A span still open when the report is taken keeps its own row: its
    /// slot survives the drain, and phases first entered afterwards get
    /// rows of their own.
    #[cfg(feature = "profile")]
    #[test]
    fn span_open_across_a_report_lands_on_its_phase() {
        let held = span("held");
        take_report();
        {
            let _fresh = span("fresh");
        }
        drop(held);
        let report = take_report();
        let row = |name: &str| report.lines().find(|l| l.trim_start().starts_with(name));
        assert!(row("held").is_some_and(|l| l.ends_with("x1")), "{report}");
        assert!(row("fresh").is_some_and(|l| l.ends_with("x1")), "{report}");
    }
}

//! Deterministic flight recorder for the load-balancing substrates.
//!
//! Every substrate in the workspace — the oracle tick sim
//! (`autobal-core`), the synchronous Chord protocol sim, and the
//! event-driven `EventNet` — produces the same fragmented signals:
//! message counters, retry totals, an event log. This crate unifies
//! them behind one recorder, [`Trace`], with a span model:
//!
//! * a **span** brackets one strategy decision — it opens when the
//!   substrate hands a worker to the strategy and closes when the
//!   strategy returns;
//! * the **decisions** (Sybil planted, invitation refused, gap split…)
//!   and **messages** (load query delivered, join timed out after two
//!   retries…) that the decision causes attach to the open span;
//! * every record is stamped with **virtual time** — the oracle tick or
//!   the event-net's simulated clock, never wall-clock — so a trace is
//!   a pure function of `(config, seed)` and two same-seed runs emit
//!   byte-identical JSONL.
//!
//! The disabled path is free: [`Trace::new(false)`](Trace::new) never
//! allocates, and every recording method is an inlined `enabled` check.
//! Callers that must build a string argument (a hex position, say)
//! gate on [`Trace::enabled`] first.
//!
//! [`diff`] turns two same-seed traces from different substrates into a
//! causal report: the first divergent decision plus the non-delivered
//! messages inside its enclosing spans — "worker 3's load query timed
//! out, so it fell back to the gap estimate" instead of "decisions
//! differ at tick 40".

pub mod diff;
pub mod jsonl;
pub mod record;
pub mod sink;
pub mod summary;

pub use diff::{diff_traces, render_divergence, DecisionAt, Divergence, DivergencePoint};
pub use jsonl::{check_framing, parse_jsonl, to_jsonl, validate_jsonl};
pub use record::{MessageStatus, SpanId, TraceBody, TraceRecord, ROOT_SPAN};
pub use sink::Trace;
pub use summary::{render_summary, span_breakdown_csv, summarize, MessageCounts, Summary};

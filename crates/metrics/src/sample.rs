//! The on-disk metrics sample stream.
//!
//! One [`MetricsSample`] per sampling point, serialized as one JSON
//! object per line (JSONL), integers only — the causal record contains
//! no floats, so byte-equality across platforms and thread counts is a
//! meaningful invariant (ratios are scaled to parts-per-million
//! upstream). Counters are cumulative; gauges are point-in-time; the
//! optional `ring` array is a per-worker snapshot for the monitor.
//!
//! Key order is fixed by construction. The struct rows
//! ([`HistSnapshot`], [`RingSlot`]) are derived, so their fields are
//! written in declaration order. Only [`MetricsSample`]'s impls are
//! written by hand: its counters, gauges and histograms are
//! `Vec<(String, _)>` pairs written as JSON objects in registry
//! declaration order (`names::ALL`), so the byte layout is explicit
//! rather than an artifact of a map type's iteration order.

use crate::names;
use crate::registry::Kind;
use serde::{Deserialize, Error, Node, Serialize};

/// Snapshot of one log₂ histogram: cumulative count, sum, and the
/// per-bucket counts trimmed after the highest non-empty bucket.
#[derive(Clone, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<u64>,
}

/// One worker's row in a ring snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingSlot {
    /// Worker id.
    pub worker: u64,
    /// Primary ring position, hex (empty for a waiting worker).
    pub pos: String,
    /// Current load (task units).
    pub load: u64,
    /// Sybil vnodes this worker currently operates.
    pub sybils: u64,
    /// Times a peer's cross-checking defense has quarantined this
    /// worker (> 0 marks a suspected liar on the dashboard).
    pub quarantined: u64,
}

/// One sampling point of the metrics plane.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MetricsSample {
    /// Sample time: tick for the synchronous substrates, event time for
    /// the event substrate.
    pub time: u64,
    /// Cumulative counters, in registry declaration order.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, in registry declaration order.
    pub gauges: Vec<(String, u64)>,
    /// Histogram snapshots, in registry declaration order.
    pub hists: Vec<(String, HistSnapshot)>,
    /// Per-worker ring snapshot (empty unless ring capture is on).
    pub ring: Vec<RingSlot>,
}

impl MetricsSample {
    /// Value of a cumulative counter in this sample, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge in this sample, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram snapshot in this sample, if present.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

fn pairs_node(pairs: &[(String, u64)]) -> Node {
    Node::Object(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Node::U64(*v)))
            .collect(),
    )
}

fn pairs_from_node(node: &Node, what: &str) -> Result<Vec<(String, u64)>, Error> {
    let entries = node
        .as_object()
        .ok_or_else(|| Error::invalid_type(what, node))?;
    entries
        .iter()
        .map(|(k, v)| Ok((k.clone(), u64::from_node(v)?)))
        .collect()
}

fn field<'a>(entries: &'a [(String, Node)], key: &str, ty: &str) -> Result<&'a Node, Error> {
    serde::__get(entries, key).ok_or_else(|| Error::missing_field(key, ty))
}

impl Serialize for MetricsSample {
    fn to_node(&self) -> Node {
        Node::Object(vec![
            ("time".into(), Node::U64(self.time)),
            ("counters".into(), pairs_node(&self.counters)),
            ("gauges".into(), pairs_node(&self.gauges)),
            (
                "hists".into(),
                Node::Object(
                    self.hists
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_node()))
                        .collect(),
                ),
            ),
            ("ring".into(), self.ring.to_node()),
        ])
    }
}

impl Deserialize for MetricsSample {
    fn from_node(node: &Node) -> Result<Self, Error> {
        let e = node
            .as_object()
            .ok_or_else(|| Error::invalid_type("MetricsSample", node))?;
        let hists = field(e, "hists", "MetricsSample")?
            .as_object()
            .ok_or_else(|| Error::custom("hists is not an object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), HistSnapshot::from_node(v)?)))
            .collect::<Result<Vec<_>, Error>>()?;
        Ok(MetricsSample {
            time: u64::from_node(field(e, "time", "MetricsSample")?)?,
            counters: pairs_from_node(field(e, "counters", "MetricsSample")?, "counters")?,
            gauges: pairs_from_node(field(e, "gauges", "MetricsSample")?, "gauges")?,
            hists,
            ring: Vec::from_node(field(e, "ring", "MetricsSample")?)?,
        })
    }
}

/// Serializes samples as JSONL, one object per line, trailing newline.
pub fn to_jsonl(samples: &[MetricsSample]) -> String {
    let mut out = String::new();
    for s in samples {
        out.push_str(&serde_json::to_string(s).expect("metrics sample serializes"));
        out.push('\n');
    }
    out
}

/// Parses a JSONL metrics stream. Blank lines are ignored.
pub fn parse_jsonl(input: &str) -> Result<Vec<MetricsSample>, String> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let sample: MetricsSample =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(sample);
    }
    Ok(out)
}

/// Structural validation of a parsed metrics stream:
/// sample times non-decreasing, every name drawn from the registry
/// vocabulary with the right kind, counters cumulative (monotone
/// non-decreasing), and a stable name set across samples.
pub fn validate_samples(samples: &[MetricsSample]) -> Result<(), String> {
    let kind_of = |name: &str| -> Option<Kind> {
        names::ALL
            .iter()
            .find(|&&(n, _, _)| n == name)
            .map(|&(_, k, _)| k)
    };
    let mut prev_time = 0u64;
    let mut prev_counters: Option<Vec<(String, u64)>> = None;
    for (i, s) in samples.iter().enumerate() {
        if i > 0 && s.time < prev_time {
            return Err(format!(
                "sample {i}: time {} decreases from {prev_time}",
                s.time
            ));
        }
        prev_time = s.time;
        for (name, _) in &s.counters {
            match kind_of(name) {
                Some(Kind::Counter) => {}
                Some(_) => return Err(format!("sample {i}: {name} is not a counter")),
                None => return Err(format!("sample {i}: unknown counter {name}")),
            }
        }
        for (name, _) in &s.gauges {
            match kind_of(name) {
                Some(Kind::Gauge) => {}
                Some(_) => return Err(format!("sample {i}: {name} is not a gauge")),
                None => return Err(format!("sample {i}: unknown gauge {name}")),
            }
        }
        for (name, _) in &s.hists {
            match kind_of(name) {
                Some(Kind::Histogram) => {}
                Some(_) => return Err(format!("sample {i}: {name} is not a histogram")),
                None => return Err(format!("sample {i}: unknown histogram {name}")),
            }
        }
        if let Some(prev) = &prev_counters {
            if prev.len() != s.counters.len()
                || prev.iter().zip(&s.counters).any(|((a, _), (b, _))| a != b)
            {
                return Err(format!("sample {i}: counter name set changed"));
            }
            for ((name, before), (_, after)) in prev.iter().zip(&s.counters) {
                if after < before {
                    return Err(format!(
                        "sample {i}: counter {name} went backwards ({before} -> {after})"
                    ));
                }
            }
        }
        prev_counters = Some(s.counters.clone());
    }
    Ok(())
}

/// Renders samples as a CSV time series: a `time` column followed by
/// every counter and gauge column of the first sample, in stream order.
pub fn timeseries_csv(samples: &[MetricsSample]) -> String {
    let Some(first) = samples.first() else {
        return String::from("time\n");
    };
    let mut out = String::from("time");
    for (name, _) in first.counters.iter().chain(&first.gauges) {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for s in samples {
        out.push_str(&s.time.to_string());
        for (name, _) in first.counters.iter().chain(&first.gauges) {
            out.push(',');
            let v = s.counter(name).or_else(|| s.gauge(name)).unwrap_or(0);
            out.push_str(&v.to_string());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(time: u64, done: u64) -> MetricsSample {
        MetricsSample {
            time,
            counters: vec![
                (names::TICKS.into(), time),
                (names::TASKS_DONE.into(), done),
            ],
            gauges: vec![(names::LOAD_MAX.into(), 7)],
            hists: vec![(
                names::TRANSFER_SIZE.into(),
                HistSnapshot {
                    count: 1,
                    sum: 5,
                    buckets: vec![0, 0, 0, 1],
                },
            )],
            ring: vec![RingSlot {
                worker: 3,
                pos: "00ff".into(),
                load: 7,
                sybils: 1,
                quarantined: 0,
            }],
        }
    }

    #[test]
    fn jsonl_round_trips_byte_stably() {
        let samples = vec![sample(0, 0), sample(5, 40)];
        let text = to_jsonl(&samples);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, samples);
        assert_eq!(to_jsonl(&parsed), text);
        assert!(validate_samples(&parsed).is_ok());
    }

    #[test]
    fn jsonl_key_order_is_fixed() {
        let text = to_jsonl(&[sample(1, 2)]);
        let line = text.lines().next().unwrap();
        assert!(line.starts_with("{\"time\":1,\"counters\":{"));
        let c = line.find("\"counters\"").unwrap();
        let g = line.find("\"gauges\"").unwrap();
        let h = line.find("\"hists\"").unwrap();
        let r = line.find("\"ring\"").unwrap();
        assert!(c < g && g < h && h < r);
    }

    #[test]
    fn validate_rejects_time_regression() {
        let samples = vec![sample(5, 1), sample(3, 2)];
        let err = validate_samples(&samples).unwrap_err();
        assert!(err.contains("decreases"), "{err}");
    }

    #[test]
    fn validate_rejects_counter_regression() {
        let samples = vec![sample(1, 9), sample(2, 4)];
        let err = validate_samples(&samples).unwrap_err();
        assert!(err.contains("went backwards"), "{err}");
    }

    #[test]
    fn validate_rejects_unknown_and_miskinded_names() {
        let mut s = sample(1, 1);
        s.counters.push(("bogus".into(), 1));
        assert!(validate_samples(&[s])
            .unwrap_err()
            .contains("unknown counter"));
        let mut s = sample(1, 1);
        s.gauges.push((names::TICKS.into(), 1));
        assert!(validate_samples(&[s]).unwrap_err().contains("not a gauge"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = timeseries_csv(&[sample(0, 0), sample(5, 40)]);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "time,ticks,tasks_done,load_max");
        assert_eq!(lines.next().unwrap(), "0,0,0,7");
        assert_eq!(lines.next().unwrap(), "5,5,40,7");
        assert_eq!(timeseries_csv(&[]), "time\n");
    }
}

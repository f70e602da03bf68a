//! Prometheus text exposition format, rendered and validated without
//! any external dependency.
//!
//! A metrics JSONL stream is cumulative, so its *last* sample is the
//! run's final registry state; [`render_exposition`] turns one sample
//! into the classic `# HELP` / `# TYPE` / sample-line layout
//! (metric names prefixed `autobal_`), and [`validate_exposition`]
//! re-checks the emitted text against the format's structural rules —
//! the `export` subcommand self-validates before printing, and CI runs
//! the validator over the artifact it uploads.

use crate::names;
use crate::sample::MetricsSample;

const PREFIX: &str = "autobal_";

fn help_for(name: &str) -> &'static str {
    names::ALL
        .iter()
        .find(|&&(n, _, _)| n == name)
        .map(|&(_, _, help)| help)
        .unwrap_or("(unregistered)")
}

/// Renders one sample as Prometheus text exposition format.
pub fn render_exposition(sample: &MetricsSample) -> String {
    let mut out = String::new();
    let emit_head = |out: &mut String, name: &str, ty: &str| {
        out.push_str("# HELP ");
        out.push_str(PREFIX);
        out.push_str(name);
        out.push(' ');
        out.push_str(help_for(name));
        out.push('\n');
        out.push_str("# TYPE ");
        out.push_str(PREFIX);
        out.push_str(name);
        out.push(' ');
        out.push_str(ty);
        out.push('\n');
    };
    for (name, value) in &sample.counters {
        emit_head(&mut out, name, "counter");
        out.push_str(&format!("{PREFIX}{name} {value}\n"));
    }
    for (name, value) in &sample.gauges {
        emit_head(&mut out, name, "gauge");
        out.push_str(&format!("{PREFIX}{name} {value}\n"));
    }
    for (name, h) in &sample.hists {
        emit_head(&mut out, name, "histogram");
        // Log₂ buckets: bucket i holds values of bit length i, so the
        // inclusive upper bound is 2^i − 1; cumulative per the format.
        let mut cum = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            cum += c;
            let le = (1u128 << i) - 1;
            out.push_str(&format!("{PREFIX}{name}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        out.push_str(&format!(
            "{PREFIX}{name}_bucket{{le=\"+Inf\"}} {}\n",
            h.count
        ));
        out.push_str(&format!("{PREFIX}{name}_sum {}\n", h.sum));
        out.push_str(&format!("{PREFIX}{name}_count {}\n", h.count));
    }
    out
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Structural validation of text exposition format:
/// every sample line names a metric with a preceding `# TYPE`, names
/// are well-formed, TYPE values are known, values parse as numbers,
/// histogram bucket series are cumulative and end with `le="+Inf"`
/// matching `_count`.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helped: BTreeMap<String, bool> = BTreeMap::new();
    // name -> (last cumulative bucket value, saw +Inf, inf value)
    let mut buckets: BTreeMap<String, (u64, bool, u64)> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {n}: bad HELP metric name {name:?}"));
            }
            helped.insert(name.to_string(), true);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or("");
            let ty = parts.next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {n}: bad TYPE metric name {name:?}"));
            }
            if !matches!(
                ty,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown TYPE {ty:?}"));
            }
            if types.insert(name.to_string(), ty.to_string()).is_some() {
                return Err(format!("line {n}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // comment
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return Err(format!("line {n}: no value on sample line")),
        };
        let (name, labels) = match name_part.split_once('{') {
            Some((base, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (base, Some(labels))
            }
            None => (name_part, None),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {n}: value {value_part:?} is not a number"))?;
        // The family a sample belongs to: histogram series use the
        // _bucket/_sum/_count suffixes of the declared family name.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name.strip_suffix(suf)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        match types.get(family) {
            None => return Err(format!("line {n}: sample for {name} precedes its TYPE")),
            Some(ty) if ty == "histogram" => {
                if name.ends_with("_bucket") {
                    let labels =
                        labels.ok_or_else(|| format!("line {n}: bucket without le label"))?;
                    let le = labels
                        .strip_prefix("le=\"")
                        .and_then(|s| s.strip_suffix('"'))
                        .ok_or_else(|| format!("line {n}: malformed le label {labels:?}"))?;
                    let entry = buckets.entry(family.to_string()).or_insert((0, false, 0));
                    if entry.1 {
                        return Err(format!("line {n}: bucket after le=\"+Inf\" for {family}"));
                    }
                    let cum = value as u64;
                    if cum < entry.0 {
                        return Err(format!(
                            "line {n}: bucket series for {family} not cumulative"
                        ));
                    }
                    entry.0 = cum;
                    if le == "+Inf" {
                        entry.1 = true;
                        entry.2 = cum;
                    }
                } else if name.ends_with("_count") {
                    counts.insert(family.to_string(), value as u64);
                }
            }
            Some(_) => {
                if labels.is_some() {
                    // Plain counters/gauges in this exposition carry no labels.
                    return Err(format!("line {n}: unexpected labels on {name}"));
                }
            }
        }
        let _ = value;
    }
    for (family, (_, saw_inf, inf_val)) in &buckets {
        if !saw_inf {
            return Err(format!("histogram {family} lacks an le=\"+Inf\" bucket"));
        }
        if let Some(count) = counts.get(family) {
            if count != inf_val {
                return Err(format!(
                    "histogram {family}: +Inf bucket {inf_val} != _count {count}"
                ));
            }
        }
    }
    for name in types.keys() {
        if !helped.contains_key(name) {
            return Err(format!("metric {name} has TYPE but no HELP"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::LoadDist;
    use crate::hub::MetricsHub;

    fn rendered() -> String {
        let mut hub = MetricsHub::new(true);
        hub.inc(names::SYBIL_CREATED);
        hub.observe(names::TRANSFER_SIZE, 5);
        hub.inc(names::MSG_DELIVERED);
        hub.observe(names::MSG_RETRIES, 1);
        hub.inc(names::TICKS);
        let mut dist = LoadDist::new();
        for l in [0u64, 3, 9] {
            dist.insert(l);
        }
        hub.sample_from_dist(4, &dist, Vec::new());
        render_exposition(&hub.samples()[0])
    }

    #[test]
    fn rendered_exposition_validates() {
        let text = rendered();
        validate_exposition(&text).unwrap();
        assert!(text.contains("# TYPE autobal_sybil_created counter"));
        assert!(text.contains("autobal_sybil_created 1"));
        assert!(text.contains("# TYPE autobal_gini_ppm gauge"));
        assert!(text.contains("# TYPE autobal_transfer_size histogram"));
        assert!(text.contains("autobal_transfer_size_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("autobal_transfer_size_sum 5"));
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        assert!(validate_exposition("autobal_x 1\n")
            .unwrap_err()
            .contains("precedes"));
        assert!(
            validate_exposition("# HELP autobal_x h\n# TYPE autobal_x widget\n")
                .unwrap_err()
                .contains("unknown TYPE")
        );
        assert!(
            validate_exposition("# HELP autobal_x h\n# TYPE autobal_x counter\nautobal_x\n")
                .unwrap_err()
                .contains("no value")
        );
        assert!(validate_exposition(
            "# HELP autobal_x h\n# TYPE autobal_x counter\nautobal_x abc\n"
        )
        .unwrap_err()
        .contains("not a number"));
        let no_inf = "# HELP autobal_h h\n# TYPE autobal_h histogram\nautobal_h_bucket{le=\"1\"} 2\nautobal_h_count 2\n";
        assert!(validate_exposition(no_inf).unwrap_err().contains("+Inf"));
        let non_cum = "# HELP autobal_h h\n# TYPE autobal_h histogram\nautobal_h_bucket{le=\"1\"} 2\nautobal_h_bucket{le=\"3\"} 1\n";
        assert!(validate_exposition(non_cum)
            .unwrap_err()
            .contains("cumulative"));
        let type_no_help = "# TYPE autobal_x counter\nautobal_x 1\n";
        assert!(validate_exposition(type_no_help)
            .unwrap_err()
            .contains("no HELP"));
    }
}

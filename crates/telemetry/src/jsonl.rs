//! Byte-stable JSONL export, parsing, and schema validation.
//!
//! One compact JSON object per line, fields in declaration order,
//! trailing newline. Because the record model holds no floats and the
//! vendored `serde_json` writes objects in declaration order, the
//! rendered bytes are a pure function of the record sequence — which
//! the determinism tests pin.

use crate::record::{TraceBody, TraceRecord};
use serde_json::Value;

/// Renders records as JSONL (one object per line, trailing newline;
/// empty string for an empty trace).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        // The record model contains only strings, integers, bools and
        // enums of those, so serialization cannot fail.
        if let Ok(line) = serde_json::to_string(rec) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Parses JSONL back into records. Blank lines are ignored; any
/// malformed line fails with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord = serde_json::from_str(line)
            .map_err(|e| format!("line {}: not a trace record: {e:?}", idx + 1))?;
        records.push(rec);
    }
    Ok(records)
}

/// The body variants the schema admits, with their required fields.
/// An accidental rename of either a variant or a field shows up as a
/// validation failure against the golden fixture.
const SCHEMA: &[(&str, &[&str])] = &[
    ("RunStart", &["substrate", "strategy", "seed"]),
    ("SpanOpen", &["kind", "worker"]),
    ("Decision", &["name", "worker", "pos", "value"]),
    ("Message", &["kind", "status", "retries"]),
    ("SpanClose", &["records"]),
    ("RunEnd", &["completed"]),
];

/// Validates JSONL structurally, without going through the typed
/// deserializer: every line must be an object with `seq`/`time`/`span`
/// integers and a single-variant `body` carrying exactly the schema's
/// fields; `seq` must be dense from 0. Returns the record count.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {lineno}: invalid JSON: {e:?}"))?;
        let seq = v["seq"]
            .as_u64()
            .ok_or_else(|| format!("line {lineno}: missing integer `seq`"))?;
        if seq != count as u64 {
            return Err(format!(
                "line {lineno}: seq {seq} out of order (expected {count})"
            ));
        }
        v["time"]
            .as_u64()
            .ok_or_else(|| format!("line {lineno}: missing integer `time`"))?;
        v["span"]
            .as_u64()
            .ok_or_else(|| format!("line {lineno}: missing integer `span`"))?;
        validate_body(&v["body"]).map_err(|e| format!("line {lineno}: {e}"))?;
        count += 1;
    }
    Ok(count)
}

fn validate_body(body: &Value) -> Result<(), String> {
    let entries = match body {
        Value::Object(entries) => entries,
        _ => return Err("`body` is not an object".to_string()),
    };
    // Unit variants would arrive as strings; the body enum has none,
    // so the object must carry exactly one known variant key.
    if entries.len() != 1 {
        return Err(format!(
            "`body` must have exactly one variant key, found {}",
            entries.len()
        ));
    }
    let (variant, fields) = &entries[0];
    let required = SCHEMA
        .iter()
        .find(|(name, _)| name == variant)
        .map(|(_, fields)| *fields)
        .ok_or_else(|| format!("unknown body variant `{variant}`"))?;
    let inner = match fields {
        Value::Object(inner) => inner,
        _ => return Err(format!("variant `{variant}` payload is not an object")),
    };
    for field in required {
        if !inner.iter().any(|(k, _)| k == field) {
            return Err(format!("variant `{variant}` missing field `{field}`"));
        }
    }
    for (k, _) in inner {
        if !required.contains(&k.as_str()) {
            return Err(format!("variant `{variant}` has unknown field `{k}`"));
        }
    }
    if variant == "Message" {
        let status = fields["status"]
            .as_str()
            .ok_or_else(|| "Message `status` is not a string".to_string())?;
        if !["Delivered", "Dropped", "TimedOut", "Unreachable"].contains(&status) {
            return Err(format!("unknown message status `{status}`"));
        }
    }
    Ok(())
}

/// Lightweight structural check used by [`parse_jsonl`] callers that
/// also want RunStart/RunEnd framing (full traces, as opposed to
/// record fragments).
pub fn check_framing(records: &[TraceRecord]) -> Result<(), String> {
    match records.first() {
        Some(rec) if matches!(rec.body, TraceBody::RunStart { .. }) => {}
        _ => return Err("trace does not begin with RunStart".to_string()),
    }
    match records.last() {
        Some(rec) if matches!(rec.body, TraceBody::RunEnd { .. }) => {}
        _ => return Err("trace does not end with RunEnd".to_string()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MessageStatus;
    use crate::sink::Trace;

    fn sample() -> Trace {
        let mut t = Trace::new(true);
        t.run_start(0, "oracle", "smart", 7);
        let s = t.open_span(5, "smart", 3);
        t.message(5, "load_query", MessageStatus::TimedOut, 2);
        t.decision(5, "neighbor_gap_split", 3, "0000ff", 0);
        t.close_span(5, s);
        t.run_end(6, true);
        t
    }

    #[test]
    fn jsonl_round_trips() {
        let t = sample();
        let text = to_jsonl(t.records());
        assert_eq!(text.lines().count(), t.len());
        let back = parse_jsonl(&text).expect("parses");
        assert_eq!(back, t.records());
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = to_jsonl(sample().records());
        let b = to_jsonl(sample().records());
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn validate_accepts_well_formed_traces() {
        let t = sample();
        let text = to_jsonl(t.records());
        assert_eq!(validate_jsonl(&text), Ok(t.len()));
        check_framing(t.records()).expect("framed");
    }

    #[test]
    fn validate_rejects_schema_drift() {
        // A renamed field (the exact accident the golden fixture
        // guards against).
        let renamed = "{\"seq\":0,\"time\":0,\"span\":0,\"body\":\
                       {\"RunStart\":{\"substrate\":\"oracle\",\"strat\":\"x\",\"seed\":1}}}\n";
        assert!(validate_jsonl(renamed).is_err());
        // An unknown variant.
        let unknown = "{\"seq\":0,\"time\":0,\"span\":0,\"body\":{\"Mystery\":{}}}\n";
        assert!(validate_jsonl(unknown).is_err());
        // A seq gap.
        let gap = "{\"seq\":1,\"time\":0,\"span\":0,\"body\":{\"RunEnd\":{\"completed\":true}}}\n";
        assert!(validate_jsonl(gap).is_err());
        // A bad message status.
        let status = "{\"seq\":0,\"time\":0,\"span\":1,\"body\":\
                      {\"Message\":{\"kind\":\"x\",\"status\":\"Lost\",\"retries\":0}}}\n";
        assert!(validate_jsonl(status).is_err());
    }

    #[test]
    fn framing_rejects_fragments() {
        let mut t = Trace::new(true);
        let s = t.open_span(1, "none", 0);
        t.close_span(1, s);
        assert!(check_framing(t.records()).is_err());
        assert!(check_framing(&[]).is_err());
    }
}

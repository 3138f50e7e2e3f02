//! NDJSON event-stream sink and its schema validator.
//!
//! One JSON object per line: a `meta` header followed by every resolved
//! event with its thread id, microsecond timestamps, and (for counters,
//! gauges and warnings) the span it occurred under. The stream is what CI
//! validates after a smoke run and what ad-hoc tooling (`jq`, spreadsheet
//! imports) consumes without needing the Chrome viewer.
//!
//! Schema, version 1 (field types as JSON types):
//!
//! | `ev` | required fields |
//! |---|---|
//! | `meta` | `schema` (str, `"parhde-trace-ndjson"`), `version` (num), `threads` (num) |
//! | `span` | `name` (str), `tid` (num), `t0_us` (num ≥ 0), `t1_us` (num ≥ t0), `depth` (num) |
//! | `counter` | `name` (str), `tid` (num), `t_us` (num), `value` (num); optional `span` (str) |
//! | `gauge` | `name` (str), `tid` (num), `t_us` (num), `value` (num); optional `span` (str) |
//! | `warning` | `message` (str), `tid` (num), `t_us` (num); optional `span` (str) |

use crate::json::{escape, number, parse, Value};
use crate::session::{Trace, TraceEvent};
use std::io::{self, Write};

/// Schema identifier emitted in (and required of) the `meta` line.
pub const SCHEMA: &str = "parhde-trace-ndjson";
/// Current schema version.
pub const VERSION: u32 = 1;

fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

fn span_field(span: &Option<String>) -> String {
    match span {
        Some(s) => format!(",\"span\":\"{}\"", escape(s)),
        None => String::new(),
    }
}

/// Writes `trace` as NDJSON.
///
/// # Errors
/// Propagates I/O errors from `w`.
pub fn write_ndjson<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "{{\"ev\":\"meta\",\"schema\":\"{SCHEMA}\",\"version\":{VERSION},\"threads\":{}}}",
        trace.threads.len()
    )?;
    for th in &trace.threads {
        let tid = th.tid;
        for ev in &th.events {
            match ev {
                TraceEvent::Span(s) => writeln!(
                    w,
                    "{{\"ev\":\"span\",\"name\":\"{}\",\"tid\":{tid},\"t0_us\":{},\
                     \"t1_us\":{},\"depth\":{}}}",
                    escape(&s.name),
                    us(s.begin_ns),
                    us(s.end_ns),
                    s.depth
                )?,
                TraceEvent::Counter(c) => writeln!(
                    w,
                    "{{\"ev\":\"counter\",\"name\":\"{}\",\"tid\":{tid},\"t_us\":{},\
                     \"value\":{}{}}}",
                    escape(&c.name),
                    us(c.t_ns),
                    c.delta,
                    span_field(&c.span)
                )?,
                TraceEvent::Gauge(g) => writeln!(
                    w,
                    "{{\"ev\":\"gauge\",\"name\":\"{}\",\"tid\":{tid},\"t_us\":{},\
                     \"value\":{}{}}}",
                    escape(&g.name),
                    us(g.t_ns),
                    number(g.value),
                    span_field(&g.span)
                )?,
                TraceEvent::Warning(warn) => writeln!(
                    w,
                    "{{\"ev\":\"warning\",\"message\":\"{}\",\"tid\":{tid},\"t_us\":{}{}}}",
                    escape(&warn.message),
                    us(warn.t_ns),
                    span_field(&warn.span)
                )?,
            }
        }
    }
    Ok(())
}

/// Serializes `trace` to a `String` (convenience over [`write_ndjson`]).
pub fn to_string(trace: &Trace) -> String {
    let mut out = Vec::new();
    let _ = write_ndjson(trace, &mut out);
    String::from_utf8(out).unwrap_or_default()
}

fn require_str<'v>(obj: &'v Value, key: &str, line: usize) -> Result<&'v str, String> {
    obj.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("line {line}: missing string field {key:?}"))
}

fn require_num(obj: &Value, key: &str, line: usize) -> Result<f64, String> {
    obj.get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("line {line}: missing numeric field {key:?}"))
}

/// Validates a full NDJSON stream against the version-1 schema: a leading
/// `meta` line followed by well-typed event lines (blank lines allowed).
///
/// # Errors
/// A description of the first violation, prefixed with its 1-based line.
pub fn validate(text: &str) -> Result<(), String> {
    let mut saw_meta = false;
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        if !obj.is_obj() {
            return Err(format!("line {line_no}: not a JSON object"));
        }
        let ev = require_str(&obj, "ev", line_no)?;
        if !saw_meta {
            if ev != "meta" {
                return Err(format!("line {line_no}: first line must be a meta record"));
            }
            let schema = require_str(&obj, "schema", line_no)?;
            if schema != SCHEMA {
                return Err(format!("line {line_no}: unknown schema {schema:?}"));
            }
            let version = require_num(&obj, "version", line_no)?;
            if version != f64::from(VERSION) {
                return Err(format!("line {line_no}: unsupported version {version}"));
            }
            require_num(&obj, "threads", line_no)?;
            saw_meta = true;
            continue;
        }
        match ev {
            "meta" => return Err(format!("line {line_no}: duplicate meta record")),
            "span" => {
                require_str(&obj, "name", line_no)?;
                require_num(&obj, "tid", line_no)?;
                let t0 = require_num(&obj, "t0_us", line_no)?;
                let t1 = require_num(&obj, "t1_us", line_no)?;
                require_num(&obj, "depth", line_no)?;
                if t0 < 0.0 || t1 < t0 {
                    return Err(format!("line {line_no}: span interval [{t0}, {t1}] invalid"));
                }
            }
            "counter" | "gauge" => {
                require_str(&obj, "name", line_no)?;
                require_num(&obj, "tid", line_no)?;
                require_num(&obj, "t_us", line_no)?;
                if obj.get("value").is_none() {
                    return Err(format!("line {line_no}: missing field \"value\""));
                }
                if let Some(span) = obj.get("span") {
                    if span.as_str().is_none() {
                        return Err(format!("line {line_no}: span must be a string"));
                    }
                }
            }
            "warning" => {
                require_str(&obj, "message", line_no)?;
                require_num(&obj, "tid", line_no)?;
                require_num(&obj, "t_us", line_no)?;
            }
            other => return Err(format!("line {line_no}: unknown event type {other:?}")),
        }
    }
    if !saw_meta {
        return Err("empty stream: no meta record".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{CounterEvent, SpanEvent, ThreadTrace, WarningEvent};

    fn sample() -> Trace {
        Trace {
            threads: vec![ThreadTrace {
                tid: 0,
                events: vec![
                    TraceEvent::Span(SpanEvent {
                        name: "bfs".into(),
                        begin_ns: 0,
                        end_ns: 5_000,
                        depth: 0,
                    }),
                    TraceEvent::Counter(CounterEvent {
                        name: "bfs.top_down_edges".into(),
                        delta: 42,
                        t_ns: 2_500,
                        span: Some("bfs".into()),
                    }),
                    TraceEvent::Warning(WarningEvent {
                        message: "subspace \"clamped\"".into(),
                        t_ns: 4_000,
                        span: Some("bfs".into()),
                    }),
                ],
            }],
            ..Trace::default()
        }
    }

    #[test]
    fn stream_validates_against_own_schema() {
        let text = to_string(&sample());
        validate(&text).unwrap();
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn validator_rejects_defects() {
        let good = to_string(&sample());
        // Missing meta.
        let body: String = good.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(validate(&body).is_err());
        // Unknown event type.
        let bad = format!("{good}{{\"ev\":\"mystery\"}}\n");
        assert!(validate(&bad).is_err());
        // Span with inverted interval.
        let bad = format!(
            "{}\n{{\"ev\":\"span\",\"name\":\"x\",\"tid\":0,\"t0_us\":5,\"t1_us\":1,\"depth\":0}}",
            good.lines().next().unwrap()
        );
        assert!(validate(&bad).is_err());
        assert!(validate("").is_err());
    }
}

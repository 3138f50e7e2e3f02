//! Chrome `trace_event` JSON exporter.
//!
//! Writes the [JSON Array / object format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! consumed by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! spans become `"X"` (complete) events with microsecond timestamps,
//! counters become `"C"` events (rendered as a stacked time series),
//! warnings become `"i"` (instant) events, and each thread gets a
//! `thread_name` metadata record. The output is deterministic for a given
//! [`Trace`], which the golden-file test pins down.

use crate::json::{escape, number};
use crate::session::{Trace, TraceEvent};
use std::io::{self, Write};

/// The fixed process id used for all events (one process per trace).
const PID: u64 = 1;

fn us(ns: u64) -> String {
    // Microseconds with nanosecond precision; fixed decimals keep the
    // output stable and diffable.
    format!("{:.3}", ns as f64 / 1e3)
}

/// Serializes `trace` in Chrome `trace_event` object format.
///
/// # Errors
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    let mut emit = |w: &mut W, line: String| -> io::Result<()> {
        if first {
            first = false;
            write!(w, "{line}")
        } else {
            write!(w, ",\n{line}")
        }
    };
    emit(
        &mut w,
        format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"parhde\"}}}}"
        ),
    )?;
    for th in &trace.threads {
        emit(
            &mut w,
            format!(
                "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"parhde-{}\"}}}}",
                th.tid, th.tid
            ),
        )?;
    }
    for th in &trace.threads {
        let tid = th.tid;
        for ev in &th.events {
            let line = match ev {
                TraceEvent::Span(s) => format!(
                    "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"cat\":\"parhde\",\
                     \"name\":\"{}\",\"ts\":{},\"dur\":{}}}",
                    escape(&s.name),
                    us(s.begin_ns),
                    us(s.end_ns.saturating_sub(s.begin_ns)),
                ),
                TraceEvent::Counter(c) => format!(
                    "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{tid},\"name\":\"{}\",\
                     \"ts\":{},\"args\":{{\"value\":{}}}}}",
                    escape(&c.name),
                    us(c.t_ns),
                    c.delta,
                ),
                TraceEvent::Gauge(g) => format!(
                    "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{tid},\"name\":\"{}\",\
                     \"ts\":{},\"args\":{{\"value\":{}}}}}",
                    escape(&g.name),
                    us(g.t_ns),
                    number(g.value),
                ),
                TraceEvent::Warning(warn) => format!(
                    "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{tid},\"s\":\"t\",\
                     \"name\":\"warning\",\"ts\":{},\"args\":{{\"message\":\"{}\"}}}}",
                    us(warn.t_ns),
                    escape(&warn.message),
                ),
            };
            emit(&mut w, line)?;
        }
    }
    writeln!(w, "\n]}}")?;
    Ok(())
}

/// Serializes `trace` to a `String` (convenience over
/// [`write_chrome_trace`]).
pub fn to_string(trace: &Trace) -> String {
    let mut out = Vec::new();
    // Writing to a Vec cannot fail.
    let _ = write_chrome_trace(trace, &mut out);
    String::from_utf8(out).unwrap_or_default()
}

/// Validates that `text` parses as a Chrome trace object with a
/// `traceEvents` array whose members each carry the mandatory `ph`, `pid`,
/// `tid` and `name` fields, and that every `"X"` event has non-negative
/// `ts`/`dur`.
///
/// # Errors
/// A description of the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = crate::json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        if !ev.is_obj() {
            return Err(format!("traceEvents[{i}] is not an object"));
        }
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("traceEvents[{i}] missing ph"))?;
        for field in ["pid", "tid"] {
            ev.get(field)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("traceEvents[{i}] missing numeric {field}"))?;
        }
        ev.get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("traceEvents[{i}] missing name"))?;
        if ph == "X" {
            for field in ["ts", "dur"] {
                let v = ev
                    .get(field)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("traceEvents[{i}] missing {field}"))?;
                if v < 0.0 {
                    return Err(format!("traceEvents[{i}] has negative {field}"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SpanEvent, ThreadTrace};

    #[test]
    fn export_is_valid_and_self_consistent() {
        let trace = Trace {
            threads: vec![ThreadTrace {
                tid: 0,
                events: vec![TraceEvent::Span(SpanEvent {
                    name: "bfs".into(),
                    begin_ns: 1_000,
                    end_ns: 26_000,
                    depth: 0,
                })],
            }],
            ..Trace::default()
        };
        let text = to_string(&trace);
        validate(&text).unwrap();
        assert!(text.contains("\"ts\":1.000"), "{text}");
        assert!(text.contains("\"dur\":25.000"), "{text}");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("{}").is_err());
        assert!(validate("{\"traceEvents\":3}").is_err());
        assert!(validate("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate("not json").is_err());
    }
}

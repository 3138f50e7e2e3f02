//! Sessions and the merged, resolved [`Trace`].
//!
//! A [`TraceSession`] brackets one run on the thread that begins it:
//! `begin()` opens a record that keeps a timeline and enters it on the
//! calling thread, `finish()` leaves it, drains every timeline buffer and
//! resolves raw begin/end pairs into completed [`SpanEvent`]s with depth
//! and parentage, attributing counters, gauges and warnings to the
//! innermost span open on their thread at record time. Sessions are per
//! thread, not per process: two threads can each trace their own run at
//! once, and work a run forks onto other threads joins its session by
//! entering the [`RecordRef`](crate::RecordRef) captured before the fork.
//! The result is a plain data structure the sinks ([`crate::chrome`],
//! [`crate::ndjson`]) serialize without touching global state — it is
//! also directly constructible, which is how the golden-file exporter
//! tests build deterministic traces.

use crate::record::{Raw, Record, Totals};

/// A completed span: a named interval with its nesting depth (0 = no
/// enclosing span on that thread).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Span name.
    pub name: String,
    /// Open time, nanoseconds since session start.
    pub begin_ns: u64,
    /// Close time, nanoseconds since session start. Spans still open when
    /// the session finished are closed at the latest event time seen.
    pub end_ns: u64,
    /// Nesting depth on its thread at open time.
    pub depth: usize,
}

/// A counter delta attributed to the innermost open span.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterEvent {
    /// Counter name.
    pub name: String,
    /// Amount added.
    pub delta: u64,
    /// Record time, nanoseconds since session start.
    pub t_ns: u64,
    /// Name of the innermost span open on the recording thread, if any.
    pub span: Option<String>,
}

/// A gauge sample attributed to the innermost open span.
#[derive(Clone, Debug, PartialEq)]
pub struct GaugeEvent {
    /// Gauge name.
    pub name: String,
    /// Sampled value.
    pub value: f64,
    /// Record time, nanoseconds since session start.
    pub t_ns: u64,
    /// Name of the innermost span open on the recording thread, if any.
    pub span: Option<String>,
}

/// A structured warning attributed to the innermost open span.
#[derive(Clone, Debug, PartialEq)]
pub struct WarningEvent {
    /// Human-readable message.
    pub message: String,
    /// Record time, nanoseconds since session start.
    pub t_ns: u64,
    /// Name of the innermost span open on the recording thread, if any.
    pub span: Option<String>,
}

/// One resolved event of a [`ThreadTrace`].
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A completed span (listed at its open position, so a thread's events
    /// read chronologically by start time).
    Span(SpanEvent),
    /// A counter delta.
    Counter(CounterEvent),
    /// A gauge sample.
    Gauge(GaugeEvent),
    /// A warning.
    Warning(WarningEvent),
}

/// All events recorded by one thread, in record order.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadTrace {
    /// Session-scoped thread ordinal (0 = first thread that recorded).
    pub tid: u64,
    /// Resolved events in record order.
    pub events: Vec<TraceEvent>,
}

/// The merged result of one tracing session: its record's totals and the
/// timeline it asked for.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per-thread event streams, in thread-registration order.
    pub threads: Vec<ThreadTrace>,
    /// The session's record: phases, counter sums, last gauge values and
    /// warnings, including those of every record nested in it.
    pub totals: Totals,
}

impl Trace {
    /// Total number of resolved timeline events.
    pub fn num_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }
}

/// An active tracing session: a root record, entered on the thread that
/// began it, that keeps a timeline besides its totals. A `begin` inside
/// another record shadows it: the session records until it finishes or
/// drops, then the outer record resumes, and the session's totals are not
/// added to it. Not `Send`, since finishing restores the beginning
/// thread's previous record.
#[derive(Debug)]
pub struct TraceSession {
    record: Record,
}

impl TraceSession {
    /// Starts a fresh session, with its clock at zero, and enters it on the
    /// calling thread.
    pub fn begin() -> Self {
        TraceSession { record: Record::traced() }
    }

    /// Leaves the session, drains every thread's timeline buffer, and
    /// resolves the raw events into a [`Trace`]. Dropping a session
    /// unfinished discards what it recorded.
    pub fn finish(self) -> Trace {
        let timeline = self.record.timeline();
        let totals = self.record.close();
        let threads = timeline
            .map(|t| t.drain())
            .unwrap_or_default()
            .into_iter()
            .enumerate()
            .map(|(tid, raw)| ThreadTrace { tid: tid as u64, events: resolve(raw) })
            .collect();
        Trace { threads, totals }
    }
}

/// Resolves one thread's raw begin/end stream into completed spans (listed
/// at their open position) with counters/gauges/warnings attributed to the
/// innermost open span.
fn resolve(raw: Vec<Raw>) -> Vec<TraceEvent> {
    let mut out: Vec<TraceEvent> = Vec::with_capacity(raw.len());
    // Indices into `out` of the currently-open spans, innermost last.
    let mut open: Vec<usize> = Vec::new();
    let mut last_t = 0u64;
    for ev in raw {
        match ev {
            Raw::Begin { name, t } => {
                last_t = last_t.max(t);
                let depth = open.len();
                open.push(out.len());
                out.push(TraceEvent::Span(SpanEvent {
                    name: name.to_string(),
                    begin_ns: t,
                    end_ns: t, // patched by the matching End
                    depth,
                }));
            }
            Raw::End { t } => {
                last_t = last_t.max(t);
                if let Some(idx) = open.pop() {
                    if let TraceEvent::Span(s) = &mut out[idx] {
                        s.end_ns = t;
                    }
                }
                // An unmatched End (guard outliving its session's thread
                // buffer) is dropped silently.
            }
            Raw::Counter { name, delta, t } => {
                last_t = last_t.max(t);
                out.push(TraceEvent::Counter(CounterEvent {
                    name: name.to_string(),
                    delta,
                    t_ns: t,
                    span: innermost(&out, &open),
                }));
            }
            Raw::Gauge { name, value, t } => {
                last_t = last_t.max(t);
                out.push(TraceEvent::Gauge(GaugeEvent {
                    name: name.to_string(),
                    value,
                    t_ns: t,
                    span: innermost(&out, &open),
                }));
            }
            Raw::Warn { message, t } => {
                last_t = last_t.max(t);
                out.push(TraceEvent::Warning(WarningEvent {
                    message,
                    t_ns: t,
                    span: innermost(&out, &open),
                }));
            }
        }
    }
    // Close spans left open at session end at the latest time seen.
    for idx in open {
        if let TraceEvent::Span(s) = &mut out[idx] {
            s.end_ns = last_t.max(s.begin_ns);
        }
    }
    out
}

fn innermost(out: &[TraceEvent], open: &[usize]) -> Option<String> {
    open.last().and_then(|&idx| match &out[idx] {
        TraceEvent::Span(s) => Some(s.name.clone()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_totals_sum_across_threads() {
        let session = TraceSession::begin();
        crate::counter("edges", 10);
        let captured = crate::current_record();
        std::thread::spawn(move || {
            let _entered = captured.enter();
            crate::counter("edges", 32);
        })
        .join()
        .unwrap();
        let trace = session.finish();
        assert_eq!(trace.totals.counters, vec![("edges", 42)]);
        assert_eq!(trace.threads.len(), 2, "each thread keeps its own timeline");
    }

    #[test]
    fn gauge_finals_keep_last_sample() {
        let session = TraceSession::begin();
        crate::gauge("frontier", 1.0);
        crate::gauge("frontier", 7.0);
        let trace = session.finish();
        assert_eq!(trace.totals.gauges, vec![("frontier", 7.0)]);
        assert_eq!(trace.num_events(), 2, "the timeline keeps every sample");
    }
}

//! Golden-file test for the Chrome `trace_event` exporter.
//!
//! The exporter's output must be byte-stable for a given [`Trace`]: tools
//! (Perfetto queries, CI diffing) depend on the exact field set and number
//! formatting. The golden trace exercises every event kind, multiple
//! threads, nesting, escaping, and the zero-timestamp edge.
//!
//! If the format changes *intentionally*, regenerate the golden file from
//! the actual output the failing assertion writes next to the temp dir.

use parhde_trace::{
    CounterEvent, GaugeEvent, SpanEvent, ThreadTrace, Trace, TraceEvent, WarningEvent,
};

/// A deterministic hand-built trace (no live session → no clock involved).
fn golden_trace() -> Trace {
    Trace {
        threads: vec![
            ThreadTrace {
                tid: 0,
                events: vec![
                    TraceEvent::Span(SpanEvent {
                        name: "parhde".into(),
                        begin_ns: 0,
                        end_ns: 10_000_000,
                        depth: 0,
                    }),
                    TraceEvent::Span(SpanEvent {
                        name: "bfs".into(),
                        begin_ns: 1_000,
                        end_ns: 5_001_000,
                        depth: 1,
                    }),
                    TraceEvent::Counter(CounterEvent {
                        name: "bfs.top_down_edges".into(),
                        delta: 128,
                        t_ns: 2_000_000,
                        span: Some("bfs".into()),
                    }),
                    TraceEvent::Gauge(GaugeEvent {
                        name: "bfs.frontier".into(),
                        value: 32.5,
                        t_ns: 2_500_000,
                        span: Some("bfs".into()),
                    }),
                    TraceEvent::Warning(WarningEvent {
                        message: "subspace clamped to \"n-1\"".into(),
                        t_ns: 6_000_000,
                        span: Some("parhde".into()),
                    }),
                ],
            },
            ThreadTrace {
                tid: 1,
                events: vec![TraceEvent::Span(SpanEvent {
                    name: "bfs.source".into(),
                    begin_ns: 1_500,
                    end_ns: 4_000_500,
                    depth: 0,
                })],
            },
        ],
        ..Trace::default()
    }
}

#[test]
fn chrome_export_matches_golden_file() {
    let actual = parhde_trace::chrome::to_string(&golden_trace());
    let expected = include_str!("golden/chrome_trace.json");
    if actual != expected {
        let dump = std::env::temp_dir().join("parhde_chrome_golden_actual.json");
        std::fs::write(&dump, &actual).ok();
        panic!(
            "chrome exporter output diverged from golden file; \
             actual output written to {}",
            dump.display()
        );
    }
}

#[test]
fn golden_file_itself_validates() {
    parhde_trace::chrome::validate(include_str!("golden/chrome_trace.json")).unwrap();
}

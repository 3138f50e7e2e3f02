//! Cross-thread collection tests: spans and counters recorded from worker
//! threads that entered the session captured on the spawning thread must
//! all land in the merged [`parhde_trace::Trace`]; a thread that entered
//! no session records nothing. Sessions are per thread, so the tests run
//! concurrently.

use parhde_trace::{CounterEvent, SpanEvent, TraceEvent, TraceSession};

fn spans(trace: &parhde_trace::Trace) -> Vec<&SpanEvent> {
    trace
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s),
            _ => None,
        })
        .collect()
}

fn counters(trace: &parhde_trace::Trace) -> Vec<&CounterEvent> {
    trace
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .filter_map(|e| match e {
            TraceEvent::Counter(c) => Some(c),
            _ => None,
        })
        .collect()
}

#[test]
fn worker_thread_spans_all_merge() {
    let session = TraceSession::begin();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let captured = parhde_trace::current_record();
            std::thread::spawn(move || {
                let _entered = captured.enter();
                let _outer = parhde_trace::span!("worker");
                parhde_trace::counter!("work.items", 10);
                let _inner = parhde_trace::span!("worker.inner");
                parhde_trace::counter!("work.items", 1);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let trace = session.finish();

    let all = spans(&trace);
    assert_eq!(all.iter().filter(|s| s.name == "worker").count(), 4);
    assert_eq!(all.iter().filter(|s| s.name == "worker.inner").count(), 4);
    // Each worker ran on its own thread: outer spans sit at depth 0, the
    // nested span at depth 1, and the interval nests properly.
    for s in &all {
        match s.name.as_str() {
            "worker" => assert_eq!(s.depth, 0),
            "worker.inner" => assert_eq!(s.depth, 1),
            other => panic!("unexpected span {other}"),
        }
        assert!(s.end_ns >= s.begin_ns);
    }
    // 4 × (10 + 1) items, regardless of which thread recorded what.
    assert_eq!(trace.totals.counters, vec![("work.items", 44)]);
}

#[test]
fn counters_attribute_to_the_innermost_open_span() {
    let session = TraceSession::begin();
    {
        let _a = parhde_trace::span!("outer");
        parhde_trace::counter!("c.outer", 1);
        {
            let _b = parhde_trace::span!("inner");
            parhde_trace::counter!("c.inner", 2);
        }
        parhde_trace::counter!("c.outer_again", 3);
    }
    parhde_trace::counter!("c.orphan", 4);
    let trace = session.finish();

    let by_name: Vec<(&str, Option<&str>)> = counters(&trace)
        .iter()
        .map(|c| (c.name.as_str(), c.span.as_deref()))
        .collect();
    assert_eq!(
        by_name,
        vec![
            ("c.outer", Some("outer")),
            ("c.inner", Some("inner")),
            ("c.outer_again", Some("outer")),
            ("c.orphan", None),
        ]
    );
}

#[test]
fn deep_nesting_tracks_depth_per_thread() {
    let session = TraceSession::begin();
    {
        let _a = parhde_trace::span!("d0");
        let _b = parhde_trace::span!("d1");
        let _c = parhde_trace::span!("d2");
    }
    let trace = session.finish();
    let all = spans(&trace);
    let depth_of = |name: &str| all.iter().find(|s| s.name == name).unwrap().depth;
    assert_eq!(depth_of("d0"), 0);
    assert_eq!(depth_of("d1"), 1);
    assert_eq!(depth_of("d2"), 2);
}

#[test]
fn threads_spawned_before_finish_are_not_lost_after_drop() {
    // A thread that recorded and *exited* before finish() must still have
    // its buffer in the merge.
    let session = TraceSession::begin();
    let captured = parhde_trace::current_record();
    std::thread::spawn(move || {
        let _entered = captured.enter();
        let _s = parhde_trace::span!("ephemeral");
    })
    .join()
    .unwrap();
    let trace = session.finish();
    assert_eq!(spans(&trace).iter().filter(|s| s.name == "ephemeral").count(), 1);
}

#[test]
fn recording_outside_a_session_is_a_no_op() {
    assert!(!parhde_trace::enabled());
    // None of these may allocate a buffer or panic.
    let _s = parhde_trace::span!("ignored");
    parhde_trace::counter!("ignored", 1);
    parhde_trace::gauge!("ignored", 1.0);
    parhde_trace::warning("ignored");
    drop(_s);
    // A session started afterwards must not see the stray events.
    let session = TraceSession::begin();
    let trace = session.finish();
    assert_eq!(trace.num_events(), 0);
}

#[test]
fn a_thread_that_entered_no_session_records_nothing() {
    let session = TraceSession::begin();
    parhde_trace::counter!("c.owner", 1);
    std::thread::spawn(|| {
        assert!(!parhde_trace::enabled());
        let _s = parhde_trace::span!("stray");
        parhde_trace::counter!("c.stray", 1);
    })
    .join()
    .unwrap();
    let trace = session.finish();
    assert_eq!(trace.threads.len(), 1, "the stray thread left a buffer");
    assert_eq!(trace.totals.counters, vec![("c.owner", 1)]);
}

#[test]
fn re_entering_a_session_on_the_same_thread_adds_no_trace_thread() {
    let session = TraceSession::begin();
    let captured = parhde_trace::current_record();
    std::thread::spawn(move || {
        for _ in 0..3 {
            let _entered = captured.enter();
            parhde_trace::counter!("c.worker", 1);
        }
    })
    .join()
    .unwrap();
    let trace = session.finish();
    assert_eq!(trace.threads.len(), 1, "one buffer per (thread, session)");
    assert_eq!(trace.totals.counters, vec![("c.worker", 3)]);
}

#[test]
fn nested_sessions_restore_the_outer_one() {
    let outer = TraceSession::begin();
    parhde_trace::counter!("c.outer", 1);
    let inner = TraceSession::begin();
    parhde_trace::counter!("c.inner", 1);
    let inner = inner.finish();
    parhde_trace::counter!("c.outer", 1);
    let outer = outer.finish();
    assert!(!parhde_trace::enabled());
    assert_eq!(inner.totals.counters, vec![("c.inner", 1)]);
    assert_eq!(outer.totals.counters, vec![("c.outer", 2)]);
}

#[test]
fn a_nested_record_adds_its_totals_to_the_enclosing_one() {
    use parhde_trace::Record;
    let outer = Record::open();
    parhde_trace::counter!("c", 1);
    parhde_trace::warning("first");
    let inner = Record::open();
    parhde_trace::counter!("c", 2);
    parhde_trace::gauge!("g", 3.0);
    parhde_trace::warning("second");
    drop(parhde_trace::phase("p", "process.peak_rss_delta.p"));
    let inner = inner.close();
    parhde_trace::gauge!("g", 4.0);
    let outer = outer.close();
    assert!(!parhde_trace::enabled());

    let messages = |w: &[parhde_trace::Note]| -> Vec<String> {
        w.iter().map(|n| n.message().to_string()).collect()
    };
    assert_eq!(inner.counters, vec![("c", 2)]);
    assert_eq!(inner.gauge("g"), Some(3.0));
    assert_eq!(messages(&inner.warnings), ["second"]);
    assert_eq!(inner.phases.iter().map(|(n, _)| n).collect::<Vec<_>>(), ["p"]);
    // The enclosing record holds everything, in the order it happened.
    assert_eq!(outer.counters, vec![("c", 3)]);
    assert_eq!(outer.gauge("g"), Some(4.0), "the last sample wins");
    assert_eq!(messages(&outer.warnings), ["first", "second"]);
    assert_eq!(outer.phases.get("p"), inner.phases.get("p"));
    // No timeline was asked for: no RSS samples.
    assert_eq!(outer.counter("process.peak_rss_delta.p"), None);
}

#[test]
fn only_a_session_keeps_a_timeline_and_nested_records_share_it() {
    use parhde_trace::Record;
    let plain = Record::open();
    assert!(parhde_trace::enabled() && !parhde_trace::timeline_enabled());
    drop(parhde_trace::span!("unseen"));
    drop(plain.close());

    let session = TraceSession::begin();
    let nested = Record::open();
    assert!(parhde_trace::timeline_enabled());
    {
        let _p = parhde_trace::phase("p", "process.peak_rss_delta.p");
        parhde_trace::counter!("c.nested", 5);
    }
    let nested = nested.close();
    let trace = session.finish();
    assert_eq!(spans(&trace).iter().map(|s| s.name.as_str()).collect::<Vec<_>>(), ["p"]);
    assert_eq!(counters(&trace).iter().filter(|c| c.name == "c.nested").count(), 1);
    assert_eq!(nested.counter("c.nested"), Some(5));
    assert_eq!(trace.totals.counter("c.nested"), Some(5));
    // On a timeline each phase also samples the peak RSS.
    if parhde_trace::peak_rss_bytes().is_some() {
        assert!(trace.totals.counter("process.peak_rss_delta.p").is_some());
    }
}

#[test]
fn warnings_come_back_as_the_value_they_were_recorded_from() {
    #[derive(Debug, PartialEq)]
    struct Degraded(u32);
    impl std::fmt::Display for Degraded {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "degraded by {}", self.0)
        }
    }
    let record = parhde_trace::Record::open();
    parhde_trace::warning(Degraded(7));
    let totals = record.close();
    assert_eq!(totals.warnings.len(), 1);
    assert_eq!(totals.warnings[0].message(), "degraded by 7");
    assert_eq!(totals.warnings[0].get::<Degraded>(), Some(&Degraded(7)));
    assert_eq!(totals.warnings[0].get::<String>(), None);
}

#[test]
fn worker_counters_and_the_last_gauge_sample_reach_the_record() {
    let record = parhde_trace::Record::open();
    parhde_trace::gauge!("g", 1.0);
    let captured = parhde_trace::current_record();
    std::thread::spawn(move || {
        let _entered = captured.enter();
        parhde_trace::counter!("c", 2);
        parhde_trace::gauge!("g", 2.0);
    })
    .join()
    .unwrap();
    parhde_trace::counter!("c", 1);
    let totals = record.close();
    assert_eq!(totals.counter("c"), Some(3));
    assert_eq!(totals.gauge("g"), Some(2.0));
}

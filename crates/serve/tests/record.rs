//! A request's run record is the one source of its reply's warnings and
//! its run report: a degraded reply names each abandoned supervisor rung
//! once, and the report on disk carries the same warnings in the same
//! order.

use parhde_serve::client::call_once;
use parhde_serve::proto::{Op, Request};
use parhde_serve::server::{serve, ServerConfig};
use parhde_trace::RunReport;
use std::time::Duration;

#[test]
fn a_degraded_reply_lists_each_abandoned_rung_once() {
    let dir = std::env::temp_dir().join(format!("parhde-serve-record-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = serve(ServerConfig {
        report_dir: Some(dir.join("reports")),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();

    // A large grid at s = 50 takes far longer than its deadline, so the
    // supervisor abandons rungs on the way down the ladder. Unoptimized
    // builds run the kernels an order of magnitude slower; their deadline
    // leaves room to build the graph before the request starts.
    let (grid, deadline_ms) =
        if cfg!(debug_assertions) { ("gen:grid:300:300", 2000) } else { ("gen:grid:400:400", 200) };
    let req = Request::new(Op::Layout)
        .with("graph", grid)
        .with("subspace", 50)
        .with("deadline-ms", deadline_ms);
    let resp = call_once(&addr, &req, Duration::from_secs(120)).expect("exchange");
    assert!(resp.is_ok(), "{} {}", resp.code, resp.reason);
    assert_ne!(resp.header("rung"), Some("full"), "the deadline did not degrade the run");

    let warnings: Vec<&str> = resp
        .headers
        .iter()
        .filter(|(k, _)| k == "warning")
        .map(|(_, v)| v.as_str())
        .collect();
    assert_eq!(resp.header("warnings"), Some(warnings.len().to_string().as_str()));
    let abandoned: Vec<&str> = ["full", "halved_pivots", "random_pivots", "phde"]
        .into_iter()
        .filter(|rung| {
            let named = warnings.iter().filter(|w| w.contains(&format!("rung {rung} "))).count();
            assert!(named <= 1, "rung {rung} listed {named} times: {warnings:#?}");
            named == 1
        })
        .collect();
    assert!(abandoned.contains(&"full"), "{warnings:#?}");

    // The run report renders the same record.
    server.drain();
    let report = std::fs::read_dir(dir.join("reports"))
        .expect("report dir")
        .flatten()
        .map(|e| std::fs::read_to_string(e.path()).expect("readable report"))
        .next()
        .expect("one report written");
    let report = RunReport::from_json(&report).expect("valid report");
    assert_eq!(report.warnings, warnings);
    let _ = std::fs::remove_dir_all(&dir);
}

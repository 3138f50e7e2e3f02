//! The daemon and the CLI render their run reports, and the daemon its
//! `STATS` phase histograms, from one record per run. For the same graph
//! and configuration the three views therefore list the same phases: the
//! phase vocabulary, never the timeline's root or kernel spans.

use parhde_serve::client::call_once;
use parhde_serve::proto::{Op, Request};
use parhde_serve::server::{serve, ServerConfig};
use parhde_trace::registry::Snapshot;
use parhde_trace::RunReport;
use std::process::Command;
use std::time::Duration;

fn phase_names(report: &RunReport) -> Vec<String> {
    report.phases.iter().map(|(name, _)| name.clone()).collect()
}

#[test]
fn daemon_report_stats_histograms_and_cli_report_list_the_same_phases() {
    let dir = std::env::temp_dir().join(format!("parhde-report-views-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The daemon: one cold layout, its run report and a STATS scrape.
    let server = serve(ServerConfig {
        report_dir: Some(dir.join("reports")),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    let layout = Request::new(Op::Layout)
        .with("graph", "gen:grid:40:40")
        .with("subspace", 10)
        .with("deadline-ms", 60_000);
    let resp = call_once(&addr, &layout, Duration::from_secs(120)).expect("layout exchange");
    assert!(resp.is_ok(), "{} {}", resp.code, resp.reason);
    assert_eq!(resp.header("rung"), Some("full"));
    let scrape = Request::new(Op::Stats).with("format", "ndjson");
    let stats = call_once(&addr, &scrape, Duration::from_secs(30)).expect("stats exchange");
    let snapshot = Snapshot::from_ndjson(&stats.body).expect("valid metrics");
    server.drain();
    let report = std::fs::read_dir(dir.join("reports"))
        .expect("report dir")
        .flatten()
        .map(|e| std::fs::read_to_string(e.path()).expect("readable report"))
        .next()
        .expect("one report written");
    let daemon = RunReport::from_json(&report).expect("valid daemon report");

    // The CLI: the same graph and subspace.
    let cli_path = dir.join("cli.json");
    let out = Command::new(env!("CARGO_BIN_EXE_parhde-layout"))
        .args(["gen:grid:40x40", "--subspace", "10", "--no-png", "--json-report"])
        .arg(&cli_path)
        .output()
        .expect("parhde-layout runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let cli = RunReport::from_json(&std::fs::read_to_string(&cli_path).unwrap())
        .expect("valid CLI report");
    let _ = std::fs::remove_dir_all(&dir);

    let phases = phase_names(&daemon);
    assert_eq!(
        phases,
        ["init", "bfs", "bfs_other", "dortho", "fused_triple", "eigensolve", "project"]
    );
    assert_eq!(phase_names(&cli), phases, "CLI report");
    let mut histograms: Vec<String> = snapshot
        .metrics
        .iter()
        .filter_map(|(name, _)| name.strip_prefix("parhde_phase_")?.strip_suffix("_seconds"))
        .map(str::to_string)
        .collect();
    histograms.sort();
    let mut sorted = phases.clone();
    sorted.sort();
    assert_eq!(histograms, sorted, "STATS phase histograms");
    // Both reports carry the Figure-3 buckets of those phases.
    assert_eq!(daemon.grouped.len(), 4);
    assert_eq!(cli.grouped.len(), 4);
}

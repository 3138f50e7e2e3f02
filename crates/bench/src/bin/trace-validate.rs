//! `trace-validate` — schema checker for the observability artifacts.
//!
//! Validates any mix of the three machine-readable outputs the pipeline
//! emits and exits non-zero if any file is missing or malformed, so CI can
//! guard the formats without a JSON toolchain in the image:
//!
//! ```text
//! trace-validate [--chrome <file.json>]... [--ndjson <file.ndjson>]...
//!                [--report <file.json>]... [--prometheus <file.prom>]...
//!                [--metrics-ndjson <file.ndjson>]...
//! ```
//!
//! Each `--chrome` file must be a Chrome trace_event object with balanced,
//! well-formed events; each `--ndjson` file a `parhde-trace-ndjson` v1
//! stream whose first line is the meta record; each `--report` a
//! `parhde-run-report` v1 document that round-trips through the parser;
//! each `--prometheus` file a well-formed Prometheus text exposition (as
//! served by the daemon's `STATS` verb); each `--metrics-ndjson` file a
//! `parhde-metrics-ndjson` v1 registry snapshot.
//!
//! `--report` also checks the report against the one record it renders:
//! every `phases` name must belong to the phase vocabulary
//! (`parhde::stats::phase::ALL`), and a report with phases must carry
//! their `grouped` Figure-3 buckets.
//!
//! `--report` additionally cross-checks the compute backend: when the
//! report carries a `backend_executed` config pair and any
//! `linalg.backend.*` element counters, every counted element must be
//! attributed to the executed backend — a silent scalar fallback inside
//! an `auto` run (or any disagreement between what the run claims and
//! what the kernels actually dispatched) fails validation.

use std::process::exit;

/// `--report` checker: schema validation, the phase vocabulary and the
/// backend cross-check described in the module docs.
fn check_report(text: &str) -> Result<(), String> {
    let report = parhde_trace::RunReport::from_json(text)?;
    if let Some((name, _)) =
        report.phases.iter().find(|(name, _)| parhde::stats::phase::lookup(name).is_none())
    {
        return Err(format!("phase {name:?} is outside the phase vocabulary"));
    }
    if !report.phases.is_empty() && report.grouped.is_empty() {
        return Err("the report has phases but no grouped buckets".into());
    }
    let Some((_, executed)) =
        report.config.iter().find(|(k, _)| k == "backend_executed")
    else {
        return Ok(());
    };
    let total = |be: &str| -> u64 {
        let prefix = format!("linalg.backend.{be}.");
        report
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| *v)
            .sum()
    };
    let (scalar, simd) = (total("scalar"), total("simd"));
    if scalar + simd == 0 {
        // No kernel work traced: a degraded/trivial run, or counters off.
        return Ok(());
    }
    let (executed_total, other_name, other_total) = match executed.as_str() {
        "simd" => (simd, "scalar", scalar),
        _ => (scalar, "simd", simd),
    };
    if other_total != 0 {
        return Err(format!(
            "backend mismatch: backend_executed = {executed:?} but \
             {other_total} element(s) were counted under \
             linalg.backend.{other_name}.*"
        ));
    }
    if executed_total == 0 {
        return Err(format!(
            "backend mismatch: backend_executed = {executed:?} but no \
             linalg.backend.{executed}.* counters were recorded"
        ));
    }
    Ok(())
}

/// Adapter: the metrics-snapshot parser returns the snapshot; validation
/// only needs the verdict.
fn check_metrics_ndjson(text: &str) -> Result<(), String> {
    parhde_trace::registry::Snapshot::from_ndjson(text).map(|_| ())
}

/// Schema checker signature shared by all three artifact formats.
type Checker = fn(&str) -> Result<(), String>;

/// One validation job: the flag it came from, the path, and the checker.
struct Job {
    kind: &'static str,
    path: String,
    check: Checker,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: trace-validate [--chrome <file>]... [--ndjson <file>]... \
             [--report <file>]... [--prometheus <file>]... [--metrics-ndjson <file>]..."
        );
        exit(if args.is_empty() { 2 } else { 0 });
    }
    let mut jobs: Vec<Job> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let (kind, check): (&'static str, Checker) = match flag {
            "--chrome" => ("chrome", parhde_trace::chrome::validate),
            "--ndjson" => ("ndjson", parhde_trace::ndjson::validate),
            "--report" => ("report", check_report),
            "--prometheus" => {
                ("prometheus", parhde_trace::registry::validate_prometheus)
            }
            "--metrics-ndjson" => ("metrics-ndjson", check_metrics_ndjson),
            other => {
                eprintln!("trace-validate: unknown option {other}");
                exit(2);
            }
        };
        i += 1;
        let Some(path) = args.get(i) else {
            eprintln!("trace-validate: {flag} needs a file argument");
            exit(2);
        };
        jobs.push(Job { kind, path: path.clone(), check });
        i += 1;
    }

    let mut failures = 0usize;
    for job in &jobs {
        let text = match std::fs::read_to_string(&job.path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {} {}: cannot read: {e}", job.kind, job.path);
                failures += 1;
                continue;
            }
        };
        match (job.check)(&text) {
            Ok(()) => println!("ok   {} {}", job.kind, job.path),
            Err(e) => {
                eprintln!("FAIL {} {}: {e}", job.kind, job.path);
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("trace-validate: {failures} of {} file(s) invalid", jobs.len());
        exit(1);
    }
}

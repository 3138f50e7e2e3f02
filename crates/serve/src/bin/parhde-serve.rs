//! The layout daemon (DESIGN.md §13).
//!
//! ```text
//! parhde-serve [--listen ADDR] [--workers N] [--queue N]
//!              [--mem-budget-mb MB] [--cache-dir DIR] [--cache-max-mb MB]
//!              [--report-dir DIR] [--default-deadline-ms MS]
//!              [--max-deadline-ms MS] [--drain-grace-ms MS]
//!              [--keepalive-idle-ms MS] [--max-requests-per-conn N]
//!              [--graph-dir DIR] [--failpoints SPEC] [--no-request-log]
//!              [--no-telemetry]
//! ```
//!
//! `--graph-dir DIR` serves packed `.phdegrf` snapshots (from parhde-pack)
//! via the request header `graph: packed:<name>`; the snapshot is opened
//! mmap-backed, so served graphs may exceed RAM. Each snapshot is
//! validated and digested once and reused while its file keeps its
//! identity; republish by renaming a new file over it, and the next
//! request that names it opens the new one. An open snapshot's resident
//! index counts against `--mem-budget-mb` until it is closed.
//!
//! Prints `listening on <addr>` once the socket is bound (tests and
//! supervisors wait for that line). Emits one NDJSON event per answered
//! request on stderr (suppress with `--no-request-log`); `STATS` scrapes
//! the live metrics registry; `--no-telemetry` freezes metric recording
//! (the overhead-measurement baseline). First SIGINT/SIGTERM drains: stop
//! accepting, finish in-flight work within the grace period, exit 0.
//! A second signal force-exits 130 immediately.
//!
//! Fault injection (DESIGN.md §16.1): `--failpoints SPEC` — or the
//! `PARHDE_FAILPOINTS` environment variable — arms the deterministic
//! failpoint layer with a seeded schedule, e.g.
//! `seed=42,serve.*=err:0.05,cache.rename=delay:200ms`. The flag wins
//! over the environment when both are set. Per-site evaluation/fire
//! counters are exported through `STATS` as `parhde_failpoint_*`, so two
//! runs with the same seed and traffic can be diffed for reproducibility.
//! Keep-alive knobs: `--keepalive-idle-ms` bounds how long an idle
//! connection may sit between requests; `--max-requests-per-conn` caps
//! how many requests one connection may pipeline before the server closes
//! it (fairness under connection churn).

use parhde_serve::server::{serve, ServerConfig};
use parhde_util::supervisor;
use std::process::exit;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: parhde-serve [--listen ADDR] [--workers N] [--queue N]\n\
         \x20                   [--mem-budget-mb MB] [--cache-dir DIR]\n\
         \x20                   [--cache-max-mb MB] [--report-dir DIR]\n\
         \x20                   [--default-deadline-ms MS]\n\
         \x20                   [--max-deadline-ms MS] [--drain-grace-ms MS]\n\
         \x20                   [--keepalive-idle-ms MS] [--max-requests-per-conn N]\n\
         \x20                   [--graph-dir DIR] [--failpoints SPEC]\n\
         \x20                   [--no-request-log] [--no-telemetry]"
    );
    exit(2);
}

fn main() {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7170".into(),
        log_requests: true,
        ..Default::default()
    };
    let mut failpoint_spec: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        macro_rules! value {
            () => {{
                i += 1;
                match args.get(i) {
                    Some(v) => v.clone(),
                    None => {
                        eprintln!("parhde-serve: missing value for {}", args[i - 1]);
                        exit(2);
                    }
                }
            }};
        }
        macro_rules! parsed {
            () => {
                match value!().parse() {
                    Ok(v) => v,
                    Err(_) => {
                        eprintln!("parhde-serve: bad value for {}", args[i - 1]);
                        exit(2);
                    }
                }
            };
        }
        match args[i].as_str() {
            "--listen" => cfg.addr = value!(),
            "--workers" => cfg.workers = parsed!(),
            "--queue" => cfg.queue_capacity = parsed!(),
            "--mem-budget-mb" => {
                let mb: u64 = parsed!();
                cfg.mem_budget_bytes = mb.saturating_mul(1 << 20);
            }
            "--cache-dir" => cfg.cache_dir = Some(value!().into()),
            "--cache-max-mb" => {
                let mb: u64 = parsed!();
                cfg.cache_max_bytes = Some(mb.saturating_mul(1 << 20));
            }
            "--report-dir" => cfg.report_dir = Some(value!().into()),
            "--graph-dir" => cfg.graph_dir = Some(value!().into()),
            "--no-request-log" => cfg.log_requests = false,
            "--no-telemetry" => parhde_trace::registry::set_enabled(false),
            "--default-deadline-ms" => {
                cfg.default_deadline = Duration::from_millis(parsed!());
            }
            "--max-deadline-ms" => cfg.max_deadline = Duration::from_millis(parsed!()),
            "--drain-grace-ms" => cfg.drain_grace = Duration::from_millis(parsed!()),
            "--keepalive-idle-ms" => {
                cfg.keepalive_idle = Duration::from_millis(parsed!());
            }
            "--max-requests-per-conn" => cfg.max_requests_per_conn = parsed!(),
            "--failpoints" => failpoint_spec = Some(value!()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("parhde-serve: unknown option {other}");
                usage();
            }
        }
        i += 1;
    }

    // Arm failpoints before binding the socket so the very first accepted
    // connection already sees the schedule. The --failpoints flag wins
    // over $PARHDE_FAILPOINTS; a malformed spec is a startup error (exit
    // 2), never a silently-disarmed chaos run.
    let armed = match failpoint_spec {
        Some(spec) => {
            parhde_util::failpoint::arm(&spec).map(|()| true)
        }
        None => parhde_util::failpoint::arm_from_env(),
    };
    match armed {
        Ok(true) => eprintln!("parhde-serve: failpoints armed"),
        Ok(false) => {}
        Err(e) => {
            eprintln!("parhde-serve: bad failpoint spec: {e}");
            exit(2);
        }
    }

    // Pin the compute backend for the daemon's lifetime. $PARHDE_BACKEND
    // picks it (scalar|simd|auto); a forced simd on an unsupported CPU is
    // a startup error (exit 12), never a silent fallback mid-request.
    let backend = match std::env::var("PARHDE_BACKEND") {
        Ok(v) if !v.trim().is_empty() => match v.trim().parse() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("parhde-serve: bad PARHDE_BACKEND: {e}");
                exit(2);
            }
        },
        _ => parhde_linalg::backend::Choice::Auto,
    };
    match parhde_linalg::backend::install(backend) {
        Ok(executed) => eprintln!(
            "parhde-serve: backend {executed} (cpu: {})",
            parhde_linalg::backend::cpu_features()
        ),
        Err(e) => {
            eprintln!("parhde-serve: {e}");
            exit(12);
        }
    }

    supervisor::install_two_stage_handlers();
    let server = match serve(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parhde-serve: failed to start: {e}");
            exit(3);
        }
    };
    println!("listening on {}", server.addr());

    while !supervisor::drain_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("parhde-serve: draining (second signal force-exits)");
    server.drain();
    eprintln!("parhde-serve: drained, bye");
}

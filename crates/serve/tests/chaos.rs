//! Chaos harness: an in-process daemon under hostile clients (DESIGN.md
//! §13.6). Every scenario asserts two things — the specific typed outcome,
//! and that the daemon keeps serving afterwards.
//!
//! Each test spins up its own daemon, worker pool and client threads;
//! run budgets and trace sessions belong to the thread running a layout,
//! so the tests also run concurrently with each other.

use parhde_serve::cache::{cache_key, LayoutCache};
use parhde_serve::client::{call_once, Client};
use parhde_serve::proto::{self, Op, Request, Response};
use parhde_serve::server::{serve, Server, ServerConfig};
use parhde_graph::gen::{self, poison};
use parhde_graph::prep::largest_component;
use parhde_trace::registry::{self, Snapshot};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A unique scratch dir per test, recreated empty.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("parhde-serve-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(cfg: ServerConfig) -> (Server, String) {
    let server = serve(cfg).expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

fn layout_req(spec: &str) -> Request {
    Request::new(Op::Layout).with("graph", spec).with("deadline-ms", 30_000)
}

fn call(addr: &str, req: &Request) -> Response {
    call_once(addr, req, Duration::from_secs(60)).expect("well-formed exchange")
}

fn ping_stat(addr: &str, key: &str) -> u64 {
    let resp = call(addr, &Request::new(Op::Ping));
    assert!(resp.is_ok(), "ping failed: {}", resp.reason);
    resp.header(key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Scrape the daemon's NDJSON metrics snapshot (must succeed — only for
/// use when the queue cannot be full).
fn stats_snapshot(addr: &str) -> Snapshot {
    let resp = call(addr, &Request::new(Op::Stats).with("format", "ndjson"));
    assert!(resp.is_ok(), "stats failed: {} {}", resp.code, resp.reason);
    Snapshot::from_ndjson(&resp.body).expect("valid metrics ndjson")
}

/// The eight terminal layout counters; every started request must end in
/// exactly one of them.
const TERMINALS: [&str; 8] = [
    "parhde_layout_completed_total",
    "parhde_layout_rejected_total",
    "parhde_layout_timeout_total",
    "parhde_layout_too_large_total",
    "parhde_layout_busy_total",
    "parhde_layout_cancelled_total",
    "parhde_layout_failed_total",
    "parhde_layout_drained_total",
];

fn terminal_sum(snap: &Snapshot) -> u64 {
    TERMINALS.iter().map(|n| snap.counter(n).unwrap_or(0)).sum()
}

#[test]
fn round_trip_then_cache_hit_is_byte_identical() {
    let dir = scratch("roundtrip");
    let (server, addr) = start(ServerConfig {
        cache_dir: Some(dir.join("cache")),
        report_dir: Some(dir.join("reports")),
        ..Default::default()
    });

    let cold = call(&addr, &layout_req("gen:grid:12:12"));
    assert!(cold.is_ok(), "cold: {} {}", cold.code, cold.reason);
    assert_eq!(cold.header("cache"), Some("cold"));
    assert_eq!(cold.header("n"), Some("144"));
    assert_eq!(cold.header("rung"), Some("full"));
    assert_eq!(cold.body.lines().count(), 144);
    for line in cold.body.lines() {
        for field in line.split(',') {
            let v: f64 = field.parse().expect("CSV field parses as f64");
            assert!(v.is_finite());
        }
    }

    let hit = call(&addr, &layout_req("gen:grid:12:12"));
    assert!(hit.is_ok());
    assert_eq!(hit.header("cache"), Some("hit"));
    // The cache must return exactly what the cold run computed.
    assert_eq!(hit.body, cold.body);

    // The per-request run reports validate against the trace schema.
    let reports: Vec<_> = std::fs::read_dir(dir.join("reports"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!reports.is_empty(), "no run reports written");
    for path in &reports {
        let text = std::fs::read_to_string(path).unwrap();
        parhde_trace::RunReport::validate(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }

    assert!(server.stray_tmp_files().is_empty());
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cold_reply_body_is_pinned_byte_for_byte() {
    // The body's FNV-1a digest as `format!("{}", x)` rendered it per value:
    // the encoder must keep printing every coordinate byte for byte that
    // way (DESIGN.md §13.4). Hits and warm resumes equal a cold body
    // through the checks above, so this pins all three. The two backends
    // round differently, so each has its digest.
    let (server, addr) = start(ServerConfig::default());
    let cold = call(&addr, &layout_req("gen:grid:11:11"));
    assert!(cold.is_ok(), "cold: {} {}", cold.code, cold.reason);
    assert_eq!(cold.header("cache"), Some("cold"));
    assert_eq!(cold.header("dim"), Some("2"));
    let digest = parhde_util::durable::fnv64(cold.body.as_bytes());
    let pinned = match parhde_linalg::backend::active_name() {
        "simd" => 0xeb0f_1f8e_9291_87fe,
        _ => 0xb2ea_3864_95a3_f09a,
    };
    assert_eq!(digest, pinned, "body digest {digest:#018x}");
    server.drain();
}

/// Sends `reqs` at once (released together by a barrier), one client
/// thread each; returns each response with its round-trip time.
fn call_together(addr: &str, reqs: &[Request]) -> Vec<(Response, Duration)> {
    let barrier = Barrier::new(reqs.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = reqs
            .iter()
            .map(|req| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let t = Instant::now();
                    let resp = call(addr, req);
                    (resp, t.elapsed())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn cold_layouts_for_different_keys_run_side_by_side() {
    // Each request holds its worker for HOLD_MS before laying out a tiny
    // graph. Side by side, both answers come back in about HOLD_MS; one
    // layout at a time, the second would need at least 2·HOLD_MS.
    const HOLD_MS: u64 = 1_000;
    let (server, addr) = start(ServerConfig { workers: 2, ..Default::default() });
    let reqs = ["gen:grid:10:10", "gen:grid:11:10"]
        .map(|spec| layout_req(spec).with("hold-ms", HOLD_MS));
    let answers = call_together(&addr, &reqs);
    for (resp, _) in &answers {
        assert!(resp.is_ok(), "{} {}", resp.code, resp.reason);
        assert_eq!(resp.header("cache"), Some("cold"));
    }
    let slowest = answers.iter().map(|(_, t)| *t).max().unwrap();
    assert!(
        slowest < Duration::from_millis(2 * HOLD_MS),
        "cold layouts did not overlap: slowest answer took {slowest:?}"
    );
    server.drain();
}

#[test]
fn concurrent_cold_requests_for_one_key_agree_and_publish_once() {
    let dir = scratch("same-key");
    let (server, addr) = start(ServerConfig {
        workers: 2,
        cache_dir: Some(dir.join("cache")),
        ..Default::default()
    });
    // Both miss the cache, then hold together, so both run cold and
    // publish the same entry at about the same time.
    let req = layout_req("gen:grid:20:20").with("hold-ms", 200);
    let answers = call_together(&addr, &[req.clone(), req]);
    for (resp, _) in &answers {
        assert!(resp.is_ok(), "{} {}", resp.code, resp.reason);
    }
    assert_eq!(answers[0].0.body, answers[1].0.body, "bodies differ");
    let entries: Vec<_> = std::fs::read_dir(dir.join("cache"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("layout-"))
        .collect();
    assert_eq!(entries.len(), 1, "entry files: {entries:?}");
    assert!(server.stray_tmp_files().is_empty(), "stray .tmp left behind");
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_resume_completes_from_a_planted_checkpoint() {
    let dir = scratch("warm");
    // Build the graph exactly as the server will: gen → largest component.
    let g = largest_component(&gen::grid2d(20, 20)).graph;
    let cfg = parhde::config::ParHdeConfig::for_graph(g.num_vertices());
    let key = cache_key(&g, &cfg, 2);
    // Plant a post-BFS checkpoint where the server's cache will look,
    // simulating an identical earlier request that died mid-run.
    let cache = LayoutCache::open(dir.join("cache")).unwrap();
    let spec = cache.checkpoint_spec(key);
    parhde::try_par_hde_nd_checkpointed(&g, &cfg, 2, &spec).unwrap();
    assert!(spec.file_path().exists(), "planted checkpoint missing");

    let (server, addr) = start(ServerConfig {
        cache_dir: Some(dir.join("cache")),
        ..Default::default()
    });
    let resp = call(&addr, &layout_req("gen:grid:20:20"));
    assert!(resp.is_ok(), "{} {}", resp.code, resp.reason);
    assert_eq!(resp.header("cache"), Some("warm"), "expected warm resume");
    assert_eq!(resp.header("rung"), Some("full"));

    // The warm result was stored, so the next identical request is a hit.
    let hit = call(&addr, &layout_req("gen:grid:20:20"));
    assert_eq!(hit.header("cache"), Some("hit"));
    assert_eq!(hit.body, resp.body);

    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poison_graphs_get_typed_400s_and_the_daemon_survives() {
    let (server, addr) = start(ServerConfig::default());

    // These must come back as typed 400s: unparseable or degenerate.
    let must_reject = [
        poison::truncated_matrix_market(2), // size line, zero entries
        poison::chopped_size_line(),        // the historical unwrap() crasher
        poison::garbage_tail_edge_list(16),
        String::new(),                     // empty body
        "0 0\n0 0\n".to_string(),          // self-loops only → degenerate
        "not a graph at all\n".to_string() // garbage
    ];
    for (i, body) in must_reject.iter().enumerate() {
        let mut req = Request::new(Op::Layout).with("graph", "inline");
        req.body = body.clone();
        let resp = call(&addr, &req);
        assert_eq!(
            resp.code,
            proto::BAD_REQUEST,
            "poison #{i} got {} {} (want 400)",
            resp.code,
            resp.reason
        );
        assert!(resp.header("error").is_some(), "poison #{i}: no error header");
    }
    // These are *partially* parseable by design (a truncated download can
    // still contain a valid prefix): the contract is a typed 200 or 400,
    // never a 5xx and never a dead daemon.
    let lenient = [poison::truncated_matrix_market(3), poison::nan_matrix_market()];
    for (i, body) in lenient.iter().enumerate() {
        let mut req = Request::new(Op::Layout).with("graph", "inline");
        req.body = body.clone();
        let resp = call(&addr, &req);
        assert!(
            resp.is_ok() || resp.code == proto::BAD_REQUEST,
            "lenient poison #{i} got {} {}",
            resp.code,
            resp.reason
        );
    }

    // Hostile knobs are 400s too, not panics.
    for bad in [
        layout_req("gen:grid:999999:999999"),
        layout_req("gen:kron:63:16:1"),
        layout_req("gen:pref:999999999:2:1"),
        layout_req("unknown:spec"),
        layout_req("gen:grid:10:10").with("dim", 99),
        Request::new(Op::Layout).with("graph", "gen:grid:10:10").with("deadline-ms", "soon"),
        Request::new(Op::Layout).with("graph", "gen:grid:10:10").with("hold-ms", "-5"),
    ] {
        let resp = call(&addr, &bad);
        assert_eq!(
            resp.code,
            proto::BAD_REQUEST,
            "request {:?} → {} {:?}",
            bad.headers,
            resp.code,
            resp.reason
        );
    }

    // A raw non-protocol frame gets a 400 as well.
    let resp = call(&addr, &{
        // Request::parse would reject this; build the frame by hand.
        let mut fake = Request::new(Op::Ping);
        fake.headers.push(("x".into(), "y".into()));
        fake
    });
    assert!(resp.is_ok());

    let good = call(&addr, &layout_req("gen:grid:9:9"));
    assert!(good.is_ok(), "daemon did not survive the poison sweep");
    assert_eq!(ping_stat(&addr, "failed"), 0, "poison must reject, not fail");
    server.drain();
}

#[test]
fn client_disconnect_cancels_the_inflight_run() {
    let dir = scratch("disconnect");
    let (server, addr) = start(ServerConfig {
        cache_dir: Some(dir.join("cache")),
        ..Default::default()
    });

    // Hold the run long enough that the watchdog (25 ms poll) sees the
    // disconnect long before completion.
    let req = layout_req("gen:grid:40:40").with("no-cache", 1).with("hold-ms", 5_000);
    Client::connect(&addr).unwrap().fire_and_disconnect(&req).unwrap();

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if ping_stat(&addr, "cancelled") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect was never observed as a cancellation"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The daemon is fully live afterwards.
    let after = call(&addr, &layout_req("gen:grid:10:10"));
    assert!(after.is_ok());
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn draining_answers_queued_work_with_503_and_leaves_no_tmp() {
    let dir = scratch("drain");
    let (server, addr) = start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        cache_dir: Some(dir.join("cache")),
        drain_grace: Duration::from_secs(120),
        ..Default::default()
    });

    // Occupy the single worker with a held request, queue another behind
    // it, then drain: the queued one must be answered 503, not dropped.
    let slow_addr = addr.clone();
    let slow = std::thread::spawn(move || {
        let req = layout_req("gen:grid:12:12").with("no-cache", 1).with("hold-ms", 2_000);
        call_once(&slow_addr, &req, Duration::from_secs(120))
    });
    std::thread::sleep(Duration::from_millis(300)); // let it start holding
    let queued_addr = addr.clone();
    let queued = std::thread::spawn(move || {
        call_once(&queued_addr, &layout_req("gen:grid:30:30"), Duration::from_secs(120))
    });
    std::thread::sleep(Duration::from_millis(100)); // let it enqueue

    server.request_drain();
    let slow_resp = slow.join().unwrap().expect("slow exchange");
    let queued_resp = queued.join().unwrap().expect("queued exchange");
    // The in-flight request finishes normally (grace is generous here);
    // the queued one is refused with the draining status.
    assert!(slow_resp.is_ok(), "{} {}", slow_resp.code, slow_resp.reason);
    assert_eq!(queued_resp.code, proto::DRAINING);

    assert!(server.stray_tmp_files().is_empty(), "torn cache writes left behind");
    server.drain();

    // Post-drain: no partial files anywhere under the cache dir.
    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                assert_ne!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("tmp"),
                    "stray tmp file {}",
                    p.display()
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_requests_share_the_memory_budget_and_release_it() {
    // A budget sized so concurrent biggish requests contend: some must be
    // downscaled or shed busy, and afterwards the pool must drain to zero.
    // Priced on the graph the requests lay out: `gen:grid:300:300` is
    // connected, so it is its own largest component.
    let one = parhde::supervise::estimate_run_bytes_stored(
        &parhde_graph::gen::grid2d(300, 300),
        10,
        2,
        parhde::config::BfsMode::Auto,
        parhde::config::LinalgMode::Fused,
    );
    let (server, addr) = start(ServerConfig {
        workers: 4,
        queue_capacity: 8,
        mem_budget_bytes: one + one / 2,
        ..Default::default()
    });

    let mut handles = Vec::new();
    for _ in 0..4 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let req = layout_req("gen:grid:300:300")
                .with("no-cache", 1)
                .with("subspace", 10)
                .with("hold-ms", 500); // keep the reservations overlapping
            call_once(&addr, &req, Duration::from_secs(120)).expect("exchange")
        }));
    }
    let responses: Vec<Response> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &responses {
        assert!(
            r.is_ok() || r.code == proto::OVERLOADED || r.code == proto::TOO_LARGE,
            "unexpected {} {}",
            r.code,
            r.reason
        );
    }
    assert!(responses.iter().any(|r| r.is_ok()), "nothing completed");

    // Every reservation was released (RAII) once the dust settled.
    assert_eq!(ping_stat(&addr, "budget-reserved"), 0);
    server.drain();
}

#[test]
fn undersized_budget_rejects_413_before_any_work() {
    let (server, addr) = start(ServerConfig {
        mem_budget_bytes: 64 * 1024, // nothing real fits
        ..Default::default()
    });
    let resp = call(&addr, &layout_req("gen:grid:200:200"));
    assert_eq!(resp.code, proto::TOO_LARGE);
    let est: u64 = resp.header("estimated-bytes").unwrap().parse().unwrap();
    let budget: u64 = resp.header("budget-bytes").unwrap().parse().unwrap();
    assert!(est > budget);
    server.drain();
}

#[test]
fn corrupt_cache_entries_are_evicted_not_served() {
    let dir = scratch("corrupt");
    let (server, addr) = start(ServerConfig {
        cache_dir: Some(dir.join("cache")),
        ..Default::default()
    });
    let first = call(&addr, &layout_req("gen:grid:11:11"));
    assert!(first.is_ok());
    assert_eq!(first.header("cache"), Some("cold"));

    // Flip one byte in every cache entry on disk.
    let mut flipped = 0;
    for entry in std::fs::read_dir(dir.join("cache")).unwrap().flatten() {
        let p = entry.path();
        if p.is_file() {
            let mut bytes = std::fs::read(&p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&p, bytes).unwrap();
            flipped += 1;
        }
    }
    assert!(flipped >= 1, "no cache entries written");

    // The corrupted entry must be detected, evicted, and recomputed
    // (cold, or warm from the run's leftover checkpoint) — byte-identical
    // to the original run, never served corrupt.
    let again = call(&addr, &layout_req("gen:grid:11:11"));
    assert!(again.is_ok());
    assert_ne!(again.header("cache"), Some("hit"), "corrupt entry was served");
    assert_eq!(again.body, first.body);
    // The eviction is counted where a scrape sees it (the counter lives
    // in the process-global registry, which other tests share).
    let evicted = stats_snapshot(&addr).counter("parhde_cache_corrupt_evicted_total");
    assert!(evicted >= Some(1), "corrupt eviction not counted: {evicted:?}");

    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_scrape_is_consistent_under_load() {
    let dir = scratch("stats");
    let (server, addr) = start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        cache_dir: Some(dir.join("cache")),
        ..Default::default()
    });

    // Three clients fire layouts (repeats → cache hits) while the main
    // thread scrapes STATS in both formats. STATS must stay answerable
    // and well-formed mid-load, and counters must never show a request
    // that finished without starting.
    let remaining = Arc::new(AtomicUsize::new(3));
    let mut handles = Vec::new();
    for t in 0..3 {
        let addr = addr.clone();
        let remaining = Arc::clone(&remaining);
        handles.push(std::thread::spawn(move || {
            let specs = ["gen:grid:10:10", "gen:grid:11:11", "gen:grid:12:12"];
            let mut ok = 0u64;
            for i in 0..4 {
                let resp = call_once(
                    &addr,
                    &layout_req(specs[(t + i) % specs.len()]),
                    Duration::from_secs(60),
                )
                .expect("exchange");
                assert!(
                    resp.header("trace-id").is_some(),
                    "response missing trace-id: {} {}",
                    resp.code,
                    resp.reason
                );
                if resp.is_ok() {
                    ok += 1;
                }
            }
            remaining.fetch_sub(1, Ordering::SeqCst);
            ok
        }));
    }

    // Mid-load scrapes: a full queue may shed the scrape connection with
    // a 429 — that is allowed; a malformed body or a 5xx is not.
    let mut scrapes = 0u32;
    while remaining.load(Ordering::SeqCst) > 0 {
        let prom = call(&addr, &Request::new(Op::Stats));
        if prom.is_ok() {
            assert_eq!(prom.header("format"), Some("prometheus"));
            registry::validate_prometheus(&prom.body)
                .unwrap_or_else(|e| panic!("mid-load prometheus invalid: {e}"));
        } else {
            assert_eq!(prom.code, proto::OVERLOADED, "{} {}", prom.code, prom.reason);
        }
        let nd = call(&addr, &Request::new(Op::Stats).with("format", "ndjson"));
        if nd.is_ok() {
            let snap = Snapshot::from_ndjson(&nd.body)
                .unwrap_or_else(|e| panic!("mid-load ndjson invalid: {e}"));
            let started =
                snap.counter("parhde_requests_started_total").unwrap_or(0);
            assert!(
                started >= terminal_sum(&snap),
                "more terminal outcomes than started requests"
            );
            scrapes += 1;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let ok_total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(ok_total >= 1, "no layout succeeded under load");
    assert!(scrapes >= 1, "never managed a mid-load scrape");

    // Quiesced: every started request reached exactly one terminal, and
    // the completions match what the clients saw.
    let snap = stats_snapshot(&addr);
    let started = snap.counter("parhde_requests_started_total").unwrap_or(0);
    assert_eq!(
        started,
        terminal_sum(&snap),
        "lifecycle invariant broken: started != sum of terminals"
    );
    assert_eq!(snap.counter("parhde_layout_completed_total"), Some(ok_total));
    assert_eq!(snap.gauge("parhde_inflight"), Some(0.0));
    assert!(snap.histogram("parhde_request_duration_ms").is_some());

    // Backend visibility: both gauges are present, and the active backend
    // is the one the CPU supports (this suite runs with the auto default,
    // so supported ⇔ active — a silent scalar fallback would show here).
    let supported = snap.gauge("parhde_cpu_simd_supported");
    assert!(supported == Some(0.0) || supported == Some(1.0), "{supported:?}");
    assert_eq!(snap.gauge("parhde_backend_simd_active"), supported);

    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_is_bounded_and_evicts_oldest() {
    let dir = scratch("bounded");
    // One 144-vertex 2-D entry is 64 + 144·2·8 = 2368 bytes on disk, so a
    // 5000-byte bound holds exactly two entries.
    let bound = 5_000u64;
    let (server, addr) = start(ServerConfig {
        cache_dir: Some(dir.join("cache")),
        cache_max_bytes: Some(bound),
        ..Default::default()
    });

    // Three distinct 144-vertex graphs, stored oldest → newest.
    let specs = ["gen:grid:12:12", "gen:grid:9:16", "gen:grid:8:18"];
    for spec in specs {
        let resp = call(&addr, &layout_req(spec));
        assert!(resp.is_ok(), "{spec}: {} {}", resp.code, resp.reason);
        assert_eq!(resp.header("cache"), Some("cold"));
    }

    // The third store pushed the oldest entry out; the newest two remain.
    let snap = stats_snapshot(&addr);
    assert!(
        snap.counter("parhde_cache_evictions_total").unwrap_or(0) >= 1,
        "no eviction recorded"
    );
    assert_eq!(snap.gauge("parhde_cache_entries"), Some(2.0));
    assert!(snap.gauge("parhde_cache_bytes").unwrap_or(f64::MAX) <= bound as f64);

    // Newest entry still serves from cache; the evicted oldest does not.
    let newest = call(&addr, &layout_req(specs[2]));
    assert_eq!(newest.header("cache"), Some("hit"));
    let oldest = call(&addr, &layout_req(specs[0]));
    assert!(oldest.is_ok());
    assert_ne!(oldest.header("cache"), Some("hit"), "evicted entry was served");

    // The bound holds on disk too, not just in the counters.
    let on_disk: u64 = std::fs::read_dir(dir.join("cache"))
        .unwrap()
        .flatten()
        .filter(|e| e.path().is_file())
        .map(|e| e.metadata().unwrap().len())
        .sum();
    assert!(on_disk <= bound, "cache dir holds {on_disk} bytes > bound {bound}");

    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

//! Failpoint-armed integration tests (DESIGN.md §16.1): the daemon under
//! a *deterministic* fault schedule. These live in their own test binary
//! because failpoints are process-global — arming one would perturb any
//! test running concurrently in the same process. Every test serializes
//! on one mutex and disarms via an RAII guard so a panicking test cannot
//! leak its schedule into the next. A test that disarms midway keeps the
//! guard until its last request: traffic sent after releasing it would
//! pass the sites of the next test's schedule and shift its counts.

use parhde_serve::client::{call_once, Client, RetryPolicy, RetryingClient};
use parhde_serve::proto::{self, Op, Request};
use parhde_serve::server::{serve, Server, ServerConfig};
use parhde_trace::registry::Snapshot;
use parhde_util::failpoint;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes the test AND guarantees disarm on exit (even by panic).
struct Armed {
    _guard: MutexGuard<'static, ()>,
}

impl Armed {
    fn arm(spec: &str) -> Armed {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        failpoint::disarm(); // a previous panic may have leaked a schedule
        failpoint::arm(spec).expect("valid failpoint spec");
        Armed { _guard: guard }
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        failpoint::disarm();
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("parhde-serve-failpoints-{}-{tag}", std::process::id()));
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

/// A fast, aggressive retry policy so fault-heavy tests stay quick.
fn eager_retries(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 8,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
        seed,
    }
}

fn stats_snapshot(addr: &str) -> Snapshot {
    let req = Request::new(Op::Stats).with("format", "ndjson");
    let resp = call_once(addr, &req, Duration::from_secs(30)).expect("stats exchange");
    assert!(resp.is_ok(), "stats failed: {} {}", resp.code, resp.reason);
    Snapshot::from_ndjson(&resp.body).expect("valid metrics ndjson")
}

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

fn assert_lifecycle_invariant(snap: &Snapshot) {
    let started = snap.counter("parhde_requests_started_total").unwrap_or(0);
    let terminals: u64 = TERMINALS.iter().map(|n| snap.counter(n).unwrap_or(0)).sum();
    assert_eq!(started, terminals, "lifecycle invariant broken under failpoints");
}

/// One deterministic sequential traffic mix: keep-alive layouts (cold,
/// then cache/warm repeats) plus pings, all through the retrying client.
/// Returns how many calls needed at least one retry.
fn fixed_traffic(addr: &str) -> u64 {
    let mut client = RetryingClient::new(addr, Duration::from_secs(60), eager_retries(7));
    let mut retried = 0u64;
    for i in 0..12 {
        let req = if i % 4 == 3 {
            Request::new(Op::Ping)
        } else {
            layout_req(if i % 2 == 0 { "gen:grid:8:8" } else { "gen:grid:9:9" })
        };
        let out = client
            .call(&req)
            .unwrap_or_else(|e| panic!("request {i} lost despite retries: {e}"));
        assert!(
            out.response.is_ok(),
            "request {i}: {} {}",
            out.response.code,
            out.response.reason
        );
        retried += u64::from(out.retries > 0);
    }
    retried
}

#[test]
fn same_seed_means_same_fire_schedule_and_zero_lost_requests() {
    const SPEC: &str = "seed=42,serve.read_frame=err:0.2";

    // Run A: every request must be answered despite a 20% per-read fault
    // rate — absorbed by reconnect + retry, never surfaced to the caller.
    let armed = Armed::arm(SPEC);
    let dir_a = scratch("repro-a");
    let (server_a, addr_a) = start(ServerConfig {
        cache_dir: Some(dir_a.join("cache")),
        ..Default::default()
    });
    fixed_traffic(&addr_a);
    // Counts are read after the drain: after the last reply the worker
    // evaluates `serve.read_frame` once more for the next frame, which a
    // read taken as soon as the reply is in may or may not include.
    server_a.drain();
    let counts_a = failpoint::site_counts();
    drop(armed);

    let fired_a: u64 = counts_a.iter().map(|(_, _, f)| f).sum();
    assert!(fired_a >= 1, "schedule never fired: {counts_a:?}");

    // Run B: same seed, same traffic → byte-identical evaluation/fire
    // counts per site, in the same first-evaluation order.
    let armed = Armed::arm(SPEC);
    let dir_b = scratch("repro-b");
    let (server_b, addr_b) = start(ServerConfig {
        cache_dir: Some(dir_b.join("cache")),
        ..Default::default()
    });
    fixed_traffic(&addr_b);
    server_b.drain();
    let counts_b = failpoint::site_counts();
    drop(armed);

    assert_eq!(counts_a, counts_b, "same seed produced a different schedule");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn write_fault_cancels_buffered_pipeline_successors() {
    let armed = Armed::arm("seed=1,serve.write_response=err:1");
    let (server, addr) = start(ServerConfig::default());

    // Pipeline three pings. The server reads ping #1, its response write
    // fails before any byte, and the two buffered successors must be
    // accounted cancelled — received but never answerable.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for _ in 0..3 {
        proto::write_frame(&mut stream, &Request::new(Op::Ping).encode()).unwrap();
    }
    // A clean close or a reset are both fine — any transport error is.
    if let Ok(payload) = proto::read_frame(&mut stream) {
        panic!("got a response through a dead write path: {payload:?}");
    }
    drop(stream);
    failpoint::disarm(); // so the scrape below can be answered

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = stats_snapshot(&addr);
        if snap.counter("parhde_pipeline_cancelled_total") == Some(2) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "buffered successors never accounted: {:?}",
            snap.counter("parhde_pipeline_cancelled_total")
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.drain();
    drop(armed);
}

#[test]
fn partial_write_fault_sends_the_prefix_and_half_the_payload() {
    let armed = Armed::arm("seed=1,serve.write_response=partial:1");
    let (server, addr) = start(ServerConfig::default());

    // The torn frame is the whole reply's length prefix, then the first
    // half of its payload, then a closed connection.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    proto::write_frame(&mut stream, &Request::new(Op::Ping).encode()).unwrap();
    let mut torn = Vec::new();
    let _ = std::io::Read::read_to_end(&mut stream, &mut torn);
    drop(stream);
    failpoint::disarm();
    assert!(torn.len() >= 4, "no length prefix: {torn:?}");
    let len = u32::from_le_bytes(torn[..4].try_into().unwrap()) as usize;
    assert_eq!(torn.len(), 4 + len / 2, "torn frame for a {len}-byte payload");
    assert!(torn[4..].starts_with(b"PARHDE/1 200 pong\n"));
    server.drain();
    drop(armed);
}

#[test]
fn cache_rename_fault_leaves_no_torn_entry_and_recovery_is_clean() {
    let armed = Armed::arm("seed=3,cache.rename=err:1");
    let dir = scratch("rename");
    let (server, addr) = start(ServerConfig {
        cache_dir: Some(dir.join("cache")),
        ..Default::default()
    });

    // The layout itself succeeds — cache failures degrade to "no cache",
    // never to request failure — but the store dies at the rename, and
    // the staging file must not survive it.
    let first = call_once(&addr, &layout_req("gen:grid:10:10"), Duration::from_secs(60))
        .expect("exchange");
    assert!(first.is_ok(), "{} {}", first.code, first.reason);
    assert_eq!(first.header("cache"), Some("cold"));
    assert!(server.stray_tmp_files().is_empty(), "torn entry left on disk");

    // Nothing was published, so the repeat cannot be a cache hit (a warm
    // checkpoint resume is fine) — and it must be byte-identical.
    let again = call_once(&addr, &layout_req("gen:grid:10:10"), Duration::from_secs(60))
        .expect("exchange");
    assert!(again.is_ok());
    assert_ne!(again.header("cache"), Some("hit"), "unpublished entry was served");
    assert_eq!(again.body, first.body);
    assert!(server.stray_tmp_files().is_empty());

    // Disarmed, the store goes through and the next repeat is a hit.
    failpoint::disarm();
    let stored = call_once(&addr, &layout_req("gen:grid:10:10"), Duration::from_secs(60))
        .expect("exchange");
    assert!(stored.is_ok());
    let hit = call_once(&addr, &layout_req("gen:grid:10:10"), Duration::from_secs(60))
        .expect("exchange");
    assert_eq!(hit.header("cache"), Some("hit"));
    assert_eq!(hit.body, first.body);

    server.drain();
    drop(armed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_read_fault_is_a_miss_not_an_eviction() {
    // Populate the cache with failpoints disarmed (the Armed guard both
    // serializes the test and guarantees disarm; re-arming below swaps
    // the schedule under the same guard).
    let armed = Armed::arm("seed=5");
    let dir = scratch("read");
    let (server, addr) = start(ServerConfig {
        cache_dir: Some(dir.join("cache")),
        ..Default::default()
    });
    let first = call_once(&addr, &layout_req("gen:grid:11:11"), Duration::from_secs(60))
        .expect("exchange");
    assert!(first.is_ok());
    let hit = call_once(&addr, &layout_req("gen:grid:11:11"), Duration::from_secs(60))
        .expect("exchange");
    assert_eq!(hit.header("cache"), Some("hit"));

    // An injected read fault must degrade to a miss (recompute) without
    // evicting the perfectly good entry underneath.
    failpoint::disarm();
    failpoint::arm("seed=5,cache.read_entry=err:1").unwrap();
    let missed = call_once(&addr, &layout_req("gen:grid:11:11"), Duration::from_secs(60))
        .expect("exchange");
    failpoint::disarm();
    assert!(missed.is_ok());
    assert_ne!(missed.header("cache"), Some("hit"), "fault did not miss");
    assert_eq!(missed.body, first.body);

    // The entry survived the injected fault: hits resume once it clears.
    let after = call_once(&addr, &layout_req("gen:grid:11:11"), Duration::from_secs(60))
        .expect("exchange");
    assert_eq!(after.header("cache"), Some("hit"), "entry was wrongly evicted");
    server.drain();
    drop(armed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_write_fault_is_typed_500_with_no_strays() {
    let armed = Armed::arm("seed=11,checkpoint.write=err:1");
    let dir = scratch("ckpt");
    let (server, addr) = start(ServerConfig {
        cache_dir: Some(dir.join("cache")),
        ..Default::default()
    });

    // The checkpoint write sits inside the pipeline, so its failure fails
    // the run — typed as the *server's* fault (500, `layout_failed`
    // terminal), never a 400 blaming the request, and never a torn file.
    let resp = call_once(&addr, &layout_req("gen:grid:12:12"), Duration::from_secs(60))
        .expect("exchange");
    assert_eq!(resp.code, proto::INTERNAL, "{} {}", resp.code, resp.reason);
    assert!(
        resp.header("error").unwrap_or("").contains("checkpoint"),
        "error does not name the checkpoint stage: {:?}",
        resp.header("error")
    );
    assert!(server.stray_tmp_files().is_empty(), "torn checkpoint left on disk");

    // Disarmed, the identical request completes and the books balance.
    failpoint::disarm();
    let ok = call_once(&addr, &layout_req("gen:grid:12:12"), Duration::from_secs(60))
        .expect("exchange");
    assert!(ok.is_ok(), "{} {}", ok.code, ok.reason);
    let snap = stats_snapshot(&addr);
    assert_eq!(snap.counter("parhde_layout_failed_total"), Some(1));
    assert_lifecycle_invariant(&snap);
    server.drain();
    drop(armed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_reserve_fault_sheds_typed_429_and_the_client_backs_off() {
    let armed = Armed::arm("seed=9,budget.reserve=err:1");
    let (server, addr) = start(ServerConfig::default());

    // Raw client: the injected admission failure is a typed 429 with a
    // retry hint, exactly like a genuinely full budget.
    let shed = call_once(&addr, &layout_req("gen:grid:10:10"), Duration::from_secs(60))
        .expect("exchange");
    assert_eq!(shed.code, proto::OVERLOADED, "{} {}", shed.code, shed.reason);
    let hint: u64 = shed
        .header("retry-after-ms")
        .expect("429 carries retry-after-ms")
        .parse()
        .expect("numeric hint");
    assert!(hint >= 50, "hint {hint} below the documented floor");

    // Retrying client: burns its full retry budget honoring the hint,
    // then reports the final 429 — a response, not a lost request.
    let policy = RetryPolicy {
        max_retries: 2,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(60),
        seed: 13,
    };
    let mut client = RetryingClient::new(&addr, Duration::from_secs(60), policy);
    let out = client.call(&layout_req("gen:grid:10:10")).expect("exchange");
    assert_eq!(out.response.code, proto::OVERLOADED);
    assert_eq!(out.retries, 2, "retry budget not fully spent on 429s");

    // Clears instantly once the fault is disarmed.
    failpoint::disarm();
    let ok = call_once(&addr, &layout_req("gen:grid:10:10"), Duration::from_secs(60))
        .expect("exchange");
    assert!(ok.is_ok(), "{} {}", ok.code, ok.reason);
    let snap = stats_snapshot(&addr);
    assert!(snap.counter("parhde_layout_busy_total").unwrap_or(0) >= 4);
    assert_lifecycle_invariant(&snap);
    server.drain();
    drop(armed);
}

#[test]
fn delay_rules_slow_requests_down_without_failing_them() {
    let armed = Armed::arm("seed=2,serve.read_frame=delay:80ms");
    let (server, addr) = start(ServerConfig::default());

    let t0 = Instant::now();
    let mut client = Client::connect(&addr).unwrap();
    client.set_timeout(Duration::from_secs(30)).unwrap();
    for _ in 0..3 {
        let resp = client.call(&Request::new(Op::Ping)).unwrap();
        assert!(resp.is_ok());
    }
    // Three reads, each delayed 80 ms before the frame is accepted.
    assert!(
        t0.elapsed() >= Duration::from_millis(240),
        "delays were not injected: {:?}",
        t0.elapsed()
    );
    let fired: u64 = failpoint::site_counts()
        .iter()
        .filter(|(site, _, _)| site == "serve.read_frame")
        .map(|(_, _, f)| f)
        .sum();
    assert!(fired >= 3, "delay fires not recorded");
    drop(armed);
    server.drain();
}

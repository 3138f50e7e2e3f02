//! Connection-lifecycle tests for the keep-alive state machine
//! (DESIGN.md §16.2): pipelined ordered writeback, per-connection request
//! caps, idle reaping, staged read deadlines, and the lifecycle-counter
//! invariant under connection reuse.

use parhde_serve::client::{Client, RetryPolicy, RetryingClient};
use parhde_serve::proto::{self, Op, Request, Response};
use parhde_serve::server::{serve, Server, ServerConfig};
use parhde_trace::registry::Snapshot;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start(cfg: ServerConfig) -> (Server, String) {
    let server = serve(cfg).expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

fn layout_req(spec: &str) -> Request {
    Request::new(Op::Layout).with("graph", spec).with("deadline-ms", 30_000)
}

fn stats_snapshot(addr: &str) -> Snapshot {
    let req = Request::new(Op::Stats).with("format", "ndjson");
    let resp = parhde_serve::client::call_once(addr, &req, Duration::from_secs(30))
        .expect("stats exchange");
    assert!(resp.is_ok(), "stats failed: {} {}", resp.code, resp.reason);
    Snapshot::from_ndjson(&resp.body).expect("valid metrics ndjson")
}

fn counter(addr: &str, name: &str) -> u64 {
    stats_snapshot(addr).counter(name).unwrap_or(0)
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

#[test]
fn one_connection_serves_many_requests() {
    let (server, addr) = start(ServerConfig::default());

    let mut client = Client::connect(&addr).unwrap();
    client.set_timeout(Duration::from_secs(60)).unwrap();
    let specs = ["gen:grid:8:8", "gen:grid:9:9", "gen:grid:8:8", "gen:grid:10:10"];
    for (i, spec) in specs.iter().enumerate() {
        let resp = client.call(&layout_req(spec)).unwrap();
        assert!(resp.is_ok(), "request {i}: {} {}", resp.code, resp.reason);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }
    drop(client);

    // Requests 2..4 rode the keep-alive connection; the invariant holds.
    let snap = stats_snapshot(&addr);
    assert!(
        snap.counter("parhde_keepalive_requests_total").unwrap_or(0) >= 3,
        "keep-alive requests not counted"
    );
    let started = snap.counter("parhde_requests_started_total").unwrap_or(0);
    let terminals: u64 = TERMINALS.iter().map(|n| snap.counter(n).unwrap_or(0)).sum();
    assert_eq!(started, terminals, "lifecycle invariant broken under keep-alive");
    server.drain();
}

#[test]
fn pipelined_burst_is_answered_in_order() {
    let (server, addr) = start(ServerConfig::default());

    // Distinct vertex counts: response k must answer request k, and the
    // `n` header proves which request a response belongs to.
    let sides = [6usize, 9, 7, 10, 8];
    let reqs: Vec<Request> =
        sides.iter().map(|s| layout_req(&format!("gen:grid:{s}:{s}"))).collect();
    let mut client = Client::connect(&addr).unwrap();
    client.set_timeout(Duration::from_secs(120)).unwrap();
    let responses = client.pipeline(&reqs).expect("pipelined exchange");
    assert_eq!(responses.len(), sides.len());
    for (resp, side) in responses.iter().zip(sides) {
        assert!(resp.is_ok(), "{} {}", resp.code, resp.reason);
        assert_eq!(
            resp.header("n"),
            Some(format!("{}", side * side).as_str()),
            "responses arrived out of order"
        );
    }
    server.drain();
}

#[test]
fn request_cap_is_announced_and_enforced() {
    let (server, addr) = start(ServerConfig {
        max_requests_per_conn: 2,
        ..Default::default()
    });

    let mut client = Client::connect(&addr).unwrap();
    client.set_timeout(Duration::from_secs(60)).unwrap();
    let first = client.call(&layout_req("gen:grid:8:8")).unwrap();
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = client.call(&layout_req("gen:grid:8:8")).unwrap();
    assert_eq!(second.header("connection"), Some("close"), "cap not announced");
    // The server hung up after the announced close.
    let third = client.call(&layout_req("gen:grid:8:8"));
    assert!(third.is_err(), "server served past its per-connection cap");
    assert!(counter(&addr, "parhde_connections_closed_cap_total") >= 1);

    // The retrying client absorbs cap closes invisibly: 5 calls on a
    // cap-2 server all succeed through transparent reconnects.
    let mut retrying = RetryingClient::new(
        &addr,
        Duration::from_secs(60),
        RetryPolicy::default(),
    );
    for i in 0..5 {
        let out = retrying.call(&layout_req("gen:grid:9:9")).unwrap();
        assert!(out.response.is_ok(), "call {i} through cap closes failed");
        assert_eq!(out.retries, 0, "an announced close must not burn a retry");
    }
    server.drain();
}

#[test]
fn idle_keepalive_connections_are_reaped() {
    let (server, addr) = start(ServerConfig {
        keepalive_idle: Duration::from_millis(200),
        ..Default::default()
    });

    let mut client = Client::connect(&addr).unwrap();
    client.set_timeout(Duration::from_secs(60)).unwrap();
    let first = client.call(&layout_req("gen:grid:8:8")).unwrap();
    assert!(first.is_ok());

    // Outlive the idle budget; the server must close, not wait forever.
    let deadline = Instant::now() + Duration::from_secs(30);
    while counter(&addr, "parhde_connections_closed_idle_total") == 0 {
        assert!(Instant::now() < deadline, "idle connection was never reaped");
        std::thread::sleep(Duration::from_millis(50));
    }
    let second = client.call(&layout_req("gen:grid:8:8"));
    assert!(second.is_err(), "reaped connection still answered");
    server.drain();
}

#[test]
fn byte_drip_exhausts_the_frame_budget_with_a_408() {
    let (server, addr) = start(ServerConfig {
        frame_budget: Duration::from_millis(400),
        ..Default::default()
    });

    // A slowloris peer: start a frame, then drip one byte and stall. The
    // whole-frame clock (started at the first byte) must expire even
    // though the connection is never idle long enough to trip that limit.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(&[4u8]).unwrap(); // first byte of the length prefix
    std::thread::sleep(Duration::from_millis(150));
    stream.write_all(&[0u8]).unwrap(); // still three prefix bytes short

    let payload = proto::read_frame(&mut stream).expect("408 before close");
    let resp = Response::parse(&payload).unwrap();
    assert_eq!(resp.code, proto::TIMEOUT, "{} {}", resp.code, resp.reason);
    assert_eq!(resp.header("connection"), Some("close"));
    assert!(counter(&addr, "parhde_frame_timeouts_total") >= 1);

    // And the stream really is closed afterwards.
    let mut byte = [0u8; 1];
    assert_eq!(stream.read(&mut byte).unwrap_or(0), 0, "expected EOF after 408");
    server.drain();
}

#[test]
fn a_deadline_spent_resolving_the_graph_is_not_blamed_on_the_queue() {
    // Time what the worker does before the run — generate the grid and
    // take its largest component — and give the request a quarter of it:
    // an idle daemon picks the request up at once, so resolving the graph
    // spends the deadline, not the queue. Optimized builds get a larger
    // grid, so the deadline stays well above a worker's pick-up time.
    let side = if cfg!(debug_assertions) { 600 } else { 1500 };
    let t0 = Instant::now();
    let g = parhde_graph::gen::grid2d(side, side);
    let _ = parhde_graph::prep::largest_component(&g);
    let deadline_ms = (t0.elapsed().as_millis() / 4).max(1);
    drop(g);

    let (server, addr) = start(ServerConfig::default());
    let req = Request::new(Op::Layout)
        .with("graph", format!("gen:grid:{side}:{side}"))
        .with("deadline-ms", deadline_ms);
    let resp = parhde_serve::client::call_once(&addr, &req, Duration::from_secs(120))
        .expect("exchange");
    assert_eq!(resp.code, proto::TIMEOUT, "{} {}", resp.code, resp.reason);
    assert_eq!(resp.reason, "deadline exhausted resolving the graph");
    assert_eq!(resp.header("deadline-ms"), Some(deadline_ms.to_string().as_str()));
    server.drain();
}

#[test]
fn a_deadline_spent_in_the_queue_is_answered_before_the_graph_is_built() {
    use parhde_graph::GraphStore;
    // One worker, held by a small layout: the second request's deadline
    // runs out while its connection waits for the worker, which must then
    // answer it without generating its large graph, so the residency gauge
    // still shows the first graph. Connections are accepted in connect
    // order and served first come, first served.
    let (server, addr) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut client = Client::connect(&addr).unwrap();
    client.set_timeout(Duration::from_secs(60)).unwrap();
    let first = std::thread::spawn(move || {
        let req = layout_req("gen:grid:8:8").with("no-cache", 1).with("hold-ms", 1_500);
        client.call(&req).expect("exchange")
    });
    let req = Request::new(Op::Layout)
        .with("graph", "gen:grid:1000:1000")
        .with("deadline-ms", 100);
    let resp = parhde_serve::client::call_once(&addr, &req, Duration::from_secs(60))
        .expect("exchange");
    assert_eq!(resp.code, proto::TIMEOUT, "{} {}", resp.code, resp.reason);
    assert_eq!(resp.reason, "deadline exhausted in queue");
    let first = first.join().expect("first client");
    assert!(first.is_ok(), "{} {}", first.code, first.reason);
    let small = parhde_graph::prep::largest_component(&parhde_graph::gen::grid2d(8, 8)).graph;
    let resident = stats_snapshot(&addr).gauge("parhde_graph_bytes_resident");
    assert_eq!(resident, Some(small.resident_bytes() as f64));
    server.drain();
}

#[test]
fn garbage_after_a_valid_frame_closes_with_a_typed_400() {
    let (server, addr) = start(ServerConfig::default());

    // A valid PING followed by bytes that parse as an absurd length
    // prefix: the first request is answered, the garbage is rejected as a
    // too-large frame, and the connection closes (it cannot be
    // re-synchronized — the payload bytes were never read).
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    proto::write_frame(&mut stream, &Request::new(Op::Ping).encode()).unwrap();
    stream.write_all(&[0xFF; 8]).unwrap();

    let first = Response::parse(&proto::read_frame(&mut stream).unwrap()).unwrap();
    assert!(first.is_ok(), "valid frame before garbage must be answered");
    let second = Response::parse(&proto::read_frame(&mut stream).unwrap()).unwrap();
    assert_eq!(second.code, proto::BAD_REQUEST, "{} {}", second.code, second.reason);
    assert_eq!(second.header("connection"), Some("close"));
    let mut byte = [0u8; 1];
    assert_eq!(stream.read(&mut byte).unwrap_or(0), 0, "expected EOF after 400");
    server.drain();
}

#[test]
fn a_reply_over_one_frame_is_a_typed_413_on_a_live_connection() {
    let (server, addr) = start(ServerConfig::default());

    // 250 000 vertices × 16 coordinates print to about 80 MB of CSV, over
    // the 64 MiB frame cap. The daemon must say so and keep the
    // connection, not close it with the reply unsent.
    let mut client = Client::connect(&addr).unwrap();
    client.set_timeout(Duration::from_secs(600)).unwrap();
    let req = layout_req("gen:grid:500:500")
        .with("deadline-ms", 60_000)
        .with("dim", 16)
        .with("subspace", 20);
    let resp = client.call(&req).unwrap();
    assert_eq!(resp.code, proto::TOO_LARGE, "{} {}", resp.code, resp.reason);
    assert_eq!(resp.reason, "reply too large");
    let reply_bytes: u64 = resp.header("reply-bytes").unwrap().parse().unwrap();
    assert!(reply_bytes > u64::from(proto::MAX_FRAME), "reply-bytes {reply_bytes}");
    assert_eq!(resp.header("frame-cap"), Some(proto::MAX_FRAME.to_string().as_str()));
    assert_eq!(resp.header("connection"), Some("keep-alive"));
    let pong = client.call(&Request::new(Op::Ping)).unwrap();
    assert!(pong.is_ok(), "{} {}", pong.code, pong.reason);
    drop(client);

    let snap = stats_snapshot(&addr);
    assert_eq!(snap.counter("parhde_layout_too_large_total"), Some(1));
    assert_eq!(snap.counter("parhde_layout_completed_total").unwrap_or(0), 0);
    let started = snap.counter("parhde_requests_started_total").unwrap_or(0);
    let terminals: u64 = TERMINALS.iter().map(|n| snap.counter(n).unwrap_or(0)).sum();
    assert_eq!(started, terminals, "lifecycle invariant broken by a 413 reply");
    server.drain();
}

//! Serving packed `.phdegrf` snapshots (DESIGN.md §17): the `packed:`
//! graph source resolves against `--graph-dir`, the layout is bit-identical
//! to the same graph served inline, traversal-hostile names are rejected,
//! the storage gauges/decode counters land in the scrape, and the daemon's
//! table of open snapshots serves only validated bytes, digests each
//! snapshot once and holds its resident bytes on the memory budget.

use parhde_graph::gen;
use parhde_graph::prep::largest_component;
use parhde_graph::CompressedCsr;
use parhde_serve::client::call_once;
use parhde_serve::proto::{Op, Request, Response, BAD_REQUEST, TOO_LARGE};
use parhde_serve::server::{serve, Server, ServerConfig};
use parhde_trace::registry::Snapshot;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Duration;

fn start(cfg: ServerConfig) -> (Server, String) {
    let server = serve(cfg).expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parhde-packed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn layout(addr: &str, req: &Request) -> Response {
    call_once(addr, req, Duration::from_secs(60)).expect("layout exchange")
}

fn packed(name: &str) -> Request {
    Request::new(Op::Layout)
        .with("graph", format!("packed:{name}"))
        .with("deadline-ms", 30_000)
}

fn stats_snapshot(addr: &str) -> Snapshot {
    let req = Request::new(Op::Stats).with("format", "ndjson");
    let resp = call_once(addr, &req, Duration::from_secs(30)).expect("stats exchange");
    assert!(resp.is_ok(), "stats failed: {} {}", resp.code, resp.reason);
    Snapshot::from_ndjson(&resp.body).expect("valid metrics ndjson")
}

#[test]
fn packed_layout_is_bit_identical_to_inline() {
    let dir = scratch("roundtrip");
    // A connected graph, so the inline path's largest-component extraction
    // is the identity and both requests lay out the same vertex set.
    let g = gen::grid2d(14, 11);
    CompressedCsr::from_csr(&g)
        .write_snapshot(&dir.join("grid.phdegrf"))
        .expect("snapshot written");
    let mut inline_body = String::new();
    for u in 0..g.num_vertices() as u32 {
        for &v in g.neighbors(u) {
            if u < v {
                inline_body.push_str(&format!("{u} {v}\n"));
            }
        }
    }

    let (server, addr) =
        start(ServerConfig { graph_dir: Some(dir.clone()), ..Default::default() });
    let packed = call_once(
        &addr,
        &Request::new(Op::Layout)
            .with("graph", "packed:grid")
            .with("no-cache", 1)
            .with("deadline-ms", 30_000),
        Duration::from_secs(60),
    )
    .expect("packed round trip");
    assert!(packed.is_ok(), "packed: {} {}", packed.code, packed.reason);
    assert_eq!(packed.header("n"), Some(&*(14 * 11).to_string()));

    let mut inline_req = Request::new(Op::Layout)
        .with("no-cache", 1)
        .with("deadline-ms", 30_000);
    inline_req.body = inline_body;
    let inline = call_once(&addr, &inline_req, Duration::from_secs(60))
        .expect("inline round trip");
    assert!(inline.is_ok(), "inline: {} {}", inline.code, inline.reason);

    // Same graph, same config, different storage: byte-identical bodies.
    assert_eq!(packed.body, inline.body, "packed and inline layouts differ");

    // Storage telemetry made it into the scrape.
    let snap = stats_snapshot(&addr);
    let ratio = snap.gauge("parhde_graph_compression_ratio").unwrap_or(0.0);
    assert!(ratio > 1.0, "compression ratio gauge missing or <= 1: {ratio}");
    assert!(
        snap.counter("parhde_graph_decode_calls_total").unwrap_or(0) > 0,
        "decode-call counter missing from scrape"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_and_missing_packed_names_are_rejected() {
    let dir = scratch("hostile");
    let (server, addr) =
        start(ServerConfig { graph_dir: Some(dir.clone()), ..Default::default() });
    for name in ["packed:../etc/passwd", "packed:.hidden", "packed:", "packed:no/slash"] {
        let resp = call_once(
            &addr,
            &Request::new(Op::Layout).with("graph", name).with("deadline-ms", 5_000),
            Duration::from_secs(30),
        )
        .expect("exchange");
        assert_eq!(resp.code, parhde_serve::proto::BAD_REQUEST, "{name}: {}", resp.reason);
    }
    // A well-formed name that simply does not exist is also a bad request.
    let resp = call_once(
        &addr,
        &Request::new(Op::Layout).with("graph", "packed:missing").with("deadline-ms", 5_000),
        Duration::from_secs(30),
    )
    .expect("exchange");
    assert_eq!(resp.code, parhde_serve::proto::BAD_REQUEST, "{}", resp.reason);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn packed_spec_without_graph_dir_is_rejected() {
    let (server, addr) = start(ServerConfig::default());
    let resp = call_once(
        &addr,
        &Request::new(Op::Layout).with("graph", "packed:any").with("deadline-ms", 5_000),
        Duration::from_secs(30),
    )
    .expect("exchange");
    assert_eq!(resp.code, parhde_serve::proto::BAD_REQUEST, "{}", resp.reason);
    drop(server);
}

#[test]
fn republished_snapshots_are_reopened_and_vanished_ones_released() {
    let dir = scratch("republish");
    let path = dir.join("g.phdegrf");
    let publish = |g: &parhde_graph::CsrGraph| {
        CompressedCsr::from_csr(g)
            .write_snapshot(&path)
            .expect("snapshot written")
    };
    let open_gauge = |addr: &str| stats_snapshot(addr).gauge("parhde_snapshots_open");
    publish(&gen::grid2d(12, 10));
    let (server, addr) = start(ServerConfig {
        graph_dir: Some(dir.clone()),
        ..Default::default()
    });
    let first = layout(&addr, &packed("g"));
    assert!(first.is_ok(), "first: {} {}", first.code, first.reason);
    assert_eq!(first.header("n"), Some("120"));
    assert_eq!(open_gauge(&addr), Some(1.0));

    // A different graph under the same name: the publish renames a new
    // file into place, and the next reply is the new graph's layout.
    publish(&gen::grid2d(9, 13));
    let second = layout(&addr, &packed("g"));
    assert!(second.is_ok(), "second: {} {}", second.code, second.reason);
    assert_eq!(second.header("n"), Some("117"));
    let (fresh, fresh_addr) = start(ServerConfig {
        graph_dir: Some(dir.clone()),
        ..Default::default()
    });
    let expected = layout(&fresh_addr, &packed("g"));
    fresh.drain();
    assert!(expected.is_ok(), "fresh: {}", expected.reason);
    assert_eq!(second.body, expected.body, "republished graph served stale");

    // A corrupt image renamed into place is refused, not served from the
    // table.
    let mut bytes = CompressedCsr::from_csr(&gen::grid2d(9, 13)).snapshot_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    let staged = dir.join("g.staged");
    std::fs::write(&staged, &bytes).expect("corrupt image staged");
    std::fs::rename(&staged, &path).expect("corrupt image renamed into place");
    let corrupt = layout(&addr, &packed("g"));
    assert_eq!((corrupt.code, &*corrupt.reason), (BAD_REQUEST, "bad graph"));
    let error = corrupt.header("error").unwrap_or("");
    assert!(error.contains("checksum"), "corrupt image: {error}");

    // A deleted snapshot answers 400 and its entry is released.
    publish(&gen::grid2d(12, 10));
    assert!(layout(&addr, &packed("g")).is_ok());
    assert_eq!(open_gauge(&addr), Some(1.0));
    std::fs::remove_file(&path).expect("snapshot deleted");
    let gone = layout(&addr, &packed("g"));
    assert_eq!(gone.code, BAD_REQUEST, "{}", gone.reason);
    assert_eq!(open_gauge(&addr), Some(0.0));
    let reserved = stats_snapshot(&addr).gauge("parhde_budget_reserved_bytes");
    assert_eq!(reserved, Some(0.0), "a released snapshot still holds budget");
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shared_snapshot_is_digested_once_and_every_decode_counted_once() {
    let dir = scratch("decodes");
    let g = largest_component(&gen::kron(10, 8, 3)).graph;
    CompressedCsr::from_csr(&g)
        .write_snapshot(&dir.join("k.phdegrf"))
        .expect("snapshot written");
    let (server, addr) = start(ServerConfig {
        graph_dir: Some(dir.clone()),
        ..Default::default()
    });
    let decoded = || {
        stats_snapshot(&addr)
            .counter("parhde_graph_decoded_arcs_total")
            .unwrap_or(0)
    };
    let req = packed("k").with("no-cache", 1);
    let mut deltas = Vec::new();
    let mut body = String::new();
    for _ in 0..3 {
        let before = decoded();
        let resp = layout(&addr, &req);
        assert!(resp.is_ok(), "{} {}", resp.code, resp.reason);
        deltas.push(decoded() - before);
        body = resp.body;
    }
    // Only the first request digests the snapshot (2m arcs decoded).
    let digest_arcs = g.num_arcs() as u64;
    assert_eq!(deltas[0], deltas[1] + digest_arcs, "deltas {deltas:?}");
    assert_eq!(deltas[1], deltas[2], "deltas {deltas:?}");

    // Two requests on two workers decode the shared store at once; the
    // counter still counts each decode exactly once.
    let before = decoded();
    let barrier = Barrier::new(2);
    let held = req.clone().with("hold-ms", 200);
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    layout(&addr, &held)
                })
            })
            .collect();
        for run in runs {
            let resp = run.join().expect("client thread");
            assert!(resp.is_ok(), "{} {}", resp.code, resp.reason);
            assert_eq!(resp.body, body);
        }
    });
    assert_eq!(decoded() - before, 2 * deltas[1]);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_snapshots_hold_their_bytes_on_the_budget_until_a_request_needs_them() {
    let dir = scratch("held");
    CompressedCsr::from_csr(&gen::grid2d(40, 40))
        .write_snapshot(&dir.join("g.phdegrf"))
        .expect("snapshot written");
    let small = Request::new(Op::Layout)
        .with("graph", "gen:grid:6:6")
        .with("deadline-ms", 30_000);
    let refused = |resp: Response| -> u64 {
        assert_eq!(resp.code, TOO_LARGE, "{}", resp.reason);
        resp.header("estimated-bytes").and_then(|v| v.parse().ok()).expect("estimated-bytes")
    };
    let held = |addr: &str| {
        let snap = stats_snapshot(addr);
        let gauge = |name| snap.gauge(name).expect(name) as u64;
        (gauge("parhde_snapshots_bytes_resident"), gauge("parhde_budget_reserved_bytes"))
    };
    let with_budget = |bytes| ServerConfig {
        graph_dir: Some(dir.clone()),
        mem_budget_bytes: bytes,
        ..Default::default()
    };

    // A one-byte budget refuses both requests and reports their prices.
    // The snapshot refused with 413 stays open, and its bytes are on the
    // budget.
    let (probe, probe_addr) = start(with_budget(1));
    let whole = refused(layout(&probe_addr, &packed("g")));
    let (resident, reserved) = held(&probe_addr);
    assert!(resident > 0);
    assert_eq!(reserved, resident);
    let small_bytes = refused(layout(&probe_addr, &small));
    probe.drain();
    assert!(whole > resident + small_bytes, "{whole} {resident} {small_bytes}");

    // The small request fits this budget only once the idle snapshot has
    // given its bytes back.
    let (server, addr) = start(with_budget(resident + small_bytes - 1));
    refused(layout(&addr, &packed("g")));
    assert_eq!(held(&addr), (resident, resident));
    let resp = layout(&addr, &small);
    assert!(resp.is_ok(), "{} {}", resp.code, resp.reason);
    assert_eq!(held(&addr), (0, 0));
    let open = stats_snapshot(&addr).gauge("parhde_snapshots_open");
    assert_eq!(open, Some(0.0));
    server.drain();

    // At a budget of exactly its price the snapshot's request runs: its
    // held bytes are not reserved a second time.
    let (server, addr) = start(with_budget(whole));
    let resp = layout(&addr, &packed("g"));
    assert!(resp.is_ok(), "{} {}", resp.code, resp.reason);
    assert_eq!(held(&addr), (resident, resident));
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

//! `parhde-pack` — convert a graph to a packed `PHDEGRF` v1 snapshot.
//!
//! Reads a graph (Matrix Market, whitespace edge list, or a `gen:`
//! pseudo-input), preprocesses it the way the layout pipeline does
//! (simple, undirected, largest connected component), gap-compresses the
//! adjacency into byte-coded varint blocks, and writes the snapshot
//! durably (tmp + fsync + rename + dirsync). The output opens mmap-backed
//! in `parhde-layout` / `parhde-serve`, so graphs whose adjacency exceeds
//! RAM stream through BFS and SpMM page by page.
//!
//! ```text
//! parhde-pack <input> [<output.phdegrf>] [options]
//!
//!   <input>               .mtx (MatrixMarket) or edge-list text file, or a
//!                         generated pseudo-input (`parhde_bench::input`, the
//!                         grammar parhde-layout reads):
//!                           gen:kron:<scale>[:<edgefactor>]   Kronecker
//!                           gen:grid:<rows>[x<cols>]          2-D grid
//!                           gen:pref:<n>[:<attach>]           pref. attachment
//!   <output>              defaults to <input>.phdegrf (gen: specs have the
//!                         colons replaced: gen_kron_23_13.phdegrf)
//!   --seed <u64>          generator seed (default 0x9a7de)
//!   --keep-disconnected   pack the whole simple graph instead of its
//!                         largest component — the layout pipeline will
//!                         then fail with a typed Disconnected error, since
//!                         compressed storage cannot re-extract a component
//!   --verify              reopen the written snapshot mmap-backed and
//!                         check every vertex's decoded neighbor list
//!                         against the source graph (exit 1 on mismatch)
//! ```
//!
//! Exit codes: 0 ok, 1 verification failure, 2 usage, otherwise the typed
//! I/O or parse error's code (3 = I/O, 4 = parse).

use parhde::HdeError;
use parhde_bench::input;
use parhde_graph::prep::largest_component;
use parhde_graph::store::{GraphStore, NeighborScratch};
use parhde_graph::CompressedCsr;
use parhde_util::Timer;
use std::path::{Path, PathBuf};
use std::process::exit;

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("parhde-pack: {msg}");
    exit(code)
}

fn fail_typed(context: &str, e: &HdeError) -> ! {
    fail(e.exit_code(), &format!("{context}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: parhde-pack <input.mtx|edges.txt|gen:...> [<output.phdegrf>] \
             [--seed <u64>] [--keep-disconnected] [--verify]"
        );
        exit(if args.is_empty() { 2 } else { 0 });
    }
    let input = args[0].clone();
    let mut output: Option<PathBuf> = None;
    let mut seed = 0x9a_7deu64;
    let mut keep_disconnected = false;
    let mut verify = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(s) => s,
                    None => fail(2, "bad --seed"),
                };
            }
            "--keep-disconnected" => keep_disconnected = true,
            "--verify" => verify = true,
            other if !other.starts_with('-') && output.is_none() => {
                output = Some(PathBuf::from(other));
            }
            other => fail(2, &format!("unknown option {other}")),
        }
        i += 1;
    }
    let output = output.unwrap_or_else(|| {
        if input.starts_with("gen:") {
            PathBuf::from(format!("{}.phdegrf", input.replace(':', "_")))
        } else {
            PathBuf::from(format!("{input}.phdegrf"))
        }
    });

    // Load.
    let t_load = Timer::start();
    let raw = if input.starts_with("gen:") {
        input::generate(&input, seed).unwrap_or_else(|msg| fail(2, &msg))
    } else {
        input::read_text(Path::new(&input)).unwrap_or_else(|e| fail_typed(&e.context, &e.error))
    };

    // Preprocess: pack the largest component by default, because the layout
    // pipeline cannot extract components from compressed storage (vertex
    // relabeling needs the plain adjacency).
    let g = if keep_disconnected {
        raw
    } else {
        let n_raw = raw.num_vertices();
        let ex = largest_component(&raw);
        if ex.graph.num_vertices() < n_raw {
            eprintln!(
                "parhde-pack: kept largest component: {} of {} vertices",
                ex.graph.num_vertices(),
                n_raw
            );
        }
        ex.graph
    };
    eprintln!(
        "loaded {input}: n = {} m = {} in {:.1} ms",
        g.num_vertices(),
        g.num_edges(),
        t_load.seconds() * 1e3
    );

    // Compress + write durably.
    let t_pack = Timer::start();
    let packed = CompressedCsr::from_csr(&g);
    let pack_seconds = t_pack.seconds();
    let t_write = Timer::start();
    if let Err(e) = packed.write_snapshot(&output) {
        fail_typed(&format!("cannot write {}", output.display()), &HdeError::from(e));
    }
    let write_seconds = t_write.seconds();

    let plain_bytes = g.resident_bytes();
    let packed_bytes = std::fs::metadata(&output).map(|m| m.len()).unwrap_or(0);
    let m = g.num_edges().max(1);
    eprintln!(
        "packed: {:.1} MB plain -> {:.1} MB snapshot ({:.2}x, {:.2} bytes/edge) \
         in {:.1} ms (+{:.1} ms write)",
        plain_bytes as f64 / (1024.0 * 1024.0),
        packed_bytes as f64 / (1024.0 * 1024.0),
        packed.compression_ratio(),
        packed_bytes as f64 / m as f64,
        pack_seconds * 1e3,
        write_seconds * 1e3
    );

    // Optional decode-exactness check against the source through the mmap
    // path the layout tools will use.
    if verify {
        let t_verify = Timer::start();
        let reopened = match CompressedCsr::open_mmap(&output) {
            Ok(r) => r,
            Err(e) => fail_typed(
                &format!("cannot reopen {}", output.display()),
                &HdeError::from(e),
            ),
        };
        if reopened.num_vertices() != g.num_vertices()
            || reopened.num_edges() != g.num_edges()
        {
            fail(1, "verify: vertex/edge counts differ after round-trip");
        }
        let mut scratch = NeighborScratch::new();
        for v in 0..g.num_vertices() as u32 {
            if reopened.neighbors_in(v, &mut scratch) != g.neighbors(v) {
                fail(1, &format!("verify: neighbor list of vertex {v} differs"));
            }
        }
        eprintln!("verified: decode matches source ({:.1} ms)", t_verify.seconds() * 1e3);
    }
    println!("wrote {}", output.display());
}

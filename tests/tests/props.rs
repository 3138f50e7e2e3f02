//! Seeded property sweeps over the core data structures and invariants of
//! the workspace: the equivalences the paper's parallel design rests on
//! (direction-optimizing BFS ≡ serial BFS, Δ-stepping ≡ Dijkstra, MGS and
//! CGS keep the same columns, fused TripleProd ≡ staged bit for bit) and
//! the structural contracts of the graph, I/O, drawing and statistics code.
//!
//! Each property runs [`CASES`] cases. A case draws every input from one
//! generator seeded with the case's seed, and every assertion names that
//! seed, so a failing case reproduces from its message alone. Graphs come
//! from [`poison::messy`]: edge lists with duplicates, self-loops and
//! isolated vertices.
//!
//! Two properties of the same kind live in the crate suites:
//! batched BFS ≡ serial BFS in `crates/bfs/tests/batch_equivalence.rs`,
//! and exact decoding of the compressed store in
//! `crates/graph/tests/compressed_exactness.rs`.

use parhde_bfs::direction_opt::bfs_direction_opt;
use parhde_bfs::serial::bfs_serial;
use parhde_graph::builder::build_weighted_from_edges;
use parhde_graph::gaps::{gap_distribution, GapDistribution};
use parhde_graph::gen::poison;
use parhde_graph::order::{apply_permutation, random_permutation};
use parhde_graph::prep::{connected_components, induced_subgraph, largest_component};
use parhde_graph::CsrGraph;
use parhde_linalg::blas1::{dot, norm2};
use parhde_linalg::dense::ColMajorMatrix;
use parhde_linalg::ortho::{cgs, max_cross_product, mgs, DROP_TOLERANCE};
use parhde_sssp::{delta_stepping, dijkstra};
use parhde_util::Xoshiro256StarStar;
use std::ops::Range;

/// Cases per property.
const CASES: u64 = 256;

/// Runs `case` once for each seed in `base..base + CASES`, with a
/// generator seeded from that seed.
fn sweep(base: u64, mut case: impl FnMut(u64, &mut Xoshiro256StarStar)) {
    for seed in base..base + CASES {
        case(seed, &mut Xoshiro256StarStar::seed_from_u64(seed));
    }
}

/// A uniform draw from `range`.
fn draw(rng: &mut Xoshiro256StarStar, range: Range<usize>) -> usize {
    range.start + rng.next_index(range.len())
}

/// A uniform draw from `range`.
fn draw_f64(rng: &mut Xoshiro256StarStar, range: Range<f64>) -> f64 {
    range.start + rng.next_f64() * (range.end - range.start)
}

/// A `rows × cols` matrix with entries uniform in `[-0.5, 0.5)`.
fn random_matrix(rng: &mut Xoshiro256StarStar, rows: usize, cols: usize) -> ColMajorMatrix {
    let data = (0..rows * cols).map(|_| rng.next_f64() - 0.5).collect();
    ColMajorMatrix::from_data(rows, cols, data)
}

/// The builder always produces a structurally valid CSR graph.
#[test]
fn builder_output_satisfies_all_invariants() {
    sweep(1 << 20, |seed, rng| {
        let g = poison::messy(rng);
        // The validating constructor re-checks everything (sortedness,
        // symmetry, no loops, ranges) and panics on a violation.
        let (offsets, adjacency) = (g.offsets().to_vec(), g.adjacency().to_vec());
        let valid = std::panic::catch_unwind(move || CsrGraph::new(offsets, adjacency)).is_ok();
        assert!(valid, "seed {seed:#x}: builder output fails validation");
    });
}

/// Handshake lemma: Σ deg(v) = 2m.
#[test]
fn handshake_lemma() {
    sweep(2 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let sum: usize = (0..g.num_vertices() as u32).map(|v| g.degree(v)).sum();
        assert_eq!(sum, 2 * g.num_edges(), "seed {seed:#x}");
    });
}

/// Matrix Market round-trips exactly.
#[test]
fn matrix_market_roundtrip() {
    sweep(3 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let text = parhde_graph::io::write_matrix_market(&g);
        let back = parhde_graph::io::parse_matrix_market(&text)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: own output rejected: {e}"));
        assert_eq!(back, g, "seed {seed:#x}");
    });
}

/// Relabeling preserves the degree multiset and edge count.
#[test]
fn permutation_preserves_structure() {
    let sorted_degrees = |g: &CsrGraph| {
        let mut d: Vec<usize> = (0..g.num_vertices() as u32).map(|v| g.degree(v)).collect();
        d.sort_unstable();
        d
    };
    sweep(4 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let perm = random_permutation(g.num_vertices(), rng.next_u64());
        let h = apply_permutation(&g, &perm);
        assert_eq!(h.num_edges(), g.num_edges(), "seed {seed:#x}: edge count");
        assert_eq!(sorted_degrees(&h), sorted_degrees(&g), "seed {seed:#x}: degrees");
        // Double permutation with inverse returns the original.
        let mut inverse = vec![0u32; perm.len()];
        for (old, &new) in perm.iter().enumerate() {
            inverse[new as usize] = old as u32;
        }
        assert_eq!(apply_permutation(&h, &inverse), g, "seed {seed:#x}: inverse");
    });
}

/// Component sizes partition the vertex set; the largest component
/// extraction is a connected induced subgraph of the right size.
#[test]
fn components_partition_vertices() {
    sweep(5 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let c = connected_components(&g);
        let total: usize = c.sizes.iter().sum();
        assert_eq!(total, g.num_vertices(), "seed {seed:#x}: sizes");
        let ex = largest_component(&g);
        assert_eq!(
            ex.graph.num_vertices(),
            c.sizes[c.largest() as usize],
            "seed {seed:#x}: largest size"
        );
        assert!(
            parhde_graph::prep::is_connected(&ex.graph),
            "seed {seed:#x}: largest component is disconnected"
        );
    });
}

/// Induced subgraphs never contain foreign edges and preserve adjacency
/// among kept vertices.
#[test]
fn induced_subgraph_is_faithful() {
    sweep(6 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let keep_bits = rng.next_u64();
        let keep: Vec<u32> = (0..g.num_vertices() as u32)
            .filter(|&v| keep_bits >> (v % 64) & 1 == 1)
            .collect();
        let ex = induced_subgraph(&g, &keep);
        for (u, v) in ex.graph.edges() {
            assert!(
                g.has_edge(ex.old_ids[u as usize], ex.old_ids[v as usize]),
                "seed {seed:#x}: foreign edge ({u}, {v})"
            );
        }
        for (i, &a) in ex.old_ids.iter().enumerate() {
            for (j, &b) in ex.old_ids.iter().enumerate().skip(i + 1) {
                if g.has_edge(a, b) {
                    assert!(
                        ex.graph.has_edge(i as u32, j as u32),
                        "seed {seed:#x}: lost edge ({a}, {b})"
                    );
                }
            }
        }
    });
}

/// The gap-count identity Σ counts = Σ_v (deg(v) − 1)⁺ holds for all
/// graphs, and bins tile the gap range contiguously.
#[test]
fn gap_identity() {
    sweep(7 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let d = gap_distribution(&g);
        assert_eq!(d.total, GapDistribution::expected_total(&g), "seed {seed:#x}");
        for w in d.bins.windows(2) {
            assert_eq!(w[0].upper, w[1].lower, "seed {seed:#x}: bins not contiguous");
        }
    });
}

/// Parallel BFS equals serial BFS on arbitrary graphs and sources.
#[test]
fn bfs_parallel_equals_serial() {
    sweep(8 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let src = rng.next_index(g.num_vertices()) as u32;
        let (r, stats) = bfs_direction_opt(&g, src);
        assert_eq!(r, bfs_serial(&g, src), "seed {seed:#x}: source {src}");
        // Work accounting stays within one scan of every arc per level,
        // the source's level included.
        if g.num_edges() > 0 {
            assert!(
                stats.total_edges() <= g.num_arcs() * (r.levels + 1),
                "seed {seed:#x}: {} arcs examined",
                stats.total_edges()
            );
        }
    });
}

/// Δ-stepping equals Dijkstra for arbitrary weighted graphs / Δ.
#[test]
fn delta_stepping_equals_dijkstra() {
    sweep(9 << 20, |seed, rng| {
        let n = draw(rng, 2..40);
        let m = draw(rng, 0..120);
        let edges: Vec<(u32, u32, f64)> = (0..m)
            .map(|_| {
                let u = rng.next_index(n) as u32;
                let v = rng.next_index(n) as u32;
                (u, v, draw_f64(rng, 0.01..20.0))
            })
            .collect();
        let g = build_weighted_from_edges(n, edges);
        let delta = draw_f64(rng, 0.05..50.0);
        let src = rng.next_index(n) as u32;
        let a = delta_stepping(&g, src, delta);
        let b = dijkstra(&g, src);
        assert_eq!(a.reached, b.reached, "seed {seed:#x}: reached");
        for v in 0..n {
            if a.dist[v].is_finite() || b.dist[v].is_finite() {
                assert!(
                    (a.dist[v] - b.dist[v]).abs() < 1e-9,
                    "seed {seed:#x}: vertex {v}: Δ-stepping {} vs Dijkstra {}",
                    a.dist[v],
                    b.dist[v]
                );
            }
        }
    });
}

/// Gram-Schmidt postconditions on arbitrary matrices: orthogonal
/// surviving columns of unit norm, and MGS/CGS keep the same columns.
#[test]
fn gram_schmidt_postconditions() {
    sweep(10 << 20, |seed, rng| {
        let (rows, cols) = (draw(rng, 4..40), draw(rng, 1..8));
        let m0 = random_matrix(rng, rows, cols);
        let mut a = m0.clone();
        let mut b = m0;
        let oa = mgs(&mut a, None, DROP_TOLERANCE);
        let ob = cgs(&mut b, None, DROP_TOLERANCE);
        assert_eq!(oa.kept, ob.kept, "seed {seed:#x}: MGS vs CGS kept columns");
        assert!(max_cross_product(&a, None) < 1e-6, "seed {seed:#x}: not orthogonal");
        for c in 0..a.cols() {
            assert!((norm2(a.col(c)) - 1.0).abs() < 1e-9, "seed {seed:#x}: column {c} norm");
        }
        // Kept + dropped partitions the original columns.
        let mut all: Vec<usize> = oa.kept.iter().chain(&oa.dropped).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..cols).collect::<Vec<_>>(), "seed {seed:#x}: partition");
    });
}

/// The fused one-pass TripleProd is a pure reschedule of the staged
/// SpMM + GEMM pair: bit-for-bit identical output on arbitrary graphs.
#[test]
fn fused_triple_product_matches_staged_bitwise() {
    use parhde_linalg::{fused, gemm, spmm};
    sweep(11 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let cols = draw(rng, 1..7);
        let degrees = g.degree_vector();
        let s = random_matrix(rng, g.num_vertices(), cols);
        let zf = fused::triple_product(&g, &degrees, &s);
        let zs = gemm::at_b(&s, &spmm::laplacian_spmm(&g, &degrees, &s));
        assert_eq!(zf.rows(), cols, "seed {seed:#x}: shape");
        for (i, (a, b)) in zf.data().iter().zip(zs.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed:#x}: entry {i}: {a} vs {b}");
        }
    });
}

/// SYRK self-products are exactly symmetric and bitwise equal to the
/// general `at_b(a, a)` they replace.
#[test]
fn syrk_is_symmetric_and_matches_at_b() {
    use parhde_linalg::{gemm, syrk};
    sweep(12 << 20, |seed, rng| {
        let (rows, cols) = (draw(rng, 1..80), draw(rng, 1..7));
        let a = random_matrix(rng, rows, cols);
        let z = syrk::at_a(&a);
        let z2 = gemm::at_b(&a, &a);
        for i in 0..cols {
            for j in 0..cols {
                let zij = z.get(i, j).to_bits();
                assert_eq!(zij, z.get(j, i).to_bits(), "seed {seed:#x}: ({i}, {j}) asymmetric");
                assert_eq!(zij, z2.get(i, j).to_bits(), "seed {seed:#x}: ({i}, {j}) vs at_b");
            }
        }
    });
}

/// dot is symmetric and Cauchy-Schwarz holds for the parallel kernels.
#[test]
fn blas1_properties() {
    sweep(14 << 20, |seed, rng| {
        let len = draw(rng, 1..300);
        let x: Vec<f64> = (0..len).map(|_| draw_f64(rng, -100.0..100.0)).collect();
        let y: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        let xy = dot(&x, &y);
        let yx = dot(&y, &x);
        assert!((xy - yx).abs() < 1e-9, "seed {seed:#x}: {xy} vs {yx}");
        assert!(
            xy.abs() <= norm2(&x) * norm2(&y) + 1e-9,
            "seed {seed:#x}: Cauchy-Schwarz fails"
        );
    });
}

/// PNG encode/decode round-trips arbitrary small images.
#[test]
fn png_roundtrip() {
    sweep(15 << 20, |seed, rng| {
        let (w, h) = (draw(rng, 1..24) as u32, draw(rng, 1..24) as u32);
        let pixels: Vec<u8> = (0..w * h * 3).map(|_| rng.next_u64() as u8).collect();
        let png = parhde_draw::png::encode_rgb(w, h, &pixels);
        let (dw, dh, back) = parhde_draw::png::decode_rgb(&png);
        assert_eq!((dw, dh), (w, h), "seed {seed:#x}: dimensions");
        assert!(back == pixels, "seed {seed:#x}: pixels differ");
    });
}

/// zlib round-trips arbitrary byte strings.
#[test]
fn zlib_roundtrip() {
    sweep(16 << 20, |seed, rng| {
        let len = draw(rng, 0..4096);
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let z = parhde_draw::deflate::zlib_compress(&data);
        let back = parhde_draw::deflate::zlib_decompress(&z);
        assert!(back == data, "seed {seed:#x}: {len} bytes do not round-trip");
    });
}

/// `edges()` and `has_edge` describe the same edge set.
#[test]
fn edges_iterator_consistent_with_has_edge() {
    sweep(17 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let mut count = 0usize;
        for (u, v) in g.edges() {
            assert!(u < v, "seed {seed:#x}: edge ({u}, {v}) not ordered");
            assert!(g.has_edge(u, v), "seed {seed:#x}: missing ({u}, {v})");
            assert!(g.has_edge(v, u), "seed {seed:#x}: missing ({v}, {u})");
            count += 1;
        }
        assert_eq!(count, g.num_edges(), "seed {seed:#x}: edge count");
    });
}

/// k-hop neighborhoods grow monotonically with the radius and always
/// contain the center.
#[test]
fn k_hop_neighborhoods_are_monotone() {
    sweep(18 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let center = rng.next_index(g.num_vertices()) as u32;
        let mut previous: Vec<u32> = Vec::new();
        for hops in 0..5usize {
            let ball = parhde_graph::prep::k_hop_neighborhood(&g, center, hops);
            assert!(
                ball.binary_search(&center).is_ok(),
                "seed {seed:#x}: center missing at {hops} hops"
            );
            for v in &previous {
                assert!(ball.binary_search(v).is_ok(), "seed {seed:#x}: ball shrank at {hops}");
            }
            previous = ball;
        }
    });
}

/// RCM always emits a valid permutation, and applying it preserves the
/// structure.
#[test]
fn rcm_is_always_a_permutation() {
    sweep(19 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let start = rng.next_index(g.num_vertices()) as u32;
        let perm = parhde_graph::order::rcm_permutation(&g, start);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..g.num_vertices() as u32).collect::<Vec<_>>(),
            "seed {seed:#x}: not a permutation"
        );
        let h = apply_permutation(&g, &perm);
        assert_eq!(h.num_edges(), g.num_edges(), "seed {seed:#x}: edge count");
    });
}

/// Coarsening invariants: the map is a surjection onto a vertex set at
/// least half the fine one, and coarsening never adds edges.
#[test]
fn coarsening_invariants() {
    sweep(20 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let c = parhde_graph::coarsen::coarsen_matching(&g, rng.next_u64());
        let nc = c.coarse.num_vertices();
        assert!(nc <= g.num_vertices(), "seed {seed:#x}: coarse graph grew");
        assert!(
            2 * nc >= g.num_vertices(),
            "seed {seed:#x}: matching can at most halve the graph"
        );
        let mut seen = vec![false; nc];
        for &m in &c.map {
            assert!((m as usize) < nc, "seed {seed:#x}: map target {m} out of range");
            seen[m as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "seed {seed:#x}: map is not onto");
        assert!(c.coarse.num_edges() <= g.num_edges(), "seed {seed:#x}: edges grew");
    });
}

/// Jacobi eigendecomposition invariants on arbitrary symmetric
/// matrices: trace preservation, residuals, orthonormality.
#[test]
fn jacobi_eigendecomposition_invariants() {
    sweep(21 << 20, |seed, rng| {
        let n = draw(rng, 1..12);
        let mut m = ColMajorMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rng.next_f64() * 4.0 - 2.0;
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        let e = parhde_linalg::eig::jacobi::symmetric_eigen(&m);
        let trace: f64 = (0..n).map(|i| m.get(i, i)).sum();
        let eigsum: f64 = e.values.iter().sum();
        assert!(
            (trace - eigsum).abs() < 1e-8 * (1.0 + trace.abs()),
            "seed {seed:#x}: trace {trace} vs eigenvalue sum {eigsum}"
        );
        for k in 0..n {
            let vk = e.vectors.col(k);
            assert!((norm2(vk) - 1.0).abs() < 1e-8, "seed {seed:#x}: vector {k} norm");
            for i in 0..n {
                let av: f64 = vk.iter().enumerate().map(|(j, &x)| m.get(i, j) * x).sum();
                assert!(
                    (av - e.values[k] * vk[i]).abs() < 1e-6,
                    "seed {seed:#x}: residual for pair {k} at row {i}"
                );
            }
        }
    });
}

/// Layout fit_to always lands inside the box and preserves relative
/// order along each axis.
#[test]
fn layout_fit_respects_bounds() {
    sweep(22 << 20, |seed, rng| {
        let len = draw(rng, 1..60);
        let x: Vec<f64> = (0..len).map(|_| draw_f64(rng, -1e6..1e6)).collect();
        let y: Vec<f64> = (0..len).map(|_| draw_f64(rng, -1e6..1e6)).collect();
        let (w, h) = (draw_f64(rng, 1.0..2000.0), draw_f64(rng, 1.0..2000.0));
        let mut layout = parhde::Layout::new(x.clone(), y);
        layout.fit_to(w, h);
        for i in 0..layout.len() {
            let (px, py) = layout.position(i as u32);
            assert!((-1e-9..=w + 1e-9).contains(&px), "seed {seed:#x}: x {px} outside [0, {w}]");
            assert!((-1e-9..=h + 1e-9).contains(&py), "seed {seed:#x}: y {py} outside [0, {h}]");
        }
        // Monotone: order along x preserved.
        for i in 0..len {
            for j in 0..len {
                if x[i] < x[j] {
                    assert!(
                        layout.x[i] <= layout.x[j] + 1e-9,
                        "seed {seed:#x}: x order of {i} and {j} flipped"
                    );
                }
            }
        }
    });
}

/// Stress majorization never increases the stress of a random layout by
/// more than 1 %.
#[test]
fn stress_majorization_makes_progress() {
    use parhde::stress::StressModel;
    let g = parhde_graph::gen::grid2d(6, 6);
    sweep(23 << 20, |seed, rng| {
        let model = StressModel::build(&g, 2, rng.next_u64());
        let random = parhde::Layout::new(
            (0..36).map(|_| rng.next_f64() * 5.0).collect(),
            (0..36).map(|_| rng.next_f64() * 5.0).collect(),
        );
        let s0 = model.stress(&random);
        let s1 = model.stress(&model.majorize(&random, 25));
        assert!(s1 <= s0 * 1.01, "seed {seed:#x}: stress rose: {s0} → {s1}");
    });
}

/// Fibonacci bin edges grow per the recurrence and cover any max.
#[test]
fn fibonacci_edges_cover() {
    sweep(24 << 20, |seed, rng| {
        let max = 1 + rng.next_below(999_999);
        let e = parhde_graph::gaps::fibonacci_edges(max);
        assert!(e.last().is_some_and(|&top| top > max), "seed {seed:#x}: edges stop below {max}");
        for w in e.windows(3).skip(1) {
            assert_eq!(w[2], w[1] + w[0], "seed {seed:#x}: recurrence broken");
        }
    });
}

/// Any single corrupted byte in a snapshot image yields a typed parse
/// error, never a panic or a wrong graph (the magic check covers the
/// first 8 bytes, the whole-image checksum everything after).
#[test]
fn corrupted_snapshot_bytes_are_rejected() {
    use parhde_graph::CompressedCsr;
    sweep(26 << 20, |seed, rng| {
        let g = poison::messy(rng);
        let mut bytes = CompressedCsr::from_csr(&g).snapshot_bytes();
        let at = rng.next_index(bytes.len());
        bytes[at] ^= 1 + rng.next_below(255) as u8;
        assert!(
            CompressedCsr::from_snapshot_bytes(&bytes).is_err(),
            "seed {seed:#x}: corrupt byte {at} accepted"
        );
    });
}

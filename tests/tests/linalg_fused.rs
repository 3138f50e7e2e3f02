//! Bit-reproducibility contract of the fused BLAS-3 core (PR 5).
//!
//! The fused one-pass TripleProd and the SYRK self-product are pure
//! reschedules of the staged SpMM + GEMM pair: same floating-point
//! operations in the same order, so the results must match *bitwise* —
//! at any thread count, and all the way through the pipeline.

use parhde::config::{LinalgMode, ParHdeConfig};
use parhde::par_hde;
use parhde_graph::gen;
use parhde_graph::CsrGraph;
use parhde_linalg::dense::ColMajorMatrix;
use parhde_linalg::{fused, gemm, spmm};
use parhde_util::threads::run_with_threads;
use parhde_util::Xoshiro256StarStar;

/// Deterministic dense test panel with a leading constant column, shaped
/// like the pseudo-distance matrix the pipeline feeds the kernels.
fn test_panel(n: usize, cols: usize, seed: u64) -> ColMajorMatrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut data = vec![1.0 / (n as f64).sqrt(); n];
    data.extend((0..n * (cols - 1)).map(|_| (rng.next_f64() * 64.0).floor()));
    ColMajorMatrix::from_data(n, cols, data)
}

fn staged_triple(g: &CsrGraph, degrees: &[f64], s: &ColMajorMatrix) -> ColMajorMatrix {
    gemm::at_b(s, &spmm::laplacian_spmm(g, degrees, s))
}

/// Kernel-level contract: fused ≡ staged bit-for-bit at 1, 2, and 8
/// threads, on both a mesh and a scale-free graph.
#[test]
fn fused_triple_product_is_bit_identical_across_thread_counts() {
    for (label, g) in [
        ("grid_48x37", gen::grid2d(48, 37)),
        ("kron_s9", gen::kron(9, 8, 3)),
    ] {
        let degrees = g.degree_vector();
        let s = test_panel(g.num_vertices(), 17, 0x9a7de);
        let reference = staged_triple(&g, &degrees, &s);
        for threads in [1usize, 2, 8] {
            let zf = run_with_threads(threads, || fused::triple_product(&g, &degrees, &s));
            let zs = run_with_threads(threads, || staged_triple(&g, &degrees, &s));
            for (which, z) in [("fused", &zf), ("staged", &zs)] {
                assert_eq!(z.rows(), reference.rows());
                assert_eq!(z.cols(), reference.cols());
                for (a, b) in z.data().iter().zip(reference.data()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{which} diverges on {label} at {threads} threads"
                    );
                }
            }
        }
    }
}

/// Pipeline-level contract: a full `par_hde` run under `LinalgMode::Fused`
/// yields the exact layout the staged path produces, at any pool size.
#[test]
fn pipeline_layouts_match_bitwise_between_fused_and_staged() {
    let g = gen::grid2d(40, 35);
    let fused_cfg = ParHdeConfig {
        subspace: 12,
        linalg_mode: LinalgMode::Fused,
        ..ParHdeConfig::default()
    };
    let staged_cfg = ParHdeConfig {
        linalg_mode: LinalgMode::Staged,
        ..fused_cfg.clone()
    };
    let reference = run_with_threads(1, || par_hde(&g, &staged_cfg).0);
    for threads in [1usize, 2, 8] {
        let layout = run_with_threads(threads, || par_hde(&g, &fused_cfg).0);
        for (a, b) in layout.x.iter().zip(&reference.x) {
            assert_eq!(a.to_bits(), b.to_bits(), "x diverges at {threads} threads");
        }
        for (a, b) in layout.y.iter().zip(&reference.y) {
            assert_eq!(a.to_bits(), b.to_bits(), "y diverges at {threads} threads");
        }
    }
}

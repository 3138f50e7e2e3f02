//! Scalar ↔ SIMD backend equivalence (DESIGN.md §15).
//!
//! The backend contract has two tiers. *Exact-class* kernels — the
//! register-tile microkernel, the SpMM/fused row ops, axpy and scale —
//! perform one multiply and one add per element in the scalar chain's
//! order, so SIMD lanes are just independent scalar chains and the
//! results must match **bitwise**, including NaN/denormal/±0 poison.
//! *Tolerance-class* kernels — the dot family — reassociate across lanes
//! and may contract with FMA; they must stay within `1e-13·‖x‖₂·‖y‖₂` of
//! the scalar reference, and every *decision* derived from them (MGS
//! kept/dropped columns, pivot sequences) must be identical.
//!
//! The sweeps are driven by the workspace's own deterministic PRNG — a
//! failing case reproduces exactly from its printed (seed, shape) pair.
//!
//! Tests that flip the process-wide backend serialize on a static mutex;
//! kernel-level A/B tests use the direct `scalar()`/`simd()` handles and
//! touch no global state. On CPUs without AVX2+FMA the SIMD side is
//! absent and these tests pass vacuously.

use parhde::config::{LinalgBackend, ParHdeConfig};
use parhde::{
    try_par_hde_nd, try_par_hde_nd_checkpointed, try_par_hde_resume, Checkpoint,
    CheckpointSpec,
};
use parhde_graph::gen;
use parhde_linalg::backend;
use parhde_linalg::blas1::{axpy, dot, dot_weighted, norm2, scale, PAR_CHUNK};
use parhde_linalg::dense::ColMajorMatrix;
use parhde_linalg::{fused, ortho};
use parhde_util::threads::run_with_threads;
use parhde_util::{supervisor, RunBudget, Xoshiro256StarStar};
use std::sync::Mutex;

/// Serializes tests that install a process-wide backend (the cargo test
/// harness runs tests concurrently in one process).
static LOCK: Mutex<()> = Mutex::new(());

/// Lengths crossing every SIMD regime: empty, scalar tail only, one
/// 4-lane vector, and the 8-, 16- and 64-element loop boundaries ±1.
const TAIL_SHAPES: [usize; 12] = [0, 1, 3, 4, 5, 7, 8, 15, 16, 63, 64, 65];

/// Runs `f` with `choice` installed, restoring auto afterwards.
fn with_backend<T>(choice: LinalgBackend, f: impl FnOnce() -> T) -> T {
    backend::install(choice).expect("backend install");
    let out = f();
    backend::install(LinalgBackend::Auto).unwrap();
    out
}

/// A vector of `n` elements mixing ordinary magnitudes with the poison
/// values the exact-class contract must propagate identically: NaN, ±0,
/// the smallest subnormal, and the smallest normal.
fn poison_vec(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.next_below(12) {
            0 => f64::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => 5e-324,
            4 => -5e-324,
            5 => f64::MIN_POSITIVE,
            _ => rng.next_f64() * 2e3 - 1e3,
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Exact-class elementwise kernels are bitwise identical on poisoned
/// inputs at every tail shape.
#[test]
fn elementwise_kernels_bitwise_equal_under_poison() {
    let Some(v) = backend::simd() else { return };
    let s = backend::scalar();
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xe9_01);
    for round in 0..24u64 {
        for n in TAIL_SHAPES {
            let ctx = |k: &str| format!("{k} n={n} round={round}");
            let x = poison_vec(n, &mut rng);
            let y0 = poison_vec(n, &mut rng);
            let alpha = rng.next_f64() * 8.0 - 4.0;

            let (mut ys, mut yv) = (y0.clone(), y0.clone());
            s.axpy_chunk(alpha, &x, &mut ys);
            v.axpy_chunk(alpha, &x, &mut yv);
            assert_eq!(bits(&ys), bits(&yv), "{}", ctx("axpy"));

            let (mut xs, mut xv) = (x.clone(), x.clone());
            s.scale_chunk(alpha, &mut xs);
            v.scale_chunk(alpha, &mut xv);
            assert_eq!(bits(&xs), bits(&xv), "{}", ctx("scale"));

            let (mut os, mut ov) = (y0.clone(), y0.clone());
            s.row_scale(&mut os, alpha, &x);
            v.row_scale(&mut ov, alpha, &x);
            assert_eq!(bits(&os), bits(&ov), "{}", ctx("row_scale"));

            let (mut os, mut ov) = (y0.clone(), y0.clone());
            s.row_sub(&mut os, &x);
            v.row_sub(&mut ov, &x);
            assert_eq!(bits(&os), bits(&ov), "{}", ctx("row_sub"));

            let (mut os, mut ov) = (y0.clone(), y0);
            s.row_sub_scaled(&mut os, alpha, &x);
            v.row_sub_scaled(&mut ov, alpha, &x);
            assert_eq!(bits(&os), bits(&ov), "{}", ctx("row_sub_scaled"));
        }
    }
}

/// The gathered Laplacian row assembly is bitwise identical across
/// backends for every (width, degree) combination, poison included.
#[test]
fn laplacian_row_bitwise_equal_under_poison() {
    let Some(v) = backend::simd() else { return };
    let s = backend::scalar();
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xe9_02);
    for k in TAIL_SHAPES {
        for deg in [0usize, 1, 2, 5, 9] {
            let pack = poison_vec((deg + 1) * k, &mut rng);
            let neighbors: Vec<u32> = (1..=deg as u32).collect();
            let alpha = rng.next_f64() * 128.0 - 64.0;
            let (mut os, mut ov) = (vec![0.25; k], vec![0.25; k]);
            s.laplacian_row(&mut os, alpha, &pack[..k], &pack, &neighbors);
            v.laplacian_row(&mut ov, alpha, &pack[..k], &pack, &neighbors);
            assert_eq!(bits(&os), bits(&ov), "k={k} deg={deg}");
        }
    }
}

/// Tolerance-class dots stay within the documented bound on ordinary
/// data at every tail shape.
#[test]
fn dot_family_within_documented_tolerance() {
    let Some(v) = backend::simd() else { return };
    let s = backend::scalar();
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xe9_03);
    let norm = |a: &[f64]| a.iter().map(|t| t * t).sum::<f64>().sqrt();
    for round in 0..24u64 {
        for n in TAIL_SHAPES {
            let x: Vec<f64> = (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            let d: Vec<f64> = (0..n).map(|_| rng.next_f64() + 0.5).collect();
            let ctx = |k: &str| format!("{k} n={n} round={round}");
            let bound = 1e-13 * norm(&x) * norm(&y) + f64::MIN_POSITIVE;
            assert!(
                (s.dot_chunk(&x, &y) - v.dot_chunk(&x, &y)).abs() <= bound,
                "{}",
                ctx("dot")
            );
            assert!(
                (s.sum_chunk(&x) - v.sum_chunk(&x)).abs()
                    <= 1e-13 * norm(&x) * (n as f64).sqrt() + f64::MIN_POSITIVE,
                "{}",
                ctx("sum")
            );
            let dmax = d.iter().fold(0.0f64, |m, t| m.max(*t));
            let wbound = 1e-13 * dmax * norm(&x) * norm(&y) + f64::MIN_POSITIVE;
            assert!(
                (s.dot_weighted_chunk(&x, &d, &y) - v.dot_weighted_chunk(&x, &d, &y))
                    .abs()
                    <= wbound,
                "{}",
                ctx("dot_weighted")
            );
        }
    }
}

/// NaN poison anywhere in a dot operand produces NaN from both backends —
/// lane reassociation must not swallow it. Tail shapes 1/3/63/64/65 place
/// the NaN in every SIMD regime.
#[test]
fn dot_nan_poison_propagates_on_both_backends() {
    let Some(v) = backend::simd() else { return };
    let s = backend::scalar();
    for n in [1usize, 3, 63, 64, 65] {
        for pos in [0, n / 2, n - 1] {
            let mut x = vec![1.0; n];
            x[pos] = f64::NAN;
            let y = vec![2.0; n];
            assert!(s.dot_chunk(&x, &y).is_nan(), "scalar n={n} pos={pos}");
            assert!(v.dot_chunk(&x, &y).is_nan(), "simd n={n} pos={pos}");
            assert!(v.sum_chunk(&x).is_nan(), "sum n={n} pos={pos}");
            let d = vec![1.0; n];
            assert!(
                v.dot_weighted_chunk(&x, &d, &y).is_nan(),
                "weighted n={n} pos={pos}"
            );
        }
    }
}

/// The 4×4 register tile is bitwise identical across backends for every
/// chain length and B-stride pattern the blocked GEMM uses.
#[test]
fn gemm_tile_bitwise_equal_for_all_edge_shapes() {
    let Some(v) = backend::simd() else { return };
    let s = backend::scalar();
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xe9_04);
    for len in [1usize, 2, 3, 7, 16, 33] {
        for (bi, b_rs, b_cs) in [(0usize, 1usize, len), (0, 4, 1), (2, 3, 5)] {
            let rows: Vec<Vec<f64>> =
                (0..4).map(|_| poison_vec(len, &mut rng)).collect();
            let a: [&[f64]; 4] =
                [&rows[0], &rows[1], &rows[2], &rows[3]];
            let b =
                poison_vec(bi + (len - 1) * b_rs + 3 * b_cs + 1, &mut rng);
            let c0 = poison_vec(16, &mut rng);
            let mut cs: [f64; 16] = c0.clone().try_into().unwrap();
            let mut cv: [f64; 16] = c0.try_into().unwrap();
            s.tile_4x4(&mut cs, a, &b, bi, b_rs, b_cs, len);
            v.tile_4x4(&mut cv, a, &b, bi, b_rs, b_cs, len);
            assert_eq!(bits(&cs), bits(&cv), "len={len} strides=({b_rs},{b_cs})");
        }
    }
}

/// Deterministic panel shaped like the pipeline's pseudo-distance matrix.
fn test_panel(n: usize, cols: usize, seed: u64) -> ColMajorMatrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut data = vec![1.0 / (n as f64).sqrt(); n];
    data.extend((0..n * (cols - 1)).map(|_| (rng.next_f64() * 64.0).floor()));
    ColMajorMatrix::from_data(n, cols, data)
}

/// Fused TripleProd is bitwise identical across backends at 1, 2 and 8
/// threads (row ops and the tile microkernel are all exact-class, and the
/// row partition is thread-count-invariant).
#[test]
fn fused_triple_product_bitwise_equal_across_backends_and_threads() {
    if !backend::simd_supported() {
        return;
    }
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for g in [gen::grid2d(48, 37), gen::kron(9, 8, 3)] {
        let degrees = g.degree_vector();
        let s = test_panel(g.num_vertices(), 17, 0x9a7de);
        let reference = with_backend(LinalgBackend::Scalar, || {
            fused::triple_product(&g, &degrees, &s)
        });
        for threads in [1usize, 2, 8] {
            let z = with_backend(LinalgBackend::Simd, || {
                run_with_threads(threads, || fused::triple_product(&g, &degrees, &s))
            });
            for (a, b) in z.data().iter().zip(reference.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }
}

/// MGS's kept/dropped decisions are identical across backends even
/// though its projection dots are tolerance-class — including on a panel
/// engineered to actually drop a column.
#[test]
fn mgs_decisions_identical_across_backends() {
    if !backend::simd_supported() {
        return;
    }
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 700;
    let mut panel = test_panel(n, 12, 0xbead);
    // Make one column a near-exact combination of two others so the drop
    // logic actually fires rather than being vacuously all-kept.
    let (c3, c7): (Vec<f64>, Vec<f64>) =
        (panel.col(3).to_vec(), panel.col(7).to_vec());
    for (i, x) in panel.col_mut(5).iter_mut().enumerate() {
        *x = c3[i] * 0.5 + c7[i] * 0.5 + 1e-14 * (i as f64);
    }
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let run = |be| {
        with_backend(be, || {
            let mut c = panel.clone();
            let outcome = ortho::mgs(&mut c, Some(&weights), 1e-3);
            (outcome.kept, outcome.dropped)
        })
    };
    let (kept_s, dropped_s) = run(LinalgBackend::Scalar);
    let (kept_v, dropped_v) = run(LinalgBackend::Simd);
    assert!(!dropped_s.is_empty(), "panel failed to exercise the drop path");
    assert_eq!(kept_s, kept_v, "kept-column decisions diverged");
    assert_eq!(dropped_s, dropped_v, "dropped-column decisions diverged");
}

/// The three-call MGS loop `ortho::mgs` fuses: per projection a D-dot for
/// the numerator, another for the denominator, then the axpy; then the
/// norm and the scale. Returns the outcome and the projection count.
fn three_call_mgs(
    s: &mut ColMajorMatrix,
    d: Option<&[f64]>,
    tol: f64,
) -> (ortho::OrthoOutcome, u64) {
    let mut kept: Vec<usize> = Vec::new();
    let mut dropped = Vec::new();
    let mut projections = 0;
    for i in 0..s.cols() {
        projections += kept.len() as u64;
        for &j in &kept {
            let (cj, ci) = s.col_pair(j, i);
            let (num, den) = match d {
                Some(w) => (dot_weighted(cj, w, ci), dot_weighted(cj, w, cj)),
                None => (dot(cj, ci), dot(cj, cj)),
            };
            if den > 0.0 {
                axpy(-num / den, cj, ci);
            }
        }
        let norm = norm2(s.col(i));
        if norm <= tol {
            dropped.push(i);
        } else {
            scale(1.0 / norm, s.col_mut(i));
            kept.push(i);
        }
    }
    s.retain_columns(&kept);
    (ortho::OrthoOutcome { kept, dropped }, projections)
}

/// MGS one column at a time: the `IncrementalMgs` step on every column,
/// the schedule `ortho::mgs` reorders into panels.
fn column_mgs(s: &mut ColMajorMatrix, d: Option<&[f64]>, tol: f64) -> Vec<usize> {
    let mut steps = ortho::IncrementalMgs::new(d, tol);
    for i in 0..s.cols() {
        steps.step(s, i);
    }
    let kept = steps.kept().to_vec();
    s.retain_columns(&kept);
    kept
}

/// `f()`'s result with the `dortho.projections` total and the BLAS-1
/// element count it recorded.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let record = parhde_trace::Record::open();
    let out = f();
    let totals = record.close();
    let blas1 = ["linalg.backend.scalar.blas1", "linalg.backend.simd.blas1"]
        .iter()
        .filter_map(|name| totals.counter(name))
        .sum();
    (out, totals.counter("dortho.projections").unwrap_or(0), blas1)
}

/// A pipeline-shaped MGS input with `n` rows over three panels of
/// `ortho::mgs` (8 + 8 + 4 columns): the constant column and
/// distance-like columns, with in the first panel a dependent copy and a
/// zero column (both dropped) and a column supported only where `weights`
/// vanish (kept, but with a zero D-norm², so later projections onto it
/// are skipped); then a combination of first-panel columns just past the
/// first panel edge and one of both earlier panels in the last, partial
/// panel (both dropped).
fn mgs_input(n: usize, weights: &[f64], seed: u64) -> ColMajorMatrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut distances = |_| -> Vec<f64> {
        (0..n).map(|_| (rng.next_f64() * 64.0).floor()).collect()
    };
    let first = distances(0);
    let mut columns = vec![
        vec![1.0 / (n as f64).sqrt(); n],
        first.clone(),
        distances(0),
        first.iter().map(|x| 2.0 * x).collect(),
        vec![0.0; n],
        weights.iter().enumerate().map(|(r, &w)| if w == 0.0 { 1.0 + r as f64 } else { 0.0 }).collect(),
    ];
    columns.extend((6..20).map(distances));
    let combine = |a: &[f64], b: &[f64]| -> Vec<f64> {
        a.iter().zip(b).map(|(x, y)| 3.0 * x - 0.5 * y).collect()
    };
    columns[9] = combine(&columns[2], &columns[6]);
    columns[18] = combine(&columns[7], &columns[12]);
    ColMajorMatrix::from_columns(&columns)
}

/// `ortho::mgs` streams each kept column once per panel and runs one pass
/// per projection with cached denominators, yet must stay bit-identical to
/// the three-call loop: matrix and outcome, at every chunking regime,
/// plain and D-weighted, on both backends at 1, 2 and 8 threads. It makes
/// exactly the column-at-a-time loop's backend calls; against the
/// three-call loop it saves one BLAS-1 pass per projection (the cached
/// denominator) and spends one per kept column (the pass that caches it).
#[test]
fn fused_mgs_is_bitwise_the_three_call_loop() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut backends = vec![LinalgBackend::Scalar];
    if backend::simd_supported() {
        backends.push(LinalgBackend::Simd);
    }
    let mut weight_rng = Xoshiro256StarStar::seed_from_u64(0x3e19);
    for n in [1, 7, PAR_CHUNK - 1, PAR_CHUNK, PAR_CHUNK + 1, 3 * PAR_CHUNK + 17] {
        // Every fifth row has weight zero, as an isolated vertex would.
        let weights: Vec<f64> = (0..n)
            .map(|r| if r % 5 == 4 { 0.0 } else { 1.0 + (weight_rng.next_f64() * 9.0).floor() })
            .collect();
        let input = mgs_input(n, &weights, n as u64);
        for d in [None, Some(weights.as_slice())] {
            for &be in &backends {
                let ((want, (want_out, projections)), _, three_call_blas1) =
                    with_backend(be, || {
                        counted(|| {
                            let mut m = input.clone();
                            let out = three_call_mgs(&mut m, d, ortho::DROP_TOLERANCE);
                            (m, out)
                        })
                    });
                if n > 1 {
                    assert!(want_out.dropped.contains(&3), "n={n}: duplicate kept");
                }
                if n > 20 {
                    // Rows enough that only the planted combinations are
                    // dependent.
                    for combination in [9, 18] {
                        assert!(want_out.dropped.contains(&combination), "n={n}: {combination} kept");
                    }
                }
                assert!(want_out.dropped.contains(&4), "n={n}: zero column kept");
                if d.is_some() && n > 4 {
                    assert!(want_out.kept.contains(&5), "n={n}: zero-weight column dropped");
                }
                let saved = n as u64 * (projections - want_out.kept.len() as u64);
                let ((columns, column_kept), column_projections, column_blas1) =
                    with_backend(be, || {
                        counted(|| {
                            let mut m = input.clone();
                            let kept = column_mgs(&mut m, d, ortho::DROP_TOLERANCE);
                            (m, kept)
                        })
                    });
                assert_eq!(column_kept, want_out.kept);
                assert_eq!(bits(columns.data()), bits(want.data()));
                assert_eq!(column_projections, projections);
                assert_eq!(column_blas1, three_call_blas1 - saved);
                for threads in [1usize, 2, 8] {
                    let ((got, got_out), got_projections, got_blas1) = with_backend(be, || {
                        run_with_threads(threads, || {
                            counted(|| {
                                let mut m = input.clone();
                                let out = ortho::mgs(&mut m, d, ortho::DROP_TOLERANCE);
                                (m, out)
                            })
                        })
                    });
                    let ctx = format!("n={n} weighted={} {be:?} {threads} threads", d.is_some());
                    assert_eq!(got_out, want_out, "{ctx}");
                    assert_eq!(bits(got.data()), bits(want.data()), "{ctx}");
                    assert_eq!(got_projections, projections, "{ctx}");
                    assert_eq!(got_blas1, three_call_blas1 - saved, "{ctx}");
                }
            }
        }
        // A budget that trips before column 11, in the middle of the
        // second panel: the columns from there on are reported dropped,
        // and the ones before it are finished exactly as without a budget.
        let mut want = input.clone();
        let (want_out, _) = three_call_mgs(&mut want, None, ortho::DROP_TOLERANCE);
        let budget = RunBudget::unbounded();
        budget.cancel_after_checks(12);
        let installed = supervisor::install(&budget);
        let mut got = input.clone();
        let out = ortho::mgs(&mut got, None, ortho::DROP_TOLERANCE);
        drop(installed);
        let before: Vec<usize> = want_out.kept.iter().copied().filter(|&i| i < 11).collect();
        assert_eq!(out.kept, before, "n={n}");
        assert_eq!(out.dropped.iter().filter(|&&i| i >= 11).count(), 9, "n={n}");
        assert_eq!(bits(got.data()), bits(&want.data()[..n * before.len()]), "n={n}");
    }
}

/// Sign-aligned coordinate comparison: eigenvector sign is arbitrary, so
/// flip each axis to the reference's orientation before measuring.
fn max_aligned_diff(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let sign = if dot < 0.0 { -1.0 } else { 1.0 };
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - sign * y).abs())
        .fold(0.0, f64::max)
}

/// Full-pipeline cross-backend agreement at 1, 2 and 8 threads: identical
/// pivot sequences, kept counts and warning sets; coordinates equal up to
/// the dot-family tolerance amplified through the eigensolve.
#[test]
fn pipeline_agrees_across_backends_at_all_thread_counts() {
    if !backend::simd_supported() {
        return;
    }
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = gen::grid2d(40, 35);
    let cfg = ParHdeConfig { subspace: 12, ..ParHdeConfig::default() };
    let scalar_cfg = ParHdeConfig { backend: LinalgBackend::Scalar, ..cfg.clone() };
    let simd_cfg = ParHdeConfig { backend: LinalgBackend::Simd, ..cfg };
    let (ref_coords, ref_stats) =
        run_with_threads(1, || try_par_hde_nd(&g, &scalar_cfg, 2).unwrap());
    assert_eq!(ref_stats.backend_executed, Some("scalar"));
    let scale = ref_coords
        .data()
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(1.0);
    for threads in [1usize, 2, 8] {
        let (coords, stats) =
            run_with_threads(threads, || try_par_hde_nd(&g, &simd_cfg, 2).unwrap());
        assert_eq!(stats.backend_executed, Some("simd"));
        assert_eq!(stats.sources, ref_stats.sources, "pivot sequences diverged");
        assert_eq!(stats.s_kept, ref_stats.s_kept, "kept counts diverged");
        assert_eq!(
            stats.warnings.len(),
            ref_stats.warnings.len(),
            "warning sets diverged"
        );
        for axis in 0..2 {
            let diff = max_aligned_diff(coords.col(axis), ref_coords.col(axis));
            assert!(
                diff <= 1e-7 * scale,
                "axis {axis} diverged by {diff:e} at {threads} threads"
            );
        }
    }
    backend::install(LinalgBackend::Auto).unwrap();
}

/// The backend knob is excluded from the checkpoint fingerprint: a
/// checkpoint written under one backend is byte-identical to one written
/// under the other (the BFS phase is pure integer work), and it resumes
/// under either backend to exactly that backend's direct result.
#[test]
fn checkpoints_are_backend_invariant_and_resume_across_backends() {
    if !backend::simd_supported() {
        return;
    }
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = gen::grid2d(30, 22);
    let base = ParHdeConfig { subspace: 10, ..ParHdeConfig::default() };
    let dir = std::env::temp_dir()
        .join(format!("parhde-backend-equiv-{}", std::process::id()));
    let mut files = Vec::new();
    for (tag, be) in [("scalar", LinalgBackend::Scalar), ("simd", LinalgBackend::Simd)]
    {
        let cfg = ParHdeConfig { backend: be, ..base.clone() };
        let spec = CheckpointSpec::in_dir(dir.join(tag));
        try_par_hde_nd_checkpointed(&g, &cfg, 2, &spec).unwrap();
        files.push(std::fs::read(spec.file_path()).unwrap());
    }
    assert_eq!(files[0], files[1], "checkpoint bytes differ between backends");

    // Resume the scalar-written checkpoint under SIMD: it must validate
    // (backend is not fingerprinted) and reproduce the direct SIMD run
    // bit-for-bit, and vice versa.
    let ckpt = Checkpoint::from_bytes(&files[0]).unwrap();
    for be in [LinalgBackend::Simd, LinalgBackend::Scalar] {
        let cfg = ParHdeConfig { backend: be, ..base.clone() };
        let (resumed, stats) = try_par_hde_resume(&g, &cfg, 2, &ckpt).unwrap();
        assert_eq!(stats.backend_executed, Some(cfg.backend.label()));
        let (direct, _) = try_par_hde_nd(&g, &cfg, 2).unwrap();
        for (a, b) in resumed.data().iter().zip(direct.data()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "resume diverged from the direct {} run",
                cfg.backend.label()
            );
        }
    }
    backend::install(LinalgBackend::Auto).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Forcing `simd` through a pipeline config on an unsupported CPU is a
/// typed error (exit code 12), not a panic — and on a supported CPU the
/// forced run reports the backend it executed.
#[test]
fn forced_simd_is_typed_end_to_end() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = gen::grid2d(12, 12);
    let cfg = ParHdeConfig {
        subspace: 8,
        backend: LinalgBackend::Simd,
        ..ParHdeConfig::default()
    };
    let outcome = try_par_hde_nd(&g, &cfg, 2);
    if backend::simd_supported() {
        let (_, stats) = outcome.unwrap();
        assert_eq!(stats.backend, Some("simd"));
        assert_eq!(stats.backend_executed, Some("simd"));
    } else {
        let err = outcome.unwrap_err();
        assert_eq!(err.exit_code(), 12, "{err}");
    }
    backend::install(LinalgBackend::Auto).unwrap();
}

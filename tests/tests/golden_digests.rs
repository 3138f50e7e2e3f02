//! Golden digests: FNV-1a hashes of the exact coordinate bits the ParHDE
//! pipelines produce under the scalar backend, and of the bytes of one
//! post-BFS checkpoint.
//!
//! Every reduction in the pipeline is chunk-ordered and the scalar kernels
//! use only IEEE-754 basic operations and `sqrt`, so these bits are fixed
//! by the source code alone: a pure reschedule (fewer passes, a buffer
//! written in place instead of copied) must leave every digest unchanged,
//! and any numeric drift, even within a tolerance class, changes one. When
//! a change is *meant* to move bits, the failure message prints the full
//! table of actual digests to paste back here.
//!
//! This is its own test target because the backend install is
//! process-global: every run here pins the scalar backend.

use parhde::config::{
    BfsMode, LinalgBackend, LinalgMode, OrthoMethod, ParHdeConfig, PivotStrategy,
};
use parhde::coupled::par_hde_coupled;
use parhde::prior::prior_hde;
use parhde::{
    try_par_hde, try_par_hde_nd, try_par_hde_nd_supervised, try_par_hde_resume,
    try_par_hde_weighted_with, try_phde, try_pivot_mds, Checkpoint, CheckpointSpec,
    HdeStats, Layout, PhdeConfig, SuperviseOptions, WeightSemantics, Warning,
};
use parhde_graph::builder::build_weighted_from_edges;
use parhde_graph::gen::poison;
use parhde_graph::{gen, CsrGraph, WeightedCsr};
use parhde_util::durable::{fnv64, Fnv64};
use parhde_util::Xoshiro256StarStar;

/// `(run, digest)` pairs. Grid 190×190 has n = 36 100, three `PAR_CHUNK`
/// chunks, so its runs pin the chunked paths and the order in which
/// chunk partials are summed.
const GOLDEN: [(&str, u64); 9] = [
    ("grid/seed1", 0x0f1bbde8b5fd6298),
    ("grid/seed2", 0xb36ef7024d2d1ca7),
    ("kron/seed1", 0xc2a7a507a4bd6ab5),
    ("kron/seed2", 0x4a903387022778b6),
    ("pref/seed1", 0x13b85ca65fb1af8d),
    ("pref/seed2", 0x6927c0f462d4fd89),
    ("grid/project_from_raw", 0x9dbdfd454a31c152),
    ("grid/coupled", 0x0f1bbde8b5fd6298),
    ("grid/cgs", 0x9bf7754bf6fc4ae2),
];

/// Digest of the PHDECKPT file written by a checkpointed grid run.
const GOLDEN_CHECKPOINT: u64 = 0x19aa7f14690274f3;

/// `(run, digest, phases)` for the other pipelines and configurations,
/// each beside the phase names its run recorded in
/// [`HdeStats::phases`], in first-occurrence order. Every run but the
/// two-paths one lays out the 190×190 grid.
const GOLDEN_VARIANTS: [(&str, u64, &str); 10] = [
    ("grid/phde", 0x225ab2153ccdd1aa, "bfs,bfs_other,col_center,gemm,eigensolve,project"),
    ("grid/pivotmds", 0x93001caf50e09dee, "bfs,bfs_other,dbl_center,gemm,eigensolve,project"),
    (
        "grid/weighted_lengths",
        0x06976b728ca0ceab,
        "bfs,bfs_other,init,dortho,fused_triple,eigensolve,project",
    ),
    (
        "grid/weighted_similarities",
        0x6cff3aa64df8ff33,
        "bfs,bfs_other,init,dortho,fused_triple,eigensolve,project",
    ),
    ("grid/prior", 0x0f1bbde8b5fd6298, "bfs,bfs_other,init,dortho,ls,gemm,eigensolve,project"),
    ("grid/staged", 0x0f1bbde8b5fd6298, "init,bfs,bfs_other,dortho,ls,gemm,eigensolve,project"),
    (
        "grid/plain_ortho",
        0xea4c5bff1f4d8d39,
        "init,bfs,bfs_other,dortho,fused_triple,eigensolve,project",
    ),
    (
        "grid/random_batched",
        0x0e53a68d27c5cc78,
        "init,bfs_other,bfs,dortho,fused_triple,eigensolve,project",
    ),
    ("grid/p3", 0x671d5d3781fe6861, "init,bfs,bfs_other,dortho,fused_triple,eigensolve,project"),
    (
        "two_paths/failsoft",
        0xa1545bc398d1542b,
        "init,bfs,bfs_other,dortho,fused_triple,eigensolve,project",
    ),
];

/// Digest and phases of [`try_par_hde_resume`] from the checkpoint
/// [`checkpoint_bytes_match_their_golden_digest`] writes.
const GOLDEN_RESUMED: (u64, &str) =
    (0x2498cebc505719e8, "init,dortho,fused_triple,eigensolve,project");

fn digest(values: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    for v in values {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

fn layout_digest(layout: &Layout) -> u64 {
    let mut xy = layout.x.clone();
    xy.extend_from_slice(&layout.y);
    digest(&xy)
}

/// The phase names of one run, in first-occurrence order.
fn phases(stats: &HdeStats) -> String {
    stats.phases.iter().map(|(name, _)| name).collect::<Vec<_>>().join(",")
}

fn scalar_cfg(seed: u64) -> ParHdeConfig {
    ParHdeConfig { seed, backend: LinalgBackend::Scalar, ..ParHdeConfig::default() }
}

fn supervised(g: &CsrGraph, cfg: &ParHdeConfig, opts: &SuperviseOptions) -> u64 {
    let sup = try_par_hde_nd_supervised(g, cfg, 2, opts).expect("layout");
    assert_eq!(sup.rung, "full");
    digest(sup.coords.data())
}

#[test]
fn layouts_match_their_golden_digests() {
    let none = SuperviseOptions::default();
    let grid = gen::grid2d(190, 190);
    let mut actual: Vec<(String, u64)> = Vec::new();
    for (name, g) in [
        ("grid", &grid),
        ("kron", &gen::kron(12, 8, 3)),
        ("pref", &gen::pref_attach(3000, 4, 5)),
    ] {
        for seed in [1, 2] {
            actual.push((format!("{name}/seed{seed}"), supervised(g, &scalar_cfg(seed), &none)));
        }
    }
    let raw = ParHdeConfig { project_from_raw: true, ..scalar_cfg(1) };
    actual.push(("grid/project_from_raw".into(), supervised(&grid, &raw, &none)));
    let (layout, _) = par_hde_coupled(&grid, &scalar_cfg(1));
    actual.push(("grid/coupled".into(), layout_digest(&layout)));
    let cgs = ParHdeConfig { ortho: OrthoMethod::Cgs, ..scalar_cfg(1) };
    actual.push(("grid/cgs".into(), supervised(&grid, &cgs, &none)));

    let table: String =
        actual.iter().map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n")).collect();
    assert_eq!(actual.len(), GOLDEN.len());
    for ((name, got), (want_name, want)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(*got, want, "{name} moved; actual digests:\n{table}");
    }
}

/// The grid with seeded positive random weights in `[0.5, 5)`.
fn weighted_grid(grid: &CsrGraph) -> WeightedCsr {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed);
    let edges = grid.edges().map(|(u, v)| (u, v, 0.5 + 4.5 * rng.next_f64())).collect();
    build_weighted_from_edges(grid.num_vertices(), edges)
}

#[test]
fn variants_match_their_golden_digests_and_phases() {
    let grid = gen::grid2d(190, 190);
    let mut actual: Vec<(String, u64, String)> = Vec::new();
    let mut push = |name: &str, digest: u64, stats: &HdeStats| {
        actual.push((name.to_string(), digest, phases(stats)));
    };

    let pca = PhdeConfig { seed: 1, backend: LinalgBackend::Scalar, ..PhdeConfig::default() };
    let (layout, stats) = try_phde(&grid, &pca).expect("phde");
    push("grid/phde", layout_digest(&layout), &stats);
    let (layout, stats) = try_pivot_mds(&grid, &pca).expect("pivotmds");
    push("grid/pivotmds", layout_digest(&layout), &stats);

    let wg = weighted_grid(&grid);
    let delta = parhde_sssp::suggest_delta(&wg);
    for (name, semantics) in [
        ("grid/weighted_lengths", WeightSemantics::Lengths),
        ("grid/weighted_similarities", WeightSemantics::Similarities),
    ] {
        let (layout, stats) =
            try_par_hde_weighted_with(&wg, &scalar_cfg(1), delta, semantics).expect("weighted");
        push(name, layout_digest(&layout), &stats);
    }

    // The prior-work baseline installs its configuration's backend, as
    // every pipeline does.
    let (layout, stats) = prior_hde(&grid, &scalar_cfg(1));
    push("grid/prior", layout_digest(&layout), &stats);

    let variants = [
        ("grid/staged", ParHdeConfig { linalg_mode: LinalgMode::Staged, ..scalar_cfg(1) }),
        ("grid/plain_ortho", ParHdeConfig { d_orthogonalize: false, ..scalar_cfg(1) }),
        (
            "grid/random_batched",
            ParHdeConfig {
                pivots: PivotStrategy::Random,
                bfs_mode: BfsMode::Batched,
                ..scalar_cfg(1)
            },
        ),
    ];
    for (name, cfg) in variants {
        let (coords, stats) = try_par_hde_nd(&grid, &cfg, 2).expect("layout");
        push(name, digest(coords.data()), &stats);
    }
    let (coords, stats) = try_par_hde_nd(&grid, &scalar_cfg(1), 3).expect("3-D layout");
    push("grid/p3", digest(coords.data()), &stats);

    let (layout, stats) =
        try_par_hde(&poison::two_paths(600, 200), &scalar_cfg(1)).expect("fail-soft layout");
    assert_eq!(
        stats.warnings,
        vec![Warning::DisconnectedFallback { components: 2, kept: 600, n: 800 }]
    );
    push("two_paths/failsoft", layout_digest(&layout), &stats);

    let table: String = actual
        .iter()
        .map(|(name, d, ph)| format!("    (\"{name}\", {d:#018x}, \"{ph}\"),\n"))
        .collect();
    assert_eq!(actual.len(), GOLDEN_VARIANTS.len());
    for ((name, got, ph), (want_name, want, want_ph)) in actual.iter().zip(GOLDEN_VARIANTS) {
        assert_eq!(name, want_name);
        assert_eq!(*got, want, "{name} moved; actual digests:\n{table}");
        assert_eq!(ph, want_ph, "{name} recorded other phases; actual:\n{table}");
    }
}

#[test]
fn checkpoint_bytes_match_their_golden_digest() {
    let dir = std::env::temp_dir()
        .join(format!("parhde-golden-ckpt-{}", std::process::id()));
    let spec = CheckpointSpec::in_dir(&dir);
    let opts = SuperviseOptions { checkpoint: Some(spec.clone()), ..SuperviseOptions::default() };
    let grid = gen::grid2d(40, 30);
    let written = supervised(&grid, &scalar_cfg(1), &opts);
    let bytes = std::fs::read(spec.file_path()).expect("checkpoint written");
    let _ = std::fs::remove_dir_all(&dir);
    let got = fnv64(&bytes);
    assert_eq!(got, GOLDEN_CHECKPOINT, "checkpoint bytes moved: {got:#018x}");

    // Resuming from those bytes reproduces the run that wrote them.
    let ckpt = Checkpoint::from_bytes(&bytes).expect("checkpoint parses");
    let (coords, stats) =
        try_par_hde_resume(&grid, &scalar_cfg(1), 2, &ckpt).expect("resume");
    let resumed = digest(coords.data());
    assert_eq!(resumed, written, "resume differs from the run that wrote the checkpoint");
    let got = (resumed, phases(&stats));
    assert_eq!(
        (got.0, got.1.as_str()),
        GOLDEN_RESUMED,
        "resumed run moved: ({:#018x}, {:?})",
        got.0,
        got.1
    );
}

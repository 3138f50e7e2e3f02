//! `bench-baseline` — merge per-run reports and a BFS-mode shoot-out into
//! one perf-baseline JSON artifact (`BENCH_pr3.json`).
//!
//! CI runs `parhde-layout --json-report` on the three pseudo-inputs, then
//! this tool to (a) fold those run reports into a single document via
//! `parhde_bench::reports` and (b) measure the three BFS-phase execution
//! modes head-to-head on kron / grid / road generators — the acceptance
//! check that the batched kernel beats `bfs_multi_source` wall-clock on a
//! kron graph with `s = 50`. The resulting file is uploaded as a CI
//! artifact so later PRs can diff against it.
//!
//! `--supervision-overhead` adds a second shoot-out (`BENCH_pr4.json`):
//! the plain `try_par_hde_nd` pipeline vs the supervised entry point with
//! no budget set, on the same three families — the acceptance check that
//! an unbudgeted supervised run pays under 2% for its cooperative checks,
//! installation, and ladder bookkeeping.
//!
//! `--linalg-shootout` adds the PR-5 kernel comparison (`BENCH_pr5.json`):
//! the fused one-pass `Sᵀ·L·S` vs the staged `laplacian_spmm` + `at_b`
//! pair (bit-identical outputs, verified here per graph), and the two
//! DOrtho variants (MGS / CGS), all at `s = 50` on the same trio.
//!
//! `--backend-shootout` adds the PR-8 comparison (`BENCH_pr8.json`): the
//! scalar reference kernels vs the explicit-SIMD (AVX2+FMA) backend, per
//! kernel — fused TripleProd, SYRK, staged SpMM, dot, axpy — on the
//! same kron / grid / pref trio. Exact-class kernels are asserted bitwise
//! identical across backends while timing. On a CPU without the SIMD
//! backend only the scalar column is measured.
//!
//! `--gate BASELINE.json` turns the tool into a regression gate: the
//! grouped TripleProd and DOrtho buckets of the current run reports are
//! compared against the baseline's embedded runs (paired by position);
//! any >25% slowdown in either bucket fails the invocation with exit 3.
//! With `--backend-shootout` the gate also fails (exit 3) if SIMD loses
//! to scalar on fused TripleProd on any measured graph.
//!
//! ```text
//! bench-baseline --out BENCH_pr3.json [--skip-kernel-bench]
//!                [--supervision-overhead] [--linalg-shootout]
//!                [--backend-shootout] [--gate BASELINE.json]
//!                [report.json ...]
//! ```

use parhde::config::ParHdeConfig;
use parhde::{try_par_hde_nd, try_par_hde_nd_supervised, SuperviseOptions};
use parhde_bench::reports;
use parhde_bfs::batch::bfs_batched;
use parhde_bfs::direction_opt::bfs_direction_opt;
use parhde_bfs::multi::bfs_multi_source;
use parhde_graph::gen::{geometric, grid2d, kron, pref_attach};
use parhde_graph::CsrGraph;
use parhde_trace::json::{escape, number};
use parhde_trace::RunReport;
use parhde_util::Timer;
use std::path::{Path, PathBuf};
use std::process::exit;

/// Best-of-`reps` wall seconds for one closure.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Timer::start();
        f();
        best = best.min(t.seconds());
    }
    best
}

/// One graph's three-mode measurement.
struct ModeTiming {
    label: &'static str,
    n: usize,
    m: usize,
    s: usize,
    per_source_s: f64,
    batched_s: f64,
    direction_opt_s: f64,
}

impl ModeTiming {
    fn measure(label: &'static str, g: &CsrGraph, s: usize, reps: usize) -> Self {
        let n = g.num_vertices();
        let sources: Vec<u32> = (0..s).map(|i| ((i * n) / s) as u32).collect();
        let per_source_s = best_of(reps, || {
            std::hint::black_box(bfs_multi_source(g, &sources));
        });
        let batched_s = best_of(reps, || {
            std::hint::black_box(bfs_batched(g, &sources));
        });
        let direction_opt_s = best_of(reps, || {
            for &src in &sources {
                std::hint::black_box(bfs_direction_opt(g, src));
            }
        });
        Self {
            label,
            n,
            m: g.num_edges(),
            s,
            per_source_s,
            batched_s,
            direction_opt_s,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"graph\":\"{}\",\"n\":{},\"m\":{},\"s\":{},\
             \"per_source_s\":{},\"batched_s\":{},\"direction_opt_s\":{},\
             \"batched_speedup_vs_per_source\":{}}}",
            escape(self.label),
            self.n,
            self.m,
            self.s,
            number(self.per_source_s),
            number(self.batched_s),
            number(self.direction_opt_s),
            number(self.per_source_s / self.batched_s),
        )
    }
}

/// One graph's plain-vs-supervised pipeline measurement.
struct OverheadTiming {
    label: &'static str,
    n: usize,
    m: usize,
    s: usize,
    plain_s: f64,
    supervised_s: f64,
}

impl OverheadTiming {
    /// Relative cost of the unbudgeted supervised entry over the plain
    /// pipeline, in percent (negative when noise favors the supervised run).
    fn overhead_percent(&self) -> f64 {
        (self.supervised_s / self.plain_s - 1.0) * 100.0
    }

    fn measure(label: &'static str, g: &CsrGraph, s: usize, reps: usize) -> Self {
        let cfg = ParHdeConfig { subspace: s, ..ParHdeConfig::default() };
        let opts = SuperviseOptions::default();
        let run_plain = || {
            std::hint::black_box(try_par_hde_nd(g, &cfg, 2).unwrap());
        };
        let run_supervised = || {
            std::hint::black_box(try_par_hde_nd_supervised(g, &cfg, 2, &opts).unwrap());
        };
        // Warm caches and the allocator once, then interleave the two sides
        // rep by rep so slow machine drift hits both measurements equally.
        run_plain();
        run_supervised();
        let (mut plain_s, mut supervised_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            let t = Timer::start();
            run_plain();
            plain_s = plain_s.min(t.seconds());
            let t = Timer::start();
            run_supervised();
            supervised_s = supervised_s.min(t.seconds());
        }
        Self {
            label,
            n: g.num_vertices(),
            m: g.num_edges(),
            s,
            plain_s,
            supervised_s,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"graph\":\"{}\",\"n\":{},\"m\":{},\"s\":{},\
             \"plain_s\":{},\"supervised_s\":{},\"overhead_percent\":{}}}",
            escape(self.label),
            self.n,
            self.m,
            self.s,
            number(self.plain_s),
            number(self.supervised_s),
            number(self.overhead_percent()),
        )
    }
}

/// One graph's fused-vs-staged TripleProd and DOrtho-variant measurement.
struct LinalgTiming {
    label: &'static str,
    n: usize,
    m: usize,
    s: usize,
    fused_s: f64,
    staged_s: f64,
    mgs_s: f64,
    cgs_s: f64,
}

impl LinalgTiming {
    fn measure(label: &'static str, g: &CsrGraph, s: usize, reps: usize) -> Self {
        use parhde_linalg::{fused, gemm, ortho, spmm, ColMajorMatrix};
        let n = g.num_vertices();
        let degrees = g.degree_vector();
        // A deterministic dense S of the pipeline's exact shape (n × (s+1),
        // constant column + pseudo-distance columns). Kernel cost depends
        // only on the shape and the graph, not on orthonormality.
        let mut rng = parhde_util::Xoshiro256StarStar::seed_from_u64(0x9a7de);
        let mut smat = ColMajorMatrix::zeros(n, s + 1);
        smat.col_mut(0).fill(1.0 / (n as f64).sqrt());
        for c in 1..=s {
            for v in smat.col_mut(c) {
                *v = (rng.next_f64() * 64.0).floor();
            }
        }
        let fused_s = best_of(reps, || {
            std::hint::black_box(fused::triple_product(g, &degrees, &smat));
        });
        let staged_s = best_of(reps, || {
            let p = spmm::laplacian_spmm(g, &degrees, &smat);
            std::hint::black_box(gemm::at_b(&smat, &p));
        });
        // The fused path must be a pure reschedule: identical bits.
        let zf = fused::triple_product(g, &degrees, &smat);
        let zs = gemm::at_b(&smat, &spmm::laplacian_spmm(g, &degrees, &smat));
        assert_eq!(
            zf.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            zs.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "fused and staged TripleProd disagree on {label}"
        );
        // DOrtho variants mutate S, so each rep runs on a fresh clone; the
        // clone cost is identical across variants and cancels in ratios.
        let mgs_s = best_of(reps, || {
            let mut c = smat.clone();
            std::hint::black_box(ortho::mgs(&mut c, Some(&degrees), 1e-3));
        });
        let cgs_s = best_of(reps, || {
            let mut c = smat.clone();
            std::hint::black_box(ortho::cgs(&mut c, Some(&degrees), 1e-3));
        });
        Self {
            label,
            n,
            m: g.num_edges(),
            s,
            fused_s,
            staged_s,
            mgs_s,
            cgs_s,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"graph\":\"{}\",\"n\":{},\"m\":{},\"s\":{},\
             \"fused_s\":{},\"staged_s\":{},\"fused_speedup_vs_staged\":{},\
             \"mgs_s\":{},\"cgs_s\":{}}}",
            escape(self.label),
            self.n,
            self.m,
            self.s,
            number(self.fused_s),
            number(self.staged_s),
            number(self.staged_s / self.fused_s),
            number(self.mgs_s),
            number(self.cgs_s),
        )
    }
}

/// Per-kernel best-of wall seconds under one backend.
struct KernelSet {
    fused_s: f64,
    syrk_s: f64,
    spmm_s: f64,
    dot_s: f64,
    axpy_s: f64,
}

impl KernelSet {
    fn to_json(&self, prefix: &str) -> String {
        format!(
            "\"{prefix}_fused_s\":{},\"{prefix}_syrk_s\":{},\
             \"{prefix}_spmm_s\":{},\"{prefix}_dot_s\":{},\
             \"{prefix}_axpy_s\":{}",
            number(self.fused_s),
            number(self.syrk_s),
            number(self.spmm_s),
            number(self.dot_s),
            number(self.axpy_s),
        )
    }
}

/// One graph's scalar-vs-SIMD backend measurement. The SIMD column is
/// absent on CPUs without AVX2+FMA.
struct BackendTiming {
    label: &'static str,
    n: usize,
    m: usize,
    s: usize,
    scalar: KernelSet,
    simd: Option<KernelSet>,
}

impl BackendTiming {
    /// Measures every kernel under `choice` (installed process-wide for
    /// the duration; the caller restores the backend afterwards).
    fn measure_set(
        g: &CsrGraph,
        smat: &parhde_linalg::ColMajorMatrix,
        degrees: &[f64],
        choice: parhde_linalg::backend::Choice,
        reps: usize,
    ) -> KernelSet {
        use parhde_linalg::{blas1, fused, spmm, syrk};
        parhde_linalg::backend::install(choice).expect("backend install");
        let fused_s = best_of(reps, || {
            std::hint::black_box(fused::triple_product(g, degrees, smat));
        });
        let syrk_s = best_of(reps, || {
            std::hint::black_box(syrk::at_a(smat));
        });
        let spmm_s = best_of(reps, || {
            std::hint::black_box(spmm::laplacian_spmm(g, degrees, smat));
        });
        // BLAS-1 on the whole n×(s+1) buffer, repeated so the measurement
        // is not all clone/allocation cost.
        let x = smat.data().to_vec();
        let dot_s = best_of(reps, || {
            for _ in 0..8 {
                std::hint::black_box(blas1::dot(&x, smat.data()));
            }
        });
        let mut y = smat.data().to_vec();
        let axpy_s = best_of(reps, || {
            for _ in 0..8 {
                blas1::axpy(1.0e-9, &x, &mut y);
            }
            std::hint::black_box(&y);
        });
        KernelSet { fused_s, syrk_s, spmm_s, dot_s, axpy_s }
    }

    fn measure(label: &'static str, g: &CsrGraph, s: usize, reps: usize) -> Self {
        use parhde_linalg::backend::Choice;
        use parhde_linalg::{fused, syrk};
        let n = g.num_vertices();
        let degrees = g.degree_vector();
        let mut rng = parhde_util::Xoshiro256StarStar::seed_from_u64(0x9a7de);
        let mut smat = parhde_linalg::ColMajorMatrix::zeros(n, s + 1);
        smat.col_mut(0).fill(1.0 / (n as f64).sqrt());
        for c in 1..=s {
            for v in smat.col_mut(c) {
                *v = (rng.next_f64() * 64.0).floor();
            }
        }
        let scalar = Self::measure_set(g, &smat, &degrees, Choice::Scalar, reps);
        let simd = parhde_linalg::backend::simd_supported().then(|| {
            Self::measure_set(g, &smat, &degrees, Choice::Simd, reps)
        });
        if simd.is_some() {
            // Exact-class kernels must be a pure reschedule across
            // backends: identical bits.
            let bits = |m: &parhde_linalg::ColMajorMatrix| {
                m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            parhde_linalg::backend::install(Choice::Scalar).unwrap();
            let fused_ref = fused::triple_product(g, &degrees, &smat);
            let syrk_ref = syrk::at_a(&smat);
            parhde_linalg::backend::install(Choice::Simd).unwrap();
            assert_eq!(
                bits(&fused::triple_product(g, &degrees, &smat)),
                bits(&fused_ref),
                "fused TripleProd differs across backends on {label}"
            );
            assert_eq!(
                bits(&syrk::at_a(&smat)),
                bits(&syrk_ref),
                "SYRK differs across backends on {label}"
            );
        }
        // Leave the process on auto for whatever runs next.
        parhde_linalg::backend::install(Choice::Auto).unwrap();
        Self { label, n, m: g.num_edges(), s, scalar, simd }
    }

    /// SIMD speedup on one kernel (scalar / simd), when SIMD was measured.
    fn speedup(&self, pick: impl Fn(&KernelSet) -> f64) -> Option<f64> {
        self.simd.as_ref().map(|s| pick(&self.scalar) / pick(s))
    }

    fn to_json(&self) -> String {
        let mut body = format!(
            "{{\"graph\":\"{}\",\"n\":{},\"m\":{},\"s\":{},\
             \"simd_supported\":{},{}",
            escape(self.label),
            self.n,
            self.m,
            self.s,
            self.simd.is_some(),
            self.scalar.to_json("scalar"),
        );
        if let Some(simd) = &self.simd {
            body.push(',');
            body.push_str(&simd.to_json("simd"));
            for (name, pick) in [
                ("fused", (|k: &KernelSet| k.fused_s) as fn(&KernelSet) -> f64),
                ("syrk", |k| k.syrk_s),
                ("spmm", |k| k.spmm_s),
                ("dot", |k| k.dot_s),
                ("axpy", |k| k.axpy_s),
            ] {
                body.push_str(&format!(
                    ",\"simd_speedup_{name}\":{}",
                    number(self.scalar_over(simd, pick))
                ));
            }
        }
        body.push('}');
        body
    }

    fn scalar_over(&self, simd: &KernelSet, pick: fn(&KernelSet) -> f64) -> f64 {
        pick(&self.scalar) / pick(simd)
    }
}

/// One run's `(input_label, grouped_buckets)` as stored in a baseline doc.
type BaselineRun = (String, Vec<(String, f64)>);

/// Extracts `(input_label, grouped_buckets)` for every run embedded in a
/// bench-baseline document — the baseline side of `--gate`.
fn baseline_grouped(text: &str) -> Result<Vec<BaselineRun>, String> {
    let doc = parhde_trace::json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(|v| v.as_arr())
        .ok_or("baseline has no runs array")?;
    let mut out = Vec::new();
    for run in runs {
        let report = run.get("report").ok_or("baseline run missing report")?;
        let input = report
            .get("config")
            .and_then(|v| v.as_arr())
            .and_then(|pairs| {
                pairs.iter().find(|p| {
                    p.get("key").and_then(|k| k.as_str()) == Some("input")
                })
            })
            .and_then(|p| p.get("value").and_then(|v| v.as_str()))
            .unwrap_or("?")
            .to_string();
        let grouped = report
            .get("grouped")
            .and_then(|v| v.as_arr())
            .ok_or("baseline report missing grouped buckets")?
            .iter()
            .map(|p| {
                let k = p.get("key").and_then(|v| v.as_str()).ok_or("bad bucket key")?;
                let v = p.get("value").and_then(parhde_trace::json::Value::as_f64)
                    .ok_or("bad bucket value")?;
                Ok((k.to_string(), v))
            })
            .collect::<Result<Vec<_>, String>>()?;
        out.push((input, grouped));
    }
    Ok(out)
}

/// The `--gate` mode: compares the grouped TripleProd and DOrtho buckets of
/// the freshly loaded `current` reports against the committed baseline,
/// paired by position. Returns the number of >`threshold`× regressions.
fn gate_against_baseline(
    baseline_path: &Path,
    current: &[RunReport],
    threshold: f64,
) -> Result<usize, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
    let baseline = baseline_grouped(&text)?;
    if baseline.len() != current.len() {
        return Err(format!(
            "baseline embeds {} runs but {} reports were supplied",
            baseline.len(),
            current.len()
        ));
    }
    let mut regressions = 0;
    for ((input, base_grouped), cur) in baseline.iter().zip(current) {
        // Borrow RunReport/compare for the bucket pairing and the table:
        // grouped buckets stand in for the fine-grained phases.
        let before = RunReport { phases: base_grouped.clone(), ..RunReport::default() };
        let after = RunReport { phases: cur.grouped.clone(), ..RunReport::default() };
        let deltas = reports::compare(&before, &after);
        eprintln!("gate {input}:");
        eprint!("{}", reports::render_comparison(&deltas));
        for d in &deltas {
            if !matches!(d.name.as_str(), "TripleProd" | "DOrtho") {
                continue;
            }
            // Sub-millisecond buckets are all scheduler noise at CI scale.
            if d.before < 1e-3 {
                continue;
            }
            if let Some(r) = d.ratio() {
                if r > threshold {
                    regressions += 1;
                    eprintln!(
                        "bench-baseline: REGRESSION: {input} {} {:.4} s -> \
                         {:.4} s ({r:.2}x > {threshold:.2}x)",
                        d.name, d.before, d.after
                    );
                }
            }
        }
    }
    Ok(regressions)
}

/// Renders one embedded run report as a JSON object (reusing the report's
/// own serialization, which is itself a JSON document).
fn embedded_report(path: &Path, report: &RunReport) -> String {
    format!(
        "{{\"path\":\"{}\",\"summary\":\"{}\",\"report\":{}}}",
        escape(&path.display().to_string()),
        escape(reports::summarize(report).trim_end()),
        report.to_json().trim_end()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<PathBuf> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut skip_kernel = false;
    let mut supervision_overhead = false;
    let mut linalg_shootout = false;
    let mut backend_shootout = false;
    let mut gate: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench-baseline --out BENCH.json \
                     [--skip-kernel-bench] [--supervision-overhead] \
                     [--linalg-shootout] [--backend-shootout] \
                     [--gate BASELINE.json] [report.json ...]"
                );
                exit(0);
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(v) => out = Some(PathBuf::from(v)),
                    None => {
                        eprintln!("bench-baseline: missing value for --out");
                        exit(2);
                    }
                }
            }
            "--gate" => {
                i += 1;
                match args.get(i) {
                    Some(v) => gate = Some(PathBuf::from(v)),
                    None => {
                        eprintln!("bench-baseline: missing value for --gate");
                        exit(2);
                    }
                }
            }
            "--skip-kernel-bench" => skip_kernel = true,
            "--supervision-overhead" => supervision_overhead = true,
            "--linalg-shootout" => linalg_shootout = true,
            "--backend-shootout" => backend_shootout = true,
            other => inputs.push(PathBuf::from(other)),
        }
        i += 1;
    }
    let Some(out) = out else {
        eprintln!("bench-baseline: --out is required");
        exit(2);
    };

    // Load and validate every run report; a malformed report is a hard
    // error (the artifact must stay diffable).
    let mut embedded = Vec::new();
    let mut loaded = Vec::new();
    for path in &inputs {
        match reports::load(path) {
            Ok(r) => {
                eprintln!("{}", reports::summarize(&r).trim_end());
                embedded.push(embedded_report(path, &r));
                loaded.push(r);
            }
            Err(e) => {
                eprintln!("bench-baseline: {}: {e}", path.display());
                exit(2);
            }
        }
    }

    // Regression-gate mode: compare the fresh reports against a committed
    // baseline before anything else, so CI fails fast and loudly.
    if let Some(baseline_path) = &gate {
        match gate_against_baseline(baseline_path, &loaded, 1.25) {
            Ok(0) => eprintln!(
                "gate: no TripleProd/DOrtho regression vs {}",
                baseline_path.display()
            ),
            Ok(k) => {
                eprintln!(
                    "bench-baseline: {k} grouped-bucket regression(s) vs {}",
                    baseline_path.display()
                );
                exit(3);
            }
            Err(e) => {
                eprintln!("bench-baseline: gate: {e}");
                exit(2);
            }
        }
    }

    // The kernel shoot-out: the three planner modes on the three decision
    // families. Kept deliberately small so CI pays seconds, not minutes.
    let mut timings = Vec::new();
    if !skip_kernel {
        let reps = 3;
        let kron_g = kron(13, 12, 2);
        timings.push(ModeTiming::measure("kron_scale13_ef12", &kron_g, 50, reps));
        timings.push(ModeTiming::measure(
            "grid_160x125",
            &grid2d(160, 125),
            50,
            reps,
        ));
        timings.push(ModeTiming::measure(
            "road_geometric_20k",
            &geometric(20_000, 3.0, 3),
            50,
            reps,
        ));
        for t in &timings {
            eprintln!(
                "{}: per_source {:.1} ms, batched {:.1} ms ({:.2}x), \
                 direction_opt {:.1} ms",
                t.label,
                t.per_source_s * 1e3,
                t.batched_s * 1e3,
                t.per_source_s / t.batched_s,
                t.direction_opt_s * 1e3,
            );
        }
        // The acceptance criterion this artifact exists to witness.
        let kron_timing = &timings[0];
        if kron_timing.batched_s >= kron_timing.per_source_s {
            eprintln!(
                "bench-baseline: WARNING: batched ({:.1} ms) did not beat \
                 per-source ({:.1} ms) on {}",
                kron_timing.batched_s * 1e3,
                kron_timing.per_source_s * 1e3,
                kron_timing.label,
            );
        }
    }

    // The supervision shoot-out: plain pipeline vs the unbudgeted
    // supervised entry. Best-of-`reps` on both sides so the comparison
    // measures machinery, not scheduler noise.
    let mut overheads = Vec::new();
    if supervision_overhead {
        let reps = 9;
        let kron_g = kron(13, 12, 2);
        overheads.push(OverheadTiming::measure("kron_scale13_ef12", &kron_g, 50, reps));
        overheads.push(OverheadTiming::measure(
            "grid_160x125",
            &grid2d(160, 125),
            50,
            reps,
        ));
        overheads.push(OverheadTiming::measure(
            "road_geometric_20k",
            &geometric(20_000, 3.0, 3),
            50,
            reps,
        ));
        for t in &overheads {
            eprintln!(
                "{}: plain {:.1} ms, supervised {:.1} ms ({:+.2}%)",
                t.label,
                t.plain_s * 1e3,
                t.supervised_s * 1e3,
                t.overhead_percent(),
            );
            // The acceptance criterion this measurement exists to witness.
            if t.overhead_percent() >= 2.0 {
                eprintln!(
                    "bench-baseline: WARNING: supervision overhead {:.2}% \
                     on {} exceeds the 2% target",
                    t.overhead_percent(),
                    t.label,
                );
            }
        }
    }

    // The linalg shoot-out: fused vs staged TripleProd and the two
    // DOrtho variants, on the same trio at the paper's layout-scale s.
    let mut linalgs = Vec::new();
    if linalg_shootout {
        let reps = 5;
        let kron_g = kron(13, 12, 2);
        linalgs.push(LinalgTiming::measure("kron_scale13_ef12", &kron_g, 50, reps));
        linalgs.push(LinalgTiming::measure(
            "grid_160x125",
            &grid2d(160, 125),
            50,
            reps,
        ));
        linalgs.push(LinalgTiming::measure(
            "pref_20000_a8",
            &pref_attach(20_000, 8, 0x9a7de),
            50,
            reps,
        ));
        for t in &linalgs {
            eprintln!(
                "{}: fused {:.1} ms, staged {:.1} ms ({:.2}x); dortho mgs \
                 {:.1} ms, cgs {:.1} ms",
                t.label,
                t.fused_s * 1e3,
                t.staged_s * 1e3,
                t.staged_s / t.fused_s,
                t.mgs_s * 1e3,
                t.cgs_s * 1e3,
            );
            // The acceptance criterion this artifact exists to witness.
            if t.fused_s >= t.staged_s {
                eprintln!(
                    "bench-baseline: WARNING: fused ({:.1} ms) did not beat \
                     staged ({:.1} ms) on {}",
                    t.fused_s * 1e3,
                    t.staged_s * 1e3,
                    t.label,
                );
            }
        }
    }

    // The backend shoot-out: the scalar reference kernels vs the SIMD
    // backend, per kernel, on the same trio. With `--gate`, SIMD losing
    // to scalar on fused TripleProd fails the invocation.
    let mut backends = Vec::new();
    if backend_shootout {
        let reps = 5;
        let kron_g = kron(13, 12, 2);
        backends.push(BackendTiming::measure("kron_scale13_ef12", &kron_g, 50, reps));
        backends.push(BackendTiming::measure(
            "grid_160x125",
            &grid2d(160, 125),
            50,
            reps,
        ));
        backends.push(BackendTiming::measure(
            "pref_20000_a8",
            &pref_attach(20_000, 8, 0x9a7de),
            50,
            reps,
        ));
        let mut losses = 0usize;
        for t in &backends {
            let Some(simd) = &t.simd else {
                eprintln!(
                    "{}: scalar only (cpu: {})",
                    t.label,
                    parhde_linalg::backend::cpu_features()
                );
                continue;
            };
            eprintln!(
                "{}: fused {:.1} -> {:.1} ms ({:.2}x), syrk {:.2}x, \
                 spmm {:.2}x, dot {:.2}x, axpy {:.2}x",
                t.label,
                t.scalar.fused_s * 1e3,
                simd.fused_s * 1e3,
                t.speedup(|k| k.fused_s).unwrap(),
                t.speedup(|k| k.syrk_s).unwrap(),
                t.speedup(|k| k.spmm_s).unwrap(),
                t.speedup(|k| k.dot_s).unwrap(),
                t.speedup(|k| k.axpy_s).unwrap(),
            );
            // The acceptance criterion this artifact exists to witness:
            // SIMD must not lose to scalar on the headline kernel.
            let speedup = t.speedup(|k| k.fused_s).unwrap();
            if speedup < 1.0 {
                losses += 1;
                eprintln!(
                    "bench-baseline: WARNING: simd fused TripleProd lost to \
                     scalar on {} ({speedup:.2}x)",
                    t.label,
                );
            }
        }
        if losses > 0 && gate.is_some() {
            eprintln!(
                "bench-baseline: {losses} backend shoot-out loss(es); \
                 the SIMD backend must not lose to scalar"
            );
            exit(3);
        }
    }

    let doc = format!(
        "{{\n  \"schema\": \"parhde-bench-baseline\",\n  \"version\": 1,\n  \
         \"threads\": {},\n  \"cpu\": \"{}\",\n  \
         \"bfs_mode_timings\": [{}],\n  \
         \"supervision_overhead\": [{}],\n  \
         \"linalg_timings\": [{}],\n  \
         \"backend_timings\": [{}],\n  \
         \"runs\": [{}]\n}}\n",
        parhde_util::par::current_num_threads(),
        escape(parhde_linalg::backend::cpu_features()),
        timings.iter().map(ModeTiming::to_json).collect::<Vec<_>>().join(","),
        overheads.iter().map(OverheadTiming::to_json).collect::<Vec<_>>().join(","),
        linalgs.iter().map(LinalgTiming::to_json).collect::<Vec<_>>().join(","),
        backends.iter().map(BackendTiming::to_json).collect::<Vec<_>>().join(","),
        embedded.join(","),
    );
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("bench-baseline: cannot write {}: {e}", out.display());
        exit(2);
    }
    println!("wrote {}", out.display());
}

//! `parhde-layout` — command-line graph layout.
//!
//! Reads a graph (Matrix Market or whitespace edge list), preprocesses it
//! the way the paper does (simple, undirected, largest connected
//! component), lays it out, and writes a PNG drawing plus an optional
//! coordinate CSV. With `--trace`/`--trace-ndjson`/`--json-report` the run
//! also emits machine-readable observability artifacts (see DESIGN.md §9).
//!
//! ```text
//! parhde-layout <input> [options]
//!
//!   <input>                .mtx (MatrixMarket) or edge-list text file, a
//!                          packed compressed snapshot (.phdegrf, from
//!                          parhde-pack — opened mmap-backed so graphs
//!                          larger than RAM stream through the kernels;
//!                          --algo parhde only), or a generated
//!                          pseudo-input:
//!                            gen:kron:<scale>[:<edgefactor>]   Kronecker
//!                            gen:grid:<rows>[x<cols>]          2-D grid
//!                            gen:pref:<n>[:<attach>]           pref. attachment
//!   --algo parhde|phde|pivotmds|multilevel   (default parhde)
//!   --subspace <s>         pivot count (default 50)
//!   --random-pivots        uniform random pivots instead of k-centers
//!   --bfs-mode <mode>      auto|direction-opt|per-source|batched — BFS-phase
//!                          execution mode (default auto: the planner picks
//!                          from n, m, s and the thread count)
//!   --ortho <mgs|cgs>      Gram-Schmidt variant for DOrtho (default mgs)
//!   --linalg-mode <mode>   fused|staged — TripleProd execution (default
//!                          fused: one-pass Sᵀ·L·S; staged: SpMM then GEMM;
//!                          bit-identical layouts either way)
//!   --backend <be>         auto|scalar|simd — compute backend for the dense
//!                          kernels (default auto: SIMD when the CPU supports
//!                          AVX2+FMA, scalar otherwise; simd on an unsupported
//!                          CPU is a typed error, exit 12). $PARHDE_BACKEND
//!                          supplies the value when the flag is absent.
//!   --plain-ortho          plain orthogonalization (eigen-projection)
//!   --seed <u64>           PRNG seed (default 0x9a7de)
//!   --size <px>            image width/height (default 1000)
//!   --vertices <r>         draw vertex discs of radius r
//!   --out <file.png>       output image (default <input>.png)
//!   --no-png               skip the drawing (trace/report-only runs)
//!   --csv <file.csv>       also write "id,x,y" coordinates
//!   --report               print the structural graph report first
//!   --trace <file.json>    write a Chrome trace_event file (chrome://tracing,
//!                          Perfetto); also honours $PARHDE_TRACE when unset
//!   --trace-ndjson <file>  write the span/counter stream as NDJSON
//!   --json-report <file>   write the machine-readable run report (written
//!                          even when the run degrades or fails)
//!   --deadline <dur>       wall-clock budget ("2s", "500ms", "2.5" = seconds);
//!                          algo=parhde degrades down the supervisor ladder
//!                          instead of failing (DESIGN.md §11)
//!   --mem-budget <bytes>   soft memory budget ("512M", "2G", "400000");
//!                          admission may shrink the subspace up front
//!   --checkpoint <dir>     write a post-BFS checkpoint into <dir> so an
//!                          interrupted run can be resumed
//!   --resume <file>        restart from a checkpoint file; the input graph,
//!                          seed and settings must match (exit 11 otherwise)
//! ```
//!
//! SIGINT/SIGTERM request cooperative cancellation: the pipeline unwinds at
//! the next check, artifacts (JSON report, trace) are flushed, and the
//! process exits 130. A degraded-but-successful supervised run exits 0.
//!
//! When any trace output is requested the per-phase breakdown table (the
//! paper's Figure-3 split) is printed after the layout completes. The
//! table, the JSON report and the Chrome/NDJSON timelines all render from
//! the run's one record (DESIGN.md §9), so they cannot disagree.

use parhde::config::{
    BfsMode, LinalgBackend, LinalgMode, OrthoMethod, ParHdeConfig, PivotStrategy,
};
use parhde::multilevel::{multilevel_hde, MultilevelConfig};
use parhde::phde::PhdeConfig;
use parhde::stats::render_report;
use parhde::{
    try_par_hde_nd_supervised, try_par_hde_resume, try_phde, try_pivot_mds,
    Checkpoint, CheckpointSpec, HdeError, HdeStats, Layout, SuperviseOptions,
};
use parhde_bench::input;
use parhde_util::shortest;
use parhde_util::supervisor;
use std::time::Duration;
use parhde_draw::render::{try_render_graph, RenderOptions};
use parhde_graph::prep::largest_component;
use parhde_graph::report::GraphReport;
use parhde_graph::store::GraphStore;
use parhde_graph::{CompressedCsr, CsrGraph};
use parhde_trace::{RunReport, TraceSession};
use parhde_util::Timer;
use std::path::PathBuf;
use std::process::exit;

/// Owns the trace session — the run's record — and every requested output
/// artifact, so that *any* exit path — success, typed failure, bad usage
/// after the session started — flushes what was observed. The
/// `--json-report` contract is that a report lands on disk even for
/// degraded and failed runs.
struct Emitter {
    session: Option<TraceSession>,
    chrome: Option<PathBuf>,
    ndjson: Option<PathBuf>,
    report_path: Option<PathBuf>,
    /// What only the CLI knows for the report: algorithm, graph, config.
    report: RunReport,
    started: Timer,
}

impl Emitter {
    fn new() -> Self {
        Self {
            session: None,
            chrome: None,
            ndjson: None,
            report_path: None,
            report: RunReport { binary: "parhde-layout".into(), ..RunReport::default() },
            started: Timer::start(),
        }
    }

    /// Whether any observability output was requested.
    fn active(&self) -> bool {
        self.chrome.is_some() || self.ndjson.is_some() || self.report_path.is_some()
    }

    /// Finishes the session and writes every requested artifact. Output
    /// failures are diagnosed but do not mask the run's own exit code.
    fn finish(&mut self, exit_code: i32, error: Option<&str>) {
        let Some(session) = self.session.take() else { return };
        if let Some(rss) = parhde_trace::peak_rss_bytes() {
            parhde_trace::gauge!("process.peak_rss_bytes", rss as f64);
        }
        let trace = session.finish();
        if let Some(path) = &self.chrome {
            let out = std::fs::File::create(path)
                .and_then(|f| parhde_trace::chrome::write_chrome_trace(&trace, f));
            match out {
                Ok(()) => eprintln!("trace: wrote {}", path.display()),
                Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
            }
        }
        if let Some(path) = &self.ndjson {
            let out = std::fs::File::create(path)
                .and_then(|f| parhde_trace::ndjson::write_ndjson(&trace, f));
            match out {
                Ok(()) => eprintln!("trace: wrote {}", path.display()),
                Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
            }
        }
        if let Some(path) = &self.report_path {
            let head = RunReport {
                exit_code,
                error: error.map(String::from),
                total_seconds: self.started.seconds(),
                ..std::mem::take(&mut self.report)
            };
            match std::fs::write(path, render_report(head, &trace.totals).to_json()) {
                Ok(()) => eprintln!("report: wrote {}", path.display()),
                Err(e) => eprintln!("report: cannot write {}: {e}", path.display()),
            }
        }
    }

    /// Usage/IO failure: diagnose, flush artifacts, exit.
    fn fail(&mut self, code: i32, msg: &str) -> ! {
        eprintln!("parhde-layout: {msg}");
        self.finish(code, Some(msg));
        exit(code)
    }

    /// Typed pipeline failure: diagnose with the phase, flush, exit with
    /// the error's distinct code (3 = I/O, 4 = parse, 5 = config, 6 =
    /// disconnected, 7 = degenerate subspace, 8 = non-finite, 12 = backend
    /// unavailable, 70 = bug).
    fn fail_typed(&mut self, context: &str, e: &HdeError) -> ! {
        let msg = match e.phase() {
            Some(phase) => format!("{context} (phase {phase}): {e}"),
            None => format!("{context}: {e}"),
        };
        eprintln!("parhde-layout: {msg}");
        self.finish(e.exit_code(), Some(&msg));
        exit(e.exit_code())
    }
}

/// Reports the degradations the fail-soft pipeline absorbed, the phase
/// breakdown (the textual Figure 3) when artifacts were asked for, and the
/// modes the run executed in for the JSON report.
fn report_stats(em: &mut Emitter, stats: &HdeStats) {
    for w in &stats.warnings {
        eprintln!("parhde-layout: warning: {w}");
    }
    if em.active() {
        let entries: Vec<(String, f64)> =
            stats.phases.iter().map(|(name, d)| (name.to_string(), d.as_secs_f64())).collect();
        eprint!("{}", parhde_trace::phases::render_breakdown(&entries));
    }
    if let Some(mode) = stats.bfs_mode {
        em.report.config.push(("bfs_mode_executed".into(), mode.into()));
    }
    if let Some(mode) = stats.linalg_mode {
        em.report.config.push(("linalg_mode_executed".into(), mode.into()));
    }
    if let Some(be) = stats.backend_executed {
        em.report.config.push(("backend_executed".into(), be.into()));
    }
}

/// Parses a human-friendly duration: `"2s"`, `"500ms"`, `"90m"`, or a bare
/// float meaning seconds (`"2.5"`).
fn parse_duration(text: &str) -> Option<Duration> {
    let t = text.trim();
    let (num, scale) = if let Some(v) = t.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = t.strip_suffix('s') {
        (v, 1.0)
    } else if let Some(v) = t.strip_suffix('m') {
        (v, 60.0)
    } else {
        (t, 1.0)
    };
    let secs: f64 = num.trim().parse().ok()?;
    if !secs.is_finite() || secs < 0.0 {
        return None;
    }
    Some(Duration::from_secs_f64(secs * scale))
}

/// Parses a byte count with an optional `K`/`M`/`G` suffix (powers of 1024):
/// `"512M"`, `"2G"`, `"400000"`.
fn parse_bytes(text: &str) -> Option<u64> {
    let t = text.trim();
    let (num, scale) = match t.chars().last()? {
        'k' | 'K' => (&t[..t.len() - 1], 1u64 << 10),
        'm' | 'M' => (&t[..t.len() - 1], 1u64 << 20),
        'g' | 'G' => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    num.trim().parse::<u64>().ok()?.checked_mul(scale)
}

fn main() {
    // SIGINT/SIGTERM set the global cancel flag; budgets built with
    // `honoring_global_cancel` observe it at the next cooperative check and
    // the pipeline unwinds as a typed Cancelled error (exit 130) with all
    // requested artifacts flushed.
    supervisor::install_signal_handlers();
    // Panic boundary: anything that escapes `run` as a panic is a bug, not
    // a user error — report it distinctly from the typed failures above.
    let outcome = std::panic::catch_unwind(run);
    if let Err(payload) = outcome {
        if supervisor::global_cancel_requested() {
            // A strict pipeline (e.g. multilevel) surfaces cancellation as
            // a panic; honor the interrupt contract rather than calling
            // the user's ^C a bug.
            eprintln!("parhde-layout: interrupted");
            exit(130);
        }
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("unknown panic");
        // Strict pipelines report budget trips by panicking with the typed
        // error's message; keep their exit codes aligned with the fail-soft
        // paths (9 = deadline, 10 = memory) instead of claiming a bug.
        if msg.starts_with("wall-clock deadline exceeded") {
            eprintln!("parhde-layout: {msg}");
            exit(9);
        }
        if msg.starts_with("memory budget exceeded") {
            eprintln!("parhde-layout: {msg}");
            exit(10);
        }
        eprintln!("parhde-layout: internal failure (bug): {msg}");
        exit(70);
    }
}

fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("usage: parhde-layout <input.mtx|edges.txt|gen:...> [options] (see source header)");
        exit(if args.is_empty() { 2 } else { 0 });
    }
    let input = args[0].clone();
    let mut em = Emitter::new();
    let mut algo = "parhde".to_string();
    let mut subspace = 50usize;
    let mut pivots = PivotStrategy::KCenters;
    let mut bfs_mode = BfsMode::Auto;
    let mut ortho = OrthoMethod::Mgs;
    let mut linalg_mode = LinalgMode::Fused;
    let mut backend: Option<LinalgBackend> = None;
    let mut d_orthogonalize = true;
    let mut seed = 0x9a_7deu64;
    let mut size = 1000u32;
    let mut vertex_radius = 0.0f64;
    let mut out: Option<PathBuf> = None;
    let mut no_png = false;
    let mut csv: Option<PathBuf> = None;
    let mut report = false;
    let mut deadline: Option<Duration> = None;
    let mut mem_budget: Option<u64> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut resume_path: Option<PathBuf> = None;

    let mut i = 1;
    while i < args.len() {
        // Inlined rather than a closure so error paths can borrow `em`.
        macro_rules! value {
            () => {{
                i += 1;
                match args.get(i) {
                    Some(v) => v.clone(),
                    None => em.fail(2, &format!("missing value for {}", args[i - 1])),
                }
            }};
        }
        macro_rules! parsed {
            ($opt:literal) => {
                match value!().parse() {
                    Ok(v) => v,
                    Err(e) => em.fail(2, &format!(concat!("bad ", $opt, ": {}"), e)),
                }
            };
        }
        match args[i].as_str() {
            "--algo" => algo = value!(),
            "--subspace" => subspace = parsed!("--subspace"),
            "--random-pivots" => pivots = PivotStrategy::Random,
            "--bfs-mode" => bfs_mode = parsed!("--bfs-mode"),
            "--ortho" => ortho = parsed!("--ortho"),
            "--linalg-mode" => linalg_mode = parsed!("--linalg-mode"),
            "--backend" => backend = Some(parsed!("--backend")),
            "--plain-ortho" => d_orthogonalize = false,
            "--seed" => seed = parsed!("--seed"),
            "--size" => size = parsed!("--size"),
            "--vertices" => vertex_radius = parsed!("--vertices"),
            "--out" => out = Some(PathBuf::from(value!())),
            "--no-png" => no_png = true,
            "--csv" => csv = Some(PathBuf::from(value!())),
            "--report" => report = true,
            "--trace" => em.chrome = Some(PathBuf::from(value!())),
            "--trace-ndjson" => em.ndjson = Some(PathBuf::from(value!())),
            "--json-report" => em.report_path = Some(PathBuf::from(value!())),
            "--deadline" => match parse_duration(&value!()) {
                Some(d) => deadline = Some(d),
                None => em.fail(2, "bad --deadline (want e.g. 2s, 500ms, 2.5)"),
            },
            "--mem-budget" => match parse_bytes(&value!()) {
                Some(b) => mem_budget = Some(b),
                None => em.fail(2, "bad --mem-budget (want e.g. 512M, 2G, 400000)"),
            },
            "--checkpoint" => checkpoint_dir = Some(PathBuf::from(value!())),
            "--resume" => resume_path = Some(PathBuf::from(value!())),
            other => {
                let msg = format!("unknown option {other}");
                em.fail(2, &msg)
            }
        }
        i += 1;
    }
    // Environment fallback: PARHDE_TRACE names a Chrome trace destination
    // when --trace was not given, so wrapper scripts can turn tracing on
    // without threading a flag through.
    if em.chrome.is_none() {
        if let Ok(path) = std::env::var("PARHDE_TRACE") {
            if !path.is_empty() {
                em.chrome = Some(PathBuf::from(path));
            }
        }
    }
    // Environment fallback: PARHDE_BACKEND selects the compute backend when
    // --backend was not given (the flag wins). A bad value is a usage error
    // here, not a silent auto-fallback.
    let backend = match backend {
        Some(b) => b,
        None => match std::env::var("PARHDE_BACKEND") {
            Ok(v) if !v.trim().is_empty() => match v.trim().parse() {
                Ok(b) => b,
                Err(e) => em.fail(2, &format!("bad PARHDE_BACKEND: {e}")),
            },
            _ => LinalgBackend::Auto,
        },
    };
    if em.active() {
        em.session = Some(TraceSession::begin());
    }
    em.report.algo = algo.clone();
    em.report.config = vec![
        ("input".into(), input.clone()),
        ("algo".into(), algo.clone()),
        ("subspace".into(), subspace.to_string()),
        ("pivots".into(), format!("{pivots:?}")),
        ("bfs_mode".into(), format!("{bfs_mode:?}")),
        ("ortho".into(), format!("{ortho:?}")),
        ("linalg_mode".into(), linalg_mode.label().into()),
        ("backend".into(), backend.label().into()),
        ("d_orthogonalize".into(), d_orthogonalize.to_string()),
        ("seed".into(), seed.to_string()),
    ];
    if let Some(d) = deadline {
        em.report.config.push(("deadline_seconds".into(), format!("{}", d.as_secs_f64())));
    }
    if let Some(b) = mem_budget {
        em.report.config.push(("mem_budget_bytes".into(), b.to_string()));
    }

    let cli = CliOpts {
        input: input.clone(),
        algo,
        report,
        size,
        vertex_radius,
        out,
        no_png,
        csv,
        deadline,
        mem_budget,
        checkpoint_dir,
        resume_path,
    };
    let base_cfg = ParHdeConfig {
        subspace,
        pivots,
        bfs_mode,
        ortho,
        linalg_mode,
        backend,
        d_orthogonalize,
        seed,
        ..ParHdeConfig::default()
    };

    // Load: file input, or a generated pseudo-input. A packed snapshot
    // (`PHDEGRF1` magic, from parhde-pack) is binary — the sniff happens on
    // raw file bytes, *before* any UTF-8 text decode — and is opened
    // mmap-backed: neighbor blocks stay behind a read-only file mapping the
    // kernel pages in on demand, so the graph may exceed RAM.
    if input.starts_with("gen:") {
        let raw = {
            let _s = parhde_trace::span!("load");
            match input::generate(&input, seed) {
                Ok(g) => g,
                Err(msg) => em.fail(2, &msg),
            }
        };
        run_plain(em, raw, base_cfg, cli);
        return;
    }
    let path = PathBuf::from(&input);
    if sniff_packed(&path) {
        let load_span = parhde_trace::span!("load");
        let g = match CompressedCsr::open_mmap(&path) {
            Ok(g) => g,
            Err(e) => em.fail_typed(
                &format!("cannot open packed snapshot {}", path.display()),
                &HdeError::from(e),
            ),
        };
        drop(load_span);
        eprintln!(
            "loaded {input}: n = {} m = {} (packed {:.2}x, {:.1} MB resident, {:.1} MB mapped)",
            g.num_vertices(),
            g.num_edges(),
            g.compression_ratio(),
            g.resident_bytes() as f64 / (1024.0 * 1024.0),
            g.mapped_bytes() as f64 / (1024.0 * 1024.0),
        );
        em.report.config.push(("storage".into(), g.storage().label().into()));
        layout_and_emit(em, &g, None, base_cfg, cli);
        return;
    }
    let raw = {
        let _s = parhde_trace::span!("load");
        match input::read_text(&path) {
            Ok(g) => g,
            Err(e) => em.fail_typed(&e.context, &e.error),
        }
    };
    run_plain(em, raw, base_cfg, cli);
}

/// `true` when the file starts with the `PHDEGRF1` snapshot magic. A short
/// or unreadable file is simply "not packed" — the text loader will produce
/// the proper diagnostic.
fn sniff_packed(path: &PathBuf) -> bool {
    use std::io::Read as _;
    let mut magic = [0u8; 8];
    match std::fs::File::open(path) {
        Ok(mut f) => f.read_exact(&mut magic).is_ok() && &magic == parhde_graph::SNAPSHOT_MAGIC,
        Err(_) => false,
    }
}

/// Everything parsed off the command line that the layout/render/export
/// stages need after the graph is loaded.
struct CliOpts {
    input: String,
    algo: String,
    report: bool,
    size: u32,
    vertex_radius: f64,
    out: Option<PathBuf>,
    no_png: bool,
    csv: Option<PathBuf>,
    deadline: Option<Duration>,
    mem_budget: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
    resume_path: Option<PathBuf>,
}

/// The plain-CSR path: preprocess to the largest connected component
/// (§4.1), then hand off to the storage-generic pipeline with the id
/// mapping for CSV export.
fn run_plain(em: Emitter, raw: CsrGraph, cfg: ParHdeConfig, cli: CliOpts) {
    let prep_span = parhde_trace::span!("preprocess");
    let ex = largest_component(&raw);
    let g = ex.graph;
    drop(prep_span);
    eprintln!(
        "loaded {}: n = {} m = {} (largest component of {} vertices)",
        cli.input,
        g.num_vertices(),
        g.num_edges(),
        raw.num_vertices()
    );
    layout_and_emit(em, &g, Some(&ex.old_ids), cfg, cli);
}

/// Lays out, renders and exports a loaded graph through any
/// [`GraphStore`]. `old_ids` maps component-local vertex ids back to the
/// original input ids (absent for packed snapshots, whose ids are already
/// final). Algorithms that rebuild plain CSR graphs (phde, pivotmds,
/// multilevel) are gated on [`GraphStore::as_csr`].
fn layout_and_emit<G: GraphStore>(
    mut em: Emitter,
    g: &G,
    old_ids: Option<&[u32]>,
    mut cfg: ParHdeConfig,
    cli: CliOpts,
) {
    em.report.graph_n = g.num_vertices() as u64;
    em.report.graph_m = g.num_edges() as u64;
    if cli.report {
        match g.as_csr() {
            Some(csr) => eprintln!("report: {}", GraphReport::of(csr).summary()),
            None => eprintln!(
                "report: n = {} m = {} (structural report needs a plain input)",
                g.num_vertices(),
                g.num_edges()
            ),
        }
    }
    if g.num_vertices() < 8 {
        em.fail(2, "graph too small to lay out (need ≥ 8 vertices)");
    }
    cfg.subspace = cfg.subspace.min(g.num_vertices() / 2).max(2);
    let algo = cli.algo.clone();
    let backend = cfg.backend;

    // Install the backend eagerly so a forced-but-unsupported `simd` fails
    // with its typed error (exit 12) on every algo path, including the
    // panicking multilevel pipeline.
    match parhde_linalg::backend::install(backend) {
        Ok(executed) => {
            if backend != LinalgBackend::Auto || executed != "scalar" {
                eprintln!("backend: {executed} (requested {})", backend.label());
            }
        }
        Err(e) => em.fail_typed("backend selection failed", &HdeError::from(e)),
    }

    // Lay out (fail-soft: typed errors exit with distinct codes, absorbed
    // degradations are reported as warnings and land in the JSON report).
    //
    // algo=parhde runs through the supervisor (which installs its own
    // budget and owns the degradation ladder); every other path
    // gets a manually installed budget so deadlines, memory trips and
    // SIGINT/SIGTERM still unwind cooperatively.
    let mut manual = supervisor::RunBudget::unbounded();
    if let Some(d) = cli.deadline {
        manual = manual.with_deadline(d);
    }
    if let Some(b) = cli.mem_budget {
        manual = manual.with_mem_budget(b);
    }
    let manual = manual.honoring_global_cancel();
    let _guard = if algo != "parhde" || cli.resume_path.is_some() {
        Some(supervisor::install(&manual))
    } else {
        None
    };
    let t = Timer::start();
    let layout: Layout = match algo.as_str() {
        "parhde" if cli.resume_path.is_some() => {
            // Resume shares the cooperative checks (via the manual budget
            // above) but not the ladder: the checkpoint pins the subspace.
            let ckpt_path = cli.resume_path.as_deref().unwrap();
            let ckpt = match Checkpoint::read(ckpt_path) {
                Ok(c) => c,
                Err(e) => em.fail_typed(
                    &format!("cannot resume from {}", ckpt_path.display()),
                    &e,
                ),
            };
            match try_par_hde_resume(g, &cfg, 2, &ckpt) {
                Ok((coords, stats)) => {
                    report_stats(&mut em, &stats);
                    Layout::from_coords(&coords)
                }
                Err(e) => em.fail_typed("resume failed", &e),
            }
        }
        "parhde" => {
            let opts = SuperviseOptions {
                deadline: cli.deadline,
                mem_budget_bytes: cli.mem_budget,
                checkpoint: cli.checkpoint_dir.clone().map(CheckpointSpec::in_dir),
                honor_global_cancel: true,
                cancel_flag: None,
            };
            match try_par_hde_nd_supervised(g, &cfg, 2, &opts) {
                Ok(sup) => {
                    if sup.rung != "full" {
                        eprintln!(
                            "parhde-layout: supervisor: degraded to rung {:?}",
                            sup.rung
                        );
                    }
                    em.report.config.push(("supervisor_rung".into(), sup.rung.into()));
                    report_stats(&mut em, &sup.stats);
                    Layout::from_coords(&sup.coords)
                }
                Err(e) => em.fail_typed("layout failed", &e),
            }
        }
        // The remaining pipelines coarsen or re-slice the graph as plain
        // CSR; a packed snapshot must be laid out with --algo parhde.
        "phde" | "pivotmds" | "multilevel" => {
            let Some(csr) = g.as_csr() else {
                em.fail(2, &format!(
                    "--algo {algo} needs a plain .mtx/edge-list input \
                     (packed .phdegrf snapshots support --algo parhde)"
                ));
            };
            match algo.as_str() {
                "phde" => match try_phde(csr, &PhdeConfig::from(&cfg)) {
                    Ok((layout, stats)) => {
                        report_stats(&mut em, &stats);
                        layout
                    }
                    Err(e) => em.fail_typed("layout failed", &e),
                },
                "pivotmds" => match try_pivot_mds(csr, &PhdeConfig::from(&cfg)) {
                    Ok((layout, stats)) => {
                        report_stats(&mut em, &stats);
                        layout
                    }
                    Err(e) => em.fail_typed("layout failed", &e),
                },
                _ => {
                    let _s = parhde_trace::span!("multilevel");
                    multilevel_hde(csr, &MultilevelConfig { base: cfg, ..Default::default() })
                        .0
                }
            }
        }
        other => {
            let msg = format!("unknown algorithm {other}");
            em.fail(2, &msg)
        }
    };
    eprintln!("{algo} layout in {:.1} ms", t.seconds() * 1e3);

    // Render. Edge enumeration goes through the store (a packed snapshot
    // decodes block by block); the renderer collects edges anyway.
    if !cli.no_png {
        let render_span = parhde_trace::span!("render");
        let opts = RenderOptions {
            width: cli.size,
            height: cli.size,
            vertex_radius: cli.vertex_radius,
            ..RenderOptions::default()
        };
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(g.num_edges());
        g.for_each_edge(|u, v| edges.push((u, v)));
        let canvas = match try_render_graph(edges.into_iter(), &layout.x, &layout.y, &opts) {
            Ok(c) => c,
            Err(e) => {
                em.fail_typed("render failed", &HdeError::Internal(e.to_string()))
            }
        };
        let out = cli.out.clone().unwrap_or_else(|| {
            if cli.input.starts_with("gen:") {
                PathBuf::from(format!("{}.png", cli.input.replace(':', "_")))
            } else {
                PathBuf::from(&cli.input).with_extension("png")
            }
        });
        if let Err(e) = canvas.save_png(&out) {
            let msg = format!("cannot write {}: {e}", out.display());
            em.fail(2, &msg)
        }
        drop(render_span);
        println!("wrote {}", out.display());
    }

    // Optional CSV. Plain inputs map component-local vertices back to the
    // ORIGINAL input ids via the LCC mapping; packed snapshot ids are
    // already final.
    if let Some(csv_path) = &cli.csv {
        use std::io::Write;
        let mut text = b"id,x,y\n".to_vec();
        for v in 0..g.num_vertices() {
            let id = old_ids.map_or(v as u32, |ids| ids[v]);
            write!(text, "{id},").expect("writing to a Vec cannot fail");
            shortest::push(&mut text, layout.x[v]);
            text.push(b',');
            shortest::push(&mut text, layout.y[v]);
            text.push(b'\n');
        }
        if let Err(e) = std::fs::write(csv_path, text) {
            let msg = format!("cannot write {}: {e}", csv_path.display());
            em.fail(2, &msg)
        }
        println!("wrote {}", csv_path.display());
    }

    em.finish(0, None);
}

//! Integration tests for the run supervisor (DESIGN.md §11): deadline
//! degradation down the retry ladder, memory admission, cooperative
//! cancellation, checkpoint/resume, and nested per-thread installs.
//!
//! Budgets are installed per thread, so the tests run concurrently; the
//! one test that requests process-wide cancellation is the only one whose
//! budget honors it.

use parhde::config::ParHdeConfig;
use parhde::supervise::estimate_run_bytes_stored;
use parhde::{
    try_par_hde_nd, try_par_hde_nd_checkpointed, try_par_hde_nd_supervised,
    try_par_hde_resume, Checkpoint, CheckpointSpec, HdeError, SuperviseOptions,
    Warning,
};
use parhde_graph::gen;
use parhde_util::supervisor;
use parhde_util::RunBudget;
use std::path::PathBuf;
use std::time::Duration;

/// A fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("parhde-supervise-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Leftover `*.tmp` files in `dir` (atomic-write violations).
fn tmp_files(dir: &PathBuf) -> Vec<PathBuf> {
    match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
            .collect(),
        Err(_) => Vec::new(),
    }
}

#[test]
fn unbudgeted_supervised_run_matches_plain_pipeline() {
    let g = gen::grid2d(30, 30);
    let cfg = ParHdeConfig::default();
    let (plain, _) = try_par_hde_nd(&g, &cfg, 2).unwrap();
    let sup = try_par_hde_nd_supervised(&g, &cfg, 2, &SuperviseOptions::default())
        .unwrap();
    assert_eq!(sup.rung, "full");
    assert!(sup.stats.warnings.is_empty(), "no budget, no degradation: {:?}", sup.stats.warnings);
    assert_eq!(sup.coords, plain, "supervision must not perturb the result");
}

#[test]
fn zero_deadline_walks_the_ladder_to_trivial() {
    let g = gen::grid2d(40, 40);
    let cfg = ParHdeConfig::default();
    let opts = SuperviseOptions {
        deadline: Some(Duration::ZERO),
        ..SuperviseOptions::default()
    };
    let sup = try_par_hde_nd_supervised(&g, &cfg, 2, &opts).unwrap();
    assert_eq!(sup.rung, "trivial");
    // Each abandoned rung is recorded once, as a warning, then the
    // trivial layout's own.
    let rungs: Vec<&str> = sup
        .stats
        .warnings
        .iter()
        .filter_map(|w| match w {
            Warning::LadderStep { rung, .. } => Some(*rung),
            _ => None,
        })
        .collect();
    assert_eq!(
        rungs,
        vec!["full", "halved_pivots", "random_pivots", "phde"],
        "every rung must be attempted and abandoned"
    );
    assert_eq!(sup.stats.warnings.len(), 5, "{:?}", sup.stats.warnings);
    assert!(matches!(sup.stats.warnings[4], Warning::BudgetSpent { .. }));
    // The layout is still usable: right shape, finite entries.
    assert_eq!(sup.coords.rows(), g.num_vertices());
    assert_eq!(sup.coords.cols(), 2);
    assert!(sup.coords.col(0).iter().all(|v| v.is_finite()));
}

#[test]
fn a_laddered_run_keeps_its_abandoned_rungs_in_order() {
    let g = gen::grid2d(40, 40);
    let opts = SuperviseOptions { deadline: Some(Duration::ZERO), ..SuperviseOptions::default() };
    let session = parhde_trace::TraceSession::begin();
    let sup = try_par_hde_nd_supervised(&g, &ParHdeConfig::default(), 2, &opts).unwrap();
    let trace = session.finish();
    assert_eq!(sup.rung, "trivial");

    // The ParHDE rungs trip at their first budget check; the PHDE rung
    // traverses once before its check abandons it. The record keeps that
    // abandoned rung's phases.
    assert_eq!(trace.totals.phases, sup.stats.phases);
    let names: Vec<&str> = sup.stats.phases.iter().map(|(n, _)| n).collect();
    assert_eq!(names, ["bfs_other", "bfs"]);

    // The timeline agrees with the stats on the warnings and their order,
    // and the PHDE rung's traversal precedes the warning that abandoned it.
    let events = || trace.threads.iter().flat_map(|t| &t.events);
    let warned: Vec<(u64, String)> = events()
        .filter_map(|e| match e {
            parhde_trace::TraceEvent::Warning(w) => Some((w.t_ns, w.message.clone())),
            _ => None,
        })
        .collect();
    let messages: Vec<String> = sup.stats.warnings.iter().map(|w| w.to_string()).collect();
    assert_eq!(warned.iter().map(|(_, m)| m.clone()).collect::<Vec<_>>(), messages);
    let bfs = events()
        .find_map(|e| match e {
            parhde_trace::TraceEvent::Span(s) if s.name == "bfs" => Some(s.end_ns),
            _ => None,
        })
        .expect("the PHDE rung's traversal is on the timeline");
    let (abandoned, _) = warned.iter().find(|(_, m)| m.contains("rung phde ")).unwrap();
    assert!(bfs <= *abandoned);
}

#[test]
fn short_deadline_still_returns_promptly() {
    let g = gen::kron(12, 8, 7);
    let cfg = ParHdeConfig::default();
    let opts = SuperviseOptions {
        deadline: Some(Duration::from_millis(40)),
        ..SuperviseOptions::default()
    };
    let started = std::time::Instant::now();
    let sup = try_par_hde_nd_supervised(&g, &cfg, 2, &opts).unwrap();
    // Generous bound: the contract is a *small* overshoot (the distance a
    // kernel travels between two cooperative checks), not a hard realtime
    // guarantee, and CI machines are slow.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "supervised run did not come back promptly"
    );
    assert_eq!(sup.coords.rows(), g.num_vertices());
}

#[test]
fn cancellation_is_sticky_and_never_walks_the_ladder() {
    let g = gen::grid2d(30, 30);
    let cfg = ParHdeConfig::default();
    supervisor::reset_global_cancel();
    supervisor::request_global_cancel();
    let opts = SuperviseOptions {
        honor_global_cancel: true,
        ..SuperviseOptions::default()
    };
    let err = try_par_hde_nd_supervised(&g, &cfg, 2, &opts).unwrap_err();
    supervisor::reset_global_cancel();
    assert!(
        matches!(err, HdeError::Cancelled { .. }),
        "cancellation must surface as Cancelled, got {err:?}"
    );
    assert_eq!(err.exit_code(), 130);
}

#[test]
fn memory_admission_downscales_and_warns() {
    let g = gen::grid2d(250, 250);
    let cfg = ParHdeConfig::default();
    let estimate = |s| estimate_run_bytes_stored(&g, s, 2, cfg.bfs_mode, cfg.linalg_mode);
    let (est_full, est_half) = (estimate(cfg.subspace), estimate(cfg.subspace / 2));
    assert!(est_half < est_full);
    // A budget between the halved and the full estimate forces exactly one
    // admission halving up front. (Runtime RSS polls may still trip on a
    // loaded machine — the assertion below is about the admission record,
    // which survives whatever rung ends up succeeding.)
    let opts = SuperviseOptions {
        mem_budget_bytes: Some((est_full + est_half) / 2),
        ..SuperviseOptions::default()
    };
    let sup = try_par_hde_nd_supervised(&g, &cfg, 2, &opts).unwrap();
    let downscaled = sup.stats.warnings.iter().find_map(|w| match w {
        Warning::AdmissionDownscaled { requested, admitted, .. } => {
            Some((*requested, *admitted))
        }
        _ => None,
    });
    let (requested, admitted) =
        downscaled.expect("admission must record the downscale");
    assert_eq!(requested, cfg.subspace);
    assert!(admitted < requested, "subspace must shrink ({admitted})");
}

#[test]
fn supervised_runs_export_the_admission_estimate() {
    let g = gen::grid2d(250, 250);
    let cfg = ParHdeConfig::default();
    let estimate = |s| estimate_run_bytes_stored(&g, s, 2, cfg.bfs_mode, cfg.linalg_mode);
    let gauge = |opts: &SuperviseOptions| {
        let session = parhde_trace::TraceSession::begin();
        let sup = try_par_hde_nd_supervised(&g, &cfg, 2, opts).unwrap();
        let value = session.finish().totals.gauge("supervisor.estimate_bytes");
        (sup, value)
    };
    // Unbudgeted: the estimate of the configuration as requested.
    let (_, value) = gauge(&SuperviseOptions::default());
    assert_eq!(value, Some(estimate(cfg.subspace) as f64));
    // Downscaled by admission: the estimate of the admitted configuration.
    let opts = SuperviseOptions {
        mem_budget_bytes: Some((estimate(cfg.subspace) + estimate(cfg.subspace / 2)) / 2),
        ..SuperviseOptions::default()
    };
    let (sup, value) = gauge(&opts);
    let admitted = sup.stats.warnings.iter().find_map(|w| match w {
        Warning::AdmissionDownscaled { admitted, .. } => Some(*admitted),
        _ => None,
    });
    let admitted = admitted.expect("admission must record the downscale");
    assert_eq!(value, Some(estimate(admitted) as f64));
}

#[test]
fn memory_rejection_degrades_to_trivial_layout() {
    let g = gen::grid2d(40, 40);
    let cfg = ParHdeConfig::default();
    // One byte fits nothing: admission rejects the run outright.
    let opts = SuperviseOptions {
        mem_budget_bytes: Some(1),
        ..SuperviseOptions::default()
    };
    let sup = try_par_hde_nd_supervised(&g, &cfg, 2, &opts).unwrap();
    assert_eq!(sup.rung, "trivial");
    assert!(sup
        .stats
        .warnings
        .iter()
        .any(|w| matches!(w, Warning::BudgetSpent { .. })));
}

#[test]
fn the_trivial_rung_names_the_budget_that_ran_out() {
    // A graph far above the spectral minimum: only the budget can have
    // sent it to the trivial rung, and its warning must say which.
    let g = gen::grid2d(40, 40);
    let cases = [
        (
            SuperviseOptions { deadline: Some(Duration::ZERO), ..SuperviseOptions::default() },
            "the 0 ms deadline",
        ),
        (
            SuperviseOptions { mem_budget_bytes: Some(1), ..SuperviseOptions::default() },
            "the 1-byte memory budget",
        ),
    ];
    for (opts, budget) in cases {
        let sup = try_par_hde_nd_supervised(&g, &ParHdeConfig::default(), 2, &opts).unwrap();
        assert_eq!(sup.rung, "trivial");
        let last = sup.stats.warnings.last().expect("the trivial rung's warning").to_string();
        assert!(last.contains(budget), "{last}");
        assert!(!last.contains("spectral minimum"), "{last}");
    }
}

#[test]
fn checkpoint_roundtrip_and_resume_are_bit_identical() {
    let dir = scratch("roundtrip");
    let g = gen::grid2d(25, 25);
    let cfg = ParHdeConfig::default();
    let spec = CheckpointSpec::in_dir(dir.clone());

    let (direct, _) = try_par_hde_nd(&g, &cfg, 2).unwrap();
    let (checkpointed, _) = try_par_hde_nd_checkpointed(&g, &cfg, 2, &spec).unwrap();
    assert_eq!(checkpointed, direct, "checkpoint write must not perturb");
    assert!(tmp_files(&dir).is_empty(), "atomic write left a .tmp file");

    let ckpt = Checkpoint::read(&spec.file_path()).unwrap();
    let (resumed, stats) = try_par_hde_resume(&g, &cfg, 2, &ckpt).unwrap();
    assert_eq!(resumed, direct, "resume must be bit-identical");
    assert_eq!(stats.bfs_mode, Some("resumed"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_rejects_a_different_graph_and_config() {
    let dir = scratch("mismatch");
    let g = gen::grid2d(25, 25);
    let cfg = ParHdeConfig::default();
    let spec = CheckpointSpec::in_dir(dir.clone());
    try_par_hde_nd_checkpointed(&g, &cfg, 2, &spec).unwrap();
    let ckpt = Checkpoint::read(&spec.file_path()).unwrap();

    let other = gen::grid2d(26, 25);
    let err = try_par_hde_resume(&other, &cfg, 2, &ckpt).unwrap_err();
    assert!(matches!(err, HdeError::CheckpointMismatch(_)), "{err:?}");
    assert_eq!(err.exit_code(), 11);

    let reseeded = ParHdeConfig { seed: cfg.seed + 1, ..cfg.clone() };
    let err = try_par_hde_resume(&g, &reseeded, 2, &ckpt).unwrap_err();
    assert!(matches!(err, HdeError::CheckpointMismatch(_)), "{err:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_mid_run_leaves_no_partial_checkpoint_files() {
    let g = gen::grid2d(40, 40);
    let cfg = ParHdeConfig::default();
    // Cancel at several points across the run; whatever the timing, the
    // checkpoint directory must contain either nothing or a complete,
    // readable checkpoint — never a stray temporary.
    for trip_at in [1u64, 3, 10, 100, 1000] {
        let dir = scratch(&format!("cancel-{trip_at}"));
        let spec = CheckpointSpec::in_dir(dir.clone());
        let budget = RunBudget::unbounded();
        budget.cancel_after_checks(trip_at);
        let installed = supervisor::install(&budget);
        let outcome = try_par_hde_nd_checkpointed(&g, &cfg, 2, &spec);
        drop(installed);
        assert!(
            tmp_files(&dir).is_empty(),
            "trip_at {trip_at}: partial .tmp file left behind"
        );
        if spec.file_path().exists() {
            let ckpt = Checkpoint::read(&spec.file_path())
                .expect("existing checkpoint must be complete and readable");
            // And it must actually be usable for a resume.
            let (resumed, _) = try_par_hde_resume(&g, &cfg, 2, &ckpt).unwrap();
            assert_eq!(resumed.rows(), g.num_vertices());
        }
        if let Err(e) = outcome {
            assert!(
                matches!(e, HdeError::Cancelled { .. }),
                "trip_at {trip_at}: unexpected error {e:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_trip_at_any_check_ends_in_a_typed_error_or_a_layout() {
    // Every cooperative check of a small run, in turn, trips the budget —
    // including the first column of DOrtho, where the kernel stops before
    // it has kept any column.
    let g = gen::grid2d(8, 8);
    let cfg = ParHdeConfig::with_subspace(6);
    let full = RunBudget::unbounded();
    let installed = supervisor::install(&full);
    try_par_hde_nd(&g, &cfg, 2).expect("uncancelled run");
    drop(installed);
    for trip_at in 1..=full.checks() {
        let budget = RunBudget::unbounded();
        budget.cancel_after_checks(trip_at);
        let installed = supervisor::install(&budget);
        let outcome = try_par_hde_nd(&g, &cfg, 2);
        drop(installed);
        if let Err(e) = outcome {
            assert!(matches!(e, HdeError::Cancelled { .. }), "trip_at {trip_at}: {e:?}");
        }
    }
}

#[test]
fn deadline_error_carries_the_tripped_phase() {
    let g = gen::grid2d(40, 40);
    let cfg = ParHdeConfig::default();
    let budget = RunBudget::unbounded().with_deadline(Duration::ZERO);
    let installed = supervisor::install(&budget);
    let err = try_par_hde_nd(&g, &cfg, 2).unwrap_err();
    drop(installed);
    match err {
        HdeError::DeadlineExceeded { phase } => {
            assert!(!phase.is_empty());
            assert_eq!(err.exit_code(), 9);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn installs_nest_and_a_supervised_run_completes_under_an_outer_install() {
    // Runs on a helper thread so that an install that blocks (as one on a
    // process-exclusive slot would) fails the test on the timeout instead
    // of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let outer = RunBudget::unbounded().with_mem_budget(111);
        let _outer = supervisor::install(&outer);
        {
            let inner = RunBudget::unbounded().with_mem_budget(222);
            let _inner = supervisor::install(&inner);
            assert_eq!(supervisor::ambient_mem_budget(), Some(222));
        }
        assert_eq!(supervisor::ambient_mem_budget(), Some(111), "outer not restored");
        let g = gen::grid2d(20, 20);
        let cfg = ParHdeConfig::default();
        let sup = try_par_hde_nd_supervised(&g, &cfg, 2, &SuperviseOptions::default());
        assert_eq!(supervisor::ambient_mem_budget(), Some(111), "outer not restored");
        let _ = tx.send(sup.map(|s| (s.rung, s.coords.rows())));
    });
    let outcome = rx.recv_timeout(Duration::from_secs(60));
    // A helper that returned is joined, so its panics surface here.
    if !matches!(outcome, Err(std::sync::mpsc::RecvTimeoutError::Timeout)) {
        helper.join().expect("helper thread panicked");
    }
    let outcome = outcome.unwrap_or_else(|e| panic!("nested install did not return: {e}"));
    assert_eq!(outcome.unwrap(), ("full", 400));
}

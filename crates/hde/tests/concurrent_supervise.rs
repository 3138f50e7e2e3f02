//! Concurrent supervised runs: a run's budget belongs to the thread that
//! installed it, so runs on different threads neither wait for each other
//! nor observe each other's budgets — the daemon's worker pool runs its
//! layouts side by side on exactly this.

use parhde::config::ParHdeConfig;
use parhde::supervise::estimate_run_bytes_stored;
use parhde::{try_par_hde_nd, try_par_hde_nd_supervised, HdeError, SuperviseOptions, Warning};
use parhde_graph::gen::grid2d;
use parhde_util::cancel_flag;
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::Duration;

#[test]
fn a_cancelled_run_never_leaks_into_an_unbudgeted_one() {
    let g = grid2d(24, 24);
    let cfg = ParHdeConfig::with_subspace(8);
    let (solo, _) = try_par_hde_nd(&g, &cfg, 2).unwrap();
    for round in 0..20 {
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                // Run A is cancelled before it starts.
                let flag = cancel_flag();
                flag.store(true, Ordering::SeqCst);
                let opts = SuperviseOptions {
                    cancel_flag: Some(flag),
                    ..SuperviseOptions::default()
                };
                barrier.wait();
                try_par_hde_nd_supervised(&g, &cfg, 2, &opts)
            });
            // Run B has no budget at all.
            let b = scope.spawn(|| {
                barrier.wait();
                try_par_hde_nd(&g, &cfg, 2)
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(
            matches!(a, Err(HdeError::Cancelled { .. })),
            "round {round}: run A returned {:?}",
            a.map(|s| s.rung)
        );
        let (coords, _) = b.unwrap_or_else(|e| panic!("round {round}: run B failed: {e}"));
        assert_eq!(coords, solo, "round {round}: run B differs from its solo run");
    }
}

#[test]
fn contending_runs_under_one_shared_memory_budget_degrade_not_die() {
    // A budget that admits the run only after halving the subspace at
    // least once: both concurrent requests should finish, at least via
    // the admission-downscale warning, never by killing the process.
    let g = grid2d(40, 40);
    let n = g.num_vertices();
    let cfg = ParHdeConfig::with_subspace(32);
    let estimate = |s| estimate_run_bytes_stored(&g, s, 2, cfg.bfs_mode, cfg.linalg_mode);
    let (full, halved) = (estimate(32), estimate(16));
    assert!(halved < full);
    let budget_bytes = (full + halved) / 2; // fits 16 pivots, not 32

    let barrier = Barrier::new(2);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (g, cfg, barrier) = (&g, &cfg, &barrier);
                scope.spawn(move || {
                    let opts = SuperviseOptions {
                        deadline: Some(Duration::from_secs(60)),
                        mem_budget_bytes: Some(budget_bytes),
                        ..SuperviseOptions::default()
                    };
                    barrier.wait();
                    try_par_hde_nd_supervised(g, cfg, 2, &opts)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, r) in results.into_iter().enumerate() {
        let sup = r.unwrap_or_else(|e| panic!("run {i} failed: {e}"));
        assert_eq!(sup.coords.rows(), n);
        let downscaled = sup.stats.warnings.iter().any(|w| {
            matches!(w, Warning::AdmissionDownscaled { admitted, .. } if *admitted < 32)
        });
        assert!(
            downscaled || sup.rung != "full" || sup.stats.s_requested <= 16,
            "run {i}: admitted the full subspace under an undersized budget \
             (rung {}, warnings {:?})",
            sup.rung,
            sup.stats.warnings
        );
    }
}

#[test]
fn budget_check_counters_are_thread_count_invariant() {
    // The *result* of a supervised run must not depend on how many other
    // threads were contending: rerun the same request serially and
    // concurrently and compare coordinates bit-for-bit.
    let g = grid2d(15, 15);
    let cfg = ParHdeConfig::with_subspace(8);
    let opts = SuperviseOptions::default();
    let reference = try_par_hde_nd_supervised(&g, &cfg, 2, &opts).unwrap();

    let barrier = Barrier::new(3);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let (g, cfg, barrier) = (&g, &cfg, &barrier);
                scope.spawn(move || {
                    let opts = SuperviseOptions::default();
                    barrier.wait();
                    try_par_hde_nd_supervised(g, cfg, 2, &opts)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, r) in results.into_iter().enumerate() {
        let sup = r.unwrap_or_else(|e| panic!("run {i} failed: {e}"));
        assert_eq!(
            sup.coords, reference.coords,
            "run {i}: contention perturbed the layout"
        );
        assert_eq!(sup.rung, reference.rung);
    }
}

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the full suite takes several minutes because some criteria solve
hundreds of saddle-point problems at their stated sizes.
"""

import time
from dataclasses import replace

import numpy as np

from adakern.data import (
    apply_minmax,
    fit_minmax,
    gen_2d,
    gen_step,
    gen_two_class_toy,
)
from adakern.kernel import gaussian_from_sq_dists, gaussian_gram, pairwise_sq_dists
from adakern.persist import load_model, save_model
from adakern.scale import (
    bound_report,
    exact_reference,
    kmeans_partition,
    solve_blocks,
)
from adakern.solver import (
    SolverConfig,
    dual_gradient,
    dual_objective,
    lipschitz_svm,
    project_exact,
    solve,
)
from adakern.svm import accuracy, grid_search, train
from adakern.svr import (
    lipschitz_svr,
    rmse,
    svr_gradients,
    svr_objective,
    train_svr,
)

from conftest import (
    adaptive_matrix,
    convergence_bound,
    decision_values_insample,
    paired_blobs,
    random_feasible,
    reference_pgd_qp,
    two_blobs,
)

CV_SIGMA_GRID = [2.0 ** p for p in range(-5, 6)]


def report(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_c01_svm_reduction_matches_reference_qp():
    started = time.time()
    X, y = two_blobs(40, separation=2.2, seed=101, spread=0.5)
    cfg = SolverConfig(C=1.0, tau=0.0, eta=1e9, t_max=3000, tol=1e-8)
    model = train(X, y, 0.7, cfg, freeze_f=True)

    K = gaussian_gram(model.X, model.sigma)
    reference = reference_pgd_qp(K, y, 1.0, iterations=100_000)
    M = K * np.outer(y, y)

    def dual_value(a):
        return a.sum() - 0.5 * a @ M @ a

    objective_gap = abs(dual_value(model.alpha) - dual_value(reference))

    ref_margins = K @ (reference * y)
    sv = (reference > 1e-6) & (reference < 1.0 - 1e-6)
    ref_bias = float(np.median(y[sv] - ref_margins[sv]))
    train_signs_match = np.array_equal(
        np.sign(decision_values_insample(model)), np.sign(ref_margins + ref_bias))

    rng = np.random.default_rng(0)
    probe = rng.uniform(X.min(axis=0), X.max(axis=0), (60, 2))
    Kp = gaussian_from_sq_dists(pairwise_sq_dists(model.X, apply_minmax(model.scaler, probe)),
                                model.sigma)
    probe_signs_match = np.array_equal(
        np.sign(model.decision_function(probe)),
        np.sign((reference * y) @ Kp + ref_bias))

    elapsed = time.time() - started
    ok = (objective_gap <= 1e-4 and train_signs_match and probe_signs_match
          and elapsed < 5.0)
    assert report(1, ok,
                  f"objective gap {objective_gap:.2e} <= 1e-4, signs match "
                  f"(train/probe), runtime {elapsed:.1f}s < 5s")


def test_c02_gradients_match_finite_differences():
    started = time.time()
    rng = np.random.default_rng(202)
    n, step = 8, 1e-5
    X = rng.normal(size=(n, 2))
    K = gaussian_gram(X, 0.8)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    cfg = SolverConfig(C=1.0, tau=0.05, eta=1.5)

    worst_svm = 0.0
    for _ in range(20):
        a = random_feasible(rng, y, 1.0)
        g = dual_gradient(a, y, K, cfg)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd = (dual_objective(a + e, y, K, cfg)
                  - dual_objective(a - e, y, K, cfg)) / (2 * step)
            worst_svm = max(worst_svm, abs(g[i] - fd))

    targets = rng.normal(size=n)
    eps = 0.1
    worst_svr = 0.0
    for _ in range(20):
        ah = rng.uniform(0, 1, n)
        ac = rng.uniform(0, 1, n)
        gh, gc = svr_gradients(ah, ac, K, targets, eps, cfg)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd_h = (svr_objective(ah + e, ac, targets, K, eps, cfg)
                    - svr_objective(ah - e, ac, targets, K, eps, cfg)) / (2 * step)
            fd_c = (svr_objective(ah, ac + e, targets, K, eps, cfg)
                    - svr_objective(ah, ac - e, targets, K, eps, cfg)) / (2 * step)
            worst_svr = max(worst_svr, abs(gh[i] - fd_h), abs(gc[i] - fd_c))

    elapsed = time.time() - started
    ok = worst_svm <= 1e-5 and worst_svr <= 1e-5 and elapsed < 30.0
    assert report(2, ok,
                  f"max FD deviation svm {worst_svm:.2e}, svr {worst_svr:.2e} "
                  f"<= 1e-5, runtime {elapsed:.1f}s < 30s")


def test_c03_lipschitz_inequalities_sampled():
    started = time.time()
    rng = np.random.default_rng(303)
    n, C, eta = 12, 1.0, 1.5
    X = rng.normal(size=(n, 2))
    K = gaussian_gram(X, 0.8)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    cfg = SolverConfig(C=C, tau=0.05, eta=eta)

    L_svm = lipschitz_svm(n, C, K, eta)
    svm_violations = 0
    for _ in range(100):
        a1 = random_feasible(rng, y, C)
        a2 = random_feasible(rng, y, C)
        lhs = np.linalg.norm(dual_gradient(a1, y, K, cfg)
                             - dual_gradient(a2, y, K, cfg))
        if lhs > L_svm * np.linalg.norm(a1 - a2) + 1e-10:
            svm_violations += 1

    targets = rng.normal(size=n)
    eps = 0.1
    L_svr = lipschitz_svr(n, C, K, eta)
    svr_violations = 0
    for _ in range(100):
        pts = [(rng.uniform(0, C, n), rng.uniform(0, C, n)) for _ in range(2)]
        g1 = np.concatenate(svr_gradients(*pts[0], K, targets, eps, cfg))
        g2 = np.concatenate(svr_gradients(*pts[1], K, targets, eps, cfg))
        rhs = 2 * L_svr * (np.linalg.norm(pts[1][0] - pts[0][0])
                           + np.linalg.norm(pts[1][1] - pts[0][1]))
        if np.linalg.norm(g1 - g2) > rhs + 1e-10:
            svr_violations += 1

    elapsed = time.time() - started
    ok = svm_violations == 0 and svr_violations == 0 and elapsed < 30.0
    assert report(3, ok,
                  f"violations svm {svm_violations}/100, svr {svr_violations}/100, "
                  f"runtime {elapsed:.1f}s < 30s")


def test_c04_spectral_bound_sampled():
    rng = np.random.default_rng(404)
    n, C, tau, eta = 50, 1.5, 0.05, 3.0
    X = rng.normal(size=(n, 3))
    K = gaussian_gram(X, 1.0)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    lam_max_K = float(np.linalg.eigvalsh(K)[-1])
    limit = n - tau / 2 + n * C * C * lam_max_K / (4 * eta) + 1e-6

    violations = 0
    for _ in range(100):
        a = random_feasible(rng, y, C)
        F = adaptive_matrix(a * y, K, tau, eta)
        if float(np.linalg.eigvalsh(F)[-1]) > limit:
            violations += 1
    assert report(4, violations == 0, f"violations {violations}/100 at n={n}")


def test_c05_convergence_rate_bound(recorded):
    # The bound holds at beta^(t), the solve's last dual-averaging step,
    # which is the last projection it takes.
    projections = recorded[1]
    ds = gen_two_class_toy(60, seed=205)
    Xs = apply_minmax(fit_minmax(ds.X), ds.X)
    K = gaussian_gram(Xs, 0.4)
    n, C, tau, eta = 60, 1.0, 0.01, 8.0
    base = dict(C=C, tau=tau, eta=eta)

    reference_cfg = SolverConfig(t_max=20000, tol=1e-300, **base)
    reference, _, reference_trace = solve(K, ds.y, reference_cfg)
    h_star = max(reference_trace.objective_history)
    L = lipschitz_svm(n, C, K, eta)

    failures = []
    for t in (10, 100, 1000):
        cfg = SolverConfig(t_max=t, tol=1e-300, **base)
        solve(K, ds.y, cfg)
        gap = h_star - dual_objective(projections[-1], ds.y, K, cfg)
        bound = convergence_bound(L, np.zeros(n), reference.alpha, t)
        if gap > bound:
            failures.append((t, gap, bound))
    assert report(5, not failures,
                  f"gap <= 8L||a0-a*||^2/((t+1)(t+2)) at t in (10, 100, 1000); "
                  f"failures: {failures}")


def test_c06_nesterov_beats_pgd_and_monotone_is_monotone():
    ds = gen_two_class_toy(135, seed=306, noise=0.35)
    objectives = {}
    for variant in ("nesterov", "pgd"):
        cfg = SolverConfig(C=1.0, tau=0.01, eta=None, t_max=500, tol=1e-300,
                           variant=variant)
        model = train(ds.X, ds.y, 0.1, cfg)
        objectives[variant] = model.meta["objective"]

    mono_cfg = SolverConfig(C=1.0, tau=0.01, eta=None, t_max=500, tol=1e-300,
                            variant="monotone-nesterov")
    Xs = apply_minmax(fit_minmax(ds.X), ds.X)
    K = gaussian_gram(Xs, 0.1)
    from adakern.solver import resolve_eta
    mono_cfg = resolve_eta(K, ds.y, mono_cfg)
    _, _, mono_trace = solve(K, ds.y, mono_cfg)
    history = np.asarray(mono_trace.objective_history)
    monotone_ok = bool(np.all(np.diff(history) >= 0.0))

    ok = objectives["nesterov"] >= objectives["pgd"] and monotone_ok
    assert report(6, ok,
                  f"h_nesterov {objectives['nesterov']:.4f} >= "
                  f"h_pgd {objectives['pgd']:.4f} after 500 iterations; "
                  f"monotone history non-decreasing: {monotone_ok}")


def test_c07_decomposition_bounds():
    started = time.time()
    X, y = paired_blobs(200, seed=77)
    Xs = apply_minmax(fit_minmax(X), X)
    sigma = 0.04
    K = gaussian_gram(Xs, sigma)
    cfg = SolverConfig(C=1.0, tau=0.0, eta=100.0, t_max=4000, tol=1e-7)
    exact = exact_reference(K, y, cfg)

    failures = []
    for v in (2, 5, 10):
        partition = kmeans_partition(Xs, v, seed=11)
        blocks = solve_blocks(Xs, y, partition, sigma, cfg)
        r = bound_report(blocks, K, partition, cfg, y, exact=exact)
        checks = {
            "objective": r.measured_objective_gap <= r.objective_gap_bound,
            "alpha": r.measured_alpha_gap_sq <= r.alpha_gap_bound,
            "F": r.measured_F_gap <= r.F_gap_bound,
            "F-chain": r.F_gap_bound <= r.exact_F_bound,
        }
        failures.extend(f"v={v}:{name}" for name, good in checks.items() if not good)
    elapsed = time.time() - started
    ok = not failures and elapsed < 120.0
    assert report(7, ok,
                  f"all bounds hold at v in (2, 5, 10), zero violations, "
                  f"runtime {elapsed:.0f}s < 120s; failures: {failures}")


def test_c08_screening_has_no_false_positives():
    X, y = two_blobs(300, separation=2.0, seed=88, spread=0.6)
    Xs = apply_minmax(fit_minmax(X), X)
    sigma = 0.25
    K = gaussian_gram(Xs, sigma)
    cfg = SolverConfig(C=1.0, tau=0.0, eta=50.0, t_max=3000, tol=1e-6)
    exact = exact_reference(K, y, cfg)
    alpha_star = exact[0]

    partition = kmeans_partition(Xs, 10, seed=13)
    blocks = solve_blocks(Xs, y, partition, sigma, cfg)
    r = bound_report(blocks, K, partition, cfg, y, exact=exact)

    false_positives = sum(alpha_star[i] > 1e-8 for i in r.screened_indices)
    non_sv = int(np.sum(alpha_star <= 1e-8))
    positive_hits = sum(alpha_star[i] <= 1e-8 for i in r.screened_positive_indices)
    strict_frac = len(r.screened_indices) / max(non_sv, 1)
    positive_frac = positive_hits / max(non_sv, 1)
    ok = false_positives == 0
    assert report(8, ok,
                  f"strict screen: {len(r.screened_indices)} indices, "
                  f"{false_positives} false positives; fraction of true non-SVs "
                  f"screened: strict {strict_frac:.1%}, "
                  f"positive-threshold {positive_frac:.1%} ({non_sv} non-SVs)")


def test_c09_step_function_regression():
    started = time.time()
    rng = np.random.default_rng(909)
    ds = gen_step(rng.uniform(-5.0, 5.0, 150))
    cfg = SolverConfig(C=2.0, tau=0.01, eta=20.0, t_max=3000, tol=1e-6)
    adaptive = train_svr(ds.X, ds.y, 0.05, cfg, epsilon=0.02)
    frozen = train_svr(ds.X, ds.y, 0.05, cfg, epsilon=0.02, freeze_f=True)
    r_adaptive = rmse(adaptive.predict(ds.X), ds.y)
    r_frozen = rmse(frozen.predict(ds.X), ds.y)
    elapsed = time.time() - started
    ok = r_adaptive <= r_frozen and r_adaptive <= 0.01 and elapsed < 60.0
    assert report(9, ok,
                  f"adaptive rmse {r_adaptive:.5f} <= frozen {r_frozen:.5f} "
                  f"and <= 0.01, runtime {elapsed:.0f}s < 60s")


def test_c10_surface_regression():
    ds = gen_2d()
    cfg = SolverConfig(C=2.0, tau=0.01, eta=30.0, t_max=4000, tol=1e-7)
    adaptive = train_svr(ds.X, ds.y, 0.05, cfg, epsilon=0.025)
    frozen = train_svr(ds.X, ds.y, 0.05, cfg, epsilon=0.025, freeze_f=True)
    r_adaptive = rmse(adaptive.predict(ds.X), ds.y)
    r_frozen = rmse(frozen.predict(ds.X), ds.y)
    ok = r_adaptive <= r_frozen and r_adaptive <= 0.03
    assert report(10, ok,
                  f"adaptive rmse {r_adaptive:.5f} <= frozen {r_frozen:.5f} "
                  f"and <= 0.03 on the 400-point grid")


def test_c11_adaptive_matrix_structure():
    ds = gen_two_class_toy(200, seed=42)
    cfg = SolverConfig(C=1.0, tau=0.01, eta=None)
    def frozen(X, y, sigma, config):
        return train(X, y, sigma, config, freeze_f=True)

    sigma, _, _ = grid_search(ds.X, ds.y, CV_SIGMA_GRID, [1.0], folds=5, seed=0, config=cfg,
                              fit=frozen, score=accuracy)
    model = train(ds.X, ds.y, sigma, cfg)
    f_min, f_max = model.meta["f_min"], model.meta["f_max"]
    rank = model.meta["f_rank"]
    ok = 0.8 <= f_min and f_max <= 1.2 and rank <= 15
    assert report(11, ok,
                  f"CV-selected sigma {sigma}; F entries in "
                  f"[{f_min:.4f}, {f_max:.4f}] within [0.8, 1.2]; "
                  f"numerical rank {rank} <= 15")


def test_c12_out_of_sample_identity_on_training_points():
    ds = gen_two_class_toy(80, seed=1212)
    cfg = SolverConfig(C=1.0, tau=0.01, eta=None, tol=1e-5)
    model = train(ds.X, ds.y, 0.3, cfg)

    from adakern.svm import reciprocal_match
    F_extended = model.adaptive.columns(reciprocal_match(pairwise_sq_dists(model.X, model.X)))
    extension_exact = np.array_equal(F_extended, model.F)

    deviation = float(np.max(np.abs(model.decision_function(ds.X)
                                    - decision_values_insample(model))))
    ok = extension_exact and deviation <= 1e-12
    assert report(12, ok,
                  f"reciprocal extension reproduces the trained adaptive matrix "
                  f"exactly: {extension_exact}; decision deviation "
                  f"{deviation:.2e} <= 1e-12")


def test_c13_persistence_determinism(tmp_path):
    ds = gen_two_class_toy(50, seed=1313)
    cfg = SolverConfig(C=1.0, tau=0.01, eta=None, tol=1e-5)
    model = train(ds.X, ds.y, 0.4, cfg)

    path_a = str(tmp_path / "a.model")
    path_b = str(tmp_path / "b.model")
    save_model(model, path_a)
    loaded = load_model(path_a)
    probe = ds.X + 0.015
    bit_identical = np.array_equal(model.decision_function(probe),
                                   loaded.decision_function(probe))

    model_again = train(ds.X, ds.y, 0.4, cfg)
    save_model(model_again, path_b)
    with open(path_a) as fa, open(path_b) as fb:
        files_identical = fa.read() == fb.read()

    ok = bit_identical and files_identical
    assert report(13, ok,
                  f"save->load->predict bit-identical: {bit_identical}; "
                  f"two identical runs produce identical model files: "
                  f"{files_identical}")

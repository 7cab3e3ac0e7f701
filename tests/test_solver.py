import re

import numpy as np
import pytest

from multicate import (
    DataError,
    Dataset,
    FactorModel,
    FitConfig,
    NumericalError,
    fit,
    group_soft_threshold,
    objective,
    predict_cate,
    update_loading_rows,
    update_orthogonal_factor,
    update_outlier_rows,
    validate_dataset,
)
from multicate import solver
from multicate.solver import _v_block

from conftest import brute_objective, make_dataset, rrr_objective, rrr_oracle, wls_oracle


# =============================================================================
# group soft threshold
# =============================================================================


def test_gst_frozen_value():
    # norm 5, factor 1 - 2.5/5 = 0.5
    assert np.allclose(group_soft_threshold([3.0, 4.0], 2.5), [1.5, 2.0])


def test_gst_edge_cases():
    assert np.array_equal(group_soft_threshold([3.0, 4.0], 5.0), [0.0, 0.0])
    assert np.array_equal(group_soft_threshold([3.0, 4.0], 7.0), [0.0, 0.0])
    assert np.allclose(group_soft_threshold([3.0, 4.0], 0.0), [3.0, 4.0])
    assert np.array_equal(group_soft_threshold([0.0, 0.0], 1.0), [0.0, 0.0])
    for t in (-0.5, np.nan, np.inf):  # a NaN threshold used to return a NaN vector
        with pytest.raises(DataError, match="threshold must be finite and nonnegative"):
            group_soft_threshold([1.0], t)


def test_gst_is_prox_of_group_norm(rng):
    # oracle: fine minimization of 0.5||x - v||^2 + t||x|| along the v direction
    v = rng.standard_normal(4)
    t = 0.8
    out = group_soft_threshold(v, t)
    def f(x):
        return 0.5 * np.sum((x - v) ** 2) + t * np.linalg.norm(x)
    best = min((f(s * v / np.linalg.norm(v)) , s) for s in np.linspace(0, np.linalg.norm(v), 20001))
    assert f(out) <= best[0] + 1e-9


# =============================================================================
# block updates
# =============================================================================


def _tiny_dataset(Y, T=None, X=None):
    n = len(Y)
    if T is None:
        T = [1, -1] * (n // 2) or [1, -1]
    if X is None:
        X = np.ones((n, 1))
    return validate_dataset(X, Y, T)


def test_outlier_update_frozen_value():
    # residual row (3,4), unit weight, phi=5: threshold 5/2, factor 1 - 2.5/5
    d = _tiny_dataset([[3.0, 4.0], [0.0, 0.0]], T=[1, -1])
    W = np.zeros((1, 1))
    V = np.array([[1.0], [0.0]])
    C0 = np.zeros((2, 2))
    C = update_outlier_rows(C0, d, [1.0, 1.0], W, V, phi_c=5.0)
    assert np.allclose(C[0], [1.5, 2.0])
    assert np.array_equal(C[1], [0.0, 0.0])


def test_outlier_update_zero_penalty_absorbs_residual():
    d, _ = make_dataset(12, 2, 2, seed=3)
    W = np.zeros((3, 1))
    V = np.zeros((2, 1)); V[0, 0] = 1.0
    C = update_outlier_rows(np.zeros((12, 2)), d, np.ones(12), W, V, phi_c=0.0)
    assert np.allclose(C, d.Y)


def test_outlier_update_is_conditional_minimizer(rng):
    d, _ = make_dataset(20, 3, 2, seed=11)
    a = rng.uniform(0.5, 2.0, 20)
    W = rng.standard_normal((4, 2))
    V = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    phi = 1.3
    C = update_outlier_rows(np.zeros((20, 2)), d, a, W, V, phi_c=phi)
    base = brute_objective(d, a, W, V, C, 0.0, phi)
    for _ in range(25):
        pert = C + 1e-3 * rng.standard_normal(C.shape)
        assert brute_objective(d, a, W, V, pert, 0.0, phi) >= base - 1e-12


def test_loading_update_frozen_univariate():
    # design column (2,0), target (8,0): unpenalized least squares gives 16/4 = 4
    d = validate_dataset([[4.0], [0.0]], [[8.0], [0.0]], [1, -1])
    V = np.array([[1.0]])
    W = update_loading_rows(np.zeros((1, 1)), d, [1.0, 1.0], np.zeros((2, 1)), V,
                            lambda_w=0.0)
    G = np.array([[2.0], [0.0]])
    ls, *_ = np.linalg.lstsq(G, np.array([[8.0], [0.0]]), rcond=None)
    assert np.allclose(W, ls)
    assert W[0, 0] == pytest.approx(4.0, abs=1e-12)
    # penalized: stationarity 8w - 32 + 2 sign(w) = 0 gives w = 3.75
    Wp = update_loading_rows(np.zeros((1, 1)), d, [1.0, 1.0], np.zeros((2, 1)), V,
                             lambda_w=2.0)
    assert Wp[0, 0] == pytest.approx(3.75, abs=1e-12)


def test_loading_update_zeroes_rows_at_large_penalty():
    d, _ = make_dataset(30, 3, 2, seed=5)
    V = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))[0]
    W = update_loading_rows(np.ones((4, 2)), d, np.ones(30), np.zeros((30, 2)), V,
                            lambda_w=1e9)
    assert np.array_equal(W, np.zeros((4, 2)))


def test_loading_update_is_conditional_minimizer(rng):
    d, _ = make_dataset(25, 3, 3, seed=21)
    a = rng.uniform(0.5, 2.0, 25)
    V = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    C = 0.1 * rng.standard_normal((25, 3))
    lam = 0.7
    W = update_loading_rows(rng.standard_normal((4, 2)), d, a, C, V, lam,
                            inner_tol=1e-12, max_inner=500)
    base = brute_objective(d, a, W, V, C, lam, 0.0)
    for _ in range(25):
        pert = W + 1e-4 * rng.standard_normal(W.shape)
        assert brute_objective(d, a, pert, V, C, lam, 0.0) >= base - 1e-10


def test_orthogonal_factor_frozen_cases():
    # diag(2,3): top singular pair swaps the axes twice, so V = I
    assert np.allclose(_v_block(np.diag([2.0, 3.0]), None), np.eye(2), atol=1e-12)
    # the swap matrix is orthogonal, so it is its own maximizer
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(_v_block(M, None), M, atol=1e-12)
    # identity padded with a zero column: V stacks I on zeros
    M = np.hstack([np.eye(2), np.zeros((2, 1))])
    expect = np.vstack([np.eye(2), np.zeros((1, 2))])
    assert np.allclose(_v_block(M, None), expect, atol=1e-12)


def test_orthogonal_factor_maximizes_trace(rng):
    d, _ = make_dataset(30, 4, 3, seed=9)
    a = rng.uniform(0.5, 2.0, 30)
    W = rng.standard_normal((5, 2))
    C = 0.05 * rng.standard_normal((30, 3))
    V = update_orthogonal_factor(W, d, a, C)
    assert np.max(np.abs(V.T @ V - np.eye(2))) < 1e-10
    Z = d.X * (d.T / 2.0)[:, None]
    G = a[:, None] * Z
    F = a[:, None] * (d.Y - C)
    M = W.T @ G.T @ F
    gain = np.trace(M @ V)
    assert gain == pytest.approx(np.linalg.svd(M, compute_uv=False).sum(), abs=1e-9)
    for _ in range(100):
        Q = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        assert np.trace(M @ Q) <= gain + 1e-9


def test_orthogonal_factor_degenerate_keeps_previous():
    d, _ = make_dataset(10, 2, 2, seed=2)
    V_prev = np.eye(2)
    W = np.zeros((3, 2))
    out = update_orthogonal_factor(W, d, np.ones(10), np.zeros((10, 2)), V=V_prev)
    assert np.array_equal(out, V_prev)
    with pytest.raises(DataError, match="identically zero"):
        update_orthogonal_factor(W, d, np.ones(10), np.zeros((10, 2)))


# each block update with one bad argument, mostly of the wrong shape: W is
# (p+1, r) = (4, 1), V is (q, r) = (2, 1), C is (n, q) = (20, 2), and the
# weights A are right
A = np.ones(20)
SHAPE_ERRORS = {
    "loading rows, 1-D W": (lambda d, W, V, C: update_loading_rows(W[:, 0], d, A, C, V, 1.0),
                            "W has shape (4,), expected (4, rank)"),
    "loading rows, V of rank 2": (lambda d, W, V, C: update_loading_rows(
        W, d, A, C, np.eye(2), 1.0), "V has shape (2, 2), expected (2, 1)"),
    "loading rows, short C": (lambda d, W, V, C: update_loading_rows(W, d, A, C[1:], V, 1.0),
                              "C has shape (19, 2), expected (20, 2)"),
    "loading rows, negative penalty": (lambda d, W, V, C: update_loading_rows(
        W, d, A, C, V, -1.0), "lambda_w must be finite and nonnegative, got -1.0"),
    "outlier rows, short W": (lambda d, W, V, C: update_outlier_rows(C, d, A, W[1:], V, 1.0),
                              "W has shape (3, 1), expected (4, rank)"),
    "outlier rows, 1-D V": (lambda d, W, V, C: update_outlier_rows(C, d, A, W, V[:, 0], 1.0),
                            "V has shape (2,), expected (2, 1)"),
    "outlier rows, wide C": (lambda d, W, V, C: update_outlier_rows(
        np.zeros((20, 3)), d, A, W, V, 1.0), "C has shape (20, 3), expected (20, 2)"),
    "orthogonal factor, 1-D W": (lambda d, W, V, C: update_orthogonal_factor(W[:, 0], d, A, C),
                                 "W has shape (4,), expected (4, rank)"),
    "orthogonal factor, wide C": (lambda d, W, V, C: update_orthogonal_factor(
        W, d, A, np.zeros((20, 3))), "C has shape (20, 3), expected (20, 2)"),
    "orthogonal factor, fallback V of rank 2": (lambda d, W, V, C: update_orthogonal_factor(
        W, d, A, C, V=np.eye(2)), "V has shape (2, 2), expected (2, 1)"),
}


@pytest.mark.parametrize("call, message", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS.keys())
def test_block_updates_name_the_expected_shape(call, message):
    d, _ = make_dataset(20, 3, 2, seed=4)
    W, V, C = np.ones((4, 1)), np.array([[1.0], [0.0]]), np.zeros((20, 2))
    with pytest.raises(DataError, match=re.escape(message)):
        call(d, W, V, C)


# =============================================================================
# objective
# =============================================================================


def test_objective_matches_bruteforce(rng):
    d, _ = make_dataset(18, 3, 3, seed=31)
    a = rng.uniform(0.5, 2.0, 18)
    V = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    W = rng.standard_normal((4, 2))
    C = rng.standard_normal((18, 3)) * 0.2
    model = FactorModel(W=W, V=V, C=C, rank=2)
    cfg = FitConfig(rank=2, lambda_w=0.4, phi_c=0.9)
    assert objective(model, d, a, cfg) == pytest.approx(
        brute_objective(d, a, W, V, C, 0.4, 0.9), rel=1e-12)


def test_objective_shape_mismatch():
    d, _ = make_dataset(10, 2, 2, seed=1)
    model = FactorModel(W=np.zeros((5, 1)), V=np.array([[1.0], [0.0]]),
                        C=np.zeros((10, 2)), rank=1)
    with pytest.raises(DataError):
        objective(model, d, np.ones(10), FitConfig(rank=1))


# =============================================================================
# full fit
# =============================================================================

TIGHT = dict(outer_tol=1e-13, inner_tol=1e-12, max_outer=3000, max_inner=300)


def test_fit_full_rank_matches_weighted_ols():
    d, _ = make_dataset(80, 4, 3, seed=42)
    rng = np.random.default_rng(0)
    a = 1.0 / np.sqrt(rng.uniform(0.2, 0.8, 80))
    cfg = FitConfig(rank=3, lambda_w=0.0, phi_c=1e12, **TIGHT)
    model = fit(d, a, cfg)
    Z = d.X * (d.T / 2.0)[:, None]
    expect = wls_oracle(Z, d.Y, a)
    rel = np.linalg.norm(model.gamma - expect) / np.linalg.norm(expect)
    assert rel < 1e-6
    assert np.array_equal(model.C, np.zeros((80, 3)))


def test_fit_reduced_rank_matches_closed_form():
    d, _ = make_dataset(80, 4, 3, seed=43)
    a = np.full(80, np.sqrt(2.0))
    cfg = FitConfig(rank=2, lambda_w=0.0, phi_c=1e12, **TIGHT)
    model = fit(d, a, cfg)
    Z = d.X * (d.T / 2.0)[:, None]
    expect = rrr_oracle(Z, d.Y, a, 2)
    assert rrr_objective(Z, d.Y, a, model.gamma) <= rrr_objective(Z, d.Y, a, expect) + 1e-6
    rel = np.linalg.norm(model.gamma - expect) / np.linalg.norm(expect)
    assert rel < 1e-6


def test_fit_trace_monotone_and_v_orthonormal(rng):
    for seed in range(6):
        d, _ = make_dataset(40, 3, 3, seed=seed)
        a = rng.uniform(0.7, 1.5, 40)
        cfg = FitConfig(rank=2, lambda_w=0.3, phi_c=2.0)
        model = fit(d, a, cfg)
        diffs = np.diff(model.trace.objective)
        assert np.all(diffs <= 1e-9 * max(1.0, model.trace.objective[0]))
        assert np.max(np.abs(model.V.T @ model.V - np.eye(2))) <= 1e-10


def test_fit_trace_counts_capped_w_blocks():
    d, _ = make_dataset(40, 3, 3, seed=2)
    counts = []
    for max_inner in (2, 6, 100):
        tr = fit(d, np.ones(40), FitConfig(rank=2, lambda_w=0.3, max_inner=max_inner)).trace
        assert tr.w_capped == sum(w == max_inner for w in tr.w_sweeps)
        counts.append((tr.w_capped, tr.n_outer))
    # some W blocks stop at a cap of 6 sweeps, more at 2, none at 100
    assert counts[0][0] > counts[1][0] > 0 and counts[1][0] < counts[1][1]
    assert counts[2][0] == 0 and counts[2][1] > 1


def test_fit_exact_recovery_noiseless():
    rng = np.random.default_rng(5)
    n, p, q = 120, 6, 5
    u = np.zeros(p); u[:3] = 1.0
    v = np.zeros(q); v[:3] = 1.0
    gamma = np.vstack([np.zeros((1, q)), np.outer(u, v)])
    d, gamma = make_dataset(n, p, q, seed=17, gamma=gamma, noise=0.0)
    cfg = FitConfig(rank=1, **TIGHT)
    model = fit(d, np.ones(n), cfg)
    rel = np.linalg.norm(model.gamma - gamma) / np.linalg.norm(gamma)
    assert rel < 1e-6


def test_fit_rescaled_weights_leave_gamma_unchanged():
    d, _ = make_dataset(50, 3, 2, seed=77)
    cfg = FitConfig(rank=2, lambda_w=0.0, phi_c=0.0, **TIGHT)
    g1 = fit(d, np.ones(50), cfg).gamma
    g2 = fit(d, np.full(50, 3.7), cfg).gamma
    assert np.max(np.abs(g1 - g2)) < 1e-8


def test_fit_zero_outcomes_degenerate():
    d = validate_dataset(np.hstack([np.ones((6, 1)), np.arange(6.).reshape(-1, 1)]),
                         np.zeros((6, 2)), [1, -1, 1, -1, 1, -1])
    model = fit(d, np.ones(6), FitConfig(rank=1))
    assert np.array_equal(model.gamma, np.zeros((2, 2)))
    assert np.array_equal(model.C, np.zeros((6, 2)))
    assert model.trace.converged


def test_fit_rank_too_large():
    d, _ = make_dataset(10, 2, 2, seed=0)
    with pytest.raises(DataError, match="rank"):
        fit(d, np.ones(10), FitConfig(rank=3))


def test_fit_non_finite_initial_objective_fails_before_any_block_step(monkeypatch):
    # outcomes near the float limit: the initializer's objective overflows, so
    # the fit stops at iteration 0, before any W sweep or V step
    d, _ = make_dataset(20, 2, 3, seed=5)
    d = validate_dataset(d.X, d.Y * 1e155, d.T)
    steps = []
    for name in ("_sweep_rows", "_v_block"):
        monkeypatch.setattr(solver, name, lambda *args, name=name: steps.append(name))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="non-finite at outer iteration 0$"):
        fit(d, np.ones(20), FitConfig(rank=2))
    assert steps == []


def test_fit_deterministic():
    d, _ = make_dataset(30, 3, 2, seed=8)
    cfg = FitConfig(rank=1, lambda_w=0.2, phi_c=0.5)
    m1 = fit(d, np.ones(30), cfg)
    m2 = fit(d, np.ones(30), cfg)
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(m1.V, m2.V)
    assert np.array_equal(m1.C, m2.C)


def test_predict_cate_values_and_score():
    W = np.array([[1.0], [2.0]])
    V = np.array([[1.0], [0.0]])
    model = FactorModel(W=W, V=V, C=np.zeros((4, 2)), rank=1)
    est = predict_cate(model, np.array([[1.0, 3.0]]))
    # gamma = [[1,0],[2,0]]; x'gamma = (7, 0)
    assert np.allclose(est.values, [[7.0, 0.0]])
    assert np.allclose(est.score, [7.0])
    with pytest.raises(DataError, match="columns"):
        predict_cate(model, np.ones((2, 3)))

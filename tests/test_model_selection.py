from dataclasses import replace

import numpy as np
import pytest

from multicate import (
    CvGrid,
    DataError,
    FactorModel,
    FitConfig,
    cross_validate,
    ScenarioSpec,
    compute_weights,
    cross_validate,
    cv_loss,
    default_cv_grid,
    generate_truth,
    kfold_split,
    resolve_weights,
    validate_dataset,
)
from multicate import model_selection
from multicate.weights import PROPENSITY_CLIP, _logistic_irls

from conftest import make_dataset


# =============================================================================
# fold assignment
# =============================================================================


def test_kfold_deterministic_and_seed_sensitive():
    T = np.where(np.random.default_rng(0).uniform(size=40) < 0.5, 1.0, -1.0)
    T[:10] = 1.0
    T[10:20] = -1.0
    a1 = kfold_split(T, 5, seed=3)
    a2 = kfold_split(T, 5, seed=3)
    a3 = kfold_split(T, 5, seed=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def test_kfold_balanced_sizes():
    T = np.array([1.0] * 5 + [-1.0] * 5)
    a = kfold_split(T, 5, seed=0)
    assert sorted(np.bincount(a, minlength=5)) == [2, 2, 2, 2, 2]


def test_kfold_stratified_counts_frozen():
    # 6 treated, 4 control, two folds: each fold gets 3 treated and 2 control
    T = np.array([1.0] * 6 + [-1.0] * 4)
    a = kfold_split(T, 2, seed=1)
    for f in (0, 1):
        assert np.sum((a == f) & (T == 1.0)) == 3
        assert np.sum((a == f) & (T == -1.0)) == 2


def test_kfold_sizes_differ_at_most_one(rng):
    for trial in range(10):
        n = int(rng.integers(20, 60))
        T = np.where(rng.uniform(size=n) < 0.6, 1.0, -1.0)
        T[:5] = 1.0
        T[5:10] = -1.0
        folds = int(rng.integers(2, 6))
        a = kfold_split(T, folds, seed=trial)
        total = np.bincount(a, minlength=folds)
        assert total.max() - total.min() <= 1
        for arm in (1.0, -1.0):
            per = np.bincount(a[T == arm], minlength=folds)
            assert per.max() - per.min() <= 1


def test_kfold_deals_each_shuffled_arm_round_robin(rng):
    # reference: shuffle each arm (treated first) with the seeded generator, then
    # deal its subjects one by one through a running counter
    for trial in range(10):
        n, folds = int(rng.integers(20, 60)), int(rng.integers(2, 6))
        T = np.where(rng.uniform(size=n) < 0.6, 1.0, -1.0)
        T[:5], T[5:10] = 1.0, -1.0
        gen, want, counter = np.random.default_rng(trial), np.empty(n, dtype=int), 0
        for arm in (1.0, -1.0):
            idx = np.flatnonzero(T == arm)
            gen.shuffle(idx)
            for i in idx:
                want[i] = counter % folds
                counter += 1
        assert np.array_equal(kfold_split(T, folds, seed=trial), want)


def test_kfold_errors():
    T = np.array([1.0] * 3 + [-1.0] * 7)
    with pytest.raises(DataError, match="fewer than"):
        kfold_split(T, 5, seed=0)
    with pytest.raises(DataError, match="between 2"):
        kfold_split(T, 1, seed=0)
    with pytest.raises(DataError, match="between 2"):
        kfold_split(T, 11, seed=0)


@pytest.mark.parametrize("labels, row, entry", [
    ([1.0, -1.0, 0.5, 1.0, -1.0, 1.0, -1.0], 2, "0.5"),
    ([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0], 0, "0.0"),
    ([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, np.nan], 6, "nan"),
])
def test_kfold_rejects_labels_outside_plus_minus_one(labels, row, entry):
    # such a label was left with an uninitialized fold id, and 0/1 labels
    # failed as an arm without subjects
    with pytest.raises(DataError, match=rf"^T entry {entry} at row {row} is not a treatment label"):
        kfold_split(np.array(labels), 2, seed=0)


# =============================================================================
# selection loss
# =============================================================================


def test_cv_loss_matches_hand_loop(rng):
    d, _ = make_dataset(12, 3, 2, seed=5)
    W = rng.standard_normal((4, 1))
    V = np.array([[0.6], [0.8]])
    model = FactorModel(W=W, V=V, C=np.zeros((12, 2)), rank=1)
    a = rng.uniform(0.5, 2.0, 12)
    total = 0.0
    gamma = W @ V.T
    for i in range(12):
        pred = d.T[i] * (d.X[i] @ gamma) / 2.0
        total += a[i] ** 2 * np.sum((d.Y[i] - pred) ** 2)
    assert cv_loss(model, d, a) == pytest.approx(total, rel=1e-12)


def test_cv_loss_ignores_offsets(rng):
    d, _ = make_dataset(10, 2, 2, seed=6)
    W = rng.standard_normal((3, 1))
    V = np.array([[1.0], [0.0]])
    a = np.ones(10)
    m0 = FactorModel(W=W, V=V, C=np.zeros((10, 2)), rank=1)
    m1 = FactorModel(W=W, V=V, C=rng.standard_normal((10, 2)), rank=1)
    assert cv_loss(m0, d, a) == cv_loss(m1, d, a)


# =============================================================================
# grid containers
# =============================================================================


def test_cv_grid_validation():
    with pytest.raises(DataError, match="non-empty"):
        CvGrid(lambdas=(), phis=(0.1,), ranks=(1,))
    with pytest.raises(DataError, match="nonnegative"):
        CvGrid(lambdas=(-1.0,), phis=(0.1,), ranks=(1,))
    with pytest.raises(DataError, match="positive"):
        CvGrid(lambdas=(0.1,), phis=(0.1,), ranks=(0,))
    with pytest.raises(DataError, match="two folds"):
        CvGrid(lambdas=(0.1,), phis=(0.1,), ranks=(1,), folds=1)


def test_default_grid_shapes_and_scale():
    d, _ = make_dataset(40, 6, 4, seed=7)
    a = np.full(40, np.sqrt(2.0))
    grid = default_cv_grid(d, a)
    assert len(grid.lambdas) == 8 and len(grid.phis) == 8
    assert grid.ranks == (1, 2, 3, 4)  # min(p + 1, q, 5) with q = 4
    assert all(x > 0 for x in grid.lambdas)
    assert list(grid.lambdas) == sorted(grid.lambdas)
    Z = d.X * (d.T / 2.0)[:, None]
    G = a[:, None] * Z
    lam_max = 2.0 * np.max(np.linalg.norm(G.T @ (a[:, None] * d.Y), axis=1))
    assert grid.lambdas[0] == pytest.approx(1e-3 * lam_max)
    assert grid.lambdas[-1] == pytest.approx(1e1 * lam_max)
    phi_max = 2.0 * np.max(a * a * np.linalg.norm(d.Y, axis=1))
    assert grid.phis[-1] == pytest.approx(1e1 * phi_max)


# =============================================================================
# cross-validation
# =============================================================================


def test_cross_validate_deterministic():
    d, _ = make_dataset(50, 3, 2, seed=8)
    grid = CvGrid(lambdas=(0.01, 1.0), phis=(0.5,), ranks=(1, 2), folds=3, seed=2)
    r1 = cross_validate(d, grid)
    r2 = cross_validate(d, grid)
    assert np.array_equal(r1.mean_loss, r2.mean_loss)
    assert r1.best == r2.best
    assert np.array_equal(r1.fold_assignment, kfold_split(d.T, 3, seed=2))
    assert r1.mean_loss.shape == (2, 1, 2)
    assert r1.per_fold_loss.shape == (2, 1, 2, 3)
    assert np.allclose(r1.per_fold_loss.mean(axis=3), r1.mean_loss)
    i, j, k = r1.best_index
    assert r1.best == (grid.lambdas[i], grid.phis[j], grid.ranks[k])


def test_cross_validate_prefers_parsimonious_rank_on_ties():
    # noiseless rank-one effect: every rank fits it, parsimony wins
    gamma = np.zeros((4, 3))
    gamma[1] = [1.0, 0.5, -0.5]
    d, gamma = make_dataset(60, 3, 3, seed=9, gamma=gamma, noise=0.0)
    grid = CvGrid(lambdas=(1e-8,), phis=(1e8,), ranks=(1, 2, 3), folds=3, seed=0)
    res = cross_validate(d, grid)
    assert res.best[2] == 1


def test_cross_validate_tie_window_zero_keeps_literal_minimum(monkeypatch):
    monkeypatch.setattr(model_selection, "TIE_TOL", 0.0)
    d, _ = make_dataset(40, 2, 2, seed=10)
    grid = CvGrid(lambdas=(0.01, 0.5), phis=(1e8,), ranks=(1, 2), folds=2, seed=0)
    res = cross_validate(d, grid)
    assert res.mean_loss[res.best_index] == res.mean_loss.min()


def test_cross_validate_exact_ties_select_the_first_point(monkeypatch):
    # repeated lambdas and phis fit bit-equal losses, so those points tie on
    # (rank, -lambda, -phi, loss); the widened window admits every point, larger
    # lambda wins by parsimony, and of the tied points the first in (lambda, phi,
    # rank) order is selected
    monkeypatch.setattr(model_selection, "TIE_TOL", 1e3)
    d, _ = make_dataset(40, 2, 2, seed=10)
    grid = CvGrid(lambdas=(0.01, 0.5, 0.5), phis=(2.0, 2.0), ranks=(1,), folds=2, seed=0)
    res = cross_validate(d, grid)
    tied = res.per_fold_loss[1:]
    assert np.array_equal(tied, np.broadcast_to(tied[0, 0], tied.shape))
    assert res.best_index == (1, 0, 0)
    assert res.best == (0.5, 2.0, 1)


def test_cross_validate_repeated_rank_fills_every_index():
    # each index of a repeated rank holds that rank's fits, not unset memory
    d, _ = make_dataset(40, 2, 2, seed=10)
    res = cross_validate(d, CvGrid(lambdas=(0.5,), phis=(2.0,), ranks=(1, 1, 2), folds=2, seed=0))
    one = cross_validate(d, CvGrid(lambdas=(0.5,), phis=(2.0,), ranks=(1, 2), folds=2, seed=0))
    for got, want in ((res.per_fold_loss, one.per_fold_loss), (res.n_outer, one.n_outer),
                      (res.converged, one.converged), (res.w_capped, one.w_capped)):
        assert np.array_equal(got, want[:, :, [0, 0, 1]])
    assert res.best_index[2] == (0 if one.best_index[2] == 0 else 2)


def test_cross_validate_baseline_methods_run():
    d, _ = make_dataset(40, 2, 2, seed=11)
    grid = CvGrid(lambdas=(0.1,), phis=(0.1,), ranks=(1,), folds=2, seed=0)
    for method in model_selection.METHODS:
        res = cross_validate(d, grid, method=method)
        assert np.all(np.isfinite(res.mean_loss))
    with pytest.raises(DataError, match="unknown method"):
        cross_validate(d, grid, method="ols")


@pytest.mark.parametrize("method", ["wmcmr4", "wmcmrrr"])
def test_cross_validate_rejects_rank_above_limit_before_any_fit(method, monkeypatch):
    fits = []
    fit_groups = model_selection._fit_groups

    def counting(*args, **kwargs):
        fits.append(args)
        return fit_groups(*args, **kwargs)

    monkeypatch.setattr(model_selection, "_fit_groups", counting)
    d, _ = make_dataset(40, 3, 2, seed=13)
    grid = CvGrid(lambdas=(0.1,), phis=(0.1,), ranks=(1, 3), folds=2, seed=0)
    with pytest.raises(DataError, match=r"rank 3 exceeds min\(p\+1, q\) = 2"):
        cross_validate(d, grid, method=method)
    assert not fits
    # the rank-1 points alone run
    cross_validate(d, replace(grid, ranks=(1,)), method=method)
    assert len(fits) == 1
    # a method that ignores the rank fits only the first rank of the grid
    assert np.isfinite(cross_validate(d, grid, method="wmcm").mean_loss).all()


def test_cross_validate_known_propensity_requires_column():
    X = np.hstack([np.ones((20, 1)), np.arange(20.0).reshape(-1, 1)])
    T = np.array([1.0, -1.0] * 10)
    Y = np.random.default_rng(0).standard_normal((20, 2))
    d = validate_dataset(X, Y, T)
    grid = CvGrid(lambdas=(0.1,), phis=(0.1,), ranks=(1,), folds=2, seed=0)
    with pytest.raises(DataError, match="propensity"):
        cross_validate(d, grid, propensity="known")


@pytest.mark.parametrize("method", model_selection.METHODS)
def test_method_grid_agrees_with_full_grid(method):
    # an axis a method does not use collapses to one value without moving a loss
    d, _ = make_dataset(40, 3, 2, seed=12)
    grid = CvGrid(lambdas=(0.1, 2.0), phis=(0.5, 5.0), ranks=(1, 2), folds=2, seed=0)
    small_grid = model_selection._method_grid(grid, method)
    assert small_grid.lambdas == grid.lambdas
    assert small_grid.phis in (grid.phis, (0.0,))
    assert small_grid.ranks in (grid.ranks, grid.ranks[:1])
    full = cross_validate(d, grid, method=method).per_fold_loss
    small = cross_validate(d, small_grid, method=method).per_fold_loss
    shared = full[:, :, :len(small_grid.ranks)]
    assert np.array_equal(np.broadcast_to(small, shared.shape), shared)


def _cv_bytes(res):
    # every field of a CV result, arrays with their dtype and shape as bytes
    return {k: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for k, v in vars(res).items()}


@pytest.mark.parametrize("method", ["wmcmr4", "wfull"])
def test_stacked_cv_result_equals_cross_validate_alone(method, monkeypatch):
    # two observational datasets stacked by _stack_cv; cross_validate then returns
    # what _stack_cv stored, byte for byte the result it computes outside any block
    spec = ScenarioSpec(scenario=3, design="observational", n=120, n_test=10, q=4, seed=1)
    data = [generate_truth(spec, np.random.default_rng(s)).dataset for s in (0, 1)]
    grid = model_selection._method_grid(
        CvGrid(lambdas=(0.1, 2.0), phis=(0.5, 5.0), ranks=(1, 2), folds=3, seed=4), method)
    cfg = FitConfig(rank=1)
    alone = [cross_validate(d, grid, method, "logistic", cfg) for d in data]
    with model_selection._shared_cv():
        model_selection._stack_cv(
            method, [(d, grid, model_selection._fold_parts(d, grid, "logistic")) for d in data],
            "logistic", cfg)
        monkeypatch.setattr(model_selection, "_grid_fits", None)  # nothing is refit
        stacked = [cross_validate(d, grid, method, "logistic", cfg) for d in data]
    assert [_cv_bytes(r) for r in stacked] == [_cv_bytes(r) for r in alone]


def test_fold_weights_equal_weights_module():
    spec = ScenarioSpec(scenario=3, design="observational", n=300, n_test=10, q=4, seed=1)
    d = generate_truth(spec, np.random.default_rng(0)).dataset
    assignment = kfold_split(d.T, 3, seed=0)
    for f in range(3):
        d_tr = model_selection._subset(d, assignment != f)
        d_he = model_selection._subset(d, assignment == f)
        for source in ("rct", "known", "logistic"):
            got = model_selection._fold_weights(d_tr, d_he, source)
            want = [resolve_weights(d_tr, source), resolve_weights(d_he, source)]
            if source == "logistic":
                # held-out subjects are scored by the training fold's model
                beta = _logistic_irls(d_tr.X, (d_tr.T + 1.0) / 2.0)
                pi = np.clip(1.0 / (1.0 + np.exp(-(d_he.X @ beta))),
                             PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)
                want[1] = compute_weights(d_he.T, pi, source="logistic_fit")
            for g, w in zip(got, want):
                assert g.a.tobytes() == w.a.tobytes() and g.pi.tobytes() == w.pi.tobytes()
                assert g.source == w.source

import math
import os
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicate
from multicate import DataError, auc, bias, evaluate, mse, spearman
from multicate.metrics import _average_ranks

# Ties within both vectors, -0.0 tied with 0.0, and infinite scores. The
# expected metric values below were recorded when ranks came from
# scipy.stats.rankdata(method="average").
TIED_HAT = [2.0, -0.0, 0.0, 2.0, math.inf, -1.0, 0.0, -math.inf]
TIED_TRUE = [1.0, 3.0, 3.0, -2.0, 5.0, -1.0, 0.5, -1.0]


# =============================================================================
# squared error and bias
# =============================================================================


def test_mse_frozen_value():
    # prediction error matrix is constant 3 on a 2x2 problem: 36/4
    X = np.eye(2)
    gamma_true = np.zeros((2, 2))
    gamma_hat = np.full((2, 2), 3.0)
    assert mse(X, gamma_hat, gamma_true) == pytest.approx(9.0)


def test_mse_zero_at_truth(rng):
    X = rng.standard_normal((10, 3))
    gamma = rng.standard_normal((3, 4))
    assert mse(X, gamma, gamma) == 0.0
    assert bias(X, gamma, gamma) == 0.0


def test_bias_frozen_value():
    X = np.eye(2)
    gamma_true = np.zeros((2, 2))
    gamma_hat = np.array([[1.0, 1.0], [3.0, 3.0]])
    assert bias(X, gamma_hat, gamma_true) == pytest.approx(2.0)
    assert mse(X, gamma_hat, gamma_true) == pytest.approx(5.0)


def test_bias_cancellation():
    # signed errors cancel while squared errors do not
    X = np.eye(2)
    gamma_hat = np.array([[1.0, -1.0], [2.0, -2.0]])
    assert bias(X, gamma_hat, np.zeros((2, 2))) == 0.0
    assert mse(X, gamma_hat, np.zeros((2, 2))) == pytest.approx(2.5)


def test_bias_squared_never_exceeds_mse(rng):
    for _ in range(20):
        X = rng.standard_normal((8, 3))
        gh = rng.standard_normal((3, 2))
        gt = rng.standard_normal((3, 2))
        assert bias(X, gh, gt) ** 2 <= mse(X, gh, gt) + 1e-12


# =============================================================================
# rank correlation
# =============================================================================


def test_spearman_perfect_and_reversed():
    t = np.array([3.0, 1.0, 2.0, 0.5])
    assert spearman(t, t) == pytest.approx(1.0)
    assert spearman(-t, t) == pytest.approx(-1.0)


def test_spearman_monotone_transform_invariant(rng):
    t = rng.standard_normal(30)
    assert spearman(np.exp(t), t) == pytest.approx(1.0)
    assert spearman(t ** 3, t) == pytest.approx(1.0)


def test_spearman_tied_frozen_value():
    # midranks (1.5, 1.5, 3) vs (1, 2, 3): sum d^2 = 0.5, 1 - 3/24
    assert spearman([1.0, 1.0, 0.0], [2.0, 1.0, 0.0]) == 0.875
    assert spearman(TIED_HAT, TIED_TRUE) == 0.43452380952380953


def test_spearman_zero_estimate_convention():
    assert spearman([0.0, 0.0, 0.0], [3.0, 2.0, 1.0]) == 0.0


def test_spearman_errors():
    with pytest.raises(DataError):
        spearman([1.0], [1.0])
    with pytest.raises(DataError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


def test_spearman_permutation_consistency(rng):
    t = rng.standard_normal(25)
    h = rng.standard_normal(25)
    perm = rng.permutation(25)
    assert spearman(h[perm], t[perm]) == pytest.approx(spearman(h, t))


# =============================================================================
# responder discrimination
# =============================================================================


def test_auc_perfect_and_reversed():
    true = np.array([2.0, 1.0, -1.0, -2.0])
    assert auc([4.0, 3.0, 2.0, 1.0], true) == pytest.approx(1.0)
    assert auc([1.0, 2.0, 3.0, 4.0], true) == pytest.approx(0.0)


def test_auc_uninformative_constant_score():
    assert auc([1.0, 1.0, 1.0, 1.0], [2.0, 1.0, -1.0, -2.0]) == pytest.approx(0.5)


def test_auc_tied_frozen_value():
    # one positive with score 2 tied against a negative: rank 2.5 of 3
    assert auc([2.0, 2.0, 1.0], [1.0, -1.0, -1.0]) == 0.75
    assert auc(TIED_HAT, TIED_TRUE) == 0.7666666666666667


def test_auc_single_class_is_nan():
    assert math.isnan(auc([1.0, 2.0], [1.0, 2.0]))
    assert math.isnan(auc([1.0, 2.0], [-1.0, -2.0]))


def test_nan_scores_propagate():
    assert np.isnan(_average_ranks([1.0, math.nan, 0.0])).all()
    assert math.isnan(spearman([1.0, math.nan, 0.0], [1.0, 2.0, 3.0]))
    assert math.isnan(auc([1.0, math.nan, 0.0], [1.0, -2.0, 3.0]))


# =============================================================================
# average ranks
# =============================================================================


def _oracle_ranks(v):
    """rank_i = #{v_j < v_i} + (#{v_j == v_i} + 1) / 2, by brute force."""
    return np.array([np.sum(v < x) + (np.sum(v == x) + 1) / 2.0 for x in v], dtype=float)


@st.composite
def _tied_vectors(draw):
    # a small pool of values, then a vector of repeated picks from it, so ties are common
    pool = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf]), st.floats(allow_nan=False)),
        min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return np.array([pool[i] for i in picks], dtype=float)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_tied_vectors())
def test_average_ranks_equal_brute_force(v):
    ranks = _average_ranks(v)
    assert ranks.dtype == np.float64
    assert np.array_equal(ranks, _oracle_ranks(v))


def test_import_loads_no_scipy():
    # metrics ranks with NumPy alone; SciPy is needed only by the benchmark harness
    src = os.path.dirname(os.path.dirname(multicate.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, multicate, multicate.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# =============================================================================
# combined report
# =============================================================================


def test_evaluate_report_consistency(rng):
    X = rng.standard_normal((20, 4))
    gt = rng.standard_normal((4, 3))
    gh = gt + 0.1 * rng.standard_normal((4, 3))
    rep = evaluate(gh, X, gt)
    assert rep.mse == pytest.approx(mse(X, gh, gt))
    assert rep.bias == pytest.approx(bias(X, gh, gt))
    assert rep.spearman == pytest.approx(
        spearman((X @ gh).sum(axis=1), (X @ gt).sum(axis=1)))
    assert rep.auc == pytest.approx(
        auc((X @ gh).sum(axis=1), (X @ gt).sum(axis=1)))
    perfect = evaluate(gt, X, gt)
    assert perfect.mse == 0.0 and perfect.bias == 0.0
    assert perfect.spearman == pytest.approx(1.0)
    assert perfect.auc == pytest.approx(1.0)


@pytest.mark.parametrize("case", ["plain", "ties", "all-zero estimate", "nan in estimate",
                                  "single-class truth"])
def test_evaluate_equals_the_metric_functions_exactly(case):
    # evaluate forms X Gamma_hat and X Gamma once; every field must still be
    # the value of its own function, to the bit (NaN equal to NaN)
    rng = np.random.default_rng(41)
    X = rng.standard_normal((30, 5))
    gt = rng.standard_normal((5, 3))
    gh = gt + 0.3 * rng.standard_normal((5, 3))
    if case == "ties":
        X, gh = rng.integers(-1, 2, (30, 5)).astype(float), np.round(gh)
    elif case == "all-zero estimate":
        gh = np.zeros_like(gt)
    elif case == "nan in estimate":
        gh[1, 2] = np.nan
    elif case == "single-class truth":
        X, gt = np.abs(X), np.abs(gt)
    sh, st = (X @ gh).sum(axis=1), (X @ gt).sum(axis=1)
    want = (mse(X, gh, gt), bias(X, gh, gt), spearman(sh, st), auc(sh, st))
    got = astuple(evaluate(gh, X, gt))
    assert all(g == w or (math.isnan(g) and math.isnan(w)) for g, w in zip(got, want)), (got, want)
    if case == "ties":
        assert len(np.unique(sh)) < len(sh)
    elif case == "all-zero estimate":
        assert got[2] == 0.0
    elif case == "nan in estimate":
        assert math.isnan(got[0]) and math.isnan(got[2])
    elif case == "single-class truth":
        assert math.isnan(got[3])

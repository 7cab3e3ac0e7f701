import numpy as np
import pytest

from multicate import (
    DataError,
    FactorModel,
    FitConfig,
    compute_weights,
    cv_loss,
    default_cv_grid,
    fit,
    fit_propensity_logistic,
    fit_wfull,
    fit_wmcm,
    fit_wmcm_l1,
    fit_wmcmrrr,
    objective,
    rct_weights,
    resolve_weights,
    update_loading_rows,
    update_orthogonal_factor,
    update_outlier_rows,
    validate_dataset,
)

from conftest import make_dataset


def test_weight_formula_frozen_values():
    # a_i = 1/sqrt(T pi + (1-T)/2): pi=0.25 gives 2 treated, 2/sqrt(3) control
    w = compute_weights([1, -1], [0.25, 0.25])
    assert w.a[0] == pytest.approx(2.0, abs=1e-15)
    assert w.a[1] == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-15)


def test_rct_weights_are_sqrt2():
    w = rct_weights(7)
    assert np.all(w.a == np.sqrt(2.0))
    assert np.all(w.pi == 0.5)
    assert w.source == "rct_half"
    # the half-half propensity reproduces the same weights through the formula
    v = compute_weights([1, -1, 1], [0.5, 0.5, 0.5])
    assert np.allclose(v.a, np.sqrt(2.0), atol=1e-15)


@pytest.mark.parametrize("n", [1, 7, 300])
def test_rct_weights_have_full_effective_sample_size(n):
    w = rct_weights(n)
    # equal weights: (n a^2)^2 / (n a^4) = n, up to the rounding of sqrt(2)^2
    assert w.ess == pytest.approx(n, rel=1e-14)
    assert w.min == w.max == np.sqrt(2.0)


@pytest.mark.parametrize("n", [0, -3, 2.5, float("nan"), float("inf")])
def test_rct_weights_refuse_a_size_that_is_not_a_positive_integer(n):
    with pytest.raises(DataError, match=r"^n must be a positive integer, got "):
        rct_weights(n)


def test_rct_weights_take_an_integral_float_as_its_int():
    w = rct_weights(4.0)
    assert w.a.shape == w.pi.shape == (4,)
    assert np.array_equal(w.a, rct_weights(4).a)


def test_logistic_weight_summaries_hand_computed():
    # a saturated propensity model (intercept + one binary covariate): the
    # fit reproduces each group's treated share, 1/4 at x=0 and 3/4 at x=1.
    # Two subjects get a^2 = 1/(1/4) = 4 and six get a^2 = 1/(3/4) = 4/3,
    # so ESS = (2*4 + 6*4/3)^2 / (2*16 + 6*16/9) = 256 / (128/3) = 6.
    x = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
    T = np.array([1, -1, -1, -1, 1, 1, 1, -1], dtype=float)
    X = np.column_stack([np.ones(8), x])
    d = validate_dataset(X, np.arange(8.0)[:, None], T)
    w = resolve_weights(d, "logistic")
    assert w.source == "logistic_fit"
    assert w.ess == pytest.approx(6.0, rel=1e-6)
    assert w.min == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-6)
    assert w.max == pytest.approx(2.0, rel=1e-6)
    with pytest.raises(AttributeError):
        w.ess = 8.0


def test_compute_weights_validates():
    with pytest.raises(DataError):
        compute_weights([1, -1], [0.5, 1.0])
    with pytest.raises(DataError):
        compute_weights([1, -1, 1], [0.5, 0.5])


def test_logistic_recovers_propensities():
    rng = np.random.default_rng(7)
    n = 4000
    X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
    beta = np.array([0.3, 1.0, -0.5])
    pi = 1.0 / (1.0 + np.exp(-(X @ beta)))
    T = np.where(rng.random(n) < pi, 1.0, -1.0)
    pi_hat = fit_propensity_logistic(X, T)
    assert np.max(np.abs(pi_hat - pi)) < 0.06
    assert pi_hat.min() >= 1e-6 and pi_hat.max() <= 1 - 1e-6


def test_logistic_separable_data_clips_without_blowup():
    # perfectly separated: probabilities saturate at the clip bounds, weights finite
    X = np.array([[1.0, x] for x in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)])
    T = np.array([-1, -1, -1, 1, 1, 1], dtype=float)
    pi_hat = fit_propensity_logistic(X, T)
    assert np.all(np.isfinite(pi_hat))
    assert pi_hat.min() >= 1e-6 and pi_hat.max() <= 1 - 1e-6
    w = compute_weights(T, pi_hat)
    assert np.all(np.isfinite(w.a))


def test_resolve_weights_sources():
    d = validate_dataset(np.ones((4, 1)), np.ones((4, 1)), [1, -1, 1, -1],
                         propensity=[0.3, 0.3, 0.7, 0.7])
    assert resolve_weights(d, "rct").source == "rct_half"
    known = resolve_weights(d, "known")
    assert known.a[0] == pytest.approx(1 / np.sqrt(0.3))
    assert known.a[1] == pytest.approx(1 / np.sqrt(0.7))
    d2 = validate_dataset(np.ones((4, 1)), np.ones((4, 1)), [1, -1, 1, -1])
    with pytest.raises(DataError, match="known"):
        resolve_weights(d2, "known")
    with pytest.raises(DataError, match="unknown"):
        resolve_weights(d, "sieve")


def _model(d):
    return FactorModel(W=np.ones((d.n_features, 1)), V=np.eye(d.q)[:, :1],
                       C=np.zeros((d.n, d.q)), rank=1)


# every entry point that takes per-subject weights, as (dataset, weights) -> result
WEIGHTED_CALLS = {
    "fit": lambda d, a: fit(d, a, FitConfig(rank=1)),
    "fit_wmcmrrr": lambda d, a: fit_wmcmrrr(d, a, 1),
    "fit_wmcm": lambda d, a: fit_wmcm(d, a, 1.0),
    "fit_wfull": lambda d, a: fit_wfull(d, a, 1.0),
    "fit_wmcm_l1": lambda d, a: fit_wmcm_l1(d, a, 1.0),
    "objective": lambda d, a: objective(_model(d), d, a, FitConfig(rank=1)),
    "default_cv_grid": lambda d, a: default_cv_grid(d, a),
    "cv_loss": lambda d, a: cv_loss(_model(d), d, a),
    "update_outlier_rows": lambda d, a: update_outlier_rows(
        _model(d).C, d, a, _model(d).W, _model(d).V, 1.0),
    "update_loading_rows": lambda d, a: update_loading_rows(
        _model(d).W, d, a, _model(d).C, _model(d).V, 1.0),
    "update_orthogonal_factor": lambda d, a: update_orthogonal_factor(
        _model(d).W, d, a, _model(d).C),
}


@pytest.mark.parametrize("call", WEIGHTED_CALLS.values(), ids=WEIGHTED_CALLS.keys())
def test_weight_count_must_match_rows(call):
    d, _ = make_dataset(40, 3, 2, seed=9)
    call(d, np.ones(d.n))
    with pytest.raises(DataError, match="weights have 39 entries, expected 40"):
        call(d, np.ones(39))

"""Every entry point that takes a solver setting rejects an invalid one with a
DataError naming it, before any fitting starts."""

import inspect
import re

import numpy as np
import pytest

import multicate
from multicate import (
    CvGrid,
    DataError,
    FitConfig,
    ScenarioSpec,
    fit,
    fit_batch,
    fit_wfull,
    fit_wmcm,
    fit_wmcm_l1,
    fit_wmcmrrr,
    kfold_split,
    run_scenario,
    update_loading_rows,
    update_outlier_rows,
)

from conftest import make_dataset

# block-update inputs for make_dataset(20, 3, 2): W (p+1, r), V (q, r), C (n, q)
W, V, C = np.ones((4, 1)), np.array([[1.0], [0.0]]), np.zeros((20, 2))
# the settings a FitConfig holds, and those a baseline takes through its cfg
CFG = ("rank", "lambda_w", "phi_c", "outer_tol", "inner_tol", "max_outer", "max_inner")
LOOP = ("outer_tol", "inner_tol", "max_outer", "max_inner")


def _cfg(**settings):
    return FitConfig(**{"rank": 1, **settings})


# every entry point that takes solver settings, as
# (call(d, a, **settings), the settings it takes)
SETTINGS_CALLS = {
    "FitConfig": (lambda d, a, **s: _cfg(**s), CFG),
    "fit": (lambda d, a, **s: fit(d, a, _cfg(**s)), CFG),
    "fit_batch": (lambda d, a, **s: fit_batch(d, a, [_cfg(), _cfg(**s)]), CFG),
    "fit_wmcmrrr": (lambda d, a, rank=1, lambda_w=1.0, **s: fit_wmcmrrr(
        d, a, rank, lambda_w, _cfg(**s)), ("rank", "lambda_w") + LOOP),
    "fit_wmcm": (lambda d, a, lambda_w=1.0, **s: fit_wmcm(d, a, lambda_w, _cfg(**s)),
                 ("lambda_w",) + LOOP),
    "fit_wfull": (lambda d, a, lambda_w=1.0, **s: fit_wfull(d, a, lambda_w, _cfg(**s)),
                  ("lambda_w",) + LOOP),
    "fit_wmcm_l1": (lambda d, a, lambda_w=1.0, **s: fit_wmcm_l1(d, a, lambda_w, _cfg(**s)),
                    ("lambda_w",) + LOOP),
    "update_loading_rows": (lambda d, a, lambda_w=1.0, **s: update_loading_rows(
        W, d, a, C, V, lambda_w, **s), ("lambda_w", "inner_tol", "max_inner")),
    "update_outlier_rows": (lambda d, a, phi_c=1.0: update_outlier_rows(C, d, a, W, V, phi_c),
                            ("phi_c",)),
    "CvGrid": (lambda d, a, lambda_w=0.1, phi_c=0.1, rank=1, folds=5, seed=0: CvGrid(
        lambdas=(lambda_w,), phis=(phi_c,), ranks=(rank,), folds=folds, seed=seed),
        ("lambda_w", "phi_c", "rank", "folds", "seed")),
    "kfold_split": (lambda d, a, folds=2, seed=0: kfold_split(d.T, folds, seed),
                    ("folds", "seed")),
    "ScenarioSpec": (lambda d, a, seed=0: ScenarioSpec(scenario=1, seed=seed), ("seed",)),
}

# per setting: the rule its message states and values that break it
RULES = {
    "rank": ("a positive integer", (0, 2.5, np.nan, "1", None)),
    "max_outer": ("a positive integer", (0, 2.5, np.nan, "1", None)),
    "max_inner": ("a positive integer", (0, 2.5, np.nan, "1", None)),
    "outer_tol": ("finite and positive", (0.0, -1.0, np.inf, "1", None)),
    "inner_tol": ("finite and positive", (0.0, -1.0, np.inf, "1", None)),
    "lambda_w": ("finite and nonnegative", (-1.0, np.nan, np.inf, "1", None)),
    "phi_c": ("finite and nonnegative", (-1.0, np.nan, np.inf, "1", None)),
    "folds": ("a positive integer", (0, 2.5, np.nan, "1", None)),
    "seed": ("a nonnegative integer", (-1, 2.5, np.nan, "1", None)),
}
CASES = {f"{entry}-{name}": (entry, name)
         for entry, (_, names) in SETTINGS_CALLS.items() for name in names}


@pytest.mark.parametrize("entry, name", CASES.values(), ids=CASES.keys())
def test_invalid_setting_raises_data_error_naming_it(entry, name):
    d, _ = make_dataset(20, 3, 2, seed=4)
    call, _ = SETTINGS_CALLS[entry]
    rule, bad = RULES[name]
    for value in bad:
        message = f"{name} must be {rule}, got {value}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            call(d, np.ones(d.n), **{name: value})


def test_every_entry_point_with_a_setting_is_in_the_table():
    settings = {"lambda_w", "phi_c", "inner_tol", "max_inner", "outer_tol", "max_outer"}
    takes = set()
    for name in multicate.__all__:
        obj = getattr(multicate, name)
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # not callable, or no signature
            continue
        if settings & set(params):
            takes.add(name)
    assert {"FitConfig", "fit_wmcm", "update_loading_rows", "update_outlier_rows"} <= takes
    assert takes <= set(SETTINGS_CALLS)


def test_fold_count_and_seed_edges():
    d, _ = make_dataset(20, 3, 2, seed=4)
    with pytest.raises(DataError, match="^need at least two folds$"):
        CvGrid(lambdas=(0.1,), phis=(0.1,), ranks=(1,), folds=1)
    grid = CvGrid(lambdas=(0.1,), phis=(0.1,), ranks=(1,), folds=3.0, seed=2**70)
    assert grid.folds == 3 and isinstance(grid.folds, int)
    assert np.array_equal(kfold_split(d.T, grid.folds, grid.seed), kfold_split(d.T, 3, 2**70))
    assert ScenarioSpec(scenario=1, seed=np.int64(7)).seed == 7


@pytest.mark.parametrize("allow", [False, True])
def test_design_levels_are_real_numbers(allow):
    # before the standard design compares them, with or without that check
    for name in ("g", "tau_pct", "b", "z"):
        for value in ("0", None):
            with pytest.raises(DataError, match=f"^{name} must be a real number, got {value}$"):
                ScenarioSpec(scenario=1, allow_nonstandard=allow, **{name: value})


def test_integral_float_settings_are_stored_as_ints():
    # they pass the positive-integer rule, so the fit must take them as ints
    d, _ = make_dataset(30, 3, 3, seed=4)
    cfg = FitConfig(rank=2.0, lambda_w=1.0, max_outer=5.0, max_inner=7.0)
    assert all(type(getattr(cfg, k)) is int for k in ("rank", "max_outer", "max_inner"))
    assert cfg == FitConfig(rank=2, lambda_w=1.0, max_outer=5, max_inner=7)
    model = fit(d, np.ones(d.n), cfg)  # a bare TypeError when they stay floats
    assert model.W.shape == (4, 2) and model.trace.n_outer <= 5
    sizes = {"n": 60.0, "n_test": 40.0, "q": 4.0, "p": 10.0, "replications": 1.0,
             "seed": np.int64(3)}
    spec = ScenarioSpec(scenario=1, **sizes)
    assert all(type(getattr(spec, k)) is int for k in sizes)
    assert spec.scenario_id == ScenarioSpec(scenario=1, p=10).scenario_id
    assert run_scenario(spec, ["mcm"]) == run_scenario(
        ScenarioSpec(scenario=1, n=60, n_test=40, q=4, p=10, replications=1, seed=3), ["mcm"])

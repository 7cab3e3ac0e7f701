"""Synthetic-data harness for the simulation study.

Data model per subject: x = (1, x*)' with x* equicorrelated standard normal;
y = (B'x) o (B'x) + T (Gamma'x)/2 + e, with equicorrelated noise of variance
2 per outcome. A fraction of rows is replaced wholesale by uniform(15, 20)
contamination. Four coefficient patterns are supported: random rank 1,
random rank 2, fixed sparse rank 1, fixed sparse rank 2.

Replications are independent tasks: replication j of a run with master seed
s uses the generator seeded by SeedSequence([s, j]), so any subset can be
reproduced in isolation and assembly order is irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import DataError, Dataset, FitConfig, NumericalError, _check_settings, validate_dataset
from .metrics import METRIC_ORDER, evaluate
from .model_selection import (
    _ESTIMATORS,
    GRID_FOLDS,
    GRID_POINTS,
    METHOD_ALIASES,
    CvGrid,
    _fold_parts,
    _method_grid,
    _shared_cv,
    _stack_cv,
    cross_validate,
    default_cv_grid,
)
from .weights import resolve_weights

B_SMALL = 6.0 ** -0.5
B_LARGE = 3.0 ** -0.5

# rank of the true coefficient matrix per pattern id
TRUE_RANK = {1: 1, 2: 2, 3: 1, 4: 2}
# run_scenario: the most doubles a chunk of replications may hold for its
# stacked descents, chiefly their offsets C and residuals D (16 MiB)
_STACK_DOUBLES = 1 << 21

# the standard design's values of each field ScenarioSpec holds to it
_STANDARD = {"p": (10, 50), "g": (0.0, 1.0 / 3.0), "tau_pct": (0.0, 5.0, 10.0),
             "b": (B_SMALL, B_LARGE), "z": (0.0, 1.0 / 3.0)}


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the simulation design.

    The canonical design points are p in {10, 50}, g in {0, 1/3}, tau_pct in
    {0, 5, 10}, b in {6^-1/2, 3^-1/2}, z in {0, 1/3}, scenario in 1..4 and
    design in {rct, observational}; other values require
    ``allow_nonstandard=True``.
    """

    scenario: int
    p: int = 10
    g: float = 0.0
    tau_pct: float = 0.0
    b: float = B_SMALL
    z: float = 0.0
    design: str = "rct"
    n: int = 300
    n_test: int = 1000
    q: int = 10
    replications: int = 100
    seed: int = 0
    name: str | None = None
    allow_nonstandard: bool = False

    def __post_init__(self):
        if self.scenario not in TRUE_RANK:
            raise DataError(f"unknown coefficient pattern {self.scenario}")
        if self.design not in ("rct", "observational"):
            raise DataError(f"design must be 'rct' or 'observational', got {self.design!r}")
        sizes = ("n", "n_test", "q", "p", "replications", "seed")
        levels = ("g", "tau_pct", "b", "z")  # real numbers, before _STANDARD compares them
        _check_settings(**{name: getattr(self, name) for name in sizes + levels})
        for name in sizes:  # 60.0 passes the check
            object.__setattr__(self, name, int(getattr(self, name)))
        for fname, values in () if self.allow_nonstandard else _STANDARD.items():
            if not any(math.isclose(getattr(self, fname), v) for v in values):
                raise DataError(
                    f"{fname}={getattr(self, fname)} is outside the standard design; "
                    "pass allow_nonstandard=True to run it anyway"
                )

    @property
    def scenario_id(self) -> str:
        if self.name:
            return self.name
        return (f"s{self.scenario}_p{self.p}_g{self.g:g}_tau{self.tau_pct:g}"
                f"_b{self.b:.4g}_z{self.z:g}_{self.design}")


@dataclass(frozen=True)
class SimulatedTruth:
    """One replication's data plus everything needed to score it."""

    dataset: Dataset
    gamma_true: np.ndarray
    B_true: np.ndarray
    outlier_rows: np.ndarray
    X_test: np.ndarray
    cate_test: np.ndarray


def generate_covariates(n: int, p: int, g: float, rng) -> np.ndarray:
    """n x (p+1) design: intercept column then equicorrelated N(0,1) covariates."""
    if not 0.0 <= g < 1.0:
        raise DataError(f"covariate correlation g must be in [0, 1), got {g}")
    sigma = (1.0 - g) * np.eye(p) + g * np.ones((p, p))
    L = np.linalg.cholesky(sigma)
    xs = rng.standard_normal((n, p)) @ L.T
    return np.hstack([np.ones((n, 1)), xs])


def make_main_effect(p: int, q: int, b: float) -> np.ndarray:
    """Main-effect matrix: value b on covariates 3..10 for every outcome."""
    if p < 10:
        raise DataError(f"main-effect pattern needs p >= 10, got {p}")
    B = np.zeros((p + 1, q))
    B[3:11, :] = b
    return B


def generate_gamma(scenario: int, p: int, q: int, rng) -> np.ndarray:
    """True effect matrix, (p+1) x q with a zero intercept row.

    Patterns 1/2 are random rank 1/2 with uniform(0, 1) factor entries;
    patterns 3/4 are the fixed sparse rank 1/2 designs (first four covariates
    and outcomes active; pattern 4 adds covariates/outcomes 3..6).
    """
    if scenario in (1, 2):
        star = np.outer(rng.uniform(0.0, 1.0, p), rng.uniform(0.0, 1.0, q))
        if scenario == 2:
            star = star + np.outer(rng.uniform(0.0, 1.0, p), rng.uniform(0.0, 1.0, q))
    elif scenario in (3, 4):
        need = 4 if scenario == 3 else 6
        if p < need or q < need:
            raise DataError(f"pattern {scenario} needs p >= {need} and q >= {need}")
        star = np.zeros((p, q))
        star[:4, :4] = 1.0
        if scenario == 4:
            star[2:6, 2:6] += 1.0
    else:
        raise DataError(f"unknown coefficient pattern {scenario}")
    return np.vstack([np.zeros((1, q)), star])


def generate_outcomes(X, gamma_true, B_true, T, z: float, rng) -> np.ndarray:
    """Outcomes from squared main effects, the treatment term, and correlated noise."""
    X = np.asarray(X, dtype=float)
    q = np.asarray(gamma_true).shape[1]
    main = X @ B_true
    main = main * main
    te = (np.asarray(T, float) / 2.0)[:, None] * (X @ gamma_true)
    sigma_e = (2.0 - z) * np.eye(q) + z * np.ones((q, q))
    vals, vecs = np.linalg.eigh(sigma_e)
    if vals.min() <= 0:
        raise DataError(f"noise covariance is not positive definite (z={z})")
    root = (vecs * np.sqrt(vals)) @ vecs.T
    eps = rng.standard_normal((X.shape[0], q)) @ root
    return main + te + eps


def inject_outliers(Y, tau_pct: float, rng):
    """Replace round(n*tau/100) whole rows with uniform(15, 20) contamination.

    Returns the contaminated copy and the sorted affected row indices.
    """
    if not 0.0 <= tau_pct < 100.0:
        raise DataError(f"contamination percentage must be in [0, 100), got {tau_pct}")
    Y = np.array(Y, dtype=float, copy=True)
    n = Y.shape[0]
    k = round(n * tau_pct / 100.0)
    rows = np.sort(rng.choice(n, size=k, replace=False)) if k else np.empty(0, dtype=int)
    if k:
        Y[rows] = rng.uniform(15.0, 20.0, size=(k, Y.shape[1]))
    return Y, rows


def assign_treatment(X, design: str, rng):
    """Treatment labels in {-1,+1} and the assignment probabilities P(T=+1|x).

    rct: half-half coin flips. observational: P = 1/(1 + exp(x_1 + ... + x_5))
    on the raw first five covariates.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if design == "rct":
        pi = np.full(n, 0.5)
    elif design == "observational":
        if X.shape[1] < 6:
            raise DataError("observational assignment needs at least five covariates")
        pi = 1.0 / (1.0 + np.exp(X[:, 1:6].sum(axis=1)))
    else:
        raise DataError(f"design must be 'rct' or 'observational', got {design!r}")
    T = np.where(rng.random(n) < pi, 1.0, -1.0)
    return T, pi


def generate_truth(spec: ScenarioSpec, rng) -> SimulatedTruth:
    """One replication's training data and test-set truth.

    Draw order is fixed (covariates, effect pattern, treatment, noise,
    contamination, test covariates) so runs are bit-reproducible.
    """
    X = generate_covariates(spec.n, spec.p, spec.g, rng)
    gamma = generate_gamma(spec.scenario, spec.p, spec.q, rng)
    B = make_main_effect(spec.p, spec.q, spec.b)
    T, pi = assign_treatment(X, spec.design, rng)
    Y = generate_outcomes(X, gamma, B, T, spec.z, rng)
    Y, rows = inject_outliers(Y, spec.tau_pct, rng)
    X_test = generate_covariates(spec.n_test, spec.p, spec.g, rng)
    d = validate_dataset(X, Y, T, propensity=pi)
    return SimulatedTruth(dataset=d, gamma_true=gamma, B_true=B, outlier_rows=rows,
                          X_test=X_test, cate_test=X_test @ gamma)


def run_scenario(spec: ScenarioSpec, methods, *, cv: bool = False,
                 grid: CvGrid | None = None, cfg: FitConfig | None = None) -> list:
    """Run all replications of one scenario for the named methods.

    Without CV every method is fit at the pattern's true rank with the
    penalties from ``cfg`` (default: none). With CV each method selects its
    own hyperparameters per replication via stratified five-fold CV.

    Returns rows (dicts) with keys scenario_id, replication, method, metric,
    value. A failed fit yields one row with metric="error" and value=1.0 for
    that method; other methods in the replication still run. Weights are
    resolved once per replication; if that fails, every method gets its
    error row. The weights follow the design: constant for an RCT, a
    logistic propensity fit for an observational one.

    Replications run in chunks, each drawn, weighted and given its fit
    setting first: with CV its grid and its folds with their weights, which
    every method shares; without, its configuration at the true rank. A
    replication whose setting or folds fail errors every method, alone.
    Then each method is fit for the whole chunk by one lockstep stack (its
    ``_ESTIMATORS`` entry's: the solver's descent for wmcmr4 and wmcmrrr,
    ``baselines._fit_stack`` for wmcm and wfull, ``baselines._fit_l1_stack``
    for wmcml1): on every replication's dataset without CV, and with CV one
    stack per rank on every replication's training folds, whose selections
    ``_stack_cv`` stores for the per-replication ``cross_validate`` calls,
    one per requested name and replication, to return. A chunk holds as many
    replications as keep what it holds for them (chiefly the offsets C and
    residuals D of its descents, and their data) within ``_STACK_DOUBLES``
    doubles, and at least one. If a method's stack raises, its results for
    the chunk are dropped and it fits its replications one at a time; the
    other methods keep theirs. A problem's iterates do not depend on its
    stack, so the rows are those of one replication at a time, byte for
    byte.
    """
    names = []
    for name in methods:
        if str(name).lower() not in METHOD_ALIASES:
            raise DataError(f"unknown method {name!r}")
        names.append((name, METHOD_ALIASES[str(name).lower()]))
    run = _Run(spec, names, cv, grid, cfg if cfg is not None else FitConfig(rank=1),
               "rct" if spec.design == "rct" else "logistic")

    rows = []
    size = _chunk_size(run)
    for first in range(0, spec.replications, size):
        chunk = {rep: _draw(run, rep) for rep in range(first, min(first + size, spec.replications))}
        with _shared_cv():  # where each cross_validate call reads its stacked result
            fitted = _fit_chunk(chunk, run)
            for rep, drawn in chunk.items():
                rows += _replication_rows(rep, drawn, fitted, run)
    return rows


class _Run(NamedTuple):
    spec: ScenarioSpec
    names: list     # (requested name, its method) of each requested method
    cv: bool
    grid: CvGrid | None
    cfg: FitConfig  # the base configuration
    propensity: str


def _chunk_size(run: _Run) -> int:
    # replications per chunk, by the doubles one adds to a chunk: C and D per
    # training row (each subject trains in all folds but one) and grid point,
    # X, Y, Z = T X / 2 and G = A Z per training row, X and X Gamma per test row
    spec, grid = run.spec, run.grid
    if not run.cv:
        rows, points = spec.n, 1
    elif grid is None:
        rows, points = spec.n * (GRID_FOLDS - 1), GRID_POINTS ** 2
    else:
        rows, points = spec.n * (grid.folds - 1), len(grid.lambdas) * len(grid.phis)
    P, q = spec.p + 1, spec.q
    per_replication = rows * (2 * q * points + 3 * P + q) + spec.n_test * (P + q)
    return max(1, _STACK_DOUBLES // per_replication)


def _draw(run: _Run, rep):
    # replication rep's truth, weights, fit setting and CV folds, or None if any fails:
    # with CV its grid (the given one or its default grid) and its _fold_parts on it,
    # without its configuration at the pattern's true rank and no folds
    rng = np.random.default_rng(np.random.SeedSequence([run.spec.seed, rep]))
    try:
        truth = generate_truth(run.spec, rng)
        d = truth.dataset
        a = resolve_weights(d, run.propensity)
        if not run.cv:
            cfg = replace(run.cfg, rank=min(TRUE_RANK[run.spec.scenario], d.q, d.n_features))
            return truth, a, cfg, None
        grid = run.grid if run.grid is not None else default_cv_grid(d, a)
        return truth, a, grid, _fold_parts(d, grid, run.propensity)
    except (DataError, NumericalError):
        return None


def _fit_chunk(chunk, run: _Run) -> dict:
    """The stacked fits of a chunk's methods: without CV, each {(replication,
    method): gamma}; with CV, each replication's selection, stored by
    ``_stack_cv`` from its grid fits on the folds ``_draw`` built. A method
    whose stack raises keeps none of its fits, so each of its replications
    fits alone."""
    drawn = [(rep, x[0].dataset, *x[1:]) for rep, x in chunk.items() if x is not None]
    fitted = {}
    for method in dict.fromkeys(method for _, method in run.names):
        try:  # a stack of no replication raises DataError
            if run.cv:
                jobs = [(d, _method_grid(grid, method), parts) for _, d, _, grid, parts in drawn]
                _stack_cv(method, jobs, run.propensity, run.cfg)
            else:
                fits = _ESTIMATORS[method].stack([(d, a) for _, d, a, *_ in drawn],
                                                 [[cfg] for *_, cfg, _ in drawn])
                fitted.update({(drawn[g][0], method): model.gamma for g, _, model in fits})
        except (DataError, NumericalError):
            pass
    return fitted


def _replication_rows(rep, drawn, fitted, run: _Run) -> list:
    # one replication's rows; fitted holds the chunk's stacked gammas, and a replication
    # whose data, weights or fit setting failed (drawn None) errors every method
    rows = []
    for name, method in run.names:
        values = [("error", 1.0)]
        if drawn is not None:
            truth, a, setting, _ = drawn
            try:
                gamma_hat = fitted.get((rep, method))
                if gamma_hat is None:
                    gamma_hat = _fit_one(truth.dataset, a, setting, method, run)
                report = evaluate(gamma_hat, truth.X_test, truth.gamma_true)
                values = [(metric, getattr(report, metric)) for metric in METRIC_ORDER]
            except (DataError, NumericalError):
                pass
        rows += [{"scenario_id": run.spec.scenario_id, "replication": rep, "method": name,
                  "metric": metric, "value": value} for metric, value in values]
    return rows


def _fit_one(d, a, setting, method, run: _Run):
    # a replication's fit of one method alone: without CV at its configuration, the
    # setting; with CV at the point cross_validate selects on the method's grid
    if run.cv:
        lam, phi, rank = cross_validate(d, _method_grid(setting, method), method,
                                        propensity=run.propensity, cfg=run.cfg).best
        setting = replace(run.cfg, rank=rank, lambda_w=lam, phi_c=phi)
    return _ESTIMATORS[method].fit(d, a, setting).gamma

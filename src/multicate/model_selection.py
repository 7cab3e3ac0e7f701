"""Five-fold cross-validation over (lambda, phi, rank).

The selection loss on a held-out fold is the weighted squared prediction
error sum_i a_i^2 ||y_i - T_i V W^T x_i / 2||^2 with no penalty terms and no
outlier offsets: offsets are per-training-row artifacts and do not transfer
to unseen subjects.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import baselines
from .data import (DataError, Dataset, FactorModel, FitConfig, _check_rank, _check_settings,
                   assemble_design)
from .solver import _avec, _fit_groups, _weighted, fit as _fit_factor
from .weights import WeightVector, _logistic_irls, _propensity, compute_weights, resolve_weights


class _Estimator(NamedTuple):
    axes: tuple     # grid axes used besides lambda: "phi" (the C penalty), "rank"
    fit: Callable   # (d, a, cfg) -> model; cfg holds rank, lambda_w and phi_c
    # (parts, cfgs) -> an iterator of (g, j, model), cfgs[g][j] fit to parts[g] = (d, a)
    # in one lockstep stack, each model the one fit gives, bit for bit; checks when called
    stack: Callable


# Every estimator, named once. The fits and stacks look _fit_factor, _fit_groups
# and the baselines' functions up when called, so rebinding those module
# attributes reaches every caller.
_ESTIMATORS = {
    "wmcmr4": _Estimator(("phi", "rank"), lambda d, a, cfg: _fit_factor(d, a, cfg),
                         lambda parts, cfgs: _fit_groups(parts, cfgs)),
    "wmcmrrr": _Estimator(
        ("rank",), lambda d, a, cfg: baselines.fit_wmcmrrr(d, a, cfg.rank, cfg.lambda_w, cfg),
        lambda parts, cfgs: _fit_groups(parts, cfgs, update_c=False)),
    "wmcml1": _Estimator((), lambda d, a, cfg: baselines.fit_wmcm_l1(d, a, cfg.lambda_w, cfg),
                         lambda parts, cfgs: baselines._fit_l1_stack(parts, cfgs)),
    "wmcm": _Estimator((), lambda d, a, cfg: baselines.fit_wmcm(d, a, cfg.lambda_w, cfg),
                       lambda parts, cfgs: baselines._fit_stack("wmcm", parts, cfgs)),
    "wfull": _Estimator((), lambda d, a, cfg: baselines.fit_wfull(d, a, cfg.lambda_w, cfg),
                        lambda parts, cfgs: baselines._fit_stack("wfull", parts, cfgs)),
}
METHODS = tuple(_ESTIMATORS)
# names used when the design is a randomized trial (identity weights)
METHOD_ALIASES = {**{m: m for m in METHODS},
                  "mcmrrr": "wmcmrrr", "mcml1": "wmcml1", "mcm": "wmcm", "full": "wfull"}
# mean CV losses within this relative window of the minimum count as tied
TIE_TOL = 1e-6
# default_cv_grid: points per penalty axis, the largest rank and the folds
GRID_POINTS = 8
GRID_MAX_RANK = 5
GRID_FOLDS = 5


def _estimator(method) -> _Estimator:
    if method not in _ESTIMATORS:
        raise DataError(f"unknown method {method!r}; expected one of {METHODS}")
    return _ESTIMATORS[method]


@dataclass(frozen=True)
class CvGrid:
    """Candidate penalty levels and ranks plus the fold layout."""

    lambdas: tuple
    phis: tuple
    ranks: tuple
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "phis", tuple(float(v) for v in self.phis))
        ranks = tuple(self.ranks)
        if not self.lambdas or not self.phis or not ranks:
            raise DataError("grid axes must be non-empty")
        for name, values in (("lambda_w", self.lambdas), ("phi_c", self.phis), ("rank", ranks)):
            for v in values:
                _check_settings(**{name: v})
        object.__setattr__(self, "ranks", tuple(int(v) for v in ranks))
        _check_settings(folds=self.folds, seed=self.seed)
        if self.folds < 2:
            raise DataError("need at least two folds")
        object.__setattr__(self, "folds", int(self.folds))


@dataclass(frozen=True)
class CvResult:
    """Mean and per-fold losses over the grid, the winner, the fold layout,
    and how each fit stopped.

    mean_loss has shape (len(lambdas), len(phis), len(ranks));
    per_fold_loss appends a fold axis. n_outer, converged and w_capped,
    shaped like per_fold_loss, give each fit's outer iteration count, whether
    it converged before the max_outer cap, and its FitTrace.w_capped (0 for
    the baselines).
    """

    grid: CvGrid
    mean_loss: np.ndarray
    per_fold_loss: np.ndarray
    best: tuple
    best_index: tuple
    fold_assignment: np.ndarray
    n_outer: np.ndarray
    converged: np.ndarray
    w_capped: np.ndarray


def kfold_split(T, folds: int, seed: int) -> np.ndarray:
    """Deterministic fold ids stratified by treatment arm.

    Shuffles each arm with the seeded generator, then deals all subjects
    through one running round-robin counter, so fold sizes differ by at most
    one both overall and within each arm.
    """
    T = np.asarray(T, dtype=float).ravel()
    n = T.shape[0]
    _check_settings(folds=folds, seed=seed)
    if folds < 2 or folds > n:
        raise DataError(f"folds must be between 2 and n={n}")
    bad = (T != 1.0) & (T != -1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"T entry {T[i]} at row {i} is not a treatment label (+1 or -1)")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=int)
    counter = 0
    for arm in (1.0, -1.0):
        idx = np.flatnonzero(T == arm)
        if idx.size < folds:
            raise DataError(
                f"arm {arm:+.0f} has {idx.size} subjects, fewer than {folds} folds"
            )
        rng.shuffle(idx)
        assignment[idx] = (counter + np.arange(idx.size)) % folds
        counter += idx.size
    return assignment


def _gamma_loss(gamma, d: Dataset, a) -> float:
    R = _avec(a, d.n)[:, None] * (d.Y - assemble_design(d) @ gamma)
    return float(np.sum(R * R))


def cv_loss(model: FactorModel, d_heldout: Dataset, a_heldout) -> float:
    """Held-out weighted squared prediction error (no penalties, no offsets)."""
    return _gamma_loss(model.gamma, d_heldout, a_heldout)


def _subset(d: Dataset, idx) -> Dataset:
    pi = None if d.propensity is None else d.propensity[idx]
    return Dataset(X=d.X[idx], Y=d.Y[idx], T=d.T[idx], propensity=pi)


def _fold_weights(d_train, d_held, source):
    if source != "logistic":
        return resolve_weights(d_train, source), resolve_weights(d_held, source)
    # re-fit inside the training fold only; score both folds with it
    beta = _logistic_irls(d_train.X, (d_train.T + 1.0) / 2.0)
    return tuple(compute_weights(part.T, _propensity(part.X, beta), source="logistic_fit")
                 for part in (d_train, d_held))


def _method_grid(grid: CvGrid, method: str) -> CvGrid:
    # collapse the axes a method does not use
    axes = _estimator(method).axes
    if "phi" not in axes:
        grid = replace(grid, phis=(0.0,))
    if "rank" not in axes:
        grid = replace(grid, ranks=(grid.ranks[0],))
    return grid


class _Fold(NamedTuple):
    d_tr: Dataset
    a_tr: WeightVector
    d_he: Dataset
    a_he: WeightVector


# While _shared_cv() is active: the CvResult _stack_cv selected for a dataset,
# keyed by (id of the dataset, propensity, method, the grid asked for, cfg);
# each entry holds its dataset, so the id cannot be reused within the block.
_CV_MEMO: ContextVar = ContextVar("_CV_MEMO", default=None)


@contextmanager
def _shared_cv():
    """Within the block, ``cross_validate`` returns the result ``_stack_cv``
    stored for its dataset, grid, method, propensity and cfg, if any."""
    token = _CV_MEMO.set({})
    try:
        yield
    finally:
        _CV_MEMO.reset(token)


def _fold_parts(d: Dataset, grid: CvGrid, propensity: str):
    """The fold assignment and, per fold, the training and held-out subsets
    with their weights."""
    assignment = kfold_split(d.T, grid.folds, grid.seed)
    folds = []
    for f in range(grid.folds):
        held = assignment == f
        d_tr, d_he = _subset(d, ~held), _subset(d, held)
        a_tr, a_he = _fold_weights(d_tr, d_he, propensity)
        folds.append(_Fold(d_tr, a_tr, d_he, a_he))
    return assignment, folds


def _grid_fits(method, tasks, cfg):
    """For each (grid, folds) of tasks: the held-out loss, outer iterations,
    convergence and capped W blocks of every point of the grid fit on every
    training fold, each shaped (lambdas, phis, ranks, folds).

    Every method runs one lockstep stack per rank over the folds of every
    task whose grid holds it, with that task's penalties. Each model is
    scored as it arrives.
    """
    est = _estimator(method)
    out = [tuple(np.empty((len(g.lambdas), len(g.phis), len(g.ranks), len(folds)), t)
                 for t in (float, int, bool, int)) for g, folds in tasks]
    for rank in dict.fromkeys(r for g, _ in tasks for r in g.ranks):
        # (task, rank index, fold index, fold) of every training fold fit at this rank,
        # at each index the rank has in the task's grid
        parts = [(t, k, f, p) for t, (g, folds) in enumerate(tasks)
                 for k, r in enumerate(g.ranks) if r == rank for f, p in enumerate(folds)]
        cfgs = [[replace(cfg, rank=rank, lambda_w=lam, phi_c=phi)
                 for lam in g.lambdas for phi in g.phis] for g, _ in tasks]
        fits = est.stack([(p.d_tr, p.a_tr) for *_, p in parts], [cfgs[t] for t, *_ in parts])
        for i, j, model in fits:
            t, k, f, p = parts[i]
            loss, n_outer, converged, w_capped = out[t]
            at = (*divmod(j, len(tasks[t][0].phis)), k, f)
            loss[at] = _gamma_loss(model.gamma, p.d_he, p.a_he)
            tr = model.trace
            n_outer[at], converged[at], w_capped[at] = tr.n_outer, tr.converged, tr.w_capped
    return out


def _select(grid: CvGrid, fits, assignment, folds) -> CvResult:
    """The CV result over grid, the one place a CvResult is built, from the
    fits ``_grid_fits`` gave on folds for the method's own grid; they are
    broadcast over the axes the method ignores."""
    shape = (len(grid.lambdas), len(grid.phis), len(grid.ranks), grid.folds)
    per_fold, n_outer, converged, w_capped = (np.broadcast_to(v, shape).copy() for v in fits)
    zero = np.zeros((folds[0].d_he.n_features, folds[0].d_he.q))
    null_scale = sum(_gamma_loss(zero, part.d_he, part.a_he) for part in folds) / grid.folds

    mean_loss = per_fold.mean(axis=3)
    # losses within TIE_TOL of the minimum count as tied, measured against the
    # held-out outcome energy so near-zero losses still tie; parsimony
    # (smaller rank, then larger lambda, then larger phi) then decides
    cutoff = float(mean_loss.min()) * (1.0 + TIE_TOL) + TIE_TOL * null_scale
    # the first point in (lambda, phi, rank) order whose key is least; a NaN loss
    # is not above the cutoff
    best_idx = min((ix for ix in np.ndindex(mean_loss.shape) if not mean_loss[ix] > cutoff),
                   key=lambda ix: (grid.ranks[ix[2]], -grid.lambdas[ix[0]],
                                   -grid.phis[ix[1]], mean_loss[ix]))
    i, j, k = best_idx
    best = (grid.lambdas[i], grid.phis[j], grid.ranks[k])
    return CvResult(grid=grid, mean_loss=mean_loss, per_fold_loss=per_fold,
                    best=best, best_index=best_idx, fold_assignment=assignment,
                    n_outer=n_outer, converged=converged, w_capped=w_capped)


def _stack_cv(method, jobs, propensity: str, cfg: FitConfig) -> None:
    """Inside a ``_shared_cv`` block, fit a method's grid on the folds of
    every (d, grid, (assignment, folds)) of jobs, one lockstep stack per
    rank, and store each dataset's ``_select`` result, which
    ``cross_validate(d, grid, method, propensity, cfg)`` then returns. grid
    is the method's own (``_method_grid``) and the folds are
    ``_fold_parts(d, grid, propensity)``. If a fit raises, nothing is
    stored."""
    fits = _grid_fits(method, [(grid, folds) for _, grid, (_, folds) in jobs], cfg)
    _CV_MEMO.get().update({(id(d), propensity, method, grid, cfg): (d, _select(grid, fit, *parts))
                           for (d, grid, parts), fit in zip(jobs, fits)})


def cross_validate(d: Dataset, grid: CvGrid, method: str = "wmcmr4",
                   propensity: str = "rct", cfg: FitConfig | None = None) -> CvResult:
    """Grid search by stratified k-fold CV; deterministic given the grid seed.

    Ties in the mean loss break toward smaller rank, then larger lambda,
    then larger phi. The method's own grid (``_method_grid``) is fit, the
    points of one rank on all folds together by one lockstep stack, and its
    results are broadcast over the axes the method ignores; the losses equal
    those of fitting every grid point with ``fit`` or the baseline alone.
    Inside a ``_shared_cv`` block, the result ``_stack_cv`` stored for these
    arguments is returned instead; it equals the one computed here.
    """
    fit_grid = _method_grid(grid, method)  # raises on an unknown method
    if "rank" in _estimator(method).axes:  # before any fit; the folds share d's shape
        _check_rank(max(fit_grid.ranks), d.n_features, d.q)
    if cfg is None:
        cfg = FitConfig(rank=max(grid.ranks))
    stored = (_CV_MEMO.get() or {}).get((id(d), propensity, method, grid, cfg))
    if stored:
        return stored[1]
    assignment, folds = _fold_parts(d, grid, propensity)
    return _select(grid, _grid_fits(method, [(fit_grid, folds)], cfg)[0], assignment, folds)


def default_cv_grid(d: Dataset, a, folds: int = GRID_FOLDS, seed: int = 0) -> CvGrid:
    """Data-driven grid: GRID_POINTS penalties per axis, log-spaced over
    [1e-3, 1e1] times the smallest value that zeroes every row of the
    corresponding block, and ranks up to GRID_MAX_RANK."""
    a, G, Yw = _weighted(d, a)
    lam_max = 2.0 * float(np.max(np.linalg.norm(G.T @ Yw, axis=1)))
    phi_max = 2.0 * float(np.max(a * a * np.linalg.norm(d.Y, axis=1)))
    lam_max = lam_max if lam_max > 0 else 1.0
    phi_max = phi_max if phi_max > 0 else 1.0
    lambdas = np.geomspace(1e-3 * lam_max, 1e1 * lam_max, GRID_POINTS)
    phis = np.geomspace(1e-3 * phi_max, 1e1 * phi_max, GRID_POINTS)
    ranks = tuple(range(1, min(d.n_features, d.q, GRID_MAX_RANK) + 1))
    return CvGrid(lambdas=tuple(lambdas), phis=tuple(phis), ranks=ranks,
                  folds=folds, seed=seed)

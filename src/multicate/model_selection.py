"""Five-fold cross-validation over (lambda, phi, rank).

The selection loss on a held-out fold is the weighted squared prediction
error sum_i a_i^2 ||y_i - T_i V W^T x_i / 2||^2 with no penalty terms and no
outlier offsets: offsets are per-training-row artifacts and do not transfer
to unseen subjects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import baselines
from .data import DataError, Dataset, FactorModel, FitConfig, assemble_design
from .solver import _avec, fit as _fit_factor, fit_batch
from .weights import PROPENSITY_CLIP, WeightVector, _logistic_irls, compute_weights, rct_weights

METHODS = ("wmcmr4", "wmcmrrr", "wmcml1", "wmcm", "wfull")


@dataclass(frozen=True)
class CvGrid:
    """Candidate penalty levels and ranks plus the fold layout."""

    lambdas: tuple
    phis: tuple
    ranks: tuple
    folds: int = 5
    seed: int = 0
    tie_tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "phis", tuple(float(v) for v in self.phis))
        object.__setattr__(self, "ranks", tuple(int(v) for v in self.ranks))
        if not self.lambdas or not self.phis or not self.ranks:
            raise DataError("grid axes must be non-empty")
        if any(not np.isfinite(v) or v < 0 for v in self.lambdas + self.phis):
            raise DataError("lambda and phi grid values must be finite and nonnegative")
        if any(r < 1 for r in self.ranks):
            raise DataError("ranks must be positive integers")
        if self.folds < 2:
            raise DataError("need at least two folds")
        if not 0.0 <= self.tie_tol < 1.0:
            raise DataError("tie_tol must be in [0, 1)")


@dataclass(frozen=True)
class CvResult:
    """Mean and per-fold losses over the grid, the winner, and the fold layout.

    mean_loss has shape (len(lambdas), len(phis), len(ranks));
    per_fold_loss appends a fold axis.
    """

    grid: CvGrid
    mean_loss: np.ndarray
    per_fold_loss: np.ndarray
    best: tuple
    best_index: tuple
    fold_assignment: np.ndarray


def kfold_split(T, folds: int, seed: int) -> np.ndarray:
    """Deterministic fold ids stratified by treatment arm.

    Shuffles each arm with the seeded generator, then deals all subjects
    through one running round-robin counter, so fold sizes differ by at most
    one both overall and within each arm.
    """
    T = np.asarray(T, dtype=float).ravel()
    n = T.shape[0]
    if folds < 2 or folds > n:
        raise DataError(f"folds must be between 2 and n={n}")
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
        for i in idx:
            assignment[i] = counter % folds
            counter += 1
    return assignment


def _gamma_loss(gamma, d: Dataset, a) -> float:
    R = _avec(a)[:, None] * (d.Y - assemble_design(d) @ gamma)
    return float(np.sum(R * R))


def cv_loss(model: FactorModel, d_heldout: Dataset, a_heldout) -> float:
    """Held-out weighted squared prediction error (no penalties, no offsets)."""
    return _gamma_loss(model.gamma, d_heldout, a_heldout)


def _subset(d: Dataset, idx) -> Dataset:
    pi = None if d.propensity is None else d.propensity[idx]
    return Dataset(X=d.X[idx], Y=d.Y[idx], T=d.T[idx], propensity=pi)


def _fold_weights(d_train, d_held, source):
    if source == "rct":
        return rct_weights(d_train.n), rct_weights(d_held.n)
    if source == "known":
        if d_train.propensity is None:
            raise DataError("known-propensity weights requested but dataset has none")
        return (compute_weights(d_train.T, d_train.propensity),
                compute_weights(d_held.T, d_held.propensity))
    if source == "logistic":
        # re-fit inside the training fold only; score both folds with it
        beta = _logistic_irls(d_train.X, (d_train.T + 1.0) / 2.0)
        lo, hi = PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP
        pi_tr = np.clip(1.0 / (1.0 + np.exp(-(d_train.X @ beta))), lo, hi)
        pi_he = np.clip(1.0 / (1.0 + np.exp(-(d_held.X @ beta))), lo, hi)
        return (compute_weights(d_train.T, pi_tr, source="logistic_fit"),
                compute_weights(d_held.T, pi_he, source="logistic_fit"))
    raise DataError(f"unknown propensity source {source!r}")


def _fit_gamma(method, d, a, lam, phi, rank, cfg):
    if method == "wmcmr4":
        model = _fit_factor(d, a, replace(cfg, rank=rank, lambda_w=lam, phi_c=phi))
        return model.gamma
    if method == "wmcmrrr":
        return baselines.fit_wmcmrrr(d, a, rank, lam, cfg).gamma
    if method == "wmcm":
        return baselines.fit_wmcm(d, a, lam, cfg).gamma
    if method == "wmcml1":
        return baselines.fit_wmcm_l1(d, a, lam, cfg).gamma
    if method == "wfull":
        return baselines.fit_wfull(d, a, lam, cfg).gamma
    raise DataError(f"unknown method {method!r}")


def _grid_cells(grid: CvGrid, method: str) -> dict:
    # distinct fits of the grid, each mapped to the cells that share it:
    # wmcmrrr ignores phi, and the other baselines ignore phi and rank
    cells = {}
    for i, lam in enumerate(grid.lambdas):
        for j, phi in enumerate(grid.phis):
            for k, rank in enumerate(grid.ranks):
                point = (lam, phi if method == "wmcmr4" else None,
                         rank if method in ("wmcmr4", "wmcmrrr") else None)
                cells.setdefault(point, []).append((i, j, k))
    return cells


def _fold_gammas(method, d, a, points, cfg) -> dict:
    # coefficient matrix of each point fit on one training fold; the factor
    # methods run one lockstep batch per rank
    if method not in ("wmcmr4", "wmcmrrr"):
        return {pt: _fit_gamma(method, d, a, pt[0], 0.0, cfg.rank, cfg) for pt in points}
    gammas = {}
    for rank in dict.fromkeys(pt[2] for pt in points):
        batch = [pt for pt in points if pt[2] == rank]
        cfgs = [replace(cfg, rank=rank, lambda_w=lam, phi_c=phi or 0.0) for lam, phi, _ in batch]
        models = fit_batch(d, a, cfgs, update_c=method == "wmcmr4")
        gammas.update(zip(batch, (m.gamma for m in models)))
    return gammas


def cross_validate(d: Dataset, grid: CvGrid, method: str = "wmcmr4",
                   propensity: str = "rct", cfg: FitConfig | None = None) -> CvResult:
    """Grid search by stratified k-fold CV; deterministic given the grid seed.

    Ties in the mean loss break toward smaller rank, then larger lambda,
    then larger phi. On each fold, the points of one rank are fit together
    by ``fit_batch``, and a point repeated because the method ignores phi
    (and rank) is fit once; the losses equal those of fitting every grid
    point with ``fit`` or the baseline alone.
    """
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}; expected one of {METHODS}")
    if cfg is None:
        cfg = FitConfig(rank=max(grid.ranks))
    assignment = kfold_split(d.T, grid.folds, grid.seed)
    shape = (len(grid.lambdas), len(grid.phis), len(grid.ranks), grid.folds)
    per_fold = np.empty(shape)
    cells = _grid_cells(grid, method)

    null_scale = 0.0
    for f in range(grid.folds):
        held = assignment == f
        d_tr, d_he = _subset(d, ~held), _subset(d, held)
        a_tr, a_he = _fold_weights(d_tr, d_he, propensity)
        null_scale += _gamma_loss(np.zeros((d.n_features, d.q)), d_he, a_he)
        for point, gamma in _fold_gammas(method, d_tr, a_tr, list(cells), cfg).items():
            loss = _gamma_loss(gamma, d_he, a_he)
            for i, j, k in cells[point]:
                per_fold[i, j, k, f] = loss
    null_scale /= grid.folds

    mean_loss = per_fold.mean(axis=3)
    # losses within tie_tol of the minimum count as tied, measured against the
    # held-out outcome energy so near-zero losses still tie; parsimony
    # (smaller rank, then larger lambda, then larger phi) then decides
    cutoff = float(mean_loss.min()) * (1.0 + grid.tie_tol) + grid.tie_tol * null_scale
    best_key, best_idx = None, None
    for i, lam in enumerate(grid.lambdas):
        for j, phi in enumerate(grid.phis):
            for k, rank in enumerate(grid.ranks):
                if mean_loss[i, j, k] > cutoff:
                    continue
                key = (rank, -lam, -phi, mean_loss[i, j, k])
                if best_key is None or key < best_key:
                    best_key, best_idx = key, (i, j, k)
    i, j, k = best_idx
    best = (grid.lambdas[i], grid.phis[j], grid.ranks[k])
    return CvResult(grid=grid, mean_loss=mean_loss, per_fold_loss=per_fold,
                    best=best, best_index=best_idx, fold_assignment=assignment)


def default_cv_grid(d: Dataset, a, folds: int = 5, seed: int = 0,
                    n_points: int = 8, max_rank: int = 5) -> CvGrid:
    """Data-driven grid: penalties log-spaced over [1e-3, 1e1] times the
    smallest value that zeroes every row of the corresponding block."""
    a = _avec(a)
    Z = assemble_design(d)
    G = a[:, None] * Z
    Yw = a[:, None] * d.Y
    lam_max = 2.0 * float(np.max(np.linalg.norm(G.T @ Yw, axis=1)))
    phi_max = 2.0 * float(np.max(a * a * np.linalg.norm(d.Y, axis=1)))
    lam_max = lam_max if lam_max > 0 else 1.0
    phi_max = phi_max if phi_max > 0 else 1.0
    lambdas = np.geomspace(1e-3 * lam_max, 1e1 * lam_max, n_points)
    phis = np.geomspace(1e-3 * phi_max, 1e1 * phi_max, n_points)
    ranks = tuple(range(1, min(d.n_features, d.q, max_rank) + 1))
    return CvGrid(lambdas=tuple(lambdas), phis=tuple(phis), ranks=ranks,
                  folds=folds, seed=seed)

"""Reference estimators the main method is compared against.

All four share the modified-covariate design z_i = T_i x_i / 2 and the
weighted fidelity ||A(Y - Z Gamma)||_F^2; they differ in loss shape and
structure:

* ``fit_wmcmrrr``  - reduced rank, no outlier offsets (C frozen at zero);
* ``fit_wmcm_l1``  - elementwise absolute loss, row-sparse Gamma;
* ``fit_wmcm``     - squared loss, row-sparse Gamma;
* ``fit_wfull``    - squared loss with explicit main-effect term X B.

In a half-half randomized trial the weights are constant, so these reduce to
their unweighted versions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, FitConfig, NumericalError, assemble_design
from .solver import FitTrace, _avec, _row_norms, _sweep_one, _weighted, fit as _fit_factor

HUBER_DELTA = 1e-4


@dataclass(frozen=True)
class BaselineModel:
    """Fitted baseline: coefficient matrix, method tag, optional main effects."""

    gamma: np.ndarray
    method: str
    B: np.ndarray | None = None
    trace: "FitTrace | None" = field(default=None, compare=False, repr=False)


def _outer_loop(step, obj, outer_tol, cap) -> FitTrace:
    """Run step() until the decrease of obj() falls below outer_tol times the
    initial objective, or cap times; return the objective trace."""
    objs = [obj()]
    thresh = outer_tol * (objs[0] if objs[0] > 0 else 1.0)
    converged = False
    for _ in range(cap):
        step()
        objs.append(obj())
        if objs[-2] - objs[-1] < thresh:
            converged = True
            break
    return FitTrace(objective=np.asarray(objs), converged=converged, n_outer=len(objs) - 1)


def fit_wmcmrrr(d: Dataset, a, rank: int, lambda_w: float = 0.0,
                cfg: FitConfig | None = None) -> BaselineModel:
    """Reduced-rank row-sparse fit without the outlier offsets.

    Same alternating solver as the main method with the C block frozen at
    zero and no offset penalty.
    """
    cfg = replace(cfg or FitConfig(rank=rank), rank=rank, lambda_w=lambda_w, phi_c=0.0)
    model = _fit_factor(d, a, cfg, update_c=False)
    return BaselineModel(gamma=model.gamma, method="wmcmrrr", trace=model.trace)


def fit_wmcm(d: Dataset, a, lambda_w: float, cfg: FitConfig | None = None) -> BaselineModel:
    """Row-sparse multivariate fit: min ||A(Y - Z Gamma)||_F^2 + lambda ||Gamma||_{2,1}.

    Cyclic exact row updates; the recorded objective is non-increasing.
    """
    cfg = replace(cfg or FitConfig(rank=1), lambda_w=lambda_w)
    _, G, Yw = _weighted(d, a)
    gram, T0 = G.T @ G, G.T @ Yw
    gamma = np.zeros((d.n_features, d.q))

    def step():
        _sweep_one(gram, T0, gamma, lambda_w / 2.0, cfg.inner_tol, 1)

    def obj():
        R = Yw - G @ gamma
        return float(np.sum(R * R)) + lambda_w * _row_norms(gamma).sum()

    trace = _outer_loop(step, obj, cfg.outer_tol, cfg.max_outer)
    return BaselineModel(gamma=gamma, method="wmcm", trace=trace)


def fit_wfull(d: Dataset, a, lambda_w: float, cfg: FitConfig | None = None) -> BaselineModel:
    """Row-sparse fit with explicit main effects:

        min ||A(Y - X B - Z Gamma)||_F^2 + lambda ||Gamma||_{2,1}

    alternating an exact weighted least-squares solve for B with cyclic row
    updates for Gamma.
    """
    a = _avec(a, d.n)
    cfg = replace(cfg or FitConfig(rank=1), lambda_w=lambda_w)
    X, Y, Z = d.X, d.Y, assemble_design(d)
    aa = a * a
    G = a[:, None] * Z
    gram = G.T @ G
    H = X.T @ (X * aa[:, None])
    gamma = np.zeros((d.n_features, d.q))
    B = np.zeros((d.n_features, d.q))

    def step():
        rhs = X.T @ ((Y - Z @ gamma) * aa[:, None])
        try:
            B[...] = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            warnings.warn("singular main-effect normal equations; ridge jitter applied",
                          RuntimeWarning, stacklevel=3)
            B[...] = np.linalg.solve(H + 1e-8 * np.eye(H.shape[0]), rhs)
        T0 = G.T @ (a[:, None] * (Y - X @ B))
        _sweep_one(gram, T0, gamma, lambda_w / 2.0, cfg.inner_tol, cfg.max_inner)

    def obj():
        R = a[:, None] * (Y - X @ B - Z @ gamma)
        return float(np.sum(R * R)) + lambda_w * _row_norms(gamma).sum()

    trace = _outer_loop(step, obj, cfg.outer_tol, cfg.max_outer)
    return BaselineModel(gamma=gamma, method="wfull", B=B, trace=trace)


def fit_wmcm_l1(d: Dataset, a, lambda_w: float, cfg: FitConfig | None = None) -> BaselineModel:
    """Absolute-loss row-sparse fit: min ||A(Y - Z Gamma)||_{1,1} + lambda ||Gamma||_{2,1}.

    The elementwise absolute loss is smoothed by a narrow Huber function
    (delta = 1e-4) and minimized by proximal gradient with a backtracking
    line search; the recorded objective is the smoothed surrogate, which is
    non-increasing. Raises NumericalError if the cap of max_outer * max_inner
    iterations is hit.
    """
    cfg = replace(cfg or FitConfig(rank=1), lambda_w=lambda_w)
    _, G, Yw = _weighted(d, a)
    gamma = np.zeros((d.n_features, d.q))
    delta = HUBER_DELTA

    def smooth_loss(R):
        absr = np.abs(R)
        quad = absr <= delta
        return float(np.sum(np.where(quad, R * R / (2.0 * delta), absr - delta / 2.0)))

    def prox(P, t):
        # group soft threshold of every row: fmax maps 0/0 to 0, + 0.0 maps -0.0 to 0.0
        nv = np.sqrt(np.vecdot(P, P, keepdims=True))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.fmax(1.0 - t / nv, 0.0) * P + 0.0

    R = Yw - G @ gamma
    loss = smooth_loss(R)
    eta = 1.0

    def step():
        nonlocal gamma, R, loss, eta
        grad = -G.T @ np.clip(R / delta, -1.0, 1.0)
        while True:
            cand = prox(gamma - eta * grad, eta * lambda_w)
            move = cand - gamma
            R_cand = Yw - G @ cand
            lhs = smooth_loss(R_cand)
            rhs = loss + float(np.sum(grad * move)) + float(np.sum(move * move)) / (2.0 * eta)
            if lhs <= rhs + 1e-12 * (1.0 + abs(loss)):
                break
            eta *= 0.5
            if eta < 1e-20:
                raise NumericalError("line search failed in absolute-loss fit")
        gamma, R, loss = cand, R_cand, lhs
        eta *= 1.5

    def obj():
        return loss + lambda_w * _row_norms(gamma).sum()

    cap = cfg.max_outer * cfg.max_inner
    trace = _outer_loop(step, obj, cfg.outer_tol, cap)
    if not trace.converged:
        raise NumericalError(f"absolute-loss fit did not converge in {cap} iterations")
    return BaselineModel(gamma=gamma, method="wmcml1", trace=trace)

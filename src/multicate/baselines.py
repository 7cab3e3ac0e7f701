"""Reference estimators the main method is compared against.

All four share the modified-covariate design z_i = T_i x_i / 2 and the
weighted fidelity ||A(Y - Z Gamma)||_F^2; they differ in loss shape and
structure:

* ``fit_wmcmrrr``  - reduced rank, no outlier offsets (C frozen at zero);
* ``fit_wmcm_l1``  - elementwise absolute loss, row-sparse Gamma;
* ``fit_wmcm``     - squared loss, row-sparse Gamma;
* ``fit_wfull``    - squared loss with explicit main-effect term X B.

In a half-half randomized trial the weights are constant, so these reduce to
their unweighted versions. Every fit runs on the solver's one outer loop and
stop rule (``solver._lockstep``), so a non-finite objective raises
NumericalError, as in ``fit``, and takes its FitTrace from that loop, W
sweep counts included. ``fit_wmcmrrr`` fits through the solver's
descent; ``fit_wmcm`` and ``fit_wfull`` are stacks of one in ``_fit_stack``
and ``fit_wmcm_l1`` in ``_fit_l1_stack``, which cross-validation and the
simulation study use to fit every penalty on every training fold or
replication in lockstep, bit for bit as each alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .data import Dataset, FitConfig, NumericalError, assemble_design
from .solver import (FitTrace, _check_stack, _group_data, _lockstep, _row_sweep, _sums, _take,
                     _weighted, fit as _fit_factor)

HUBER_DELTA = 1e-4


@dataclass(frozen=True)
class BaselineModel:
    """Fitted baseline: coefficient matrix, method tag, optional main effects."""

    gamma: np.ndarray
    method: str
    B: np.ndarray | None = None
    trace: "FitTrace | None" = field(default=None, compare=False, repr=False)


def fit_wmcmrrr(d: Dataset, a, rank: int, lambda_w: float = 0.0,
                cfg: FitConfig | None = None) -> BaselineModel:
    """Reduced-rank row-sparse fit without the outlier offsets.

    Same alternating solver as the main method with the C block frozen at
    zero, where the offset penalty phi_c has no effect.
    """
    cfg = replace(cfg or FitConfig(rank=rank), rank=rank, lambda_w=lambda_w)
    model = _fit_factor(d, a, cfg, update_c=False)
    return BaselineModel(gamma=model.gamma, method="wmcmrrr", trace=model.trace)


def fit_wmcm(d: Dataset, a, lambda_w: float, cfg: FitConfig | None = None) -> BaselineModel:
    """Row-sparse multivariate fit: min ||A(Y - Z Gamma)||_F^2 + lambda ||Gamma||_{2,1}.

    Cyclic exact row updates, one sweep per outer iteration; the Gram matrix
    and the targets never change. The recorded objective is non-increasing.
    A stack of one in ``_fit_stack``.
    """
    return _fit_one(partial(_fit_stack, "wmcm"), d, a, lambda_w, cfg)


def fit_wfull(d: Dataset, a, lambda_w: float, cfg: FitConfig | None = None) -> BaselineModel:
    """Row-sparse fit with explicit main effects:

        min ||A(Y - X B - Z Gamma)||_F^2 + lambda ||Gamma||_{2,1}

    alternating an exact weighted least-squares solve for B with cyclic row
    updates for Gamma. If the normal matrix X^T A^2 X is singular, the fit
    warns once (RuntimeWarning) and solves with X^T A^2 X + 1e-8 I. A stack
    of one in ``_fit_stack``.
    """
    return _fit_one(partial(_fit_stack, "wfull"), d, a, lambda_w, cfg)


def _fit_one(stack, d, a, lambda_w, cfg):
    # the one model of a stack of one
    ((_, _, model),) = stack([(d, a)], [[replace(cfg or FitConfig(rank=1), lambda_w=lambda_w)]])
    return model


def _fit_stack(method, parts, cfgs):
    """Fit the squared-loss baseline method, "wmcm" or "wfull", at the
    configurations cfgs[g] to each (d, a) = parts[g] in one lockstep stack
    (``solver._lockstep``); checks its arguments when called and returns an
    iterator of (g, j, model) for cfgs[g][j], in the order the problems stop.

    The configurations may differ only in lambda_w and phi_c (which these
    fits do not use). A group's data (a, A Z, A Y, and for wfull X, Y, Z and
    H) are one shared slice, or one slice per problem for parts with one
    configuration each and the same shape, so that one call serves the
    whole group. For wfull, each part's main-effect normal matrix
    H = X^T A^2 X is formed once, when the stack is called; if
    ``np.linalg.solve`` would find it singular, the part warns once and
    keeps H + 1e-8 I. Before the sweep, wfull solves per group for its
    problems' B and forms their sweep targets G^T A (Y - X B), and sweeps up
    to max_inner times; wmcm's targets never change, and it sweeps once.
    Each model packages Gamma (and B) with ``_lockstep``'s trace, whose
    w_sweeps are those counts. Every operation acts per problem, so each
    model, trace included, equals the one the method fits alone, bit for bit.
    """
    parts, cfgs, cfg, groups = _check_stack(parts, cfgs)
    full = method == "wfull"
    # per group: a, A Z, A Y, X, Y, Z, a^2 and H (wfull), and its problems' first Gamma
    # ("W") and Gram matrix, and B (wfull) or the fixed targets
    data, firsts = [], []
    for group in groups:
        a, G, Yw, *XYZ = _group_data(parts, group, lambda d, a: _weighted(d, a) + (
            (d.X, d.Y, assemble_design(d)) if full else ()))
        X, Y, Z = XYZ or (None,) * 3
        aa, H, zero = a * a, None, np.zeros((len(G),) + G.shape[2:] + Yw.shape[2:])
        if full:
            H = X.mT @ (X * aa[..., None])
            for h in H:
                try:  # the LU decision np.linalg.solve makes with this part's H
                    np.linalg.inv(h)
                except np.linalg.LinAlgError:
                    warnings.warn("singular main-effect normal equations; ridge jitter applied",
                                  RuntimeWarning)
                    h += 1e-8 * np.eye(len(h))
        data.append((a, G, Yw, X, Y, Z, aa, H))
        firsts.append({"W": zero, "gram": G.mT @ G, **({"B": zero} if full else {"T0": G.mT @ Yw})})

    def objective(st, h, s):
        a, G, Yw, X, Y, Z, _, _ = data[h]
        gamma = st["W"][s]
        R = a[..., None] * (Y - X @ st["B"][s] - Z @ gamma) if full else Yw - G @ gamma
        return _sums(R * R)

    def targets(st, spans):
        if not full:
            return st["T0"]
        T0 = []
        for h, s in spans:
            a, G, _, X, Y, Z, aa, H = data[h]
            st["B"][s] = np.linalg.solve(H, X.mT @ ((Y - Z @ st["W"][s]) * aa[..., None]))
            T0.append(G.mT @ (a[..., None] * (Y - X @ st["B"][s])))
        return np.concatenate(T0)

    def update(st, spans):
        return _row_sweep(st, targets(st, spans), cfg.inner_tol, cfg.max_inner if full else 1)

    def model(st, h, i, k, trace):
        return BaselineModel(gamma=st["W"][i].copy(), method=method,
                             B=st["B"][i].copy() if full else None, trace=trace)

    return _lockstep(groups, cfgs, firsts, objective, update, model, cfg.max_outer, (data,))


def fit_wmcm_l1(d: Dataset, a, lambda_w: float, cfg: FitConfig | None = None) -> BaselineModel:
    """Absolute-loss row-sparse fit: min ||A(Y - Z Gamma)||_{1,1} + lambda ||Gamma||_{2,1}.

    The elementwise absolute loss is smoothed by a narrow Huber function
    (delta = HUBER_DELTA) and minimized by proximal gradient with a
    backtracking line search; the recorded objective is the smoothed
    surrogate, which is non-increasing. Raises NumericalError if the cap of
    max_outer * max_inner iterations is hit. A stack of one in ``_fit_l1_stack``.
    """
    return _fit_one(_fit_l1_stack, d, a, lambda_w, cfg)


def _huber(R):
    # each problem's smoothed absolute loss of the residual stack R (m, n, q)
    absr = np.abs(R)
    return _sums(np.where(absr <= HUBER_DELTA, R * R / (2.0 * HUBER_DELTA),
                          absr - HUBER_DELTA / 2.0))


def _fit_l1_stack(parts, cfgs):
    """Fit the absolute-loss baseline at the configurations cfgs[g] to each
    (d, a) = parts[g] in one lockstep stack (``solver._lockstep``); checks
    its arguments when called and returns an iterator of (g, j, model) for
    cfgs[g][j], in the order the problems stop.

    The configurations may differ only in lambda_w and phi_c (unused here).
    A group's data (A Z and A Y) are one shared slice, or one slice per
    problem for parts with one configuration each and the same shape. Each
    problem keeps its step eta and the surrogate loss its line search
    accepted, which its objective reads. A step takes per group the gradient
    at each problem's residual, then a proximal step per problem; a problem
    whose candidate fails the line search retries alone at eta / 2, and an
    accepted one goes on with 1.5 eta. Each model packages Gamma with
    ``_lockstep``'s trace, whose w_sweeps are all 0 (no row sweep). Every
    operation acts per problem, so each model, trace included, equals the one
    the problem gives alone, bit for bit. A problem at the cap of max_outer *
    max_inner iterations raises NumericalError.
    """
    parts, cfgs, cfg, groups = _check_stack(parts, cfgs)
    cap = cfg.max_outer * cfg.max_inner
    # per group: A Z and A Y, and the residuals R of its problems still iterating;
    # its problems' first Gamma ("W"), surrogate loss and step
    data, R, firsts = [], [], []
    for group in groups:
        _, G, Yw = _group_data(parts, group, _weighted)
        W = np.zeros((len(G),) + G.shape[2:] + Yw.shape[2:])
        R0 = Yw - G @ W
        data.append((G, Yw))
        R.append(np.repeat(R0, len(group) // len(R0), axis=0))
        firsts.append({"W": W, "loss": _huber(R0), "eta": np.ones(len(R0))})

    def update(st, spans):
        for h, s in spans:
            G, Yw = data[h]
            W, loss, eta, lam = (st[k][s] for k in ("W", "loss", "eta", "lam"))
            grad = -G.mT @ np.clip(R[h] / HUBER_DELTA, -1.0, 1.0)
            todo = np.arange(len(W))  # the problems still searching
            while len(todo):
                e, w, dw, old = eta[todo], W[todo], grad[todo], loss[todo]
                P = w - e[:, None, None] * dw
                t, nv = (e * lam[todo])[:, None, None], np.sqrt(np.vecdot(P, P, keepdims=True))
                with np.errstate(divide="ignore", invalid="ignore"):
                    # group soft threshold of every row: fmax maps 0/0 to 0, + 0.0 maps -0.0 to 0.0
                    cand = np.fmax(1.0 - t / nv, 0.0) * P + 0.0
                move, R_cand = cand - w, _take(Yw, todo) - _take(G, todo) @ cand
                lhs = _huber(R_cand)
                ok = lhs <= (old + _sums(dw * move) + _sums(move * move) / (2.0 * e)
                             + 1e-12 * (1.0 + np.abs(old)))
                done, todo = todo[ok], todo[~ok]
                W[done], R[h][done], loss[done] = cand[ok], R_cand[ok], lhs[ok]
                eta[done] *= 1.5
                eta[todo] *= 0.5
                if (eta[todo] < 1e-20).any():
                    raise NumericalError("line search failed in absolute-loss fit")
        return np.zeros(len(st["W"]), dtype=int)

    def model(st, h, i, k, trace):
        if not trace.converged:
            raise NumericalError(f"absolute-loss fit did not converge in {cap} iterations")
        return BaselineModel(gamma=st["W"][i].copy(), method="wmcml1", trace=trace)

    return _lockstep(groups, cfgs, firsts, lambda st, h, s: st["loss"][s], update, model, cap,
                     (R, data))

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
NumericalError, as in ``fit``. ``fit_wmcmrrr`` fits through the solver's
descent; ``fit_wmcm`` and ``fit_wfull`` are stacks of one in ``_fit_stack``
and ``fit_wmcm_l1`` in ``_fit_l1_stack``, which cross-validation and the
simulation study use to fit every penalty on every training fold or
replication in lockstep, bit for bit as each alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, FitConfig, NumericalError, assemble_design
from .solver import (FitTrace, _check_stack, _lockstep, _row_sweep, _sums, _weighted,
                     fit as _fit_factor)

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
    return _fit_one("wmcm", d, a, lambda_w, cfg)


def fit_wfull(d: Dataset, a, lambda_w: float, cfg: FitConfig | None = None) -> BaselineModel:
    """Row-sparse fit with explicit main effects:

        min ||A(Y - X B - Z Gamma)||_F^2 + lambda ||Gamma||_{2,1}

    alternating an exact weighted least-squares solve for B with cyclic row
    updates for Gamma. A stack of one in ``_fit_stack``.
    """
    return _fit_one("wfull", d, a, lambda_w, cfg)


def _fit_one(method, d, a, lambda_w, cfg):
    parts, cfgs = [(d, a)], [[replace(cfg or FitConfig(rank=1), lambda_w=lambda_w)]]
    stack = _fit_l1_stack(parts, cfgs) if method == "wmcml1" else _fit_stack(method, parts, cfgs)
    ((_, _, model),) = stack
    return model


def _main_effects(H, rhs):
    # B from one problem's main-effect normal equations, with a jitter if singular
    try:
        return np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError:
        warnings.warn("singular main-effect normal equations; ridge jitter applied",
                      RuntimeWarning)
        return np.linalg.solve(H + 1e-8 * np.eye(H.shape[0]), rhs)


def _fit_stack(method, parts, cfgs):
    """Fit the squared-loss baseline method, "wmcm" or "wfull", at the
    configurations cfgs[g] to each (d, a) = parts[g] in one lockstep stack
    (``solver._lockstep``); checks its arguments when called and returns an
    iterator of (g, j, model) for cfgs[g][j], in the order the problems stop.

    The configurations may differ only in lambda_w and phi_c (which these
    fits do not use). Before the sweep, wfull takes per group the
    main-effect right-hand sides, one stacked solve for B (problem by
    problem if it is singular, so that only a singular problem warns and
    takes the jitter) and per group the sweep targets G^T A (Y - X B), and
    sweeps up to max_inner times; wmcm's targets never change, and it sweeps
    once. Every operation acts per problem, so each model, trace included,
    equals the one the method fits alone, bit for bit.
    """
    parts, cfgs, cfg = _check_stack(parts, cfgs)
    full = method == "wfull"
    # per group: a, A Z, A Y, X, Y, Z and a^2, and its problems' first Gamma ("W") and
    # Gram matrix, and B and the main-effect normal matrix (wfull) or the fixed targets
    data, firsts = [], []
    for d, a in parts:
        a, G, Yw = _weighted(d, a)
        aa, Z, zero = a * a, assemble_design(d) if full else None, np.zeros((d.n_features, d.q))
        data.append((a, G, Yw, d.X, d.Y, Z, aa))
        fixed = {"B": zero, "H": d.X.T @ (d.X * aa[:, None])} if full else {"T0": G.T @ Yw}
        firsts.append({"W": zero, "gram": G.T @ G, **fixed})

    def objective(st, g, s):
        a, G, Yw, X, Y, Z, _ = data[g]
        gamma = st["W"][s]
        R = a[:, None] * (Y - X @ st["B"][s] - Z @ gamma) if full else Yw - G @ gamma
        return _sums(R * R)

    def targets(st, spans):
        if not full:
            return st["T0"]
        rhs, T0 = [], []
        for g, s in spans:
            _, _, _, X, Y, Z, aa = data[g]
            rhs.append(X.T @ ((Y - Z @ st["W"][s]) * aa[:, None]))
        rhs = np.concatenate(rhs)
        try:
            st["B"] = np.linalg.solve(st["H"], rhs)
        except np.linalg.LinAlgError:
            st["B"] = np.stack([_main_effects(H, b) for H, b in zip(st["H"], rhs)])
        for g, s in spans:
            a, G, _, X, Y, _, _ = data[g]
            T0.append(G.T @ (a[:, None] * (Y - X @ st["B"][s])))
        return np.concatenate(T0)

    def update(st, spans):
        return _row_sweep(st, targets(st, spans), cfg.inner_tol, cfg.max_inner if full else 1)

    def model(st, g, i, k, objs, sweeps, converged, n_outer):
        trace = FitTrace(objective=np.asarray(objs), converged=converged, n_outer=n_outer)
        return BaselineModel(gamma=st["W"][i].copy(), method=method,
                             B=st["B"][i].copy() if full else None, trace=trace)

    return _lockstep(cfgs, firsts, objective, update, model, cfg.max_outer)


def fit_wmcm_l1(d: Dataset, a, lambda_w: float, cfg: FitConfig | None = None) -> BaselineModel:
    """Absolute-loss row-sparse fit: min ||A(Y - Z Gamma)||_{1,1} + lambda ||Gamma||_{2,1}.

    The elementwise absolute loss is smoothed by a narrow Huber function
    (delta = HUBER_DELTA) and minimized by proximal gradient with a
    backtracking line search; the recorded objective is the smoothed
    surrogate, which is non-increasing. Raises NumericalError if the cap of
    max_outer * max_inner iterations is hit. A stack of one in ``_fit_l1_stack``.
    """
    return _fit_one("wmcml1", d, a, lambda_w, cfg)


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
    Each problem keeps its step eta and the surrogate loss its line search
    accepted, which its objective reads. A step takes per group the gradient
    at each problem's residual, then a proximal step per problem; a problem
    whose candidate fails the line search retries alone at eta / 2, and an
    accepted one goes on with 1.5 eta. Every operation acts per problem, so
    each model, trace included, equals the one the problem gives alone, bit
    for bit. A problem at the cap of max_outer * max_inner iterations raises
    NumericalError.
    """
    parts, cfgs, cfg = _check_stack(parts, cfgs)
    cap = cfg.max_outer * cfg.max_inner
    # per group: A Z and A Y, and the residuals R of its problems still iterating;
    # its problems' first Gamma ("W"), surrogate loss and step
    data, R, firsts = [], [], []
    for (d, a), cs in zip(parts, cfgs):
        _, G, Yw = _weighted(d, a)
        W = np.zeros((d.n_features, d.q))
        data.append((G, Yw))
        R.append(np.repeat((Yw - G @ W)[None], len(cs), axis=0))
        firsts.append({"W": W, "loss": _huber(R[-1][:1])[0], "eta": 1.0})

    def update(st, spans):
        for g, s in spans:
            G, Yw = data[g]
            W, loss, eta, lam = (st[k][s] for k in ("W", "loss", "eta", "lam"))
            grad = -G.T @ np.clip(R[g] / HUBER_DELTA, -1.0, 1.0)
            todo = np.arange(len(W))  # the problems still searching
            while len(todo):
                e, w, dw, old = eta[todo], W[todo], grad[todo], loss[todo]
                P = w - e[:, None, None] * dw
                t, nv = (e * lam[todo])[:, None, None], np.sqrt(np.vecdot(P, P, keepdims=True))
                with np.errstate(divide="ignore", invalid="ignore"):
                    # group soft threshold of every row: fmax maps 0/0 to 0, + 0.0 maps -0.0 to 0.0
                    cand = np.fmax(1.0 - t / nv, 0.0) * P + 0.0
                move, R_cand = cand - w, Yw - G @ cand
                lhs = _huber(R_cand)
                ok = lhs <= (old + _sums(dw * move) + _sums(move * move) / (2.0 * e)
                             + 1e-12 * (1.0 + np.abs(old)))
                done, todo = todo[ok], todo[~ok]
                W[done], R[g][done], loss[done] = cand[ok], R_cand[ok], lhs[ok]
                eta[done] *= 1.5
                eta[todo] *= 0.5
                if (eta[todo] < 1e-20).any():
                    raise NumericalError("line search failed in absolute-loss fit")
        return np.zeros(len(st["W"]), dtype=int)

    def model(st, g, i, k, objs, sweeps, converged, n_outer):
        if not converged:
            raise NumericalError(f"absolute-loss fit did not converge in {cap} iterations")
        trace = FitTrace(objective=np.asarray(objs), converged=converged, n_outer=n_outer)
        return BaselineModel(gamma=st["W"][i].copy(), method="wmcml1", trace=trace)

    return _lockstep(cfgs, firsts, lambda st, g, s: st["loss"][s], update, model, cap, (R,))

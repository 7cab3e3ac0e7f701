"""Alternating solver for the weighted robust reduced-rank effect model.

Minimizes, over W ((p+1) x r), V (q x r, orthonormal columns) and C (n x q),

    sum_i a_i^2 ||y_i - T_i V W^T x_i / 2 - c_i||^2
        + phi_c * sum_i ||c_i||  +  lambda_w * sum_k ||w_k||

by block descent: a row-separable shrinkage step for C, cyclic group-lasso
row updates for W, and an orthogonal Procrustes step for V. Each block step
is an exact conditional minimizer, so the objective never increases.

With z_i = T_i x_i / 2 the fidelity term is ||A (Y - Z W V^T - C)||_F^2,
which is the form the updates below work with.

Every fit, the baselines' too, runs one outer loop with one stop rule,
``_lockstep``, on many problems in lockstep along a leading stack axis (a
fit alone is a stack of one): all share the rank and tolerances, each has
its own penalties, and each group of them shares one dataset (in
cross-validation, one group per training fold). Its users give only the
objective and the outer step: ``_fit_groups`` the C step, a W row sweep
and the V step (``fit_batch`` is one group and ``fit`` a batch of one),
``baselines._fit_stack`` the wmcm and wfull steps around a row sweep, and
``baselines._fit_l1_stack`` wmcml1's proximal gradient step. The W row
sweep is ``_sweep_rows`` for a stack and ``_sweep_one`` for one problem,
with the same IEEE operations; small stacks at r <= 2 sweep each problem
alone (``_ALONE_MAX``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, compress

import numpy as np

from .data import (
    CateEstimate,
    DataError,
    Dataset,
    FactorModel,
    FitConfig,
    NumericalError,
    _check_rank,
    _check_settings,
    assemble_design,
)
from .weights import WeightVector


def _avec(a, n: int) -> np.ndarray:
    if isinstance(a, WeightVector):
        a = a.a
    a = np.asarray(a, dtype=float).ravel()
    if a.shape[0] != n:
        raise DataError(f"weights have {a.shape[0]} entries, expected {n}")
    if (a <= 0).any() or not np.isfinite(a).all():
        raise DataError("weights must be finite and strictly positive")
    return a


def _block_inputs(d: Dataset, W, V=None, C=None) -> list:
    """W (p+1, r), V (q, r) and C (n, q) as float arrays, checked against d."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != d.n_features:
        raise DataError(f"W has shape {W.shape}, expected ({d.n_features}, rank)")
    out = [W]
    for name, v, shape in (("V", V, (d.q, W.shape[1])), ("C", C, (d.n, d.q))):
        if v is not None and np.shape(v) != shape:
            raise DataError(f"{name} has shape {np.shape(v)}, expected {shape}")
        out.append(None if v is None else np.asarray(v, dtype=float))
    return out


def _weighted(d: Dataset, a, C=None):
    """The checked weights a, the weighted design A Z and the weighted
    target A (Y - C), or A Y without C."""
    a = _avec(a, d.n)
    return a, a[:, None] * assemble_design(d), a[:, None] * (d.Y if C is None else d.Y - C)


# =============================================================================
# proximal pieces
# =============================================================================


def group_soft_threshold(v, t: float) -> np.ndarray:
    """Shrink the vector v toward zero: (1 - t/||v||)_+ v, with 0 at ||v|| = 0."""
    v = np.asarray(v, dtype=float)
    _check_settings(threshold=t)
    nv = np.linalg.norm(v)
    if nv == 0.0 or nv <= t:
        return np.zeros_like(v)
    return (1.0 - t / nv) * v


def _row_norms(R):
    # np.linalg.norm(R, axis=-1), the same sums without its call overhead
    return np.sqrt(np.add.reduce(R * R, axis=-1))


def _sums(x):
    # each problem's sum over its slice of the stack x, with the bits of np.sum on that slice
    return x.reshape(len(x), -1).sum(axis=1)


def _shrink_rows(R, thresholds):
    # row-wise group soft threshold of R (..., n, q) with thresholds (..., n)
    norms = _row_norms(R)
    scale = np.zeros_like(norms)
    pos = norms > 0
    scale[pos] = np.maximum(0.0, 1.0 - thresholds[pos] / norms[pos])
    return scale[..., None] * R


# =============================================================================
# block updates
#
# Each works on a stack of m problems along a leading axis. Every operation
# acts on one problem's slice the way it would act on that problem alone
# (elementwise arithmetic, per-slice matrix products, per-row dot products),
# so a problem's iterates do not depend on which other problems share its
# stack. Reshaping a stack into one wide matrix product would break this:
# BLAS then sums in another order.
# =============================================================================


_ONE = np.array(1.0)  # 0-d operands cost less per call than Python floats
# Rows per block of the r <= 2 float sweep of ``_sweep_one`` (CHANGES.md)
_BLOCK = 16
# By rank, the largest stack of P rows swept one problem at a time: under the alone/stack
# time crossover at 30 sweeps, m 2-32, P 1-51, and at P > _BLOCK 5 and 30 sweeps (CHANGES.md)
_ALONE_MAX = {1: lambda P: 1 if P <= 2 else min(12, 510 // (P + 30)) if P <= _BLOCK else 7,
              2: lambda P: 1 if P <= 3 else 3 if P <= _BLOCK else 4}


def _alone(P, r):
    # the largest stack of P rows and r columns that _sweep_rows sweeps one problem at a time
    return _ALONE_MAX[r](P) if r in _ALONE_MAX else 1


def _converged(delta, W, inner_tol):
    # the largest row change below inner_tol relative to the iterate scale,
    # matching the outlier block (max and sqrt commute); np.max keeps a NaN
    worst = np.sqrt(np.max(np.vecdot(delta, delta), axis=-1))
    return worst < inner_tol * (1.0 + np.max(_row_norms(W), axis=-1))


@np.errstate(divide="ignore", invalid="ignore")  # half / ||h|| at h = 0: see fmax
def _sweep_rows(gram, T0, W, half, inner_tol, max_inner):
    """Cyclic group-lasso row sweeps, in lockstep over a stack of problems.

    Problem j minimizes ||F_j - G_j W_j||_F^2 + 2 half_j sum_k ||w_jk|| given
    gram_j = G_j^T G_j (the stack gram is (m, P, P)) and T0_j = G_j^T F_j.
    Sweeps the stack W (m, P, r) in place and returns each problem's count.
    A problem sweeps until its largest row change falls below inner_tol
    relative to its iterate scale, or for max_inner sweeps; then it leaves
    the stack, so each problem stops at the sweep where it would stop alone.

    The stack steps (m, 1, r) NumPy rows. A design column that is zero in a
    problem gets a unit pivot there and its row's update is set to 0.0, so
    no other row moves, even on a non-finite target or W; rows zero in every
    problem are skipped. Row k's outer product (exact: one term) goes only
    to the rows of M = G W after k, the only ones read before the next
    sweep recomputes M. Once the stack holds one problem, or at r <= 2 no
    more than ``_ALONE_MAX``, each problem left is handed to ``_sweep_one``
    for the sweeps left.
    """
    sweeps = np.empty(len(W), dtype=int)
    todo = np.arange(len(W))
    Ga, Wa, T0a, half_a = gram, W, T0, np.asarray(half, dtype=float)[:, None, None]
    count, (P, r) = 0, W.shape[1:]
    alone = _alone(P, r)
    while len(todo) > alone:
        # work buffers, C-contiguous whatever the inputs' layout (BLAS sums
        # another layout in another order), and per-row views of this stack
        Gb, Wb, Tb = (np.array(v, order="C") for v in (Ga, Wa, T0a))
        # M = G W, the outer products and the row changes, stored row-major
        # over the stack: the rows after k of all problems are one block
        M, outer, delta = np.zeros((3, P, len(Wb), r)).swapaxes(1, 2)
        diag = Gb.reshape(len(Gb), -1)[:, ::P + 1]
        dead = diag == 0.0  # (m, P): the zero design columns
        Wb[dead] = 0.0
        # per-row views, by iterating over transposed buffers: (m, 1, 1)
        # pivots, (m, P, 1) columns and (m, 1, r) rows; a row dead in some
        # problems only also gets their mask
        pivots = np.where(dead, 1.0, diag).T[:, :, None, None]
        cols = Gb[..., None].transpose(2, 0, 1, 3)
        views = (v[:, :, None].swapaxes(0, 1) for v in (Wb, Tb, M, delta))
        some, live = dead.any(axis=0).tolist(), (~dead.all(axis=0)).tolist()
        rows = [(dk, col[..., k + 1:, :], wk, tk, mk, dl, M[..., k + 1:, :],
                 outer[..., k + 1:, :], dead[:, k] if some[k] else None)
                for k, (dk, col, wk, tk, mk, dl) in enumerate(zip(pivots, cols, *views))
                if live[k]]
        for count in range(count + 1, max_inner + 1):
            np.matmul(Gb, Wb, out=M)
            for dk, col, wk, tk, mk, dl, m_rest, o_rest, part in rows:
                h = tk - mk + dk * wk
                nv = np.sqrt(np.vecdot(h, h, keepdims=True))
                w_new = np.fmax(_ONE - half_a / nv, 0.0) * h / dk
                if part is not None:  # 0.0 where the column is zero, as alone
                    w_new[part] = 0.0
                np.subtract(w_new, wk, out=dl)
                m_rest += np.matmul(col, dl, out=o_rest)
                wk[...] = w_new
            done = _converged(delta, Wb, inner_tol) | (count == max_inner)
            if done.any():
                break
        # a row zeroed from negative entries holds -0.0; adding 0.0 makes
        # it 0.0 and leaves every other value as it is
        W[todo[done]] = Wb[done] + 0.0
        sweeps[todo[done]] = count
        keep = ~done
        todo, Ga, Wa, T0a, half_a = todo[keep], Gb[keep], Wb[keep], Tb[keep], half_a[keep]
    # each problem alone: its iterates do not depend on the stack
    for i, p in enumerate(todo.tolist()):
        W[p] = Wa[i]
        sweeps[p] = count + _sweep_one(Ga[i], T0a[i], W[p], half_a[i, 0, 0], inner_tol,
                                       max_inner - count)
    return sweeps


def _pull(delta, dls, ms, pull):
    # extend ms (M's columns up to row lo) by M[lo:hi] plus G_jk dl_k, k < lo
    plo, lo, m_block, cols, buf = pull
    delta[plo:lo].T[:] = [dl[plo:lo] for dl in dls]  # the previous block's changes
    buf[0] = m_block
    np.multiply(cols, delta[:lo, :, None], out=buf[1:])
    return [m + tail for m, tail in zip(ms, np.add.accumulate(buf, axis=0, out=buf)[-1].tolist())]


@np.errstate(divide="ignore", invalid="ignore")  # NumPy steps on non-finite rows
def _sweep_one(gram, t0, w, half, inner_tol, max_inner):
    """``_sweep_rows`` for one problem: gram (P, P), t0 and w (P, r); sweeps w
    in place and returns the sweep count, with the stack's bits.

    A zero design column's row is set to 0.0 and skipped. Pivots are Python
    floats, and 1 - half/nv if nv > half else 0 is the stack's shrink factor
    fmax(1 - half/nv, 0) at nv = 0, half = 0 and NaN too. With r <= 2 it steps
    Python floats, one list per column (one IEEE operation per column each);
    with r >= 3, 1-D NumPy rows (floats cost more there). nv is the stack's:
    fl(h*h) at r = 1 (a one-element vecdot), at r = 2 the row's ndarray.dot,
    the BLAS dot of the stack's vecdot, which may fuse a multiply-add and
    round unlike h0*h0 + h1*h1. M = G W is the stack's matmul, and the stop
    test ``_converged`` but at r = 1, where floats make its decisions: a NaN
    change never stops, as under np.max (Python's max drops a NaN).

    At r <= 2 a row's change goes in floats to the later rows of its block of
    ``_BLOCK`` rows; ``_pull`` stacks M[lo:hi] over the products G_jk dl_k of
    all rows k < lo (np.multiply: no FMA) and adds them by np.add.accumulate,
    one at a time in the order of k, as the floats do (np.add.reduce may add
    pairwise). A zero row's products, -0.0 * 0.0, change no m_j.

    Each call builds its set-up from gram, t0 and half before the first
    sweep: the zero columns, the work buffers, and the r <= 2 blocks and
    change lists or the r >= 3 row views; half becomes a Python float (a
    NumPy scalar slows the float rows).
    """
    G, (P, r), half = np.ascontiguousarray(gram), t0.shape, float(half)
    dead = G.diagonal() == 0.0
    wb, M, outer, delta = np.zeros((4, P, r))
    if r <= 2:
        # blocks of _BLOCK live rows, each to the next one's first row: (M[:hi].T, rows,
        # 0 or (previous lo, lo, M[lo:hi].T, G[lo:hi, :lo] -0.0 in zero rows, buffer))
        pivots, t0s, gt = G.diagonal().tolist(), t0.tolist(), G.T.tolist()
        los = [0] + [k for k, dk in enumerate(pivots) if dk != 0.0][_BLOCK::_BLOCK]
        gc = len(los) > 1 and np.where(dead[:, None], -0.0, G.T)[:, None]
        steps = [(M[:hi].T, [(k, pivots[k], *t0s[k], gt[k], range(k + 1, hi))
                             for k in range(lo, hi) if pivots[k] != 0.0],
                  lo and (plo, lo, M[lo:hi].T, gc[:lo, :, lo:hi], np.empty((lo + 1, r, hi - lo))))
                 for plo, lo, hi in zip([0] + los, los, los[1:] + [P])]
        dls, hb = [[0.0] * P for _ in range(r)], np.empty(2)
    else:
        steps = [(dk, G[k + 1:, k, None], wb[k], t0[k], M[k], delta[k], M[k + 1:], outer[k + 1:])
                 for k, dk in enumerate(G.diagonal().tolist()) if dk != 0.0]
        hb = tuple(np.empty((3, r)))  # h, d w and the new row
    wb[...] = w
    wb[dead] = 0.0
    for count in range(1, max_inner + 1):
        np.matmul(G, wb, out=M)
        if r == 1:
            (w1,), (dw,) = wb.T.tolist(), dls
            for top, rows, pull in steps:
                (m,) = ms = _pull(delta, dls, ms, pull) if pull else top.tolist()
                for k, dk, tk, col, rest in rows:
                    wk = w1[k]
                    h = tk - m[k] + dk * wk
                    nv = math.sqrt(h * h)
                    w1[k] = w_new = (1.0 - half / nv if nv > half else 0.0) * h / dk
                    dw[k] = dl = w_new - wk
                    for j in rest:
                        m[j] += col[j] * dl
            wb.T[0] = w1
        elif r == 2:
            (w0, w1), (dw0, dw1) = wb.T.tolist(), dls
            for top, rows, pull in steps:
                m0, m1 = ms = _pull(delta, dls, ms, pull) if pull else top.tolist()
                for k, dk, t0k, t1k, col, rest in rows:
                    a0, a1 = w0[k], w1[k]
                    hb[0] = h0 = t0k - m0[k] + dk * a0
                    hb[1] = h1 = t1k - m1[k] + dk * a1
                    # the stack's BLAS dot, which may fuse h0*h0 + h1*h1
                    nv = math.sqrt(hb.dot(hb))
                    f = 1.0 - half / nv if nv > half else 0.0
                    w0[k], w1[k] = b0, b1 = f * h0 / dk, f * h1 / dk
                    dw0[k], dw1[k] = e0, e1 = b0 - a0, b1 - a1
                    for j in rest:
                        c = col[j]
                        m0[j] += c * e0
                        m1[j] += c * e1
            wb.T[:], delta.T[:] = (w0, w1), dls
        else:
            h, dw, wn = hb  # h = t - m + d w, then f h / d
            for dk, col, wk, tk, mk, dl, m_rest, o_rest in steps:
                np.add(np.subtract(tk, mk, out=h), np.multiply(dk, wk, out=dw), out=h)
                nv = math.sqrt(h.dot(h))  # the BLAS dot of np.vecdot
                np.multiply(1.0 - half / nv if nv > half else 0.0, h, out=wn)
                np.subtract(np.divide(wn, dk, out=wn), wk, out=dl)
                m_rest += np.multiply(col, dl, out=o_rest)
                wk[...] = wn
        if count == max_inner or r > 1 and _converged(delta, wb, inner_tol):
            break
        if r == 1:
            # _converged in floats, decision for decision: a NaN change makes
            # the sum NaN, and a NaN in W comes with a NaN change of its row
            dd = [x * x for x in dw]
            s = sum(dd)
            if s == s and math.sqrt(max(dd)) < inner_tol * (1.0 + math.sqrt(max(
                    [v * v for v in w1]))):
                break
    w[...] = wb + 0.0  # -0.0 to 0.0, as in _sweep_rows
    return count


def _v_block(M, V_prev):
    """Orthogonal Procrustes: maximize tr(M V) over V^T V = I, V = S U^T.

    M is one (r, q) matrix or a stack of them; a zero M keeps its V_prev.
    V does not depend on the signs the SVD picks: negating a left singular
    vector and its right partner leaves every product in S U^T unchanged.
    """
    zero = ~M.any(axis=(-2, -1))
    if zero.any() and V_prev is None:
        raise DataError("cannot update V: W^T G^T F is identically zero and no fallback V given")
    U, _, St = np.linalg.svd(M, full_matrices=False)
    V = St.mT @ U.mT
    if zero.any():
        V[zero] = V_prev[zero]
    return V


def update_outlier_rows(C, d: Dataset, a, W, V, phi_c: float) -> np.ndarray:
    """Update the per-subject offset rows given W and V.

    Each row decouples: c_i = (1 - phi_c / (2 a_i^2 ||r_i||))_+ r_i with
    r_i the i-th unweighted residual row of Y - Z W V^T. The update is exact
    in one step, so the current C does not affect it; it is accepted so that
    existing calls keep working.
    """
    a = _avec(a, d.n)
    W, V, _ = _block_inputs(d, W, V, C)
    _check_settings(phi_c=phi_c)
    D = d.Y - assemble_design(d) @ (W @ V.T)
    return _shrink_rows(D, phi_c / (2.0 * a * a))


def update_loading_rows(W, d: Dataset, a, C, V, lambda_w: float,
                        inner_tol: float = 1e-8, max_inner: int = 100) -> np.ndarray:
    """Cyclic group-lasso updates of the covariate loading rows given C and V."""
    W, V, C = _block_inputs(d, W, V, C)
    _check_settings(lambda_w=lambda_w, inner_tol=inner_tol, max_inner=max_inner)
    _, G, F = _weighted(d, a, C)
    W_new = W.copy()
    _sweep_one(G.T @ G, G.T @ (F @ V), W_new, lambda_w / 2.0, inner_tol, max_inner)
    return W_new


def update_orthogonal_factor(W, d: Dataset, a, C, V=None) -> np.ndarray:
    """Optimal orthonormal outcome factor given W and C.

    Solves the Procrustes problem max tr(M V) with M = W^T G^T F, returning
    V = S U^T from the SVD M = U D S^T. When M is identically zero the
    problem is degenerate and the supplied V is returned unchanged.
    """
    W, V, C = _block_inputs(d, W, V, C)
    _, G, F = _weighted(d, a, C)
    return _v_block(W.T @ (G.T @ F), V)


# =============================================================================
# objective and full fit
# =============================================================================


def _objectives(Y, Z, a, W, V, C, phis):
    """Objective of each problem in a stack but for its W penalty, which
    ``_lockstep`` adds, and its residual Y - Z W V^T before offsets, which
    the next C step reuses."""
    D = Y - Z @ (W @ V.mT)
    R = a[:, None] * (D - C)
    return _sums(R * R) + phis * _row_norms(C).sum(axis=1), D


def objective(model: FactorModel, d: Dataset, a, cfg: FitConfig) -> float:
    """Penalized weighted objective value of a model on a dataset."""
    a = _avec(a, d.n)
    _block_inputs(d, model.W, model.V, model.C)
    obj, _ = _objectives(d.Y, assemble_design(d), a, model.W[None], model.V[None],
                         model.C[None], np.array([cfg.phi_c]))
    return float((obj + cfg.lambda_w * _row_norms(model.W[None]).sum(axis=1))[0])


@dataclass(frozen=True)
class FitTrace:
    """Per-iteration record of a solver run.

    objective[0] is the value at initialization; objective[t] after outer
    sweep t. The sequence is non-increasing. c_sweeps[t] is 1 when the exact
    C step ran (0 with C frozen); w_sweeps[t] counts the W row sweeps, and
    w_capped the outer iterations whose W block ran all max_inner sweeps
    (its inner_tol test never passed). converged: ``_lockstep``'s decrease test stopped it.
    """

    objective: np.ndarray
    c_sweeps: list = field(default_factory=list)
    w_sweeps: list = field(default_factory=list)
    converged: bool = False
    n_outer: int = 0
    w_capped: int = 0


def _initialize(Y, Z, a, rank):
    # ridge-regularized weighted least squares, then the top right singular
    # subspace of its fitted values
    aa = a * a
    H = Z.T @ (Z * aa[:, None]) + 1e-8 * np.eye(Z.shape[1])
    gamma0 = np.linalg.solve(H, Z.T @ (Y * aa[:, None]))
    _, _, Vt = np.linalg.svd(Z @ gamma0, full_matrices=False)
    V0 = Vt[:rank].T
    return gamma0 @ V0, V0


def _check_stack(parts, cfgs):
    # parts and cfgs as lists, and the first configuration, which the others
    # equal up to lambda_w and phi_c
    parts, cfgs = list(parts), [list(cs) for cs in cfgs]
    if not cfgs or len(cfgs) != len(parts) or not all(cfgs):
        raise DataError("a stack needs one list of at least one configuration per dataset")
    first = cfgs[0][0]
    # field by field: a replace() per configuration costs 8 us (its settings check)
    rest = [(k, v) for k, v in vars(first).items() if k not in ("lambda_w", "phi_c")]
    if any(getattr(c, k) != v for cs in cfgs for c in cs for k, v in rest):
        raise DataError("configurations in one batch may differ only in lambda_w and phi_c")
    return parts, cfgs, first


def _lockstep(cfgs, firsts, objective, update, model, cap, per_group=()):
    """The outer loop of every fit: the problems (g, j), at the configurations
    cfgs[g][j] (``_check_stack``'s), step in lockstep; a generator, which
    each stack returns, so that the stack's own checks raise when it is called.

    st holds the live problems' stacks by name: firsts[g]'s, group g's
    initial values once per problem ("W" among them; the same shapes in every
    group), and "lam" and "phi", each problem's lambda_w and phi_c.
    objective(st, g, s) gives the objectives of group g's problems, at slice
    s of st, but for the W penalty lambda_w sum_k ||w_k||, added here.
    Iteration 0 sets each problem's threshold, outer_tol times its objective
    (times 1.0 if that is not positive); then a problem iterates while its
    objective falls by at least that, up to iteration cap, and a non-finite
    objective raises NumericalError. A step drops the problems that stopped
    from st and from each list of per-group stacks in per_group; then
    update(st, spans), spans the groups' (g, s), steps the rest once and
    returns each one's W sweep count. Yields (g, j, model(st, g, i, k, objs,
    sweeps, converged, n_outer)) as problem (g, j) stops, at place i of the
    live stack and k of its group. Every operation acts per problem, so each
    problem's iterates and stop are those it has alone.
    """
    # problem p at entry is where[p] = (g, j), the j-th of group g, with its objectives
    # objs[p] and W sweep counts sweeps[p]; the live problems lie group after group,
    # counts[g] of group g, and ws holds their last sweep counts
    cfg, counts = cfgs[0][0], [len(cs) for cs in cfgs]
    where = [(g, j) for g, m in enumerate(counts) for j in range(m)]
    st = {k: np.repeat(np.stack([f[k] for f in firsts]), counts, axis=0) for k in firsts[0]}
    for k, name in (("lam", "lambda_w"), ("phi", "phi_c")):
        st[k] = np.array([getattr(c, name) for cs in cfgs for c in cs], dtype=float)
    live, ws = list(range(len(where))), [0] * len(where)
    objs, sweeps = [[] for _ in live], [[] for _ in live]

    def span():  # (g, the slice of the live stack holding group g's problems), per group with any
        ends = accumulate(counts)
        return [(g, slice(e - m, e)) for g, (e, m) in enumerate(zip(ends, counts)) if m]

    spans = span()
    for n_outer in range(cap + 1):
        new = np.concatenate([objective(st, g, s) for g, s in spans])
        new = (new + st["lam"] * _row_norms(st["W"]).sum(axis=1)).tolist()
        if not all(map(math.isfinite, new)):
            raise NumericalError(f"objective became non-finite at outer iteration {n_outer}")
        if n_outer:
            keep = [objs[p][-1] - o >= t for p, o, t in zip(live, new, thresh)]
        else:
            keep = [True] * len(new)
            thresh = [cfg.outer_tol * (o if o > 0 else 1.0) for o in new]
        for i, (p, o, w, k) in enumerate(zip(live, new, ws, keep)):
            objs[p].append(o)
            sweeps[p].append(w)
            if not k or n_outer == cap:
                g, j = where[p]
                yield g, j, model(st, g, i, i - sum(counts[:g]), objs[p], sweeps[p], not k, n_outer)
        if n_outer == cap or not any(keep):
            return
        if not all(keep):
            live, thresh = list(compress(live, keep)), list(compress(thresh, keep))
            keep = np.array(keep)
            for g, s in spans:
                for stacks in per_group:
                    stacks[g] = stacks[g][keep[s]]
                counts[g] = int(np.count_nonzero(keep[s]))
            spans = span()
            st.update({k: x[keep] for k, x in st.items()})
        ws = update(st, spans).tolist()


def _row_sweep(st, T0, inner_tol, max_inner):
    # the W step of a row-sweep stack: ``_sweep_rows`` of st's "W" with its Gram
    # matrices "gram" and lambda_w / 2 toward the targets T0; each problem's sweeps
    return _sweep_rows(st["gram"], T0, st["W"], st["lam"] / 2.0, inner_tol, max_inner)


def _fit_groups(parts, cfgs, update_c: bool = True):
    """Fit the configurations cfgs[g] to each (d, a) = parts[g] by block
    descent, every problem (g, j) in one ``_lockstep`` stack; checks its
    arguments when called and returns an iterator of (g, j, model) for
    cfgs[g][j] fit to parts[g], in the order the problems stop.

    The configurations may differ only in lambda_w and phi_c. Each group's
    Gram matrix and initializer are computed once, and its objectives keep
    its residual D. An outer step, in block order: per group, the C step
    from D (skipped with C frozen at zero, update_c False) and the sweep
    targets G^T F V and G^T F; one W sweep of the stack (``_sweep_rows``);
    one V step. Every model, trace included, equals the one ``fit`` returns
    for its data and configuration, bit for bit.
    """
    parts, cfgs, cfg = _check_stack(parts, cfgs)
    # per group: its data and 2 a^2, the C of its problems still iterating, its
    # residual D, and its problems' first W, V and Gram matrix
    data, C, D, firsts = [], [], [None] * len(parts), []
    for (d, a), cs in zip(parts, cfgs):
        a = _avec(a, d.n)
        _check_rank(cfg.rank, d.n_features, d.q)
        Y, Z = d.Y, assemble_design(d)
        G = a[:, None] * Z
        W0, V0 = _initialize(Y, Z, a, cfg.rank)
        data.append((Y, Z, a, G, 2.0 * a * a))
        C.append(np.zeros((len(cs),) + Y.shape))
        firsts.append({"W": W0, "V": V0, "gram": G.T @ G})

    def objective(st, g, s):
        obj, D[g] = _objectives(*data[g][:3], st["W"][s], st["V"][s], C[g], st["phi"][s])
        return obj

    def update(st, spans):
        T0, GF = [], []
        for g, s in spans:
            Y, _, a, G, aa2 = data[g]
            C[g] = _shrink_rows(D[g], st["phi"][s, None] / aa2) if update_c else C[g]
            D[g] = None
            F = a[:, None] * (Y - C[g])  # F = A (Y - C)
            T0.append(G.T @ (F @ st["V"][s]))
            GF.append(G.T @ F)
        sweeps = _row_sweep(st, np.concatenate(T0), cfg.inner_tol, cfg.max_inner)
        st["V"] = _v_block(st["W"].mT @ np.concatenate(GF), st["V"])
        return sweeps

    def model(st, g, i, k, objs, sweeps, converged, n_outer):
        trace = FitTrace(objective=np.asarray(objs), w_sweeps=sweeps[1:],
                         c_sweeps=[int(update_c)] * n_outer, converged=converged,
                         n_outer=n_outer, w_capped=sweeps.count(cfg.max_inner))
        return FactorModel(W=st["W"][i], V=st["V"][i], C=C[g][k], rank=cfg.rank, trace=trace)

    return _lockstep(cfgs, firsts, objective, update, model, cfg.max_outer, (C, D))


def fit_batch(d: Dataset, a, cfgs, update_c: bool = True) -> list:
    """Fit one model per configuration, stepping all of them in lockstep.

    The configurations may differ only in lambda_w and phi_c. Every model,
    trace included, equals the one ``fit`` returns for its configuration,
    bit for bit; the batch shares the Gram matrix and the initializer and
    runs each row sweep once for all problems still iterating.
    """
    models = {j: model for _, j, model in _fit_groups([(d, a)], [cfgs], update_c)}
    return [models[j] for j in range(len(models))]


def fit(d: Dataset, a, cfg: FitConfig, update_c: bool = True) -> FactorModel:
    """Fit the penalized reduced-rank effect model by block descent.

    Parameters
    ----------
    d : Dataset
    a : WeightVector or array
        Per-subject weights.
    cfg : FitConfig
        Rank, penalties, tolerances. The outer loop stops by the one rule of
        every fit, ``_lockstep``'s, relative to the initial objective.
    update_c : bool
        Freeze C at zero when False (the non-robust reduced-rank variant).

    Returns the fitted FactorModel with its FitTrace attached. Deterministic:
    the initializer is a ridge-regularized weighted least-squares solve and
    no randomness is used. This is ``fit_batch`` with a batch of one.
    """
    return fit_batch(d, a, [cfg], update_c)[0]


def predict_cate(model: FactorModel, X_new) -> CateEstimate:
    """Per-subject effect estimates x^T W V^T for new covariate rows.

    The score is the row sum across outcomes, the quantity used to rank
    subjects by overall expected benefit.
    """
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim == 1:
        X_new = X_new[None, :]
    if X_new.shape[1] != model.W.shape[0]:
        raise DataError(
            f"X_new has {X_new.shape[1]} columns, model expects {model.W.shape[0]}"
        )
    values = X_new @ model.gamma
    return CateEstimate(values=values, score=values.sum(axis=1))

"""Alternating solver for the weighted robust reduced-rank effect model.

Minimizes, over W ((p+1) x r), V (q x r, orthonormal columns) and C (n x q),

    sum_i a_i^2 ||y_i - T_i V W^T x_i / 2 - c_i||^2
        + phi_c * sum_i ||c_i||  +  lambda_w * sum_k ||w_k||

by block descent: a row-separable shrinkage step for C, cyclic group-lasso
row updates for W, and an orthogonal Procrustes step for V. Each block step
is an exact conditional minimizer, so the objective never increases.

With z_i = T_i x_i / 2 the fidelity term is ||A (Y - Z W V^T - C)||_F^2,
which is the form the updates below work with.

``_descend`` solves many problems in lockstep along a leading stack axis: all
share the rank, each has its own penalties, and each group of them shares
one dataset (in cross-validation, one group per training fold).
``fit_batch`` is one group and ``fit`` a batch of one. The W row sweep is
two stateless functions: ``_sweep_rows`` steps a stack in NumPy rows, and
``_sweep_one`` sweeps one problem (the baselines call it directly) with the
same IEEE operations in fewer calls. A NumPy row step costs about the same
at any stack size, so small stacks with r <= 2 sweep each problem alone
(``_ALONE_MAX``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    CateEstimate,
    DataError,
    Dataset,
    FactorModel,
    FitConfig,
    NumericalError,
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
# By rank, the largest stack of P rows swept one problem at a time: under the
# alone/stack time crossover measured at 30 sweeps, m 2-32, P 1-51 (CHANGES.md)
_ALONE_MAX = {1: lambda P: min(12, 510 // (P + 30)) if P > 2 else 1,
              2: lambda P: 3 if P > 3 else 1}


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
    problem gets a unit pivot there, so its row's update is exactly 0.0 and
    no other row moves; rows zero in every problem are skipped. Row k's
    outer product (exact: one term) goes only to the rows of M = G W after
    k, the only ones read before the next sweep recomputes M. Once the stack
    holds one problem, or at r <= 2 no more than ``_ALONE_MAX``, each problem
    left is handed to ``_sweep_one`` for the sweeps left.
    """
    sweeps = np.empty(len(W), dtype=int)
    todo = np.arange(len(W))
    Ga, Wa, T0a, half_a = gram, W, T0, np.asarray(half, dtype=float)[:, None, None]
    count, (P, r) = 0, W.shape[1:]
    alone = _ALONE_MAX[r](P) if r in _ALONE_MAX else 1
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
        # pivots, (m, P, 1) columns and (m, 1, r) rows
        pivots = np.where(dead, 1.0, diag).T[:, :, None, None]
        cols = Gb[..., None].transpose(2, 0, 1, 3)
        views = (v[:, :, None].swapaxes(0, 1) for v in (Wb, Tb, M, delta))
        rows = [(dk, col[..., k + 1:, :], wk, tk, mk, dl, M[..., k + 1:, :],
                 outer[..., k + 1:, :]) for k, (dk, col, wk, tk, mk, dl, live)
                in enumerate(zip(pivots, cols, *views, (~dead.all(axis=0)).tolist())) if live]
        for count in range(count + 1, max_inner + 1):
            np.matmul(Gb, Wb, out=M)
            for dk, col, wk, tk, mk, dl, m_rest, o_rest in rows:
                h = tk - mk + dk * wk
                nv = np.sqrt(np.vecdot(h, h, keepdims=True))
                w_new = np.fmax(_ONE - half_a / nv, 0.0) * h / dk
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
    """
    half = float(half)  # a NumPy scalar makes every float row step slower
    G, wb = np.ascontiguousarray(gram), np.array(w, order="C")
    P, r = wb.shape
    wb[G.diagonal() == 0.0] = 0.0
    M, outer, delta = np.zeros((3, P, r))
    if r <= 2:
        rows = [(k, dk, *tk, col, range(k + 1, P)) for k, (dk, tk, col)
                in enumerate(zip(G.diagonal().tolist(), t0.tolist(), G.T.tolist())) if dk != 0.0]
        dls, hb = [[0.0] * P for _ in range(r)], np.empty(2)
    else:
        rows = [(dk, G[k + 1:, k, None], wb[k], t0[k], M[k], delta[k], M[k + 1:], outer[k + 1:])
                for k, dk in enumerate(G.diagonal().tolist()) if dk != 0.0]
    for count in range(1, max_inner + 1):
        np.matmul(G, wb, out=M)
        if r == 1:
            (w1,), (m,), (dw,) = wb.T.tolist(), M.T.tolist(), dls
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
            (w0, w1), (m0, m1), (dw0, dw1) = wb.T.tolist(), M.T.tolist(), dls
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
            for dk, col, wk, tk, mk, dl, m_rest, o_rest in rows:
                h = tk - mk + dk * wk
                nv = math.sqrt(np.vecdot(h, h))
                w_new = (1.0 - half / nv if nv > half else 0.0) * h / dk
                np.subtract(w_new, wk, out=dl)
                m_rest += np.multiply(col, dl, out=o_rest)
                wk[...] = w_new
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


def _objectives(Y, Z, a, W, V, C, lambdas, phis):
    """Penalized objective of each problem in a stack, and its residual
    Y - Z W V^T before offsets, which the next C step reuses."""
    D = Y - Z @ (W @ V.mT)
    R = a[:, None] * (D - C)
    fid = (R * R).reshape(len(R), -1).sum(axis=1)
    pen_c = phis * _row_norms(C).sum(axis=1)
    pen_w = lambdas * _row_norms(W).sum(axis=1)
    return fid + pen_c + pen_w, D


def objective(model: FactorModel, d: Dataset, a, cfg: FitConfig) -> float:
    """Penalized weighted objective value of a model on a dataset."""
    a = _avec(a, d.n)
    _block_inputs(d, model.W, model.V, model.C)
    obj, _ = _objectives(d.Y, assemble_design(d), a, model.W[None], model.V[None],
                         model.C[None], np.array([cfg.lambda_w]), np.array([cfg.phi_c]))
    return float(obj[0])


@dataclass(frozen=True)
class FitTrace:
    """Per-iteration record of a solver run.

    objective[0] is the value at initialization; objective[t] after outer
    sweep t. The sequence is non-increasing. c_sweeps[t] is 1 when the exact
    C step ran (0 with C frozen); w_sweeps[t] counts the W row sweeps, and
    w_capped the outer iterations whose W block ran all max_inner sweeps
    (its inner_tol test never passed). converged is about the outer loop.
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
    W0 = gamma0 @ V0
    return W0, V0


def _descend(groups, cfg: FitConfig, lambdas, phis, update_c: bool):
    """Block descent on the problems (g, j): the data (Y, Z, a) of groups[g]
    with the penalties lambdas[j] and phis[j], all at the rank and the
    tolerances of cfg.

    Each group's Gram matrix and initializer are computed once. One W sweep
    steps every problem still iterating, each with its group's Gram matrix;
    the n-sized work (the C step, the sweep targets, the objectives) runs
    per group on its own data. Each problem keeps its own inner and outer
    convergence state and leaves the stack when it stops, so its iterates,
    trace and stopping point are those of the same problem solved alone.
    Yields (g, j, model) as each problem stops.
    """
    m = len(lambdas)
    lam = np.tile(np.asarray(lambdas, dtype=float), len(groups))
    phi = np.tile(np.asarray(phis, dtype=float), len(groups))
    # per group: its data, and the C thresholds and next C of its problems
    # still iterating; the residual is turned into the next C at once
    data, c_thr, C = [], [], []
    W, V, gram, obj = [], [], [], []
    for g, (Y, Z, a) in enumerate(groups):
        G = a[:, None] * Z
        gg = G.T @ G
        W0, V0 = _initialize(Y, Z, a, cfg.rank)
        data.append((Y, Z, a, G))
        W.append(np.repeat(W0[None], m, axis=0))
        V.append(np.broadcast_to(V0, (m,) + V0.shape))
        gram.append(np.broadcast_to(gg, (m,) + gg.shape))
        c_thr.append(np.asarray(phis, dtype=float)[:, None] / (2.0 * a * a))
        C.append(np.zeros((m,) + Y.shape))
        o, D = _objectives(Y, Z, a, W[g], V[g], C[g], lam[:m], phi[:m])
        obj.append(o)
        if update_c:
            C[g] = _shrink_rows(D, c_thr[g])
    W, V, gram, obj = map(np.concatenate, (W, V, gram, obj))
    thresh = cfg.outer_tol * np.where(obj > 0, obj, 1.0)
    objs = [[v] for v in obj.tolist()]
    w_sweeps = [[] for _ in objs]
    todo = np.arange(len(objs))
    counts = [m] * len(groups)

    for n_outer in range(1, cfg.max_outer + 1):
        bounds = np.cumsum([0] + counts).tolist()
        spans = [(g, slice(*b)) for g, b in enumerate(zip(bounds, bounds[1:])) if counts[g]]
        T0 = np.empty(W.shape)
        GF = np.empty(W.shape[:2] + V.shape[1:2])
        for g, s in spans:
            Y, _, a, G = data[g]
            F = a[:, None] * (Y - C[g])
            T0[s] = G.T @ (F @ V[s])
            GF[s] = G.T @ F
        ws = _sweep_rows(gram, T0, W, lam / 2.0, cfg.inner_tol, cfg.max_inner)
        V = _v_block(W.mT @ GF, V)
        last = n_outer == cfg.max_outer
        new = np.empty(len(W))
        keep = np.empty(len(W), dtype=bool)
        for g, s in spans:
            Y, Z, a, _ = data[g]
            new[s], D = _objectives(Y, Z, a, W[s], V[s], C[g], lam[s], phi[s])
            if not np.isfinite(new[s]).all():
                raise NumericalError(f"objective became non-finite at outer iteration {n_outer}")
            keep[s] = obj[s] - new[s] >= thresh[s]
            for i, p, o, w, k in zip(range(s.start, s.stop), todo[s].tolist(),
                                     new[s].tolist(), ws[s].tolist(), keep[s].tolist()):
                objs[p].append(o)
                w_sweeps[p].append(w)
                if last or not k:
                    trace = FitTrace(objective=np.asarray(objs[p]), w_sweeps=w_sweeps[p],
                                     c_sweeps=[int(update_c)] * n_outer,
                                     converged=not k, n_outer=n_outer,
                                     w_capped=w_sweeps[p].count(cfg.max_inner))
                    yield g, p % m, FactorModel(W=W[i], V=V[i], C=C[g][i - s.start],
                                                rank=cfg.rank, trace=trace)
            if last:
                continue
            kg = keep[s]
            c_thr[g], counts[g] = c_thr[g][kg], int(kg.sum())
            C[g] = _shrink_rows(D[kg], c_thr[g]) if update_c else C[g][kg]
        if last or not keep.any():
            return
        if not keep.all():
            todo, W, V, gram = todo[keep], W[keep], V[keep], gram[keep]
            lam, phi, thresh, new = lam[keep], phi[keep], thresh[keep], new[keep]
        obj = new


def _check_rank(d: Dataset, rank: int) -> None:
    if rank > min(d.n_features, d.q):
        raise DataError(f"rank {rank} exceeds min(p+1, q) = {min(d.n_features, d.q)}")


def _fit_groups(parts, cfgs, update_c: bool = True):
    """Fit every configuration to every (d, a) of parts in one lockstep
    descent; an iterator of (g, j, model) for cfgs[j] fit to parts[g], in
    the order the problems stop.

    The configurations may differ only in lambda_w and phi_c. Every model,
    trace included, equals the one ``fit`` returns for its data and
    configuration, bit for bit.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise DataError("fit_batch needs at least one configuration")
    first = cfgs[0]
    if any(replace(c, lambda_w=first.lambda_w, phi_c=first.phi_c) != first for c in cfgs[1:]):
        raise DataError("configurations in one batch may differ only in lambda_w and phi_c")
    groups = []
    for d, a in parts:
        a = _avec(a, d.n)
        _check_rank(d, first.rank)
        groups.append((d.Y, assemble_design(d), a))
    return _descend(groups, first, [c.lambda_w for c in cfgs], [c.phi_c for c in cfgs],
                    update_c)


def fit_batch(d: Dataset, a, cfgs, update_c: bool = True) -> list:
    """Fit one model per configuration, stepping all of them in lockstep.

    The configurations may differ only in lambda_w and phi_c. Every model,
    trace included, equals the one ``fit`` returns for its configuration,
    bit for bit; the batch shares the Gram matrix and the initializer and
    runs each row sweep once for all problems still iterating.
    """
    models = {j: model for _, j, model in _fit_groups([(d, a)], cfgs, update_c)}
    return [models[j] for j in range(len(models))]


def fit(d: Dataset, a, cfg: FitConfig, update_c: bool = True) -> FactorModel:
    """Fit the penalized reduced-rank effect model by block descent.

    Parameters
    ----------
    d : Dataset
    a : WeightVector or array
        Per-subject weights.
    cfg : FitConfig
        Rank, penalties, tolerances. Outer convergence is declared when the
        objective decrease falls below outer_tol relative to the initial
        objective value.
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

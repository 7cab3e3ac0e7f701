"""The lockstep batched solver against serial fits, bit for bit.

``fit_batch`` steps many problems together, and ``solver._fit_groups`` steps
them across several datasets (the training folds of CV) with one W sweep, as
``baselines._fit_stack`` does for the wmcm and wfull baselines and
``baselines._fit_l1_stack`` for wmcml1 with one proximal step; each problem
must come out exactly as when solved alone. ``_serial_fit``
below is a plain one-problem reference of the block descent (a Python loop
over loading rows, the C step applied once per outer iteration) and is the
oracle for ``fit``, ``fit_batch``, ``_fit_groups`` and the squared-loss
baselines; ``_ref_l1`` is that of the absolute-loss baseline.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from multicate import (
    CvGrid,
    DataError,
    FitConfig,
    assemble_design,
    cross_validate,
    fit,
    fit_batch,
    fit_wfull,
    fit_wmcm,
    fit_wmcm_l1,
    group_soft_threshold,
    kfold_split,
    update_loading_rows,
    validate_dataset,
)
from multicate import baselines, model_selection, solver

from conftest import make_dataset

# =============================================================================
# serial reference
# =============================================================================


def _ref_w_block(gram, T0, W, lam, inner_tol, max_inner):
    W = W.copy()
    diag = np.diag(gram)
    sweeps = 0
    for _ in range(max_inner):
        sweeps += 1
        M = gram @ W
        worst = 0.0
        for k in range(W.shape[0]):
            if diag[k] <= 0.0:
                W[k] = 0.0
                continue
            w_new = group_soft_threshold(T0[k] - M[k] + diag[k] * W[k], lam / 2.0) / diag[k]
            change = np.linalg.norm(w_new - W[k])
            if change > 0.0:
                M += np.outer(gram[:, k], w_new - W[k])
                W[k] = w_new
                worst = max(worst, change)
        if worst < inner_tol * (1.0 + np.max(np.linalg.norm(W, axis=1))):
            break
    return W, sweeps


def _ref_objective(Y, Z, a, W, V, C, lam, phi):
    R = a[:, None] * (Y - Z @ (W @ V.T) - C)
    return (float(np.sum(R * R)) + phi * float(np.sum(np.linalg.norm(C, axis=1)))
            + lam * float(np.sum(np.linalg.norm(W, axis=1))))


def _serial_fit(d, a, cfg, update_c=True):
    Y, Z = d.Y, assemble_design(d)
    G = a[:, None] * Z
    aa = a * a
    H = Z.T @ (Z * aa[:, None]) + 1e-8 * np.eye(Z.shape[1])
    gamma0 = np.linalg.solve(H, Z.T @ (Y * aa[:, None]))
    V = np.linalg.svd(Z @ gamma0, full_matrices=False)[2][:cfg.rank].T
    W = gamma0 @ V
    C = np.zeros_like(Y)
    lam, phi = cfg.lambda_w, cfg.phi_c
    objs = [_ref_objective(Y, Z, a, W, V, C, lam, phi)]
    thresh = cfg.outer_tol * (objs[0] if objs[0] > 0 else 1.0)
    w_sweeps, converged = [], False
    for _ in range(cfg.max_outer):
        if update_c:
            R = Y - Z @ (W @ V.T)
            norms = np.linalg.norm(R, axis=1)
            thr = phi / (2.0 * a * a)
            scale = np.zeros_like(norms)
            pos = norms > 0
            scale[pos] = np.maximum(0.0, 1.0 - thr[pos] / norms[pos])
            C = scale[:, None] * R
        F = a[:, None] * (Y - C)
        W, ws = _ref_w_block(G.T @ G, G.T @ (F @ V), W, lam, cfg.inner_tol, cfg.max_inner)
        w_sweeps.append(ws)
        M = W.T @ (G.T @ F)
        if np.any(M):
            U, _, St = np.linalg.svd(M, full_matrices=False)
            V = St.T @ U.T
        objs.append(_ref_objective(Y, Z, a, W, V, C, lam, phi))
        if objs[-2] - objs[-1] < thresh:
            converged = True
            break
    return W, V, C, objs, w_sweeps, converged


def _assert_same_model(got, ref, update_c=True):
    W, V, C, objs, w_sweeps, converged = ref
    assert np.array_equal(got.W, W) and np.array_equal(got.V, V) and np.array_equal(got.C, C)
    tr = got.trace
    assert np.array_equal(tr.objective, objs)
    assert tr.w_sweeps == w_sweeps
    assert tr.c_sweeps == [int(update_c)] * len(w_sweeps)
    assert tr.n_outer == len(w_sweeps)
    assert tr.converged == converged


def _assert_same_fit(m1, m2):
    assert np.array_equal(m1.W, m2.W) and np.array_equal(m1.V, m2.V)
    assert np.array_equal(m1.C, m2.C)
    t1, t2 = m1.trace, m2.trace
    assert np.array_equal(t1.objective, t2.objective)
    assert (t1.w_sweeps, t1.c_sweeps, t1.n_outer, t1.converged) == \
        (t2.w_sweeps, t2.c_sweeps, t2.n_outer, t2.converged)


def _contaminated(n=90, p=4, q=4, seed=3):
    d, _ = make_dataset(n, p, q, seed=seed)
    Y = np.array(d.Y)
    Y[:5] += 12.0
    return validate_dataset(d.X, Y, d.T)


def _grid_cfgs(rank, **kw):
    return [FitConfig(rank=rank, lambda_w=lam, phi_c=phi, **kw)
            for lam in (0.0, 1.0, 20.0) for phi in (0.0, 0.5, 20.0)]


# =============================================================================
# batched = serial
# =============================================================================


@pytest.mark.parametrize("rank", [1, 2])
def test_batch_equals_serial_on_mixed_grid(rank):
    d = _contaminated()
    a = np.random.default_rng(rank).uniform(0.6, 1.6, d.n)
    cfgs = _grid_cfgs(rank)
    batch = fit_batch(d, a, cfgs)
    alone = [fit(d, a, cfg) for cfg in cfgs]
    for cfg, model, single in zip(cfgs, batch, alone):
        _assert_same_fit(model, single)
        _assert_same_model(model, _serial_fit(d, a, cfg))
    # rows zeroed by the penalty hold 0.0, never -0.0 (model files print both)
    zeros = np.concatenate([m.W[m.W == 0.0] for m in batch + alone])
    assert zeros.size and not np.signbit(zeros).any()


def test_batch_order_does_not_matter():
    d = _contaminated(seed=8)
    a = np.ones(d.n)
    cfgs = _grid_cfgs(2)
    forward = fit_batch(d, a, cfgs)
    backward = fit_batch(d, a, cfgs[::-1])[::-1]
    for m1, m2 in zip(forward, backward):
        _assert_same_fit(m1, m2)


def test_batch_mixes_converged_and_capped_problems():
    d = _contaminated(seed=5)
    a = np.ones(d.n)
    cfgs = _grid_cfgs(2, max_outer=4)
    batch = fit_batch(d, a, cfgs)
    assert {m.trace.converged for m in batch} == {True, False}
    for cfg, model in zip(cfgs, batch):
        assert model.trace.n_outer <= 4
        _assert_same_model(model, _serial_fit(d, a, cfg))


def test_batch_with_zero_design_column():
    d = _contaminated(seed=11)
    X = np.array(d.X)
    X[:, 2] = 0.0
    d = validate_dataset(X, d.Y, d.T)
    a = np.ones(d.n)
    cfgs = _grid_cfgs(1)
    for cfg, model in zip(cfgs, fit_batch(d, a, cfgs)):
        assert not np.any(model.W[2])
        _assert_same_model(model, _serial_fit(d, a, cfg))


def test_batch_with_frozen_offsets():
    d = _contaminated(seed=13)
    a = np.random.default_rng(0).uniform(0.6, 1.6, d.n)
    cfgs = [FitConfig(rank=2, lambda_w=lam) for lam in (0.0, 2.0, 30.0)]
    for cfg, model in zip(cfgs, fit_batch(d, a, cfgs, update_c=False)):
        assert not np.any(model.C)
        _assert_same_fit(model, fit(d, a, cfg, update_c=False))
        _assert_same_model(model, _serial_fit(d, a, cfg, update_c=False), update_c=False)


def test_batch_rejects_configurations_that_differ_beyond_penalties():
    d = _contaminated()
    with pytest.raises(DataError, match="differ only"):
        fit_batch(d, np.ones(d.n), [FitConfig(rank=1), FitConfig(rank=2)])
    with pytest.raises(DataError, match="at least one"):
        fit_batch(d, np.ones(d.n), [])


# =============================================================================
# several datasets in one descent: the training folds of CV
# =============================================================================


def _training_folds(d, folds, seed):
    assignment = kfold_split(d.T, folds, seed)
    return [model_selection._subset(d, assignment != f) for f in range(folds)]


def _fold_stack(parts, cfgs, update_c=True):
    # every part fit at every configuration
    return {(g, j): model for g, j, model in solver._fit_groups(parts, [cfgs] * len(parts),
                                                                update_c)}


@pytest.mark.parametrize("update_c", [True, False])
def test_fold_stack_equals_per_fold_batches(update_c):
    d = _contaminated(n=80, seed=5)
    parts = [(d_tr, np.random.default_rng(f).uniform(0.6, 1.6, d_tr.n))
             for f, d_tr in enumerate(_training_folds(d, 3, seed=1))]
    assert len({d_tr.n for d_tr, _ in parts}) > 1  # ragged folds
    cfgs = _grid_cfgs(2, max_outer=4)
    stacked = _fold_stack(parts, cfgs, update_c)
    assert {m.trace.converged for m in stacked.values()} == {True, False}
    for g, (d_tr, a) in enumerate(parts):
        for j, (cfg, model) in enumerate(zip(cfgs, fit_batch(d_tr, a, cfgs, update_c))):
            _assert_same_fit(stacked[g, j], model)
            _assert_same_model(stacked[g, j], _serial_fit(d_tr, a, cfg, update_c), update_c)


def test_fold_stack_with_its_own_configurations_per_group_equals_per_fold_batches():
    # as replications' default grids stack: each group its own penalties and count
    d = _contaminated(n=80, seed=7)
    parts = [(d_tr, np.ones(d_tr.n)) for d_tr in _training_folds(d, 3, seed=4)]
    cfgs = [[FitConfig(rank=2, lambda_w=lam * (g + 1), phi_c=phi / (g + 1))
             for lam in (0.5, 8.0)[:g + 1] for phi in (2.0, 40.0)] for g in range(len(parts))]
    stacked = {(g, j): m for g, j, m in solver._fit_groups(parts, cfgs)}
    assert len(stacked) == sum(map(len, cfgs))
    for g, (d_tr, a) in enumerate(parts):
        for j, model in enumerate(fit_batch(d_tr, a, cfgs[g])):
            _assert_same_fit(stacked[g, j], model)
    with pytest.raises(DataError, match="one list of at least one configuration per dataset"):
        solver._fit_groups(parts, cfgs[:2])


def test_fold_stack_with_column_zero_in_one_training_fold():
    d = _contaminated(n=80, seed=29)
    assignment = kfold_split(d.T, 3, 2)
    X = np.array(d.X)
    X[assignment != 0, 2] = 0.0  # nonzero only on fold 0, so zero when fold 0 is held out
    d = validate_dataset(X, d.Y, d.T)
    parts = [(d_tr, np.ones(d_tr.n)) for d_tr in _training_folds(d, 3, seed=2)]
    cfgs = _grid_cfgs(1)
    stacked = _fold_stack(parts, cfgs)
    for g, (d_tr, a) in enumerate(parts):
        for j, cfg in enumerate(cfgs):
            W = stacked[g, j].W
            if g == 0:
                assert not np.any(W[2]) and not np.signbit(W[2]).any()
            _assert_same_model(stacked[g, j], _serial_fit(d_tr, a, cfg))
    assert any(np.any(stacked[g, j].W[2]) for g in (1, 2) for j in range(len(cfgs)))


@pytest.mark.parametrize("stack", [solver._fit_groups,
                                   lambda parts, cfgs: baselines._fit_stack("wmcm", parts, cfgs),
                                   lambda parts, cfgs: baselines._fit_stack("wfull", parts, cfgs),
                                   baselines._fit_l1_stack],
                         ids=["fit_groups", "wmcm", "wfull", "wmcml1"])
def test_fold_stack_yields_by_iteration_then_group_then_configuration(stack):
    # consumers (CV scores each model as it stops, run_scenario files it by
    # replication) rely on this order, which solver._lockstep sets for every stack
    d = _contaminated(n=80, seed=5)
    parts = [(d_tr, np.ones(d_tr.n)) for d_tr in _training_folds(d, 3, seed=1)]
    order = [(m.trace.n_outer, g, j) for g, j, m in stack(parts, [_grid_cfgs(1)] * len(parts))]
    assert len(order) == 27 and order == sorted(order)
    # some iteration stops problems of several groups and several configurations
    assert any(len({g for n, g, _ in order if n == t}) > 1
               and len({j for n, _, j in order if n == t}) > 1 for t, _, _ in order)


@pytest.mark.parametrize("method", model_selection.METHODS)
def test_every_stack_checks_its_arguments_when_called(method):
    # a configuration list short of one per dataset raises at the call, before
    # anything iterates the stack
    d = _contaminated(n=80, seed=5)
    parts = [(d_tr, np.ones(d_tr.n)) for d_tr in _training_folds(d, 3, seed=1)]
    with pytest.raises(DataError, match="one list of at least one configuration per dataset"):
        model_selection._ESTIMATORS[method].stack(parts, [_grid_cfgs(1)] * (len(parts) - 1))


# =============================================================================
# the baselines and the loading-row update share the row sweep
# =============================================================================


def _ref_baseline(d, a, lam, cfg, main_effect):
    # wmcm: one row sweep per outer iteration on the fixed target A Y;
    # wfull: alternate the main-effect solve with a full row-sweep block
    X, Y, Z = d.X, d.Y, assemble_design(d)
    G = a[:, None] * Z
    aa = a * a
    H = X.T @ (X * aa[:, None])
    gamma, B = np.zeros((d.n_features, d.q)), np.zeros((d.n_features, d.q))

    def obj():
        if main_effect:
            R = a[:, None] * (Y - X @ B - Z @ gamma)
        else:
            R = a[:, None] * Y - G @ gamma
        return float(np.sum(R * R)) + lam * float(np.sum(np.linalg.norm(gamma, axis=1)))

    objs = [obj()]
    thresh = cfg.outer_tol * (objs[0] if objs[0] > 0 else 1.0)
    for _ in range(cfg.max_outer):
        if main_effect:
            B = np.linalg.solve(H, X.T @ ((Y - Z @ gamma) * aa[:, None]))
        sweeps = cfg.max_inner if main_effect else 1
        gamma, _ = _ref_w_block(G.T @ G, G.T @ (a[:, None] * (Y - X @ B)), gamma, lam,
                                cfg.inner_tol, sweeps)
        objs.append(obj())
        if objs[-2] - objs[-1] < thresh:
            break
    return gamma, B, objs


def _ref_l1(d, a, lam, cfg):
    # proximal gradient on the Huber surrogate with a backtracking step, one
    # problem in Python floats, as fit_wmcm_l1 fits it; also the outer steps
    # whose line search halved the step
    delta = baselines.HUBER_DELTA
    G, Yw = a[:, None] * assemble_design(d), a[:, None] * d.Y

    def huber(R):
        absr = np.abs(R)
        return float(np.sum(np.where(absr <= delta, R * R / (2.0 * delta), absr - delta / 2.0)))

    gamma = np.zeros((d.n_features, d.q))
    R = Yw - G @ gamma
    loss, eta, halved = huber(R), 1.0, set()
    objs = [loss + lam * float(np.sum(np.linalg.norm(gamma, axis=1)))]
    thresh = cfg.outer_tol * (objs[0] if objs[0] > 0 else 1.0)
    for t in range(1, cfg.max_outer * cfg.max_inner + 1):
        grad = -G.T @ np.clip(R / delta, -1.0, 1.0)
        while True:
            P = gamma - eta * grad
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = np.fmax(1.0 - eta * lam / np.sqrt(np.vecdot(P, P, keepdims=True)),
                               0.0) * P + 0.0
            move = cand - gamma
            R_cand = Yw - G @ cand
            lhs = huber(R_cand)
            rhs = loss + float(np.sum(grad * move)) + float(np.sum(move * move)) / (2.0 * eta)
            if lhs <= rhs + 1e-12 * (1.0 + abs(loss)):
                break
            eta *= 0.5
            halved.add(t)
        gamma, R, loss, eta = cand, R_cand, lhs, eta * 1.5
        objs.append(loss + lam * float(np.sum(np.linalg.norm(gamma, axis=1))))
        if objs[-2] - objs[-1] < thresh:
            return gamma, objs, halved
    raise AssertionError("the reference hit its cap")


def test_wmcm_and_wfull_equal_serial_reference():
    cfg = FitConfig(rank=1)
    # with q = 1, Gamma has one column, and the sweep steps Python floats
    for q in (4, 1):
        d = _contaminated(q=q, seed=17)
        a = np.random.default_rng(2).uniform(0.6, 1.6, d.n)
        for lam in (0.0, 3.0, 40.0):
            gamma, _, objs = _ref_baseline(d, a, lam, cfg, main_effect=False)
            got = fit_wmcm(d, a, lam, cfg)
            assert np.array_equal(got.gamma, gamma) and np.array_equal(got.trace.objective, objs)
            gamma, B, objs = _ref_baseline(d, a, lam, cfg, main_effect=True)
            got = fit_wfull(d, a, lam, cfg)
            assert np.array_equal(got.gamma, gamma) and np.array_equal(got.B, B)
            assert np.array_equal(got.trace.objective, objs)
        assert got.gamma.shape == (d.n_features, q)
        # a zero design column, for wmcm only: the reference cannot solve wfull's
        # singular main-effect normal equations
        X = np.array(d.X)
        X[:, 2] = 0.0
        d = validate_dataset(X, d.Y, d.T)
        for lam in (0.0, 3.0, 40.0):
            gamma, _, objs = _ref_baseline(d, a, lam, cfg, main_effect=False)
            got = fit_wmcm(d, a, lam, cfg)
            assert np.array_equal(got.gamma, gamma) and np.array_equal(got.trace.objective, objs)
            assert not got.gamma[2].any() and not np.signbit(got.gamma[2]).any()


def test_loading_rows_with_zero_design_column_equal_reference():
    d = _contaminated(seed=19)
    X = np.array(d.X)
    X[:, 2] = 0.0
    d = validate_dataset(X, d.Y, d.T)
    rng = np.random.default_rng(4)
    a = rng.uniform(0.6, 1.6, d.n)
    W = rng.standard_normal((d.n_features, 2))  # nonzero on the zero column's row too
    V = np.linalg.qr(rng.standard_normal((d.q, 2)))[0]
    C = 0.1 * rng.standard_normal((d.n, d.q))
    G = a[:, None] * assemble_design(d)
    T0 = G.T @ ((a[:, None] * (d.Y - C)) @ V)
    for lam in (0.0, 3.0, 40.0):
        for max_inner in (1, 100):
            got = update_loading_rows(W, d, a, C, V, lam, max_inner=max_inner)
            ref, _ = _ref_w_block(G.T @ G, T0, W, lam, 1e-8, max_inner)
            assert np.array_equal(got, ref)
            assert not got[2].any() and not np.signbit(got[2]).any()


# =============================================================================
# the baseline stack: wmcm and wfull over groups of problems = each alone
# =============================================================================


def _baseline_parts(q, zero_column_in=None, duplicate_in=None):
    # three datasets of different n (like replications or training folds); the
    # group zero_column_in has design column 2 zero, duplicate_in a covariate twice
    parts = []
    for g, (n, seed) in enumerate(((60, 41), (85, 42), (110, 43))):
        d = _contaminated(n=n, q=q, seed=seed)
        X = np.array(d.X)
        if g == zero_column_in:
            X[:, 2] = 0.0
        if g == duplicate_in:
            X[:, 3] = X[:, 2]
        a = np.random.default_rng(seed).uniform(0.6, 1.6, n)
        parts.append((validate_dataset(X, d.Y, d.T), a))
    return parts


def _baseline_stack(method, parts, lambdas, **kw):
    # every part at every lambda in one stack: {(g, j): model}, the problems in stop order
    cfgs = [[FitConfig(rank=1, lambda_w=lam, **kw) for lam in lambdas]] * len(parts)
    fits = list(model_selection._ESTIMATORS[method].stack(parts, cfgs))
    return {(g, j): m for g, j, m in fits}, [(g, j) for g, j, _ in fits]


def _assert_same_baseline(got, alone):
    assert got.method == alone.method
    assert got.gamma.tobytes() == alone.gamma.tobytes()
    assert (got.B is None and alone.B is None) or got.B.tobytes() == alone.B.tobytes()
    t1, t2 = got.trace, alone.trace
    assert t1.objective.tobytes() == t2.objective.tobytes()
    assert (t1.n_outer, t1.converged, t1.w_sweeps, t1.c_sweeps, t1.w_capped) == \
        (t2.n_outer, t2.converged, t2.w_sweeps, t2.c_sweeps, t2.w_capped)


_BASELINE_LAMBDAS = (0.0, 1.0, 3.0, 40.0, 400.0)


@pytest.mark.parametrize("q", [1, 2, 4, 10])
@pytest.mark.parametrize("method", ["wmcm", "wfull", "wmcml1"])
def test_baseline_stack_equals_each_fit_alone(method, q):
    # groups of different n, lambda = 0 among the penalties, and for the
    # squared-loss fits a cap that stops some problems and not others (a
    # wmcml1 fit at its cap raises: tests/test_baselines.py)
    parts = _baseline_parts(q)
    fit_alone = {"wmcm": fit_wmcm, "wfull": fit_wfull, "wmcml1": fit_wmcm_l1}[method]
    cfg = FitConfig(rank=1)
    if method != "wmcml1":
        # one iteration under the slowest fit's count: it stops there, the fastest converge
        n_outer = [fit_alone(d, a, lam).trace.n_outer for d, a in parts
                   for lam in _BASELINE_LAMBDAS]
        assert min(n_outer) < max(n_outer)
        cfg = FitConfig(rank=1, max_outer=max(n_outer) - 1)
    stacked, order = _baseline_stack(method, parts, _BASELINE_LAMBDAS, max_outer=cfg.max_outer)
    assert len(stacked) == 15 and {m.trace.converged for m in stacked.values()} == (
        {True} if method == "wmcml1" else {True, False})
    # problems stop by iteration, then group, then penalty
    assert [(stacked[k].trace.n_outer, *k) for k in order] == sorted(
        (stacked[k].trace.n_outer, *k) for k in order)
    halved = []  # wmcml1: per problem, its outer steps and those that halved its step
    for g, (d, a) in enumerate(parts):
        for j, lam in enumerate(_BASELINE_LAMBDAS):
            _assert_same_baseline(stacked[g, j], fit_alone(d, a, lam, cfg))
            if method == "wmcml1":
                gamma, objs, steps = _ref_l1(d, a, lam, cfg)
                halved.append((len(objs) - 1, steps))
            else:
                gamma, _, objs = _ref_baseline(d, a, lam, cfg, main_effect=method == "wfull")
            assert np.array_equal(stacked[g, j].gamma, gamma)
            assert np.array_equal(stacked[g, j].trace.objective, objs)
    if method == "wmcml1":
        # some outer step halves the step of some of the problems still iterating, not all
        assert any(0 < sum(t in s for n, s in halved if n >= t) < sum(n >= t for n, _ in halved)
                   for _, steps in halved for t in steps)


@pytest.mark.parametrize("q, groups, lambdas", [(1, 3, _BASELINE_LAMBDAS), (2, 2, (3.0, 400.0)),
                                                (10, 1, (3.0, 400.0))])
def test_wmcm_stack_sweeps_the_last_few_problems_alone(monkeypatch, q, groups, lambdas):
    # more problems than _sweep_rows sweeps one at a time (_alone): the stack
    # steps NumPy rows until the heavy penalties stop, then each _sweep_rows
    # call hands every problem left to _sweep_one; each model equals its fit alone
    parts = _baseline_parts(q)[:groups]
    m = groups * len(lambdas)
    alone = solver._alone(parts[0][0].n_features, q)
    assert m > alone
    calls = _recorded_sweeps(monkeypatch)
    stacked, _ = _baseline_stack("wmcm", parts, lambdas)
    monkeypatch.undo()
    # wmcm sweeps once per outer iteration, in the stack or alone
    sizes = [c[1] for c in calls if c[0] == "rows"]
    assert sizes[0] == m and all(c[-1] == 1 for c in calls)
    assert any(n <= alone for n in sizes) and ("one", 1) in calls
    for g, (d, a) in enumerate(parts):
        for j, lam in enumerate(lambdas):
            _assert_same_baseline(stacked[g, j], fit_wmcm(d, a, lam))


@pytest.mark.parametrize("method", ["wmcm", "wfull"])
def test_baseline_stack_with_zero_design_column_in_one_group(method):
    # column 2 zero in group 1 only: the stacked sweep steps that row with a unit
    # pivot in group 1's problems; for wfull the group's normal equations are singular
    parts = _baseline_parts(4, zero_column_in=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        stacked, _ = _baseline_stack(method, parts, _BASELINE_LAMBDAS)
        fit_alone = fit_wmcm if method == "wmcm" else fit_wfull
        for g, (d, a) in enumerate(parts):
            for j, lam in enumerate(_BASELINE_LAMBDAS):
                model = stacked[g, j]
                _assert_same_baseline(model, fit_alone(d, a, lam, FitConfig(rank=1)))
                assert (g == 1) <= (model.gamma[2].tobytes() == bytes(8 * 4))
    assert any(stacked[0, j].gamma[2].any() for j in range(len(_BASELINE_LAMBDAS)))


def test_baseline_stack_warns_only_for_the_singular_group():
    # group 2 repeats a covariate: its main-effect normal equations are singular
    parts = _baseline_parts(3, duplicate_in=2)
    cfgs = [[FitConfig(rank=1, lambda_w=lam) for lam in _BASELINE_LAMBDAS]] * len(parts)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        fits = baselines._fit_stack("wfull", parts, cfgs)
        # the call decides once per group, before any iteration
        assert len(rec) == 1 and "jitter" in str(rec[0].message)
        assert rec[0].category is RuntimeWarning
        stacked = {(g, j): m for g, j, m in fits}
        assert len(rec) == 1
        list(baselines._fit_stack("wfull", parts[:2], cfgs[:2]))  # no singular group
    assert len(rec) == 1
    for g, (d, a) in enumerate(parts):
        for j, lam in enumerate(_BASELINE_LAMBDAS):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                alone = fit_wfull(d, a, lam)
            assert len(rec) == (g == 2)
            assert all("jitter" in str(w.message) for w in rec)
            _assert_same_baseline(stacked[g, j], alone)


def test_baseline_stack_rejects_configurations_that_differ_beyond_penalties():
    parts = _baseline_parts(2)[:2]
    with pytest.raises(DataError, match="differ only"):
        list(baselines._fit_stack("wmcm", parts, [[FitConfig(rank=1)],
                                                  [FitConfig(rank=1, max_outer=3)]]))
    with pytest.raises(DataError, match="one list of at least one configuration per dataset"):
        list(baselines._fit_stack("wfull", parts, [[FitConfig(rank=1)]]))


# =============================================================================
# a design column zero in some problems of a stack but not all
# =============================================================================


@pytest.mark.parametrize("r", [1, 2, 3])
def test_stack_with_partly_zero_columns_equals_alone_on_non_finite_values(monkeypatch, r):
    # stacks mixing per-problem zero design columns with NaN/inf targets or NaN
    # in W: a column zero in a problem gives its row 0.0 there, as alone, so no
    # NaN from that row reaches the problem's other rows
    monkeypatch.setattr(solver, "_ALONE_MAX", {})  # the stack steps NumPy rows throughout
    rng = np.random.default_rng(101 + r)
    compared = partly = 0
    for _ in range(40):
        m, P = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        gram, T0, W0 = (np.stack(v) for v in zip(*(
            _sweep_problem(rng, P=P, r=r, n=P + 4) for _ in range(m))))
        dead = rng.random((m, P)) < 0.3
        for j, k in zip(*np.nonzero(dead)):
            gram[j, k, :] = gram[j, :, k] = 0.0
            T0[j, k] = 0.0
        bad = rng.random((m, P, r)) < 0.15
        T0[bad] = rng.choice([np.nan, np.inf, -np.inf], int(bad.sum()))
        W0[rng.random((m, P, r)) < 0.05] = np.nan
        half = rng.uniform(0.0, 3.0, m)
        W = W0.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            counts = solver._sweep_rows(gram, T0, W, half, 1e-8, 6)
            for j in range(m):
                one = W0[j].copy()
                n_one = solver._sweep_one(gram[j], T0[j], one, half[j], 1e-8, 6)
                assert counts[j] == n_one
                assert np.array_equal(W[j], one, equal_nan=True)
                fin = np.isfinite(one)
                assert W[j][fin].tobytes() == one[fin].tobytes()
                compared += 1
        partly += int((dead.any(axis=0) & ~dead.all(axis=0)).any())
    assert compared > 100 and partly > 20


# =============================================================================
# the one-problem branches of the row sweep at the shrinkage boundaries
# =============================================================================


def _sweep_problem(rng, P=6, r=2, n=40):
    G = rng.standard_normal((n, P))
    return G.T @ G, G.T @ rng.standard_normal((n, r)), rng.standard_normal((P, r))


def _isolate(gram, k, pivot):
    # design column k orthogonal to the others, with squared norm pivot
    gram[k, :] = gram[:, k] = 0.0
    gram[k, k] = pivot


def _boundary_case(case, r):
    # (gram, T0, W0, half) of one problem with r columns whose row 2 sits at
    # a boundary of the shrink factor (1 - half/||h||)_+ at every sweep
    gram, T0, W0 = _sweep_problem(np.random.default_rng(31), r=r)
    half = 5.0
    if case == "zero target, no penalty":
        half = 0.0  # h = 0 and half = 0: the stacked step meets 0/0
        _isolate(gram, 2, 3.0)
        T0[2] = W0[2] = 0.0
    elif case in ("norm at threshold", "norm one ulp above threshold"):
        _isolate(gram, 2, 3.0)
        T0[2], W0[2] = (3.0, 4.0, 0.0)[:r] if r > 1 else 5.0, 0.0  # ||h|| = 5 at every sweep
        if case == "norm one ulp above threshold":
            half = np.nextafter(5.0, 0.0)
    elif case == "zero design column":
        _isolate(gram, 2, 0.0)
        T0[2] = 0.0  # W0[2] stays nonzero: the sweep must zero it
    return gram, T0, W0, half


def _alone_and_stacked(gram, T0, W0, half, max_inner):
    # the problem swept alone, and between two others: (W, sweeps) of each
    r = W0.shape[1]
    one = W0.copy()
    n_one = solver._sweep_one(gram, T0, one, half, 1e-8, max_inner)
    rng = np.random.default_rng(32)
    # the first neighbour (7 rows for 6 columns) is ill-conditioned: it sweeps to
    # the cap, so the stacked branch steps the problem throughout (small stacks
    # are let step NumPy rows here; the tests of _ALONE_MAX cover them)
    (g0, t0, w0), (g2, t2, w2) = _sweep_problem(rng, r=r, n=7), _sweep_problem(rng, r=r)
    stack = np.stack([w0, W0, w2])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_ALONE_MAX", {})
        n_stack = solver._sweep_rows(np.stack([g0, gram, g2]), np.stack([t0, T0, t2]), stack,
                                     [0.1, half, 40.0], 1e-8, max_inner)
    assert n_stack[0] == max_inner
    return one, n_one, stack, n_stack


def _check_boundary(case, max_inner, r):
    # the problem alone, between two others, and in the serial reference
    gram, T0, W0, half = _boundary_case(case, r)
    one, n_one, stack, n_stack = _alone_and_stacked(gram, T0, W0, half, max_inner)
    ref, n_ref = _ref_w_block(gram, T0, W0, 2.0 * half, 1e-8, max_inner)
    # byte for byte, so signed zeros count
    assert one.tobytes() == stack[1].tobytes() == ref.tobytes()
    assert n_one == n_stack[1] == n_ref
    # row 2 is +0.0 except just above the threshold, where it barely survives
    assert (one[2].tobytes() == bytes(8 * r)) == (case != "norm one ulp above threshold")


BOUNDARY_CASES = ["zero target, no penalty", "norm at threshold",
                  "norm one ulp above threshold", "zero design column"]


@pytest.mark.parametrize("max_inner", [1, 100])
@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_one_problem_sweep_equals_stack_and_reference_at_boundaries(case, max_inner):
    # one problem with two columns: the sweep steps Python floats, nv by vecdot
    _check_boundary(case, max_inner, r=2)


@pytest.mark.parametrize("max_inner", [1, 100])
@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_scalar_sweep_equals_stack_and_reference_at_boundaries(case, max_inner):
    # one problem with one column: the sweep steps Python floats
    _check_boundary(case, max_inner, r=1)


@pytest.mark.parametrize("max_inner", [1, 100])
@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_one_problem_numpy_rows_equal_stack_and_reference_at_boundaries(case, max_inner):
    # one problem with three columns: the sweep steps 1-D NumPy rows
    _check_boundary(case, max_inner, r=3)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("case", ["nan target", "inf target", "nan in W",
                                  "nan after converged rows"])
def test_one_problem_sweep_stops_as_the_stack_on_non_finite_values(case, r):
    # a NaN or inf never stops the sweep early, alone (the float test at
    # r = 1) or stacked (the NumPy test, where np.max keeps a NaN)
    gram, T0, W0 = _sweep_problem(np.random.default_rng(41), r=r)
    last = len(gram) - 1
    if case == "nan target":
        T0[1, 0] = np.nan
    elif case == "inf target":
        T0[1, -1] = np.inf
    elif case == "nan in W":
        W0[3, 0] = np.nan
    else:
        # every row but the last at its fixed point; the last row, orthogonal to
        # the others, turns NaN at the first sweep while the rest barely move
        _isolate(gram, last, 3.0)
        solver._sweep_one(gram, T0, W0, 5.0, 1e-15, 1000)
        T0[last, 0] = np.nan
    with np.errstate(invalid="ignore", over="ignore"):
        one, n_one, stack, n_stack = _alone_and_stacked(gram, T0, W0, 5.0, 20)
    assert n_one == n_stack[1] == 20
    assert np.array_equal(one, stack[1], equal_nan=True) and np.isnan(one).any()


def _check_fold_stack_compacting(monkeypatch, rank):
    # three training folds x two configurations: in some call of the row sweep
    # the stack shrinks to one problem, and every model still equals its serial fit
    d = _contaminated(n=80, q=3, seed=37)
    parts = [(d_tr, np.ones(d_tr.n)) for d_tr in _training_folds(d, 3, seed=5)]
    cfgs = [FitConfig(rank=rank, lambda_w=lam, phi_c=4.0) for lam in (0.5, 30.0)]
    calls = []
    sweep = solver._sweep_rows
    monkeypatch.setattr(solver, "_ALONE_MAX", {})  # stacks step NumPy rows until one is left

    def recording(gram, T0, W, *args):
        counts = sweep(gram, T0, W, *args)
        calls.append(counts.tolist())
        return counts

    monkeypatch.setattr(solver, "_sweep_rows", recording)
    stacked = _fold_stack(parts, cfgs)
    # in some call one problem outlasts the others, so its last sweeps run alone
    assert any(len(c) > 1 and sorted(c)[-1] > sorted(c)[-2] for c in calls)
    for g, (d_tr, a) in enumerate(parts):
        for j, cfg in enumerate(cfgs):
            _assert_same_fit(stacked[g, j], fit(d_tr, a, cfg))
            _assert_same_model(stacked[g, j], _serial_fit(d_tr, a, cfg))


def test_rank_one_fold_stack_compacting_to_one_problem_equals_serial(monkeypatch):
    _check_fold_stack_compacting(monkeypatch, rank=1)


def test_rank_two_fold_stack_compacting_to_one_problem_equals_serial(monkeypatch):
    # the last problem steps Python floats with two columns
    _check_fold_stack_compacting(monkeypatch, rank=2)


def _recorded_sweeps(monkeypatch):
    # ("rows", stack size, cap) of every _sweep_rows call and ("one", cap) of
    # every _sweep_one call, those _sweep_rows makes included
    calls, rows, one = [], solver._sweep_rows, solver._sweep_one

    def recording_rows(gram, T0, W, half, inner_tol, max_inner):
        calls.append(("rows", len(W), max_inner))
        return rows(gram, T0, W, half, inner_tol, max_inner)

    def recording_one(gram, t0, w, half, inner_tol, max_inner):
        calls.append(("one", max_inner))
        return one(gram, t0, w, half, inner_tol, max_inner)

    monkeypatch.setattr(solver, "_sweep_rows", recording_rows)
    monkeypatch.setattr(solver, "_sweep_one", recording_one)
    return calls


def _mixed_stack(r, m, P, seed):
    # m problems with P rows: an ill-conditioned first one (the cap), then
    # penalties from light to heavy, so they stop at different sweeps
    rng = np.random.default_rng(seed)
    probs = [_sweep_problem(rng, P=P, r=r, n=P + 1 if j == 0 else 3 * P) for j in range(m)]
    gram, T0, W0 = (np.stack(v) for v in zip(*probs))
    return gram, T0, W0, np.geomspace(0.05, 60.0, m)


def _check_stack_against_reference(gram, T0, W0, half, max_inner):
    W = W0.copy()
    counts = solver._sweep_rows(gram, T0, W, half, 1e-8, max_inner)
    for j in range(len(W0)):
        ref, n_ref = _ref_w_block(gram[j], T0[j], W0[j], 2.0 * half[j], 1e-8, max_inner)
        one = W0[j].copy()
        n_one = solver._sweep_one(gram[j], T0[j], one, half[j], 1e-8, max_inner)
        assert W[j].tobytes() == one.tobytes() == ref.tobytes()
        assert counts[j] == n_one == n_ref
    return counts


@pytest.mark.parametrize("r, m, P", [(1, 12, 11), (2, 3, 11), (1, 7, 51), (2, 4, 51)])
def test_small_stack_sweeps_each_problem_alone_and_equals_reference(monkeypatch, r, m, P):
    # inside _ALONE_MAX: one _sweep_one call per problem, with the whole cap
    assert 1 < m <= solver._ALONE_MAX[r](P)
    gram, T0, W0, half = _mixed_stack(r, m, P, seed=61)
    calls = _recorded_sweeps(monkeypatch)
    counts = _check_stack_against_reference(gram, T0, W0, half, 40)
    # the stack's call and its hand-offs, then the check's
    assert calls == [("rows", m, 40)] + [("one", 40)] * (2 * m)
    assert counts[0] == 40 and len(set(counts.tolist())) > 2


def test_stack_compacting_under_the_alone_rule_equals_reference(monkeypatch):
    # above _ALONE_MAX at entry (24 problems, rank 1, P = 6); the heavy
    # penalties stop first, then the rest sweep alone for the sweeps left
    r, m, P, cap = 1, 24, 6, 60
    assert m > solver._ALONE_MAX[r](P)
    gram, T0, W0, half = _mixed_stack(r, m, P, seed=67)
    calls = _recorded_sweeps(monkeypatch)
    counts = _check_stack_against_reference(gram, T0, W0, half, cap)
    first = calls[:calls.index(("one", cap))]  # the stacked call and its hand-offs
    alone = first[1:]
    assert first[0] == ("rows", m, cap) and alone and all(k < cap for _, k in alone)
    assert counts[0] == cap and min(counts) < cap - alone[0][1] < max(counts[1:])


def test_rank_three_stack_steps_numpy_rows(monkeypatch):
    gram, T0, W0, half = _mixed_stack(3, 3, 11, seed=71)
    calls = _recorded_sweeps(monkeypatch)
    counts = _check_stack_against_reference(gram, T0, W0, half, 40)
    # the stack alone until one problem is left, which is handed over with
    # the sweeps left; then the check's
    assert calls == [("rows", 3, 40), ("one", 40 - sorted(counts)[1])] + [("one", 40)] * 3


def test_rank_two_row_norm_dot_matches_stacked_vecdot():
    # the float path's nv = sqrt(hb.dot(hb)) on a two-element row, bit for bit
    # the stacked step's sqrt(vecdot) of (m, 1, 2) rows
    rng = np.random.default_rng(73)
    H = rng.standard_normal((20000, 1, 2)) * np.exp(rng.uniform(-30.0, 30.0, (20000, 1, 2)))
    H[np.arange(300), 0, rng.integers(0, 2, 300)] = rng.choice([np.nan, np.inf, -np.inf, -0.0], 300)
    with np.errstate(invalid="ignore", over="ignore"):
        stacked = np.sqrt(np.vecdot(H, H, keepdims=True)).ravel()
        hb = np.empty(2)
        rows = []
        for h0, h1 in H[:, 0].tolist():
            hb[0], hb[1] = h0, h1
            rows.append(math.sqrt(hb.dot(hb)))
    rows, nan = np.array(rows), np.isnan(stacked)
    # a NaN norm fails nv > half whatever its sign bit, so NaN-ness is enough
    assert np.array_equal(np.isnan(rows), nan) and nan.sum() > 50
    assert rows[~nan].tobytes() == stacked[~nan].tobytes()


# =============================================================================
# the blocked float sweep of one problem = the plain sequential push
# =============================================================================


def _sequential_sweep(gram, t0, w, half, inner_tol, max_inner):
    # _sweep_one at r <= 2 without blocks: after each row, its change is pushed
    # in Python floats into every later row of M = G W, one row at a time
    G, w = np.ascontiguousarray(gram), np.array(w, order="C")
    P, r = w.shape
    w[np.diag(G) == 0.0] = 0.0
    g, t = G.tolist(), t0.tolist()
    for count in range(1, max_inner + 1):
        m, delta = (G @ w).tolist(), np.zeros((P, r))
        for k in range(P):
            dk = g[k][k]
            if dk == 0.0:
                continue
            h = [t[k][c] - m[k][c] + dk * w[k, c] for c in range(r)]
            hv = np.array(h)
            nv = math.sqrt(h[0] * h[0] if r == 1 else hv.dot(hv))
            f = 1.0 - half / nv if nv > half else 0.0
            new = [f * x / dk for x in h]
            dl = [a - b for a, b in zip(new, w[k].tolist())]
            for j in range(k + 1, P):
                for c in range(r):
                    m[j][c] += g[j][k] * dl[c]
            w[k], delta[k] = new, dl
        if count == max_inner or solver._converged(delta, w, inner_tol):
            break
    return w + 0.0, count


def _blocked_cases(P, r, B):
    # (label, gram, t0, w0, half, max_inner) on P correlated design columns
    rng = np.random.default_rng(83 + 7 * P + r)
    Z = rng.standard_normal((2 * P + 3, P))
    Z[:, 1:] += 0.6 * Z[:, :-1]
    Y = rng.standard_normal((len(Z), r))
    w0 = rng.standard_normal((P, r))

    def case(label, zero=(), half=2.0, max_inner=30, nan_row=None):
        Zc = Z.copy()
        Zc[:, [k for k in zero if k < P]] = 0.0
        t0 = Zc.T @ Y
        if nan_row is not None:
            t0[nan_row, 0] = np.nan
        return label, Zc.T @ Zc, t0, w0, half, max_inner

    yield case("plain")
    yield case("zero columns at a block edge", zero=(0, B - 1, B))
    yield case("a block's worth of zero columns", zero=range(B, 2 * B))
    yield case("nan target", nan_row=P // 2)
    yield case("no penalty", half=0.0)
    yield case("one sweep", max_inner=1)


@pytest.mark.parametrize("P_of_B", [lambda B: B - 1, lambda B: B, lambda B: B + 1,
                                    lambda B: 2 * B + 1], ids=["B-1", "B", "B+1", "2B+1"])
@pytest.mark.parametrize("B", [3, solver._BLOCK])
@pytest.mark.parametrize("r", [1, 2])
def test_blocked_float_sweep_equals_sequential_push(monkeypatch, r, B, P_of_B):
    # one, two and three blocks, at the module's block size and at 3
    P = P_of_B(B)
    monkeypatch.setattr(solver, "_BLOCK", B)
    for label, gram, t0, w0, half, max_inner in _blocked_cases(P, r, B):
        w = w0.copy()
        with np.errstate(invalid="ignore"):
            n = solver._sweep_one(gram, t0, w, half, 1e-10, max_inner)
            ref, n_ref = _sequential_sweep(gram, t0, w0, half, 1e-10, max_inner)
        # byte for byte, so signed zeros and NaNs count
        assert (n, w.tobytes()) == (n_ref, ref.tobytes()), label


@pytest.mark.parametrize("max_inner", [1, 5, 100])
@pytest.mark.parametrize("P", [solver._BLOCK - 3, 2 * solver._BLOCK + 5])
@pytest.mark.parametrize("r", [1, 2, 3, 10])
def test_sweep_resumed_where_it_stopped_equals_one_run(r, P, max_inner):
    # _sweep_rows hands a problem to _sweep_one after the sweeps it ran in the
    # stack, for the sweeps left. A sweep carries nothing but W to the next, and
    # a call nothing to the next call: cut after k sweeps and resumed with the
    # cap left, a run equals one run byte for byte, W, count and stop included;
    # a second call from the same start equals the first; gram and t0 stay as given
    for label, gram, t0, w0, half, _ in _blocked_cases(P, r, solver._BLOCK):
        inputs = gram.tobytes(), t0.tobytes()
        for start in (w0, -2.0 * w0):
            w_one, w_again = start.copy(), start.copy()
            with np.errstate(invalid="ignore"):
                n_one = solver._sweep_one(gram, t0, w_one, half, 1e-10, max_inner)
                n_again = solver._sweep_one(gram, t0, w_again, half, 1e-10, max_inner)
                assert (n_again, w_again.tobytes()) == (n_one, w_one.tobytes()), label
                for k in sorted({1, n_one // 2, n_one - 1} & set(range(1, n_one))):
                    w_cut = start.copy()
                    n_first = solver._sweep_one(gram, t0, w_cut, half, 1e-10, k)
                    n_rest = solver._sweep_one(gram, t0, w_cut, half, 1e-10, max_inner - k)
                    assert (n_first + n_rest, w_cut.tobytes()) == (n_one, w_one.tobytes()), \
                        (label, k)
        assert (gram.tobytes(), t0.tobytes()) == inputs, label


@pytest.mark.parametrize("rank", [1, 2])
def test_batch_at_fifty_one_rows_hands_its_tail_to_the_blocked_sweep(monkeypatch, rank):
    # P = 51 (p = 50), several blocks: the stack steps NumPy rows until at most
    # _ALONE_MAX problems are left, then _sweep_one sweeps each for the sweeps
    # left; every model equals the one fit alone, which _sweep_one sweeps whole
    assert 51 > 2 * solver._BLOCK
    d = _contaminated(n=120, p=50, q=3, seed=89)
    a = np.random.default_rng(97).uniform(0.6, 1.6, d.n)
    m = solver._ALONE_MAX[rank](51) + 2
    cfgs = [FitConfig(rank=rank, lambda_w=lam, phi_c=2.0, max_outer=3, max_inner=40)
            for lam in np.geomspace(0.5, 400.0, m)]
    calls = _recorded_sweeps(monkeypatch)
    batch = fit_batch(d, a, cfgs)
    assert ("rows", m, 40) in calls and any(c[0] == "one" and c[1] < 40 for c in calls)
    for cfg, model in zip(cfgs, batch):
        _assert_same_fit(model, fit(d, a, cfg))


# =============================================================================
# cross-validation: batched and broadcast = naive loop
# =============================================================================


def _naive_per_fold(d, grid, method, cfg):
    assignment = kfold_split(d.T, grid.folds, grid.seed)
    out = np.empty((len(grid.lambdas), len(grid.phis), len(grid.ranks), grid.folds))
    for f in range(grid.folds):
        held = assignment == f
        d_tr, d_he = model_selection._subset(d, ~held), model_selection._subset(d, held)
        a_tr, a_he = model_selection._fold_weights(d_tr, d_he, "rct")
        for i, lam in enumerate(grid.lambdas):
            for j, phi in enumerate(grid.phis):
                for k, rank in enumerate(grid.ranks):
                    gamma = model_selection._ESTIMATORS[method].fit(
                        d_tr, a_tr, replace(cfg, rank=rank, lambda_w=lam, phi_c=phi)).gamma
                    out[i, j, k, f] = model_selection._gamma_loss(gamma, d_he, a_he)
    return out


@pytest.mark.parametrize("method", ["wmcmr4", "wmcmrrr", "wmcm", "wfull", "wmcml1"])
def test_cross_validate_equals_naive_loop(method):
    d = _contaminated(n=80, seed=21)
    grid = CvGrid(lambdas=(1.0, 20.0), phis=(0.5, 20.0, 80.0), ranks=(1, 2), folds=3, seed=4)
    cfg = FitConfig(rank=2)
    result = cross_validate(d, grid, method, cfg=cfg)
    naive = _naive_per_fold(d, grid, method, cfg)
    assert np.array_equal(result.per_fold_loss, naive)
    assert np.array_equal(result.mean_loss, naive.mean(axis=3))


# each cap stops some fits of the method's grid and not others
@pytest.mark.parametrize("method, max_outer", [("wmcmr4", 10), ("wmcmrrr", 3), ("wfull", 6)])
def test_cross_validate_reports_each_fit_convergence(method, max_outer):
    d = _contaminated(n=80, seed=21)
    grid = CvGrid(lambdas=(1.0, 20.0), phis=(0.5, 20.0), ranks=(1, 2), folds=3, seed=4)
    cfg = FitConfig(rank=2, max_outer=max_outer)
    result = cross_validate(d, grid, method, cfg=cfg)
    assert result.n_outer.shape == result.converged.shape == result.per_fold_loss.shape
    assignment = kfold_split(d.T, grid.folds, grid.seed)
    for i, j, k, f in np.ndindex(result.n_outer.shape):
        held = assignment == f
        d_tr, d_he = model_selection._subset(d, ~held), model_selection._subset(d, held)
        a_tr, _ = model_selection._fold_weights(d_tr, d_he, "rct")
        point = replace(cfg, lambda_w=grid.lambdas[i], phi_c=grid.phis[j], rank=grid.ranks[k])
        trace = model_selection._ESTIMATORS[method].fit(d_tr, a_tr, point).trace
        assert result.n_outer[i, j, k, f] == trace.n_outer
        assert result.converged[i, j, k, f] == trace.converged
    assert result.converged.any() and not result.converged.all()


def test_cross_validate_reports_capped_w_blocks():
    # a small W cap stops some blocks of the rank-using fits and not others;
    # the baselines record no W sweeps, so they report 0
    d = _contaminated(n=80, seed=21)
    grid = CvGrid(lambdas=(1.0, 20.0), phis=(0.5, 20.0), ranks=(1, 2), folds=3, seed=4)
    cfg = FitConfig(rank=2, max_inner=4)
    assignment = kfold_split(d.T, grid.folds, grid.seed)
    for method in ("wmcmr4", "wmcmrrr", "wmcm"):
        result = cross_validate(d, grid, method, cfg=cfg)
        assert result.w_capped.shape == result.per_fold_loss.shape
        assert result.w_capped.dtype.kind == "i"
        for i, j, k, f in np.ndindex(result.w_capped.shape):
            held = assignment == f
            d_tr, d_he = model_selection._subset(d, ~held), model_selection._subset(d, held)
            a_tr, _ = model_selection._fold_weights(d_tr, d_he, "rct")
            point = replace(cfg, lambda_w=grid.lambdas[i], phi_c=grid.phis[j],
                            rank=grid.ranks[k])
            trace = model_selection._ESTIMATORS[method].fit(d_tr, a_tr, point).trace
            assert result.w_capped[i, j, k, f] == trace.w_capped
        assert result.w_capped.any() == (method != "wmcm")


# =============================================================================
# replications: parts with one configuration each and the same shape, merged
# into one group whose data hold one slice per problem
# =============================================================================


def _replications(count=4, n=60, q=3, seed=70, singular=None):
    # equal-shape datasets with their own weights, as a simulation chunk's
    # replications; replication singular repeats a covariate
    parts = []
    for g in range(count):
        d = _contaminated(n=n, q=q, seed=seed + g)
        X = np.array(d.X)
        if g == singular:
            X[:, 3] = X[:, 2]
        a = np.random.default_rng(seed + g).uniform(0.6, 1.6, n)
        parts.append((validate_dataset(X, d.Y, d.T), a))
    return parts


def _one_each(parts, **kw):
    # one configuration per part, each with its own penalties
    return [[FitConfig(rank=2, lambda_w=(0.5, 4.0, 30.0, 2.0)[g % 4], phi_c=(4.0, 1.0)[g % 2],
                       **kw)] for g in range(len(parts))]


def _assert_same_trace(t1, t2):
    assert t1.objective.tobytes() == t2.objective.tobytes()
    assert (t1.n_outer, t1.converged, t1.w_sweeps, t1.c_sweeps, t1.w_capped) == \
        (t2.n_outer, t2.converged, t2.w_sweeps, t2.c_sweeps, t2.w_capped)


@pytest.mark.parametrize("update_c", [True, False])
def test_replications_in_one_group_equal_each_fit_alone(monkeypatch, update_c):
    parts = _replications()
    cfgs = _one_each(parts, max_outer=12)
    assert solver._check_stack(parts, cfgs)[3] == [[(g, 0) for g in range(len(parts))]]
    calls = []  # the live problems of each objective call
    objectives = solver._objectives

    def counting(Y, Z, a, W, *rest):
        assert len(Y) == len(Z) == len(a) == len(W)  # one data slice per live problem
        calls.append(len(W))
        return objectives(Y, Z, a, W, *rest)

    monkeypatch.setattr(solver, "_objectives", counting)
    stacked = {g: m for g, _, m in solver._fit_groups(parts, cfgs, update_c)}
    monkeypatch.undo()
    n_outer = [m.trace.n_outer for m in stacked.values()]
    assert min(n_outer) < max(n_outer)  # problems leave the group along the way
    # one call per outer step for the whole group, each with the problems still iterating
    assert calls == [sum(n >= t for n in n_outer) for t in range(max(n_outer) + 1)]
    for g, (d, a) in enumerate(parts):
        alone = fit(d, a, cfgs[g][0], update_c)
        got = stacked[g]
        assert got.W.tobytes() == alone.W.tobytes() and got.V.tobytes() == alone.V.tobytes()
        assert got.C.tobytes() == alone.C.tobytes()
        _assert_same_trace(got.trace, alone.trace)
        _assert_same_model(got, _serial_fit(d, a, cfgs[g][0], update_c), update_c)


@pytest.mark.parametrize("method", ["wmcm", "wfull", "wmcml1"])
def test_replications_in_one_baseline_group_equal_each_fit_alone(method):
    parts = _replications(q=4)
    fit_alone = {"wmcm": fit_wmcm, "wfull": fit_wfull, "wmcml1": fit_wmcm_l1}[method]
    # a cap that stops some squared-loss fits (a wmcml1 fit at its cap raises)
    kw = {} if method == "wmcml1" else {"max_outer": 6}
    cfgs = _one_each(parts, **kw)
    assert len(solver._check_stack(parts, cfgs)[3]) == 1
    fits = list(model_selection._ESTIMATORS[method].stack(parts, cfgs))
    assert [(m.trace.n_outer, g) for g, _, m in fits] == sorted(
        (m.trace.n_outer, g) for g, _, m in fits)
    assert len({m.trace.n_outer for *_, m in fits}) > 1
    for g, j, model in fits:
        d, a = parts[g]
        _assert_same_baseline(model, fit_alone(d, a, cfgs[g][0].lambda_w, cfgs[g][0]))


def test_wfull_replications_warn_and_jitter_only_for_the_singular_one():
    parts = _replications(count=4, q=3, singular=2)
    cfgs = [[FitConfig(rank=1, lambda_w=lam)] for lam in (0.0, 3.0, 1.0, 40.0)]
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        fits = baselines._fit_stack("wfull", parts, cfgs)
        assert len(rec) == 1 and "jitter" in str(rec[0].message)  # at the call, once
        stacked = {g: m for g, _, m in fits}
    assert len(rec) == 1
    for g, (d, a) in enumerate(parts):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            alone = fit_wfull(d, a, cfgs[g][0].lambda_w)
        assert len(rec) == (g == 2)
        # B and Gamma as alone: the jitter went into replication 2's H and no other
        _assert_same_baseline(stacked[g], alone)


@pytest.mark.parametrize("method", model_selection.METHODS)
def test_mixed_list_of_parts_gives_each_part_its_fit_alone(method):
    # parts 0, 2 and 4 merge; part 1 has two configurations and part 3 another n,
    # so each is a group of its own
    reps = _replications(count=4, q=3)
    parts = [reps[0], reps[1], reps[2], _replications(count=1, n=72, q=3, seed=90)[0], reps[3]]
    cfgs = _one_each(parts)
    cfgs[1] = [cfgs[1][0], replace(cfgs[1][0], lambda_w=9.0, phi_c=0.5)]
    groups = solver._check_stack(parts, cfgs)[3]
    assert groups == [[(0, 0), (2, 0), (4, 0)], [(1, 0), (1, 1)], [(3, 0)]]
    est = model_selection._ESTIMATORS[method]
    fits = list(est.stack(parts, cfgs))
    # problems stop by iteration, then part, then configuration
    assert [(m.trace.n_outer, g, j) for g, j, m in fits] == sorted(
        (m.trace.n_outer, g, j) for g, j, m in fits)
    assert sorted((g, j) for g, j, _ in fits) == [(g, j) for g, cs in enumerate(cfgs)
                                                  for j in range(len(cs))]
    for g, j, model in fits:
        d, a = parts[g]
        alone = est.fit(d, a, cfgs[g][j])
        assert model.gamma.tobytes() == alone.gamma.tobytes()
        _assert_same_trace(model.trace, alone.trace)

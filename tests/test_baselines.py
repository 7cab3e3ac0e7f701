import warnings
from dataclasses import replace

import numpy as np
import pytest

from multicate import (
    FitConfig,
    NumericalError,
    fit,
    fit_wfull,
    fit_wmcm,
    fit_wmcm_l1,
    fit_wmcmrrr,
    validate_dataset,
)
from multicate import baselines, solver

from conftest import make_dataset, rrr_objective, rrr_oracle, wls_oracle

TIGHT = FitConfig(rank=1, outer_tol=1e-13, inner_tol=1e-12, max_outer=3000,
                  max_inner=300)


def _design(d):
    return d.X * (d.T / 2.0)[:, None]


# =============================================================================
# squared-loss group lasso
# =============================================================================


def test_wmcm_unpenalized_matches_weighted_ols():
    d, _ = make_dataset(60, 4, 3, seed=1)
    a = 1.0 / np.sqrt(np.random.default_rng(1).uniform(0.2, 0.8, 60))
    model = fit_wmcm(d, a, 0.0, cfg=TIGHT)
    expect = wls_oracle(_design(d), d.Y, a)
    rel = np.linalg.norm(model.gamma - expect) / np.linalg.norm(expect)
    assert rel < 1e-6
    assert model.method == "wmcm"
    assert model.B is None


def test_wmcm_penalty_zeroing_boundary():
    d, _ = make_dataset(50, 3, 2, seed=2)
    a = np.full(50, np.sqrt(2.0))
    Z = _design(d)
    G = a[:, None] * Z
    lam_max = 2.0 * np.max(np.linalg.norm(G.T @ (a[:, None] * d.Y), axis=1))
    assert np.array_equal(fit_wmcm(d, a, lam_max * 1.001, cfg=TIGHT).gamma,
                          np.zeros((4, 2)))
    assert np.any(fit_wmcm(d, a, lam_max * 0.9, cfg=TIGHT).gamma != 0.0)


def test_wmcm_trace_monotone():
    d, _ = make_dataset(40, 3, 2, seed=3)
    model = fit_wmcm(d, np.ones(40), 0.8)
    diffs = np.diff(model.trace.objective)
    assert np.all(diffs <= 1e-9 * max(1.0, model.trace.objective[0]))


# =============================================================================
# reduced-rank baseline
# =============================================================================


def test_wmcmrrr_matches_closed_form():
    d, _ = make_dataset(70, 4, 3, seed=4)
    a = np.full(70, np.sqrt(2.0))
    model = fit_wmcmrrr(d, a, rank=2, cfg=TIGHT)
    Z = _design(d)
    expect = rrr_oracle(Z, d.Y, a, 2)
    assert rrr_objective(Z, d.Y, a, model.gamma) <= rrr_objective(Z, d.Y, a, expect) + 1e-6
    assert np.linalg.norm(model.gamma - expect) / np.linalg.norm(expect) < 1e-6
    assert model.method == "wmcmrrr"
    assert np.linalg.matrix_rank(model.gamma, tol=1e-8) == 2


# =============================================================================
# separate main-effect baseline
# =============================================================================


def test_wfull_unpenalized_matches_joint_weighted_ols():
    rng = np.random.default_rng(5)
    n, p, q = 80, 3, 2
    X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p))])
    T = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    T[0], T[1] = 1.0, -1.0
    B = rng.standard_normal((p + 1, q))
    G = rng.standard_normal((p + 1, q))
    Y = X @ B + (X * (T / 2.0)[:, None]) @ G + 0.3 * rng.standard_normal((n, q))
    d = validate_dataset(X, Y, T)
    a = 1.0 / np.sqrt(rng.uniform(0.2, 0.8, n))
    model = fit_wfull(d, a, 0.0, cfg=TIGHT)
    stacked = np.hstack([X, _design(d)])
    joint = wls_oracle(stacked, Y, a)
    assert np.linalg.norm(model.B - joint[: p + 1]) < 1e-6
    assert np.linalg.norm(model.gamma - joint[p + 1 :]) < 1e-6
    assert model.method == "wfull"


def test_wfull_singular_design_warns_and_recovers():
    rng = np.random.default_rng(6)
    n = 40
    x = rng.standard_normal((n, 1))
    X = np.hstack([np.ones((n, 1)), x, x])  # duplicated covariate
    T = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    T[0], T[1] = 1.0, -1.0
    Y = rng.standard_normal((n, 2))
    d = validate_dataset(X, Y, T)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        model = fit_wfull(d, np.ones(n), 0.1)
    # the singular normal matrix is found once, not at every outer step
    assert model.trace.n_outer > 1
    assert len(rec) == 1 and "jitter" in str(rec[0].message)
    assert np.all(np.isfinite(model.gamma))
    assert np.all(np.isfinite(model.B))


def test_wfull_trace_monotone():
    d, _ = make_dataset(40, 3, 2, seed=7)
    model = fit_wfull(d, np.ones(40), 0.5)
    diffs = np.diff(model.trace.objective)
    assert np.all(diffs <= 1e-9 * max(1.0, model.trace.objective[0]))


# =============================================================================
# absolute-loss baseline
# =============================================================================


def test_wmcm_l1_noiseless_recovery():
    gamma = np.zeros((4, 2))
    gamma[1] = [2.0, -1.0]
    gamma[3] = [0.5, 1.5]
    d, gamma = make_dataset(150, 3, 2, seed=8, gamma=gamma, noise=0.0)
    model = fit_wmcm_l1(d, np.ones(150), 0.0, cfg=TIGHT)
    assert np.linalg.norm(model.gamma - gamma) / np.linalg.norm(gamma) < 1e-4


def test_wmcm_l1_resists_outliers_better_than_squared_loss():
    gamma = np.zeros((4, 2))
    gamma[1] = [2.0, -1.0]
    d, gamma = make_dataset(200, 3, 2, seed=9, gamma=gamma, noise=0.1)
    Y = d.Y.copy()
    Y[:10] = 40.0  # gross contamination
    d = validate_dataset(d.X, Y, d.T)
    a = np.ones(200)
    err_l1 = np.linalg.norm(fit_wmcm_l1(d, a, 0.0, cfg=TIGHT).gamma - gamma)
    err_l2 = np.linalg.norm(fit_wmcm(d, a, 0.0, cfg=TIGHT).gamma - gamma)
    assert err_l1 < err_l2


def test_wmcm_l1_iteration_cap_raises():
    d, _ = make_dataset(50, 3, 2, seed=10)
    with pytest.raises(NumericalError, match="did not converge"):
        fit_wmcm_l1(d, np.ones(50), 0.1, cfg=FitConfig(rank=1, max_outer=1, max_inner=2))


def test_wmcm_l1_stack_at_its_cap_raises_as_the_fit_alone():
    # two groups, two penalties each: the problems that converge within the
    # cap stop first, as alone; the first one to reach it raises the fit's error
    parts = [(make_dataset(n, 3, 2, seed=seed)[0], np.ones(n)) for n, seed in ((50, 10), (70, 13))]
    lambdas = (0.1, 30.0)
    n_outer = {(g, j): fit_wmcm_l1(d, a, lam).trace.n_outer
               for g, (d, a) in enumerate(parts) for j, lam in enumerate(lambdas)}
    cap = sorted(n_outer.values())[-2]  # all but the slowest converge within it
    assert cap < max(n_outer.values())
    cfg = FitConfig(rank=1, max_outer=cap, max_inner=1)
    slowest = max(n_outer, key=n_outer.get)
    with pytest.raises(NumericalError) as alone:
        fit_wmcm_l1(*parts[slowest[0]], lambdas[slowest[1]], cfg=cfg)
    stopped = []
    with pytest.raises(NumericalError) as stacked:
        for g, j, model in baselines._fit_l1_stack(
                parts, [[replace(cfg, lambda_w=lam) for lam in lambdas]] * 2):
            stopped.append((g, j))
            assert model.trace.n_outer == n_outer[g, j] <= cap
    assert str(stacked.value) == str(alone.value) == \
        f"absolute-loss fit did not converge in {cap} iterations"
    assert sorted(stopped) == sorted(set(n_outer) - {slowest})


def test_wmcm_l1_surrogate_trace_monotone():
    d, _ = make_dataset(60, 3, 2, seed=11)
    model = fit_wmcm_l1(d, np.ones(60), 0.3)
    diffs = np.diff(model.trace.objective)
    assert np.all(diffs <= 1e-9 * max(1.0, model.trace.objective[0]))


# =============================================================================
# one outer loop: the stop rule and the trace every baseline shares
# =============================================================================


@pytest.mark.parametrize("method", ["fit", "wmcmrrr", "wmcm", "wfull",
                                    "fit_groups stack", "wmcm stack", "wfull stack"])
def test_non_finite_objective_raises_at_outer_iteration_0(method):
    # outcomes near the float limit overflow the first objective; every fit
    # stops there by the one rule, none runs on an infinite objective. In a
    # two-group stack only the second group overflows: the one objectives
    # loop of solver._lockstep still raises at iteration 0
    d0, _ = make_dataset(20, 2, 3, seed=5)
    d = validate_dataset(d0.X, d0.Y * 1e155, d0.T)
    a, cfg = np.ones(20), FitConfig(rank=2)
    parts, cfgs = [(d0, a), (d, a)], [[cfg, replace(cfg, lambda_w=1.0)]] * 2
    run = {"fit": lambda: fit(d, a, cfg),
           "wmcmrrr": lambda: fit_wmcmrrr(d, a, 2, cfg=cfg),
           "wmcm": lambda: fit_wmcm(d, a, 0.0, cfg=cfg),
           "wfull": lambda: fit_wfull(d, a, 0.0, cfg=cfg),
           "fit_groups stack": lambda: list(solver._fit_groups(parts, cfgs)),
           "wmcm stack": lambda: list(baselines._fit_stack("wmcm", parts, cfgs)),
           "wfull stack": lambda: list(baselines._fit_stack("wfull", parts, cfgs))}[method]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="non-finite at outer iteration 0$"):
        run()


@pytest.mark.parametrize("fit_baseline", [fit_wmcm, fit_wfull, fit_wmcm_l1])
def test_baseline_traces_count_outer_iterations_only(fit_baseline):
    # the W sweeps of each outer iteration: one per wmcm step, up to max_inner
    # per wfull block, none in wmcml1's proximal steps; no baseline has a C step
    d, _ = make_dataset(60, 3, 2, seed=12)
    trace = fit_baseline(d, np.ones(60), 0.5).trace
    cap = FitConfig(rank=1).max_inner
    assert trace.n_outer == len(trace.objective) - 1 >= 1
    assert len(trace.w_sweeps) == trace.n_outer and trace.c_sweeps == []
    if fit_baseline is fit_wfull:
        assert all(1 <= s <= cap for s in trace.w_sweeps)
    else:
        assert trace.w_sweeps == [int(fit_baseline is fit_wmcm)] * trace.n_outer
    assert trace.w_capped == trace.w_sweeps.count(cap)


# wfull at a W cap that some of its blocks reach and others do not
CAPPED = FitConfig(rank=1, max_inner=8)


def _assert_same_trace(t1, t2):
    # field by field: BaselineModel equality leaves its trace out
    assert t1.objective.tobytes() == t2.objective.tobytes()
    assert (t1.w_sweeps, t1.w_capped, t1.c_sweeps, t1.converged, t1.n_outer) == \
        (t2.w_sweeps, t2.w_capped, t2.c_sweeps, t2.converged, t2.n_outer)


def test_wfull_trace_records_the_w_sweeps_it_runs(monkeypatch):
    d, _ = make_dataset(80, 5, 3, seed=3)
    calls, sweep = [], solver._sweep_rows

    def recording(*args):
        counts = sweep(*args)
        calls.append(counts.tolist())
        return counts

    monkeypatch.setattr(solver, "_sweep_rows", recording)
    trace = fit_wfull(d, np.ones(80), 0.5, CAPPED).trace
    assert trace.w_sweeps == [c for (c,) in calls]
    assert 0 < trace.w_capped == trace.w_sweeps.count(CAPPED.max_inner) < trace.n_outer


def test_wfull_stack_gives_each_part_the_trace_it_gets_alone():
    # a part with two penalties (a shared slice) and two parts with one each
    # (merged into one group): each problem's record is its own
    parts = [(make_dataset(80, 5, 3, seed=s)[0], np.random.default_rng(s).uniform(0.6, 1.6, 80))
             for s in (3, 4, 5)]
    cfgs = [[replace(CAPPED, lambda_w=lam) for lam in (0.5, 5.0)]] + \
        [[replace(CAPPED, lambda_w=2.0)]] * 2
    traces = {(g, j): model.trace for g, j, model in baselines._fit_stack("wfull", parts, cfgs)}
    assert len(traces) == 4 and any(t.w_capped for t in traces.values())
    for (g, j), trace in traces.items():
        _assert_same_trace(trace, fit_wfull(*parts[g], cfgs[g][j].lambda_w, cfgs[g][j]).trace)

from dataclasses import replace

import numpy as np
import pytest

from multicate import (
    B_SMALL,
    METHOD_ALIASES,
    CvGrid,
    DataError,
    FitConfig,
    NumericalError,
    ScenarioSpec,
    TRUE_RANK,
    assign_treatment,
    generate_covariates,
    generate_gamma,
    generate_outcomes,
    generate_truth,
    inject_outliers,
    make_main_effect,
    run_scenario,
)
from multicate import model_selection, simulation, weights
from multicate.metrics import METRIC_ORDER, evaluate


# =============================================================================
# generators
# =============================================================================


def test_covariates_shape_and_intercept(rng):
    X = generate_covariates(50, 10, 0.0, rng)
    assert X.shape == (50, 11)
    assert np.array_equal(X[:, 0], np.ones(50))
    with pytest.raises(DataError):
        generate_covariates(10, 3, 1.0, rng)
    with pytest.raises(DataError):
        generate_covariates(10, 3, -0.1, rng)


def test_covariates_equicorrelation(rng):
    X = generate_covariates(60000, 4, 1.0 / 3.0, rng)
    emp = np.corrcoef(X[:, 1:], rowvar=False)
    off = emp[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off - 1.0 / 3.0) < 0.02)
    assert np.all(np.abs(X[:, 1:].std(axis=0) - 1.0) < 0.02)


def test_main_effect_pattern():
    B = make_main_effect(12, 3, 0.7)
    assert B.shape == (13, 3)
    assert np.all(B[3:11] == 0.7)
    assert np.all(B[:3] == 0.0)
    assert np.all(B[11:] == 0.0)
    with pytest.raises(DataError, match="p >= 10"):
        make_main_effect(9, 3, 0.7)


def test_gamma_sparse_patterns_frozen(rng):
    g3 = generate_gamma(3, 10, 10, rng)
    assert g3.shape == (11, 10)
    assert np.all(g3[0] == 0.0)
    assert np.all(g3[1:5, :4] == 1.0)
    assert np.all(g3[5:] == 0.0)
    assert np.all(g3[:, 4:] == 0.0)
    assert np.linalg.matrix_rank(g3) == 1

    g4 = generate_gamma(4, 10, 10, rng)
    # overlap of the two unit blocks doubles the middle 2x2 cell
    assert g4[1, 1] == 1.0 and g4[3, 3] == 2.0 and g4[5, 5] == 1.0
    assert g4[1, 5] == 0.0 and g4[5, 1] == 0.0
    assert np.linalg.matrix_rank(g4) == 2


def test_gamma_random_patterns(rng):
    g1 = generate_gamma(1, 8, 5, rng)
    assert g1.shape == (9, 5)
    assert np.all(g1[0] == 0.0)
    assert np.linalg.matrix_rank(g1[1:]) == 1
    assert np.all(g1[1:] >= 0.0) and np.all(g1[1:] <= 1.0)
    g2 = generate_gamma(2, 8, 5, rng)
    assert np.linalg.matrix_rank(g2[1:]) == 2
    with pytest.raises(DataError):
        generate_gamma(3, 3, 10, rng)
    with pytest.raises(DataError):
        generate_gamma(5, 10, 10, rng)


def test_outcome_noise_covariance(rng):
    n, q = 60000, 4
    X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
    gamma = rng.standard_normal((3, q))
    B = rng.standard_normal((3, q)) * 0.3
    T = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    z = 1.0 / 3.0
    Y = generate_outcomes(X, gamma, B, T, z, rng)
    main = (X @ B) ** 2
    te = (T / 2.0)[:, None] * (X @ gamma)
    resid = Y - main - te
    emp = np.cov(resid, rowvar=False)
    expect = (2.0 - z) * np.eye(q) + z * np.ones((q, q))
    assert np.max(np.abs(emp - expect)) < 0.06
    assert np.max(np.abs(resid.mean(axis=0))) < 0.03


def test_outliers_count_and_range(rng):
    Y = np.zeros((300, 4))
    out, rows = inject_outliers(Y, 5.0, rng)
    assert rows.shape == (15,)
    assert np.array_equal(rows, np.sort(rows))
    assert np.all((out[rows] >= 15.0) & (out[rows] <= 20.0))
    untouched = np.setdiff1d(np.arange(300), rows)
    assert np.all(out[untouched] == 0.0)
    same, none = inject_outliers(Y, 0.0, rng)
    assert none.size == 0 and np.array_equal(same, Y)
    with pytest.raises(DataError):
        inject_outliers(Y, 100.0, rng)


def test_treatment_assignment(rng):
    X = generate_covariates(40000, 6, 0.0, rng)
    T, pi = assign_treatment(X, "rct", rng)
    assert set(np.unique(T)) == {-1.0, 1.0}
    assert np.all(pi == 0.5)
    assert abs(np.mean(T == 1.0) - 0.5) < 0.02

    T2, pi2 = assign_treatment(X, "observational", rng)
    expect = 1.0 / (1.0 + np.exp(X[:, 1:6].sum(axis=1)))
    assert np.allclose(pi2, expect)
    # high assignment probability should show up in the realized labels
    hi = pi2 > 0.8
    assert np.mean(T2[hi] == 1.0) > 0.7
    with pytest.raises(DataError, match="five covariates"):
        assign_treatment(np.ones((10, 3)), "observational", rng)


def test_truth_bundle_shapes_and_reproducibility():
    spec = ScenarioSpec(scenario=3, n=80, n_test=30, q=10, p=10,
                        tau_pct=5.0, replications=1)
    t1 = generate_truth(spec, np.random.default_rng(4))
    t2 = generate_truth(spec, np.random.default_rng(4))
    assert t1.dataset.X.shape == (80, 11)
    assert t1.dataset.Y.shape == (80, 10)
    assert t1.X_test.shape == (30, 11)
    assert np.array_equal(t1.cate_test, t1.X_test @ t1.gamma_true)
    assert t1.outlier_rows.shape == (4,)  # round(80 * 0.05)
    assert t1.dataset.propensity is not None
    assert np.array_equal(t1.dataset.Y, t2.dataset.Y)
    assert np.array_equal(t1.X_test, t2.X_test)


# =============================================================================
# scenario container
# =============================================================================


def test_spec_validation_and_id():
    spec = ScenarioSpec(scenario=1)
    assert spec.scenario_id == "s1_p10_g0_tau0_b0.4082_z0_rct"
    named = ScenarioSpec(scenario=1, name="pilot")
    assert named.scenario_id == "pilot"
    with pytest.raises(DataError):
        ScenarioSpec(scenario=7)
    with pytest.raises(DataError):
        ScenarioSpec(scenario=1, p=20)
    ok = ScenarioSpec(scenario=1, p=20, allow_nonstandard=True)
    assert ok.p == 20
    with pytest.raises(DataError):
        ScenarioSpec(scenario=1, design="crossover")
    with pytest.raises(DataError):
        ScenarioSpec(scenario=1, n=0)
    assert ScenarioSpec(scenario=1, b=B_SMALL).b == pytest.approx(6.0 ** -0.5)
    assert TRUE_RANK == {1: 1, 2: 2, 3: 1, 4: 2}


# =============================================================================
# scenario runner
# =============================================================================

_FAST = dict(n=60, n_test=40, q=10, p=10, replications=2)


def test_run_scenario_row_schema():
    spec = ScenarioSpec(scenario=3, seed=11, **_FAST)
    rows = run_scenario(spec, ["wmcmr4", "mcm"])
    assert len(rows) == 2 * 2 * 4
    assert [sorted(r) for r in rows[:1]] == [
        ["method", "metric", "replication", "scenario_id", "value"]]
    assert {r["scenario_id"] for r in rows} == {spec.scenario_id}
    assert {r["method"] for r in rows} == {"wmcmr4", "mcm"}
    assert {r["metric"] for r in rows} == {"mse", "bias", "spearman", "auc"}
    assert all(np.isfinite(r["value"]) for r in rows)


def test_run_scenario_deterministic_and_rep_stable():
    spec = ScenarioSpec(scenario=3, seed=5, **_FAST)
    r1 = run_scenario(spec, ["mcm"])
    r2 = run_scenario(spec, ["mcm"])
    assert r1 == r2
    # the first replication does not depend on how many follow
    single = run_scenario(ScenarioSpec(scenario=3, seed=5,
                                       **{**_FAST, "replications": 1}), ["mcm"])
    assert r1[:4] == single


def test_run_scenario_seed_changes_values():
    base = {**_FAST, "replications": 1}
    r1 = run_scenario(ScenarioSpec(scenario=3, seed=1, **base), ["mcm"])
    r2 = run_scenario(ScenarioSpec(scenario=3, seed=2, **base), ["mcm"])
    assert [r["value"] for r in r1] != [r["value"] for r in r2]


def test_run_scenario_unknown_method():
    spec = ScenarioSpec(scenario=1, **_FAST)
    with pytest.raises(DataError, match="unknown method"):
        run_scenario(spec, ["ols"])


def test_run_scenario_error_rows():
    # a one-step iteration budget starves the absolute-loss baseline
    spec = ScenarioSpec(scenario=3, seed=2, **{**_FAST, "replications": 1})
    cfg = FitConfig(rank=1, max_outer=1, max_inner=1)
    rows = run_scenario(spec, ["mcml1", "mcm"], cfg=cfg)
    l1 = [r for r in rows if r["method"] == "mcml1"]
    assert l1 == [{"scenario_id": spec.scenario_id, "replication": 0,
                   "method": "mcml1", "metric": "error", "value": 1.0}]
    assert len([r for r in rows if r["method"] == "mcm"]) == 4


def test_run_scenario_every_name_and_alias():
    spec = ScenarioSpec(scenario=3, seed=4, **{**_FAST, "replications": 1})
    grid = CvGrid(lambdas=(1.0, 20.0), phis=(1.0, 30.0), ranks=(1, 2), folds=2)
    names = list(METHOD_ALIASES)
    for cv in (False, True):
        rows = run_scenario(spec, names, cv=cv, grid=grid)
        by_name = {n: [r["value"] for r in rows if r["method"] == n] for n in names}
        for name in names:
            assert len(by_name[name]) == 4 and all(np.isfinite(by_name[name]))
            # an alias fits exactly what its canonical name fits
            assert by_name[name] == by_name[METHOD_ALIASES[name]]


def test_run_scenario_resolves_weights_once_per_replication(monkeypatch):
    calls = []
    irls = weights._logistic_irls

    def counted(*args, **kwargs):
        calls.append(1)
        return irls(*args, **kwargs)

    monkeypatch.setattr(weights, "_logistic_irls", counted)
    monkeypatch.setattr(model_selection, "_logistic_irls", counted)
    spec = ScenarioSpec(scenario=3, design="observational", seed=3,
                        **{**_FAST, "n": 120, "replications": 1})
    grid = CvGrid(lambdas=(1.0,), phis=(1.0,), ranks=(1,), folds=3)
    rows = run_scenario(spec, ["wmcmr4", "mcm", "full"], cv=True, grid=grid)
    assert not any(r["metric"] == "error" for r in rows)
    # one fit for the replication, then one per training fold, shared by the methods' CV
    assert len(calls) == 1 + 3


def test_run_scenario_weighting_failure_errors_every_method(monkeypatch):
    def fail(d, source):
        raise NumericalError("propensity model did not converge")

    monkeypatch.setattr(simulation, "resolve_weights", fail)
    spec = ScenarioSpec(scenario=3, seed=2, **_FAST)
    rows = run_scenario(spec, ["wmcmr4", "mcm"])
    assert rows == [{"scenario_id": spec.scenario_id, "replication": rep, "method": m,
                     "metric": "error", "value": 1.0}
                    for rep in range(2) for m in ("wmcmr4", "mcm")]


# =============================================================================
# replication chunks: one lockstep descent per rank-using method and chunk
# =============================================================================

_CHUNK_GRID = CvGrid(lambdas=(1.0, 20.0), phis=(1.0, 30.0), ranks=(1, 2), folds=2)
_RANK_NAMES = [n for n, m in METHOD_ALIASES.items()
               if "rank" in model_selection._ESTIMATORS[m].axes]


def _row_bytes(rows):
    # each row with its value as IEEE bytes, so -0.0 and NaN count
    return [{**r, "value": np.float64(r["value"]).tobytes()} for r in rows]


def _chunked_runs(monkeypatch, spec, names, **kwargs):
    """Rows with no stacked fit (every chunk as if each method's stack had
    failed), with one replication per chunk and with every replication in one
    chunk, and the number of datasets in each stacked descent of the last run."""
    runs, sizes = [], []
    fit_chunk, fit_groups = simulation._fit_chunk, model_selection._fit_groups

    def none(*args):
        return {}

    def recording(parts, *args, **kw):
        sizes.append(len(parts))
        return fit_groups(parts, *args, **kw)

    monkeypatch.setattr(model_selection, "_fit_groups", recording)
    for stack, doubles in ((none, 0), (fit_chunk, 0), (fit_chunk, 1 << 60)):
        monkeypatch.setattr(simulation, "_fit_chunk", stack)
        monkeypatch.setattr(simulation, "_STACK_DOUBLES", doubles)
        sizes.clear()
        runs.append(run_scenario(spec, names, **kwargs))
    return runs, sizes


# CV runs every alias of a rank-using method and each baseline under its own name
_CV_NAMES = list(dict.fromkeys(_RANK_NAMES + list(model_selection.METHODS)))


@pytest.mark.parametrize("design, cv, grid, names, n, q", [
    ("rct", False, None, list(METHOD_ALIASES), 120, 10),
    ("observational", False, None, list(METHOD_ALIASES), 120, 10),
    ("rct", True, _CHUNK_GRID, _CV_NAMES, 120, 10),
    ("observational", True, _CHUNK_GRID, _CV_NAMES, 120, 10),
    # per-replication default grids (8 x 8 points; q = 2 keeps them to ranks 1-2)
    ("observational", True, None, _RANK_NAMES + ["mcm"], 200, 2),
])
def test_stacked_replication_rows_equal_one_at_a_time(monkeypatch, design, cv, grid, names, n, q):
    spec = ScenarioSpec(scenario=2, design=design, seed=8,
                        **{**_FAST, "n": n, "q": q, "replications": 2 if cv else 3})
    cfg = None if cv else FitConfig(rank=1, lambda_w=3.0, phi_c=4.0)
    (unstacked, alone, stacked), sizes = _chunked_runs(monkeypatch, spec, names, cv=cv,
                                                       grid=grid, cfg=cfg)
    assert _row_bytes(stacked) == _row_bytes(alone) == _row_bytes(unstacked)
    assert not any(r["metric"] == "error" for r in stacked)
    # the chunk's descents hold every replication (with CV, all their folds)
    folds = (grid.folds if grid else model_selection.GRID_FOLDS) if cv else 1
    assert max(sizes) == spec.replications * folds


def _scale_outcomes_of(monkeypatch, bad_rep, factor):
    # replication bad_rep's outcomes times factor, so its squared-loss objectives overflow
    draw = simulation.generate_truth

    def scaled(spec, rng):
        truth = draw(spec, rng)
        if list(rng.bit_generator.seed_seq.entropy) != [spec.seed, bad_rep]:
            return truth
        d = truth.dataset
        d = type(d)(X=d.X, Y=d.Y * factor, T=d.T, propensity=d.propensity)
        return type(truth)(**{**vars(truth), "dataset": d})

    monkeypatch.setattr(simulation, "generate_truth", scaled)


@pytest.mark.parametrize("cv", [False, True])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failing_replication_stays_isolated_in_its_chunk(monkeypatch, cv):
    _scale_outcomes_of(monkeypatch, bad_rep=1, factor=1e200)
    # the absolute-loss baseline's smoothed objective stays finite at that scale
    names = _RANK_NAMES + ["mcml1"]
    spec = ScenarioSpec(scenario=2, seed=9, **{**_FAST, "replications": 3})
    # per cross_validate call: the grid fits stored for its dataset, of the
    # rank-using methods and of the absolute-loss baseline
    stored = []
    cross_validate = simulation.cross_validate

    def reading(d, *args, **kwargs):
        memo = model_selection._FOLD_MEMO.get()
        methods = [key[2] for key in memo if len(key) == 5 and key[0] == id(d)]  # fit keys
        stored.append((sum(m != "wmcml1" for m in methods), methods.count("wmcml1")))
        return cross_validate(d, *args, **kwargs)

    monkeypatch.setattr(simulation, "cross_validate", reading)
    grid = replace(_CHUNK_GRID, lambdas=(20.0,))
    (unstacked, alone, stacked), sizes = _chunked_runs(monkeypatch, spec, names, cv=cv, grid=grid)
    assert _row_bytes(stacked) == _row_bytes(alone) == _row_bytes(unstacked)
    errors = {(r["replication"], r["method"]) for r in stacked if r["metric"] == "error"}
    assert errors == {(1, name) for name in _RANK_NAMES}
    assert max(sizes) == spec.replications * (grid.folds if cv else 1)
    if cv:
        # the stored fits each rank-using CV call found, by run (no stacking, one
        # replication per chunk, one chunk whose descent failed) and replication
        ranked = [s for k, (s, _) in enumerate(stored) if names[k % len(names)] in _RANK_NAMES]
        _, alone, together = np.array(ranked).reshape(3, spec.replications, len(_RANK_NAMES))
        assert (alone[[0, 2]] > 0).all() and not alone[1].any() and not together.any()
        # the absolute-loss stack of the failing chunk does not fail: its fits are kept
        l1 = [s for k, (_, s) in enumerate(stored) if names[k % len(names)] == "mcml1"]
        none, alone, together = np.array(l1).reshape(3, spec.replications)
        assert not none.any() and (alone > 0).all() and (together > 0).all()


# default-grid CV of three methods (observational; q = 2 keeps the grids to ranks 1-2)
_GRID_SPEC = ScenarioSpec(scenario=2, design="observational", seed=8,
                          **{**_FAST, "n": 120, "q": 2})
_GRID_NAMES = ["wmcmr4", "wmcmrrr", "mcm"]


def _counted_default_grids(monkeypatch):
    # what each default_cv_grid call of run_scenario gave: its grid or its error
    calls, default_cv_grid = [], simulation.default_cv_grid

    def counted(d, a):
        try:
            calls.append(default_cv_grid(d, a))
        except DataError as e:
            calls.append(e)
            raise
        return calls[-1]

    monkeypatch.setattr(simulation, "default_cv_grid", counted)
    return calls


def _default_grid_rows_alone(spec, names, rep):
    # replication rep's rows from the public steps: each method cross-validated on the
    # replication's default grid (the method's own axes of it), refit at its selection
    truth = generate_truth(spec, np.random.default_rng(np.random.SeedSequence([spec.seed, rep])))
    d = truth.dataset
    a = weights.resolve_weights(d, "logistic")
    grid, cfg, rows = model_selection.default_cv_grid(d, a), FitConfig(rank=1), []
    for name in names:
        method = METHOD_ALIASES[name]
        lam, phi, rank = model_selection.cross_validate(
            d, model_selection._method_grid(grid, method), method, "logistic", cfg).best
        fit = model_selection._ESTIMATORS[method].fit
        gamma = fit(d, a, replace(cfg, rank=rank, lambda_w=lam, phi_c=phi)).gamma
        report = evaluate(gamma, truth.X_test, truth.gamma_true)
        rows += [{"scenario_id": spec.scenario_id, "replication": rep, "method": name,
                  "metric": metric, "value": getattr(report, metric)} for metric in METRIC_ORDER]
    return rows


def test_default_grid_is_built_once_per_replication(monkeypatch):
    grids = _counted_default_grids(monkeypatch)
    rows = run_scenario(_GRID_SPEC, _GRID_NAMES, cv=True)
    # one grid per replication, read by the stacked CV fits and every method's selection
    assert len(grids) == _GRID_SPEC.replications
    alone = [row for rep in range(_GRID_SPEC.replications)
             for row in _default_grid_rows_alone(_GRID_SPEC, _GRID_NAMES, rep)]
    assert _row_bytes(rows) == _row_bytes(alone)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failing_default_grid_errors_only_its_replication(monkeypatch):
    # replication 1's outcomes overflow its largest penalty, so its default grid raises
    _scale_outcomes_of(monkeypatch, bad_rep=1, factor=1e200)
    grids = _counted_default_grids(monkeypatch)
    rows = run_scenario(_GRID_SPEC, _GRID_NAMES, cv=True)
    errors = [e for e in grids if isinstance(e, DataError)]
    assert errors and all("lambda_w must be finite" in str(e) for e in errors)
    assert [r for r in rows if r["replication"] == 1] == [
        {"scenario_id": _GRID_SPEC.scenario_id, "replication": 1, "method": name,
         "metric": "error", "value": 1.0} for name in _GRID_NAMES]
    kept = [r for r in rows if r["replication"] != 1]
    assert _row_bytes(kept) == _row_bytes(_default_grid_rows_alone(_GRID_SPEC, _GRID_NAMES, 0))


def test_stacked_run_keeps_one_cross_validate_per_method_and_replication(monkeypatch):
    calls, irls = [], []
    cross_validate, logistic = simulation.cross_validate, weights._logistic_irls

    def counted_cv(d, grid, method, **kwargs):
        calls.append((id(d), method))
        return cross_validate(d, grid, method, **kwargs)

    def counted_irls(*args, **kwargs):
        irls.append(1)
        return logistic(*args, **kwargs)

    monkeypatch.setattr(simulation, "cross_validate", counted_cv)
    monkeypatch.setattr(weights, "_logistic_irls", counted_irls)
    monkeypatch.setattr(model_selection, "_logistic_irls", counted_irls)
    monkeypatch.setattr(simulation, "_STACK_DOUBLES", 1 << 60)
    spec = ScenarioSpec(scenario=3, design="observational", seed=3,
                        **{**_FAST, "n": 120, "replications": 3})
    grid = CvGrid(lambdas=(1.0,), phis=(1.0,), ranks=(1,), folds=3)
    names = ["wmcmr4", "mcmrrr", "wmcmrrr", "mcm"]
    rows = run_scenario(spec, names, cv=True, grid=grid)
    assert not any(r["metric"] == "error" for r in rows)
    datasets = list(dict.fromkeys(d for d, _ in calls))
    assert len(datasets) == spec.replications
    assert calls == [(d, model_selection.METHOD_ALIASES[n]) for d in datasets for n in names]
    # per replication: its weights, then one fit per training fold, shared by every method
    assert len(irls) == spec.replications * (1 + 3)

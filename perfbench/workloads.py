"""The three benchmark workloads: their inputs, work lists and output checks.

Each workload solves one fixed problem instance: the bundled trial fixture, or
a draw from INSTANCE_SEED. The run's seed, together with the pass index ``k``,
varies what the program is handed without changing how hard the instance is:
the subjects' order, the CV fold seed and the seed of the small CLI
simulation. Solver cost is heavy-tailed across independent draws: the
``fit-obs50`` instances drawn as ``SeedSequence([20240726, k])`` for k = 0..3
took 12, 31, 9.6 and 98 s per pass, the last with the (5, 5) fit stopped at
max_outer = 500. Drawing the instance from the run's seed would swamp the
run-to-run spread, so the benchmark does not; it uses k = 0. The program only
receives the generated inputs.

Why each workload exists:

* ``sim-cv-rct`` -- one CV'd replication of the contaminated RCT cell that
  dominates the acceptance suite: hundreds of short fits, where per-call
  Python overhead in the W row loop dominates. CV batching and parallel
  replications would act here.
* ``fit-obs50`` -- a few long, iteration-bound fits over 51 loading rows
  with logistic weights, without CV. Fewer sweeps or a better stop would show
  here; CV batching and replication parallelism are bypassed.
* ``cli-trial`` -- the user path through the command line on the bundled
  30-subject trial fixture: CSV ingestion, standardization, canonical JSON,
  DOT export and dispatch around tiny-n fits.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# The program is called through its modules' attributes, never through names
# bound here, so that the tracer's wrappers see every call.
import multicate as mc
import multicate.cli as mc_cli
from multicate import CvGrid, Dataset, FitConfig, ScenarioSpec
from tracer import monotone

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE_COVARIATES = os.path.join(HERE, "data", "trial_covariates.csv")
FIXTURE_OUTCOMES = os.path.join(HERE, "data", "trial_outcomes.csv")

# Reference outputs must agree to this relative tolerance (scaled by the
# largest reference magnitude of the compared block).
REL_TOL = 1e-9

# Seed sequence of every workload's problem instance; see the module docstring.
INSTANCE_SEED = (20240726, 0)


def derive_seed(seed: int, k: int) -> int:
    """A 32-bit seed for pass k of a run with the given seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass
class Op:
    """One step of a pass. ``counted`` steps are the workload's ops; others
    (such as resolving weights) count toward the pass wall time only."""

    label: str
    fn: Callable
    fits: int = 0
    failed: Callable | None = None
    counted: bool = True


@dataclass
class Checks:
    """Output checks of one run: invariants at any seed, reference at the default."""

    checked: int = 0
    failures: list = field(default_factory=list)

    def expect(self, label: str, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(label)

    def against(self, summary: dict, reference: dict, prefix: str) -> None:
        """Exact equality for ``exact`` entries, REL_TOL for ``close`` ones."""
        for kind in ("exact", "close"):
            want = reference.get(kind, {})
            got = summary.get(kind, {})
            for label in sorted(set(want) | set(got)):
                tag = f"{prefix}{kind}:{label}"
                if label not in want or label not in got:
                    self.expect(tag, False)
                elif kind == "exact":
                    self.expect(tag, got[label] == want[label])
                else:
                    self.expect(tag, close(got[label], want[label]))


def close(got, ref, rtol: float = REL_TOL) -> bool:
    g = np.asarray(got, dtype=float)
    r = np.asarray(ref, dtype=float)
    if g.shape != r.shape:
        return False
    if not np.array_equal(np.isnan(g), np.isnan(r)):
        return False
    g, r = g[~np.isnan(r)], r[~np.isnan(r)]
    if r.size == 0:
        return True
    scale = float(np.max(np.abs(r)))
    return bool(np.all(np.abs(g - r) <= rtol * (np.abs(r) + scale)))


def _check_infos(infos, checks: Checks) -> None:
    # whatever the tracer saw of fits: finite, non-increasing objective
    for name, _op, info in infos:
        if "monotone" in info:
            checks.expect(f"{name}: non-increasing objective", info["monotone"])
            checks.expect(f"{name}: finite coefficients", info["finite"])


# =============================================================================
# sim-cv-rct
# =============================================================================


class SimCvRct:
    """The A06 cell: scenario 1, 5% contamination, RCT, n=300, p=q=10, CV'd."""

    name = "sim-cv-rct"
    methods = ("wmcmr4", "wmcmrrr", "mcm", "full")
    lambdas = (1.0, 5.0, 20.0, 80.0)
    phis = (0.5, 5.0, 20.0, 80.0)
    ranks = (1, 2)
    folds = 5
    # CV results are inside run_scenario; an untraced run taps them only
    capture = ("model_selection.cross_validate",)

    def make_inputs(self, seed: int, k: int, workdir: str) -> dict:
        spec = ScenarioSpec(scenario=1, p=10, q=10, g=0.0, tau_pct=5.0, z=0.0, design="rct",
                            n=300, replications=1, seed=derive_seed(*INSTANCE_SEED))
        grid = CvGrid(lambdas=self.lambdas, phis=self.phis, ranks=self.ranks,
                      folds=self.folds, seed=derive_seed(seed, k))
        return {"spec": spec, "grid": grid}

    def fits_per_pass(self) -> int:
        n_grid = {"wmcmr4": len(self.lambdas) * len(self.phis) * len(self.ranks),
                  "wmcmrrr": len(self.lambdas) * len(self.ranks)}
        # every method also refits once at its selected point
        return sum(n_grid.get(m, len(self.lambdas)) * self.folds + 1 for m in self.methods)

    def ops(self, inputs: dict) -> list:
        def replication():
            return mc.run_scenario(inputs["spec"], list(self.methods), cv=True, grid=inputs["grid"])

        return [Op("replication", replication, fits=self.fits_per_pass(),
                   failed=lambda rows: any(r["metric"] == "error" for r in rows))]

    def check(self, inputs, outputs, infos, checks: Checks) -> None:
        rows = outputs[0]
        checks.expect("rows returned", isinstance(rows, list) and len(rows) == 4 * len(self.methods))
        if not isinstance(rows, list):
            return
        checks.expect("no error rows", not any(r["metric"] == "error" for r in rows))
        checks.expect("finite metric rows", all(math.isfinite(r["value"]) for r in rows))
        selected = [i for i in infos if i[0] == "model_selection.cross_validate"]
        checks.expect("one CV selection per method", len(selected) == len(self.methods))
        _check_infos(infos, checks)

    def summary(self, inputs, outputs, infos) -> dict:
        cv = [i[2] for i in infos if i[0] == "model_selection.cross_validate"]
        exact = {f"selected.{n}": info["best"] for n, info in zip(self.methods, cv)}
        close_ = {f"rows.{r['method']}.{r['metric']}": r["value"] for r in outputs[0]}
        return {"exact": exact, "close": close_}

    def probe_problem(self, inputs, outputs):
        spec = inputs["spec"]
        # replication 0 of the spec, drawn exactly as run_scenario draws it
        truth = mc.generate_truth(spec, np.random.default_rng(np.random.SeedSequence([spec.seed, 0])))
        d = truth.dataset
        return d, mc.rct_weights(d.n), FitConfig(rank=2, lambda_w=5.0, phi_c=5.0), None


# =============================================================================
# fit-obs50
# =============================================================================


def observational_dataset(rng, n=300, p=50, q=10, g=1.0 / 3.0, z=1.0 / 3.0,
                          tau_pct=10.0, b=6.0 ** -0.5) -> Dataset:
    """Scenario-4 observational draw built by the benchmark itself.

    x = (1, x*) with equicorrelated N(0,1) covariates (correlation g); the
    effect matrix is the fixed sparse rank-2 pattern; y = (B'x)^2 +
    T Gamma'x / 2 + e with equicorrelated noise; P(T=+1|x) =
    1/(1 + exp(x_1 + ... + x_5)); tau_pct% of rows are replaced by
    uniform(15, 20) contamination.
    """
    sigma = (1.0 - g) * np.eye(p) + g
    X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p)) @ np.linalg.cholesky(sigma).T])
    gamma = np.zeros((p + 1, q))
    gamma[1:5, :4] += 1.0
    gamma[3:7, 2:6] += 1.0
    B = np.zeros((p + 1, q))
    B[3:11, :] = b
    pi = 1.0 / (1.0 + np.exp(X[:, 1:6].sum(axis=1)))
    T = np.where(rng.random(n) < pi, 1.0, -1.0)
    noise = (2.0 - z) * np.eye(q) + z
    Y = (X @ B) ** 2 + (T / 2.0)[:, None] * (X @ gamma) \
        + rng.standard_normal((n, q)) @ np.linalg.cholesky(noise).T
    k = round(n * tau_pct / 100.0)
    rows = rng.choice(n, size=k, replace=False)
    Y[rows] = rng.uniform(15.0, 20.0, size=(k, q))
    return mc.validate_dataset(X, Y, T)


class FitObs50:
    """One observational p=50 replication fit at a fixed list of points."""

    name = "fit-obs50"
    # (label, method, lambda, phi, rank)
    points = (
        ("wmcmr4@5,5", "wmcmr4", 5.0, 5.0, 2),
        ("wmcmr4@20,20", "wmcmr4", 20.0, 20.0, 2),
        ("wmcmr4@80,80", "wmcmr4", 80.0, 80.0, 2),
        ("wmcmrrr@20", "wmcmrrr", 20.0, 0.0, 2),
        ("wmcm@20", "wmcm", 20.0, 0.0, 1),
        ("wfull@20", "wfull", 20.0, 0.0, 1),
        ("wmcml1@20", "wmcml1", 20.0, 0.0, 1),
    )
    n, p = 300, 50
    capture = ()

    def make_inputs(self, seed: int, k: int, workdir: str) -> dict:
        d = observational_dataset(np.random.default_rng(np.random.SeedSequence(INSTANCE_SEED)),
                                  n=self.n, p=self.p)
        order = np.random.default_rng(np.random.SeedSequence([seed, k])).permutation(d.n)
        return {"dataset": Dataset(X=d.X[order], Y=d.Y[order], T=d.T[order])}

    def fits_per_pass(self) -> int:
        return len(self.points)

    def ops(self, inputs: dict) -> list:
        d = inputs["dataset"]
        state = {}

        def weights():
            state["a"] = mc.resolve_weights(d, "logistic")
            return state["a"]

        def one(method, lam, phi, rank):
            def run():
                a = state["a"]
                if method == "wmcmr4":
                    return mc.fit(d, a, FitConfig(rank=rank, lambda_w=lam, phi_c=phi))
                if method == "wmcmrrr":
                    return mc.fit_wmcmrrr(d, a, rank, lam)
                if method == "wmcm":
                    return mc.fit_wmcm(d, a, lam)
                if method == "wfull":
                    return mc.fit_wfull(d, a, lam)
                return mc.fit_wmcm_l1(d, a, lam)
            return run

        return [Op("weights", weights, counted=False)] + [
            Op(label, one(m, lam, phi, r), fits=1) for label, m, lam, phi, r in self.points]

    def check(self, inputs, outputs, infos, checks: Checks) -> None:
        wv, models = outputs[0], outputs[1:]
        checks.expect("weights finite and positive",
                      bool(np.all(np.isfinite(wv.a)) and np.all(wv.a > 0)))
        for (label, *_), m in zip(self.points, models):
            checks.expect(f"{label}: finite coefficients", bool(np.isfinite(m.gamma).all()))
            checks.expect(f"{label}: non-increasing objective", monotone(m.trace.objective))
        _check_infos(infos, checks)

    def summary(self, inputs, outputs, infos) -> dict:
        w = np.asarray(outputs[0].a) ** 2
        close_ = {f"gamma.{label}": np.asarray(m.gamma).tolist()
                  for (label, *_), m in zip(self.points, outputs[1:])}
        close_["weights.ess"] = float(w.sum() ** 2 / np.sum(w * w))
        return {"exact": {}, "close": close_}

    def probe_problem(self, inputs, outputs):
        label, _m, lam, phi, rank = self.points[0]
        return (inputs["dataset"], outputs[0], FitConfig(rank=rank, lambda_w=lam, phi_c=phi),
                outputs[1])


# =============================================================================
# cli-trial
# =============================================================================


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class CliTrial:
    """fit, a small-grid cv, simulate -> report and a model round trip."""

    name = "cli-trial"
    cv_lambdas, cv_phis, cv_ranks, cv_folds = (50.0, 500.0), (800.0, 3200.0), (1,), 3
    # the acceptance suite's simulate config; only the seed comes from the run.
    # The command line raises its 2 replications to 20, so that the command
    # takes about 0.1 s rather than 10 ms of timer jitter.
    scenario = {"scenario": 3, "n": 60, "n_test": 40, "q": 10, "p": 10, "replications": 2}
    sim_replications = 20
    sim_methods = "wmcmr4,mcm"
    capture = ()

    def make_inputs(self, seed: int, k: int, workdir: str) -> dict:
        # the fixture is used as bundled: reordering its subjects moves the CV
        # folds, which moved solver sweeps by up to 50% between seeds
        config = os.path.join(workdir, "scenario.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({**self.scenario, "seed": derive_seed(seed, k)}, fh)
        files = {name: os.path.join(workdir, name) for name in (
            "model.json", "model.dot", "cv.csv", "cv_model.json", "reps.csv",
            "summary.csv", "model_copy.json")}
        return {"covariates": FIXTURE_COVARIATES, "outcomes": FIXTURE_OUTCOMES,
                "config": config, **files}

    @property
    def cv_fits(self) -> int:
        # grid points x folds, plus the refit
        grid = len(self.cv_lambdas) * len(self.cv_phis) * len(self.cv_ranks)
        return grid * self.cv_folds + 1

    @property
    def sim_fits(self) -> int:
        return self.sim_replications * len(self.sim_methods.split(","))

    def fits_per_pass(self) -> int:
        return 1 + self.cv_fits + self.sim_fits

    def ops(self, inputs: dict) -> list:
        data = ["--covariates", inputs["covariates"], "--outcomes", inputs["outcomes"],
                "--treatment-column", "arm", "--coding", "zero_one", "--standardize"]

        def cli(argv):
            def run():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = mc_cli.run_cli(argv)
                return code, buf.getvalue()
            return run

        def round_trip():
            mc.save_model(mc.load_model(inputs["model.json"]), inputs["model_copy.json"])
            return 0, ""

        def csv_list(values):
            return ",".join(f"{v:g}" for v in values)

        cv_grid = ["--lambdas", csv_list(self.cv_lambdas), "--phis", csv_list(self.cv_phis),
                   "--ranks", csv_list(self.cv_ranks), "--folds", str(self.cv_folds)]
        exit_failed = lambda out: out[0] != 0  # noqa: E731
        return [
            Op("fit", cli(["fit", *data, "--rank", "1", "--lambda", "0.5", "--phi", "200",
                           "--model-out", inputs["model.json"],
                           "--diagram-out", inputs["model.dot"]]), fits=1, failed=exit_failed),
            Op("cv", cli(["cv", *data, *cv_grid, "--cv-out", inputs["cv.csv"],
                          "--model-out", inputs["cv_model.json"]]),
               fits=self.cv_fits, failed=exit_failed),
            Op("simulate", cli(["simulate", inputs["config"], "--methods", self.sim_methods,
                                "--replications", str(self.sim_replications),
                                "--out", inputs["reps.csv"]]),
               fits=self.sim_fits, failed=exit_failed),
            Op("report", cli(["report", inputs["reps.csv"], "--out", inputs["summary.csv"]]),
               failed=exit_failed),
            Op("round-trip", round_trip, failed=exit_failed),
        ]

    def check(self, inputs, outputs, infos, checks: Checks) -> None:
        for op, out in zip(("fit", "cv", "simulate", "report", "round-trip"), outputs):
            checks.expect(f"{op}: exit code 0", isinstance(out, tuple) and out[0] == 0)
        if not all(isinstance(o, tuple) and o[0] == 0 for o in outputs):
            return
        art = mc.load_model(inputs["model.json"])
        objective = art.objective_trace or []
        checks.expect("fit: finite coefficients", bool(np.isfinite(art.model.gamma).all()))
        checks.expect("fit: non-increasing objective", monotone(objective))
        with open(inputs["model.json"], "rb") as a, open(inputs["model_copy.json"], "rb") as b:
            checks.expect("model round trip byte-identical", a.read() == b.read())
        with open(inputs["model.dot"], encoding="utf-8") as fh:
            edges = fh.read().count("->")
        checks.expect("DOT edges = nonzero loadings",
                      edges == int(np.count_nonzero(art.model.W)) + int(np.count_nonzero(art.model.V)))
        losses = [float(r[4]) for r in _read_rows(inputs["cv.csv"])[1:]]
        checks.expect("cv-out rows", len(losses) == self.cv_fits - 1)
        checks.expect("cv-out losses finite", all(math.isfinite(v) for v in losses))
        rows = mc.read_replication_csv(inputs["reps.csv"])
        checks.expect("simulate: one row per replication, method and metric",
                      len(rows) == 4 * self.sim_fits)
        checks.expect("simulate: no error rows", not any(r["metric"] == "error" for r in rows))
        checks.expect("simulate: finite rows", all(math.isfinite(float(r["value"])) for r in rows))
        _check_infos(infos, checks)

    def summary(self, inputs, outputs, infos) -> dict:
        fit_art = mc.load_model(inputs["model.json"])
        cv_art = mc.load_model(inputs["cv_model.json"])
        cv_rows = _read_rows(inputs["cv.csv"])[1:]
        sim = mc.read_replication_csv(inputs["reps.csv"])
        report = _read_rows(inputs["summary.csv"])[1:]
        return {
            "exact": {
                "cv.best": cv_art.metadata["cv_best"],
                "cv.grid": [r[:4] for r in cv_rows],
                "report.groups": [r[:3] + [r[5]] for r in report],
            },
            "close": {
                "fit.gamma": np.asarray(fit_art.model.gamma).tolist(),
                "cv.losses": [float(r[4]) for r in cv_rows],
                "cv.refit_gamma": np.asarray(cv_art.model.gamma).tolist(),
                "simulate.values": [float(r["value"]) for r in sim],
                "report.median_iqr": [[float(r[3]), float(r[4])] for r in report],
            },
        }

    def probe_problem(self, inputs, outputs):
        d, _, _ = mc.load_csv_dataset(inputs["covariates"], inputs["outcomes"], "arm",
                                   coding="zero_one")
        X = np.array(d.X)
        sd = X[:, 1:].std(axis=0)
        X[:, 1:] = (X[:, 1:] - X[:, 1:].mean(axis=0)) / np.where(sd == 0.0, 1.0, sd)
        d = Dataset(X=X, Y=d.Y, T=d.T)
        cfg = FitConfig(rank=1, lambda_w=0.5, phi_c=200.0)
        return d, mc.rct_weights(d.n), cfg, mc.load_model(inputs["model.json"]).model


WORKLOADS = {w.name: w for w in (SimCvRct(), FitObs50(), CliTrial())}

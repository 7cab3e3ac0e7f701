"""Tests of the benchmark itself, on shrunken copies of the workloads.

Run from the checkout root: ``python3 -m pytest perfbench``.
"""

import copy
import json
import os

import numpy as np
import pytest

import run

run._import_program()

import multicate  # noqa: E402
import multicate.baselines  # noqa: E402
import multicate.model_selection  # noqa: E402
import workloads  # noqa: E402
from tracer import ENTRY_POINTS, Interposer, layer_metrics  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _small(name):
    """A copy of a workload with the same ops on a much smaller problem."""
    w = copy.copy(workloads.WORKLOADS[name])
    if name == "sim-cv-rct":
        w.lambdas, w.phis, w.ranks, w.folds = (80.0,), (80.0,), (1,), 2
    elif name == "fit-obs50":
        w.n, w.p = 80, 10
        w.points = tuple(pt for pt in w.points if pt[0] in ("wmcmr4@80,80", "wmcm@20", "wmcml1@20"))
    else:
        w.cv_lambdas, w.cv_phis, w.cv_folds = (5000.0,), (3200.0,), 2
    return w


def _run(monkeypatch, capsys, name, trace, seed=1, reference=None):
    monkeypatch.setitem(workloads.WORKLOADS, name, _small(name))
    monkeypatch.setattr(run, "_load_reference", lambda *_: reference)
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    return code, out, json.loads(out[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys, name):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, out, result = _run(monkeypatch, capsys, name, trace)
        assert code == 0
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
        if trace == 0:
            shown = {line.split()[0]: line.split()[2] for line in out
                     if line.split()[0] in {**want, "error_frac": 0, "mismatch_frac": 0}}
            assert shown == {**want, "error_frac": "ratio", "mismatch_frac": "ratio"}


def test_perturbed_reference_is_a_mismatch(monkeypatch, capsys, tmp_path):
    name = "cli-trial"
    w = _small(name)
    inputs = w.make_inputs(1, 0, str(tmp_path))
    with Interposer(w.capture, record=False) as tap:
        res = run.run_pass(w, inputs, tap, iter(range(100)))
    reference = w.summary(inputs, res.outputs, tap.infos)

    clean = workloads.Checks()
    clean.against(reference, reference, "")
    assert clean.checked > 0 and not clean.failures

    bent = copy.deepcopy(reference)
    bent["close"]["fit.gamma"][1][0] *= 1.0 + 1e-6
    bent["exact"]["cv.best"][0] += 1.0
    checks = workloads.Checks()
    checks.against(w.summary(inputs, res.outputs, tap.infos), bent, "")
    assert sorted(checks.failures) == ["close:fit.gamma", "exact:cv.best"]

    _, out, result = _run(monkeypatch, capsys, name, 0, reference=bent)
    assert result["correct"] is False
    mismatch = [line for line in out if line.startswith("mismatch_frac")][0]
    assert float(mismatch.split()[1]) > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_generated_inputs(tmp_path, name):
    w = workloads.WORKLOADS[name]

    def fingerprint(seed, sub):
        d = tmp_path / f"{seed}-{sub}"
        d.mkdir(exist_ok=True)
        inputs = w.make_inputs(seed, 0, str(d))
        parts = []
        for key in sorted(inputs):
            value = inputs[key]
            if hasattr(value, "X"):
                parts.append(np.concatenate([value.X.ravel(), value.Y.ravel()]).tobytes())
            elif isinstance(value, str) and os.path.isfile(value):
                with open(value, "rb") as fh:
                    parts.append(fh.read())
            elif not isinstance(value, str):
                parts.append(repr(value).encode())
        return parts

    assert fingerprint(1, "a") == fingerprint(1, "b")
    assert fingerprint(1, "a") != fingerprint(2, "a")


def test_interposition_follows_aliases_and_restores():
    fit = multicate.solver.fit
    with Interposer() as tr:
        assert multicate.baselines._fit_factor is multicate.fit
        assert multicate.model_selection._fit_factor is multicate.solver.fit
        assert multicate.baselines._fit_factor is not fit
        assert "multicate.baselines._fit_factor" in tr.bindings["solver.fit"]
        assert all(tr.bindings[e[0]] for e in ENTRY_POINTS)
    assert multicate.baselines._fit_factor is fit and multicate.solver.fit is fit


def test_uncalled_entry_points_report_zero():
    m = layer_metrics([])
    assert m["solver.fit.calls"] == 0 and m["cli.fit.s"] == 0.0
    assert m["model_selection.cross_validate.fits"] == 0


def test_self_time_subtracts_child_spans():
    spans = [
        ["model_selection.cross_validate", 0, None, 0.0, 10.0, {"best": [1, 1, 1]}],
        ["solver.fit", 0, 0, 1.0, 4.0, {"outer": 3, "w_sweeps": 9, "c_sweeps": 6,
                                        "w_capped": 1, "converged": True}],
        ["baselines.wmcm", 0, 0, 5.0, 6.0, {"outer": 2}],
    ]
    m = layer_metrics(spans)
    assert m["model_selection.cross_validate.self_s"] == pytest.approx(6.0)
    assert m["model_selection.cross_validate.fits"] == 2
    assert m["solver.fit.w_capped_frac"] == pytest.approx(1 / 3)

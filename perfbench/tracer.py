"""Spans around the public entry points of ``multicate``, recorded from outside.

An :class:`Interposer` replaces each entry point, by object identity, in every
loaded ``multicate.*`` module that binds it, so an import alias such as
``model_selection._fit_factor`` (which *is* ``solver.fit``) is wrapped too.
Spans stay in memory as plain lists; :func:`layer_metrics` turns one pass's
spans into the per-layer numbers and :func:`dump_spans` writes them out.

A span is ``[name, op, parent, start, end, info]``: ``op`` is the id shared by
every span of one benchmark op, ``parent`` the index of the enclosing span (or
None), and ``info`` a small dict a hook extracts from the call and its result.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from importlib import import_module
from time import perf_counter

import numpy as np

# Relative rise allowed between consecutive FitTrace objective values: the
# sequence is non-increasing in exact arithmetic, so only rounding may show.
OBJECTIVE_RISE_TOL = 1e-10


def _argument(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def monotone(objective) -> bool:
    """True when a FitTrace objective is finite and never rises beyond rounding."""
    obj = np.asarray(objective, dtype=float)
    if obj.size < 2:
        return True
    tol = OBJECTIVE_RISE_TOL * max(1.0, abs(float(obj[0])))
    return bool(np.all(np.isfinite(obj)) and np.max(np.diff(obj)) <= tol)


def _fit_info(fn, args, kwargs, model):
    tr = model.trace
    cfg = _argument(fn, args, kwargs, "cfg")
    cap = cfg.max_inner if cfg is not None else None
    return {
        "outer": int(tr.n_outer),
        "w_sweeps": int(sum(tr.w_sweeps)),
        "c_sweeps": int(sum(tr.c_sweeps)),
        "w_capped": int(sum(1 for s in tr.w_sweeps if cap is not None and s >= cap)),
        "converged": bool(tr.converged),
        "monotone": monotone(tr.objective),
        "finite": bool(np.isfinite(model.gamma).all()),
    }


def _baseline_info(fn, args, kwargs, model):
    tr = model.trace
    return {"outer": int(tr.n_outer), "converged": bool(tr.converged),
            "monotone": monotone(tr.objective),
            "finite": bool(np.isfinite(model.gamma).all())}


def _cv_info(fn, args, kwargs, result):
    method = _argument(fn, args, kwargs, "method") or "wmcmr4"
    return {"method": method, "best": [float(v) for v in result.best]}


def _scenario_info(fn, args, kwargs, rows):
    return {"error_rows": sum(1 for r in rows if r["metric"] == "error")}


def _weights_info(fn, args, kwargs, wv):
    w = np.asarray(wv.a, dtype=float) ** 2
    return {"ess": float(w.sum() ** 2 / np.sum(w * w)), "n": int(w.size)}


def _bytes_info(fn, args, kwargs, result):
    path = _argument(fn, args, kwargs, "path")
    return {"bytes": os.path.getsize(path) if path is not None else 0}


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + (str(argv[0]) if argv else "none")


def _cli_info(fn, args, kwargs, code):
    return {"exit": code}


# (span name, module, attribute, info hook). cli.run_cli spans are named after
# the subcommand, e.g. "cli.fit".
ENTRY_POINTS = (
    ("solver.fit", "multicate.solver", "fit", _fit_info),
    ("baselines.wmcmrrr", "multicate.baselines", "fit_wmcmrrr", _baseline_info),
    ("baselines.wmcm", "multicate.baselines", "fit_wmcm", _baseline_info),
    ("baselines.wfull", "multicate.baselines", "fit_wfull", _baseline_info),
    ("baselines.wmcm_l1", "multicate.baselines", "fit_wmcm_l1", _baseline_info),
    ("model_selection.cross_validate", "multicate.model_selection", "cross_validate", _cv_info),
    ("simulation.run_scenario", "multicate.simulation", "run_scenario", _scenario_info),
    ("simulation.generate_truth", "multicate.simulation", "generate_truth", None),
    ("metrics.evaluate", "multicate.metrics", "evaluate", None),
    ("weights.resolve_weights", "multicate.weights", "resolve_weights", _weights_info),
    ("model_io.load_csv_dataset", "multicate.model_io", "load_csv_dataset", None),
    ("model_io.save_model", "multicate.model_io", "save_model", _bytes_info),
    ("model_io.load_model", "multicate.model_io", "load_model", None),
    ("model_io.export_path_diagram", "multicate.model_io", "export_path_diagram", _bytes_info),
    ("model_io.write_replication_csv", "multicate.model_io", "write_replication_csv", _bytes_info),
    ("model_io.write_summary_csv", "multicate.model_io", "write_summary_csv", _bytes_info),
    ("cli.run_cli", "multicate.cli", "run_cli", _cli_info),
)

FIT_SPANS = ("solver.fit", "baselines.wmcmrrr", "baselines.wmcm", "baselines.wfull",
             "baselines.wmcm_l1")
CLI_COMMANDS = ("fit", "cv", "simulate", "report")


class Interposer:
    """Context manager that wraps entry points and records spans while active.

    ``names`` selects entry points by span name (default: all). With
    ``record=False`` nothing is timed: the wrappers only run their info hooks,
    which is how an untraced run still sees results it must check, such as
    the hyperparameters CV selected inside ``run_scenario``.
    """

    def __init__(self, names=None, record: bool = True):
        self.entries = [e for e in ENTRY_POINTS if names is None or e[0] in names]
        self.record = record
        self.spans: list = []
        self.infos: list = []   # (name, op, info) for every hooked call
        self.op = None
        self._stack: list = []
        self._undo: list = []
        self.bindings: dict = {}

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "multicate" or k.startswith("multicate."))]
        for name, modname, attr, hook in self.entries:
            orig = getattr(import_module(modname), attr)
            wrapper = self._wrap(name, orig, hook)
            bound = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
                        bound.append(f"{mod.__name__}.{key}")
            self.bindings[name] = sorted(bound)
        return self

    def __exit__(self, *exc):
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()
        return False

    def _wrap(self, name, fn, hook):
        rec = self

        def wrapper(*args, **kwargs):
            span_name = _cli_name(args, kwargs) if name == "cli.run_cli" else name
            span = None
            if rec.record:
                span = [span_name, rec.op, rec._stack[-1] if rec._stack else None, 0.0, 0.0, None]
                rec._stack.append(len(rec.spans))
                rec.spans.append(span)
                span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if span is not None:
                    span[4] = perf_counter()
                    rec._stack.pop()
            if hook is not None:
                info = hook(fn, args, kwargs, result)
                rec.infos.append((span_name, rec.op, info))
                if span is not None:
                    span[5] = info
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from the spans of one pass.

    Every metric is present; an entry point that was never called reports
    zero calls and zero time.
    """
    n = len(spans)
    child_time = [0.0] * n
    children = [[] for _ in range(n)]
    for i, (_, _, parent, t0, t1, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += t1 - t0
            children[parent].append(i)

    def select(name):
        return [i for i in range(n) if spans[i][0] == name]

    def dur(i):
        return spans[i][4] - spans[i][3]

    def info(i, key):
        return (spans[i][5] or {}).get(key, 0)

    m = {}
    fits = select("solver.fit")
    outer = sum(info(i, "outer") for i in fits)
    m["solver.fit.calls"] = len(fits)
    m["solver.fit.s"] = sum(dur(i) for i in fits)
    m["solver.fit.self_s"] = sum(dur(i) - child_time[i] for i in fits)
    m["solver.fit.outer_iters"] = outer
    m["solver.fit.w_sweeps"] = sum(info(i, "w_sweeps") for i in fits)
    m["solver.fit.c_sweeps"] = sum(info(i, "c_sweeps") for i in fits)
    m["solver.fit.w_capped_frac"] = (sum(info(i, "w_capped") for i in fits) / outer) if outer else 0.0
    m["solver.fit.unconverged"] = sum(1 for i in fits if not info(i, "converged"))
    for short in ("wmcmrrr", "wmcm", "wfull", "wmcm_l1"):
        sel = select(f"baselines.{short}")
        m[f"baselines.{short}.calls"] = len(sel)
        m[f"baselines.{short}.s"] = sum(dur(i) for i in sel)
        m[f"baselines.{short}.outer_iters"] = sum(info(i, "outer") for i in sel)
    cv = select("model_selection.cross_validate")
    m["model_selection.cross_validate.calls"] = len(cv)
    m["model_selection.cross_validate.s"] = sum(dur(i) for i in cv)
    m["model_selection.cross_validate.self_s"] = sum(dur(i) - child_time[i] for i in cv)
    m["model_selection.cross_validate.fits"] = sum(
        1 for i in cv for c in children[i] if spans[c][0] in FIT_SPANS)
    sc = select("simulation.run_scenario")
    m["simulation.run_scenario.calls"] = len(sc)
    m["simulation.run_scenario.s"] = sum(dur(i) for i in sc)
    m["simulation.run_scenario.self_s"] = sum(dur(i) - child_time[i] for i in sc)
    m["simulation.generate_truth.s"] = sum(dur(i) for i in select("simulation.generate_truth"))
    m["metrics.evaluate.s"] = sum(dur(i) for i in select("metrics.evaluate"))
    m["simulation.error_rows"] = sum(info(i, "error_rows") for i in sc)
    rw = select("weights.resolve_weights")
    m["weights.resolve_weights.s"] = sum(dur(i) for i in rw)
    # the least effective weighting seen in the pass, with its base n
    worst = min(rw, key=lambda i: info(i, "ess"), default=None)
    m["weights.ess"] = info(worst, "ess") if worst is not None else 0.0
    m["weights.ess_base_n"] = info(worst, "n") if worst is not None else 0
    for short in ("load_csv_dataset", "save_model", "load_model", "export_path_diagram"):
        m[f"model_io.{short}.s"] = sum(dur(i) for i in select(f"model_io.{short}"))
    m["model_io.bytes_written"] = sum(
        info(i, "bytes") for i in range(n) if spans[i][0].startswith("model_io."))
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = sum(dur(i) for i in select(f"cli.{cmd}"))
    return m


def dump_spans(spans, path) -> None:
    """Write spans as JSON lines: one object per span, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, op, parent, t0, t1, info) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "op": op, "parent": parent,
                                 "start": t0, "end": t1, "info": info}) + "\n")

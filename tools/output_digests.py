#!/usr/bin/env python3
"""SHA-256 digests of the outputs of every benchmark op, to check that a change
leaves them bit for bit as they were.

For each workload named, in turn, and each seed, runs the ops of pass 0 of
that workload of ``perfbench/workloads.py``, or of a built-in entry (below),
once and prints one line per op, ``seed/workload/op  digest``, then one per
file the pass wrote, ``seed/workload/file:name  digest``. An op's digest
covers what it returns (models and baseline fits with their traces,
replication rows, the CLI's exit code and stdout), the result of every
cross-validation and evaluation called inside it, in call order, and every
model the lockstep stacks ``solver._fit_groups``, ``baselines._fit_stack``
and ``baselines._fit_l1_stack`` yield inside it, as a multiset (sorted
per-model digests): ``fit``, ``fit_batch``, every baseline and every CV fit
run through them, and the order in which problems stop depends on which
problems share a stack. On a checkout without one of the baseline stacks,
the results of the fits it stacks (``fit_wmcm`` and ``fit_wfull``, or
``fit_wmcm_l1``) join the multiset instead, so the digests of two checkouts
compare. Arrays and floats are hashed as their bytes, so -0.0 and 0.0
differ; the work directory and the checkout's path are masked in strings
and files.

    python3 tools/output_digests.py > change.txt
    python3 tools/output_digests.py --root ../parent > parent.txt
    python3 tools/output_digests.py --workload cli-trial --seeds 0

By default it runs every workload, ``sim-cv-rct fit-obs50 cli-trial a06-cell
obs-nocv``, at seeds 0, 1 and 2: 72 digests, the battery that shows a change
bit for bit.

``--root`` names the source checkout whose ``src/`` and ``perfbench/`` are
imported (default: the one holding this script), so two runs, one per
checkout, compared with ``diff``, show whether a change moved any output.
BLAS is pinned to one thread, as in ``perfbench/run.py``.

Built-in entries, each one ``run_scenario`` call seeded by the seed:

* ``a06-cell``: the A06 acceptance cell (scenario 1, 5% contamination, RCT,
  n=300) with CV over A06's grid, 3 replications of ``wmcmr4``, ``mcm`` and
  ``full``;
* ``obs-nocv``: an observational scenario-4 cell (n=300, p=q=10) without
  CV, 4 replications of every method at lambda_w = phi_c = 5.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from importlib import import_module  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

# (module, attribute) of every call whose result goes into its op's digest
CAPTURED = (
    ("multicate.model_selection", "cross_validate"),
    ("multicate.metrics", "evaluate"),
)
# the lockstep stacks, whose yielded models go into the digest as a multiset, each
# with the baselines.* fits whose results join it on a checkout without that stack
STACKS = (("multicate.solver", "_fit_groups", ()),
          ("multicate.baselines", "_fit_stack", ("fit_wmcm", "fit_wfull")),
          ("multicate.baselines", "_fit_l1_stack", ("fit_wmcm_l1",)))


class Op(NamedTuple):
    label: str
    fn: Callable


class Scenario:
    """A built-in entry: one op, ``run(mc, seed)`` with ``multicate`` as mc."""

    def __init__(self, name, run):
        self.name, self.run = name, run

    def make_inputs(self, seed: int, k: int, workdir: str) -> dict:
        return {"seed": seed}

    def ops(self, inputs: dict) -> list:
        mc = import_module("multicate")
        return [Op("run", lambda: self.run(mc, inputs["seed"]))]


def _a06_cell(mc, seed):
    spec = mc.ScenarioSpec(scenario=1, p=10, q=10, g=0.0, tau_pct=5.0, z=0.0, design="rct",
                           n=300, replications=3, seed=seed)
    grid = mc.CvGrid(lambdas=(1.0, 5.0, 20.0, 80.0), phis=(0.5, 5.0, 20.0, 80.0),
                     ranks=(1, 2), folds=5, seed=20260817)
    return mc.run_scenario(spec, ["wmcmr4", "mcm", "full"], cv=True, grid=grid)


def _obs_nocv(mc, seed):
    spec = mc.ScenarioSpec(scenario=4, p=10, q=10, g=1.0 / 3.0, tau_pct=5.0, z=1.0 / 3.0,
                           design="observational", n=300, replications=4, seed=seed)
    return mc.run_scenario(spec, ["wmcmr4", "wmcmrrr", "wmcml1", "wmcm", "wfull"],
                           cfg=mc.FitConfig(rank=1, lambda_w=5.0, phi_c=5.0))


BUILT_IN = {s.name: s for s in (Scenario("a06-cell", _a06_cell), Scenario("obs-nocv", _obs_nocv))}


def feed(h, x, masks) -> None:
    """Add x to the hash h, tagged by type; strings with masks applied."""
    if isinstance(x, (np.ndarray, np.generic)):
        a = np.asarray(x)
        if a.dtype == object:
            return feed(h, a.tolist(), masks)
        h.update(f"a{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    elif x is None or isinstance(x, (bool, int)):
        h.update(f"{x!r};".encode())
    elif isinstance(x, float):
        h.update(b"f" + struct.pack("<d", x))
    elif isinstance(x, str):
        for path, tag in masks:
            x = x.replace(path, tag)
        b = x.encode()
        h.update(b"s%d:" % len(b) + b)
    elif isinstance(x, dict):
        h.update(b"d%d" % len(x))
        for k in sorted(x, key=repr):
            feed(h, k, masks)
            feed(h, x[k], masks)
    elif isinstance(x, (list, tuple)):
        h.update(b"l%d" % len(x))
        for v in x:
            feed(h, v, masks)
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            feed(h, f.name, masks)
            feed(h, getattr(x, f.name), masks)
    else:
        raise TypeError(f"cannot digest a {type(x).__name__}")


def _bindings(modules, orig):
    # (module, key) of every binding of orig in modules, by identity
    return [(mod, key) for mod in modules for key, value in list(vars(mod).items())
            if value is orig]


def interpose(record, models) -> list:
    """Wrap each CAPTURED entry point, by identity, in every loaded multicate
    module that binds it, appending (name, result) of each call to record;
    wrap each of the STACKS so that each model it yields is appended to
    models, or, on a checkout without it, each fit it stacks so that its
    result is; returns the (module, key, original) bindings to restore."""
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "multicate" or k.startswith("multicate."))]
    undo = []

    def wrap(orig, wrapper):
        for mod, key in _bindings(modules, orig):
            setattr(mod, key, wrapper)
            undo.append((mod, key, orig))

    for modname, attr in CAPTURED:
        orig = getattr(import_module(modname), attr)

        def wrapper(*args, _fn=orig, _name=f"{modname}.{attr}", **kwargs):
            out = _fn(*args, **kwargs)
            record.append((_name, out))
            return out

        wrap(orig, wrapper)

    def yielded(fits):
        for fit in fits:
            models.append(fit[-1])
            yield fit

    for modname, attr, unstacked in STACKS:
        module = import_module(modname)
        stack = getattr(module, attr, None)
        if stack is not None:
            # the call checks its arguments as the stack does, when called
            wrap(stack, lambda *args, _fn=stack, **kwargs: yielded(_fn(*args, **kwargs)))
        for fit in unstacked if stack is None else ():
            orig = getattr(module, fit)

            def single(*args, _fn=orig, **kwargs):
                out = _fn(*args, **kwargs)
                models.append(out)
                return out

            wrap(orig, single)
    return undo


def digests(workload, seed: int, root: str) -> list:
    """(label, SHA-256) of each op of the workload's pass 0, then of each file."""
    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        inputs = workload.make_inputs(seed, 0, workdir)
        masks = [(workdir, "<workdir>"), (root, "<root>")]
        for op in workload.ops(inputs):
            record, models = [], []
            undo = interpose(record, models)
            try:
                out = op.fn()
            except Exception as e:  # a failing op is digested by its error
                out = f"error {type(e).__name__}: {e}"
            finally:
                for mod, key, orig in reversed(undo):
                    setattr(mod, key, orig)
            fits = []
            for model in models:
                hm = hashlib.sha256()
                feed(hm, model, masks)
                fits.append(hm.hexdigest())
            h = hashlib.sha256()
            feed(h, [out, record, sorted(fits)], masks)
            lines.append((f"{seed}/{workload.name}/{op.label}", h.hexdigest()))
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name), "rb") as fh:
                data = fh.read()
            for path, tag in masks:
                data = data.replace(path.encode(), tag.encode())
            lines.append((f"{seed}/{workload.name}/file:{name}", hashlib.sha256(data).hexdigest()))
    return lines


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = ("sim-cv-rct", "fit-obs50", "cli-trial", *BUILT_IN)
    parser.add_argument("--workload", nargs="+", choices=workloads, default=list(workloads))
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--root", default=here,
                        help="source checkout to import src/ and perfbench/ from")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    for name in args.workload:
        workload = BUILT_IN.get(name) or import_module("workloads").WORKLOADS[name]
        for seed in args.seeds:
            for label, digest in digests(workload, seed, root):
                print(f"{label}  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

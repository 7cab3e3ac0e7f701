#!/usr/bin/env python3
"""Benchmark of multicate: one workload per process, end-to-end or traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sim-cv-rct --seed 0 --seconds 35 --trace 0

The run imports ``multicate`` from ``src/`` of the checkout, builds the inputs
of each pass from ``--seed``, repeats passes for ``--seconds`` seconds (a pass
is never started that would end past the budget, but one always runs), checks
the outputs and prints, last, one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured without spans. Pass
and op times are scaled to the machine's reference speed by the sampler in
``speed.py``, because the shared machine's own speed moves raw times by
20-35% between runs; the raw median pass time is in the ``env`` line.
``setup_s``, the import of multicate in a fresh interpreter plus the build of
the first pass's inputs, is scaled the same way.

``--trace 1`` alternates an untraced and a traced pass on the same inputs; the
per-layer metrics come from the spans of the first traced pass plus a probe of
the three block updates, and ``trace.overhead_frac`` is the median ratio of
traced to untraced scaled pass wall time, minus one. Span times are raw and
include the sampler's interruptions (about 4% of the time). Spans are written
to ``.perfbench_runs/`` in the checkout.

Each workload runs single-process; BLAS is pinned to one thread before NumPy
loads. At the default seed the first pass is also compared with
``reference.json`` (recorded by ``record_reference.py``); at every seed the
invariants in ``workloads.py`` are checked. ``error_frac`` and
``mismatch_frac`` are printed with the other end-to-end metrics and folded
into ``failed`` and ``correct`` of the result line.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
DEFAULT_SEED = 0
SETUP_SAMPLES = 3           # set-up repeats; the median is reported
PROBE_SECONDS = 0.15        # time budget per block probe measurement

# Run in a fresh interpreter: time the NumPy import, then import multicate under
# the speed sampler (see speed.import_seconds).
IMPORT_CODE = (
    "import sys, time; t = time.perf_counter(); import numpy; numpy_s = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); import speed; "
    "print(speed.import_seconds(sys.argv[1], numpy_s))"
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_s_p50": "s", "fits_per_s": "1/s",
    "peak_rss_mb": "MB",
}
REPORTED_ONLY_UNITS = {"error_frac": "ratio", "mismatch_frac": "ratio"}


def _die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program() -> None:
    """Import multicate from the checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "multicate", "__init__.py")):
        raise ImportError(f"no multicate package under {SRC}")
    sys.path.insert(0, SRC)
    import multicate
    if not os.path.abspath(multicate.__file__).startswith(SRC + os.sep):
        raise ImportError(f"multicate was imported from {multicate.__file__}, not {SRC}")


def _import_seconds_in_child() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC, HERE], capture_output=True,
                         text=True, check=True, timeout=120, env=os.environ.copy())
    return float(out.stdout.strip().splitlines()[-1])


# =============================================================================
# environment record
# =============================================================================


def _openblas():
    import ctypes
    import glob

    import numpy as np

    info = {"version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    info["threads"] = f"env OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> dict:
    """Git commit when available, and always a hash of the src/ tree."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def environment() -> dict:
    import numpy as np
    import scipy

    with open(os.path.join(HERE, "spread.json"), encoding="utf-8") as fh:
        spread = json.load(fh)
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        **_commit(),
        "note": "shared 2-core machine: each workload runs in one process with one BLAS "
                "thread; no wall-clock scaling across processes is claimed",
        "probe_note": "block probe timings include the public wrappers' design assembly",
        "measured_spread": spread,
    }


# =============================================================================
# passes
# =============================================================================


class PassResult:
    """Wall and CPU seconds of one pass, summed over its steps, and per-op times.

    With a speed sampler the times are scaled to the reference speed (see
    speed.py); ``raw_wall`` is always as measured.
    """

    def __init__(self):
        self.wall = self.cpu = self.raw_wall = 0.0
        self.op_times = []      # wall seconds of counted ops
        self.attempted = 0
        self.failed = 0
        self.fits = 0
        self.outputs = []
        self.errors = []


def run_pass(workload, inputs, interposer, op_counter, sampler=None) -> PassResult:
    """Run one pass of the workload's ops; op ids continue from op_counter."""
    res = PassResult()
    for op in workload.ops(inputs):
        interposer.op = next(op_counter)
        start = sampler.mark() if sampler else None
        t0, c0 = perf_counter(), process_time()
        try:
            out = op.fn()
            bad = op.failed is not None and op.failed(out)
        except Exception:  # an op's failure is counted, and the run goes on
            out, bad = None, True
            res.errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
        wall, cpu = perf_counter() - t0, process_time() - c0
        res.raw_wall += wall
        if sampler:
            wall, cpu = sampler.scaled(start, sampler.mark())
        res.outputs.append(out)
        res.wall += wall
        res.cpu += cpu
        if op.counted:
            res.op_times.append(wall)
            res.attempted += 1
            res.failed += int(bad)
            res.fits += op.fits
    return res


def check_pass(workload, inputs, res, infos, checks, reference, label) -> None:
    if res.errors:
        checks.expect(f"{label}: every op ran", False)
        return
    workload.check(inputs, res.outputs, infos, checks)
    if reference is not None:
        checks.against(workload.summary(inputs, res.outputs, infos), reference, f"{label} ref ")


def _probe(workload, inputs, outputs) -> dict:
    """Median time of each public block update at two iterates of the workload's
    representative fit: converged, and (``.init``) after one outer iteration,
    the earliest iterate the public API exposes. The timings include the
    public wrappers' design assembly, which ``fit`` does once per call."""
    from dataclasses import replace

    from multicate import fit, update_loading_rows, update_orthogonal_factor, update_outlier_rows

    d, a, cfg, converged = workload.probe_problem(inputs, outputs)
    if converged is None:
        converged = fit(d, a, cfg)
    first = fit(d, a, replace(cfg, max_outer=1))

    def median_ms(fn):
        times, t_end = [], perf_counter() + PROBE_SECONDS
        while len(times) < 5 or (perf_counter() < t_end and len(times) < 500):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return 1e3 * statistics.median(times)

    m = {}
    for suffix, it in (("", converged), (".init", first)):
        m[f"solver.w_sweep_ms{suffix}"] = median_ms(
            lambda: update_loading_rows(it.W, d, a, it.C, it.V, cfg.lambda_w, max_inner=1))
        m[f"solver.c_block_ms{suffix}"] = median_ms(
            lambda: update_outlier_rows(it.C, d, a, it.W, it.V, cfg.phi_c))
        m[f"solver.v_block_ms{suffix}"] = median_ms(
            lambda: update_orthogonal_factor(it.W, d, a, it.C, it.V))
    return m


def _load_reference(workload_name, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload_name]


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str):
    """Run passes for the time budget; returns (metrics, attempted, failed, checks, notes)."""
    from speed import SpeedSampler
    from tracer import Interposer, dump_spans, layer_metrics
    from workloads import Checks

    checks = Checks()
    reference = _load_reference(workload.name, seed)
    ops = itertools.count()
    plain, traced, spans = [], [], []
    layer = None
    t_start = perf_counter()
    k = 0
    while True:
        passdir = os.path.join(workdir, f"pass{k}")
        os.makedirs(passdir, exist_ok=True)
        inputs = workload.make_inputs(seed, k, passdir)
        with SpeedSampler() as sampler, Interposer(workload.capture, record=False) as tap:
            res = run_pass(workload, inputs, tap, ops, sampler)
        check_pass(workload, inputs, res, tap.infos, checks,
                   reference if k == 0 else None, f"pass {k}")
        plain.append(res)
        if trace:
            with SpeedSampler() as sampler, Interposer() as tr:
                res_t = run_pass(workload, inputs, tr, ops, sampler)
            check_pass(workload, inputs, res_t, tr.infos, checks,
                       reference if k == 0 else None, f"traced pass {k}")
            traced.append(res_t)
            spans.extend(tr.spans)
            if k == 0:
                layer = layer_metrics(tr.spans)
                layer.update(_probe(workload, inputs, res_t.outputs))
        k += 1
        per_pass = statistics.median(
            [p.raw_wall for p in plain] + ([t.raw_wall for t in traced] if trace else []))
        if perf_counter() - t_start + per_pass * (2 if trace else 1) > seconds:
            break

    runs = plain + traced
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for err in r.errors:
            print(f"perfbench: op failed: {err}", file=sys.stderr)
    notes = {"passes": len(plain), "ops": sum(len(p.op_times) for p in plain),
             "fits_per_pass": plain[0].fits,
             "raw_wall_s": statistics.median(p.raw_wall for p in plain)}
    if trace:
        ratios = [t.wall / p.wall for p, t in zip(plain, traced)]
        layer["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        fit_s = layer["solver.fit.s"]
        # estimate: probed sweep cost times the sweeps counted in the pass
        layer["solver.w_block_share"] = (
            layer["solver.w_sweep_ms"] * layer["solver.fit.w_sweeps"] / (1e3 * fit_s)
            if fit_s else 0.0)
        os.makedirs(RUNS_DIR, exist_ok=True)
        dump_spans(spans, os.path.join(RUNS_DIR, f"{workload.name}-seed{seed}-spans.jsonl"))
        return layer, attempted, failed, checks, notes
    wall = statistics.median(p.wall for p in plain)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(p.cpu for p in plain),
        "op_s_p50": statistics.median(t for p in plain for t in p.op_times),
        "fits_per_s": plain[0].fits / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, attempted, failed, checks, notes


def setup_seconds(workload, seed: int, workdir: str) -> float:
    """Median import time in fresh interpreters plus median input build, both
    scaled to the reference speed."""
    from speed import SpeedSampler

    imports = [_import_seconds_in_child() for _ in range(SETUP_SAMPLES)]
    builds = []
    with SpeedSampler() as sampler:
        for i in range(SETUP_SAMPLES):
            d = os.path.join(workdir, f"setup{i}")
            os.makedirs(d, exist_ok=True)
            start = sampler.mark()
            workload.make_inputs(seed, 0, d)
            builds.append(sampler.scaled(start, sampler.mark())[0])
    return statistics.median(imports) + statistics.median(builds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as e:
        return _die(str(e))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _die(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(RUNS_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        env = environment()
        setup_s = setup_seconds(workload, args.seed, workdir)
        metrics, attempted, failed, checks, notes = measure(
            workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_frac = failed / attempted if attempted else 1.0
    mismatch_frac = len(checks.failures) / checks.checked if checks.checked else 1.0
    env.update(notes, workload=workload.name, seed=args.seed, trace=args.trace,
               checks=checks.checked, check_failures=checks.failures[:20])
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
        shown = {**metrics, "error_frac": error_frac, "mismatch_frac": mismatch_frac}
        for name, unit in {**END_TO_END_UNITS, **REPORTED_ONLY_UNITS}.items():
            extra = f"  (median of {notes['ops']} ops)" if name == "op_s_p50" else ""
            print(f"{name:<14} {shown[name]:.6g} {unit}{extra}")
    for label in checks.failures[:20]:
        print(f"perfbench: check failed: {label}", file=sys.stderr)
    result = {
        "correct": not checks.failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "solver.w_block_share":
        return "est_ratio"
    if name in ("weights.ess", "weights.ess_base_n"):
        return "subjects"
    if name == "model_io.bytes_written":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

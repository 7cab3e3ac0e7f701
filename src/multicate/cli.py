"""Command-line interface: fit, cv, simulate, report.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Errors are written as one machine-parsable line on stderr:
``error: <category>: <reason>``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from .data import (TREATMENT_CODINGS, DataError, Dataset, FitConfig, NumericalError,
                   _check_settings)
from .model_io import (
    ModelArtifact,
    export_path_diagram,
    load_csv_dataset,
    read_json_object,
    read_replication_csv,
    save_model,
    summarize_replications,
    write_csv,
    write_replication_csv,
    write_summary_csv,
)
from .model_selection import (GRID_FOLDS, METHOD_ALIASES, METHODS, CvGrid, cross_validate,
                              default_cv_grid)
from .simulation import ScenarioSpec, run_scenario
from .solver import fit
from .weights import resolve_weights


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _setting(name, cast):
    """The argparse type of the setting name: the text cast, then held to the
    settings rule (data._check_settings), so a value it breaks is a usage
    error; text that does not cast is one too (argparse's invalid value)."""
    def parse(s):
        v = cast(s)
        try:
            _check_settings(**{name: v})
        except DataError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        return v
    parse.__name__ = name  # argparse says "invalid <name> value"
    return parse


def _list(name, cast):
    """The argparse type of a comma-separated list of cast values, each held
    to the settings rule as ``_setting(name, cast)`` holds one."""
    one = _setting(name, cast)

    def parse(s):
        return tuple(one(v) for v in s.split(","))
    parse.__name__ = f"comma-separated {cast.__name__} list"
    return parse


def _add_data_args(p):
    p.add_argument("--covariates", required=True, help="covariates CSV (includes treatment column)")
    p.add_argument("--outcomes", required=True, help="outcomes CSV")
    p.add_argument("--treatment-column", required=True)
    p.add_argument("--coding", choices=tuple(TREATMENT_CODINGS), default="pm1")
    p.add_argument("--no-intercept", action="store_true",
                   help="do not prepend an intercept column")
    p.add_argument("--standardize", action="store_true",
                   help="z-score covariate columns before fitting")
    p.add_argument("--propensity", choices=("rct", "known", "logistic"), default="rct")
    p.add_argument("--propensity-column", default=None,
                   help="covariates-file column with known propensities")


def _add_solver_args(p):
    for name, cast in (("outer_tol", float), ("inner_tol", float), ("max_outer", int),
                       ("max_inner", int)):
        p.add_argument("--" + name.replace("_", "-"), type=_setting(name, cast),
                       default=getattr(FitConfig, name))


def _add_grid_args(p):
    p.add_argument("--lambdas", type=_list("lambda_w", float), default=None)
    p.add_argument("--phis", type=_list("phi_c", float), default=None)
    p.add_argument("--ranks", type=_list("rank", int), default=None)
    p.add_argument("--folds", type=_setting("folds", int), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multicate",
                     description="Robust reduced-rank treatment-effect estimation "
                                 "for multiple outcomes")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit one model and save it")
    _add_data_args(p_fit)
    p_fit.add_argument("--rank", type=_setting("rank", int), required=True)
    p_fit.add_argument("--lambda", dest="lambda_w", type=_setting("lambda_w", float), default=0.0)
    p_fit.add_argument("--phi", dest="phi_c", type=_setting("phi_c", float), default=0.0)
    _add_solver_args(p_fit)
    p_fit.add_argument("--model-out", required=True)
    p_fit.add_argument("--diagram-out", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_cv = sub.add_parser("cv", help="cross-validate penalties and rank, then refit")
    _add_data_args(p_cv)
    p_cv.add_argument("--method", choices=METHODS, default="wmcmr4")
    _add_grid_args(p_cv)
    p_cv.add_argument("--seed", type=_setting("seed", int), default=0,
                      help="seed of the fold assignment")
    _add_solver_args(p_cv)
    p_cv.add_argument("--cv-out", default=None, help="per-fold loss CSV")
    p_cv.add_argument("--model-out", default=None, help="refit best model and save here")
    p_cv.set_defaults(func=_cmd_cv, cv=True, folds=GRID_FOLDS)

    p_sim = sub.add_parser("simulate", help="run simulation replications")
    p_sim.add_argument("config", help="scenario config JSON")
    p_sim.add_argument("--methods", default="wmcmr4",
                       help="comma-separated method names")
    p_sim.add_argument("--replications", type=_setting("replications", int), default=None)
    p_sim.add_argument("--seed", type=_setting("seed", int), default=None)
    p_sim.add_argument("--cv", action="store_true",
                       help="select hyperparameters by CV inside each replication")
    _add_grid_args(p_sim)
    p_sim.add_argument("--out", required=True, help="replication CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_rep = sub.add_parser("report", help="summarize a replication CSV")
    p_rep.add_argument("input", help="replication CSV from simulate")
    p_rep.add_argument("--out", required=True, help="summary CSV path")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def _load_dataset(args):
    if args.propensity == "known" and args.propensity_column is None:
        raise UsageError("--propensity known requires --propensity-column")
    d, cov_names, out_names = load_csv_dataset(
        args.covariates, args.outcomes, args.treatment_column,
        coding=args.coding, add_intercept=not args.no_intercept,
        propensity_column=args.propensity_column,
    )
    meta = {"covariates": cov_names, "outcomes": out_names,
            "propensity": args.propensity, "standardize": False}
    if args.standardize:
        d, center, scale = _standardize(d, has_intercept=not args.no_intercept)
        meta["standardize"] = {"center": center, "scale": scale}
    return d, cov_names, out_names, meta


def _standardize(d: Dataset, has_intercept: bool):
    X = np.array(d.X)
    start = 1 if has_intercept else 0
    center = X[:, start:].mean(axis=0)
    scale = X[:, start:].std(axis=0)
    scale[scale == 0.0] = 1.0
    X[:, start:] = (X[:, start:] - center) / scale
    d2 = Dataset(X=X, Y=d.Y, T=d.T, propensity=d.propensity)
    return d2, [float(v) for v in center], [float(v) for v in scale]


def _config_from_args(args, rank=1, lambda_w=0.0, phi_c=0.0):
    return FitConfig(rank=rank, lambda_w=lambda_w, phi_c=phi_c,
                     outer_tol=args.outer_tol, inner_tol=args.inner_tol,
                     max_outer=args.max_outer, max_inner=args.max_inner)


def _grid_from_args(args, seed):
    # the CV grid given by --lambdas/--phis/--ranks, or None when none is given
    axes = (args.lambdas, args.phis, args.ranks)
    if all(v is None for v in axes):
        if args.command == "simulate" and args.folds is not None:
            # simulate's default grids take GRID_FOLDS folds at fold seed 0
            raise UsageError("--folds needs --lambdas, --phis, and --ranks")
        return None
    if any(v is None for v in axes):
        raise UsageError("--lambdas, --phis, and --ranks must be given together")
    if not args.cv:  # simulate without --cv fits no grid
        raise UsageError("--lambdas, --phis, and --ranks need --cv")
    return CvGrid(lambdas=args.lambdas, phis=args.phis, ranks=args.ranks,
                  folds=GRID_FOLDS if args.folds is None else args.folds, seed=seed)


def _warn_capped(n: int, max_inner: int) -> None:
    if n:
        print(f"warning: {n} W blocks stopped at max_inner={max_inner} before inner_tol "
              "was met", file=sys.stderr)


def _cmd_fit(args) -> int:
    d, cov_names, out_names, meta = _load_dataset(args)
    cfg = _config_from_args(args, rank=args.rank, lambda_w=args.lambda_w, phi_c=args.phi_c)
    a = resolve_weights(d, args.propensity)
    model = fit(d, a, cfg)
    art = ModelArtifact(model=model, config=cfg, weight_source=a.source, metadata=meta)
    save_model(art, args.model_out)
    if args.diagram_out:
        export_path_diagram(model, cov_names, out_names, path=args.diagram_out)
    tr = model.trace
    print(f"fit: rank={model.rank} objective={tr.objective[-1]:.6g} "
          f"outer_iterations={tr.n_outer} converged={tr.converged} "
          f"w_capped={tr.w_capped} model={args.model_out}")
    _warn_capped(tr.w_capped, cfg.max_inner)
    return 0


def _cmd_cv(args) -> int:
    if args.model_out and args.method != "wmcmr4":
        raise UsageError("--model-out is only available for method wmcmr4 "
                         "(baselines have no factor-model artifact)")
    d, cov_names, out_names, meta = _load_dataset(args)
    a = resolve_weights(d, args.propensity)
    grid = _grid_from_args(args, args.seed)
    if grid is None:
        grid = default_cv_grid(d, a, folds=args.folds, seed=args.seed)
    cfg = _config_from_args(args)
    result = cross_validate(d, grid, method=args.method,
                            propensity=args.propensity, cfg=cfg)
    lam, phi, rank = result.best
    if args.cv_out:
        write_csv(args.cv_out, ("lambda", "phi", "rank", "fold", "loss"),
                  ((repr(lv), repr(pv), rv, f, repr(float(result.per_fold_loss[i, j, k, f])))
                   for i, lv in enumerate(grid.lambdas) for j, pv in enumerate(grid.phis)
                   for k, rv in enumerate(grid.ranks) for f in range(grid.folds)))
    if args.model_out:
        gamma_cfg = replace(cfg, rank=rank, lambda_w=lam, phi_c=phi)
        model = fit(d, a, gamma_cfg)
        art = ModelArtifact(model=model, config=gamma_cfg, weight_source=a.source,
                            metadata={**meta, "cv_best": [lam, phi, rank],
                                      "cv_method": args.method})
        save_model(art, args.model_out)
    best_idx, capped = result.best_index, int(result.w_capped.sum())
    print(f"cv: method={args.method} best_lambda={lam:.6g} best_phi={phi:.6g} "
          f"best_rank={rank} mean_loss={result.mean_loss[best_idx]:.6g} w_capped={capped}")
    _warn_capped(capped, cfg.max_inner)
    return 0


def _scenario_from_config(path) -> ScenarioSpec:
    doc = read_json_object(path, "scenario config must be a JSON object")
    known = {f.name for f in fields(ScenarioSpec)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise DataError(f"{path}: unknown scenario keys {', '.join(unknown)}")
    if "scenario" not in doc:
        raise DataError(f"{path}: scenario config must set 'scenario'")
    return ScenarioSpec(**doc)


def _cmd_simulate(args) -> int:
    spec = _scenario_from_config(args.config)
    if args.replications is not None:
        spec = replace(spec, replications=args.replications)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must name at least one method")
    for m in methods:
        if m.lower() not in METHOD_ALIASES:
            raise UsageError(f"unknown method {m!r}")
    rows = run_scenario(spec, methods, cv=args.cv, grid=_grid_from_args(args, spec.seed))
    write_replication_csv(rows, args.out)
    print(f"simulate: {spec.scenario_id} replications={spec.replications} "
          f"rows={len(rows)} out={args.out}")
    return 0


def _cmd_report(args) -> int:
    rows = read_replication_csv(args.input)
    summary = summarize_replications(rows)
    write_summary_csv(summary, args.out)
    print(f"report: {len(rows)} rows summarized into {len(summary)} groups at {args.out}")
    return 0


def run_cli(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"error: data: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"error: numerical: {e}", file=sys.stderr)
        return 3
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

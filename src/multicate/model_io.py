"""File formats: CSV datasets, the model artifact document, path diagrams,
and the replication/summary tables.

The model artifact is canonical JSON (sorted keys, two-space indent, one
trailing newline). Python's repr-based float serialization round-trips
exactly, so save -> load -> save is byte-identical. The offset matrix C is
stored as its nonzero rows only.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import DataError, Dataset, FactorModel, FitConfig, _coding_labels, validate_dataset
from .metrics import METRIC_ORDER

SCHEMA_VERSION = 1
REPLICATION_HEADER = ("scenario_id", "replication", "method", "metric", "value")
SUMMARY_HEADER = ("scenario_id", "method", "metric", "median", "iqr", "n")


# =============================================================================
# dataset CSVs
# =============================================================================


def _read_csv_table(path):
    try:
        # utf-8-sig: a leading byte-order mark is not part of the first column's name
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    if not rows:
        raise DataError(f"{path}: file is empty")
    header = rows[0]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no data rows")
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(
                f"{path} line {i + 2}: expected {len(header)} cells, found {len(row)}"
            )
    return header, body


def _numeric_column(path, header, body, name):
    j = header.index(name)
    out = np.empty(len(body))
    for i, row in enumerate(body):
        try:
            out[i] = float(row[j])
        except ValueError:
            raise DataError(
                f"{path} line {i + 2}, column {name!r}: non-numeric cell {row[j]!r}"
            ) from None
    return out


def load_csv_dataset(covariates_path, outcomes_path, treatment_column,
                     *, coding: str = "pm1", add_intercept: bool = True,
                     propensity_column: str | None = None):
    """Read a covariates CSV and an outcomes CSV into a validated Dataset.

    The covariates file holds the treatment column (named by
    ``treatment_column``), optionally a known-propensity column, and the
    covariates themselves in file order. Both files need headers; every data
    cell must parse as a number, and errors name the file, line, and column.

    Returns (dataset, covariate_names, outcome_names).
    """
    cov_header, cov_body = _read_csv_table(covariates_path)
    out_header, out_body = _read_csv_table(outcomes_path)
    if len(cov_body) != len(out_body):
        raise DataError(
            f"row counts differ: {covariates_path} has {len(cov_body)} data rows, "
            f"{outcomes_path} has {len(out_body)}"
        )
    if treatment_column not in cov_header:
        raise DataError(f"{covariates_path}: no column named {treatment_column!r}")
    drop = {treatment_column}
    if propensity_column is not None:
        if propensity_column not in cov_header:
            raise DataError(f"{covariates_path}: no column named {propensity_column!r}")
        drop.add(propensity_column)

    T_raw = _numeric_column(covariates_path, cov_header, cov_body, treatment_column)
    allowed = _coding_labels(coding)
    for i, v in enumerate(T_raw):
        if v not in allowed:
            raise DataError(
                f"{covariates_path} line {i + 2}, column {treatment_column!r}: "
                f"value {v:g} is not valid under coding {coding!r}"
            )

    cov_names = [c for c in cov_header if c not in drop]
    if not cov_names:
        raise DataError(f"{covariates_path}: no covariate columns left")
    if add_intercept and "intercept" in cov_names:
        raise DataError(f"{covariates_path}: column 'intercept' clashes with the added "
                        "intercept; rename it or load without an added intercept")
    X = np.column_stack(
        [_numeric_column(covariates_path, cov_header, cov_body, c) for c in cov_names]
    )
    Y = np.column_stack(
        [_numeric_column(outcomes_path, out_header, out_body, c) for c in out_header]
    )
    pi = None
    if propensity_column is not None:
        pi = _numeric_column(covariates_path, cov_header, cov_body, propensity_column)

    d = validate_dataset(X, Y, T_raw, propensity=pi,
                         add_intercept=add_intercept, treatment_coding=coding)
    names = (["intercept"] + cov_names) if add_intercept else cov_names
    return d, names, list(out_header)


# =============================================================================
# model artifact
# =============================================================================


@dataclass(frozen=True)
class ModelArtifact:
    """A fitted model plus the run context stored alongside it."""

    model: FactorModel
    config: FitConfig | None = None
    weight_source: str | None = None
    objective_trace: list | None = None
    metadata: dict | None = None


def _matrix(arr):
    return [[float(v) for v in row] for row in np.asarray(arr, dtype=float)]


def _document(art: ModelArtifact) -> dict:
    m = art.model
    C = np.asarray(m.C, dtype=float)
    nonzero = [[int(i), [float(v) for v in C[i]]]
               for i in range(C.shape[0]) if np.any(C[i])]
    trace = art.objective_trace
    if trace is None and m.trace is not None:
        trace = [float(v) for v in np.asarray(m.trace.objective)]
    return {
        "schema_version": SCHEMA_VERSION,
        "rank": int(m.rank),
        "W": _matrix(m.W),
        "V": _matrix(m.V),
        "C": {"n_rows": int(C.shape[0]), "nonzero_rows": nonzero},
        "gamma": _matrix(m.gamma),
        "config": None if art.config is None else asdict(art.config),
        "weight_source": art.weight_source,
        "objective_trace": trace,
        "metadata": art.metadata or {},
    }


def save_model(artifact, path) -> None:
    """Write a model (or ModelArtifact) as a canonical JSON document."""
    if isinstance(artifact, FactorModel):
        artifact = ModelArtifact(model=artifact)
    text = json.dumps(_document(artifact), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json_object(path, not_object_message: str) -> dict:
    """The JSON object in the file at path; a DataError naming the path if the
    file cannot be read, is not JSON, or holds another value (not_object_message)."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise DataError(f"{path}: {not_object_message}")
    return doc


def load_model(path) -> ModelArtifact:
    """Read a model artifact back; checks schema and internal consistency."""
    doc = read_json_object(path, "malformed model document (not a JSON object)")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataError(
            f"{path}: unsupported schema version {doc.get('schema_version')!r}"
        )
    try:
        W = np.asarray(doc["W"], dtype=float)
        V = np.asarray(doc["V"], dtype=float)
        cdoc = doc["C"]
        C = np.zeros((int(cdoc["n_rows"]), V.shape[0]))
        for i, vals in cdoc["nonzero_rows"]:
            if not 0 <= int(i) < C.shape[0]:
                raise ValueError(f"offset row {i} outside 0..{C.shape[0] - 1}")
            C[int(i)] = vals
        rank = int(doc["rank"])
        gamma = np.asarray(doc["gamma"], dtype=float)
        cfg = doc.get("config")
        if cfg is not None:
            # files written before FitConfig lost its unused seed field still hold it
            cfg = FitConfig(**{k: v for k, v in cfg.items() if k != "seed"})
        metadata = doc.get("metadata") or {}
        if not isinstance(metadata, dict):
            raise ValueError("metadata is not a JSON object")
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise DataError(f"{path}: malformed model document ({e})") from e
    try:
        model = FactorModel(W=W, V=V, C=C, rank=rank)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
    wv = model.gamma
    # to 1e-12 of the largest |W V^T|, as another BLAS may round W V^T otherwise;
    # a NaN in gamma is a mismatch
    tol = 1e-12 * max(1.0, np.max(np.abs(wv)))
    if gamma.shape != wv.shape or not (np.abs(gamma - wv) <= tol).all():
        raise DataError(f"{path}: stored gamma does not match W V^T")
    return ModelArtifact(model=model, config=cfg,
                         weight_source=doc.get("weight_source"),
                         objective_trace=doc.get("objective_trace"),
                         metadata=metadata)


# =============================================================================
# path diagram
# =============================================================================


@dataclass(frozen=True)
class PathDiagramGraph:
    """Covariate -> factor -> outcome graph of a fitted model.

    Only factors with at least one nonzero loading appear; covariates appear
    when they load on some active factor; all outcomes appear. Edges carry
    the raw weights.
    """

    covariates: list
    factors: list
    outcomes: list
    loading_edges: list   # (covariate, factor, weight)
    outcome_edges: list   # (factor, outcome, weight)


def build_path_diagram(model: FactorModel, covariate_names, outcome_names) -> PathDiagramGraph:
    W, V = model.W, model.V
    if len(covariate_names) != W.shape[0]:
        raise DataError(
            f"{len(covariate_names)} covariate names for {W.shape[0]} loading rows"
        )
    if len(outcome_names) != V.shape[0]:
        raise DataError(
            f"{len(outcome_names)} outcome names for {V.shape[0]} factor rows"
        )
    # a repeated name would draw two rows as one node
    for kind, names in (("covariate", covariate_names), ("outcome", outcome_names)):
        repeated = [n for i, n in enumerate(names) if n in names[:i]]
        if repeated:
            raise DataError(f"duplicate {kind} name {repeated[0]!r}")
    active = [j for j in range(model.rank) if np.any(W[:, j])]
    factors = [f"f{j + 1}" for j in active]
    loading_edges = [
        (covariate_names[k], f"f{j + 1}", float(W[k, j]))
        for k in range(W.shape[0]) for j in active if W[k, j] != 0.0
    ]
    outcome_edges = [
        (f"f{j + 1}", outcome_names[i], float(V[i, j]))
        for j in active for i in range(V.shape[0]) if V[i, j] != 0.0
    ]
    covariates = [covariate_names[k] for k in range(W.shape[0])
                  if any(W[k, j] != 0.0 for j in active)]
    return PathDiagramGraph(covariates=covariates, factors=factors,
                            outcomes=list(outcome_names),
                            loading_edges=loading_edges, outcome_edges=outcome_edges)


def _dot_id(name: str) -> str:
    # name as a quoted DOT ID: a backslash or a double quote in it escaped
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_path_diagram(model: FactorModel, covariate_names, outcome_names,
                        path=None) -> str:
    """Render the model's path diagram as Graphviz DOT text.

    Edge labels are the weights to three decimals; negative-weight edges are
    dashed. Node and edge order follows the input order, so output is
    deterministic. Writes to ``path`` when given and returns the text.
    """
    g = build_path_diagram(model, covariate_names, outcome_names)
    xs = [_dot_id(f"x:{n}") for n in g.covariates]
    fs = [_dot_id(f) for f in g.factors]
    ys = [_dot_id(f"y:{n}") for n in g.outcomes]
    lines = ["digraph effect_paths {", "  rankdir=LR;"]
    lines += [f"  {x} [shape=box];" for x in xs]
    lines += [f"  {f} [shape=ellipse];" for f in fs]
    lines += [f"  {y} [shape=box];" for y in ys]
    for ids in (xs, fs):
        if ids:
            lines.append("  { rank=same; " + " ".join(f"{i};" for i in ids) + " }")
    lines.append("  { rank=same; " + " ".join(f"{y};" for y in ys) + " }")
    edges = ([(f"x:{src}", dst, w) for src, dst, w in g.loading_edges]
             + [(src, f"y:{dst}", w) for src, dst, w in g.outcome_edges])
    for src, dst, w in edges:
        style = ", style=dashed" if w < 0 else ""
        lines.append(f'  {_dot_id(src)} -> {_dot_id(dst)} [label="{w:.3f}"{style}];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# =============================================================================
# replication and summary tables
# =============================================================================


def write_csv(path, header, rows) -> None:
    """Write the header row, then each row of rows (any iterable)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_replication_csv(rows, path) -> None:
    """Write simulation rows with the fixed 5-column header."""
    write_csv(path, REPLICATION_HEADER,
              ([r["scenario_id"], r["replication"], r["method"], r["metric"],
                repr(float(r["value"]))] for r in rows))


def read_replication_csv(path) -> list:
    header, body = _read_csv_table(path)
    if tuple(header) != REPLICATION_HEADER:
        raise DataError(
            f"{path}: expected header {','.join(REPLICATION_HEADER)}, got {','.join(header)}"
        )
    rows = []
    for i, row in enumerate(body):
        try:
            rows.append({"scenario_id": row[0], "replication": int(row[1]),
                         "method": row[2], "metric": row[3], "value": float(row[4])})
        except ValueError as e:
            raise DataError(f"{path} line {i + 2}: {e}") from None
    return rows


# summary order within a method: the metrics, then "error", then other names
_METRIC_RANK = {m: i for i, m in enumerate(METRIC_ORDER + ("error",))}


def summarize_replications(rows) -> list:
    """Median and IQR per (scenario_id, method, metric); NaNs are dropped
    from the statistics, n counts the values that entered them."""
    groups = {}
    for r in rows:
        groups.setdefault((r["scenario_id"], r["method"], r["metric"]), []).append(r["value"])
    out = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], _METRIC_RANK.get(k[2], 99), k[2])):
        vals = np.asarray(groups[key], dtype=float)
        vals = vals[np.isfinite(vals)]
        if vals.size:
            med = float(np.median(vals))
            iqr = float(np.percentile(vals, 75) - np.percentile(vals, 25))
        else:
            med, iqr = float("nan"), float("nan")
        out.append({"scenario_id": key[0], "method": key[1], "metric": key[2],
                    "median": med, "iqr": iqr, "n": int(vals.size)})
    return out


def write_summary_csv(summary_rows, path) -> None:
    write_csv(path, SUMMARY_HEADER,
              ([r["scenario_id"], r["method"], r["metric"], repr(float(r["median"])),
                repr(float(r["iqr"])), r["n"]] for r in summary_rows))

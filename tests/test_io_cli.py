import csv
import json
import math
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from multicate import (
    DataError,
    FactorModel,
    FitConfig,
    METRIC_ORDER,
    MetricsReport,
    ModelArtifact,
    build_path_diagram,
    export_path_diagram,
    load_csv_dataset,
    load_model,
    read_replication_csv,
    save_model,
    summarize_replications,
    write_replication_csv,
    write_summary_csv,
)
from multicate import cli, data, model_selection, validate_dataset
from multicate.cli import build_parser, run_cli
from multicate.model_selection import METHODS

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
COV = os.path.join(DATA_DIR, "trial_covariates.csv")
OUT = os.path.join(DATA_DIR, "trial_outcomes.csv")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


# =============================================================================
# CSV ingestion
# =============================================================================


def test_load_bundled_trial_fixture():
    d, cov_names, out_names = load_csv_dataset(COV, OUT, "arm", coding="zero_one")
    assert d.n == 30
    assert d.q == 2
    assert d.n_features == 15  # intercept + 14 covariates
    assert cov_names[0] == "intercept"
    assert cov_names[1:3] == ["age", "wtkg"]
    assert out_names == ["cd420", "cd820"]
    assert int(np.sum(d.T == 1.0)) == 15
    assert int(np.sum(d.T == -1.0)) == 15


def test_load_two_row_toy(tmp_path):
    cov = _write(tmp_path / "c.csv", "x1,t\n0.5,1\n-0.5,-1\n")
    out = _write(tmp_path / "o.csv", "y1,y2\n1.0,2.0\n3.0,4.0\n")
    d, names, onames = load_csv_dataset(cov, out, "t")
    assert d.n == 2
    assert names == ["intercept", "x1"]
    assert np.array_equal(d.Y, [[1.0, 2.0], [3.0, 4.0]])
    d2, names2, _ = load_csv_dataset(cov, out, "t", add_intercept=False)
    assert names2 == ["x1"]
    assert d2.n_features == 1


def test_load_csv_with_byte_order_mark(tmp_path):
    # a UTF-8 byte-order mark is not part of the first column's name
    cov = _write(tmp_path / "c.csv", "\ufeffarm,x1\n1,0.5\n-1,-0.5\n")
    out = _write(tmp_path / "o.csv", "\ufeffy1\n1.0\n3.0\n")
    d, names, onames = load_csv_dataset(cov, out, "arm")
    assert names == ["intercept", "x1"] and onames == ["y1"]
    assert np.array_equal(d.T, [1.0, -1.0]) and np.array_equal(d.Y, [[1.0], [3.0]])


def test_load_rejects_a_covariate_named_intercept(tmp_path):
    # the added intercept is named "intercept"; a column of that name would repeat it
    cov = _write(tmp_path / "c.csv", "intercept,x1,t\n1.0,0.5,1\n1.0,-0.5,-1\n")
    out = _write(tmp_path / "o.csv", "y\n1.0\n2.0\n")
    with pytest.raises(DataError, match=r"c\.csv: column 'intercept' clashes"):
        load_csv_dataset(cov, out, "t")
    d, names, _ = load_csv_dataset(cov, out, "t", add_intercept=False)
    assert names == ["intercept", "x1"] and d.n_features == 2


def test_load_propensity_column(tmp_path):
    cov = _write(tmp_path / "c.csv", "x1,t,ps\n0.5,1,0.7\n-0.5,-1,0.4\n")
    out = _write(tmp_path / "o.csv", "y\n1.0\n2.0\n")
    d, names, _ = load_csv_dataset(cov, out, "t", propensity_column="ps")
    assert np.array_equal(d.propensity, [0.7, 0.4])
    assert names == ["intercept", "x1"]  # the column is not a covariate


def test_load_errors_name_the_cell(tmp_path):
    out = _write(tmp_path / "o.csv", "y\n1.0\n2.0\n")
    cov = _write(tmp_path / "c.csv", "x1,t\n0.5,1\nbad,-1\n")
    with pytest.raises(DataError, match=r"line 3, column 'x1'"):
        load_csv_dataset(cov, out, "t")
    cov = _write(tmp_path / "c2.csv", "x1,t\n0.5,2\n-0.5,0\n")
    with pytest.raises(DataError, match=r"value 2 is not valid under coding 'zero_one'"):
        load_csv_dataset(cov, out, "t", coding="zero_one")
    cov = _write(tmp_path / "c3.csv", "x1,t\n0.5,1\n")
    with pytest.raises(DataError, match="row counts differ"):
        load_csv_dataset(cov, out, "t")
    cov = _write(tmp_path / "c4.csv", "x1,t\n0.5,1\n-0.5\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv_dataset(cov, out, "t")
    cov = _write(tmp_path / "c5.csv", "x1,x1,t\n0.5,1,1\n1,2,-1\n")
    with pytest.raises(DataError, match="duplicate"):
        load_csv_dataset(cov, out, "t")
    with pytest.raises(DataError, match="no column named 'arm'"):
        load_csv_dataset(_write(tmp_path / "c6.csv", "x1,t\n0.5,1\n1,-1\n"), out, "arm")
    with pytest.raises(DataError):
        load_csv_dataset(str(tmp_path / "missing.csv"), out, "t")
    with pytest.raises(DataError, match="empty"):
        load_csv_dataset(_write(tmp_path / "c7.csv", ""), out, "t")
    with pytest.raises(DataError, match="no data rows"):
        load_csv_dataset(_write(tmp_path / "c8.csv", "x1,t\n"), out, "t")


def test_unknown_treatment_coding_comes_from_the_one_table(tmp_path, monkeypatch):
    cov = _write(tmp_path / "c.csv", "x1,t\n0.5,1\n-0.5,-1\n")
    out = _write(tmp_path / "o.csv", "y\n1.0\n2.0\n")
    X, Y, T = [[1.0, 0.5], [1.0, -0.5]], [[1.0], [2.0]], [1.0, -1.0]
    message = "^unknown treatment coding 'x'$"
    with pytest.raises(DataError, match=message):
        validate_dataset(X, Y, T, treatment_coding="x")
    with pytest.raises(DataError, match=message):
        load_csv_dataset(cov, out, "t", coding="x")
    # a coding added to the table is accepted by both, and offered by the CLI
    monkeypatch.setitem(data.TREATMENT_CODINGS, "x", (-1.0, 1.0))
    assert validate_dataset(X, Y, T, treatment_coding="x").n == 2
    assert load_csv_dataset(cov, out, "t", coding="x")[0].n == 2
    fit_parser = build_parser()._subparsers._group_actions[0].choices["fit"]
    assert "x" in next(a.choices for a in fit_parser._actions if a.dest == "coding")


# =============================================================================
# model artifact
# =============================================================================


def _small_model():
    W = np.array([[1.25, 0.0], [-0.5, 2.0], [0.0, 0.0]])
    V = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    C = np.zeros((6, 3))
    C[2] = [0.1, -0.2, 4.0]
    return FactorModel(W=W, V=V, C=C, rank=2)


def test_model_roundtrip_bit_exact(tmp_path):
    art = ModelArtifact(model=_small_model(), config=FitConfig(rank=2, lambda_w=0.3),
                        weight_source="rct_half", objective_trace=[3.5, 1.25],
                        metadata={"covariates": ["a", "b", "c"]})
    p1, p2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    save_model(art, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()
    assert np.array_equal(loaded.model.W, art.model.W)
    assert np.array_equal(loaded.model.V, art.model.V)
    assert np.array_equal(loaded.model.C, art.model.C)
    assert np.array_equal(loaded.model.gamma, art.model.gamma)
    assert loaded.config == art.config
    assert loaded.weight_source == "rct_half"
    assert loaded.objective_trace == [3.5, 1.25]
    assert loaded.metadata == {"covariates": ["a", "b", "c"]}


def test_model_file_is_canonical_json(tmp_path):
    p = str(tmp_path / "m.json")
    save_model(_small_model(), p)  # bare model accepted
    with open(p, encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["C"]["n_rows"] == 6
    assert [r[0] for r in doc["C"]["nonzero_rows"]] == [2]
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


def test_model_load_rejects_corruption(tmp_path):
    p = str(tmp_path / "m.json")
    save_model(_small_model(), p)
    doc = json.load(open(p))

    bad = dict(doc, schema_version=99)
    with pytest.raises(DataError, match="schema version"):
        load_model(_write(tmp_path / "bad1.json", json.dumps(bad)))
    bad = dict(doc, gamma=[[0.0] * 3 for _ in range(3)])
    with pytest.raises(DataError, match="does not match"):
        load_model(_write(tmp_path / "bad2.json", json.dumps(bad)))
    with pytest.raises(DataError, match="not valid JSON"):
        load_model(_write(tmp_path / "bad3.json", "{nope"))
    bad = dict(doc)
    del bad["W"]
    with pytest.raises(DataError, match="malformed"):
        load_model(_write(tmp_path / "bad4.json", json.dumps(bad)))
    # an unknown key, a non-numeric rank, a config or document that is no object
    for k, config in enumerate(({"rank": 1, "colour": 2}, {"rank": "x"}, [1])):
        with pytest.raises(DataError, match="malformed"):
            load_model(_write(tmp_path / f"cfg{k}.json", json.dumps(dict(doc, config=config))))
    with pytest.raises(DataError, match="malformed"):
        load_model(_write(tmp_path / "bad5.json", "[1, 2]"))
    with pytest.raises(DataError, match="metadata is not a JSON object"):
        load_model(_write(tmp_path / "bad6.json", json.dumps(dict(doc, metadata=[1]))))
    # an offset row index outside the stored row count, above or below
    for k, i in enumerate((6, -1)):
        bad = dict(doc, C=dict(doc["C"], nonzero_rows=[[i, [1.0, 2.0, 3.0]]]))
        with pytest.raises(DataError, match="malformed"):
            load_model(_write(tmp_path / f"row{k}.json", json.dumps(bad)))
    with pytest.raises(DataError, match="cannot read"):
        load_model(str(tmp_path / "absent.json"))


def test_model_load_gamma_check_is_relative_to_its_scale(tmp_path):
    # a stored gamma 1 ulp from W V^T at magnitude ~1e5, as a BLAS that rounds
    # W V^T differently writes it, loads; a 1e-6 relative mismatch does not
    model = FactorModel(W=_small_model().W * 1e5, V=_small_model().V, C=np.zeros((6, 3)), rank=2)
    p = str(tmp_path / "m.json")
    save_model(model, p)
    doc = json.load(open(p))
    g = np.array(doc["gamma"])
    assert np.max(np.abs(g)) > 1e5
    for k, (value, ok) in enumerate(((np.nextafter(g[1, 1], np.inf), True),
                                     (g[1, 1] * (1.0 + 1e-6), False))):
        bad = g.copy()
        bad[1, 1] = value
        path = _write(tmp_path / f"g{k}.json", json.dumps(dict(doc, gamma=bad.tolist())))
        if ok:
            assert np.array_equal(load_model(path).model.gamma, model.gamma)
        else:
            with pytest.raises(DataError, match="does not match"):
                load_model(path)


def _nan_at(matrix, i, j):
    out = [list(row) for row in matrix]
    out[i][j] = math.nan
    return out


@pytest.mark.parametrize("edit, match", [
    (lambda doc: {"gamma": _nan_at(doc["gamma"], 1, 0)}, "does not match"),
    (lambda doc: {"W": _nan_at(doc["W"], 1, 0), "gamma": _nan_at(doc["gamma"], 1, 0)},
     "W contains a non-finite entry"),
    (lambda doc: {"V": _nan_at(doc["V"], 2, 1)}, "V contains a non-finite entry"),
    (lambda doc: {"C": dict(doc["C"], nonzero_rows=[[2, [0.1, math.nan, 4.0]]])},
     "C contains a non-finite entry"),
], ids=["gamma", "W-and-gamma", "V", "C-row"])
def test_model_load_rejects_non_finite_entries(tmp_path, edit, match):
    # hand-edited files with NaN entries: each fails, naming the file
    p = str(tmp_path / "m.json")
    save_model(_small_model(), p)
    doc = json.load(open(p))
    path = _write(tmp_path / "nan.json", json.dumps(dict(doc, **edit(doc))))
    with pytest.raises(DataError, match=match) as err:
        load_model(path)
    assert path in str(err.value)


def test_model_load_reads_config_with_seed(tmp_path):
    # files written while FitConfig still had a seed field keep loading
    art = ModelArtifact(model=_small_model(), config=FitConfig(rank=2, lambda_w=0.3))
    p = str(tmp_path / "m.json")
    save_model(art, p)
    doc = json.load(open(p))
    doc["config"]["seed"] = 0
    assert load_model(_write(tmp_path / "old.json", json.dumps(doc))).config == art.config


# =============================================================================
# path diagram
# =============================================================================


def test_diagram_zero_loadings_outcomes_only():
    model = FactorModel(W=np.zeros((2, 1)), V=np.array([[1.0], [0.0]]),
                        C=np.zeros((4, 2)), rank=1)
    g = build_path_diagram(model, ["a", "b"], ["y1", "y2"])
    assert g.factors == [] and g.covariates == []
    assert g.outcomes == ["y1", "y2"]
    assert g.loading_edges == [] and g.outcome_edges == []
    dot = export_path_diagram(model, ["a", "b"], ["y1", "y2"])
    assert "->" not in dot
    assert '"y:y1"' in dot and '"y:y2"' in dot


def test_diagram_rank_one_counting_contract():
    # 2 active covariates, 1 factor, 2 outcomes: 5 nodes, 2+2 edges
    W = np.array([[0.5], [0.0], [-1.5]])
    V = np.array([[0.8], [-0.6]])
    model = FactorModel(W=W, V=V, C=np.zeros((3, 2)), rank=1)
    g = build_path_diagram(model, ["intercept", "age", "cd40"], ["cd420", "cd820"])
    assert g.covariates == ["intercept", "cd40"]
    assert g.factors == ["f1"]
    assert len(g.covariates) + len(g.factors) + len(g.outcomes) == 5
    assert len(g.loading_edges) == 2 and len(g.outcome_edges) == 2
    assert ("cd40", "f1", -1.5) in g.loading_edges
    dot = export_path_diagram(model, ["intercept", "age", "cd40"], ["cd420", "cd820"])
    assert dot.count("->") == 4
    assert '"x:cd40" -> "f1" [label="-1.500", style=dashed];' in dot
    assert '"x:intercept" -> "f1" [label="0.500"];' in dot
    assert '"f1" -> "y:cd820" [label="-0.600", style=dashed];' in dot
    assert "style=dashed" not in dot.split('"f1" -> "y:cd420"')[1].split("\n")[0]


def test_diagram_inactive_factor_dropped():
    W = np.array([[1.0, 0.0], [0.5, 0.0]])
    V = np.eye(2)
    model = FactorModel(W=W, V=V, C=np.zeros((2, 2)), rank=2)
    g = build_path_diagram(model, ["a", "b"], ["y1", "y2"])
    assert g.factors == ["f1"]
    # V column 2 is nonzero but its factor has no loadings, so no edges from it
    assert all(e[0] == "f1" for e in g.outcome_edges)


def test_diagram_name_count_mismatch():
    model = _small_model()
    with pytest.raises(DataError, match="covariate names"):
        build_path_diagram(model, ["a"], ["y1", "y2", "y3"])
    with pytest.raises(DataError, match="outcome names"):
        build_path_diagram(model, ["a", "b", "c"], ["y1"])


def test_diagram_rejects_duplicate_names():
    model = _small_model()
    with pytest.raises(DataError, match="duplicate covariate name 'a'"):
        build_path_diagram(model, ["a", "b", "a"], ["y1", "y2", "y3"])
    with pytest.raises(DataError, match="duplicate outcome name 'y2'"):
        export_path_diagram(model, ["a", "b", "c"], ["y1", "y2", "y2"])


def test_diagram_file_write_deterministic(tmp_path):
    model = _small_model()
    p = str(tmp_path / "g.dot")
    text = export_path_diagram(model, ["a", "b", "c"], ["y1", "y2", "y3"], path=p)
    assert open(p).read() == text
    assert text == export_path_diagram(model, ["a", "b", "c"], ["y1", "y2", "y3"])
    assert text.startswith("digraph effect_paths {")
    assert text.endswith("}\n")


def test_diagram_escapes_quotes_and_backslashes_in_names():
    # a double quote in a name, or a backslash at its end, must not close its quoted DOT ID
    model = FactorModel(W=np.array([[1.0], [-2.0]]), V=np.array([[1.0], [0.0]]),
                        C=np.zeros((2, 2)), rank=1)
    covs, outs = ['dose "mg"', "path\\"], ['y "a"', "b\\"]
    dot = export_path_diagram(model, covs, outs)
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')  # a DOT quoted string
    ids = set()
    for line in dot.splitlines():
        assert '"' not in quoted.sub("", line)
        ids.update(re.sub(r"\\(.)", r"\1", m) for m in quoted.findall(line))
    assert {"x:" + n for n in covs} | {"f1"} | {"y:" + n for n in outs} <= ids
    assert '  "x:dose \\"mg\\"" -> "f1" [label="1.000"];' in dot
    assert '  "x:path\\\\" -> "f1" [label="-2.000", style=dashed];' in dot
    assert '  "f1" -> "y:y \\"a\\"" [label="1.000"];' in dot


# =============================================================================
# replication and summary tables
# =============================================================================


def _rows():
    out = []
    for rep in range(4):
        out.append({"scenario_id": "s", "replication": rep, "method": "m",
                    "metric": "mse", "value": float(rep + 1)})
    out.append({"scenario_id": "s", "replication": 0, "method": "m",
                "metric": "auc", "value": float("nan")})
    return out


def test_replication_csv_roundtrip(tmp_path):
    p = str(tmp_path / "r.csv")
    rows = _rows()
    write_replication_csv(rows, p)
    back = read_replication_csv(p)
    assert len(back) == 5
    assert back[0] == rows[0]
    assert math.isnan(back[-1]["value"])
    with open(p) as fh:
        assert fh.readline().strip() == "scenario_id,replication,method,metric,value"


def test_replication_csv_header_enforced(tmp_path):
    p = _write(tmp_path / "bad.csv", "a,b,c\n1,2,3\n")
    with pytest.raises(DataError, match="expected header"):
        read_replication_csv(p)
    p2 = _write(tmp_path / "bad2.csv",
                "scenario_id,replication,method,metric,value\ns,zero,m,mse,1.0\n")
    with pytest.raises(DataError, match="line 2"):
        read_replication_csv(p2)


def test_summary_statistics_frozen():
    summary = summarize_replications(_rows())
    assert [s["metric"] for s in summary] == ["mse", "auc"]  # fixed metric order
    mse = summary[0]
    assert mse["median"] == pytest.approx(2.5)
    assert mse["iqr"] == pytest.approx(1.5)
    assert mse["n"] == 4
    assert summary[1]["n"] == 0  # the only auc value was NaN
    assert math.isnan(summary[1]["median"])


def test_summary_group_ordering():
    rows = [
        {"scenario_id": "s2", "replication": 0, "method": "a", "metric": "auc", "value": 1.0},
        {"scenario_id": "s1", "replication": 0, "method": "b", "metric": "error", "value": 1.0},
        {"scenario_id": "s1", "replication": 0, "method": "b", "metric": "mse", "value": 1.0},
        {"scenario_id": "s1", "replication": 0, "method": "a", "metric": "spearman", "value": 1.0},
    ]
    summary = summarize_replications(rows)
    keys = [(s["scenario_id"], s["method"], s["metric"]) for s in summary]
    assert keys == [("s1", "a", "spearman"), ("s1", "b", "mse"),
                    ("s1", "b", "error"), ("s2", "a", "auc")]


def test_summary_metric_order_is_the_report_order():
    # the metrics in MetricsReport's field order, then "error", then other
    # names alphabetically
    assert METRIC_ORDER == tuple(f.name for f in fields(MetricsReport))
    assert METRIC_ORDER == ("mse", "bias", "spearman", "auc")
    names = ["zeta", "error", "auc", "alpha", "spearman", "mse", "bias"]
    rows = [{"scenario_id": "s", "replication": 0, "method": "m", "metric": k, "value": 1.0}
            for k in names]
    assert [s["metric"] for s in summarize_replications(rows)] == [
        *METRIC_ORDER, "error", "alpha", "zeta"]


def test_summary_csv_schema(tmp_path):
    p = str(tmp_path / "s.csv")
    write_summary_csv(summarize_replications(_rows()), p)
    with open(p, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["scenario_id", "method", "metric", "median", "iqr", "n"]
    assert got[1][:3] == ["s", "m", "mse"]
    assert float(got[1][3]) == 2.5
    assert got[1][5] == "4"


# =============================================================================
# command line
# =============================================================================


def test_cli_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "fit" in capsys.readouterr().out


def test_cli_fit_on_fixture(tmp_path, capsys):
    model_out = str(tmp_path / "model.json")
    diagram_out = str(tmp_path / "model.dot")
    code = run_cli([
        "fit", "--covariates", COV, "--outcomes", OUT, "--treatment-column", "arm",
        "--coding", "zero_one", "--standardize", "--rank", "1",
        "--lambda", "0.5", "--phi", "200",
        "--model-out", model_out, "--diagram-out", diagram_out,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fit: rank=1" in out and "converged=True" in out
    capped = re.search(r" outer_iterations=(\d+) converged=True w_capped=(\d+) model=", out)
    assert capped and int(capped[2]) <= int(capped[1])
    art = load_model(model_out)
    assert art.model.rank == 1
    assert art.weight_source == "rct_half"
    assert art.metadata["outcomes"] == ["cd420", "cd820"]
    assert art.metadata["standardize"] and "center" in art.metadata["standardize"]
    dot = open(diagram_out).read()
    nonzero_edges = int(np.count_nonzero(art.model.W)) + int(np.count_nonzero(art.model.V))
    assert dot.count("->") == nonzero_edges


def test_cli_fit_usage_errors(tmp_path, capsys):
    base = ["fit", "--covariates", COV, "--outcomes", OUT,
            "--treatment-column", "arm", "--coding", "zero_one",
            "--model-out", str(tmp_path / "m.json")]
    assert run_cli(base + ["--rank", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and err.count("\n") == 1
    assert run_cli(base + ["--rank", "1", "--propensity", "known"]) == 1
    assert "propensity-column" in capsys.readouterr().err
    assert run_cli(base + ["--rank", "1", "--seed", "3"]) == 1
    assert "--seed" in capsys.readouterr().err


# every flag whose value is held to the settings rule, as (command, flag, the
# setting it names, values that rule rejects); int flags take no nan or inf
SETTING_FLAGS = [
    ("fit", "--rank", "rank", ("0", "-1")),
    ("fit", "--lambda", "lambda_w", ("-1", "nan", "inf")),
    ("fit", "--phi", "phi_c", ("-1", "nan", "inf")),
    ("fit", "--outer-tol", "outer_tol", ("0", "-1", "nan", "inf")),
    ("fit", "--inner-tol", "inner_tol", ("0", "-1", "nan", "inf")),
    ("fit", "--max-outer", "max_outer", ("0", "-1")),
    ("fit", "--max-inner", "max_inner", ("0", "-1")),
    ("cv", "--outer-tol", "outer_tol", ("0", "-1", "nan", "inf")),
    ("cv", "--inner-tol", "inner_tol", ("0", "-1", "nan", "inf")),
    ("cv", "--max-outer", "max_outer", ("0", "-1")),
    ("cv", "--max-inner", "max_inner", ("0", "-1")),
    ("cv", "--folds", "folds", ("0", "-1")),
    ("cv", "--seed", "seed", ("-1",)),
    ("simulate", "--folds", "folds", ("0", "-1")),
    ("simulate", "--seed", "seed", ("-1",)),
    ("simulate", "--replications", "replications", ("0", "-1")),
]


def _cli_args(command, tmp_path):
    if command == "simulate":
        return ["simulate", str(tmp_path / "none.json"), "--out", str(tmp_path / "r.csv")]
    args = [command, "--covariates", COV, "--outcomes", OUT, "--treatment-column", "arm",
            "--coding", "zero_one"]
    return args + (["--rank", "1", "--model-out", str(tmp_path / "m.json")]
                   if command == "fit" else [])


@pytest.mark.parametrize("command, flag, name, bad", SETTING_FLAGS,
                         ids=[f"{c}{f}" for c, f, _, _ in SETTING_FLAGS])
def test_cli_bad_setting_value_is_a_usage_error_naming_it(tmp_path, capsys, command, flag,
                                                          name, bad):
    for value in bad:
        assert run_cli(_cli_args(command, tmp_path) + [flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: argument {flag}: ") and err.count("\n") == 1
        assert f"{name} must be " in err or f"invalid {name} value" in err
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "r.csv").exists()


def test_cli_every_setting_flag_is_in_the_table():
    routed = set()
    for command, sub in build_parser()._subparsers._group_actions[0].choices.items():
        for action in sub._actions:
            if getattr(action.type, "__qualname__", "").startswith("_setting."):
                routed.add((command, action.option_strings[0]))
    assert routed == {(c, f) for c, f, _, _ in SETTING_FLAGS}


@pytest.mark.parametrize("flag, values, message", [
    ("--ranks", "1,0", "rank must be a positive integer, got 0"),
    ("--ranks", "2,-1", "rank must be a positive integer, got -1"),
    ("--lambdas", "1,-1", "lambda_w must be finite and nonnegative, got -1.0"),
    ("--lambdas", "nan", "lambda_w must be finite and nonnegative, got nan"),
    ("--phis", "0,inf", "phi_c must be finite and nonnegative, got inf"),
])
def test_cli_bad_grid_list_element_is_a_usage_error(monkeypatch, capsys, flag, values, message):
    # each element is held to the settings rule while parsing: exit 1 before
    # any data is read or any fit runs, like a bad --rank
    fits = []
    monkeypatch.setattr(model_selection, "_fit_groups", lambda *args, **kw: fits.append(args))
    grid = {"--lambdas": "1", "--phis": "500", "--ranks": "1", flag: values}
    args = [x for flag_value in grid.items() for x in flag_value]
    code = run_cli(["cv", "--covariates", COV, "--outcomes", OUT, "--treatment-column", "arm",
                    "--coding", "zero_one", "--folds", "2", *args])
    assert code == 1 and not fits
    assert capsys.readouterr().err == f"error: usage: argument {flag}: {message}\n"


def test_cli_unparsable_grid_list_is_a_usage_error(capsys):
    assert run_cli(["cv", "--covariates", COV, "--outcomes", OUT, "--treatment-column", "arm",
                    "--lambdas", "1,x", "--phis", "0", "--ranks", "1"]) == 1
    assert capsys.readouterr().err == ("error: usage: argument --lambdas: "
                                       "invalid comma-separated float list value: '1,x'\n")


def test_cli_unparsable_setting_is_a_usage_error(tmp_path, capsys):
    assert run_cli(["fit", "--covariates", COV, "--outcomes", OUT, "--treatment-column", "arm",
                    "--rank", "x", "--model-out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err == "error: usage: argument --rank: invalid rank value: 'x'\n"


def test_cli_fit_data_error_exit_two(tmp_path, capsys):
    code = run_cli([
        "fit", "--covariates", str(tmp_path / "nope.csv"), "--outcomes", OUT,
        "--treatment-column", "arm", "--rank", "1",
        "--model-out", str(tmp_path / "m.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and err.count("\n") == 1


def test_cli_cv_numerical_failure_exit_three(tmp_path, capsys):
    code = run_cli([
        "cv", "--covariates", COV, "--outcomes", OUT, "--treatment-column", "arm",
        "--coding", "zero_one", "--method", "wmcml1",
        "--lambdas", "0.1", "--phis", "0", "--ranks", "1", "--folds", "2",
        "--max-outer", "1", "--max-inner", "1",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical:") and err.count("\n") == 1


@pytest.mark.parametrize("command, capped", [("fit", False), ("fit", True), ("cv", True)])
def test_cli_warns_about_capped_w_blocks(tmp_path, capsys, command, capped):
    # one sweep per W block and one outer iteration (as in the numerical
    # failure case above) caps blocks; the fit at the default caps caps none
    args = [command, "--covariates", COV, "--outcomes", OUT, "--treatment-column", "arm",
            "--coding", "zero_one", "--standardize"]
    if command == "fit":
        args += ["--rank", "1", "--lambda", "0.5", "--phi", "200",
                 "--model-out", str(tmp_path / "m.json")]
    else:
        args += ["--lambdas", "1,50", "--phis", "500", "--ranks", "1,2", "--folds", "2"]
    if capped:
        args += ["--max-outer", "1", "--max-inner", "1"]
    assert run_cli(args) == 0
    out, err = capsys.readouterr()
    n = int(re.search(r" w_capped=(\d+)", out)[1])
    assert out.count("\n") == 1 and out.startswith(f"{command}: ")
    assert (n > 0) == capped
    expected = (f"warning: {n} W blocks stopped at max_inner=1 before inner_tol was met\n"
                if capped else "")
    assert err == expected


def test_cli_cv_fit_and_surface(tmp_path, capsys):
    cv_out = str(tmp_path / "cv.csv")
    model_out = str(tmp_path / "best.json")
    code = run_cli([
        "cv", "--covariates", COV, "--outcomes", OUT, "--treatment-column", "arm",
        "--coding", "zero_one", "--standardize",
        "--lambdas", "1,50", "--phis", "500", "--ranks", "1,2", "--folds", "2",
        "--cv-out", cv_out, "--model-out", model_out,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cv: method=wmcmr4 best_lambda=" in out
    assert re.search(r" w_capped=\d+\n$", out)
    with open(cv_out, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["lambda", "phi", "rank", "fold", "loss"]
    assert len(got) == 1 + 2 * 1 * 2 * 2
    assert all(float(r[4]) >= 0 for r in got[1:])
    art = load_model(model_out)
    assert art.metadata["cv_method"] == "wmcmr4"
    assert len(art.metadata["cv_best"]) == 3


def test_cli_cv_rank_above_limit_fails_before_any_fit(monkeypatch, capsys):
    fits = []
    monkeypatch.setattr(model_selection, "_fit_groups", lambda *args, **kw: fits.append(args))
    code = run_cli([
        "cv", "--covariates", COV, "--outcomes", OUT, "--treatment-column", "arm",
        "--coding", "zero_one", "--lambdas", "1", "--phis", "500", "--ranks", "1,3",
        "--folds", "2",
    ])
    assert code == 2
    assert "rank 3 exceeds min(p+1, q) = 2" in capsys.readouterr().err
    assert not fits


def test_cli_cv_usage_errors(tmp_path, capsys):
    base = ["cv", "--covariates", COV, "--outcomes", OUT,
            "--treatment-column", "arm", "--coding", "zero_one"]
    assert run_cli(base + ["--lambdas", "0.1"]) == 1
    assert "must be given together" in capsys.readouterr().err
    # refused before any data is loaded or any fit runs: no CV output is written
    cv_out = tmp_path / "cv.csv"
    assert run_cli(base + ["--method", "wmcm", "--lambdas", "0.1", "--phis", "0",
                           "--ranks", "1", "--folds", "2", "--cv-out", str(cv_out),
                           "--model-out", str(tmp_path / "m.json")]) == 1
    assert "only available for method wmcmr4" in capsys.readouterr().err
    assert not cv_out.exists()


def test_cli_cv_method_choices_are_the_method_table():
    cv = build_parser()._subparsers._group_actions[0].choices["cv"]
    assert next(a.choices for a in cv._actions if a.dest == "method") == METHODS


def test_cli_simulate_then_report(tmp_path, capsys):
    config = _write(tmp_path / "scenario.json", json.dumps(
        {"scenario": 3, "n": 60, "n_test": 40, "q": 10, "p": 10,
         "replications": 2, "seed": 7}))
    rep_csv = str(tmp_path / "reps.csv")
    assert run_cli(["simulate", config, "--methods", "wmcmr4,mcm",
                    "--out", rep_csv]) == 0
    rows = read_replication_csv(rep_csv)
    assert len(rows) == 2 * 2 * 4
    summary_csv = str(tmp_path / "summary.csv")
    assert run_cli(["report", rep_csv, "--out", summary_csv]) == 0
    with open(summary_csv, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["scenario_id", "method", "metric", "median", "iqr", "n"]
    assert len(got) == 1 + 2 * 4  # one row per (method, metric)
    assert all(r[5] == "2" for r in got[1:])
    out = capsys.readouterr().out
    assert "simulate:" in out and "report:" in out


def test_cli_simulate_config_errors(tmp_path, capsys):
    bad = _write(tmp_path / "bad.json", json.dumps({"scenario": 1, "bogus": 2}))
    assert run_cli(["simulate", bad, "--out", str(tmp_path / "r.csv")]) == 2
    assert "unknown scenario keys bogus" in capsys.readouterr().err
    noscn = _write(tmp_path / "n.json", json.dumps({"n": 50}))
    assert run_cli(["simulate", noscn, "--out", str(tmp_path / "r.csv")]) == 2
    capsys.readouterr()
    notobj = _write(tmp_path / "l.json", "[1, 2]")
    assert run_cli(["simulate", notobj, "--out", str(tmp_path / "r.csv")]) == 2
    capsys.readouterr()
    good = _write(tmp_path / "g.json", json.dumps({"scenario": 1}))
    assert run_cli(["simulate", good, "--methods", "ols",
                    "--out", str(tmp_path / "r.csv")]) == 1
    assert "unknown method 'ols'" in capsys.readouterr().err


def test_scenario_config_with_byte_order_mark(tmp_path):
    doc = {"scenario": 3, "n": 60, "replications": 2, "seed": 7}
    plain = _write(tmp_path / "plain.json", json.dumps(doc))
    marked = _write(tmp_path / "bom.json", "\ufeff" + json.dumps(doc))
    assert cli._scenario_from_config(marked) == cli._scenario_from_config(plain)


def test_cli_simulate_grid_flags_need_cv(tmp_path, capsys):
    # without --cv no grid is fit, so a grid given there is refused, not ignored
    config = _write(tmp_path / "scenario.json", json.dumps(
        {"scenario": 3, "n": 60, "n_test": 40, "q": 10, "p": 10, "replications": 1}))
    out = tmp_path / "r.csv"
    grid = ["--lambdas", "1e6", "--phis", "1", "--ranks", "1"]
    assert run_cli(["simulate", config, "--methods", "wmcmr4", *grid, "--out", str(out)]) == 1
    assert "--lambdas, --phis, and --ranks need --cv" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(["simulate", config, "--methods", "wmcmr4", "--lambdas", "1e6",
                    "--out", str(out)]) == 1
    assert "must be given together" in capsys.readouterr().err


def test_cli_simulate_folds_needs_grid(tmp_path, capsys, monkeypatch):
    # simulate's default grids take 5 folds at fold seed 0, so --folds without a
    # grid would be ignored; it is refused, with or without --cv, before any run
    config = _write(tmp_path / "scenario.json", json.dumps(
        {"scenario": 3, "n": 60, "n_test": 40, "q": 10, "p": 10, "replications": 1}))
    out = tmp_path / "r.csv"
    runs = []
    monkeypatch.setattr(cli, "run_scenario", lambda *args, **kw: runs.append(kw) or [])
    for cv in ([], ["--cv"]):
        assert run_cli(["simulate", config, *cv, "--folds", "3", "--out", str(out)]) == 1
        assert ("error: usage: --folds needs --lambdas, --phis, and --ranks"
                in capsys.readouterr().err)
    assert not runs and not out.exists()
    # a given grid takes --folds, or 5 folds without it
    grid = ["--cv", "--lambdas", "1", "--phis", "1", "--ranks", "1"]
    for folds, want in ((["--folds", "3"], 3), ([], 5)):
        assert run_cli(["simulate", config, *grid, *folds, "--out", str(out)]) == 0
        assert runs.pop()["grid"].folds == want


def test_cli_report_rejects_malformed_input(tmp_path, capsys):
    bad = _write(tmp_path / "r.csv", "a,b\n1,2\n")
    assert run_cli(["report", bad, "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: data:")

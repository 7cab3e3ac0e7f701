"""Evaluation metrics for estimated effect matrices on a test design.

All four metrics compare predicted per-subject effects X Gamma_hat against
the truth X Gamma. The ranking metrics work on the per-subject score (row
sum across outcomes).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import DataError


@dataclass(frozen=True)
class MetricsReport:
    mse: float
    bias: float
    spearman: float
    auc: float


# the metric order of reports and replication rows
METRIC_ORDER = tuple(f.name for f in fields(MetricsReport))


def mse(X_test, gamma_hat, gamma_true) -> float:
    """Mean squared error of the effect surface over test rows and outcomes."""
    X_test = np.asarray(X_test, dtype=float)
    D = X_test @ np.asarray(gamma_hat, float) - X_test @ np.asarray(gamma_true, float)
    return float(np.sum(D * D)) / D.size


def bias(X_test, gamma_hat, gamma_true) -> float:
    """Absolute mean deviation |sum_ij (x_i' ghat_j - x_i' g_j)| / (n q)."""
    X_test = np.asarray(X_test, dtype=float)
    D = X_test @ np.asarray(gamma_hat, float) - X_test @ np.asarray(gamma_true, float)
    return abs(float(np.sum(D))) / D.size


def _average_ranks(v) -> np.ndarray:
    """1-based ranks of v, ties sharing the mean of their positions; all NaN if any v is NaN."""
    v = np.asarray(v, dtype=float).ravel()
    if np.isnan(v).any():
        return np.full(v.shape, np.nan)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    start = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    end = np.append(start[1:], sv.size)
    ranks = np.empty(v.shape)
    ranks[order] = np.repeat((start + 1 + end) / 2.0, end - start)
    return ranks


def spearman(score_hat, score_true) -> float:
    """Rank correlation of estimated vs true per-subject scores.

    Ranks are assigned in descending order with average ranks for ties, and
    the classical 1 - 6 sum d^2 / (m (m^2 - 1)) form is used. By convention
    returns 0 when every estimated score is exactly zero (an all-zero
    coefficient estimate carries no ordering information).
    """
    sh = np.asarray(score_hat, dtype=float).ravel()
    st = np.asarray(score_true, dtype=float).ravel()
    if sh.shape != st.shape:
        raise DataError("score vectors must have equal length")
    m = sh.shape[0]
    if m < 2:
        raise DataError("need at least two subjects for a rank correlation")
    if not np.any(sh):
        return 0.0
    rh = _average_ranks(-sh)
    rt = _average_ranks(-st)
    d = rh - rt
    return 1.0 - 6.0 * float(np.sum(d * d)) / (m * (m * m - 1.0))


def auc(score_hat, score_true) -> float:
    """Probability that a truly benefiting subject outranks a non-benefiting one.

    Labels are 1{true score > 0}. Mann-Whitney rank form; tied estimated
    scores get half credit. Returns NaN when the truth is single-class.
    """
    sh = np.asarray(score_hat, dtype=float).ravel()
    st = np.asarray(score_true, dtype=float).ravel()
    if sh.shape != st.shape:
        raise DataError("score vectors must have equal length")
    pos = st > 0
    n_pos = int(pos.sum())
    n_neg = sh.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _average_ranks(sh)
    return (float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(gamma_hat, X_test, gamma_true) -> MetricsReport:
    """All four metrics for one fitted coefficient matrix; X Gamma_hat and
    X Gamma are formed once, and each metric takes its function's steps."""
    X_test = np.asarray(X_test, dtype=float)
    pred = X_test @ np.asarray(gamma_hat, float)
    true = X_test @ np.asarray(gamma_true, float)
    D = pred - true
    score_hat, score_true = pred.sum(axis=1), true.sum(axis=1)
    return MetricsReport(
        mse=float(np.sum(D * D)) / D.size,
        bias=abs(float(np.sum(D))) / D.size,
        spearman=spearman(score_hat, score_true),
        auc=auc(score_hat, score_true),
    )

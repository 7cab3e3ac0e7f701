"""Core data containers and input validation.

Conventions used throughout the package:

* the covariate matrix ``X`` carries the intercept as its first column,
  so it is n x (p+1) for p measured covariates;
* treatment ``T`` is coded -1/+1;
* outcomes ``Y`` are n x q with q >= 1 correlated outcomes per subject.

All containers are frozen and hold read-only array copies, so they can be
shared freely between folds and worker processes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Raised when input data violates a shape, coding, or finiteness contract."""


class NumericalError(RuntimeError):
    """Raised when an iterative routine fails numerically (divergence, caps)."""


def _frozen(arr):
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Validated study data: covariates, outcomes, treatment, optional propensities."""

    X: np.ndarray
    Y: np.ndarray
    T: np.ndarray
    propensity: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def q(self) -> int:
        return self.Y.shape[1]

    @property
    def n_features(self) -> int:
        """Number of columns of X, intercept included."""
        return self.X.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """Solver settings shared by the main estimator and the baselines.

    outer_tol is relative to the initial objective; inner_tol bounds the
    largest row change per sweep relative to the iterate's row scale.
    """

    rank: int
    lambda_w: float = 0.0
    phi_c: float = 0.0
    outer_tol: float = 1e-6
    inner_tol: float = 1e-8
    max_outer: int = 500
    max_inner: int = 100

    def __post_init__(self):
        _check_settings(**vars(self))
        for name in ("rank", "max_outer", "max_inner"):  # 2.0 passes the check
            object.__setattr__(self, name, int(getattr(self, name)))


def _check_settings(**settings) -> None:
    """The one rule for settings, by name: a tolerance (*_tol) is finite and
    positive, a penalty or threshold finite and nonnegative, a seed a
    nonnegative integer (of any size, as NumPy's generators take it), and any
    other setting (a rank, a cap, a size, a fold count) a positive integer.
    Raises DataError naming the first setting that breaks it."""
    for name, v in settings.items():
        if name.endswith("_tol"):
            ok, rule = np.isfinite(v) and v > 0, "finite and positive"
        elif name in ("lambda_w", "phi_c", "threshold"):
            ok, rule = np.isfinite(v) and v >= 0, "finite and nonnegative"
        elif name == "seed":
            ok, rule = isinstance(v, numbers.Integral) and v >= 0, "a nonnegative integer"
        else:
            ok, rule = np.isfinite(v) and int(v) == v and v >= 1, "a positive integer"
        if not ok:
            raise DataError(f"{name} must be {rule}, got {v}")


def _check_rank(rank, n_features, q) -> None:
    """The rank rule: at most min(p+1, q) for p+1 design columns and q outcomes."""
    if rank > min(n_features, q):
        raise DataError(f"rank {rank} exceeds min(p+1, q) = {min(n_features, q)}")


@dataclass(frozen=True)
class FactorModel:
    """Fitted treatment-effect model Gamma = W V^T with per-subject offsets C.

    W is (p+1) x r (row-sparse loadings on covariates), V is q x r with
    orthonormal columns (outcome factors), C is n x q (row-sparse training
    offsets absorbing contaminated subjects).
    """

    W: np.ndarray
    V: np.ndarray
    C: np.ndarray
    rank: int
    trace: "object | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        W = _frozen(self.W)
        V = _frozen(self.V)
        C = _frozen(self.C)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "C", C)
        if W.ndim != 2 or V.ndim != 2 or C.ndim != 2:
            raise DataError("W, V, C must all be matrices")
        _check_settings(rank=self.rank)
        r = self.rank
        if W.shape[1] != r or V.shape[1] != r:
            raise DataError(
                f"W has {W.shape[1]} and V has {V.shape[1]} columns; both must equal rank {r}"
            )
        if C.shape[1] != V.shape[0]:
            raise DataError(
                f"C has {C.shape[1]} columns but V has {V.shape[0]} rows (outcome counts differ)"
            )
        _check_rank(r, W.shape[0], V.shape[0])
        for name, arr in (("W", W), ("V", V), ("C", C)):
            _check_finite(name, arr)
        dev = np.max(np.abs(V.T @ V - np.eye(r)))
        if dev > 1e-10:
            raise DataError(f"V columns are not orthonormal (max deviation {dev:.3e})")

    @property
    def gamma(self) -> np.ndarray:
        """Full coefficient matrix W V^T, (p+1) x q."""
        return self.W @ self.V.T


@dataclass(frozen=True)
class CateEstimate:
    """Per-subject effect estimates for each outcome plus the summed score."""

    values: np.ndarray
    score: np.ndarray


# the two treatment labels of each coding: the -1 arm's, then the +1 arm's
TREATMENT_CODINGS = {"pm1": (-1.0, 1.0), "zero_one": (0.0, 1.0)}


def _coding_labels(coding: str) -> tuple:
    if coding not in TREATMENT_CODINGS:
        raise DataError(f"unknown treatment coding {coding!r}")
    return TREATMENT_CODINGS[coding]


def _check_finite(name, arr):
    # the first non-finite entry is located only when there is one
    if np.isfinite(arr).all():
        return
    bad = np.argwhere(~np.isfinite(arr))
    i, j = bad[0] if arr.ndim == 2 else (bad[0][0], 0)
    raise DataError(f"{name} contains a non-finite entry at row {i}, column {j}")


def validate_dataset(
    X,
    Y,
    T,
    propensity=None,
    *,
    add_intercept: bool = False,
    treatment_coding: str = "pm1",
) -> Dataset:
    """Validate raw arrays and assemble a Dataset.

    Parameters
    ----------
    X, Y, T : array_like
        Covariates (n x (p+1) with intercept first, unless ``add_intercept``),
        outcomes (n x q), treatment labels (length n).
    propensity : array_like, optional
        Known treatment probabilities P(T=+1|x), strictly inside (0, 1).
    add_intercept : bool
        Prepend a column of ones to X.
    treatment_coding : {"pm1", "zero_one"}
        Accepted coding of T; "zero_one" maps {0, 1} to {-1, +1}.

    Validation is idempotent: revalidating a Dataset's own arrays with default
    flags reproduces it exactly.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2:
        raise DataError("X and Y must be 2-d arrays")
    T = np.asarray(T, dtype=float).ravel()

    n = X.shape[0]
    if Y.shape[0] != n or T.shape[0] != n:
        raise DataError(
            f"row counts disagree: X has {n}, Y has {Y.shape[0]}, T has {T.shape[0]}"
        )
    if X.shape[1] < 1 or Y.shape[1] < 1:
        raise DataError("X and Y need at least one column each")
    _check_finite("X", X)
    _check_finite("Y", Y)
    _check_finite("T", T)

    bad = ~np.isin(T, _coding_labels(treatment_coding))
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(
            f"T entry {T[i]} at row {i} is not valid under coding {treatment_coding!r}"
        )
    if treatment_coding == "zero_one":
        T = 2.0 * T - 1.0
    if not ((T == 1.0).any() and (T == -1.0).any()):
        raise DataError("single-arm data: both treatment arms must be present")

    if add_intercept:
        X = np.hstack([np.ones((n, 1)), X])

    pi = None
    if propensity is not None:
        pi = np.asarray(propensity, dtype=float).ravel()
        if pi.shape[0] != n:
            raise DataError(f"propensity has {pi.shape[0]} entries, expected {n}")
        _check_finite("propensity", pi)
        if (pi <= 0.0).any() or (pi >= 1.0).any():
            i = int(np.argmax((pi <= 0.0) | (pi >= 1.0)))
            raise DataError(
                f"propensity {pi[i]} at row {i} violates positivity (must lie in (0, 1))"
            )
        pi = _frozen(pi)

    return Dataset(X=_frozen(X), Y=_frozen(Y), T=_frozen(T), propensity=pi)


def assemble_design(d: Dataset) -> np.ndarray:
    """Modified-covariate design Z with rows z_i = T_i x_i / 2."""
    return d.X * (d.T / 2.0)[:, None]

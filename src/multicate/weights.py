"""Inverse-probability weights for the weighted fitting objective.

Subject i receives weight a_i = 1 / sqrt(T_i pi_i + (1 - T_i)/2), i.e.
1/sqrt(pi_i) on the treated arm and 1/sqrt(1 - pi_i) on the control arm.
Under a half-half randomized trial every weight equals sqrt(2); the fitted
coefficients are invariant to rescaling all weights by a common factor, so
this matches the unweighted fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, NumericalError, _check_settings

PROPENSITY_CLIP = 1e-6
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-10
SOURCES = ("known", "rct_half", "logistic_fit")


@dataclass(frozen=True)
class WeightVector:
    """Per-subject weights a, the propensities pi they came from, and the source tag."""

    a: np.ndarray
    pi: np.ndarray
    source: str

    def __post_init__(self):
        if self.source not in SOURCES:
            raise DataError(f"unknown weight source {self.source!r}")

    @property
    def ess(self) -> float:
        """Kish effective sample size of the fitting weights a^2:
        (sum a^2)^2 / sum a^4, which is n when all weights are equal."""
        w = self.a * self.a
        return float(w.sum() ** 2 / np.sum(w * w))

    @property
    def min(self) -> float:
        """Smallest weight a_i."""
        return float(self.a.min())

    @property
    def max(self) -> float:
        """Largest weight a_i."""
        return float(self.a.max())


def compute_weights(T, pi, source: str = "known") -> WeightVector:
    """Weights from given propensities P(T=+1|x)."""
    T = np.asarray(T, dtype=float).ravel()
    pi = np.asarray(pi, dtype=float).ravel()
    if T.shape != pi.shape:
        raise DataError(f"T has {T.shape[0]} entries but pi has {pi.shape[0]}")
    if (pi <= 0.0).any() or (pi >= 1.0).any() or not np.isfinite(pi).all():
        raise DataError("propensities must lie strictly inside (0, 1)")
    denom = T * pi + (1.0 - T) / 2.0
    a = 1.0 / np.sqrt(denom)
    return WeightVector(a=a, pi=pi, source=source)


def rct_weights(n: int) -> WeightVector:
    """Constant sqrt(2) weights for a half-half randomized trial."""
    _check_settings(n=n)
    n = int(n)
    pi = np.full(n, 0.5)
    return WeightVector(a=np.full(n, np.sqrt(2.0)), pi=pi, source="rct_half")


def _logistic_irls(X, t):
    """IRLS for P(t=1|x) = expit(x beta); returns the coefficient vector.

    Normal equations get a 1e-8 ridge jitter; probabilities are clipped away
    from 0/1 inside the loop so separable data saturates instead of blowing up.
    """
    n, k = X.shape
    beta = np.zeros(k)
    dev = np.inf
    for _ in range(IRLS_MAX_ITER):
        eta = X @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        mu = np.clip(mu, 1e-10, 1.0 - 1e-10)
        grad = X.T @ (t - mu)
        new_dev = -2.0 * np.sum(t * np.log(mu) + (1.0 - t) * np.log(1.0 - mu))
        if np.max(np.abs(grad)) < 1e-6 or abs(dev - new_dev) < IRLS_TOL * (1.0 + new_dev):
            return beta
        dev = new_dev
        s = mu * (1.0 - mu)
        H = X.T @ (X * s[:, None]) + 1e-8 * np.eye(k)
        beta = beta + np.linalg.solve(H, grad)
    raise NumericalError(
        f"propensity model did not converge in {IRLS_MAX_ITER} iterations (deviance {dev:.6g})"
    )


def fit_propensity_logistic(X, T) -> np.ndarray:
    """Estimate P(T=+1|x) by logistic regression on the design matrix X.

    X should include its intercept column. Returns probabilities clipped to
    [1e-6, 1 - 1e-6].
    """
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float).ravel()
    t = (T + 1.0) / 2.0
    return _propensity(X, _logistic_irls(X, t))


def _propensity(X, beta):
    # expit(X beta) clipped to [PROPENSITY_CLIP, 1 - PROPENSITY_CLIP]
    pi = 1.0 / (1.0 + np.exp(-(X @ beta)))
    return np.clip(pi, PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)


def resolve_weights(d: Dataset, source: str) -> WeightVector:
    """Build the weight vector for a dataset from a named source.

    source is one of "rct" (half-half design), "known" (uses d.propensity),
    or "logistic" (fits the propensity model on d.X, d.T).
    """
    if source == "rct":
        return rct_weights(d.n)
    if source == "known":
        if d.propensity is None:
            raise DataError("known-propensity weights requested but dataset has none")
        return compute_weights(d.T, d.propensity, source="known")
    if source == "logistic":
        pi = fit_propensity_logistic(d.X, d.T)
        return compute_weights(d.T, pi, source="logistic_fit")
    raise DataError(f"unknown propensity source {source!r}")

"""Deterministic statistical kernels shared by every pipeline stage.

The two-sample Kolmogorov-Smirnov test drives deviation detection, the
partial-correlation CI test with Fisher-z significance drives conditional
independence testing, and the binomial standard deviation of a sample
proportion backs the Monte Carlo convergence diagnostics.

All functions here are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "KsResult",
    "CiTestResult",
    "ks_two_sample",
    "ks_pvalue",
    "z_score",
    "direction_code",
    "fisher_z_test",
    "ci_test",
    "batch_marginal_ci",
    "bonferroni",
    "bh_adjust",
    "binomial_sd",
]

# Residual norms at or below this fraction of the centered input norm are
# treated as zero-variance (constant or perfectly explained series).
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class KsResult:
    """Two-sample K-S outcome: statistic and raw p-value."""

    d: float
    p_raw: float


def ks_two_sample(a, b) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test.

    The statistic is the supremum over x of |F_a(x) - F_b(x)| where F_a and
    F_b are the sample ECDFs; the supremum is attained at a pooled sample
    point. The p-value comes from the asymptotic Kolmogorov distribution
    (see :func:`ks_pvalue`).
    """
    xa = np.sort(np.asarray(a, dtype=float).ravel())
    xb = np.sort(np.asarray(b, dtype=float).ravel())
    if xa.size == 0 or xb.size == 0:
        raise ValueError("two-sample K-S requires non-empty samples")
    pooled = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pooled, side="right") / xa.size
    fb = np.searchsorted(xb, pooled, side="right") / xb.size
    d = float(np.max(np.abs(fa - fb)))
    return KsResult(d=d, p_raw=ks_pvalue(d, xa.size, xb.size))


def ks_pvalue(d: float, n1: int, n2: int) -> float:
    """Asymptotic two-sample K-S p-value.

    p = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lambda^2) with
    lambda = d * sqrt(n1*n2/(n1+n2)), truncated once terms drop below 1e-12.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"K-S statistic must lie in [0, 1], got {d}")
    if n1 < 1 or n2 < 1:
        raise ValueError("sample sizes must be positive")
    lam = d * math.sqrt(n1 * n2 / (n1 + n2))
    # Below ~3.7e-5 the series needs >1e5 terms while p equals 1.0 to double
    # precision anyway (tail mass ~ exp(-pi^2 / (8 lam^2))).
    if lam < 3.72e-5:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 100_001):
        term = math.exp(-2.0 * (k * lam) ** 2)
        total += sign * term
        if term < 1e-12:
            break
        sign = -sign
    return float(min(1.0, max(0.0, 2.0 * total)))


def z_score(x: float, mu: float, sigma: float) -> float:
    """Standard score (x - mu) / sigma; sigma must be positive."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return (x - mu) / sigma


def direction_code(z: float, thr: float) -> int:
    """Deviation direction: +1 above +thr, -1 below -thr, 0 otherwise."""
    if thr <= 0:
        raise ValueError(f"threshold must be positive, got {thr}")
    if z > thr:
        return 1
    if z < -thr:
        return -1
    return 0


@dataclass(frozen=True)
class CiTestResult:
    """Partial-correlation independence test outcome."""

    r: float
    p: float


def _residualize(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Residual of v after least-squares projection onto [intercept, z]."""
    if z.shape[1] == 0:
        return v - v.mean()
    design = np.column_stack([np.ones(v.shape[0]), z])
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    return v - design @ coef


def fisher_z_test(
    r: float,
    n: int,
    n_cond: int,
) -> CiTestResult:
    """Fisher-z significance of a (partial) correlation.

    z = atanh(r) * sqrt(n - |S| - 3), two-sided p from the standard normal.
    Requires n > n_cond + 3. r = 0 gives z = 0, p = 1.
    """
    if n <= n_cond + 3:
        raise ValueError(f"insufficient sample: n={n} requires n > {n_cond + 3}")
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {r}")
    if abs(r) >= 1.0:
        zval = math.inf if r > 0 else -math.inf
    else:
        zval = math.atanh(r) * math.sqrt(n - n_cond - 3)
    p = float(2.0 * ndtr(-abs(zval))) if math.isfinite(zval) else 0.0
    return CiTestResult(r=float(r), p=p)


def ci_test(x, y, given=()) -> CiTestResult:
    """Partial-correlation CI test of x against y given conditioning series.

    r is the correlation of the residuals of x and y after projecting both
    onto the conditioning series plus an intercept; with no conditioning
    series it is the plain sample correlation. A zero-variance residual is
    degenerate and tested as r = 0.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("series must have equal length")
    cols = [np.asarray(g, dtype=float).ravel() for g in given]
    for c in cols:
        if c.shape != x.shape:
            raise ValueError("conditioning series must match the sample length")
    z = np.column_stack(cols) if cols else np.empty((x.size, 0))
    rx = _residualize(x, z)
    ry = _residualize(y, z)
    sx = float(np.linalg.norm(rx))
    sy = float(np.linalg.norm(ry))
    nx = float(np.linalg.norm(x - x.mean()))
    ny = float(np.linalg.norm(y - y.mean()))
    if sx <= _DEGENERATE_TOL * max(1.0, nx) or sy <= _DEGENERATE_TOL * max(1.0, ny):
        return fisher_z_test(0.0, n=x.size, n_cond=len(cols))
    r = float(np.clip(rx @ ry / (sx * sy), -1.0, 1.0))
    return fisher_z_test(r, n=x.size, n_cond=len(cols))


def batch_marginal_ci(x_matrix, y) -> tuple[np.ndarray, np.ndarray]:
    """Marginal (unconditioned) CI tests of every column of x_matrix vs y.

    Vectorized equivalent of ``ci_test(col, y)`` for each column; returns
    (r, p) arrays. Degenerate columns get r = 0, p = 1.
    """
    x = np.asarray(x_matrix, dtype=float)
    yv = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2 or x.shape[0] != yv.size:
        raise ValueError("x_matrix must be (n, k) with n matching y")
    n = yv.size
    if n <= 3:
        raise ValueError(f"insufficient sample: n={n} requires n > 3")
    xc = x - x.mean(axis=0)
    yc = yv - yv.mean()
    sx = np.linalg.norm(xc, axis=0)
    sy = float(np.linalg.norm(yc))
    # marginal residuals equal the centered series, so the scalar degeneracy
    # rule sx <= tol * max(1, sx) reduces to sx <= tol
    ok = (sx > _DEGENERATE_TOL) & (sy > _DEGENERATE_TOL)
    r = np.zeros(x.shape[1])
    np.divide(xc.T @ yc, sx * sy, out=r, where=ok)
    r = np.clip(r, -1.0, 1.0)
    saturated = np.abs(r) >= 1.0
    zval = np.arctanh(np.where(saturated, 0.0, r)) * math.sqrt(n - 3)
    if np.any(saturated):
        zval[saturated] = np.sign(r[saturated]) * np.inf
    p = 2.0 * ndtr(-np.abs(zval))
    p = np.where(np.isfinite(zval), p, 0.0)
    p = np.where(ok, p, 1.0)
    return r, p


def _check_probs(p: np.ndarray) -> None:
    if p.size and (np.min(p) < 0.0 or np.max(p) > 1.0):
        raise ValueError("p-values must lie in [0, 1]")


def bonferroni(p_values) -> np.ndarray:
    """Bonferroni-adjusted p-values: min(1, m * p) over the m p-values."""
    p = np.asarray(p_values, dtype=float)
    _check_probs(p)
    return np.minimum(1.0, p.size * p)


def bh_adjust(p_values) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values.

    adjusted_(k) = min_{j >= k} min(1, m * p_(j) / j) over the order
    statistics; a hypothesis is rejected at FDR level q iff its adjusted
    p-value is <= q.
    """
    p = np.asarray(p_values, dtype=float)
    _check_probs(p)
    if p.size == 0:
        return p.copy()
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(scaled[::-1])[::-1]
    out = np.empty_like(adjusted)
    out[order] = np.minimum(1.0, adjusted)
    return out


def binomial_sd(p: float, n: int) -> float:
    """Standard deviation sqrt(p(1-p)/n) of a proportion from n trials."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"n must be a positive count, got {n}")
    return math.sqrt(p * (1.0 - p) / n)

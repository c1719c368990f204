"""Deterministic statistical kernels shared by every pipeline stage.

The two-sample Kolmogorov-Smirnov test drives deviation detection, the
partial-correlation CI test with Fisher-z significance drives conditional
independence testing, and the binomial standard deviation of a sample
proportion backs the Monte Carlo convergence diagnostics. Discovery's
marginal CI tests go through :func:`batch_ci`, one least-squares solve per
conditioning set (:func:`ci_test` is its one-column call). Discovery's
conditional tests, and those of the lagged parent screen and of MCI, go
through :func:`stacked_gram_ci`, the inverse of one small Gram block per
test, a stack of blocks per call: discovery makes one call per (chunk,
level), the parent screen one per round and MCI one per group. The callers
answer the blocks it declines from the rows with :func:`batch_ci`. The
lagged subgraph has one more kernel shaped to its work: :func:`marginal_ci`
tests one design's columns against every target. All of them take r and p
from one degeneracy rule and one Fisher-z tail, the C library's `erfc`
through `math.erfc`, one call per test.

All functions here are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KsResult",
    "CiTestResult",
    "ks_two_sample",
    "ks_pvalue",
    "ci_test",
    "batch_ci",
    "stacked_gram_ci",
    "marginal_ci",
    "bonferroni",
    "bh_adjust",
    "binomial_sd",
]

# Residual norms at or below this fraction of the centered input norm are
# treated as zero-variance (constant or perfectly explained series).
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class KsResult:
    """Two-sample K-S outcome: statistic and raw p-value, as floats for one
    sample and as arrays (one entry per window) for a stack of windows."""

    d: float | np.ndarray
    p_raw: float | np.ndarray


def ks_two_sample(a, b) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test of `a` against the baseline `b`.

    `a` is one sample, or a 2-D stack of equal-length windows each tested
    against `b`; the result then holds one d and p per window. The statistic
    is the supremum over x of |F_a(x) - F_b(x)| where F_a and F_b are the
    sample ECDFs. F_a is constant between the points of `a`, so the supremum
    is attained at a point of `a` or just below one; the p-value comes from
    the asymptotic Kolmogorov distribution (see :func:`ks_pvalue`).
    """
    xa = np.asarray(a, dtype=float)
    if xa.ndim > 2:
        raise ValueError("a must be one sample or a 2-D stack of windows")
    windows = np.sort(xa.reshape(1, -1) if xa.ndim < 2 else xa, axis=1)
    xb = np.sort(np.asarray(b, dtype=float).ravel())
    n1, n2 = windows.shape[1], xb.size
    if n1 == 0 or n2 == 0:
        raise ValueError("two-sample K-S requires non-empty samples")
    # a window's tied points share one ECDF step: the right count holds at
    # the last point of a run of ties and the left count at its first
    # (searchsorted orders nan last and treats it as equal to nan)
    tied = (windows[:, 1:] == windows[:, :-1]) | np.isnan(windows[:, :-1])
    last = np.ones(windows.shape, dtype=bool)
    last[:, :-1] = ~tied
    first = np.ones(windows.shape, dtype=bool)
    first[:, 1:] = ~tied
    counts = np.arange(n1 + 1)
    right = np.abs(counts[1:] / n1 - np.searchsorted(xb, windows, side="right") / n2)
    left = np.abs(counts[:-1] / n1 - np.searchsorted(xb, windows, side="left") / n2)
    d = np.maximum(np.where(last, right, 0.0), np.where(first, left, 0.0)).max(axis=1)
    # D takes few distinct values for one (window, baseline) size pair
    pvals = {v: ks_pvalue(v, n1, n2) for v in set(d.tolist())}
    p = np.array([pvals[v] for v in d.tolist()])
    if xa.ndim < 2:
        return KsResult(d=float(d[0]), p_raw=float(p[0]))
    return KsResult(d=d, p_raw=p)


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


@dataclass(frozen=True)
class CiTestResult:
    """Partial-correlation independence test outcome."""

    r: float
    p: float


_SQRT1_2 = 0.70710678118654752440
# Tests per Fisher-z call in marginal_ci.
_MARGINAL_BLOCK = 2048


def ci_test(x, y, given=()) -> CiTestResult:
    """Partial-correlation CI test of x against y given conditioning series,
    as the one-column call of :func:`batch_ci`."""
    r, p = batch_ci(np.asarray(x, dtype=float).reshape(-1, 1), y, given=given)
    return CiTestResult(r=float(r[0]), p=float(p[0]))


def batch_ci(x_matrix, y, given=()) -> tuple[np.ndarray, np.ndarray]:
    """Partial-correlation CI tests of every column of x_matrix against y
    given one conditioning set; returns (r, p) arrays, one entry per column.

    y and the columns are residualized on [intercept, given] together, with
    one multi-RHS least-squares solve, and r is the correlation of the
    residuals; with `given` empty this is :func:`marginal_ci`'s one-series
    call, on the centered series. A column whose residual norm, or
    y's, is at most 1e-12 of its centered norm (or of 1, if larger) is
    degenerate: r = 0, p = 1. p is two-sided from Fisher's
    z = atanh(r) * sqrt(n - len(given) - 3), so n must exceed
    len(given) + 3.
    """
    x = np.asarray(x_matrix, dtype=float)
    yv = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2:
        raise ValueError("x_matrix must be 2-D, one column per tested series")
    if x.shape[0] != yv.size:
        raise ValueError(f"series must have equal length, got {x.shape[0]} and {yv.size}")
    cols = [np.asarray(g, dtype=float).ravel() for g in given]
    for c in cols:
        if c.shape != yv.shape:
            raise ValueError("conditioning series must match the sample length")
    n, n_cond = yv.size, len(cols)
    if n <= n_cond + 3:
        raise ValueError(f"insufficient sample: n={n} requires n > {n_cond + 3}")
    if not cols:
        r, p = marginal_ci(x, [yv])
        return r[0], p[0]
    nx = np.linalg.norm(x - x.mean(axis=0), axis=0)
    ny = float(np.linalg.norm(yv - yv.mean()))
    design = np.column_stack([np.ones(n)] + cols)
    rhs = np.column_stack([yv, x])
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    resid = rhs - design @ coef
    ry, rx = resid[:, 0], resid[:, 1:]
    sx = np.linalg.norm(rx, axis=0)
    sy = float(np.linalg.norm(ry))
    return _fisher_z(rx.T @ ry, sx, sy, nx, ny, n - n_cond - 3)


# The smallest share of a column's variance that the other columns of a
# Gram block may leave unexplained before stacked_gram_ci declines the block.
_GRAM_FLOOR = 1e-6


def stacked_gram_ci(blocks, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial-correlation CI tests, one per Gram block of a stack.

    blocks is (tests, k, k): block i holds the cross products of n centered
    rows of [x, y, *given], and x is tested against y given the k - 2
    other columns. Returns (r, p, answered), one entry per block; r and p
    are NaN where answered is False, a block the caller answers from the
    rows instead. Each block's entries are bit for bit what a stack holding
    that block alone gives it.

    With B a block and P its inverse, r = -P01 / sqrt(P00 P11). It goes
    through :func:`_fisher_z` as cov = -P01 / (P00 P11), sx = P00^-1/2 and
    sy = P11^-1/2 (the residual norms of x and y on the block's other
    columns), nx = sqrt(Bxx) and ny = sqrt(Byy), with n - k - 1 degrees of
    freedom, so the degeneracy rule and the tail are :func:`batch_ci`'s.
    The powers are Python's, the C library's `pow`: numpy's vectorised
    power differs from it in the last bits.

    A block is declined when `inv` refuses it, or when a column's relative
    residual variance on the others, rho_j = 1 / (Pjj Bjj), is below
    _GRAM_FLOOR (or not a positive number). A batched `inv` refuses the
    whole stack if one block is exactly singular, so such a stack is
    inverted block by block. The floor comes from the Gram's rounding. A
    cross product of two centered columns over n rows is off by at most
    gamma_n = n u / (1 - n u) of the product of their norms (u = 2**-53;
    Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 3.1); the inverse's own rounding adds a backward error of
    order k u, which the bounds take in as gamma_(n+k). Scaled to unit
    diagonal, the block is thus off by E with |E| <= k gamma, and
    |P| <= k / rho_min (P's trace is the sum of the 1 / rho_j). To first
    order P moves by -P E P, so each rho_j is off by at most
    |E| |P| <= k^2 gamma / rho_min relative, and the smallest rho is known
    only to within k^2 gamma. An exactly collinear block can therefore
    show rho_min up to about k^2 gamma, and batch_ci's rule, a residual
    norm of at most 1e-12 of the series' norm (rho up to 1e-24), is far
    below what a Gram resolves. The floor sits above k^2 gamma for k <= 8
    (an MCI test at max_cond 3) up to n = 10**7 rows (7.1e-8), so a block
    that passes it is far from collinear, and batch_ci would call none of
    its series degenerate.

    Over a block that passes, |delta r| <= 2 |E| |P| <= 2 k^2 gamma /
    rho_min, and since 1 - r^2 >= rho_min, Fisher's z moves by at most
    sqrt(n - k - 1) |delta r| / rho_min.
    """
    b = np.asarray(blocks, dtype=float)
    if b.ndim != 3 or b.shape[1] != b.shape[2] or b.shape[1] < 2:
        raise ValueError("blocks must be a (tests, k, k) stack of [x, y, *given] Gram blocks")
    k = b.shape[1]
    if n <= k + 1:
        raise ValueError(f"insufficient sample: n={n} requires n > {k + 1}")
    try:
        prec = np.linalg.inv(b)
    except np.linalg.LinAlgError:
        prec = np.full(b.shape, np.nan)
        for i, block in enumerate(b):
            try:
                prec[i] = np.linalg.inv(block)
            except np.linalg.LinAlgError:
                pass
    var = np.diagonal(b, axis1=1, axis2=2)
    # 1 / rho_j for each column; the comparisons are false for NaN
    scaled = np.diagonal(prec, axis1=1, axis2=2) * var
    answered = ((scaled > 0.0) & (scaled <= 1.0 / _GRAM_FLOOR)).all(axis=1)
    if np.count_nonzero(answered) == len(b):
        return (*_gram_fisher_z(prec, var, n - k - 1), answered)
    r = np.full(len(b), np.nan)
    p = np.full(len(b), np.nan)
    r[answered], p[answered] = _gram_fisher_z(prec[answered], var[answered], n - k - 1)
    return r, p, answered


def _gram_fisher_z(prec, var, dof: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`stacked_gram_ci`'s r and p for blocks that pass the floor,
    from their inverses and their diagonals; P00 and P11 are positive."""
    p00, p11 = prec[:, 0, 0], prec[:, 1, 1]
    return _fisher_z(
        -prec[:, 0, 1] / (p00 * p11),
        np.array([v**-0.5 for v in p00.tolist()]),
        np.array([v**-0.5 for v in p11.tolist()]),
        np.sqrt(var[:, 0]),
        np.sqrt(var[:, 1]),
        dof,
    )


def marginal_ci(x_matrix, ys) -> tuple[np.ndarray, np.ndarray]:
    """Marginal correlation tests of every column of x_matrix against each
    series in ys; returns (r, p) arrays with one row per series.
    ``batch_ci(x_matrix, y)`` with no conditioning set is the one-series
    call, so row i is bit for bit what it returns for ys[i].

    The columns are centered, and their norms taken, once for every
    series. Each series then takes one product with the centered columns
    (a matrix-vector product, as in :func:`batch_ci`, whose last bits a
    single matrix-matrix product would not keep). The Fisher-z tail runs
    over blocks of series holding about _MARGINAL_BLOCK tests each, which
    keeps its temporaries small: one call over the 20 000 tests of a
    50-KPI window raised a run's peak RSS by about 1 MB.
    """
    x = np.asarray(x_matrix, dtype=float)
    if x.ndim != 2:
        raise ValueError("x_matrix must be 2-D, one column per tested series")
    n, m = x.shape
    if n <= 3:
        raise ValueError(f"insufficient sample: n={n} requires n > 3")
    xc = x - x.mean(axis=0)
    nx = np.linalg.norm(xc, axis=0)
    r = np.empty((len(ys), m))
    p = np.empty((len(ys), m))
    step = max(1, _MARGINAL_BLOCK // max(m, 1))
    for start in range(0, len(ys), step):
        block = ys[start : start + step]
        cov = np.empty((len(block), m))
        ny = np.empty((len(block), 1))
        for i, y in enumerate(block):
            yv = np.asarray(y, dtype=float).ravel()
            if yv.size != n:
                raise ValueError(f"series must have equal length, got {n} and {yv.size}")
            yc = yv - yv.mean()
            cov[i] = xc.T @ yc
            ny[i] = np.linalg.norm(yc)
        r[start : start + step], p[start : start + step] = _fisher_z(cov, nx, ny, nx, ny, n - 3)
    return r, p


def _fisher_z(cov, sx, sy, nx, ny, dof: int) -> tuple[np.ndarray, np.ndarray]:
    """r = cov / (sx * sy) per test, from the residuals' inner product cov
    and norms sx and sy (arrays, or one value for every test), with its
    two-sided p from Fisher's z = atanh(r) * sqrt(dof). A residual norm at
    most 1e-12 of its series' centered norm nx or ny (or of 1, if larger)
    is degenerate: r = 0, p = 1.
    """
    ok = (sx > _DEGENERATE_TOL * np.maximum(1.0, nx)) & (sy > _DEGENERATE_TOL * np.maximum(1.0, ny))
    r = np.zeros(ok.shape)
    np.divide(cov, sx * sy, out=r, where=ok)
    # np.clip's bits, without its dispatch cost on small arrays
    r = np.minimum(np.maximum(r, -1.0), 1.0)
    saturated = np.abs(r) >= 1.0
    zval = np.arctanh(np.where(saturated, 0.0, r)) * math.sqrt(dof)
    if np.count_nonzero(saturated):
        zval[saturated] = np.sign(r[saturated]) * np.inf
    # the two-sided normal tail 2 * Phi(-|z|) = erfc(|z| / sqrt(2)), from
    # the C library; NaN gives NaN and an infinite z gives 0
    x = np.abs(zval) * _SQRT1_2
    p = np.array([math.erfc(v) for v in x.ravel().tolist()]).reshape(x.shape)
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

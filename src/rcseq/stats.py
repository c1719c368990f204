"""Deterministic statistical kernels shared by every pipeline stage.

The two-sample Kolmogorov-Smirnov test drives deviation detection, the
partial-correlation CI test with Fisher-z significance drives conditional
independence testing, and the binomial standard deviation of a sample
proportion backs the Monte Carlo convergence diagnostics. Discovery's CI
tests go through :func:`batch_ci`, one least-squares solve per
conditioning set (:func:`ci_test` is its one-column call). The lagged
subgraph has three kernels shaped to its work: :func:`marginal_ci` tests
one design's columns against every target, :func:`screen_ci` answers a
whole parent-screen level from one QR, and :func:`stacked_ci` answers a
stack of MCI tests from one batched QR. The QR kernels fall back to
:func:`batch_ci` only where conditioning series are collinear. All of
them take r and p from one degeneracy rule and one Fisher-z tail. That
normal tail is a port of the Cephes `ndtr` that `scipy.special` wraps, so
the p-values match scipy's to the bit without importing it; large calls
run it vectorised, with the same bits.

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
    "z_score",
    "direction_code",
    "ci_test",
    "batch_ci",
    "marginal_ci",
    "screen_ci",
    "stacked_ci",
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


_SQRT1_2 = 0.70710678118654752440
# From this many values on, _fisher_z takes the tail from _normal_tail:
# the same bits, with a fixed cost of about 30 scalar calls.
_VECTOR_TAIL_MIN = 150
# Tests per Fisher-z call in marginal_ci.
_MARGINAL_BLOCK = 2048
_MAXLOG = 7.09782712893383996843e2  # log of the largest double


def _normal_two_sided(z: float) -> float:
    """Two-sided standard-normal tail 2 * ndtr(-|z|), bit for bit as the
    Cephes `ndtr`/`erf`/`erfc` compute it (scipy.special.ndtr wraps them).

    With x = |z| / sqrt(2): erf's rational form in x^2 below x = 1, then
    erfc as exp(-x^2) times a rational function of x (two fits, split at
    x = 8), and 0 once exp(-x^2) would underflow. The polynomials are
    Horner forms in Cephes' coefficient order, and the exponential is
    `math.exp`, the C library's, as in Cephes; `np.exp` and `math.erfc`
    differ from it in the last bits.
    """
    if z != z:
        return math.nan
    x = abs(z) * _SQRT1_2
    if x < 1.0:
        s = x * x
        erf = x * (
            (((9.60497373987051638749e0 * s + 9.00260197203842689217e1) * s
              + 2.23200534594684319226e3) * s + 7.00332514112805075473e3) * s
            + 5.55923013010394962768e4
        ) / (
            ((((s + 3.35617141647503099647e1) * s + 5.21357949780152679795e2) * s
              + 4.59432382970980127987e3) * s + 2.26290000613890934246e4) * s
            + 4.92673942608635921086e4
        )
        if x < _SQRT1_2:
            return 2.0 * (0.5 + 0.5 * -erf)
        return 2.0 * (0.5 * (1.0 - erf))
    if -x * x < -_MAXLOG:
        return 0.0
    if x < 8.0:
        p = ((((((((2.46196981473530512524e-10 * x + 5.64189564831068821977e-1) * x
                   + 7.46321056442269912687e0) * x + 4.86371970985681366614e1) * x
                 + 1.96520832956077098242e2) * x + 5.26445194995477358631e2) * x
               + 9.34528527171957607540e2) * x + 1.02755188689515710272e3) * x
             + 5.57535335369399327526e2)
        q = (((((((x + 1.32281951154744992508e1) * x + 8.67072140885989742329e1) * x
                 + 3.54937778887819891062e2) * x + 9.75708501743205489753e2) * x
               + 1.82390916687909736289e3) * x + 2.24633760818710981792e3) * x
             + 1.65666309194161350182e3) * x + 5.57535340817727675546e2
    else:
        p = ((((5.64189583547755073984e-1 * x + 1.27536670759978104416e0) * x
               + 5.01905042251180477414e0) * x + 6.16021097993053585195e0) * x
             + 7.40974269950448939160e0) * x + 2.97886665372100240670e0
        q = (((((x + 2.26052863220117276590e0) * x + 9.39603524938001434673e0) * x
               + 1.20489539808096656605e1) * x + 1.70814450747565897222e1) * x
             + 9.60896809063285878198e0) * x + 3.36907645100081516050e0
    return 2.0 * (0.5 * (math.exp(-x * x) * p / q))



def _normal_tail(z: np.ndarray) -> np.ndarray:
    """:func:`_normal_two_sided` over a float array, bit for bit.

    Each branch's polynomials run as numpy elementwise operations on that
    branch's entries, in the same Horner order; IEEE addition,
    multiplication and division round the same in numpy as in Python.
    The exponential is still `math.exp`, one call per entry of the
    x >= 1 branches, since `np.exp` differs from it in the last bits.
    A NaN z gives NaN.
    """
    x = np.abs(z) * _SQRT1_2
    out = np.full(x.shape, np.nan)
    small = x < 1.0
    if small.any():
        xs = x[small]
        s = xs * xs
        erf = xs * (
            (((9.60497373987051638749e0 * s + 9.00260197203842689217e1) * s
              + 2.23200534594684319226e3) * s + 7.00332514112805075473e3) * s
            + 5.55923013010394962768e4
        ) / (
            ((((s + 3.35617141647503099647e1) * s + 5.21357949780152679795e2) * s
              + 4.59432382970980127987e3) * s + 2.26290000613890934246e4) * s
            + 4.92673942608635921086e4
        )
        out[small] = np.where(xs < _SQRT1_2, 2.0 * (0.5 + 0.5 * -erf), 2.0 * (0.5 * (1.0 - erf)))
    # x < 8 cannot underflow exp(-x^2); past _MAXLOG the tail is 0
    mid = (x >= 1.0) & (x < 8.0)
    far = x >= 8.0
    underflow = -x * x < -_MAXLOG
    out[far & underflow] = 0.0
    far &= ~underflow
    if mid.any():
        xm = x[mid]
        p = ((((((((2.46196981473530512524e-10 * xm + 5.64189564831068821977e-1) * xm
                   + 7.46321056442269912687e0) * xm + 4.86371970985681366614e1) * xm
                 + 1.96520832956077098242e2) * xm + 5.26445194995477358631e2) * xm
               + 9.34528527171957607540e2) * xm + 1.02755188689515710272e3) * xm
             + 5.57535335369399327526e2)
        q = (((((((xm + 1.32281951154744992508e1) * xm + 8.67072140885989742329e1) * xm
                 + 3.54937778887819891062e2) * xm + 9.75708501743205489753e2) * xm
               + 1.82390916687909736289e3) * xm + 2.24633760818710981792e3) * xm
             + 1.65666309194161350182e3) * xm + 5.57535340817727675546e2
        out[mid] = _erfc_tail(xm, p, q)
    if far.any():
        xf = x[far]
        p = ((((5.64189583547755073984e-1 * xf + 1.27536670759978104416e0) * xf
               + 5.01905042251180477414e0) * xf + 6.16021097993053585195e0) * xf
             + 7.40974269950448939160e0) * xf + 2.97886665372100240670e0
        q = (((((xf + 2.26052863220117276590e0) * xf + 9.39603524938001434673e0) * xf
               + 1.20489539808096656605e1) * xf + 1.70814450747565897222e1) * xf
             + 9.60896809063285878198e0) * xf + 3.36907645100081516050e0
        out[far] = _erfc_tail(xf, p, q)
    return out


def _erfc_tail(x: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """2 * ndtr(-x * sqrt(2)) from erfc's rational fit p / q at x, with
    exp(-x^2) from `math.exp`, as in :func:`_normal_two_sided`."""
    e = np.array([math.exp(v) for v in (-x * x).tolist()])
    return 2.0 * (0.5 * (e * p / q))


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


def screen_ci(x_matrix, y, top) -> tuple[np.ndarray, np.ndarray]:
    """One level of the lagged parent screen from one regression.

    `top` holds level + 1 series as columns, strongest first. Every column
    of x_matrix is tested against y given top[:level], and each top[j] with
    j < level given the other level members of top. Returns (r, p) arrays
    with one entry per column of x_matrix, then one per member of
    top[:level], as :func:`batch_ci` would give them (same degeneracy rule,
    same Fisher-z p with n - level - 3 degrees of freedom, so n must exceed
    level + 3).

    One Householder QR of [1, top, y] serves both groups; its leading
    columns are the QR of A = [1, top], and R's last column holds Q'y. The
    residuals on [1, top[:level]] come from the leading level + 1 columns
    of Q, on the n rows. For top[j], with beta = R^-1 Q'y, e the residual of
    y on A and s_j = 1 / |row j of R^-1|, the residual norm of top[j] on
    the other columns of A, r_j = beta_j s_j / sqrt(|e|^2 + beta_j^2 s_j^2):
    y's residual on the others is beta_j times top[j]'s plus e, orthogonal
    to it, so every term is a sum of squares.

    A member of top that is, by the degeneracy rule, a linear combination
    of the columns before it (a copied or derived KPI) leaves R singular.
    Such a level runs as level + 1 grouped :func:`batch_ci` calls instead;
    that route is kept only because it is the one that handles this input.
    """
    x = np.asarray(x_matrix, dtype=float)
    yv = np.asarray(y, dtype=float).ravel()
    t = np.asarray(top, dtype=float)
    if x.ndim != 2 or t.ndim != 2:
        raise ValueError("x_matrix and top must be 2-D, one column per series")
    n, k = t.shape
    level = k - 1
    if not x.shape[0] == yv.size == n:
        raise ValueError(f"series must have equal length, got {x.shape[0]}, {yv.size} and {n}")
    if n <= level + 3:
        raise ValueError(f"insufficient sample: n={n} requires n > {level + 3}")
    a = np.empty((n, k + 2))
    a[:, 0] = 1.0
    a[:, 1:-1] = t
    a[:, -1] = yv
    q, rr = np.linalg.qr(a)
    # below the intercept row, R's columns hold the centered top columns and y
    cent = np.sqrt(np.einsum("ij,ij->j", rr[1:, 1:], rr[1:, 1:]))
    if (np.abs(rr.diagonal()[1:-1]) <= _DEGENERATE_TOL * np.maximum(1.0, cent[:-1])).any():
        groups = [batch_ci(x, yv, given=list(t[:, :level].T))]
        groups += [
            batch_ci(t[:, [j]], yv, given=[t[:, c] for c in range(k) if c != j])
            for j in range(level)
        ]
        return np.concatenate([r for r, _ in groups]), np.concatenate([p for _, p in groups])
    q1 = q[:, :k]  # spans [1, top[:level]]
    proj = q1.T @ x
    rx = x - q1 @ proj
    # y's residual on [1, top[:level]] lies along Q's last two columns, and
    # R's corner is the norm of e
    ry = q[:, k:] @ rr[k:, -1]
    ee = rr[-1, -1] ** 2
    sx2 = np.einsum("ij,ij->j", rx, rx)
    # a column's centered norm: its residual plus its part along top[:level]
    nx = np.sqrt(sx2 + np.einsum("ij,ij->j", proj[1:], proj[1:]))
    rinv = np.linalg.inv(rr[:-1, :-1])[1:k]
    s = 1.0 / np.sqrt(np.einsum("ij,ij->i", rinv, rinv))
    bs = (rinv @ rr[:-1, -1]) * s
    return _fisher_z(
        np.concatenate([rx.T @ ry, bs * s]),
        np.concatenate([np.sqrt(sx2), s]),
        np.sqrt(np.concatenate([np.full(x.shape[1], rr[k, -1] ** 2 + ee), ee + bs * bs])),
        np.concatenate([nx, cent[:level]]),
        cent[-1],
        n - level - 3,
    )


def stacked_ci(design) -> tuple[np.ndarray, np.ndarray]:
    """Partial-correlation CI tests, one per matrix of a stack.

    design is (tests, n, k + 3). The columns of design[i] are [1, S, x, y]:
    an intercept column of ones, k conditioning series, then x and y, and
    x is tested against y given S. Every test has the same n and k. Returns
    (r, p) arrays, one entry per test, as ``batch_ci(x, y, given=S)`` would
    give them (same degeneracy rule, same Fisher-z p with n - k - 3 degrees
    of freedom, so n must exceed k + 3).

    One batched Householder QR of the stack answers every test. Below the
    intercept row, R's columns hold the centered series. x's residual on
    [1, S] is R[-2, -2] times Q's second-last column, and y's is R[-2, -1]
    times that column plus R[-1, -1] times the last, so r comes from those
    three entries of R. Taking the intercept as a column of the input, and
    not adding it here, spares a copy of the stack.

    A test whose conditioning series are, by the degeneracy rule, linearly
    dependent (a derived KPI next to its inputs) leaves R singular; it runs
    as its own :func:`batch_ci` call, whose least-squares solve handles
    that input.
    """
    a = np.asarray(design, dtype=float)
    if a.ndim != 3 or a.shape[2] < 3:
        raise ValueError("design must be a (tests, n, k + 3) stack of [1, S, x, y] columns")
    n, k = a.shape[1], a.shape[2] - 3
    if not (a[:, :, 0] == 1.0).all():
        raise ValueError("design's first column must be the intercept, all ones")
    if n <= k + 3:
        raise ValueError(f"insufficient sample: n={n} requires n > {k + 3}")
    rr = np.linalg.qr(a, mode="r")
    cent = np.sqrt(np.einsum("tij,tij->tj", rr[:, 1:, 1:], rr[:, 1:, 1:]))
    diag = np.abs(np.diagonal(rr, axis1=1, axis2=2)[:, 1:-2])
    collinear = (diag <= _DEGENERATE_TOL * np.maximum(1.0, cent[:, :k])).any(axis=1)
    rx = rr[:, -2, -2]
    ry = rr[:, -2, -1]
    r, p = _fisher_z(
        rx * ry,
        np.abs(rx),
        np.sqrt(ry * ry + rr[:, -1, -1] ** 2),
        cent[:, -2],
        cent[:, -1],
        n - k - 3,
    )
    for i in np.flatnonzero(collinear).tolist():
        r[i : i + 1], p[i : i + 1] = batch_ci(a[i, :, -2:-1], a[i, :, -1], given=list(a[i, :, 1:-2].T))
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
    r = np.clip(r, -1.0, 1.0)
    saturated = np.abs(r) >= 1.0
    zval = np.arctanh(np.where(saturated, 0.0, r)) * math.sqrt(dof)
    if saturated.any():
        zval[saturated] = np.sign(r[saturated]) * np.inf
    if zval.size >= _VECTOR_TAIL_MIN:
        p = _normal_tail(zval)
    else:
        p = np.array([_normal_two_sided(z) for z in zval.ravel().tolist()]).reshape(zval.shape)
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

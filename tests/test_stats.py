import itertools
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
import mpmath  # a test-only oracle, as scipy is
from scipy.special import kolmogorov  # scipy is a test-only oracle

from rcseq import stats
from rcseq.stats import (
    _DEGENERATE_TOL,
    _SQRT1_2,
    CiTestResult,
    batch_ci,
    bh_adjust,
    binomial_sd,
    bonferroni,
    ci_test,
    ks_pvalue,
    ks_two_sample,
    marginal_ci,
    stacked_gram_ci,
)


def brute_force_ks_d(a, b):
    """O(n*m) oracle: evaluate both ECDFs at every pooled point."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    best = 0.0
    for x in np.concatenate([a, b]):
        fa = np.count_nonzero(a <= x) / a.size
        fb = np.count_nonzero(b <= x) / b.size
        best = max(best, abs(fa - fb))
    return best


def pooled_point_ks(a, b):
    """One window's K-S test the direct way: both ECDFs (right counts) at
    every pooled point, then the asymptotic p of the largest gap."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pooled, side="right") / xa.size
    fb = np.searchsorted(xb, pooled, side="right") / xb.size
    d = float(np.max(np.abs(fa - fb)))
    return d, ks_pvalue(d, xa.size, xb.size)


def ks_case(rng, kind):
    """A segment and a baseline of random sizes; `kind` picks the data."""
    n = int(rng.integers(1, 300))
    segment = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(1, 200)))
    baseline = rng.normal(size=n)
    if kind == "rounded":  # many ties, inside windows and across the two samples
        segment, baseline = np.round(segment, 1), np.round(baseline, 1)
    elif kind == "pinned":  # a hard-pinned constant segment meets a half-pinned baseline
        segment[rng.integers(0, segment.size):] = 0.5
        baseline[: n // 2] = 0.5
    elif kind == "integer":
        segment, baseline = np.round(2 * segment), np.round(2 * baseline)
    elif kind == "non-finite":
        segment[rng.random(segment.size) < 0.1] = np.nan
        baseline[rng.random(n) < 0.1] = np.nan
        segment[rng.random(segment.size) < 0.05] = np.inf
        baseline[rng.random(n) < 0.05] = -np.inf
    return segment, baseline


class TestKsTwoSample:
    def test_identical_samples(self):
        res = ks_two_sample([1, 2, 3], [1, 2, 3])
        assert res.d == 0.0
        assert res.p_raw == 1.0

    def test_disjoint_supports(self):
        res = ks_two_sample([0, 0, 0], [1, 1, 1])
        assert res.d == 1.0
        assert res.p_raw < 0.2

    def test_half_overlap(self):
        # brute-force sup over the 8 pooled points gives exactly 0.5
        assert brute_force_ks_d([1, 2, 3, 4], [3, 4, 5, 6]) == 0.5
        res = ks_two_sample([1, 2, 3, 4], [3, 4, 5, 6])
        assert res.d == pytest.approx(0.5, abs=1e-15)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n1 = int(rng.integers(1, 40))
            n2 = int(rng.integers(1, 40))
            a = rng.normal(size=n1)
            b = rng.normal(loc=rng.uniform(-1, 1), size=n2)
            res = ks_two_sample(a, b)
            assert abs(res.d - brute_force_ks_d(a, b)) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=31)
        b = rng.normal(size=17)
        assert ks_two_sample(a, b).d == ks_two_sample(b, a).d

    def test_rank_invariance(self):
        # d is a rank statistic: any strictly increasing transform preserves it
        rng = np.random.default_rng(11)
        a = rng.normal(size=25)
        b = rng.normal(loc=0.5, size=30)
        d0 = ks_two_sample(a, b).d
        for f in (np.exp, np.tanh, lambda v: v**3):
            assert ks_two_sample(f(a), f(b)).d == pytest.approx(d0, abs=1e-15)

    @pytest.mark.parametrize("kind", ["normal", "rounded", "pinned", "integer", "non-finite"])
    def test_stacked_windows_match_pooled_point_formula(self, kind):
        # the one-sort scan must give every window's d and p to the bit
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(40):
            segment, baseline = ks_case(rng, kind)
            window = int(rng.integers(1, segment.size + 1))
            windows = sliding_window_view(segment, window)[:: int(rng.integers(1, 6))]
            res = ks_two_sample(windows, baseline)
            assert res.d.shape == res.p_raw.shape == (len(windows),)
            for i, w in enumerate(windows):
                assert (res.d[i], res.p_raw[i]) == pooled_point_ks(w, baseline)

    @pytest.mark.parametrize("kind", ["normal", "rounded", "pinned", "non-finite"])
    def test_one_sample_call_matches_pooled_point_formula(self, kind):
        # the do-equivalence check splits one series at the onset
        rng = np.random.default_rng(100 + len(kind))
        for _ in range(40):
            col = np.concatenate(ks_case(rng, kind))
            onset = int(rng.integers(1, col.size))
            res = ks_two_sample(col[:onset], col[onset:])
            assert type(res.d) is float and type(res.p_raw) is float
            assert (res.d, res.p_raw) == pooled_point_ks(col[:onset], col[onset:])

    def test_three_dimensional_sample_rejected(self):
        with pytest.raises(ValueError, match="2-D stack"):
            ks_two_sample(np.zeros((2, 2, 2)), [1.0])

    def test_pvalue_matches_kolmogorov_limit(self):
        # the series must agree with the Kolmogorov survival function
        # Q(lambda) at lambda = d * sqrt(n1 n2 / (n1 + n2))
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=int(rng.integers(20, 120)))
            b = rng.normal(loc=rng.uniform(0, 1), size=int(rng.integers(20, 120)))
            ours = ks_two_sample(a, b)
            lam = ours.d * math.sqrt(a.size * b.size / (a.size + b.size))
            assert ours.p_raw == pytest.approx(float(kolmogorov(lam)), abs=1e-10)


def normal_two_sided(z: float) -> float:
    """The two-sided normal tail of one z, as `stats._fisher_z` takes it."""
    return math.erfc(abs(z) * _SQRT1_2)


def fisher_z_of(r, dof):
    """The z that `stats._fisher_z` tests for correlations r, |r| < 1."""
    return np.arctanh(r) * math.sqrt(dof)


class TestNormalTail:
    def test_matches_mpmath_oracle(self):
        # relative error of p within 3 times what rounding x = |z| / sqrt(2)
        # alone causes, (2 x^2 + 1) u, against erfc at 50 digits, for z in
        # [0, 37.5], where the true p is a normal double (>= DBL_MIN)
        rng = np.random.default_rng(2024)
        dof = 10_000
        z = np.concatenate([np.linspace(0.0, 37.5, 2001), rng.uniform(0.0, 37.5, 2000)])
        r = np.tanh(z / math.sqrt(dof))
        r[1::2] *= -1.0
        got_r, p = stats._fisher_z(r, np.ones(r.size), 1.0, 1.0, 1.0, dof)
        assert np.array_equal(got_r, r)
        zs = fisher_z_of(r, dof)
        assert np.abs(zs).max() <= 37.5 and np.count_nonzero(np.abs(zs) > 37.0) > 10
        with mpmath.workdps(50):
            for zv, pv in zip(zs.tolist(), p.tolist()):
                x = abs(zv) / math.sqrt(2.0)
                want = mpmath.erfc(abs(mpmath.mpf(zv)) / mpmath.sqrt(2))
                rel = abs((mpmath.mpf(pv) - want) / want)
                assert rel <= 3.0 * (2.0 * x * x + 1.0) * 2.0**-53, (zv, pv)
        # r = +-0 gives z = +-0 and p = 1, r = +-1 gives z = +-inf and p = 0,
        # and NaN gives NaN
        _, p = stats._fisher_z(np.array([0.0, -0.0, 1.0, -1.0, np.nan]), np.ones(5), 1.0, 1.0, 1.0, dof)
        assert p[:4].tolist() == [1.0, 1.0, 0.0, 0.0] and np.isnan(p[4])

    def test_fisher_z_same_bits_either_side_of_dispatch(self):
        # a test's p does not depend on the size of the call, at the sizes
        # either side of where an earlier tail switched implementations too
        rng = np.random.default_rng(77)
        for size in (1, 149, 150, 2000):
            cov = rng.normal(size=size) * rng.choice([0.01, 0.3, 3.0], size)
            sx = np.ones(size)
            sx[::7] = 0.0  # degenerate: r = 0, p = 1
            cov[3::11] = 1.0  # saturated: |r| = 1, p = 0
            ones = np.ones(size)
            r, p = stats._fisher_z(cov, sx, 1.0, ones, 1.0, 40)
            assert (p[::7] == 1.0).all() and (p[3::11][sx[3::11] > 0.0] == 0.0).all()
            for i in range(size):
                alone = stats._fisher_z(cov[i : i + 1], sx[i : i + 1], 1.0, ones[i : i + 1], 1.0, 40)
                assert bits(r[i], p[i]) == bits(alone[0][0], alone[1][0]), (size, i)
        # and the tail keeps the shape of a stack of tests
        r2, p2 = stats._fisher_z(cov.reshape(40, 50), sx.reshape(40, 50), 1.0, 1.0, 1.0, 40)
        assert bits(*r2.ravel(), *p2.ravel()) == bits(*r, *p)

    def test_batch_fisher_z_p_is_the_tail_of_its_z(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(120, 40))
        y = rng.normal(size=120) + x @ rng.uniform(-0.3, 0.3, 40)
        r, p = batch_ci(x, y)
        want = [normal_two_sided(z) for z in fisher_z_of(r, 120 - 3).tolist()]
        assert bits(*p) == bits(*want)


class TestPartialCorrelation:
    def test_perfect_dependence(self):
        x = np.arange(20.0)
        res = ci_test(x, x)
        assert res.r == pytest.approx(1.0, abs=1e-12)
        assert res.p < 1e-12

    def test_empty_conditioning_equals_plain_correlation(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = rng.normal(size=40)
            y = rng.normal(size=40) + 0.3 * x
            assert ci_test(x, y).r == pytest.approx(
                np.corrcoef(x, y)[0, 1], abs=1e-12
            )

    def test_conditioning_removes_common_cause(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=2000)
        x = 0.9 * z + 0.2 * rng.normal(size=2000)
        y = 0.9 * z + 0.2 * rng.normal(size=2000)
        assert abs(ci_test(x, y).r) > 0.8
        assert abs(ci_test(x, y, given=(z,)).r) < 0.1

    def test_degenerate_constant_series(self):
        x = np.ones(30)
        y = np.random.default_rng(0).normal(size=30)
        res = ci_test(x, y)
        assert res.r == 0.0
        assert res.p == 1.0

    def test_fisher_zero_r(self):
        # a column in the span of the conditioning set is degenerate: r = 0
        # takes Fisher's z to 0 and p to 1
        rng = np.random.default_rng(4)
        z1, z2, y = rng.normal(size=(3, 100))
        res = ci_test(2.0 - z1 + 0.5 * z2, y, given=(z1, z2))
        assert res.r == 0.0
        assert res.p == 1.0

    def test_insufficient_sample(self):
        # n must exceed |Z| + 3
        rng = np.random.default_rng(5)
        x, y, z1, z2 = rng.normal(size=(4, 5))
        with pytest.raises(ValueError, match="insufficient sample"):
            ci_test(x, y, given=(z1, z2))

    def test_size_under_null(self):
        # independent standard normals, n=1000: rejection rate at alpha=0.05
        # should sit in [0.03, 0.07] over 1000 seeded trials
        rng = np.random.default_rng(2024)
        rejections = 0
        for _ in range(1000):
            x = rng.standard_normal(1000)
            y = rng.standard_normal(1000)
            if ci_test(x, y).p <= 0.05:
                rejections += 1
        assert 0.03 <= rejections / 1000 <= 0.07


def _reference_residualize(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Residual of v after least-squares projection onto [intercept, z]."""
    if z.shape[1] == 0:
        return v - v.mean()
    design = np.column_stack([np.ones(v.shape[0]), z])
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    return v - design @ coef


def reference_fisher_z_test(r: float, n: int, n_cond: int) -> CiTestResult:
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
    return CiTestResult(r=float(r), p=normal_two_sided(zval))


def reference_ci_test(x, y, given=()) -> CiTestResult:
    """The scalar CI test as it stood before `ci_test` became a one-column
    call of `batch_ci`: one least-squares solve per residualized series,
    its own degeneracy rule, and Fisher's z through `math.atanh`. Kept as
    the oracle that both `batch_ci` and `ci_test` are checked against."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("series must have equal length")
    cols = [np.asarray(g, dtype=float).ravel() for g in given]
    for c in cols:
        if c.shape != x.shape:
            raise ValueError("conditioning series must match the sample length")
    z = np.column_stack(cols) if cols else np.empty((x.size, 0))
    rx = _reference_residualize(x, z)
    ry = _reference_residualize(y, z)
    sx = float(np.linalg.norm(rx))
    sy = float(np.linalg.norm(ry))
    nx = float(np.linalg.norm(x - x.mean()))
    ny = float(np.linalg.norm(y - y.mean()))
    if sx <= _DEGENERATE_TOL * max(1.0, nx) or sy <= _DEGENERATE_TOL * max(1.0, ny):
        return reference_fisher_z_test(0.0, n=x.size, n_cond=len(cols))
    r = float(np.clip(rx @ ry / (sx * sy), -1.0, 1.0))
    return reference_fisher_z_test(r, n=x.size, n_cond=len(cols))


def reference_batch_marginal_ci(x_matrix, y):
    """The marginal batch kernel as it stood before `batch_ci` took its
    place, kept as the bitwise reference for the empty conditioning set."""
    x = np.asarray(x_matrix, dtype=float)
    yv = np.asarray(y, dtype=float).ravel()
    n = yv.size
    xc = x - x.mean(axis=0)
    yc = yv - yv.mean()
    sx = np.linalg.norm(xc, axis=0)
    sy = float(np.linalg.norm(yc))
    ok = (sx > _DEGENERATE_TOL) & (sy > _DEGENERATE_TOL)
    r = np.zeros(x.shape[1])
    np.divide(xc.T @ yc, sx * sy, out=r, where=ok)
    r = np.clip(r, -1.0, 1.0)
    saturated = np.abs(r) >= 1.0
    zval = np.arctanh(np.where(saturated, 0.0, r)) * math.sqrt(n - 3)
    if np.any(saturated):
        zval[saturated] = np.sign(r[saturated]) * np.inf
    p = np.array([normal_two_sided(z) for z in zval.tolist()])
    p = np.where(ok, p, 1.0)
    return r, p


def batch_case(rng, n, n_cond):
    """Columns to test against y given n_cond conditioning series: dependent
    and independent ones, a pinned-constant one, and two exactly collinear
    with the conditioning set (constants when it is empty), the second at a
    scale where only a tolerance relative to the column's norm finds it
    degenerate."""
    z = rng.normal(size=(n, n_cond))
    x = rng.normal(size=(n, 8))
    x[:, 1] += 0.8 * z.sum(axis=1)
    x[:, 2] = 4.25
    x[:, 3] = 3.0 - z @ np.arange(1.0, n_cond + 1) if n_cond else -1.5
    x[:, 4] = 1e7 * (0.1 + z.sum(axis=1) if n_cond else 0.1)
    y = rng.normal(size=n) + 0.6 * x[:, 0] + 0.5 * z.sum(axis=1)
    return x, y, list(z.T)


class TestBatchCi:
    @staticmethod
    def assert_matches_ci_test(x, y, given):
        """batch_ci over the columns, and ci_test on each, against the
        scalar reference: |dr|, |dp| <= 1e-12 and the same decisions."""
        r, p = batch_ci(x, y, given=given)
        one = [ci_test(x[:, j], y, given=given) for j in range(x.shape[1])]
        ref = [reference_ci_test(x[:, j], y, given=given) for j in range(x.shape[1])]
        ref_r = np.array([res.r for res in ref])
        ref_p = np.array([res.p for res in ref])
        for got_r, got_p in ((r, p), ([res.r for res in one], [res.p for res in one])):
            assert np.max(np.abs(got_r - ref_r)) <= 1e-12
            assert np.max(np.abs(got_p - ref_p)) <= 1e-12
            assert np.array_equal(np.asarray(got_p) <= 0.05, ref_p <= 0.05)
        return r, p

    @pytest.mark.parametrize("n_cond", [0, 1, 2, 3])
    def test_matches_ci_test_per_column(self, n_cond):
        rng = np.random.default_rng(40 + n_cond)
        for n in (n_cond + 4, n_cond + 9, 120):
            x, y, given = batch_case(rng, n, n_cond)
            r, p = self.assert_matches_ci_test(x, y, given)
            # the pinned and the collinear columns are degenerate
            assert (r[2:5] == 0.0).all() and (p[2:5] == 1.0).all()

    @pytest.mark.parametrize("n_cond", [0, 1, 2, 3])
    def test_y_collinear_with_given(self, n_cond):
        rng = np.random.default_rng(50 + n_cond)
        x, _, given = batch_case(rng, 60, n_cond)
        y = np.full(60, 2.0)
        for w, g in zip(np.linspace(1.0, -0.5, n_cond), given):
            y += w * g
        r, p = self.assert_matches_ci_test(x, y, given)
        assert not r.any() and (p == 1.0).all()

    @pytest.mark.parametrize("n_cond", [0, 1, 2, 3])
    def test_smallest_sample(self, n_cond):
        rng = np.random.default_rng(60 + n_cond)
        x, y, given = batch_case(rng, n_cond + 3, n_cond)
        with pytest.raises(ValueError, match=f"n={n_cond + 3} requires n > {n_cond + 3}"):
            batch_ci(x, y, given=given)
        with pytest.raises(ValueError, match="insufficient sample"):
            ci_test(x[:, 0], y, given=given)

    @pytest.mark.parametrize("n_cond", [0, 1, 3])
    def test_ci_test_is_the_one_column_call_bitwise(self, n_cond):
        rng = np.random.default_rng(80 + n_cond)
        x, y, given = batch_case(rng, 40, n_cond)
        for j in range(x.shape[1]):
            r, p = batch_ci(x[:, [j]], y, given=given)
            res = ci_test(x[:, j], y, given=given)
            assert type(res.r) is float and type(res.p) is float
            assert (res.r, res.p) == (r[0], p[0])

    def test_constant_column_matches_reference(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(60, 4))
        x[:, 2] = 1.5  # constant column
        y = rng.normal(size=60) + 0.5 * x[:, 0]
        r, p = self.assert_matches_ci_test(x, y, [])
        assert r[2] == 0.0 and p[2] == 1.0

    def test_empty_set_is_the_marginal_kernel_bitwise(self):
        rng = np.random.default_rng(70)
        for n, k in ((4, 3), (60, 8), (240, 50)):
            x = rng.normal(size=(n, k))
            x[:, 1] = 2.5
            y = rng.normal(size=n) + x @ rng.uniform(-0.3, 0.3, k)
            r, p = batch_ci(x, y)
            ref_r, ref_p = reference_batch_marginal_ci(x, y)
            assert np.array_equal(r.view(np.int64), ref_r.view(np.int64))
            assert np.array_equal(p.view(np.int64), ref_p.view(np.int64))

    def test_mismatched_conditioning_series(self):
        x = np.zeros((10, 2))
        with pytest.raises(ValueError, match="conditioning series"):
            batch_ci(x, np.arange(10.0), given=[np.arange(9.0)])
        with pytest.raises(ValueError, match="equal length, got 9 and 10"):
            ci_test(np.arange(9.0), np.arange(10.0))
        with pytest.raises(ValueError, match="2-D"):
            batch_ci(np.zeros(10), np.arange(10.0))



class TestMarginalCi:
    def test_rows_are_batch_ci_bitwise(self):
        rng = np.random.default_rng(71)
        for n, k in ((4, 3), (60, 8), (112, 400)):
            x = rng.normal(size=(n, k))
            x[:, 1] = 2.5
            ys = [rng.normal(size=n) + x @ rng.uniform(-0.3, 0.3, k) for _ in range(4)]
            ys.append(np.full(n, -1.0))  # a constant series is degenerate everywhere
            ys.append(x[:, 0].copy())  # and a copy of a column saturates its r
            r, p = marginal_ci(x, ys)
            assert r.shape == p.shape == (len(ys), k)
            for i, y in enumerate(ys):
                want_r, want_p = batch_ci(x, y)
                assert np.array_equal(r[i].view(np.int64), want_r.view(np.int64))
                assert np.array_equal(p[i].view(np.int64), want_p.view(np.int64))
            assert not r[-2].any() and (p[-2] == 1.0).all()

    def test_invalid_input(self):
        with pytest.raises(ValueError, match="n=3 requires n > 3"):
            marginal_ci(np.zeros((3, 2)), [np.arange(3.0)])
        with pytest.raises(ValueError, match="equal length, got 10 and 9"):
            marginal_ci(np.zeros((10, 2)), [np.arange(10.0), np.arange(9.0)])
        with pytest.raises(ValueError, match="2-D"):
            marginal_ci(np.zeros(10), [np.arange(10.0)])


UNIT_ROUNDOFF = 2.0**-53


def centered_gram(columns):
    """The cross products of the centered columns, as `CiOracle` builds them."""
    c = np.column_stack(columns)
    c -= c.mean(axis=0)
    return c.T @ c


def one_block_ci(gram, x, y, given, n) -> CiTestResult | None:
    """The test of column x against column y given the columns `given`, as
    a one-block `stacked_gram_ci` call on the block of `gram` on
    [x, y, *given]; None where the kernel declines the block."""
    idx = [x, y, *given]
    (r,), (p,), (answered,) = stacked_gram_ci(gram[np.ix_(idx, idx)][np.newaxis], n)
    return CiTestResult(r=float(r), p=float(p)) if answered else None


def gram_error_bound(gram, x, y, given, n) -> tuple[float, float]:
    """`stacked_gram_ci`'s stated bound on one test against the least-squares
    kernel: |delta r| <= 2 k^2 gamma_(n+k) / rho_min and |delta z| <=
    sqrt(n - k - 1) |delta r| / rho_min, rho_min being the block's smallest
    relative residual variance."""
    idx = [x, y, *given]
    k = len(idx)
    block = gram[np.ix_(idx, idx)]
    rho_min = float((1.0 / (np.diagonal(np.linalg.inv(block)) * np.diagonal(block))).min())
    m = (n + k) * UNIT_ROUNDOFF
    dr = 2 * k * k * (m / (1 - m)) / rho_min
    return dr, math.sqrt(n - k - 1) * dr / rho_min


def assert_within_gram_bound(got, ref, gram, x, y, given, n) -> float:
    """Assert that a Gram-route result is within its stated bound of the
    reference result `ref`; returns the bound on |delta p| it implies."""
    dr, dz = gram_error_bound(gram, x, y, given, n)
    assert abs(got.r - ref.r) <= dr
    dof = math.sqrt(n - len(given) - 3)
    z, z_ref = math.atanh(got.r) * dof, math.atanh(ref.r) * dof
    assert abs(z - z_ref) <= dz
    # p = 2 Phi(-|z|) moves by at most 2 phi |delta z|, phi taken at the
    # smaller |z| in reach; the relative 1e-12 takes in the tails' last bits
    z_lo = max(0.0, abs(z_ref) - dz)
    dp = 2.0 * math.exp(-0.5 * z_lo * z_lo) / math.sqrt(2.0 * math.pi) * dz + 1e-12 * ref.p
    assert abs(got.p - ref.p) <= dp
    return dp


def gram_case(rng, n):
    """Named columns of one pooled sample: the failure indicator f, KPIs that
    shift with it, iid ones, and the shapes of derived KPIs: an exact copy,
    an affine combination of two KPIs (as in the equivalence tests'
    collinear-25 case), a pinned constant, and a copy plus 1e-9 noise."""
    f = np.repeat([0.0, 1.0], n // 2)
    base = rng.standard_normal((n, 6))
    base[:, :3] += np.outer(f, [1.0, 0.6, 0.4])
    base[:, 1] += 0.5 * base[:, 0]
    columns = {f"k{j}": base[:, j] for j in range(6)}
    columns["copy"] = base[:, 0].copy()
    columns["affine"] = 2.0 * base[:, 0] - 0.5 * base[:, 1] + 1.0
    columns["const"] = np.full(n, 5.0)
    columns["near"] = base[:, 0] + 1e-9 * rng.standard_normal(n)
    columns["f"] = f
    return columns


def well_conditioned_case():
    """A pooled sample of 960 rows: ten KPIs that shift with the failure
    indicator f, four of them leaning on the first, and their centered
    Gram, f last."""
    rng = np.random.default_rng(92)
    n = 960
    f = np.repeat([0.0, 1.0], n // 2)
    x = rng.standard_normal((n, 10)) + np.outer(f, rng.uniform(0.0, 1.5, 10))
    x[:, 1:5] += 0.7 * x[:, [0]]
    return x, f, centered_gram([*x.T, f])


# (x, given, whether the Gram kernel declines the block): each derived
# shape in the conditioning set, and as the tested series itself
GRAM_CASES = [
    ("k1", ("k0",), False),
    ("k0", ("k1", "k2"), False),
    ("k2", ("k0", "k1", "k3"), False),
    ("k4", ("k0", "k5", "k1"), False),
    ("k1", ("k0", "copy"), True),
    ("copy", ("k0",), True),
    ("k2", ("k0", "k1", "affine"), True),
    ("affine", ("k1", "k0"), True),
    ("k1", ("const",), True),
    ("k1", ("k0", "const", "k2"), True),
    ("const", ("k0",), True),
    ("k1", ("near", "k0"), True),
    ("near", ("k0",), True),
]


class TestGramCi:
    def test_degenerate_blocks_take_the_least_squares_route(self):
        columns = gram_case(np.random.default_rng(91), 240)
        names = list(columns)
        gram = centered_gram(list(columns.values()))
        n, y = 240, names.index("f")
        declined = 0
        for x, given, guarded in GRAM_CASES:
            at = [names.index(s) for s in given]
            series = [columns[s] for s in given]
            r, p = batch_ci(columns[x].reshape(-1, 1), columns["f"], given=series)
            got = one_block_ci(gram, names.index(x), y, at, n)
            assert (got is None) == guarded, (x, given)
            if got is None:
                # the oracle's route for a declined block: batch_ci's bits
                declined += 1
                got = ci_test(columns[x], columns["f"], given=series)
                assert (got.r, got.p) == (r[0], p[0])
            else:
                ref = reference_ci_test(columns[x], columns["f"], given=series)
                assert_within_gram_bound(got, ref, gram, names.index(x), y, at, n)
                assert (got.p <= 0.05) == (p[0] <= 0.05)
            if x in ("copy", "affine", "const"):
                # a tested series that its set explains, or a constant
                assert (got.r, got.p) == (0.0, 1.0)
        assert declined == sum(guarded for *_, guarded in GRAM_CASES)

    def test_well_conditioned_blocks_never_fall_back(self):
        x, f, gram = well_conditioned_case()
        n = f.size
        for size in range(4):
            for subset in itertools.combinations(range(10), size + 1):
                xi, given = subset[0], list(subset[1:])
                got = one_block_ci(gram, xi, 10, given, n)
                assert got is not None, subset
                ref = reference_ci_test(x[:, xi], f, given=[x[:, j] for j in given])
                assert_within_gram_bound(got, ref, gram, xi, 10, given, n)

    def test_smallest_sample(self):
        gram = np.eye(5)
        for size in range(4):
            with pytest.raises(ValueError, match=f"n={size + 3} requires n > {size + 3}"):
                one_block_ci(gram, 0, 4, list(range(1, size + 1)), size + 3)


def reference_gram_ci(gram, x, y, given, n) -> CiTestResult | None:
    """The one-block Gram test as it stood before `stacked_gram_ci`: one
    2-D inverse and numpy's scalar powers. Kept as the bitwise reference
    for discovery's conditional p-values, on which the golden outputs
    rest."""
    idx = [x, y, *given]
    block = gram[np.ix_(idx, idx)]
    try:
        prec = np.linalg.inv(block)
    except np.linalg.LinAlgError:
        return None
    var = np.diagonal(block)
    scaled = np.diagonal(prec) * var
    if not ((scaled > 0.0) & (scaled <= 1.0 / stats._GRAM_FLOOR)).all():
        return None
    p00, p11, p01 = prec[0, 0], prec[1, 1], prec[0, 1]
    r, p = stats._fisher_z(
        np.array([-p01 / (p00 * p11)]),
        np.array([p00**-0.5]),
        np.array([p11**-0.5]),
        math.sqrt(var[0]),
        math.sqrt(var[1]),
        n - len(given) - 3,
    )
    return CiTestResult(r=float(r[0]), p=float(p[0]))


def bits(*values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def stacked_case(rng, tests, n, k):
    """A stack of MCI-shaped tests: each x leans on y, given series that
    both lean on; one x is collinear with its given set (a constant when k
    is 0), one y is constant and one x is pinned."""
    given = rng.normal(size=(tests, n, k))
    x = rng.normal(size=(tests, n)) + 0.5 * given.sum(axis=2)
    y = rng.normal(size=(tests, n)) + rng.uniform(-0.6, 0.6, (tests, 1)) * x + 0.4 * given.sum(axis=2)
    x[1] = 1.5 - given[1] @ np.arange(1.0, k + 1)
    y[2] = -2.0
    x[3] = 4.25
    return x, y, given


def mci_blocks(x, y, given):
    """The Gram blocks of a stacked_case, from each test's centered
    [x, y, *given] stack, as the subgraph's MCI builds them."""
    c = np.concatenate([x[:, np.newaxis], y[:, np.newaxis], given.transpose(0, 2, 1)], axis=1)
    c -= c.mean(axis=2, keepdims=True)
    return c @ c.transpose(0, 2, 1)


class TestStackedGramCi:
    def test_one_block_call_keeps_its_bits(self):
        _, _, gram = well_conditioned_case()
        blocks = 0
        for size in range(4):
            for subset in itertools.combinations(range(10), size + 1):
                xi, given = subset[0], list(subset[1:])
                got = one_block_ci(gram, xi, 10, given, 960)
                want = reference_gram_ci(gram, xi, 10, given, 960)
                assert bits(got.r, got.p) == bits(want.r, want.p), subset
                blocks += 1
        assert blocks == 385

    @staticmethod
    def assert_each_block_alone(blocks, n):
        """One stacked call; each block's r, p and answer bit for bit those
        of a stack holding that block alone."""
        r, p, answered = stacked_gram_ci(blocks, n)
        assert r.shape == p.shape == answered.shape == (len(blocks),)
        for i, block in enumerate(blocks):
            (r_alone,), (p_alone,), (answered_alone,) = stacked_gram_ci(block[np.newaxis], n)
            assert bits(r[i], p[i]) == bits(r_alone, p_alone), i
            assert answered[i] == answered_alone, i
        assert np.isnan(r[~answered]).all() and np.isnan(p[~answered]).all()
        return answered

    def test_each_block_as_if_alone(self):
        # every subset of one size of the well-conditioned sample, more than
        # _fisher_z's vector-tail threshold at three and four given, mixed
        # with blocks that hold a derived or constant column
        _, _, gram = well_conditioned_case()
        columns = gram_case(np.random.default_rng(93), 240)
        names = list(columns)
        derived = centered_gram(list(columns.values()))
        f = names.index("f")
        for size in range(4):
            subsets = list(itertools.combinations(range(10), size + 1))
            blocks = [gram[np.ix_(idx, idx)] for idx in ([s[0], 10, *s[1:]] for s in subsets)]
            declined = [
                (names.index(x), f, *(names.index(s) for s in given))
                for x, given, guarded in GRAM_CASES
                if guarded and len(given) == size
            ]
            # the derived blocks come from a sample of 240 rows, but the floor
            # does not depend on n, so they decline at 960 rows as well
            blocks[1:1] = [derived[np.ix_(idx, idx)] for idx in declined]
            answered = self.assert_each_block_alone(np.array(blocks), 960)
            assert answered.tolist() == [True] + [False] * len(declined) + [True] * (len(subsets) - 1)

    def test_singular_block_declines_only_itself(self):
        # a constant column makes its block exactly singular, and a batched
        # inverse then refuses the whole stack
        _, _, gram = well_conditioned_case()
        padded = np.zeros((12, 12))
        padded[:11, :11] = gram  # column 11 is a constant series
        stack = np.array([padded[np.ix_(idx, idx)] for idx in ([0, 10, 1], [2, 10, 11], [3, 10, 4])])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(stack)
        answered = self.assert_each_block_alone(stack, 960)
        assert answered.tolist() == [True, False, True]

    def assert_mci_stack(self, x, y, given, declined):
        """One stacked call on MCI-shaped tests. Exactly the blocks
        `declined` are declined, and each answered block is within the
        Gram bound of the scalar reference, on the same side of 0.05.
        Returns each declined test's batch_ci answer on the rows, by
        position."""
        n, k = given.shape[1:]
        blocks = mci_blocks(x, y, given)
        answered = self.assert_each_block_alone(blocks, n)
        assert np.flatnonzero(~answered).tolist() == declined
        r, p, _ = stacked_gram_ci(blocks, n)
        rows = {}
        for i in range(len(blocks)):
            ref = reference_ci_test(x[i], y[i], given=list(given[i].T))
            if answered[i]:
                got = CiTestResult(r=r[i], p=p[i])
                gram = centered_gram([x[i], y[i], *given[i].T])
                assert_within_gram_bound(got, ref, gram, 0, 1, list(range(2, k + 2)), n)
            else:
                (r_i,), (p_i,) = batch_ci(x[i, :, np.newaxis], y[i], given=list(given[i].T))
                got = rows[i] = CiTestResult(r=r_i, p=p_i)
                assert abs(got.r - ref.r) <= 1e-12 and abs(got.p - ref.p) <= 1e-12
            assert (got.p <= 0.05) == (ref.p <= 0.05), i
        return rows

    @pytest.mark.parametrize("k", [0, 1, 2, 4, 6])
    def test_mci_shapes(self, k):
        rng = np.random.default_rng(130 + k)
        for n in (k + 4, k + 9, 112):
            # the collinear x, the constant y and the pinned x are declined,
            # and degenerate on the rows
            rows = self.assert_mci_stack(*stacked_case(rng, 12, n, k), declined=[1, 2, 3])
            assert all((got.r, got.p) == (0.0, 1.0) for got in rows.values())

    def test_mci_collinear_conditioners(self):
        rng = np.random.default_rng(141)
        x, y, given = stacked_case(rng, 9, 80, 3)
        given[4, :, 2] = given[4, :, 0]  # a duplicated conditioner
        given[5, :, 1] = 3.0 - 2.0 * given[5, :, 0] + given[5, :, 2]  # a derived one
        # one at a scale where only a tolerance relative to the column's
        # norm finds it collinear
        given[6] *= 1e7
        given[6, :, 2] = given[6, :, 0] - 0.5 * given[6, :, 1]
        rows = self.assert_mci_stack(x, y, given, declined=[1, 2, 3, 4, 5, 6])
        # the rows answer the tests whose given set is rank-deficient
        assert all(rows[i].r != 0.0 and rows[i].p < 1.0 for i in (4, 5, 6))

    def test_not_a_stack(self):
        with pytest.raises(ValueError, match="stack"):
            stacked_gram_ci(np.eye(3), 10)
        with pytest.raises(ValueError, match="n=4 requires n > 4"):
            stacked_gram_ci(np.eye(3)[np.newaxis], 4)

    @pytest.mark.parametrize("k", [0, 2])
    def test_mci_smallest_sample(self, k):
        rng = np.random.default_rng(150 + k)
        with pytest.raises(ValueError, match=f"n={k + 3} requires n > {k + 3}"):
            stacked_gram_ci(mci_blocks(*stacked_case(rng, 4, k + 3, k)), k + 3)


class TestCorrections:
    def test_bonferroni_spec_example(self):
        assert bonferroni(np.full(60, 0.01))[0] == pytest.approx(0.6)

    def test_bonferroni_never_below_raw(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(size=50)
        assert np.all(bonferroni(p) >= p)

    def test_bh_spec_examples(self):
        assert (bh_adjust([0.01, 0.02, 0.04]) <= 0.05).all()
        assert not (bh_adjust([0.9, 0.8]) <= 0.05).any()

    def test_bh_against_direct_stepup_oracle(self):
        def stepup(p, q):
            p = np.asarray(p, dtype=float)
            m = p.size
            order = np.argsort(p, kind="stable")
            k_max = 0
            for k in range(1, m + 1):
                if p[order[k - 1]] <= k * q / m:
                    k_max = k
            mask = np.zeros(m, dtype=bool)
            mask[order[:k_max]] = True
            return mask

        rng = np.random.default_rng(8)
        for _ in range(100):
            p = rng.uniform(size=int(rng.integers(1, 30)))
            q = float(rng.uniform(0.01, 0.5))
            assert np.array_equal(bh_adjust(p) <= q, stepup(p, q))

    def test_bh_monotone_in_q(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(size=40)
        smaller = bh_adjust(p) <= 0.05
        larger = bh_adjust(p) <= 0.2
        assert np.all(larger[smaller])  # rejections only grow with q

    def test_bh_adjusted_at_least_raw(self):
        rng = np.random.default_rng(13)
        p = rng.uniform(size=25)
        assert np.all(bh_adjust(p) >= p - 1e-15)


class TestBinomialSd:
    def test_degenerate(self):
        assert binomial_sd(0.0, 10) == 0.0
        assert binomial_sd(1.0, 10) == 0.0

    def test_spot_value(self):
        assert binomial_sd(0.5, 25) == 0.1

    def test_published_row_value(self):
        # g=3 row with p=0.14 at n=20 evaluates to ~0.07759
        assert binomial_sd(0.14, 20) == pytest.approx(0.077589, abs=1e-6)

    def test_maximal_at_half(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [binomial_sd(p, 30) for p in grid]
        assert max(vals) == binomial_sd(0.5, 30)

    def test_decreasing_in_n(self):
        vals = [binomial_sd(0.3, n) for n in (5, 10, 20, 40, 80)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_sd(1.5, 10)
        with pytest.raises(ValueError):
            binomial_sd(0.5, 0)

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import kolmogorov, ndtr  # scipy is a test-only oracle

from rcseq import stats
from rcseq.stats import (
    _DEGENERATE_TOL,
    CiTestResult,
    _normal_two_sided,
    batch_ci,
    bh_adjust,
    binomial_sd,
    bonferroni,
    ci_test,
    direction_code,
    ks_pvalue,
    ks_two_sample,
    marginal_ci,
    screen_ci,
    stacked_ci,
    z_score,
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


_MAXLOG = 7.09782712893383996843e2

# Cephes switches form at |z| = 1, sqrt(2) and 8 sqrt(2), and returns 0 past
# sqrt(2 MAXLOG); each edge is tested with its neighbouring doubles
CEPHES_EDGES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * _MAXLOG))


def edge_points(edge, ulps=40):
    below, above = [edge], [edge]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below + above


class TestNormalTail:
    def test_matches_scipy_ndtr_bitwise(self):
        rng = np.random.default_rng(2024)
        z = np.concatenate(
            [
                rng.uniform(-40.0, 40.0, 40_000),
                rng.normal(size=30_000),
                rng.standard_cauchy(20_000),
                rng.uniform(-12.0, 12.0, 20_000),
                *(np.array(edge_points(edge)) for edge in CEPHES_EDGES),
                -np.array(edge_points(1.0)),
                [0.0, -0.0, np.inf, -np.inf, np.nan],
            ]
        )
        assert z.size >= 100_000
        ours = np.array([_normal_two_sided(v) for v in z.tolist()])
        ref = 2.0 * ndtr(-np.abs(z))
        finite = ~np.isnan(ref)
        assert np.array_equal(ours[finite].view(np.int64), ref[finite].view(np.int64))
        assert np.isnan(ours[~finite]).all()

    def test_vector_tail_matches_scalar_bitwise(self):
        rng = np.random.default_rng(2026)
        subnormal = np.array([5e-324, 1e-310, 2.2250738585072009e-308, np.finfo(float).tiny])
        z = np.concatenate(
            [
                rng.uniform(-40.0, 40.0, 400_000),
                rng.normal(size=300_000),
                rng.standard_cauchy(150_000),
                rng.uniform(-12.0, 12.0, 150_000),
                *(np.array(edge_points(edge)) for edge in CEPHES_EDGES),
                *(-np.array(edge_points(edge)) for edge in CEPHES_EDGES),
                subnormal,
                -subnormal,
                [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
            ]
        )
        assert z.size >= 1_000_000
        want = np.array([_normal_two_sided(v) for v in z.tolist()])
        got = stats._normal_tail(z)
        nan = np.isnan(z)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
        assert np.isnan(got[nan]).all() and np.isnan(want[nan]).all()
        # every branch is taken, and the tail keeps the input's shape
        x = np.abs(z) / math.sqrt(2.0)
        for branch in (x < math.sqrt(0.5), x < 1.0, x < 8.0, x >= 8.0, want == 0.0):
            assert branch.any()
        assert stats._normal_tail(z[:12].reshape(3, 4)).shape == (3, 4)

    def test_fisher_z_same_bits_either_side_of_dispatch(self, monkeypatch):
        rng = np.random.default_rng(77)
        for size in (1, stats._VECTOR_TAIL_MIN - 1, stats._VECTOR_TAIL_MIN, 2000):
            cov = rng.normal(size=size) * rng.choice([0.01, 0.3, 3.0], size)
            sx = np.ones(size)
            sx[::7] = 0.0  # degenerate: r = 0, p = 1
            cov[3::11] = 1.0  # saturated: |r| = 1, p = 0
            args = (cov, sx, 1.0, np.ones(size), 1.0, 40)
            monkeypatch.setattr(stats, "_VECTOR_TAIL_MIN", 0)
            vector = stats._fisher_z(*args)
            monkeypatch.setattr(stats, "_VECTOR_TAIL_MIN", size + 1)
            scalar = stats._fisher_z(*args)
            monkeypatch.undo()
            default = stats._fisher_z(*args)
            for got in (vector, default):
                for a, b in zip(got, scalar, strict=True):
                    assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_batch_fisher_z_p_matches_scipy_bitwise(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(120, 40))
        y = rng.normal(size=120) + x @ rng.uniform(-0.3, 0.3, 40)
        r, p = batch_ci(x, y)
        z = np.arctanh(r) * math.sqrt(120 - 3)
        assert np.array_equal(p, 2.0 * ndtr(-np.abs(z)))


class TestZScore:
    def test_spec_values(self):
        assert z_score(10, 10, 2) == 0.0
        assert direction_code(0.0, 3.0) == 0
        assert z_score(16, 10, 2) == 3.0
        assert direction_code(3.2, 3.0) == 1
        assert z_score(2, 10, 2) == -4.0
        assert direction_code(-4.0, 3.0) == -1

    def test_affine_equivariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            x, mu = rng.normal(size=2)
            sigma = rng.uniform(0.1, 5)
            a = rng.uniform(0.1, 10)
            b = rng.normal()
            assert z_score(a * x + b, a * mu + b, a * sigma) == pytest.approx(
                z_score(x, mu, sigma), rel=1e-10, abs=1e-10
            )

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            z_score(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            direction_code(1.0, 0.0)


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
    return CiTestResult(r=float(r), p=_normal_two_sided(zval))


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
    p = np.array([_normal_two_sided(z) for z in zval.tolist()])
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


def screen_case(rng, n, level):
    """batch_case's columns and y, with top = the level conditioning series
    followed by one more that y leans on."""
    x, y, given = batch_case(rng, n, level)
    return x, y, np.column_stack([*given, rng.normal(size=n) + 0.4 * y])


def reference_screen(x, y, top):
    """Every test one screening level makes, one scalar reference test each:
    the columns of x given top[:level], then each top[j], j < level, given
    the rest of top."""
    level = top.shape[1] - 1
    tests = [reference_ci_test(x[:, j], y, given=list(top[:, :level].T)) for j in range(x.shape[1])]
    tests += [
        reference_ci_test(top[:, j], y, given=[top[:, c] for c in range(level + 1) if c != j])
        for j in range(level)
    ]
    return np.array([t.r for t in tests]), np.array([t.p for t in tests])


class TestScreenCi:
    @staticmethod
    def assert_matches_reference(x, y, top):
        """screen_ci against the scalar reference: |dr|, |dp| <= 1e-12 and
        the same decisions at 0.05."""
        r, p = screen_ci(x, y, top)
        ref_r, ref_p = reference_screen(x, y, top)
        assert r.shape == p.shape == ref_r.shape
        assert np.max(np.abs(r - ref_r)) <= 1e-12
        assert np.max(np.abs(p - ref_p)) <= 1e-12
        assert np.array_equal(p <= 0.05, ref_p <= 0.05)
        m = x.shape[1]
        return r[:m], p[:m], r[m:], p[m:]

    @staticmethod
    def count_batch_ci(monkeypatch):
        calls = []

        def counted(x_matrix, y, given=()):
            calls.append(len(given))
            return batch_ci(x_matrix, y, given=given)

        monkeypatch.setattr(stats, "batch_ci", counted)
        return calls

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_matches_reference(self, monkeypatch, level):
        calls = self.count_batch_ci(monkeypatch)
        rng = np.random.default_rng(90 + level)
        for n in (level + 4, level + 9, 120):
            x, y, top = screen_case(rng, n, level)
            r, p, r_top, p_top = self.assert_matches_reference(x, y, top)
            # the pinned column, and the two collinear with top[:level]
            # (the second at 1e7 scale), are degenerate
            assert (r[2:5] == 0.0).all() and (p[2:5] == 1.0).all()
        # a full-rank top is answered from the one QR
        assert calls == []

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_y_in_span_of_top(self, level):
        rng = np.random.default_rng(100 + level)
        x, _, top = screen_case(rng, 60, level)
        # y is exactly explained by every member of top but top[1]
        weights = np.arange(level + 1) - 1.0
        y = 2.0 + top @ weights
        r, p, r_top, p_top = self.assert_matches_reference(x, y, top)
        leans = weights[:level] != 0.0
        assert (np.abs(r_top[leans]) >= 1.0 - 1e-12).all() and (p_top[leans] <= 1e-12).all()
        assert not r_top[~leans].any() and (p_top[~leans] == 1.0).all()
        if level == 1:  # y is in the span of [1, top[:level]] itself
            assert not r.any() and (p == 1.0).all()

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_rank_deficient_top_takes_the_grouped_route(self, monkeypatch, level):
        rng = np.random.default_rng(110 + level)
        x, y, top = screen_case(rng, 60, level)
        duplicate, derived = top.copy(), top.copy()
        duplicate[:, level] = top[:, level - 1]
        derived[:, level] = 3.0 - 2.0 * top[:, 0] + (top[:, 1] if level > 1 else 0.0)
        for case in (duplicate, derived):
            calls = self.count_batch_ci(monkeypatch)
            got = screen_ci(x, y, case)
            monkeypatch.undo()
            # one call for the columns, one per member of top[:level]
            assert calls == [level] * (level + 1)
            want = [batch_ci(x, y, given=list(case[:, :level].T))]
            want += [
                batch_ci(case[:, [j]], y, given=[case[:, c] for c in range(level + 1) if c != j])
                for j in range(level)
            ]
            for g, w in zip(got, zip(*want), strict=True):
                assert np.array_equal(g.view(np.int64), np.concatenate(w).view(np.int64))
            self.assert_matches_reference(x, y, case)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_smallest_sample(self, level):
        rng = np.random.default_rng(120 + level)
        x, y, top = screen_case(rng, level + 3, level)
        with pytest.raises(ValueError, match=f"n={level + 3} requires n > {level + 3}"):
            screen_ci(x, y, top)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length, got 10, 10 and 9"):
            screen_ci(np.zeros((10, 2)), np.arange(10.0), np.zeros((9, 2)))
        with pytest.raises(ValueError, match="2-D"):
            screen_ci(np.zeros((10, 2)), np.arange(10.0), np.zeros(10))


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


def stack(x, y, given):
    """The [1, S, x, y] stack stacked_ci takes."""
    ones = np.ones(x.shape + (1,))
    return np.concatenate([ones, given, x[:, :, None], y[:, :, None]], axis=2)


def reference_stacked(design):
    """Every test of a stack as one scalar reference test."""
    tests = [
        reference_ci_test(d[:, -2], d[:, -1], given=list(d[:, 1:-2].T)) for d in design
    ]
    return np.array([t.r for t in tests]), np.array([t.p for t in tests])


class TestStackedCi:
    @pytest.mark.parametrize("k", [0, 1, 2, 4, 6])
    def test_matches_reference(self, monkeypatch, k):
        calls = TestScreenCi.count_batch_ci(monkeypatch)
        rng = np.random.default_rng(130 + k)
        for n in (k + 4, k + 9, 112):
            design = stack(*stacked_case(rng, 12, n, k))
            r, p = stacked_ci(design)
            ref_r, ref_p = reference_stacked(design)
            assert np.max(np.abs(r - ref_r)) <= 1e-12
            assert np.max(np.abs(p - ref_p)) <= 1e-12
            assert np.array_equal(p <= 0.05, ref_p <= 0.05)
            # the collinear x, the constant y and the pinned x are degenerate
            assert (r[1:4] == 0.0).all() and (p[1:4] == 1.0).all()
        # full-rank conditioning sets are answered from the batched QR
        assert calls == []

    def test_batch_of_one_is_bitwise_the_stack(self):
        rng = np.random.default_rng(140)
        design = stack(*stacked_case(rng, 9, 60, 3))
        r, p = stacked_ci(design)
        for i in range(9):
            one_r, one_p = stacked_ci(design[i : i + 1])
            assert (one_r[0], one_p[0]) == (r[i], p[i])
        # a transposed view of the same stack gives the same bits
        view = np.ascontiguousarray(design.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert all(np.array_equal(a, b) for a, b in zip(stacked_ci(view), (r, p)))

    def test_collinear_member_takes_the_lstsq_route(self, monkeypatch):
        rng = np.random.default_rng(141)
        x, y, given = stacked_case(rng, 6, 80, 3)
        given[2, :, 2] = given[2, :, 0]  # a duplicated conditioner
        given[4, :, 1] = 3.0 - 2.0 * given[4, :, 0] + given[4, :, 2]  # a derived one
        # one at a scale where only a tolerance relative to the column's
        # norm finds it collinear
        given[5] *= 1e7
        given[5, :, 2] = given[5, :, 0] - 0.5 * given[5, :, 1]
        calls = TestScreenCi.count_batch_ci(monkeypatch)
        r, p = stacked_ci(stack(x, y, given))
        monkeypatch.undo()
        assert calls == [3, 3, 3]
        for i in (2, 4, 5):
            want_r, want_p = batch_ci(x[i, :, None], y[i], given=list(given[i].T))
            assert (r[i], p[i]) == (want_r[0], want_p[0])
        ref_r, ref_p = reference_stacked(stack(x, y, given))
        assert np.max(np.abs(r - ref_r)) <= 1e-12
        assert np.max(np.abs(p - ref_p)) <= 1e-12

    @pytest.mark.parametrize("k", [0, 2])
    def test_smallest_sample(self, k):
        rng = np.random.default_rng(150 + k)
        with pytest.raises(ValueError, match=f"n={k + 3} requires n > {k + 3}"):
            stacked_ci(stack(*stacked_case(rng, 4, k + 3, k)))

    def test_invalid_design(self):
        with pytest.raises(ValueError, match="tests, n, k"):
            stacked_ci(np.ones((10, 3)))
        with pytest.raises(ValueError, match="tests, n, k"):
            stacked_ci(np.ones((2, 10, 2)))
        design = np.ones((2, 10, 4))
        design[1, 3, 0] = 0.0
        with pytest.raises(ValueError, match="intercept"):
            stacked_ci(design)


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

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats as scipy_stats

from groupmatch import stats
from groupmatch.criteria import (
    _FLOOR_DF_MAX,
    FLOOR_MARGIN,
    CriteriaSet,
    CriterionSpec,
    MatchConfig,
    compute_r,
)
from groupmatch.dataset import Dataset
from groupmatch.errors import RegistrationError, UndefinedTestError
from groupmatch.search import greedy_search
from groupmatch.stats import (
    TestFunction,
    TestRegistry,
    anderson_darling,
    anderson_darling_p,
    register_test,
    student_t_sf,
    student_t_sf_array,
    welch_t,
    welch_t_p,
)


def make_battery(with_ad_separation=False):
    """Frozen battery of sample pairs spanning n in [3, 200], with and
    without ties."""
    rng = np.random.default_rng(20260401)
    pairs = []
    sizes = [(3, 5), (4, 4), (5, 9), (8, 30), (12, 12), (15, 40), (30, 25),
             (50, 50), (80, 120), (200, 150), (3, 200), (7, 7)]
    for i, (nx, ny) in enumerate(sizes):
        shift = rng.uniform(0.3, 0.9) if with_ad_separation else rng.uniform(0.0, 1.2)
        x = rng.normal(0.0, 1.0, nx)
        y = rng.normal(shift, rng.uniform(0.8, 1.5), ny)
        pairs.append((x, y))
        # tied variant: quantize to one decimal so duplicates appear
        pairs.append((np.round(x, 1), np.round(y, 1)))
    return pairs


def cpu_features() -> dict:
    """The CPU features numpy reports, each True when found and enabled."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


# a fixed grid of (t, df) pairs, computed in this process and in children
# that run with some of numpy's SIMD code paths disabled; it is built with
# arithmetic only, as np.geomspace's own bits change with those paths
TAIL_GRID = """
import numpy as np
from groupmatch.stats import student_t_sf_array
k = np.arange(1.0, 65.0)
df = [0.7]
while len(df) < 48:
    df.append(df[-1] * 1.45)
t, df = (g.ravel() for g in np.meshgrid(np.concatenate([k * k / 102.4, k / 6400.0]), df))
p = student_t_sf_array(t, df)
"""


class TestStudentTail:
    # down to stats._DF_MIN, the least df the tail takes
    DFS = (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.7, 13.3, 50.0, 98.0, 1600.0, 1e4,
           1e5, 1e6, 1e7)
    TS = (0.001, 0.05, 0.5, 1.0, 2.0, 4.0, 8.0, 30.0)

    @staticmethod
    def reference(t: float, df: float):
        """The two-sided tail I_x(df/2, 1/2), x = df/(df + t*t), at 40 digits."""
        with mpmath.workdps(40):
            t, df = mpmath.mpf(t), mpmath.mpf(df)
            return mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, df / (df + t * t),
                                  regularized=True)

    @pytest.mark.parametrize("df", DFS)
    def test_relative_error_against_mpmath(self, df):
        # what is left at large df sits at t ~ 2, in the continued fraction
        # as x nears 1
        bound = 1e-14 if df <= 100 else 1e-12 if df <= 1e4 else 1e-9
        got = student_t_sf_array(np.array(self.TS), np.full(len(self.TS), df))
        for t, p in zip(self.TS, got.tolist()):
            want = self.reference(t, df)
            assert float(abs((p - want) / want)) <= bound, (t, df)

    # df from 1 to 1e8: score floors (criteria.FLOOR_MARGIN) bound a set's
    # tail by the tail at the least df of its call
    ORDER_DFS = (1.0, 1.5, 3.7, 13.3, 50.0, 98.0, 400.0, 1600.0, 1e4, 1e5, 1e6, 1e7, 1e8)

    def test_tail_falls_as_df_grows(self):
        # what score floors rest on: for fixed |t|, P(|T_df| >= |t|) falls
        # as df grows.  The exact tail falls strictly; the array kernel (on
        # the whole grid, past its scalar hand-off) and the scalar kernel
        # keep that order up to the relative margin of 1e-8
        t, df = (g.ravel() for g in np.meshgrid(self.TS, self.ORDER_DFS, indexing="ij"))
        array = student_t_sf_array(t, df).reshape(len(self.TS), -1)
        for i, ti in enumerate(self.TS):
            want = [self.reference(ti, d) for d in self.ORDER_DFS]
            assert all(a > b for a, b in zip(want, want[1:])), ti
            scalar = [student_t_sf(ti, d) for d in self.ORDER_DFS]
            assert scalar == array[i].tolist()
            assert all(b <= a * (1 + 1e-8) for a, b in zip(scalar, scalar[1:])), ti

    def test_error_below_the_floor_margin_up_to_the_floor_df(self):
        # a set is ruled out by its t only at df <= criteria._FLOOR_DF_MAX,
        # where the kernel's error must stay far below FLOOR_MARGIN; it is
        # largest near t = 2, where the continued fraction needs the most
        # iterations, and grows with df
        bound = 1e-10
        assert FLOOR_MARGIN >= 50 * bound
        ts = np.linspace(1.0, 4.0, 61)
        for df in (1e4, _FLOOR_DF_MAX / 10, _FLOOR_DF_MAX):
            got = student_t_sf_array(ts, np.full(ts.size, df))
            for t, p in zip(ts.tolist(), got.tolist()):
                want = self.reference(t, df)
                assert float(abs((p - want) / want)) <= bound, (t, df)

    def test_bits_do_not_depend_on_simd_code_paths(self):
        found = cpu_features()
        if not (found.get("X86_V3") and found.get("X86_V4")):
            pytest.skip("numpy does not report X86_V3 and X86_V4 as found")
        scope = {}
        exec(TAIL_GRID, scope)
        src = str(Path(__file__).resolve().parents[1] / "src")
        for disabled in ("X86_V4", "X86_V3,X86_V4"):
            env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            child = TAIL_GRID + (
                "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
                f"assert not any(f[k] for k in {disabled.split(',')!r})\n"
                "import sys; sys.stdout.write(p.tobytes().hex())\n"
            )
            done = subprocess.run([sys.executable, "-c", child], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            assert bytes.fromhex(done.stdout) == scope["p"].tobytes(), disabled

    def test_scalar_domain(self, monkeypatch):
        assert student_t_sf(0.0, 3.0) == 1.0
        assert student_t_sf(-2.0, 7.5) == student_t_sf(2.0, 7.5)
        with pytest.raises(ValueError):
            student_t_sf(1.0, 0.0)
        with pytest.raises(ValueError):
            student_t_sf(math.nan, 3.0)
        assert np.isnan(student_t_sf_array(np.array([math.nan]), np.array([3.0]))).all()
        # t*t is subnormal: y z ratio^2 in the prefactor rounds to 0, and
        # the tail is 1 to double precision
        monkeypatch.setattr(stats, "_SCALAR_TAILS", 0)   # the array kernel too
        for t in (2.674432328170806e-162, 3e-162):
            assert student_t_sf(t, 1.0) == 1.0
            assert student_t_sf_array(np.array([t]), np.array([1.0]))[0] == 1.0
        # t*t / df overflows while x = df / (df + t*t) does not
        want = self.reference(1e154, 0.5)
        for p in (student_t_sf(1e154, 0.5),
                  student_t_sf_array(np.array([1e154]), np.array([0.5]))[0]):
            assert float(abs((p - want) / want)) <= 1e-13

    @pytest.mark.parametrize("scalar_tails", [32, 0], ids=["scalar", "array"])
    def test_df_not_finite_and_positive_is_rejected(self, scalar_tails, monkeypatch):
        # an infinite df would read 1.0 at every t (x = inf / inf, y = 0),
        # the array kernel read 0.0 at df = 0 (x = 0), and below the floor
        # p leaves [0, 1]: 1 + 4.4e-15 at t = 1, df = 1e-20
        floor = stats._DF_MIN
        for df in (math.inf, math.nan, 0.0, -2.0, 1e-300, 1e-20, floor * (1 - 1e-15)):
            with pytest.raises(ValueError, match="finite"):
                student_t_sf(2.0, df)
        monkeypatch.setattr(stats, "_SCALAR_TAILS", scalar_tails)
        t = np.array([2.0, 0.0, 2.0, 1.0, 2.0, 1.0, 1.0, 1.5, 0.0, 3.0, 1.0])
        df = np.array([math.inf, math.inf, math.nan, 0.0, -3.0, 1e-300, 1e-20,
                       7.0, 4.0, 12.5, floor])
        got = student_t_sf_array(t, df)
        assert np.isnan(got[:7]).all()
        assert got[7:].tobytes() == student_t_sf_array(t[7:], df[7:]).tobytes()
        assert got[7:].tolist() == [student_t_sf(a, b) for a, b in zip(t[7:], df[7:])]
        assert 0.0 <= got[-1] <= 1.0


class TestWelch:
    def test_identical_samples(self):
        res = welch_t(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_known_example(self):
        res = welch_t(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0, 3.0, 4.0, 5.0]))
        # closed form: t = -sqrt(6/5), df = 6 exactly
        assert res.statistic == pytest.approx(-math.sqrt(6.0 / 5.0), abs=1e-14)
        assert res.df == pytest.approx(6.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.3153335962012296, abs=1e-12)

    def test_against_scipy_battery(self):
        for x, y in make_battery():
            ref = scipy_stats.ttest_ind(x, y, equal_var=False).pvalue
            assert abs(welch_t_p(x, y) - ref) <= 1e-6

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            nx, ny = rng.integers(2, 40, 2)
            x = rng.normal(0, 1, nx)
            y = rng.normal(rng.uniform(-1, 1), 1, ny)
            assert welch_t_p(x, y) == welch_t_p(y, x)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            nx, ny = rng.integers(2, 40, 2)
            x = rng.normal(0, 1, nx)
            y = rng.normal(0.4, 1.3, ny)
            c = float(rng.uniform(-100, 100))
            assert abs(welch_t_p(x, y) - welch_t_p(x + c, y + c)) <= 1e-12

    def test_p_decreases_with_separation(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 25)
        y0 = rng.normal(0, 1, 30)
        previous = None
        for shift in np.linspace(0.0, 3.0, 13):
            p = welch_t_p(x - x.mean(), y0 - y0.mean() + shift)
            if previous is not None:
                assert p < previous
            previous = p

    def test_small_samples_rejected(self):
        with pytest.raises(UndefinedTestError):
            welch_t_p(np.array([1.0]), np.array([1.0, 2.0]))

    def test_constant_samples(self):
        assert welch_t_p(np.array([2.0, 2.0]), np.array([2.0, 2.0])) == 1.0
        with pytest.raises(UndefinedTestError):
            welch_t_p(np.array([2.0, 2.0]), np.array([3.0, 3.0]))

    def test_underflowing_df_is_undefined(self):
        # (var / n)^2 underflows to 0 in both samples, so df is 0 / 0
        x = np.arange(1.0, 5.0) * 1e-140
        y = np.arange(5.0, 9.0) * 1e-140
        with pytest.raises(UndefinedTestError):
            welch_t(x, y)
        with pytest.raises(UndefinedTestError):
            welch_t(np.full(4, 6.3e-115), np.array([6.3e-115, 6.3e-115 + 1e-129, 6.3e-115]))

    def test_underflowing_df_leaves_search_undefined(self):
        # the batch path defers such sets to welch_t, so a search sees every
        # state undefined instead of failing on a division by zero
        values = np.arange(1.0, 9.0)[:, None] * 1e-140
        d = Dataset([f"s{i}" for i in range(8)], ["A"] * 4 + ["B"] * 4, values, ["x"])
        config = MatchConfig(
            criteria=CriteriaSet((CriterionSpec("welch_t", "x", ("A", "B"), 0.2),)))
        with pytest.raises(UndefinedTestError, match="undefined on every state"):
            greedy_search(d, config)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_df_is_undefined(self):
        # (var / n)^2 overflows, so df is inf / inf
        x = np.array([1.0, 2.0, 3.0, 5.0]) * 1e150
        y = np.array([2.0, 4.0, 7.0, 1.0]) * 1e150
        with pytest.raises(UndefinedTestError, match="overflows"):
            welch_t(x, y)
        # the squared deviations themselves overflow
        with pytest.raises(UndefinedTestError, match="overflows"):
            welch_t(x * 1e10, y * 1e10)
        # (var / n)^2 stays finite in each sample, but se2^2 overflows: df
        # would be inf, where the tail reads 1.0 whatever t is (here -6.4)
        x = np.array([-1.9e77, 0.0, 1.9e77])
        with pytest.raises(UndefinedTestError, match="overflows"):
            welch_t(x, x + 1e78)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_df_leaves_search_undefined(self):
        # the batch path defers such sets to welch_t, so a search sees every
        # state undefined instead of failing on a NaN df
        values = np.array([1.0, 2.0, 3.0, 5.0, 2.0, 4.0, 7.0, 1.0])[:, None] * 1e150
        d = Dataset([f"s{i}" for i in range(8)], ["A"] * 4 + ["B"] * 4, values, ["x"])
        config = MatchConfig(
            criteria=CriteriaSet((CriterionSpec("welch_t", "x", ("A", "B"), 0.2),)))
        with pytest.raises(UndefinedTestError, match="undefined on every state"):
            greedy_search(d, config)

    def test_one_sided_zero_variance_matches_scipy(self):
        x = np.array([5.0, 5.0, 5.0])
        y = np.array([4.0, 6.0, 5.5, 4.5])
        ref = scipy_stats.ttest_ind(x, y, equal_var=False).pvalue
        assert abs(welch_t_p(x, y) - ref) <= 1e-9


class TestAndersonDarling:
    def test_identical_samples_high_p(self):
        s = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        res = anderson_darling([s, s.copy()])
        assert res.p_value > 0.25
        assert res.extrapolated  # statistic below the tabulated range

    def test_separated_samples_low_p(self):
        x = np.arange(1.0, 7.0)
        y = np.arange(101.0, 107.0)
        res = anderson_darling([x, y])
        assert res.p_value < 0.05
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = scipy_stats.anderson_ksamp([x, y])
        assert abs(res.standardized - ref.statistic) <= 1e-8

    def test_statistic_matches_scipy_battery(self):
        for x, y in make_battery():
            res = anderson_darling([x, y])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref = scipy_stats.anderson_ksamp([x, y])
            assert abs(res.standardized - ref.statistic) <= 1e-8

    def test_p_matches_scipy_in_tabulated_range(self):
        checked = 0
        for x, y in make_battery(with_ad_separation=True):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref = scipy_stats.anderson_ksamp([x, y])
            if not 0.001 < ref.pvalue < 0.25:
                continue
            checked += 1
            assert abs(anderson_darling_p([x, y]) - ref.pvalue) <= 1e-3
        assert checked >= 8

    def test_three_samples_match_scipy(self):
        rng = np.random.default_rng(9)
        groups = [rng.normal(0, 1, 40), rng.normal(0.5, 1, 50), rng.normal(0.2, 1.2, 30)]
        res = anderson_darling(groups)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = scipy_stats.anderson_ksamp(groups)
        assert abs(res.standardized - ref.statistic) <= 1e-8
        assert abs(res.p_value - ref.pvalue) <= 1e-3

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            nx, ny = rng.integers(2, 30, 2)
            x = rng.normal(0, 1, nx)
            y = rng.normal(0.5, 1, ny)
            assert abs(
                anderson_darling_p([x, y]) - anderson_darling_p([np.exp(x), np.exp(y)])
            ) <= 1e-12

    def test_degenerate_pooled_sample(self):
        with pytest.raises(UndefinedTestError):
            anderson_darling_p([np.array([1.0, 1.0]), np.array([1.0, 1.0])])

    def test_sample_too_small(self):
        with pytest.raises(UndefinedTestError):
            anderson_darling_p([np.array([1.0]), np.array([1.0, 2.0])])

    def test_extrapolated_tails_clamped(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, 60)
        y = rng.normal(40, 1, 70)
        res = anderson_darling([x, y])
        assert res.extrapolated
        assert 1e-12 <= res.p_value < 0.001
        near = anderson_darling([np.arange(10.0), np.arange(10.0) + 1e-3])
        assert near.extrapolated
        assert near.p_value == 1.0

    def test_memoised_tail_fit_is_bit_identical(self):
        # reference: the tail fit recomputed on every call
        from groupmatch import stats

        def p_refit(samples):
            res = anderson_darling(samples)
            m = len(samples) - 1
            percentiles = stats._AD_B0 + stats._AD_B1 / math.sqrt(m) + stats._AD_B2 / m
            fit = np.polyfit(percentiles, np.log(stats._AD_SIG), 2)
            at = res.standardized
            c2, c1, _ = fit
            vertex = -c1 / (2.0 * c2)
            at = max(at, vertex) if c2 < 0.0 else min(at, vertex)
            p = float(np.exp(np.polyval(fit, at)))
            return min(max(p, stats.AD_P_FLOOR), 1.0)

        rng = np.random.default_rng(31)
        battery = [[x, y] for x, y in make_battery(with_ad_separation=True)]
        battery += [[x, y, rng.normal(0.3, 1.0, 20)] for x, y in battery[:6]]
        for samples in battery * 2:
            assert anderson_darling_p(samples) == p_refit(samples)

    def test_memoised_null_variance_is_bit_identical(self):
        # reference: the null variance with its N-only sums h and g
        # recomputed on every call
        from groupmatch import stats

        def variance_refit(k, N, sizes):
            H = float(np.sum(1.0 / sizes))
            h = float((1.0 / np.arange(1, N)).sum())
            prefix = np.cumsum(1.0 / np.arange(N - 1, 1, -1))
            g = float(np.sum(prefix / np.arange(2, N)))
            a = (4 * g - 6) * (k - 1) + (10 - 6 * g) * H
            b = (2 * g - 4) * k**2 + 8 * h * k + (2 * g - 14 * h - 4) * H - 8 * h + 4 * g - 6
            c = (6 * h + 2 * g - 2) * k**2 + (4 * h - 4 * g + 6) * k + (2 * h - 6) * H + 4 * h
            d = (2 * h + 6) * k**2 - 4 * h * k
            return (a * N**3 + b * N**2 + c * N + d) / ((N - 1.0) * (N - 2.0) * (N - 3.0))

        rng = np.random.default_rng(41)
        battery = {k: [rng.integers(2, 300, size=k) for _ in range(30)]
                   for k in (2, 3, 4, 6)}
        battery[2] += [np.array([2, 2]), np.array([2000, 2000])]
        battery[3].append(np.array([2, 2, 2]))
        for k, cases in battery.items():
            sizes = np.array(cases, dtype=float)
            totals = sizes.sum(axis=1).astype(np.int64)
            want = np.array([variance_refit(k, int(N), s) for N, s in zip(totals, sizes)])
            for _ in range(2):      # first computed, then memoised
                got = [stats._ad_variance(k, int(N), s) for N, s in zip(totals, sizes)]
                assert np.array(got).tobytes() == want.tobytes()
            # the array form the batch kernel evaluates gives the same bits
            H = 1.0 / sizes[:, 0]
            for j in range(1, k):
                H = H + 1.0 / sizes[:, j]
            h, g = np.array([stats._ad_harmonic_sums(int(N)) for N in totals]).T
            got = stats._ad_variance_from(k, totals, H, h, g)
            assert got.tobytes() == want.tobytes()


class TestRegistryContract:
    def test_register_and_resolve(self):
        reg = TestRegistry()
        fn = TestFunction("always_half", "k_sample", lambda s: 0.5)
        reg.register(fn)
        assert reg.get("always_half") is fn
        assert "always_half" in reg

    def test_duplicate_rejected(self):
        reg = TestRegistry()
        with pytest.raises(RegistrationError):
            reg.register(TestFunction("welch_t", "two_sample", lambda s: 0.5))

    def test_builtin_names(self):
        reg = TestRegistry()
        assert reg.names() == ["anderson_darling", "welch_t"]

    def test_constant_test_through_compute_r(self):
        reg = TestRegistry()
        register_test("always_half", lambda s: 0.5, registry=reg)
        d = Dataset(
            ["a", "b", "c", "d"], ["A", "A", "B", "B"],
            [[1.0], [2.0], [3.0], [4.0]], ["x"],
        )
        crit = CriteriaSet((CriterionSpec("always_half", "x", ("A", "B"), 0.25),))
        assert compute_r(d, d.full_subset(), crit, reg) == pytest.approx(2.0)

    def test_two_sample_arity_enforced(self):
        fn = TestFunction("pairwise", "two_sample", lambda s: 0.5)
        with pytest.raises(UndefinedTestError):
            fn([np.array([1.0, 2.0])] * 3)

    def test_bad_p_rejected(self):
        fn = TestFunction("broken", "k_sample", lambda s: 1.5)
        with pytest.raises(UndefinedTestError):
            fn([np.array([1.0, 2.0]), np.array([3.0, 4.0])])

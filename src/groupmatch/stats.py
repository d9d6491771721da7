"""Statistical tests producing the p-values the matching criteria consume.

Two tests ship built in: Welch's unequal-variance t-test (means) and the
k-sample Anderson-Darling test (distributional shape).  Both are implemented
here from first principles; user-defined tests plug into the same registry
contract and are referenced by name from criteria.

Every test function is pure and deterministic.  When a test is undefined for
the given samples it raises :class:`UndefinedTestError` instead of fabricating
a p-value; search code treats such states as infeasible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import RegistrationError, UndefinedTestError

__all__ = [
    "BUILTIN_AD",
    "BUILTIN_WELCH",
    "TestFunction",
    "TestRegistry",
    "WelchResult",
    "ADResult",
    "default_registry",
    "student_t_sf",
    "student_t_sf_array",
    "welch_t",
    "welch_t_p",
    "anderson_darling",
    "anderson_darling_p",
    "anderson_darling_p_masks",
    "register_test",
]

# P-values from the Anderson-Darling tail fit are clamped into this range
# when the standardized statistic falls outside the published table.
AD_P_FLOOR = 1e-12

_INCBETA_EPS = 3e-16
_INCBETA_FPMIN = 1e-300
_INCBETA_MAX_ITER = 500
# At most this many continued fractions are cheaper one at a time in
# ``_incbeta_cf`` than in the array loop, which pays ~35 numpy calls per
# iteration until its slowest element converges.  So ``student_t_sf_array``
# calls ``student_t_sf`` per element for at most this many tails, and
# ``_incbeta_cf_array`` finishes in scalar code once this few are left open.
# Measured on a 2-core x86-64 VM (numpy 2.4), on (t, df) pairs the searches
# produce: 8 tails take 90-105 us one at a time against 280-440 us in the
# array kernel, 32 tails 330-410 us either way, 128 tails 1.0-1.7 ms
# against 0.46-0.76 ms.
_SCALAR_TAILS = 32
# The least df the Student t tail takes.  Below about 4e-16 the prefactor's
# y z ratio**2 underflows and p leaves [0, 1] (1 + 4.4e-15 at t = 1,
# df = 1e-20; 2.5e138 at df = 1e-300).  Against mpmath, for t from 1e-6 to
# 1e12, the relative error stays below 5e-15 for df from this floor to 1e-6.
_DF_MIN = 1e-12


def _incbeta_cf(a: float, b: float, x: float, state=None) -> float:
    """Continued fraction for the incomplete beta (modified Lentz).

    ``state`` = (m, c, d, h) resumes the fraction at iteration m from the
    c, d and h that iteration m - 1 left; without it the fraction starts at
    iteration 1.  Raises UndefinedTestError when it has not converged after
    ``_INCBETA_MAX_ITER`` iterations.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    if state is None:
        d = 1.0 - qab * x / qap
        if abs(d) < _INCBETA_FPMIN:
            d = _INCBETA_FPMIN
        d = 1.0 / d
        state = (1, 1.0, d, d)
    start, c, d, h = state
    for m in range(start, _INCBETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _INCBETA_FPMIN:
            d = _INCBETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _INCBETA_FPMIN:
            c = _INCBETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _INCBETA_FPMIN:
            d = _INCBETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _INCBETA_FPMIN:
            c = _INCBETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _INCBETA_EPS:
            return h
    raise UndefinedTestError(
        f"incomplete beta continued fraction did not converge in "
        f"{_INCBETA_MAX_ITER} iterations (a={a}, b={b}, x={x})"
    )


def _clamp_tiny(v: np.ndarray, scratch: np.ndarray) -> None:
    """``_incbeta_cf``'s clamp of |v| < _INCBETA_FPMIN up to _INCBETA_FPMIN,
    in place."""
    np.abs(v, out=scratch)
    if np.fmin.reduce(scratch) < _INCBETA_FPMIN:
        np.copyto(v, _INCBETA_FPMIN, where=scratch < _INCBETA_FPMIN)


def _incbeta_cf_array(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_incbeta_cf`` over arrays, in the same operation order, so every
    element that converges is bit-identical to the scalar result.  Elements
    still open after ``_INCBETA_MAX_ITER`` iterations are NaN.

    The arrays are updated in place.  The second half-step's coefficient is
    kept positive and subtracted, which gives the same bits as adding its
    negation.  An element is recorded when it first converges and then
    iterates on unread; the arrays are cut down to the open elements only
    once half of them have converged, since each cut copies every array.
    Once at most ``_SCALAR_TAILS`` elements are open, each goes on from the
    next iteration in ``_incbeta_cf``, where the same recurrence on Python
    floats gives the same bits."""
    out = np.full(x.shape, np.nan)
    if x.size == 0:
        return out
    active = np.arange(x.size)        # position in ``out`` of each element
    open_ = np.ones(x.size, dtype=bool)
    n_open = x.size
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones(x.shape)
    aa, am2, tmp = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    d = 1.0 - qab * x / qap
    _clamp_tiny(d, tmp)
    np.divide(1.0, d, out=d)
    h = d.copy()
    for m in range(1, _INCBETA_MAX_ITER + 1):
        m2 = 2 * m
        # aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        np.subtract(b, m, out=aa)
        aa *= m
        aa *= x
        np.add(a, m2, out=am2)
        np.add(qam, m2, out=tmp)
        tmp *= am2
        aa /= tmp
        # d = 1 / clamp(1 + aa * d); c = clamp(1 + aa / c); h *= d * c
        d *= aa
        d += 1.0
        _clamp_tiny(d, tmp)
        np.divide(1.0, d, out=d)
        np.divide(aa, c, out=c)
        c += 1.0
        _clamp_tiny(c, tmp)
        np.multiply(d, c, out=tmp)
        h *= tmp
        # aa = -((a + m) * (qab + m) * x / ((a + m2) * (qap + m2)))
        np.add(a, m, out=aa)
        np.add(qab, m, out=tmp)
        aa *= tmp
        aa *= x
        np.add(qap, m2, out=tmp)
        am2 *= tmp
        aa /= am2
        # d = 1 / clamp(1 - aa * d); c = clamp(1 - aa / c); h *= d * c
        d *= aa
        np.subtract(1.0, d, out=d)
        _clamp_tiny(d, tmp)
        np.divide(1.0, d, out=d)
        np.divide(aa, c, out=c)
        np.subtract(1.0, c, out=c)
        _clamp_tiny(c, tmp)
        delta = np.multiply(d, c, out=tmp)
        h *= delta
        delta -= 1.0
        done = np.abs(delta, out=delta) < _INCBETA_EPS
        done &= open_
        if done.any():
            out[active[done]] = h[done]
            open_ &= ~done
            n_open -= int(np.count_nonzero(done))
            if n_open <= _SCALAR_TAILS:
                rows = np.flatnonzero(open_)
                for i, ai, bi, xi, ci, di, hi in zip(
                        *(v[rows].tolist() for v in (active, a, b, x, c, d, h))):
                    try:
                        out[i] = _incbeta_cf(ai, bi, xi, (m + 1, ci, di, hi))
                    except UndefinedTestError:   # did not converge: stays NaN
                        pass
                break
            if 2 * n_open <= active.size:
                active, a, b, x, qab, qap, qam, c, d, h = (
                    v[open_] for v in (active, a, b, x, qab, qap, qam, c, d, h)
                )
                open_ = np.ones(n_open, dtype=bool)
                aa, am2, tmp = (np.empty(n_open) for _ in range(3))
    return out


# The Student t tail's prefactor is built from +, -, *, /, frexp, ldexp and
# rounding to an integer only.  IEEE 754 fixes the bits of each of these, so
# the tail is the same on every CPU, and the same on Python floats as on
# numpy arrays.  numpy's exp and log ufuncs would not do: they pick SIMD code
# by CPU, and their last bits differ with it.  The exp and log below are
# fdlibm's (e_exp.c, e_log.c, s_log1p.c), with its minimax coefficients.
_LN2_HI = 6.93147180369123816490e-01   # ln 2, low 21 bits zero: k * _LN2_HI is exact
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e+00
_EXP_P = (1.66666666666666019037e-01, -2.77777777770155933842e-03,
          6.61375632143793436117e-05, -1.65339022054652515390e-06,
          4.13813679705723846039e-08)
_LOG_LG = (6.666666666666735130e-01, 3.999999999940941908e-01,
           2.857142874366239149e-01, 2.222219843214978396e-01,
           1.818357216161805012e-01, 1.531383769920937332e-01,
           1.479819860511658591e-01)
_SQRT_HALF = 0.7071067811865476
_LGAMMA_HALF = 0.5723649429247001      # lgamma(1/2) = log(sqrt(pi)), rounded
_EXP_FLOOR = -2000.0                   # exp of anything lower is 0.0
_LEAST_POSITIVE = 5e-324               # the least positive (subnormal) double
# lgamma(z + 1/2) - lgamma(z) - log(z)/2 ~ sum of _STIRLING[j] / z**(2j+1):
# (-1)^n (2^(1-n) - 2) B_n / (n (n-1)) for even n.  At z >= 8.25 the first
# term left out is below 1e-16.
_STIRLING = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432,
             691 / 180224, -5461 / 425984, 929569 / 15728640)


class _Exact(NamedTuple):
    """The steps that are exact in IEEE 754, for Python floats or arrays."""

    frexp: Callable
    ldexp: Callable
    rint: Callable
    maximum: Callable


_SCALAR = _Exact(math.frexp, math.ldexp, round, max)
_ARRAY = _Exact(np.frexp, np.ldexp, lambda v: np.rint(v).astype(np.int64), np.maximum)


def _log(v, ops: _Exact, c=0.0):
    """log(v) + c / v for v > 0 and a correction c small against v.

    v = m * 2**k with m in [sqrt(1/2), sqrt(2)); log m = 2 atanh(s) with
    s = (m - 1) / (m + 1), as an odd series in s."""
    m, k = ops.frexp(v)
    low = m < _SQRT_HALF
    m = m + m * low
    k = k - low
    f = m - 1.0
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    lg1, lg2, lg3, lg4, lg5, lg6, lg7 = _LOG_LG
    r = w * (lg2 + w * (lg4 + w * lg6)) + z * (lg1 + w * (lg3 + w * (lg5 + w * lg7)))
    hfsq = 0.5 * f * f
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + (k * _LN2_LO + c / v))) - f)


def _log1p(u, ops: _Exact):
    """log(1 + u) for u >= 0: the log of v = 1 + u, corrected by the
    rounding error of that sum (Knuth's TwoSum)."""
    v = 1.0 + u
    vu = v - 1.0
    return _log(v, ops, (1.0 - (v - vu)) + (u - vu))


def _exp(v, ops: _Exact):
    """exp(v) for v up to 709: v = k ln 2 + r with |r| <= ln(2) / 2 in two
    parts (Cody and Waite), then a rational approximation of exp(r)."""
    v = ops.maximum(v, _EXP_FLOOR)
    k = ops.rint(v * _INV_LN2)
    hi = v - k * _LN2_HI
    lo = k * _LN2_LO
    r = hi - lo
    z = r * r
    p1, p2, p3, p4, p5 = _EXP_P
    c = r - z * (p1 + z * (p2 + z * (p3 + z * (p4 + z * p5))))
    return ops.ldexp(1.0 - ((lo - (r * c) / (2.0 - c)) - hi), k)


def _t_front(a, y, log_x, ops: _Exact):
    """x**a sqrt(y) / B(a, 1/2), the factor before the continued fraction
    in I_x(a, 1/2), for a > 0 and y = 1 - x > 0: the exp of
    lgamma(a + 1/2) - lgamma(a) - lgamma(1/2) + a log x + log(y) / 2.

    The lgamma difference at a is the one at z = a + 8, less the log of
    prod_{k<8} (a + k + 1/2) / (a + k); at z it is log(z) / 2 plus a
    Stirling series.  The product pairs k with 7 - k, as
    (a + k)(a + 7 - k) = a(a + 7) + k(7 - k).  log(y) / 2, log(z) / 2 and
    the log of the product are taken as one log, of y z / product**2.  A
    subnormal y (t*t near 1e-323) can round that to 0; it is raised to the
    least positive double, whose log gives a front below 1e-160 and so
    p = 1, as for t = 0, where log 0 would divide by zero."""
    q = a * (a + 7.0)
    ah = a + 0.5
    qh = ah * (ah + 7.0)
    ratio = (q * (q + 6.0) * (q + 10.0) * (q + 12.0)) / (
        qh * (qh + 6.0) * (qh + 10.0) * (qh + 12.0))
    z = a + 8.0
    iz = 1.0 / z
    w = iz * iz
    s1, s3, s5, s7, s9, s11, s13, s15 = _STIRLING
    series = iz * (s1 + w * (s3 + w * (s5 + w * (s7 + w * (s9 + w * (
        s11 + w * (s13 + w * s15)))))))
    return _exp(
        0.5 * _log(ops.maximum(y * z * ratio * ratio, _LEAST_POSITIVE), ops)
        + series - _LGAMMA_HALF + a * log_x,
        ops,
    )


def student_t_sf(t: float, df: float) -> float:
    """Two-sided survival probability P(|T_df| >= |t|), for finite t and
    finite df of at least ``_DF_MIN`` = 1e-12 (a smaller df raises
    ValueError, as one that is not finite does).

    This is I_x(df/2, 1/2) with x = df / (df + t*t), so the result depends
    on t only through t*t (exact sign symmetry).  x and 1 - x are both
    found by division and log x as -log1p(t*t / df), so neither loses
    digits to cancellation as df grows.  The prefactor uses only
    IEEE-exact steps (see ``_t_front``), and the continued fraction is the
    modified Lentz one of ``_incbeta_cf``, so the result is the same on
    every CPU and bit for bit that of ``student_t_sf_array``.  Raises
    UndefinedTestError when the continued fraction does not converge.
    """
    t, df = float(t), float(df)
    if not _DF_MIN <= df < math.inf:
        raise ValueError(f"degrees of freedom must be finite and >= {_DF_MIN}, got {df}")
    tt = t * t
    s = df + tt
    x = df / s
    y = tt / s
    if y == 0.0:
        return 1.0
    if x == 0.0:
        return 0.0
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"t and df must be finite, got t={t}, df={df}")
    u = tt / df
    # t*t / df overflows only for df < 1; log x is then found from x itself
    log_x = _log(x, _SCALAR) if u == math.inf else -_log1p(u, _SCALAR)
    a = 0.5 * df
    front = _t_front(a, y, log_x, _SCALAR)
    if x < (a + 1.0) / (a + 2.5):
        return front * _incbeta_cf(a, 0.5, x) / a
    return 1.0 - front * _incbeta_cf(0.5, a, y) / 0.5


def _tail_or_nan(t: float, df: float) -> float:
    """``student_t_sf``, NaN where it raises (a NaN t, or a continued
    fraction that does not converge)."""
    try:
        return student_t_sf(t, df)
    except (UndefinedTestError, ValueError):
        return math.nan


def student_t_sf_array(t: np.ndarray, df: np.ndarray) -> np.ndarray:
    """``student_t_sf`` elementwise over finite t and finite df of at least
    ``_DF_MIN`` = 1e-12.

    Each element is bit-identical to the scalar function: the prefactor
    runs the same IEEE-exact helpers on whole arrays (numpy's frexp, ldexp
    and rint where the scalar uses ``math.frexp``, ``math.ldexp`` and
    ``round``), with no per-element Python call, and the continued
    fraction runs in the same operation order.  Elements whose continued
    fraction does not converge (where the scalar function raises
    UndefinedTestError) are NaN, as are elements with a NaN t or a df that
    is not finite or is below ``_DF_MIN`` (where it raises ValueError).  At most
    ``_SCALAR_TAILS`` elements go through the scalar function instead,
    which is faster there and gives the same bits.
    """
    t, df = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(df, dtype=float))
    if t.size <= _SCALAR_TAILS:
        return np.array(
            [_tail_or_nan(a, b) for a, b in zip(t.ravel().tolist(), df.ravel().tolist())],
            dtype=float,
        ).reshape(t.shape)
    df = np.where((df >= _DF_MIN) & (df < math.inf), df, math.nan)   # NaN where the scalar raises
    tt = t * t
    s = df + tt
    x = df / s
    y = tt / s
    out = np.full(x.shape, np.nan)
    out[y == 0.0] = 1.0
    out[x == 0.0] = 0.0
    inner = (x > 0.0) & (y > 0.0)
    xs, ys, dfs = x[inner], y[inner], df[inner]
    with np.errstate(over="ignore"):   # t*t / df overflows only for df < 1
        u = tt[inner] / dfs
    over = np.isinf(u)
    u[over] = 0.0
    log_x = -_log1p(u, _ARRAY)
    if over.any():
        log_x[over] = _log(xs[over], _ARRAY)
    a = 0.5 * dfs
    front = _t_front(a, ys, log_x, _ARRAY)
    low = xs < (a + 1.0) / (a + 2.5)
    cf = _incbeta_cf_array(
        np.where(low, a, 0.5), np.where(low, 0.5, a), np.where(low, xs, ys)
    )
    front *= cf
    out[inner] = np.where(low, front / a, 1.0 - front / 0.5)
    return out


@dataclass(frozen=True)
class WelchResult:
    statistic: float
    df: float
    p_value: float


def _as_sample(values, minimum: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < minimum:
        raise UndefinedTestError(
            f"sample has {arr.size} observations, need at least {minimum}"
        )
    return arr


def _mean_ss(xs: np.ndarray) -> tuple[float, float]:
    """The mean and the sum of squared deviations of a non-empty 1-D float
    sample, in numpy's own operation order: the mean has the bits of
    ``xs.mean()``, and ss / (n - 1) those of ``xs.var(ddof=1)``, without
    the per-call overhead of those methods."""
    m = np.add.reduce(xs) / xs.size
    d = xs - m
    return float(m), float(np.add.reduce(d * d))


def welch_t(x, y) -> WelchResult:
    """Welch's two-sample t-test with Satterthwaite degrees of freedom.

    Requires >=2 observations per sample and a positive variance in at
    least one sample, with (var / n)^2 neither underflowing to 0 in both
    nor overflowing (else df is undefined).  Two samples that are all
    constant at the same value get p = 1 by convention (no evidence of a
    difference is obtainable).
    """
    xs = _as_sample(x, 2)
    ys = _as_sample(y, 2)
    nx, ny = xs.size, ys.size
    with np.errstate(over="ignore"):    # an overflow makes df undefined below
        mx, ssx = _mean_ss(xs)
        my, ssy = _mean_ss(ys)
    vx, vy = ssx / (nx - 1), ssy / (ny - 1)
    if vx == 0.0 and vy == 0.0:
        if mx == my:
            return WelchResult(0.0, float(nx + ny - 2), 1.0)
        raise UndefinedTestError(
            "both samples are constant with different means; t is undefined"
        )
    sx = vx / nx
    sy = vy / ny
    spread = sx * sx / (nx - 1) + sy * sy / (ny - 1)
    if spread == 0.0:
        raise UndefinedTestError("(var / n)^2 underflows in both samples; df is undefined")
    se2 = sx + sy
    df = se2 * se2 / spread
    if not math.isfinite(df):   # se2, spread or se2^2 overflows
        raise UndefinedTestError("(var / n)^2 overflows; df is undefined")
    t = (mx - my) / math.sqrt(se2)
    return WelchResult(t, df, student_t_sf(t, df))


def welch_t_p(x, y) -> float:
    """Two-sided Welch t-test p-value."""
    return welch_t(x, y).p_value


# Tail-area interpolation coefficients for the standardized k-sample
# Anderson-Darling statistic (Scholz-Stephens Table 2): percentile
# t_m(alpha) ~= b0 + b1/sqrt(m) + b2/m at the seven significance levels.
_AD_SIG = np.array([0.25, 0.10, 0.05, 0.025, 0.01, 0.005, 0.001])
_AD_B0 = np.array([0.675, 1.281, 1.645, 1.960, 2.326, 2.573, 3.085])
_AD_B1 = np.array([-0.245, 0.250, 0.678, 1.149, 1.822, 2.364, 3.615])
_AD_B2 = np.array([-0.105, -0.305, -0.362, -0.391, -0.396, -0.345, -0.154])


@dataclass(frozen=True)
class ADResult:
    statistic: float       # A2akN (ties-corrected statistic)
    standardized: float    # (A2akN - (k-1)) / sigma
    p_value: float
    extrapolated: bool     # standardized statistic fell outside the table


def _ad_midrank_statistic(samples: list[np.ndarray]) -> float:
    """Ties-corrected k-sample statistic computed over distinct pooled values,
    each sum added in the order of ``anderson_darling_p_masks``.  Raises
    UndefinedTestError when the values are all identical."""
    sizes = np.array([s.size for s in samples])
    k, total = sizes.size, int(sizes.sum())
    distinct, inverse, pooled_counts = np.unique(
        np.concatenate(samples), return_inverse=True, return_counts=True)
    if distinct.size < 2:
        raise UndefinedTestError("all pooled observations are identical")
    # (D, k): each sample's count at each distinct value
    counts = np.bincount(inverse * k + np.repeat(np.arange(k), sizes),
                         minlength=distinct.size * k).reshape(-1, k)
    # midrank count of pooled observations at or below each distinct value
    below_mid = np.cumsum(pooled_counts) - 0.5 * pooled_counts
    denom = below_mid * (total - below_mid) - total * pooled_counts / 4.0
    weight = pooled_counts / total
    mid = np.cumsum(counts, axis=0) - 0.5 * counts
    num = (total * mid - below_mid[:, None] * sizes) ** 2
    a2 = 0.0
    for s, n in zip(_ad_sums(weight[:, None] * num / denom[:, None]).tolist(), sizes.tolist()):
        a2 += s / n
    return a2 * (total - 1.0) / total


def _ad_sums(terms: np.ndarray) -> np.ndarray:
    """The sums over axis 0 of a C-contiguous (D, k, ...) array, k >= 2,
    each added left to right: numpy reduces a leading axis row by row, but
    sums a contiguous axis, as a (D, 1) array would collapse to, pairwise in
    blocks of 8.  So a zero term, a value a mask leaves out, moves no bit."""
    return np.add.reduce(terms, axis=0)


@functools.lru_cache(maxsize=4096)
def _ad_harmonic_sums(total: int) -> tuple[float, float]:
    """The sums h and g of the null variance, which depend on N only."""
    N = total
    inv = 1.0 / np.arange(1, N)          # 1/1 .. 1/(N-1)
    h = float(inv.sum())
    # g = sum over 1 <= i < j <= N-1 of 1 / ((N - i) * j)
    prefix = np.cumsum(1.0 / np.arange(N - 1, 1, -1))   # sums of 1/(N-t)
    g = float(np.sum(prefix / np.arange(2, N)))
    return h, g


def _ad_variance_from(k: int, N, H, h, g):
    """Null variance from k, N, H = sum(1/n_i) and the N-only sums h and g;
    scalars or arrays alike, with the same operations either way."""
    a = (4 * g - 6) * (k - 1) + (10 - 6 * g) * H
    b = (2 * g - 4) * k**2 + 8 * h * k + (2 * g - 14 * h - 4) * H - 8 * h + 4 * g - 6
    c = (6 * h + 2 * g - 2) * k**2 + (4 * h - 4 * g + 6) * k + (2 * h - 6) * H + 4 * h
    d = (2 * h + 6) * k**2 - 4 * h * k
    return (a * N**3 + b * N**2 + c * N + d) / ((N - 1.0) * (N - 2.0) * (N - 3.0))


def _ad_variance(n_samples: int, total: int, sizes: np.ndarray) -> float:
    """Null variance of the k-sample statistic (exact finite-N formula)."""
    H = 0.0
    for n in sizes.tolist():       # left to right, as in the batch kernel
        H += 1.0 / n
    h, g = _ad_harmonic_sums(total)
    return _ad_variance_from(n_samples, total, H, h, g)


@functools.lru_cache(maxsize=64)
def _ad_tail_fit(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Table percentiles for k samples and the quadratic fit of log
    significance against them; both depend on k only.  Read-only, since
    every caller shares them."""
    m = k - 1
    percentiles = _AD_B0 + _AD_B1 / math.sqrt(m) + _AD_B2 / m
    fit = np.polyfit(percentiles, np.log(_AD_SIG), 2)
    percentiles.setflags(write=False)
    fit.setflags(write=False)
    return percentiles, fit


def anderson_darling(samples: Sequence) -> ADResult:
    """k-sample Anderson-Darling test (k >= 2), midrank ties correction.

    The p-value comes from a quadratic fit of log significance against the
    published percentiles of the standardized statistic.  Outside the
    tabulated range the fit is extrapolated along its monotone branch,
    clamped into [1e-12, 1], and flagged via ``extrapolated``.
    """
    if len(samples) < 2:
        raise UndefinedTestError("need at least two samples")
    arrays = [_as_sample(s, 2) for s in samples]
    pooled_size = sum(a.size for a in arrays)
    k = len(arrays)
    sizes = np.array([a.size for a in arrays], dtype=float)
    a2 = _ad_midrank_statistic(arrays)
    sigma_sq = _ad_variance(k, pooled_size, sizes)
    if sigma_sq <= 0.0:
        raise UndefinedTestError("degenerate null variance for the statistic")
    standardized = (a2 - (k - 1)) / math.sqrt(sigma_sq)

    percentiles, _ = _ad_tail_fit(k)
    p = float(_ad_tail_p(k, standardized))
    extrapolated = bool(
        standardized < percentiles[0] or standardized > percentiles[-1]
    )
    return ADResult(a2, standardized, p, extrapolated)


def _ad_tail_p(k: int, standardized):
    """p-value of standardized statistics (scalar or array) from the tail
    fit, clamped into [AD_P_FLOOR, 1].  The fit is evaluated on the branch
    of the parabola that decreases with the statistic, so extrapolated
    tails stay monotone."""
    _, fit = _ad_tail_fit(k)
    at = standardized
    c2, c1, _ = fit
    if c2 != 0.0:
        vertex = -c1 / (2.0 * c2)
        at = np.maximum(at, vertex) if c2 < 0.0 else np.minimum(at, vertex)
    return np.clip(np.exp(np.polyval(fit, at)), AD_P_FLOOR, 1.0)


def anderson_darling_p(samples: Sequence) -> float:
    """k-sample Anderson-Darling p-value."""
    return anderson_darling(samples).p_value


def anderson_darling_p_masks(values, codes, k: int, masks) -> np.ndarray:
    """``anderson_darling_p`` of many subsets of one pooled sample at once,
    bit for bit.

    ``values`` is the pooled sample, ``codes`` the sample (0..k-1) of each
    value and ``masks`` an (m, n) block of keep-masks over them; row i
    scores the samples ``values[masks[i] & (codes == g)]``.  Returns the
    (m,) p-values, NaN exactly where ``anderson_darling_p`` of that subset
    raises UndefinedTestError or gives NaN.

    The pooled sample is sorted once.  Each mask's per-sample counts at
    every distinct value come from ``np.add.reduceat`` over the runs of
    equal values, so a value the mask leaves out has zero counts and adds
    a zero term.  The midrank statistic, null variance and tail fit then run
    over the whole block with the operations of ``anderson_darling``, and
    every sum adds in its order (``_ad_sums``, H left to right).
    """
    values = np.asarray(values, dtype=float)
    codes = np.asarray(codes)
    masks = np.asarray(masks, dtype=bool).reshape(-1, values.size)
    p = np.full(masks.shape[0], np.nan)
    if k < 2 or values.size == 0:
        return p
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
    )
    kept = masks.T[order]
    sorted_codes = codes[order]
    # each sample's count at each distinct value, and at or below it: (k, D, m)
    counts = np.stack([
        np.add.reduceat(
            (kept & (sorted_codes == g)[:, None]).astype(float), starts, axis=0
        )
        for g in range(k)
    ])
    below = np.cumsum(counts, axis=1)
    pooled = counts.sum(axis=0)                    # (D, m)
    sizes = below[:, -1]                           # (k, m)
    scored = (sizes >= 2).all(axis=0) & (np.count_nonzero(pooled, axis=0) >= 2)
    if not scored.any():
        return p
    if not scored.all():
        counts, below, pooled, sizes = (
            counts[..., scored], below[..., scored], pooled[:, scored], sizes[:, scored])
    total = sizes.sum(axis=0)                      # (m,)
    with np.errstate(divide="ignore", invalid="ignore"):
        below_mid = below.sum(axis=0) - 0.5 * pooled
        denom = below_mid * (total - below_mid) - total * pooled / 4.0
        weight = pooled / total
        present = pooled > 0
        terms = np.empty((pooled.shape[0], k, pooled.shape[1]))    # (D, k, m)
        for g in range(k):
            num = (total * (below[g] - 0.5 * counts[g]) - below_mid * sizes[g]) ** 2
            terms[:, g] = np.where(present, weight * num / denom, 0.0)
        a2 = np.zeros(total.shape)
        for s, n in zip(_ad_sums(terms), sizes):
            a2 = a2 + s / n
        a2 = a2 * (total - 1.0) / total
        H = np.zeros(total.shape)
        for n in sizes:
            H = H + 1.0 / n
        N_int = total.astype(np.int64)
        # the sums depend on N only: one lookup per distinct pooled size
        distinct, which = np.unique(N_int, return_inverse=True)
        sums = np.array([_ad_harmonic_sums(int(t)) for t in distinct])[which]
        sigma_sq = _ad_variance_from(k, N_int, H, sums[:, 0], sums[:, 1])
        standardized = (a2 - (k - 1)) / np.sqrt(sigma_sq)
    # a null variance that is not positive is where anderson_darling raises
    p[scored] = np.where(sigma_sq > 0.0, _ad_tail_p(k, standardized), np.nan)
    return p


def _per_mask_p(test, values, codes, k: int, masks) -> np.ndarray:
    """``test`` on the samples ``values[mask & (codes == g)]``, g = 0..k-1,
    of each keep-mask in ``masks``, one call per mask; NaN where it raises
    UndefinedTestError."""
    p = np.empty(len(masks))
    for i, keep in enumerate(masks):
        try:
            p[i] = test([values[keep & (codes == g)] for g in range(k)])
        except UndefinedTestError:
            p[i] = np.nan
    return p


@dataclass(frozen=True)
class TestFunction:
    """A named statistical test mapping samples to a p-value in [0, 1].

    ``arity`` is "two_sample" (exactly two groups) or "k_sample" (two or
    more).  ``evaluate`` receives one array per group, kept members only.
    """

    name: str
    arity: str
    evaluate: Callable[[Sequence[np.ndarray]], float]

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest case

    def __post_init__(self):
        if self.arity not in ("two_sample", "k_sample"):
            raise ValueError(f"unknown arity {self.arity!r}")

    def __call__(self, samples: Sequence[np.ndarray]) -> float:
        if self.arity == "two_sample" and len(samples) != 2:
            raise UndefinedTestError(
                f"test {self.name!r} takes exactly two samples, got {len(samples)}"
            )
        if len(samples) < 2:
            raise UndefinedTestError("need at least two samples")
        p = float(self.evaluate(samples))
        if not 0.0 <= p <= 1.0 or math.isnan(p):
            raise UndefinedTestError(
                f"test {self.name!r} produced p={p!r} outside [0, 1]"
            )
        return p


# The built-in tests.  When many subsets are scored at once
# (``CriteriaEvaluator.score_removals`` and ``score_masks``), criteria bound
# to these exact instances take a batch kernel.  Welch takes t and df of
# every criterion from per-(covariate, group) moments: downdated sufficient
# statistics for removal sets, two-pass masked moments for keep-masks.
# Anderson-Darling runs ``anderson_darling_p_masks``, which gives the bits
# of ``anderson_darling_p`` on every subset.  Any other test, including
# either name mapped to another instance, is called once per keep-mask
# (``_per_mask_p``).
BUILTIN_WELCH = TestFunction("welch_t", "two_sample", lambda s: welch_t_p(s[0], s[1]))
BUILTIN_AD = TestFunction("anderson_darling", "k_sample", anderson_darling_p)


class TestRegistry:
    """Name -> TestFunction mapping used to resolve criteria."""

    __test__ = False

    def __init__(self, include_builtin: bool = True):
        self._tests: dict[str, TestFunction] = {}
        if include_builtin:
            self.register(BUILTIN_WELCH)
            self.register(BUILTIN_AD)

    def register(self, test: TestFunction) -> TestFunction:
        if test.name in self._tests:
            raise RegistrationError(f"test {test.name!r} already registered")
        self._tests[test.name] = test
        return test

    def get(self, name: str) -> TestFunction:
        try:
            return self._tests[name]
        except KeyError:
            raise KeyError(
                f"no test named {name!r}; registered: {sorted(self._tests)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._tests)

    def __contains__(self, name: str) -> bool:
        return name in self._tests


default_registry = TestRegistry()


def register_test(
    name: str,
    evaluate: Callable[[Sequence[np.ndarray]], float],
    *,
    arity: str = "k_sample",
    registry: TestRegistry | None = None,
) -> TestFunction:
    """Register a user-defined test in ``registry`` (default registry if None)."""
    target = default_registry if registry is None else registry
    return target.register(TestFunction(name, arity, evaluate))

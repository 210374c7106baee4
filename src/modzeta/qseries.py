"""q-series on the right half-plane Re b > 0 and their integral transforms.

Variable conventions, used throughout: ``b`` is the half-plane variable
(``tau = i b``, ``q = exp(-pi b)``, ``xi = 1/b``), so all series here are
expansions in ``q^2 = exp(-2 pi b)``.  The weight index ``t`` labels the
weight-2t series

    eps_t(b)     = -B_{2t}/(4t) + sum_n n^{2t-1} q^{2n} / (1 - q^{2n})
    eps_sub_t(b) = eps_t(b) - (1/2) zeta(1-2t) (1 + (i b)^{-2t})

with the fully subtracted form obeying the exact inversion law
``eps_sub_t(1/b) = (-1)^t b^{2t} eps_sub_t(b)`` and, under b -> b - i, the
translation gap coming only from the power-law subtraction.

The module provides both evaluation routes required by the verification
suite: direct summation (with rigorous geometric-majorant tail bounds) and
the vertical-line Mellin integral of Gamma(s) zeta(s) zeta(s-2t+1)
(2 pi b)^{-s}, which serves as the fully independent oracle.  Weyl
fractional integrals and the moment quadratures of eps_sub are built on
top of the real-axis evaluator.
"""
from __future__ import annotations

import cmath
import itertools
import math
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import ConvergenceError, DomainError
from .exactnum import (
    _Record,
    _coefficients,
    _lazy,
    _pi_power,
    bernoulli,
    gamma_numeric,
    require_finite,
    zeta_even_exact,
    zeta_numeric,
)

__all__ = [
    "SeriesValue",
    "eps",
    "eps_sub",
    "mellin_eps_sub",
    "lambert_S",
    "psi_bar",
    "phi_bar",
    "weyl_integral",
    "phi_bar_from_weyl",
    "moment",
    "casimir_constant",
]

_MAX_TERMS = 200_000
_DEFAULT_TOL = 1e-15

# Mellin contour truncation height; Gamma decay makes the discarded tail
# < 1e-10 for all b >= 0.3 (checked against the last-ordinate bound below).
_MELLIN_T = 40.0


# QAGS's subdivision limit, the same for every integral
_QUAD_LIMIT = 400


def _quad(f, a: float, b: float, epsabs: float = 1e-12, epsrel: float = 1e-12) -> tuple[float, float]:
    """(value, abserr) of the integral of f over the finite interval [a, b]
    by QUADPACK's QAGS, ported in ``_quadpack``: the bits of
    ``scipy.integrate.quad(..., limit=400)``.  Every call bisects one fixed
    nested grid, so calls over the same interval meet the same nodes.
    QUADPACK's error flag (subdivision limit, roundoff, divergence) is not
    raised: abserr is returned as QAGS estimates it.  An exception raised by
    f propagates."""
    return _lazy("modzeta._quadpack")._qags(f, a, b, epsabs, epsrel, _QUAD_LIMIT)[:2]


class SeriesValue(_Record, namedtuple("SeriesValue", "value terms tail_bound")):
    """Numeric result (complex) with its truncation certificate: the terms
    summed, and the bound (float) on what they leave out."""


def _certified_sum(terms, tail, tol: float, max_terms: int, what: str, acc=0.0) -> SeriesValue:
    """Add ``terms`` in order onto ``acc`` until the majorant ``tail(n)`` of
    everything after term n is <= tol; return SeriesValue(sum, n, tail(n)).

    Raises ConvergenceError when ``max_terms`` terms do not certify tol.
    """
    for n, term in zip(range(1, max_terms + 1), terms):
        acc += term
        bound = tail(n)
        if bound <= tol:
            return SeriesValue(acc, n, bound)
    raise ConvergenceError(
        f"{what} did not certify {tol:.1e} in {max_terms} terms", suggestion=2 * max_terms
    )


def _first_true(pred, lo: int, hi: int) -> int | None:
    """The least m in [lo, hi] with pred(m), or None; pred changes from
    False to True at most once on [lo, hi] when pred(lo) is False.  Gallops
    up from lo, then bisects: O(log m) calls of pred.  It finds the least
    certified radius of ``epstein``'s direct lattice sums and the stop index
    of ``dirichlet``'s kernel derivative G'."""
    if pred(lo):
        return lo
    step = 1
    while True:
        probe = min(lo + step, hi)
        if pred(probe):
            break
        if probe == hi:
            return None
        lo, step = probe, 2 * step
    while probe - lo > 1:  # pred(lo) is False, pred(probe) True
        mid = (lo + probe) // 2
        if pred(mid):
            probe = mid
        else:
            lo = mid
    return probe


def _point(p) -> complex:
    """The point b = complex(p): Re b > 0 (+inf, where q = 0, included) and a
    finite Im b, else DomainError."""
    b = complex(p)
    if not (b.real > 0 and math.isfinite(b.imag)):  # a NaN fails both
        raise DomainError(f"q-series require Re b > 0 and a finite Im b, got b = {b}")
    return b


def _check_t(t: int, minimum: int = 1) -> int:
    if not isinstance(t, int) or t < minimum:
        raise DomainError(f"weight index t must be an integer >= {minimum}")
    return t


def casimir_constant(t: int) -> Fraction:
    """The constant term -B_{2t}/(4t) = (1/2) zeta(1-2t)."""
    return _casimir_constant(_check_t(t))


@lru_cache(maxsize=None)
def _casimir_constant(t: int) -> Fraction:
    # cached after the check: 2.0 == 2 would otherwise find 2's entry
    return -bernoulli(2 * t) / (4 * t)


def _casimir(t: int, what: str = "") -> float:
    """casimir_constant(t) as a float.  From t = 131 on it is past the floats,
    and a ConvergenceError says that ``what`` (by default the constant) is,
    before B_2t is built (B_1200 alone takes seconds)."""
    if _check_t(t) > 130:
        what = what or f"the Casimir constant -B_{2 * t}/(4t) at t = {t}"
        raise ConvergenceError(f"{what} leaves the float range", suggestion=f"t < {t}")
    return float(_casimir_constant(t))


def _power_series_tail(const_c: float, power: float, r: float, m: int) -> float:
    # tail of sum_{k>m} C k^power r^k by the term-ratio majorant; (m + 1)^power
    # is taken through logs only where it leaves the floats
    ratio = ((m + 2) / (m + 1)) ** power * r
    if ratio >= 1.0:
        return math.inf
    try:
        return const_c * (m + 1) ** power * r ** (m + 1) / (1.0 - ratio)
    except OverflowError:
        log_r = math.log(r) if r else -math.inf
        return const_c * math.exp(power * math.log(m + 1) + (m + 1) * log_r) / (1.0 - ratio)


def _q_series(term, q2, const_c: float, power: float, tol: float, what: str, acc=0.0, overflow=None) -> SeriesValue:
    """acc + sum_{n>=1} term(n, q2^n) in at most _MAX_TERMS terms, certified on
    |term(n, q2^n)| <= const_c n^power |q2|^n.  A term or majorant past the
    floats raises the ConvergenceError ``overflow()``, or one naming ``what``."""
    r = abs(q2)

    def terms():
        qn = 1.0
        for n in itertools.count(1):
            qn *= q2
            yield term(n, qn)

    try:
        return _certified_sum(
            terms(), lambda n: _power_series_tail(const_c, power, r, n), tol, _MAX_TERMS, what, acc
        )
    except OverflowError:  # a term, or the majorant's ratio, is past the floats
        raise overflow() if overflow else ConvergenceError(f"{what} leaves the float range") from None


def _divisor_series(k: int, weight: float, q2: float, tol: float = 1e-16) -> SeriesValue:
    """sum_n sigma_k(n) n^{-weight} q2^n, certified by the q-series kernel on
    sigma_k(n) n^{-weight} <= 1.3 n^max(k - weight + 1, 0): sigma_k(n) n^{-k}
    is below zeta(3) < 1.3 for k >= 3, and sigma_1(n) <= n^2.

    D = q d/dq maps sum_n c_n q^{2n} to sum_n 2n c_n q^{2n}, so D^j of this
    series is 2^j times the series of weight ``weight - j``.  The majorant's
    tail does not grow with the number of terms, so where it misses tol after
    _MAX_TERMS terms (q2 = 1.0 among those inputs) a ConvergenceError says so
    before any term is summed."""
    power = max(k - weight + 1.0, 0.0)
    try:
        last_tail = _power_series_tail(1.3, power, q2, _MAX_TERMS)
    except OverflowError:  # the majorant itself is past the floats
        last_tail = math.inf
    if last_tail > tol:
        raise ConvergenceError(
            f"divisor series at q^2 = {q2:.17g}: {_MAX_TERMS} terms cannot certify {tol:.1e}",
            suggestion="q^2 further below 1",
        )
    sigma = _coefficients("sigma", k)
    log_q2 = math.log(q2) if q2 else -math.inf

    def term(n: int, qn: float) -> float:
        try:
            return sigma(n) * float(n) ** (-weight) * qn
        except OverflowError:  # sigma_k(n) can leave the floats before the term does
            return math.exp(math.log(sigma(n)) - weight * math.log(n) + n * log_q2)

    return _q_series(
        term, q2, 1.3, power, tol, "divisor series",
        overflow=lambda: ConvergenceError(
            f"divisor series: sigma_{k}(n) at q^2 = {q2:.3g} leaves the float range",
            suggestion=f"t < {(k + 1) // 2}",  # k = 2t - 1 in the partial free energy and entropy
        ),
    )


def _lambert_q2(b: complex) -> tuple[complex, float]:
    """q^2 = exp(-2 pi b) and 1/(1 - |q^2|), which bounds every Lambert
    denominator 1/|1 - q^{2n}|; a ConvergenceError where |q^2| rounds to 1
    and no such bound exists."""
    q2 = require_finite(cmath.exp(-2 * math.pi * b))
    r = abs(q2)
    if r >= 1.0:
        raise ConvergenceError(
            f"Lambert series at b = {b}: |q^2| rounds to 1, Re b is too small for a q-series"
        )
    return q2, 1.0 / (1.0 - r)


def _eps_q(t: int, p, tol: float = _DEFAULT_TOL) -> SeriesValue:
    """The q-part sum_n n^{2t-1} q^{2n} / (1 - q^{2n}) of eps_t, summed
    without the constant -B_2t/(4t), which can dwarf it."""
    k = 2 * _check_t(t) - 1
    b = _point(p)
    return _q_series(
        lambda n, qn: (n ** k) * qn / (1.0 - qn), *_lambert_q2(b), k, tol, "eps", 0.0 + 0.0j,
        lambda: ConvergenceError(  # the integer n^k no longer converts to a float
            f"eps: n^{k} at b = {b} leaves the float range (weight {2 * t} too large)", suggestion=f"t < {t}"),
    )


def eps(t: int, p, tol: float = _DEFAULT_TOL) -> SeriesValue:
    """Weight-2t partial-energy series eps_t at the half-plane point p."""
    s = _eps_q(t, p, tol)
    return SeriesValue(s.value + _casimir(t), s.terms, s.tail_bound)


def eps_sub(t: int, p, tol: float = _DEFAULT_TOL) -> SeriesValue:
    """Fully subtracted series, the q-part less -B_2t/(4t) (i b)^{-2t}."""
    s = _eps_q(t, p, tol)
    b = _point(p)
    # (i b)^{-2t} tends to 0 as Re b -> inf, where i b itself is nan + inf i
    val = s.value - (_casimir(t) * (1j * b) ** (-2 * t) if math.isfinite(b.real) else 0.0)
    return SeriesValue(val, s.terms, s.tail_bound)


@lru_cache(maxsize=8192)
def _mellin_kernel(t: int, y: float) -> complex:
    """Gamma(s) zeta(s) zeta(s-2t+1) at s = 2t - 1/2 + iy, the b-free factor
    of the Mellin integrand."""
    s = complex(2 * t - 0.5, y)
    return gamma_numeric(s) * zeta_numeric(s) * zeta_numeric(s - 2 * t + 1)


def mellin_eps_sub(t: int, b: float, tol: float = 1e-10) -> SeriesValue:
    """Independent contour evaluation of eps_sub_t(b) for real b > 0.

    Integrates Gamma(s) zeta(s) zeta(s-2t+1) (2 pi b)^{-s} / (2 pi i) on the
    vertical line Re s = 2t - 1/2, truncated at |Im s| = 40 where the Gamma
    decay certifies the discarded tail.  QAGS (``_quad``) bisects one fixed
    nested grid of [0, 40], so calls at other b meet the same ordinates: the
    b-free factor comes from the bounded cache of ``_mellin_kernel``.  Where
    Gamma(s), (2 pi b)^{-s} or their product leave the floats, a
    ConvergenceError names the factor and points to ``eps_sub``.
    """
    _check_t(t)
    b = float(b)
    if not 0 < b < math.inf:
        raise DomainError(f"mellin_eps_sub requires a finite real b > 0, got b = {b}")
    c = 2 * t - 0.5
    w = 2 * math.pi * b

    def out_of_range(what: str, fix: str) -> ConvergenceError:
        return ConvergenceError(
            f"mellin_eps_sub: {what} at t = {t}, b = {b} leaves the float range ({fix}); "
            "eps_sub is the primary route", suggestion="eps_sub")

    # on the line, |Gamma(c + iy)| <= Gamma(c) and |(2 pi b)^{-c-iy}| = (2 pi b)^{-c}
    try:
        math.gamma(c)
    except OverflowError:
        raise out_of_range("Gamma(2t - 1/2 + iy)", "Gamma(2t - 1/2) is a float up to t = 86") from None
    try:
        w ** -c
    except OverflowError:
        b_min = math.exp(-math.log(sys.float_info.max) / c) / (2 * math.pi)
        raise out_of_range("(2 pi b)^(-s) on Re s = 2t - 1/2", f"needs b > {b_min:.3g} at this t") from None

    if w == math.inf:
        raise out_of_range("2 pi b", "needs b < 2.8e307")

    def integrand(y: float) -> complex:
        return _mellin_kernel(t, y) * w ** (-complex(c, y))

    tail = abs(integrand(_MELLIN_T)) * (2.0 / math.pi) / math.pi
    if tol < tail < math.inf:  # the cut-off contour alone misses tol: no quadrature can help
        raise ConvergenceError(f"Mellin contour tail past |Im s| = {_MELLIN_T:g} is {tail:.2e}, over {tol:.2e}")
    re, re_err = _quad(lambda y: integrand(y).real, 0.0, _MELLIN_T)
    # conjugate symmetry on the real-b line: integral over (-T, T) is twice
    # the real part over (0, T); the overall 1/(2 pi) leaves 1/pi
    val = re / math.pi
    err = re_err / math.pi + tail
    if not (math.isfinite(val) and math.isfinite(err)):
        raise out_of_range("the integrand Gamma(s) zeta(s) zeta(s-2t+1) (2 pi b)^(-s)", "a larger b, or a smaller t")
    if err > tol:
        raise ConvergenceError(f"Mellin quadrature error {err:.2e} exceeds {tol:.2e}")
    return SeriesValue(complex(val), 0, err)


def lambert_S(t: int, p, tol: float = _DEFAULT_TOL) -> SeriesValue:
    """S_t = sum_m m^{1-2t} q^{2m}/(1-q^{2m}), summed in this Lambert form.

    The divisor form sum_m sigma_{2t-1}(m) m^{1-2t} q^{2m} is the same double
    sum rearranged; ``verify inversion`` checks that the two agree, summing it
    as ``_divisor_series(2t - 1, 2t - 1, q^2)``, which builds a sigma_{2t-1}
    table at every t (sigma_55 at t = 28).
    """
    _check_t(t)
    b = _point(p)
    return _q_series(_lambert_term(t), *_lambert_q2(b), 0, tol, "lambert_S", 0.0 + 0.0j)


def _lambert_term(t: int):
    """The term (n, q^{2n}) -> n^{-k} q^{2n}/(1 - q^{2n}) of S_t, k = 2t - 1."""
    k = 2 * t - 1

    def term(n: int, qn: complex) -> complex:
        try:
            if (n.bit_length() - 1) * k < 1024:  # else n^k >= 2^1024 is past the floats: not built
                return qn / ((n ** k) * (1.0 - qn))
        except OverflowError:  # n^k is past the floats; its reciprocal only underflows
            pass
        return qn * n ** -k / (1.0 - qn)

    return term


def psi_bar(t: int, p, tol: float = _DEFAULT_TOL) -> SeriesValue:
    """psi_bar_{2t} = 4 pi S_t: translation-periodic modular integral."""
    s = lambert_S(t, p, tol / (4 * math.pi))
    return SeriesValue(4 * math.pi * s.value, s.terms, 4 * math.pi * s.tail_bound)


def phi_bar(t: int, p, tol: float = _DEFAULT_TOL) -> SeriesValue:
    """phi_bar_{2t} = psi_bar_{2t} - (2/b) zeta(2t): inversion-covariant form.

    As b -> 0 both sides grow like 2 zeta(2t)/b and cancel, so psi_bar's
    rounding, which its ``tail_bound`` does not count, reaches phi_bar
    undiminished.  A first-order bound on it: q^2 = exp(-2 pi b) is off by
    about u (1 + 4 pi |b|) relative (u = 2^-53: exp's rounding, and its
    argument's times 2 pi |b|); q^{2n} = (q^2)^n carries that n times, and its
    n products add up to n u more; 1/(1 - q^{2n}) passes the sum on to the
    term divided by |1 - q^{2n}|.  As Re b -> 0 that is about u / (pi Re b)
    of psi_bar.  Where it passes max(tol, 1e-12 |phi_bar|), phi_bar raises a
    ConvergenceError rather than return fewer than 12 digits.
    """
    b = _point(p)
    _check_t(t)
    term, mag = _lambert_term(t), 0.0  # mag: sum of n |term| / |1 - q^{2n}|

    def counted(n: int, qn: complex) -> complex:
        nonlocal mag
        a = term(n, qn)
        mag += n * abs(a) / abs(1.0 - qn)
        return a

    s = _q_series(counted, *_lambert_q2(b), 0, tol / (4 * math.pi), "lambert_S", 0.0 + 0.0j)
    _pi_power(2 * t)  # zeta(2t) is a pi^(2t) multiple: past the floats, refused before B_2t is built
    z2t = zeta_even_exact(2 * t).numeric()
    val = 4 * math.pi * s.value - 2.0 * z2t / b
    rounding = 4 * math.pi * mag * 2.0 ** -53 * (2.0 + 4 * math.pi * abs(b)) if mag else 0.0
    if rounding > max(tol, 1e-12 * abs(val)):
        raise ConvergenceError(
            f"phi_bar at b = {b}: psi_bar and 2 zeta({2 * t})/b cancel to |phi_bar| = {abs(val):.3g}, "
            f"and psi_bar's rounding, up to about {rounding:.1e}, passes 1e-12 of that",
            suggestion="larger Re b",
        )
    return SeriesValue(val, s.terms, 4 * math.pi * s.tail_bound)


# ---------------------------------------------------------------------------
# Weyl fractional integrals and moments of eps_sub
# ---------------------------------------------------------------------------

def _exp_majorant(t: int) -> float:
    # C(t) with |eps_t(b) - const| <= C(t) e^{-2 pi Re b} for Re b >= 1
    return _eps_q(t, 1.0).value.real * math.exp(2 * math.pi)


def _exp_tail_bound(t: int, x: float, h: int, big_x: float) -> float:
    # bound C(t) * integral_X^inf (b-x)^{h-1} e^{-2 pi b} db in closed form
    ct = abs(_exp_majorant(t))
    w = 2 * math.pi
    total = 0.0
    fact = 1.0
    for j in range(h):
        total += fact * (big_x - x) ** (h - 1 - j) / w ** (j + 1)
        fact *= (h - 1 - j)
    return ct * math.exp(-w * big_x) * total


def weyl_integral(t: int, x: float, h: int, tol: float = 1e-9) -> SeriesValue:
    """(1/Gamma(h)) * integral_x^inf (b-x)^{h-1} eps_sub_t(b) db.

    Quadrature runs to a cutoff where the q-part of eps_sub is negligible;
    the power-law part of the integrand beyond the cutoff is added in closed
    form, so no heuristic truncation enters.
    """
    _check_t(t, 2)
    if not 0 < x < math.inf:
        raise DomainError(f"weyl_integral requires a finite x > 0, got x = {x}")
    if not (1 <= h <= 2 * t - 1):
        raise DomainError("weyl_integral requires 1 <= h <= 2t-1")
    big_x = max(x + 2.0, 9.0)

    # split eps_sub = (eps - const) - (-1)^t const b^{-2t}: the q-part is
    # quadratured, the power part integrates exactly to a Beta function
    def f(b: float) -> float:
        return (b - x) ** (h - 1) * _eps_q(t, b).value.real

    val, err = _quad(f, x, big_x)
    c = _casimir(t)
    beta_h = math.gamma(h) * math.gamma(2 * t - h) / math.gamma(2 * t)
    val += -((-1) ** t) * c * beta_h * x ** (h - 2 * t)
    bound = err + _exp_tail_bound(t, x, h, big_x)
    gamma_h = math.factorial(h - 1)
    if bound / gamma_h > tol:
        raise ConvergenceError(f"weyl_integral error bound {bound / gamma_h:.2e} > {tol:.2e}")
    return SeriesValue(val / gamma_h, 0, bound / gamma_h)


def phi_bar_from_weyl(t: int, x: float) -> SeriesValue:
    """phi_bar via the (2t-1)-fold Weyl integral: 2 (2 pi)^{2t} W_{2t-1}."""
    w = weyl_integral(t, x, 2 * t - 1)
    scale = 2.0 * (2 * math.pi) ** (2 * t)
    return SeriesValue(scale * w.value, 0, scale * w.tail_bound)


def moment(t: int, k: int, tol: float = 1e-9) -> SeriesValue:
    """integral_0^infty b^k eps_sub_t(b) db for 0 <= k <= 2t-2.

    The [0,1] part is mapped to [1,infty) with the exact inversion law
    (b -> 1/b brings a factor (-1)^t b^{2t-2-k}), so only exponentially
    decaying integrands are quadratured.
    """
    _check_t(t, 2)
    if not (0 <= k <= 2 * t - 2):
        raise DomainError("moment requires 0 <= k <= 2t-2")
    sign = (-1) ** t
    big_x = 9.0

    # after folding [0,1] onto [1,inf), quadrature only the q-part; the
    # power-law part of eps_sub integrates in closed form over [1,inf)
    def f(b: float) -> float:
        return (b ** k + sign * b ** (2 * t - 2 - k)) * _eps_q(t, b).value.real

    val, err = _quad(f, 1.0, big_x)
    c = _casimir(t)
    val += -((-1) ** t) * c / (2 * t - 1 - k) - c / (1 + k)
    bound = err + 2.0 * abs(_exp_majorant(t)) * big_x ** (2 * t - 2) * math.exp(
        -2 * math.pi * big_x
    )
    if bound > tol:
        raise ConvergenceError(f"moment error bound {bound:.2e} > {tol:.2e}")
    return SeriesValue(val, 0, bound)

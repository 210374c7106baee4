"""Complex Gamma, the Macdonald function K_nu and the regularized upper
incomplete gamma Q(a, x), in pure Python.

* ``gamma``: ``math.gamma`` on the real axis; elsewhere Stirling's series
  with ten Bernoulli terms, after shifting the argument up to modulus 10,
  and the reflection formula left of Re z = 1/2 (DLMF 5.5.3, 5.11.1).
  ``log_gamma`` also returns the series' remainder bound (DLMF 5.11.ii).
* ``kv``: for x >= 20, Hankel's expansion at the order itself wherever its
  first omitted term is below 2^-56 within 32 terms (DLMF 10.40.2;
  10.40(ii) bounds the remainder by that term once the count passes
  nu - 1/2).  Otherwise K_mu and K_mu+1, |mu| <= 1/2, come from the power
  series of K_0 and K_1 at integer orders below x = 2 (DLMF 10.31), from
  Temme's series below x = 1/2 (N. M. Temme, J. Comput. Phys. 19, 1975),
  from the trapezoidal rule on int_0^inf e^(-x cosh t) cosh(nu t) dt below
  x = 20 (Trefethen and Weideman, "The exponentially convergent
  trapezoidal rule", SIAM Review 56, 2014), and from Hankel's expansion
  above it; the upward recurrence K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu,
  which adds positive terms only, climbs to the order.  Per-order tables
  (expansion coefficients, quadrature weights, Temme's constants) are
  built on first use, and the trapezoidal weights only as far as x needs.
* ``gammaincc``: the power series for P = 1 - Q below x = a + 1, and the
  continued fraction for Q above it, by the modified Lentz method
  (DLMF 8.7.1, 8.9.2), with the prefactor x^a e^-x / Gamma(a) taken in
  logs; NaN past a = 1e6, where the series would take thousands of steps.

Imports only the standard library (``math``, ``cmath``, ``bisect``,
``functools``, ``itertools``).
"""
from __future__ import annotations

import bisect
import cmath
import math
from functools import cache, lru_cache
from itertools import islice

# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

# B_2k / (2k (2k - 1)) for k = 1..10, the terms of Stirling's series, and the
# first omitted one, |B_22| / (22 * 21)
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
    -691 / 360360, 1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400,
)
_STIRLING_NEXT = 854513 / 63756
_STIRLING_FROM = 10.0  # |z| at which the series starts; smaller z are shifted up
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def log_gamma(z: complex) -> tuple[complex, float]:
    """(a logarithm of Gamma(z), a bound on the series remainder in it) for
    Re z >= 1/2.  Gamma(z) = Gamma(z + m) / (z (z + 1) ... (z + m - 1)) with
    m the smallest shift giving Re(z + m) >= 10 when |z| < 10; the remainder
    after ten terms is at most |B_22| / (22 * 21 |w|^21) sec^22(arg(w) / 2),
    about 3e-17 at |w| >= 10 and |arg w| <= pi / 2."""
    w = complex(z)
    shift = 1.0 + 0j
    if abs(w) < _STIRLING_FROM:
        while w.real < _STIRLING_FROM:
            shift *= w
            w += 1.0
    r = 1.0 / w
    r2 = r * r
    acc = 0j
    for c in reversed(_STIRLING):
        acc = acc * r2 + c
    value = (w - 0.5) * cmath.log(w) - w + _HALF_LOG_2PI + acc * r - cmath.log(shift)
    bound = _STIRLING_NEXT * abs(r) ** 21 / math.cos(0.5 * cmath.phase(w)) ** 22
    return value, bound


def _log_sin_pi(z: complex) -> complex:
    """A logarithm of sin(pi z), without overflow at large |Im z|."""
    if abs(z.imag) < 20.0:
        return cmath.log(cmath.sin(math.pi * z))
    if z.imag < 0:
        return _log_sin_pi(z.conjugate()).conjugate()
    # sin(pi z) = e^(-i pi z) (i / 2) (1 - e^(2 i pi z)), and |e^(2 i pi z)| < e^-125
    return -1j * math.pi * z + cmath.log(0.5j)


def gamma(z: complex) -> complex:
    """Gamma(z) for z off the poles 0, -1, -2, ...  Raises OverflowError
    where it passes the floats."""
    z = complex(z)
    if z.imag == 0.0:
        return complex(math.gamma(z.real))
    if z.real < 0.5:
        # reflection: Gamma(z) = pi / (sin(pi z) Gamma(1 - z))
        return cmath.exp(math.log(math.pi) - _log_sin_pi(z) - log_gamma(1.0 - z)[0])
    return cmath.exp(log_gamma(z)[0])


# ---------------------------------------------------------------------------
# K_nu
# ---------------------------------------------------------------------------

_TINY = 2.0 ** -56  # relative size of the first term each sum leaves out
_TEMME_BELOW = 0.5
_HANKEL_FROM = 20.0  # for orders <= 3/2 Hankel's expansion meets _TINY here
_HANKEL_TERMS = (8, 12, 16, 24, 32)
# ((2k - 1)^2, 1 / (8k)), the factors of Hankel's coefficients, k = 1..33
_HANKEL_STEPS = tuple((float((2 * k - 1) ** 2), 1.0 / (8 * k)) for k in range(1, _HANKEL_TERMS[-1] + 2))
_TRAPEZOID_STEP = 0.17  # keeps orders <= 3/2 within 6e-16 of K at 0.5 <= x < 20
_TRAPEZOID_CUT = 40.0  # a node with x (cosh t - 1) - 3t/2 past this adds < e^-40

_INTEGER_SERIES_BELOW = 2.0
_SERIES_TERMS = 18  # terms of the integer-order series, enough below x = 2 (z = 1)
_EULER_GAMMA = 0.5772156649015329

# 1/Gamma(1 + z) = sum d_k z^k, k = 0..20 (DLMF 5.7.1), enough for |z| <= 1/2
_RGAMMA1 = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554434, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.00012805028238811619, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.1812745704870201e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.6968056186422057e-12,
)

# per-order tables, built on first use and kept for at most _MAX_ORDERS
# orders each, so a sweep over orders stays bounded.  The trapezoid weights
# grow as larger counts are asked for, so they keep a dict, cleared when full
_MAX_ORDERS = 256
_TRAPEZOID: dict[float, tuple] = {}


@lru_cache(maxsize=_MAX_ORDERS)
def _hankel_ladder(nu: float) -> tuple:
    """((x_from, [a_n, ..., a_1, a_0]), ...) for n = 8, 12, ... 32 terms of
    Hankel's expansion at order nu.  With n terms, x >= x_from
    keeps the first omitted term below _TINY; x >= nu^2 / 2 and n <= 2x keep
    every term at most 1, so Horner's rule rounds to a few ulps.  The bound
    needs n >= nu - 1/2; a count below it is left out."""
    four_nu2 = 4.0 * nu * nu
    # a_k = prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (8j)
    a = [1.0]
    ak = 1.0
    for square, by in _HANKEL_STEPS:
        ak *= (four_nu2 - square) * by
        a.append(ak)
    floor = max(_HANKEL_FROM, 0.5 * nu * nu)
    rungs = []
    for n in _HANKEL_TERMS:
        if n >= nu - 0.5:
            rungs.append((max(floor, (abs(a[n + 1]) / _TINY) ** (1.0 / (n + 1))), a[n::-1]))
    return rungs


def _hankel(nu: float, x: float) -> float | None:
    """e^x K_nu(x) from Hankel's expansion, or None where it is not accurate."""
    for x_from, coefficients in _hankel_ladder(nu):
        if x >= x_from:
            r = 1.0 / x
            acc = 0.0
            for c in coefficients:
                acc = acc * r + c
            return math.sqrt(0.5 * math.pi * r) * acc
    return None


@lru_cache(maxsize=_MAX_ORDERS)
def _temme_constants(mu: float) -> tuple:
    # 1/Gamma(1 + mu), 1/Gamma(1 - mu), and Temme's
    # gamma_1 = (1/Gamma(1 - mu) - 1/Gamma(1 + mu)) / (2 mu),
    # gamma_2 = (1/Gamma(1 - mu) + 1/Gamma(1 + mu)) / 2 from the same series
    plus = minus = gamma1 = gamma2 = 0.0
    for k in range(len(_RGAMMA1) - 1, -1, -1):
        d = _RGAMMA1[k]
        plus = plus * mu + d
        minus = minus * -mu + d
        if k % 2:
            gamma1 = gamma1 * mu * mu - d
        else:
            gamma2 = gamma2 * mu * mu + d
    pimu = math.pi * mu
    ratio = pimu / math.sin(pimu) if mu else 1.0
    # the series' step i as (i, 1 / (i^2 - mu^2), 1 / i, 1 / (i - mu), 1 / (i + mu))
    steps = tuple((float(i), 1.0 / (i * i - mu * mu), 1.0 / i, 1.0 / (i - mu), 1.0 / (i + mu)) for i in range(1, 40))
    return ratio, gamma1, gamma2, plus, minus, steps


def _temme(mu: float, x: float) -> tuple[float, float]:
    """(K_mu(x), K_mu+1(x)) for |mu| <= 1/2 and 0 < x < 2 by Temme's series
    (kv uses it below x = 1/2, where it needs fewer steps than the rule)."""
    ratio, gamma1, gamma2, plus, minus, steps = _temme_constants(mu)
    half = 0.5 * x
    d = -math.log(half)
    e = mu * d
    sinhc = math.sinh(e) / e if e else 1.0
    f = ratio * (gamma1 * math.cosh(e) + gamma2 * sinhc * d)
    e = math.exp(e)
    p = 0.5 * e / plus  # (x/2)^-mu Gamma(1 + mu) / 2
    q = 0.5 / (e * minus)  # (x/2)^mu Gamma(1 - mu) / 2
    z = half * half
    c = 1.0
    k0 = f
    k1 = p
    # terms fall at least as fast as z^i / i!^2: at x < 2, below 2^-56 by i = 20
    for i, by_den, by_i, by_minus, by_plus in steps:
        f = (i * f + p + q) * by_den
        c *= z * by_i
        p *= by_minus
        q *= by_plus
        term = c * f
        k0 += term
        k1 += c * (p - i * f)
        if term < _TINY * k0:
            break
    return k0, k1 / half


@cache
def _trapezoid_grid() -> tuple[tuple, tuple, tuple]:
    """The trapezoidal rule's nodes t_j = j h, shared by every order: (t_j,
    1 - cosh t_j, thresholds), out to where x = _TEMME_BELOW needs them;
    thresholds[j] = -(the largest x at which node j can still add e^-40 at
    an order <= 3/2), increasing, for bisection."""
    h = _TRAPEZOID_STEP
    nodes, neg_c, thresholds = [0.0], [0.0], [-math.inf]
    while thresholds[-1] <= -_TEMME_BELOW:
        t = len(nodes) * h
        c = 2.0 * math.sinh(0.5 * t) ** 2  # cosh t - 1 without cancellation
        nodes.append(t)
        neg_c.append(-c)
        thresholds.append(-(_TRAPEZOID_CUT + 1.5 * t) / c)
    return tuple(nodes), tuple(neg_c), tuple(thresholds)


def _trapezoid_weights(mu: float, count: int) -> tuple[tuple, tuple]:
    """cosh(mu t_j) and cosh((mu + 1) t_j) on at least the first count grid
    nodes (the first halved; the step h is applied to the sums), extended as
    larger counts are asked for.  A grown pair is stored whole, as new
    tuples in one assignment, so a concurrent caller reads one pair or the
    other and never a column grown twice or alone."""
    weights = _TRAPEZOID.get(mu)
    if weights is None:
        if len(_TRAPEZOID) >= _MAX_ORDERS:
            _TRAPEZOID.clear()
        weights = _TRAPEZOID[mu] = ((0.5,), (0.5,))
    a, b = weights
    if len(a) < count:
        nodes = _trapezoid_grid()[0][len(a):count]
        weights = _TRAPEZOID[mu] = (
            a + tuple(map(math.cosh, map(mu.__mul__, nodes))),
            b + tuple(map(math.cosh, map((mu + 1.0).__mul__, nodes))),
        )
    return weights


def _trapezoid(mu: float, x: float, n: int) -> tuple[float, float]:
    """(e^x K_mu(x), e^x K_mu+1(x)) for |mu| <= 1/2 and 1/2 <= x < 20; for
    n = 0 and n = 1 only the one that order mu + n needs (the other is 0)."""
    _, neg_c, thresholds = _trapezoid_grid()
    count = bisect.bisect_right(thresholds, -x)
    a, b = _trapezoid_weights(mu, count)
    s0 = s1 = 0.0
    if n == 0:
        for c, w in islice(zip(neg_c, a), count):
            s0 += w * math.exp(x * c)
    elif n == 1:
        for c, w in islice(zip(neg_c, b), count):
            s1 += w * math.exp(x * c)
    else:
        for c, w0, w1 in islice(zip(neg_c, a, b), count):
            e = math.exp(x * c)
            s0 += w0 * e
            s1 += w1 * e
    return s0 * _TRAPEZOID_STEP, s1 * _TRAPEZOID_STEP


@cache
def _integer_series() -> tuple:
    """Columns, highest degree first, of the power series of K_0 and K_1 in
    z = x^2 / 4 (DLMF 10.31.1-2):
    K_0 = -ln(x/2) sum z^k / k!^2 + sum psi(k + 1) z^k / k!^2 and
    K_1 = 1/x + (x/2) [ln(x/2) sum z^k / (k! (k+1)!)
                       - sum (psi(k + 1) + psi(k + 2)) z^k / (2 k! (k+1)!)],
    and last, for each row, -(the largest z at which the series stopped after
    that row's degree has its first omitted term, below z^(d+1) / (d+1)!^2
    times psi(d + 2) + 1, under 2^-62): increasing, for bisection on -z."""
    columns = ([], [], [], [], [])
    psi = -_EULER_GAMMA  # psi(1)
    for k in range(_SERIES_TERMS):
        square, product = math.factorial(k) ** 2, math.factorial(k) * math.factorial(k + 1)
        psi_next = psi + 1.0 / (k + 1)
        enough = -((2.0 ** -62 / (psi_next + 1.0)) * math.factorial(k + 1) ** 2) ** (1.0 / (k + 1))
        for column, value in zip(columns, (1 / square, psi / square, 1 / product, 0.5 * (psi + psi_next) / product, enough)):
            column.append(value)
        psi = psi_next
    return tuple(tuple(reversed(column)) for column in columns)


def _horner_pair(first: tuple, second: tuple, z: float, start: int) -> tuple[float, float]:
    p = q = 0.0
    for a, b in islice(zip(first, second), start, None):
        p = p * z + a
        q = q * z + b
    return p, q


def _integer_orders(x: float, n: int) -> tuple[float, float]:
    """(K_0(x), K_1(x)) for 0 < x < 2 from their power series; for n = 0
    and n = 1 only the one order n needs (the other is 0)."""
    half = 0.5 * x
    z = half * half
    log_half = math.log(half)
    i0, h0, i1, h1, enough = _integer_series()
    start = bisect.bisect_right(enough, -z) - 1  # the row of the lowest degree enough at z
    k0 = k1 = 0.0
    if n != 1:
        p, q = _horner_pair(i0, h0, z, start)
        k0 = q - log_half * p
    if n != 0:
        p, q = _horner_pair(i1, h1, z, start)
        k1 = 1.0 / x + half * (log_half * p - q)
    return k0, k1


def _climb(k0: float, k1: float, mu: float, n: int, x: float) -> float:
    """K_mu+n(x) from K_mu(x) and K_mu+1(x) (any common scale), by the upward
    recurrence; K grows with the order, so the climb stops once it is inf."""
    if n == 0:
        return k0
    two_over_x = 2.0 / x
    for k in range(1, n):
        k0, k1 = k1, k0 + (mu + k) * two_over_x * k1
        if k1 == math.inf:
            break
    return k1


def kv(nu: float, x: float) -> float:
    """K_nu(x) for real nu >= 0 and x > 0; inf where it passes the floats,
    0 where it underflows."""
    if x != x:
        return x
    if x >= _HANKEL_FROM:
        direct = _hankel(nu, x)
        if direct is not None:
            return direct * math.exp(-x)
    n = int(nu + 0.5)
    mu = nu - n
    if x < _INTEGER_SERIES_BELOW and not mu:
        return _climb(*_integer_orders(x, n), mu, n, x)
    if x < _TEMME_BELOW:
        return _climb(*_temme(mu, x), mu, n, x)
    if x < _HANKEL_FROM:
        k0, k1 = _trapezoid(mu, x, n)
    else:
        k0, k1 = _hankel(abs(mu), x), _hankel(mu + 1.0, x)
    return _climb(k0, k1, mu, n, x) * math.exp(-x)


# ---------------------------------------------------------------------------
# Q(a, x)
# ---------------------------------------------------------------------------

_LENTZ_TINY = 1e-300
# the largest a taken: near x = a the power series takes about sqrt(a) steps
# (1e8 at a = 1e16), and every caller's a is below 172, where Gamma(a) leaves
# the floats
_GAMMAINCC_A_MAX = 1e6


def gammaincc(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a) for 0 < a <= 1e6 and x >= 0 (NaN
    outside)."""
    if not (0.0 < a <= _GAMMAINCC_A_MAX and x >= 0.0):
        return math.nan
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    # x^a e^-x / Gamma(a), in logs: each factor alone leaves the floats first
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        # P(a, x) = x^a e^-x / Gamma(a + 1) sum_n x^n / ((a + 1) ... (a + n))
        term = total = 1.0
        n = a
        while True:
            n += 1.0
            term *= x / n
            total += term
            if term < _TINY * total:
                return 1.0 - math.exp(log_prefactor) * total / a
    # Q(a, x) = x^a e^-x / Gamma(a) / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...))
    prefactor = math.exp(log_prefactor)
    if prefactor == 0.0:
        # the fraction's value would be lost in 0.0 * h; far out (x >~ 1e16)
        # fl(1/b) b can stay 1 - 2^-53 at every step, so it would never stop
        return 0.0
    b = x + 1.0 - a
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
        c = b + an / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _TINY:
            return prefactor * h

"""Exact rational/symbolic scalars and float-precision zeta and gamma.

Exact side: Bernoulli numbers, zeta at even positive / odd negative integers,
and ``SymScalar`` -- finite sums of terms ``q * pi^a * zeta(m) * i^e`` with
rational ``q``, integer ``a >= 0``, odd ``m >= 3`` (at most one zeta factor
per term) and ``e`` 0 or 1: the coefficient field Q(i)[pi, zeta(3),
zeta(5), ...] of the period polynomials.  One rule, ``_basis_product``,
multiplies basis monomials for both ``SymScalar`` and ``periodpoly.Poly``;
products that would create ``zeta(odd)^2`` are rejected.

Numeric side: Riemann zeta on the strip ``-10 <= Re s <= 30``,
``|Im s| <= 50`` by Euler-Maclaurin with fixed cutoffs (deterministic
output), the reflection formula for ``Re s < -1/2``, and the complex gamma
function (``_special.gamma``: ``math.gamma`` on the real axis, Stirling's
series off it).  Odd-zeta constants are precomputed by an accelerated
alternating series and cached for SymScalar evaluation.

Divisor side: ``divisor_sigma`` (pointwise, the reference) and the one
cache of sigma_k and r_p tables, keyed by kind and order, that every
series reads its coefficients from: exact Python numbers, every integer
order kept, and only the last non-integer order.  These tables, the
Bernoulli numbers and G''s coefficients grow only through ``_grow``.

Records: ``_Record`` is the first base of the library's ten namedtuple
records; its ``_replace`` goes through the constructor, and tuple
arithmetic on a record raises TypeError.

Every deferred import goes through ``_lazy``; no function imports a module
itself, and no module imports scipy.
"""
from __future__ import annotations

import cmath
import importlib
import math
import struct
import threading
from fractions import Fraction
from functools import cache, lru_cache
from math import comb

from .errors import ConvergenceError, DomainError, SingularityError

__all__ = [
    "bernoulli",
    "zeta_even_exact",
    "zeta_negative_exact",
    "zeta_numeric",
    "gamma_numeric",
    "zeta_odd_numeric",
    "alternating_zeta",
    "divisor_sigma",
    "sigma_range",
    "SymScalar",
    "require_finite",
]

# Euler-Maclaurin cutoffs, fixed for reproducible output.
_EM_N = 40
_EM_M = 20

# Re s below which zeta_numeric switches to the reflection formula.  Kept
# negative so both zeta(s) and zeta(1-s) inside the critical strip are
# computed by the direct Euler-Maclaurin path (functional-equation tests
# then compare two genuinely different evaluations).
_REFLECT_BELOW = -0.5


@cache
def _lazy(name: str):
    """The module ``name``, imported on the first call.  Every use of numpy,
    of ``modzeta._special`` and of ``modzeta._quadpack`` goes through here,
    and so do ``cli``'s every use of a route module and of ``verify``, its
    use of ``csv``, and the calls between route modules that their imports
    would make cyclic or load for one function (``epstein.bessel_k`` from
    ``dirichlet`` and ``thermal``, ``dirichlet`` from ``epstein``,
    ``qseries`` from ``periodpoly``): importing numpy is most of a
    process's start-up, compiling a module where no bytecode cache is
    written costs milliseconds, and a one-shot ``eval`` calls into one
    route module."""
    return importlib.import_module(name)


class _Record:
    """First base of every record the library returns or takes, ahead of its
    namedtuple: ``class R(_Record, namedtuple("R", ...))``.

    ``_make`` calls the class, so ``_replace`` runs the record's ``__new__``
    checks and starts its caches afresh.  ``+`` and ``*`` return
    NotImplemented, so record + record, record + tuple, ``2 * record`` and
    ``record * 2`` raise TypeError where a tuple would concatenate or
    repeat.  ``tuple + record`` still concatenates: tuple's own ``+`` runs
    first and accepts any tuple."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__


def require_finite(z: complex) -> complex:
    """Return ``z`` unchanged, raising if a NaN/Inf tried to escape."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SingularityError(f"non-finite value {z!r}")
    return z


def _pi_power(a: int) -> float:
    """pi^a as a float; past the floats (a > 620) a ConvergenceError, which
    a caller may raise before it builds an exact pi^a multiple."""
    try:
        return math.pi ** a
    except OverflowError:
        raise ConvergenceError(f"pi^{a} overflows a float", suggestion=f"pi power < {a}") from None


# held by every growth of a shared table; reentrant, since building r_p grows
# r_(p-1) and building G''s table reads sigma
_GROWING = threading.RLock()


def _grow(table, n: int, extend):
    """``table``, grown to cover index ``n`` by ``extend(table, n)``, which
    builds the missing run aside and publishes it with one ``table.extend``.
    Reads take no lock; growth re-reads the length under ``_GROWING``, so a
    reader sees only final entries and no two callers build the same run."""
    if n >= len(table):
        with _GROWING:
            if n >= len(table):
                extend(table, n)
    return table


# ---------------------------------------------------------------------------
# Bernoulli numbers and exact zeta values
# ---------------------------------------------------------------------------

# B_0, B_1, ... as far as any call has needed them, grown by _grow
_BERNOULLI: list[Fraction] = [Fraction(1)]

# the largest n built: B_620 serves periodpoly's largest t, 310, the most the
# CLI reaches (``eval pbar --t 310``).  B_2 ... B_620 take about 1.7 s on a
# 2-core Xeon VM, and each further step costs more than the last
_BERNOULLI_N_MAX = 620


def _bernoulli_extend(table: list, n: int) -> None:
    # the binomial recurrence sum_{k<=m} C(m+1,k) B_k = 0, convention B_1 = -1/2
    out = table[:]
    for m in range(len(out), n + 1):
        out.append(-sum(comb(m + 1, k) * out[k] for k in range(m)) / (m + 1))
    table.extend(out[len(table) :])


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2), exact, for integer 0 <= n <= 620;
    past that a ``ConvergenceError``, before any of the numbers is built."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"bernoulli: n must be an integer >= 0, got n = {n!r}")
    if n > _BERNOULLI_N_MAX:
        raise ConvergenceError(
            f"bernoulli: B_{n} is past B_{_BERNOULLI_N_MAX}, the largest Bernoulli number built",
            suggestion=f"n <= {_BERNOULLI_N_MAX}",
        )
    return _grow(_BERNOULLI, n, _bernoulli_extend)[n]


def zeta_even_exact(k: int) -> "SymScalar":
    """zeta(k) for even k >= 2 as an exact pi^k multiple.

    Uses zeta(2m) = (-1)^{m+1} B_{2m} (2 pi)^{2m} / (2 (2m)!).
    """
    if not isinstance(k, int) or k < 2 or k % 2 != 0:
        raise DomainError(f"zeta_even_exact: k must be a positive even integer, got k = {k!r}")
    m = k // 2
    q = Fraction((-1) ** (m + 1)) * bernoulli(2 * m) * Fraction(2) ** (2 * m) / (
        2 * Fraction(math.factorial(2 * m))
    )
    return SymScalar({(k, 0, 0): q})


def zeta_negative_exact(n: int) -> Fraction:
    """zeta(n) for n = 0 or negative odd n, exact rational.

    zeta(1-2t) = -B_{2t}/(2t) and zeta(0) = -1/2.  Other arguments are a
    domain error (negative even integers are trivial zeros but are not of
    the 1-2t form this library needs exactly).
    """
    if not isinstance(n, int) or n > 0 or (n < 0 and n % 2 == 0):
        raise DomainError(f"zeta_negative_exact: argument must be 0 or a negative odd integer, got {n!r}")
    if n == 0:
        return Fraction(-1, 2)
    t = (1 - n) // 2
    return -bernoulli(2 * t) / (2 * t)


# ---------------------------------------------------------------------------
# Numeric zeta / gamma
# ---------------------------------------------------------------------------

def alternating_zeta(s: float, n: int = 50) -> float:
    """eta(s) = sum (-1)^{k} (k+1)^{-s} by Cohen-Rodriguez Villegas-Zagier
    acceleration; error ~ (3+sqrt 8)^{-n}, far below double precision at
    the default depth."""
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0.0
    for k in range(n):
        c = b - c
        acc += c / (k + 1) ** s
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1))
    return acc / d


@lru_cache(maxsize=None)
def zeta_odd_numeric(m: int) -> float:
    """zeta(m) for odd m >= 3 via the accelerated alternating series."""
    if m < 3 or m % 2 == 0:
        raise DomainError("zeta_odd_numeric: m must be odd and >= 3")
    try:
        return alternating_zeta(float(m)) / (1.0 - 2.0 ** (1.0 - m))
    except OverflowError:  # 50^m is past the floats, so zeta(m) = 1 + 2^-m + ... rounds to 1
        return 1.0


@lru_cache(maxsize=None)
def _b2k_over_fact(k: int) -> float:
    return float(bernoulli(2 * k) / math.factorial(2 * k))


def _zeta_em(s: complex) -> complex:
    # Euler-Maclaurin, N direct terms + M corrections; valid comfortably for
    # Re s > -2 at the fixed cutoffs.
    N, M = _EM_N, _EM_M
    acc = complex(0.0)
    for n in range(1, N):
        acc += n ** (-s)
    acc += 0.5 * N ** (-s)
    acc += N ** (1 - s) / (s - 1)
    rising = s
    npow = N ** (-s - 1)
    for k in range(1, M + 1):
        acc += _b2k_over_fact(k) * rising * npow
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        npow /= N * N
    return acc


def zeta_numeric(s: complex) -> complex:
    """Riemann zeta(s), complex, ~1e-13 relative on the working strip."""
    s = complex(s)
    if abs(s - 1.0) < 1e-10:
        raise SingularityError("zeta has a pole at s = 1")
    if s.real < _REFLECT_BELOW:
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        return require_finite(
            2.0 ** s
            * cmath.pi ** (s - 1)
            * cmath.sin(cmath.pi * s / 2)
            * gamma_numeric(1 - s)
            * _zeta_em(1 - s)
        )
    return require_finite(_zeta_em(s))


def gamma_numeric(s: complex) -> complex:
    """Gamma(s) for complex s away from the poles 0, -1, -2, ...
    (``_special.gamma``: ``math.gamma`` on the real axis, Stirling's series
    off it)."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and abs(s.real - round(s.real)) < 1e-12:
        raise SingularityError(f"gamma has a pole at s = {s.real:g}")
    try:
        return require_finite(_lazy("modzeta._special").gamma(s))
    except OverflowError:
        raise SingularityError(f"non-finite value: Gamma({s}) passes the floats") from None


# ---------------------------------------------------------------------------
# Divisor sums
# ---------------------------------------------------------------------------

def divisor_sigma(k: int, n: int) -> int:
    """sigma_k(n) = sum of k-th powers of the divisors of n, exact."""
    if n < 1:
        raise DomainError("divisor_sigma: n must be >= 1")
    if k < 0:
        raise DomainError("divisor_sigma: k must be >= 0")
    total = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if k == 0:
                total *= e + 1
            else:
                total *= (p ** (k * (e + 1)) - 1) // (p ** k - 1)
        p += 1 if p == 2 else 2
    if m > 1:
        total *= (1 + m ** k) if k else 2
    return total


def sigma_range(k: int, n_max: int) -> list[int]:
    """[sigma_k(1), ..., sigma_k(n_max)] by a divisor sieve (index 0 unused).

    Each entry adds its divisors' powers in increasing order, so a real
    ``k`` gives the same floats as the direct divisor sum."""
    if n_max < 1:
        raise DomainError("sigma_range: n_max must be >= 1")
    return _sigma_extend([0], k, n_max)


def _sigma_extend(table: list, k, n_max: int) -> list:
    """Extend a ``sigma_range`` table to cover index ``n_max`` with one
    ``extend``: each new entry adds its divisors' powers in increasing
    order, as a one-shot build of the larger table would."""
    done = len(table) - 1
    first, size = done + 1, n_max - done
    run = [0] * size  # run[i] is entry first + i
    for d in range(1, first):  # old divisors first: each entry's powers stay in increasing order
        dk = d ** k
        for i in range((done // d + 1) * d - first, size, d):
            run[i] += dk
    for d in range(first, n_max + 1):
        dk = d ** k
        for i in range(d - first, size, d):
            run[i] += dk
    table.extend(run)
    return table


def _rp_extend(table: list, p: int, n_max: int) -> list:
    """Extend an r_p table to cover index ``n_max`` with one ``extend``,
    one coordinate at a time: r_1 marks the squares, and r_p(n) = r_{p-1}(n)
    + 2 sum_{j >= 1} r_{p-1}(n - j^2) sums shifted copies of the cached
    r_{p-1} as fixed-width fields of one integer, keeping the new entries."""
    done = len(table) - 1
    if p == 1:
        run = [0] * (n_max - done)
        for j in range(math.isqrt(done) + 1, math.isqrt(n_max) + 1):
            run[j * j - done - 1] = 2
        table.extend(run)
        return table
    # no field carries into the next: p - 1 coordinates take at most 2 sqrt(n) + 1
    # values each and fix the last one up to its sign, so r_p(n) <= 2 (2 sqrt(n) + 1)^(p-1)
    bound = 2 * (2 * math.isqrt(n_max) + 1) ** (p - 1)
    size, code = next((size, code) for size, code in ((2, "H"), (4, "I"), (8, "Q")) if bound < 256 ** size)
    fields = f"<{n_max + 1}{code}"
    prev = int.from_bytes(struct.pack(fields, *_sieve("rp", p - 1, n_max)[: n_max + 1]), "little")
    counts = prev + sum(prev << (8 * size * j * j + 1) for j in range(1, math.isqrt(n_max) + 1))
    counts &= (1 << 8 * size * (n_max + 1)) - 1
    table += struct.unpack(fields, counts.to_bytes(size * (n_max + 1), "little"))[done + 1 :]
    return table


# tables by (kind, order): every integer order for the life of the process,
# and only the last non-integer sigma order, which repeats back to back at
# most (guinand_lhs_bessel's S(u), then S(1/u))
_SIEVES: dict[tuple[str, int], list[int]] = {}
_LAST_NON_INTEGER: dict[tuple[str, float], list[float]] = {}


def _sieve(kind: str, order, n: int) -> list:
    """Coefficient table covering index ``n``: sigma_order (kind "sigma")
    or r_order, the representations as a sum of ``order`` squares (kind
    "rp", orders 1 to 4, with r_p(0) = 1).  The first build covers the
    request and later builds double, each growing the table through
    ``_grow`` (``_sigma_extend``, ``_rp_extend``), so sequential access
    costs O(log n) builds.
    """
    store = _SIEVES if isinstance(order, int) else _LAST_NON_INTEGER
    table = store.get((kind, order))
    if table is None:
        with _GROWING:
            table = store.get((kind, order))
            if table is None:
                if store is _LAST_NON_INTEGER:
                    store.clear()
                table = sigma_range(order, n) if kind == "sigma" else _rp_extend([1], order, n)
                store[(kind, order)] = table
    extend = _sigma_extend if kind == "sigma" else _rp_extend
    return _grow(table, n, lambda t, m: extend(t, order, max(m, 2 * (len(t) - 1))))


def _coefficients(kind: str, order):
    """Per-term view n -> table[n] of a ``_sieve`` table.  It keeps the
    table it was last given (``_grow`` publishes final entries only) and
    asks ``_sieve`` again only for an index beyond it."""
    table = ()

    def at(n: int):
        nonlocal table
        if n >= len(table):
            table = _sieve(kind, order, n)
        return table[n]

    return at


# ---------------------------------------------------------------------------
# SymScalar
# ---------------------------------------------------------------------------

def _basis_product(k1: tuple, k2: tuple) -> tuple[tuple[int, int, int], int]:
    """(key, sign) of the product of two basis monomials: pi powers add, at
    most one zeta(odd) factor, i * i = -1."""
    (a1, m1, e1), (a2, m2, e2) = k1, k2
    if m1 and m2:
        raise DomainError("product of two zeta(odd) monomials leaves the basis")
    return (a1 + a2, m1 or m2, e1 ^ e2), -1 if e1 & e2 else 1


class SymScalar:
    """Exact Gaussian scalar: finite sum of ``q * pi^a * zeta(m) * i^e``.

    Keys are ``(pi_power, zeta_arg, i_power)`` with ``zeta_arg`` either 0
    (no zeta factor) or an odd integer >= 3 and ``i_power`` 0 or 1; values
    are nonzero Fractions.  Addition is unrestricted; multiplication follows
    ``_basis_product`` and rejects a product of two zeta monomials, which
    leaves the basis.  Division is by nonzero Gaussian rationals only.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean: dict[tuple[int, int, int], Fraction] = {}
        for key, q in (terms or {}).items():
            a, m, e = key
            if a < 0:
                raise DomainError("SymScalar: pi power must be >= 0")
            if m != 0 and (m < 3 or m % 2 == 0):
                raise DomainError("SymScalar: zeta argument must be 0 or odd >= 3")
            if e not in (0, 1):
                raise DomainError("SymScalar: i power must be 0 or 1")
            q = Fraction(q)
            if q != 0:
                clean[key] = q
        self._terms = clean

    # -- constructors -------------------------------------------------------
    @classmethod
    def rational(cls, q) -> "SymScalar":
        return cls({(0, 0, 0): Fraction(q)})

    @classmethod
    def pi_term(cls, q, pi_power: int, zeta_arg: int = 0) -> "SymScalar":
        return cls({(pi_power, zeta_arg, 0): Fraction(q)})

    # -- views --------------------------------------------------------------
    @property
    def terms(self) -> tuple[tuple[int, int, int, Fraction], ...]:
        """Sorted ``(pi_power, zeta_arg, i_power, coefficient)`` tuples."""
        return tuple((*key, q) for key, q in sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic ----------------------------------------------------------
    def _coerce(self, other) -> "SymScalar":
        if isinstance(other, SymScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return SymScalar.rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for key, q in other._terms.items():
            terms[key] = terms.get(key, Fraction(0)) + q
        return SymScalar(terms)

    __radd__ = __add__

    def __neg__(self):
        return SymScalar({key: -q for key, q in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple[int, int, int], Fraction] = {}
        for k1, q1 in self._terms.items():
            for k2, q2 in other._terms.items():
                key, sign = _basis_product(k1, k2)
                terms[key] = terms.get(key, Fraction(0)) + sign * q1 * q2
        return SymScalar(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if any(key[:2] != (0, 0) for key in other._terms):
            raise DomainError("SymScalar: division only by Gaussian-rational values")
        p = other._terms.get((0, 0, 0), Fraction(0))
        q = other._terms.get((0, 0, 1), Fraction(0))
        n2 = p * p + q * q
        if n2 == 0:
            raise ZeroDivisionError("division by zero SymScalar")
        return self * SymScalar({(0, 0, 0): p / n2, (0, 0, 1): -q / n2})

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- evaluation / rendering ----------------------------------------------
    def numeric(self) -> float | complex:
        """The value as a float, or as a complex when there is an i part."""
        sums = [0.0, 0.0]  # real and i parts, each in term order
        for (a, m, e), q in self._terms.items():
            v = float(q) * _pi_power(a)
            if m:
                v *= zeta_odd_numeric(m)
            sums[e] += v
        re, im = sums
        return complex(re, im) if any(key[2] for key in self._terms) else re

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (a, m, e), q in sorted(self._terms.items()):
            factors = []
            if q != 1 or (a == 0 and m == 0 and e == 0):
                factors.append(f"({q})" if q.denominator != 1 or q < 0 else f"{q}")
            if e:
                factors.append("i")
            if a == 1:
                factors.append("pi")
            elif a > 1:
                factors.append(f"pi^{a}")
            if m:
                factors.append(f"zeta({m})")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SymScalar({self._terms!r})"

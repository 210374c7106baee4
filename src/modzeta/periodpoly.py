"""Exact period polynomials, rational period functions and cocycle algebra.

Coefficients are Gaussian ``SymScalar``s, sums of ``q pi^a zeta(m) i^e``.
A ``Poly`` keeps one integer vector (index = power) per SymScalar basis key
``(pi_power, zeta_arg, i_power)`` over a common denominator, in a canonical
form; ``Poly.coeffs`` rebuilds the SymScalar coefficients on demand.
Products use the SymScalar rule ``exactnum._basis_product`` (pi powers add,
at most one zeta factor, ``i * i = -1``).  The stroke by ``(a b; c d)``
applies one cached integer matrix, row k ``(a tau + b)^k (c tau + d)^(n-k)``,
to each vector.  Rational functions are equal when ``num1 den2 == num2
den1``, so every identity here is checked exactly, with zero tolerance.

Two pictures of the same polynomials appear.  On the real axis ``x``
(where the q-series live) the degree-(2t-2) obstruction polynomial has
real coefficients and the inversion law carries the twisted factor
``(i x)^{2t-2}``.  The cocycle algebra (stroke operator, composition,
Eichler-Shimura relations) uses the upper-half-plane variable ``tau = i x``
where the stroke is the standard ``(c tau + d)^r f(gamma tau)``; the bridge
is the exact substitution ``x -> -i tau``, i.e. coefficient twisting by
powers of ``-i`` (``Poly.twist_to_tau``).  Both forms are exposed.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import ConvergenceError, DomainError
from .exactnum import SymScalar, _Record, _basis_product, _lazy, zeta_even_exact

__all__ = [
    "Poly",
    "GroupElement",
    "S",
    "T",
    "T_INV",
    "IDENTITY",
    "RationalPeriodFunction",
    "PolynomialForm",
    "pbar",
    "pbar_cocycle",
    "rbar",
    "rbar_cocycle",
    "p_T",
    "stroke",
    "cocycle_compose",
    "eichler_shimura_check",
    "ESResult",
    "bol_check",
    "diff_relation_constant",
]


# ---------------------------------------------------------------------------
# scalars and polynomials
# ---------------------------------------------------------------------------

def _conv(u, v) -> list:
    """Product of two integer coefficient vectors."""
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v, i):
                out[j] += x * y
    return out


def _canonical(parts: dict, den: int) -> tuple[dict, int]:
    """Drop zero components and trailing zeros, then divide the vectors and
    the denominator by their common gcd."""
    clean = {}
    g = den
    for key, vec in parts.items():
        while vec and not vec[-1]:
            vec.pop()
        if vec:
            clean[key] = tuple(vec)
            g = math.gcd(g, *vec)
    if g > 1:
        clean = {key: tuple(x // g for x in vec) for key, vec in clean.items()}
        den //= g
    return clean, den


class Poly:
    """Polynomial over the Gaussian SymScalar field, built from coefficients
    (index = power) and stored split by basis monomial."""

    __slots__ = ("_parts", "_den")

    def __init__(self, coeffs=()):
        found: dict[tuple[int, int, int], dict[int, Fraction]] = {}
        for k, c in enumerate(coeffs):
            if isinstance(c, (int, Fraction)):
                c = SymScalar.rational(c)
            elif not isinstance(c, SymScalar):
                raise TypeError("Poly coefficients must be SymScalar, int or Fraction")
            # in key order, so a coefficient's float sum does not depend on how it was built
            for key, q in sorted(c._terms.items()):
                found.setdefault(key, {})[k] = q
        den = math.lcm(*(q.denominator for row in found.values() for q in row.values()))
        parts = {key: [int(row.get(k, 0) * den) for k in range(max(row) + 1)] for key, row in found.items()}
        self._parts, self._den = _canonical(parts, den)

    @classmethod
    def _from_parts(cls, parts: dict, den: int = 1) -> "Poly":
        p = object.__new__(cls)
        p._parts, p._den = _canonical(parts, den)
        return p

    @classmethod
    def monomial(cls, c, k: int) -> "Poly":
        return cls([0] * k + [c])

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of SymScalar (index = power)."""
        rows = [{} for _ in range(self.degree + 1)]
        for key, vec in self._parts.items():
            for k, x in enumerate(vec):
                if x:
                    rows[k][key] = Fraction(x, self._den)
        return tuple(map(SymScalar, rows))

    @property
    def degree(self) -> int:
        return max(map(len, self._parts.values()), default=0) - 1  # -1 for zero

    def is_zero(self) -> bool:
        return not self._parts

    def __add__(self, o: "Poly") -> "Poly":
        den = math.lcm(self._den, o._den)
        s, t = den // self._den, den // o._den
        parts = {key: [x * s for x in vec] for key, vec in self._parts.items()}
        for key, vec in o._parts.items():
            acc = parts.setdefault(key, [])
            acc.extend([0] * (len(vec) - len(acc)))
            for k, x in enumerate(vec):
                acc[k] += x * t
        return Poly._from_parts(parts, den)

    def __neg__(self) -> "Poly":
        return Poly._from_parts({key: [-x for x in vec] for key, vec in self._parts.items()}, self._den)

    def __sub__(self, o: "Poly") -> "Poly":
        return self + (-o)

    def __mul__(self, o) -> "Poly":
        if not isinstance(o, Poly):
            o = Poly([o])
        size = self.degree + o.degree + 1
        parts: dict = {}
        for k1, u in self._parts.items():
            for k2, v in o._parts.items():
                key, sign = _basis_product(k1, k2)
                acc = parts.setdefault(key, [0] * size)
                for k, x in enumerate(_conv(u, v)):
                    acc[k] += sign * x
        return Poly._from_parts(parts, self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        out = Poly([1])
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, o) -> bool:
        return isinstance(o, Poly) and self._den == o._den and self._parts == o._parts

    def eval_exact(self, tau: Fraction) -> SymScalar:
        tau = Fraction(tau)
        return sum((c * tau ** k for k, c in enumerate(self.coeffs)), SymScalar())

    def eval_numeric(self, tau: complex) -> complex:
        acc = 0j
        power = 1.0 + 0j
        for c in self.coeffs:
            acc += complex(c.numeric()) * power
            power *= tau
        return acc

    def derivative(self) -> "Poly":
        return Poly._from_parts(
            {key: [k * x for k, x in enumerate(vec)][1:] for key, vec in self._parts.items()}, self._den
        )

    def twist_to_tau(self) -> "Poly":
        """Substitute x -> -i tau: coefficient of power k picks up (-i)^k."""
        n = self.degree + 1
        parts: dict = {}
        for (a, m, e), vec in self._parts.items():
            for k, x in enumerate(vec):
                r = (e - k) % 4  # i^e (-i)^k = i^r
                parts.setdefault((a, m, r & 1), [0] * n)[k] += -x if r >= 2 else x
        return Poly._from_parts(parts, self._den)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

class GroupElement(_Record, namedtuple("GroupElement", "a b c d")):
    """Integer matrix (a b; c d) with ad - bc = 1."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.a * self.d - self.b * self.c != 1:
            raise DomainError("GroupElement must have determinant 1")
        return self

    def __mul__(self, o: "GroupElement") -> "GroupElement":
        if not isinstance(o, GroupElement):
            return NotImplemented
        return GroupElement(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)


IDENTITY = GroupElement(1, 0, 0, 1)
S = GroupElement(0, -1, 1, 0)
T = GroupElement(1, 1, 0, 1)
T_INV = GroupElement(1, -1, 0, 1)


# ---------------------------------------------------------------------------
# rational period functions and the stroke action
# ---------------------------------------------------------------------------

class RationalPeriodFunction:
    """num/den with an attached stroke weight r: (f|g)(tau) =
    (c tau + d)^r f(g tau)."""

    __slots__ = ("num", "den", "weight")

    def __init__(self, num: Poly, den: Poly, weight: int):
        if den.is_zero():
            raise DomainError("denominator must not vanish identically")
        self.num = num
        self.den = den
        self.weight = weight

    @classmethod
    def from_poly(cls, p: Poly, weight: int) -> "RationalPeriodFunction":
        return cls(p, Poly([1]), weight)

    def __add__(self, o: "RationalPeriodFunction") -> "RationalPeriodFunction":
        if self.weight != o.weight:
            raise DomainError("cannot add period functions of different weight")
        return RationalPeriodFunction(
            self.num * o.den + o.num * self.den, self.den * o.den, self.weight
        )

    def __neg__(self):
        return RationalPeriodFunction(-self.num, self.den, self.weight)

    def __sub__(self, o):
        return self + (-o)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def eval_exact(self, tau: Fraction) -> SymScalar:
        return self.num.eval_exact(tau) / self.den.eval_exact(tau)

    def eval_numeric(self, tau: complex) -> complex:
        return self.num.eval_numeric(tau) / self.den.eval_numeric(tau)

    def twist_to_tau(self) -> "RationalPeriodFunction":
        return RationalPeriodFunction(
            self.num.twist_to_tau(), self.den.twist_to_tau(), self.weight
        )

    def equals(self, o: "RationalPeriodFunction") -> bool:
        """Exact equality as rational functions: num1 den2 = num2 den1."""
        return self.weight == o.weight and self.num * o.den == o.num * self.den


@lru_cache(maxsize=1024)
def _stroke_columns(g: GroupElement, n: int) -> tuple:
    """Columns of the integer matrix whose row k holds the coefficients of
    (a tau + b)^k (c tau + d)^(n-k), cached per (g, n)."""
    tops, bots = [[1]], [[1]]
    for _ in range(n):
        tops.append(_conv(tops[-1], [g.b, g.a]))
        bots.append(_conv(bots[-1], [g.d, g.c]))
    return tuple(zip(*(_conv(tops[k], bots[n - k]) for k in range(n + 1))))


def _substitute(p: Poly, g: GroupElement, n: int) -> Poly:
    """(c tau + d)^n p(g tau) for n >= deg p, one matrix product per component."""
    cols = _stroke_columns(g, n)
    return Poly._from_parts(
        {key: [sum(map(int.__mul__, vec, col)) for col in cols] for key, vec in p._parts.items()},
        p._den,
    )


def stroke(f: RationalPeriodFunction, g: GroupElement) -> RationalPeriodFunction:
    """(f|g)(tau) = (c tau + d)^r f((a tau + b)/(c tau + d)), exact."""
    if f.is_zero():
        return f
    n_deg = f.num.degree
    d_deg = f.den.degree
    power = f.weight + d_deg - n_deg
    return RationalPeriodFunction(
        _substitute(f.num, g, n_deg + max(power, 0)),
        _substitute(f.den, g, d_deg + max(-power, 0)),
        f.weight,
    )


def cocycle_compose(generators: dict, word: list) -> RationalPeriodFunction:
    """Cocycle value on a word over {S, T, T^-1}, built left to right via
    P(w g) = P(w)|g + P(g).  ``generators`` maps "S" and "T" to their
    period functions; P(T^-1) = -P(T)|T^-1 follows from the cocycle law.
    """
    p_s = generators["S"]
    p_t = generators["T"]
    letters = {S: p_s, T: p_t, T_INV: -stroke(p_t, T_INV)}
    weight = p_s.weight
    acc = RationalPeriodFunction.from_poly(Poly(), weight)
    for g in word:
        if g not in letters:
            raise DomainError(f"word letters must be S, T or T^-1; got {g}")
        acc = stroke(acc, g) + letters[g]
    return acc


class ESResult(_Record, namedtuple("ESResult", "first second")):
    """Outcome of the two Eichler-Shimura relations: ``first`` is
    P|(1 + S) = 0, ``second`` P|(1 + TS + (TS)^2) = 0."""

    def __bool__(self):
        return self.first and self.second


def eichler_shimura_check(p_s: RationalPeriodFunction) -> ESResult:
    """Check P_S|(1+S) = 0 and P_S|(1+TS+(TS)^2) = 0 exactly.

    The second relation is the cusp-form statement (its derivation assumes
    the P(T) = 0 convention); both relations are always computed, and for
    the non-cusp cocycles here the second genuinely fails while the full
    cocycle law still holds.
    """
    ts = T * S
    first = (p_s + stroke(p_s, S)).is_zero()
    second = (p_s + stroke(p_s, ts) + stroke(p_s, ts * ts)).is_zero()
    return ESResult(first, second)


# ---------------------------------------------------------------------------
# the explicit Eisenstein cocycles
# ---------------------------------------------------------------------------

# the largest t whose exact cocycles are built: their coefficients' pi^(2t)
# still fits a float (as ``eval pbar --x`` needs), and B_2 ... B_620 take
# 2.1 s on a 2-core Xeon VM, each step in t more
_T_MAX = 310


def _check_t(t: int):
    if not isinstance(t, int) or t < 2:
        raise DomainError("period polynomials require integer t >= 2")
    if t > _T_MAX:
        raise ConvergenceError(
            f"period polynomials: exact coefficients are built up to t = {_T_MAX}, got t = {t}",
            suggestion=f"t <= {_T_MAX}",
        )


class PolynomialForm(_Record, namedtuple("PolynomialForm", "t coeffs")):
    """Degree-(2t-2) obstruction polynomial in the real-axis variable x,
    with real SymScalar coefficients (index = power of x)."""

    def eval_numeric(self, x: float) -> float:
        return sum(c.numeric() * float(x) ** k for k, c in enumerate(self.coeffs))

    def to_poly(self) -> Poly:
        return Poly(self.coeffs)


def pbar(t: int) -> PolynomialForm:
    """The weight-2t obstruction polynomial on the x axis.

    Exact coefficients: 2 pi zeta(2t-1) ((-1)^{t-1} x^{2t-2} - 1) plus the
    odd powers -4 (-1)^{t-j} zeta(2j) zeta(2t-2j) x^{2t-2j-1}, all real
    (the branch (i x)^{2t-2} is expanded as (-1)^{t-1} x^{2t-2}).
    """
    _check_t(t)
    coeffs = [SymScalar() for _ in range(2 * t - 1)]
    coeffs[2 * t - 2] = SymScalar.pi_term(2 * (-1) ** (t - 1), 1, 2 * t - 1)
    coeffs[0] = SymScalar.pi_term(-2, 1, 2 * t - 1)
    for j in range(1, t):
        zz = zeta_even_exact(2 * j) * zeta_even_exact(2 * t - 2 * j)
        coeffs[2 * t - 2 * j - 1] = coeffs[2 * t - 2 * j - 1] + (
            Fraction(-4 * (-1) ** (t - j)) * zz
        )
    return PolynomialForm(t, tuple(coeffs))


def pbar_cocycle(t: int) -> RationalPeriodFunction:
    """pbar in the tau picture (x = -i tau), where P|(1+S) = 0 holds for
    the standard stroke."""
    return RationalPeriodFunction.from_poly(
        pbar(t).to_poly().twist_to_tau(), 2 * t - 2
    )


def rbar(t: int) -> RationalPeriodFunction:
    """Extended polynomial: pbar plus the end terms
    2 (-1)^t zeta(2t) x^{2t-1} + 2 zeta(2t) / x, as an exact rational
    function (1/x times a polynomial) on the x axis."""
    _check_t(t)
    z2t = zeta_even_exact(2 * t)
    num = pbar(t).to_poly() * Poly.monomial(1, 1)
    num = num + Poly.monomial(Fraction(2 * (-1) ** t) * z2t, 2 * t)
    num = num + Poly([2 * z2t])
    return RationalPeriodFunction(num, Poly.monomial(1, 1), 2 * t - 2)


def rbar_cocycle(t: int) -> RationalPeriodFunction:
    return rbar(t).twist_to_tau()


def p_T(t: int) -> RationalPeriodFunction:
    """Translation cocycle 2 zeta(2t) (1/tau - 1/(tau+1)) =
    2 zeta(2t)/(tau (tau+1)), tau picture."""
    _check_t(t)
    z2t = zeta_even_exact(2 * t)
    return RationalPeriodFunction(
        Poly([2 * z2t]),
        Poly([0, 1, 1]),  # tau + tau^2
        2 * t - 2,
    )


# ---------------------------------------------------------------------------
# Bol's identity
# ---------------------------------------------------------------------------

def bol_check(phi: Poly, g: GroupElement, r: int) -> bool:
    """Verify (D^{r+1} phi)(g tau) = (c tau + d)^{r+2} D^{r+1}
    ((c tau + d)^r phi(g tau)) exactly, D the ordinary derivative.

    phi must be a polynomial, so both sides have the form N / (c tau + d)^m;
    they are compared exactly by cross-multiplication.
    """
    if r < 0:
        raise DomainError("bol_check requires r >= 0")
    if not isinstance(phi, Poly):
        phi = Poly(phi)
    lin = Poly([g.d, g.c])  # c tau + d

    # left side: psi(g tau) = left / lin^m_left, psi = phi^{(r+1)}
    psi = phi
    for _ in range(r + 1):
        psi = psi.derivative()
    m_left = max(psi.degree, 0)
    left = _substitute(psi, g, m_left)

    # right side: (c tau + d)^r phi(g tau) = num / lin^m; the quotient rule
    # keeps that form, (num / lin^m)' = (num' lin - m c num) / lin^(m+1)
    m = max(phi.degree, 0)
    num = _substitute(phi, g, m)
    m -= r
    for _ in range(r + 1):
        num, m = num.derivative() * lin - num * (m * g.c), m + 1
    m -= r + 2
    return left * lin ** max(m - m_left, 0) == num * lin ** max(m_left - m, 0)


# ---------------------------------------------------------------------------
# the differential relation constant
# ---------------------------------------------------------------------------

def diff_relation_constant(t: int) -> float:
    """Measure c(t) with D^{2t-1} phi_bar_{2t} = c(t) eps_sub_t, D = q d/dq.

    The ratio is fitted on a 6-point grid (D^{2t-1} of phi_bar's q-series
    part 4 pi S_t is 4 pi 2^{2t-1} sum sigma_{2t-1}(m) q^{2m}, the divisor
    series of weight 0; the 1/x pole is differentiated in closed form) and
    must be constant to a relative 1e-8.  The same constant must relate the
    translation cocycles: D^{2t-1} P(T) = c(t) E(T) with
    E(T, x) = (-1)^{t+1} (1/2) zeta(1-2t) ((x-i)^{-2t} - x^{-2t}),
    checked at x = 1 - i.  The measured value is 2^{2t+1} pi.
    """
    _check_t(t)
    qseries = _lazy("modzeta.qseries")
    rel_tol = 1e-8
    z2t = zeta_even_exact(2 * t).numeric()
    fact = math.factorial(2 * t - 1)

    def d_phi_bar(x: float) -> float:
        ds = 2.0 ** (2 * t - 1) * qseries._divisor_series(2 * t - 1, 0, math.exp(-2 * math.pi * x)).value
        pole = -2.0 * z2t * fact * math.pi ** (1 - 2 * t) * x ** (-2 * t)
        return 4 * math.pi * ds + pole

    # keep clear of x = 1: the inversion law makes eps_sub vanish there
    # for odd t, so the ratio would be 0/0
    grid = [0.6, 0.75, 0.9, 1.2, 1.5, 1.9]
    ratios = [complex(d_phi_bar(x)) / qseries.eps_sub(t, x).value for x in grid]
    c0 = sum(ratios) / len(ratios)
    for r in ratios:
        if abs(r - c0) > rel_tol * abs(c0):
            raise ConvergenceError(
                f"D^(2t-1) phi_bar / eps_sub not constant: spread {max(abs(r - c0) for r in ratios):.2e}"
            )

    # cross-check against the translation-cocycle pair of the same function
    x0 = 1.0 - 1.0j
    dpt = -2.0 * z2t * fact * math.pi ** (1 - 2 * t) * (
        (x0 - 1j) ** (-2 * t) - x0 ** (-2 * t)
    )
    e_t = (-1) ** (t + 1) * float(qseries.casimir_constant(t)) * (
        (x0 - 1j) ** (-2 * t) - x0 ** (-2 * t)
    )
    if abs(dpt - c0 * e_t) > rel_tol * max(abs(dpt), 1e-30):
        raise ConvergenceError("translation cocycle does not share the measured constant")
    return c0.real

"""Thermal layer: partial free energies, entropy, and the 3-sphere free
energy computed by two independent routes.

Scaled-temperature conventions: xi = 1/b, beta = 2 pi / xi, and the two
Boltzmann variables q = exp(-pi/xi) (low-temperature series) and
q' = exp(-pi xi) (high-temperature series).  The partial free energy is

    f_t(xi) = -B_{2t}/(4t) - (xi/2pi) sum_m sigma_{2t-1}(m) q^{2m} / m,

pinned by the thermodynamic identity eps_t = f_t - xi df_t/dxi (the
internal energy is the weight-2t q-series) and by the mode-sum route
below; the scaled entropy is its xi-derivative.

For the 3-sphere (t = 2) the free energy is also computed from the
lattice zeta function through

    F3(xi) = -(xi^4 / 16 pi^4) d/dxi [ xi Z_2(4, A^{-1}) ],

with the xi-derivative applied termwise to the high-temperature (q')
series of Z_2 -- a genuinely different series from the q-route

    F3(xi) = 1/240 - (xi/2pi) sum_n sigma_3(n) n^{-1} q^{2n},

so their agreement tests the inversion identity at free-energy level.
The generic mode-sum form (1/2) zeta_M(-1/2) + (1/beta) sum d_n
log(1 - e^{-n beta}) and its thermal-zeta derivation (where only the
half-integer Bessel survives the s -> 0 limit) close the loop.
"""
from __future__ import annotations

import itertools
import math
import numbers
from collections import namedtuple
from fractions import Fraction

from .errors import ConvergenceError, DomainError
from .exactnum import _Record, _lazy, zeta_negative_exact, zeta_odd_numeric
from .qseries import SeriesValue, _casimir, _certified_sum, _divisor_series, _eps_q

__all__ = [
    "SpectrumSpec",
    "S3_SPEC",
    "SINGLE_MODE",
    "free_energy_partial",
    "entropy_partial",
    "f3_epstein",
    "f3_modesum",
    "mode_sum_free_energy",
    "thermal_zeta_free_energy",
]


def _xi(pt) -> float:
    xi = float(pt)
    if not 0 < xi < math.inf:  # NaN too
        raise DomainError(f"xi must be finite and > 0, got xi = {xi}")
    return xi


class SpectrumSpec(_Record, namedtuple("SpectrumSpec", "label degeneracy_coeffs table", defaults=((), ()))):
    """Frequencies omega_n = n with degeneracies d_n.

    Either polynomial (d_n = sum_k c_k n^k, degree <= 6) or a finite
    table ((n, d_n), ...).  zeta_M(s) = sum d_n n^{-2s}; for polynomial
    degeneracies zeta_M(-1/2) = sum_k c_k zeta(-1-k) reduces to exact
    negative-zeta values (odd k terms vanish).  ``_degeneracies``, the
    table as {n: d_n}, is an attribute, out of equality, the hash and the
    repr.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if bool(self.degeneracy_coeffs) == bool(self.table):
            raise DomainError("SpectrumSpec needs coefficients or a table, not both")
        if len(self.degeneracy_coeffs) > 7:
            raise DomainError("degeneracy polynomial degree must be <= 6")
        values = [d for (_, d) in self.table] or self.degeneracy_coeffs
        if not all(isinstance(x, numbers.Real) and math.isfinite(x) for x in values):
            raise DomainError("degeneracies must be finite real numbers")
        negative = any(d < 0 for d in values) if self.table else _negative_somewhere(values)
        if negative:
            raise DomainError("degeneracies must be nonnegative")
        self._degeneracies = {n: float(d) for (n, d) in self.table}
        return self

    def degeneracy(self, n: int) -> float:
        if self.table:
            return self._degeneracies.get(n, 0.0)
        return float(sum(c * n ** k for k, c in enumerate(self.degeneracy_coeffs)))

    def max_mode(self) -> int | None:
        if self.table:
            return max(n for (n, _) in self.table)
        return None

    def zeta_m_minus_half(self) -> Fraction:
        """zeta_M(-1/2) = sum_n d_n n, exactly (zeta-regularized for
        polynomial degeneracies)."""
        if self.table:
            return sum((Fraction(d).limit_denominator(10 ** 12) * n for (n, d) in self.table), Fraction(0))
        total = Fraction(0)
        for k, c in enumerate(self.degeneracy_coeffs):
            arg = -1 - k
            if arg == 0 or arg % 2 != 0:
                zval = zeta_negative_exact(arg)
            else:
                zval = Fraction(0)  # trivial zeros at negative even integers
            total += Fraction(c) * zval
        return total

    @classmethod
    def from_json(cls, doc: dict) -> "SpectrumSpec":
        if not isinstance(doc, dict) or not {"degeneracy_coeffs", "table"} & set(doc):
            raise DomainError("a spectrum is a JSON object with 'degeneracy_coeffs' or 'table'")
        if doc.get("omega", "n") != "n":
            raise DomainError("only omega_n = n spectra are supported")
        if "degeneracy_coeffs" in doc:
            return cls(doc.get("label", "spectrum"), tuple(doc["degeneracy_coeffs"]))
        return cls(doc.get("label", "spectrum"), table=tuple((int(n), d) for n, d in doc["table"]))


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of two coefficient lists, constant term first."""
    a, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(q))):
        q[i] = a[i + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            a[i + j] -= q[i] * c
    r = a[: len(b) - 1]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _negative_somewhere(coeffs) -> bool:
    """Whether sum_k c_k n^k < 0 at some integer n >= 1, decided exactly.

    Sturm's theorem over the square-free part (the same roots, each simple)
    counts the roots in (a, b] as changes(a) - changes(b).  Past Fujiwara's
    bound on the roots (Tohoku Math. J. 10, 1916) the sign is the leading
    coefficient's; below it, bisection over the integers splits each interval
    that holds a root down to one integer, lower half first, and elsewhere
    the sign at an interval's end holds on it.  An interval that spans more
    than an octave is split at a power of two, in bit length, so coefficients
    that span the float range cost a few dozen splits, not thousands.
    """
    exact = [Fraction(c) for c in coeffs]
    while exact and exact[-1] == 0:
        exact.pop()
    if not exact or exact[-1] < 0:
        return bool(exact)
    if min(exact) >= 0:  # no negative coefficient: positive at every n >= 1
        return False
    chain = [exact, [k * c for k, c in enumerate(exact)][1:]]
    while chain[-1]:  # signed remainders, down to the gcd of the polynomial and its derivative
        chain.append([-c for c in _poly_divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    chain = [_poly_divmod(p, chain[-1])[0] for p in chain]  # each over the gcd: the square-free part's chain
    # each polynomial times a positive integer: the same signs, in integers
    exact, *chain = ([int(c * math.lcm(*(q.denominator for q in p))) for c in p] for p in (exact, *chain))

    def value(p, x):
        return sum(c * x ** k for k, c in enumerate(p))

    def changes(x):
        signs = [v for v in (value(p, x) for p in chain) if v]
        return sum((u < 0) != (v < 0) for u, v in zip(signs, signs[1:]))

    # Fujiwara: every root lies below 2 max_k |c_{d-k} / c_d|^(1/k), and
    # |c_{d-k} / c_d| < 2^(L_{d-k} - L_d + 1) in bit lengths L, so below 2^(e + 1)
    lead = exact[-1].bit_length()
    e = max(-((lead - 1 - abs(c).bit_length()) // k) for k, c in enumerate(reversed(exact[:-1]), 1) if c)
    top = 1 << max(e + 1, 1)
    stack = [(0, top, changes(0), changes(top))]  # (a, b, changes(a), changes(b))
    while stack:
        a, b, at_a, at_b = stack.pop()
        if b - a > 1 and at_a != at_b:
            mid = (a + b) // 2 if b <= 2 * a + 2 else 1 << (a.bit_length() + b.bit_length() - 1) // 2
            at_mid = changes(mid)
            stack += [(mid, b, at_mid, at_b), (a, mid, at_a, at_mid)]
        elif value(exact, b) < 0:
            return True
    return False


S3_SPEC = SpectrumSpec("s3-conformal-scalar", (0, 0, 1))
SINGLE_MODE = SpectrumSpec("single-mode", table=((1, 1.0),))


# ---------------------------------------------------------------------------
# partial free energy and entropy
# ---------------------------------------------------------------------------

def free_energy_partial(t: int, pt, tol: float = 1e-15) -> SeriesValue:
    """f_t(xi) = -B_{2t}/4t - (xi/2pi) sum sigma_{2t-1}(m) q^{2m} / m."""
    xi = _xi(pt)
    q2 = math.exp(-2.0 * math.pi / xi)
    scale = xi / (2 * math.pi)
    series = _divisor_series(2 * t - 1, 1.0, q2, tol / max(scale, 1.0))
    what = f"free energy f_{t}({xi:g})"
    val = _casimir(t, what) - scale * series.value
    if not math.isfinite(val):
        raise ConvergenceError(f"{what} leaves the float range", suggestion=f"t < {t}")
    return SeriesValue(val, series.terms, scale * series.tail_bound)


def entropy_partial(t: int, pt, tol: float = 1e-15) -> SeriesValue:
    """s_t = df_t/dxi = -(1/2pi) G - (1/xi) E with G the resummed double series
    sum sigma_{2t-1}(m) q^{2m}/m and E the q-part of eps_t at b = 1/xi."""
    xi = _xi(pt)
    q2 = math.exp(-2.0 * math.pi / xi)
    # each series keeps its tail times its prefactor within tol/2: G's
    # prefactor 1/2pi already does at tol, E's 1/xi needs xi tol/2
    g = _divisor_series(2 * t - 1, 1.0, q2, tol)
    e = _eps_q(t, 1.0 / xi, min(tol, 0.5 * xi * tol))
    return SeriesValue(
        -g.value / (2 * math.pi) - e.value.real / xi,
        g.terms + e.terms,
        g.tail_bound / (2 * math.pi) + e.tail_bound / xi,
    )


# ---------------------------------------------------------------------------
# the two F3 routes
# ---------------------------------------------------------------------------

def f3_modesum(pt, tol: float = 1e-15) -> SeriesValue:
    """F3 = 1/240 - (xi/2pi) sum sigma_3(n) n^{-1} q^{2n}  (q-route)."""
    return free_energy_partial(2, pt, tol)  # 1/240 = -B_4/8


def f3_epstein(pt, tol: float = 1e-15) -> SeriesValue:
    """F3 from the lattice zeta route, differentiating the
    high-temperature (q') series termwise:

        -xi^4/720 + xi zeta(3)/(8 pi^3) + xi chi(q')/(4 pi^3)
        + xi^2 T(q')/(2 pi^2) + xi^3 U(q')/(2 pi)

    with chi, T, U the sigma_3 series of weights 3, 2, 1 in q'."""
    xi = _xi(pt)
    try:
        xi4 = xi ** 4
    except OverflowError:  # from xi = 1.16e77 on, before xi^3 does
        raise ConvergenceError(
            f"f3_epstein at xi = {xi:g}: xi^4 leaves the float range", suggestion="xi < 1.1e77"
        ) from None
    q2p = math.exp(-2.0 * math.pi * xi)
    scales = (xi / (4 * math.pi ** 3), xi * xi / (2 * math.pi ** 2), xi ** 3 / (2 * math.pi))
    # each series keeps its tail times its prefactor within tol/3
    chi, t_series, u_series = (
        _divisor_series(3, weight, q2p, tol / max(3 * scale, 1.0))
        for weight, scale in zip((3.0, 2.0, 1.0), scales)
    )
    z3 = zeta_odd_numeric(3)
    val = (
        -xi4 / 720.0
        + xi * z3 / (8 * math.pi ** 3)
        + xi * chi.value / (4 * math.pi ** 3)
        + xi * xi * t_series.value / (2 * math.pi ** 2)
        + xi ** 3 * u_series.value / (2 * math.pi)
    )
    tail = (
        xi * chi.tail_bound / (4 * math.pi ** 3)
        + xi * xi * t_series.tail_bound / (2 * math.pi ** 2)
        + xi ** 3 * u_series.tail_bound / (2 * math.pi)
    )
    return SeriesValue(val, chi.terms + t_series.terms + u_series.terms, tail)


# ---------------------------------------------------------------------------
# generic mode sums
# ---------------------------------------------------------------------------

def _mode_sum(spec: SpectrumSpec, beta: float, tol: float, term, what: str) -> SeriesValue:
    """F = (1/2) zeta_M(-1/2) + (1/beta) sum_n term(n, d_n) over the modes
    with d_n != 0.  A table stops after its last entry; a polynomial
    spectrum on the majorant of sum_{m>n} d_m log(1 - e^{-m beta}), at
    min(tol, tol beta) since F is the sum over beta.  ``terms`` is the last
    mode summed, or a table's largest mode."""
    if not beta > 0:  # NaN too; beta = +inf is the zero-temperature limit
        raise DomainError(f"{what} requires beta > 0, got beta = {beta}")
    if spec.table:
        # entries at n < 1 are no modes; an all-such table sums one zero
        modes = sorted((n, d) for n, d in spec._degeneracies.items() if n >= 1) or [(1, 0.0)]

        def tail(k: int) -> float:
            return 0.0 if k >= len(modes) else math.inf
    else:
        modes = ((n, spec.degeneracy(n)) for n in itertools.count(1))
        # capped, since 1/beta can be inf: any first past 1e6 is past the budget
        first = max(2, int(min(1.0 / beta, 2e6)) + 1) + 1
        decay = max(1 - math.exp(-beta), 1e-300)

        def tail(n: int) -> float:
            # |d_n log(1 - e^{-n beta})| <= 2 d_n e^{-n beta} for n beta >= 0.7
            if n < first:
                return math.inf
            return 2 * max(spec.degeneracy(n + 1), 1.0) * math.exp(-(n + 1) * beta) / decay

        # the majorant falls once n > deg(d)/beta, and short of that it is near
        # d_n / beta, far over tol: where it misses at the budget's last mode (inf
        # where even the first checked mode is past it), no mode certifies
        if tail(1_000_000) > min(tol, tol * beta):
            raise ConvergenceError(
                f"{what} at beta = {beta:.3g} cannot certify {tol:.1e} in its 1000000-mode budget",
                suggestion="larger beta",
            )

    terms = (term(n, d) if d else 0.0 for n, d in modes)
    s = _certified_sum(terms, tail, min(tol, tol * beta), 1_000_000, f"{what} at beta = {beta:.3g}")
    value = 0.5 * float(spec.zeta_m_minus_half()) + s.value / beta
    if not math.isfinite(value):  # about log(beta) / beta: past the float range as beta -> 0
        raise ConvergenceError(f"{what} at beta = {beta:.3g} leaves the float range", suggestion="larger beta")
    return SeriesValue(value, spec.max_mode() if spec.table else s.terms, s.tail_bound / beta)


def mode_sum_free_energy(spec: SpectrumSpec, beta: float, tol: float = 1e-14) -> SeriesValue:
    """F = (1/2) zeta_M(-1/2) + (1/beta) sum_n d_n log(1 - e^{-n beta})."""

    def term(n: int, d: float) -> float:
        e = math.exp(-n * beta)
        # where e rounds to 1.0, log1p(-e) would be log(0); 1 - e = -expm1(-n beta) keeps its digits
        return d * (math.log1p(-e) if e < 1.0 else math.log(-math.expm1(-n * beta)))

    return _mode_sum(spec, beta, tol, term, "mode_sum_free_energy")


def thermal_zeta_free_energy(spec: SpectrumSpec, beta: float, tol: float = 1e-12) -> SeriesValue:
    """The same free energy through the massive-sum route: per mode,
    the s -> 0 limit leaves the zeta-regularized Casimir term plus
    -(2/beta) sum_m sqrt(w_n/m) K_{1/2}(2 pi m w_n), w_n = beta n / 2 pi
    (only the half-integer Bessel survives the limit).  Its tail adds the
    per-mode series' tails, 2 sum_n d_n tail_n / beta, to the mode sum's;
    mode n's series gets tol beta / (4 max(d_n, 1)) times 6 / (pi n)^2, so
    the inner tails stay within tol / 2, and the mode sum takes the other
    half."""
    bessel_k = _lazy("modzeta.epstein").bessel_k
    inner_tails = []

    def term(n: int, d: float) -> float:
        w = beta * n / (2 * math.pi)
        mode = _certified_sum(
            (math.sqrt(w / m) * bessel_k(0.5, 2 * math.pi * m * w) for m in itertools.count(1)),
            # the terms are e^{-m beta n} / 2m, so the tail past m is at most the next
            # term over 1 - e^{-beta n}; twice the next term covers that once beta n >= log 2
            lambda m: math.exp(-(m + 1) * beta * n) / ((m + 1) * min(1.0, -2.0 * math.expm1(-beta * n))),
            tol * beta / (4 * max(d, 1.0)) * 6.0 / (math.pi * n) ** 2,
            200_000,
            f"thermal-zeta mode {n}",
        )
        inner_tails.append(d * mode.tail_bound)
        return -2.0 * d * mode.value

    f = _mode_sum(spec, beta, tol / 2, term, "thermal_zeta_free_energy")
    return SeriesValue(f.value, f.terms, f.tail_bound + 2.0 * sum(inner_tails) / beta)

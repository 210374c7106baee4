"""Paired Dirichlet series with a functional equation: the generic layer.

A datum packages two series phi(s) = sum a_m lambda_m^{-s} and
psi(s) = sum b_n mu_n^{-s} whose joint continuation chi(s) = Gamma(s) phi(s)
= Gamma(delta - s) psi(delta - s) has finitely many simple poles.  From it
follow, and are implemented here:

* the kernel-level modular relation
  Phi(beta) - beta^{-delta} Psi(1/beta) = B(beta), with the residual
  function B(beta) = sum over poles of beta^{-s'} Res chi(s');
* the massive representation Gamma(s) phi(s, w) = R(s, w) +
  2 sum b_n (mu_n/w^2)^{(s-delta)/2} K_{s-delta}(2 w sqrt(mu_n)), where
  phi(s, w) = sum a_m (lambda_m + w^2)^{-s} and R collects the
  Gamma-shifted residues;
* numeric extraction of the residue of phi at s = delta (the kernel
  route, independent of the closed form it is tested against).

Built-in data: the weight-2t divisor datum (a_n = sigma_{2t-1}(n),
lambda = 2 pi n, delta = 2t), diagonal lattice data (r_p counts, read
from ``exactnum``'s tables) and the Jacobi theta datum.

K_nu comes from ``epstein.bessel_k``, and Gamma and the incomplete gamma
Q(a, x) of the massive tail from ``exactnum.gamma_numeric`` and
``_special.gammaincc``, all in pure Python.
"""
from __future__ import annotations

import cmath
import itertools
import math
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ConvergenceError,
    DomainError,
    SingularityError,
)
from .exactnum import _Record, _coefficients, _grow, _lazy, gamma_numeric, zeta_negative_exact
from .qseries import SeriesValue, _certified_sum, _first_true, _quad

# relative rounding allowance per Bessel term, sized when bessel_k was within
# 1.3e-13 of mpmath (it is within 3e-15 up to order 8 and 5e-14 above since
# it is pure Python, tests/test_special.py); the powers, products and sum
# add a few ulps
_ROUNDING = 2e-13

__all__ = [
    "DirichletDatum",
    "eisenstein_datum",
    "diagonal_epstein_datum",
    "theta_datum",
    "phi_direct",
    "residual_B",
    "heat_kernel",
    "modular_relation_gap",
    "berndt_phi",
    "berndt_R",
    "pole_residue",
    "PoleResidueResult",
    "koshliakov_residue_closed_form",
]


class DirichletDatum(_Record, namedtuple(
    "DirichletDatum",
    "name a b lam mu delta residues a_bound b_bound lam_low mu_low kosh",
    defaults=((), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, 1.0), None),
)):
    """Coefficients, exponent sequences and analytic data of a pair.

    ``residues`` lists the simple poles of chi(s) = Gamma(s) phi(s) as
    (location, residue).  ``a_bound = (C, p)`` certifies |a_m| <= C m^p,
    and ``lam_low = (c, q)`` certifies lambda_m >= c m^q (same for the b
    side); these drive every truncation.  ``kosh`` is the scale b of the
    classical transformation-formula normalization (series in n^{-s},
    lambda_n = b n) when the datum has one, else None.  ``zero_modes`` is
    derived, not stored: the Koshliakov numbers read from the pole list.

    ``_g_prime`` is a cache, not data: ``pole_residue`` keeps its kernel's
    (a_m, lambda_m) pairs there for every later call on this datum.  It is
    an attribute, not a field, so ``swapped()`` and ``_replace`` start with
    an empty table, and it is out of equality, the hash and the repr.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._g_prime = array("d", [0.0, 0.0])
        return self

    @property
    def zero_modes(self) -> tuple[float, float]:
        """The Koshliakov numbers (a_0, b_0) = (-phi(0), -psi(0)), read from
        the pole list as (-Res chi(0), Res chi(delta)); 0.0 without a pole."""
        res = dict(self.residues)
        return (-res[0.0] if 0.0 in res else 0.0, res.get(self.delta, 0.0))

    @property
    def supports_modular(self) -> bool:
        """Whether the modular-relation routes apply: exactly the data that
        list the poles of chi in ``residues``."""
        return bool(self.residues)

    def swapped(self) -> "DirichletDatum":
        """Exchange the roles of the two series (delta-reflecting the
        residues: chi'(s) = chi(delta - s) flips their signs)."""
        return DirichletDatum(
            name=self.name + "~",
            a=self.b,
            b=self.a,
            lam=self.mu,
            mu=self.lam,
            delta=self.delta,
            residues=tuple((self.delta - s0, -r) for (s0, r) in self.residues),
            a_bound=self.b_bound,
            b_bound=self.a_bound,
            lam_low=self.mu_low,
            mu_low=self.lam_low,
            kosh=None,
        )


# ---------------------------------------------------------------------------
# factories.  The three data with a functional equation are made once per
# process (typed, so that 1.0 never finds an equal int's entry), and the
# tables pole_residue keeps on them serve every later call
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def eisenstein_datum(t: int) -> DirichletDatum:
    """Weight-2t divisor datum in the strict functional-equation
    normalization: a_n = sigma_{2t-1}(n), lambda_n = mu_n = 2 pi n,
    b_n = (-1)^t sigma_{2t-1}(n), delta = 2t.

    chi(s) = Gamma(s) (2 pi)^{-s} zeta(s) zeta(s - 2t + 1) has simple
    poles at 0 (residue phi(0) = zeta(0) zeta(1-2t)) and 2t (residue
    -(-1)^t phi(0), equal to Gamma(2t) (2 pi)^{-2t} zeta(2t)).
    """
    if not (isinstance(t, int) and t >= 2):
        raise DomainError(f"eisenstein_datum requires an integer t >= 2, got t = {t!r}")
    sign = float((-1) ** t)
    phi0 = float(Fraction(-1, 2) * zeta_negative_exact(1 - 2 * t))
    k = 2 * t - 1
    zk = 1.21  # sigma_{2t-1}(n) <= zeta(2t-1) n^{2t-1} <= 1.21 n^{2t-1}
    sigma = _coefficients("sigma", k)

    def sig(n: int) -> float:
        return float(sigma(n))

    return DirichletDatum(
        name=f"eisenstein_{t}",
        a=sig,
        b=lambda n: sign * sig(n),
        lam=lambda n: 2.0 * math.pi * n,
        mu=lambda n: 2.0 * math.pi * n,
        delta=float(2 * t),
        residues=((0.0, phi0), (float(2 * t), -sign * phi0)),
        a_bound=(zk, float(k)),
        b_bound=(zk, float(k)),
        lam_low=(2.0 * math.pi, 1.0),
        mu_low=(2.0 * math.pi, 1.0),
        kosh=2.0 * math.pi,
    )


@lru_cache(maxsize=None, typed=True)
def theta_datum() -> DirichletDatum:
    """Jacobi theta datum: a_m = b_m = 2, lambda_m = pi m^2, delta = 1/2."""
    return DirichletDatum(
        name="theta",
        a=lambda m: 2.0,
        b=lambda m: 2.0,
        lam=lambda m: math.pi * m * m,
        mu=lambda m: math.pi * m * m,
        delta=0.5,
        residues=((0.0, -1.0), (0.5, 1.0)),
        a_bound=(2.0, 0.0),
        b_bound=(2.0, 0.0),
        lam_low=(math.pi, 2.0),
        mu_low=(math.pi, 2.0),
    )


@lru_cache(maxsize=None, typed=True)
def diagonal_epstein_datum(p: int) -> DirichletDatum:
    """Diagonal lattice datum: a_n = r_p(n), lambda_n = n,
    b_n = pi^{p/2} r_p(n), mu_n = pi^2 n, delta = p/2."""
    if not (isinstance(p, int) and 1 <= p <= 4):
        raise DomainError(f"diagonal_epstein_datum supports integer 1 <= p <= 4, got p = {p!r}")
    pref = math.pi ** (p / 2.0)
    rp = _coefficients("rp", p)
    return DirichletDatum(
        name=f"diagonal_epstein_{p}",
        a=lambda n: float(rp(n)),
        b=lambda n: pref * float(rp(n)),
        lam=float,
        mu=lambda n: math.pi * math.pi * n,
        delta=p / 2.0,
        residues=((0.0, -1.0), (p / 2.0, pref)),
        a_bound=(3.0 ** p, p / 2.0),
        b_bound=(pref * 3.0 ** p, p / 2.0),
        lam_low=(1.0, 1.0),
        mu_low=(math.pi * math.pi, 1.0),
    )


# ---------------------------------------------------------------------------
# direct series and kernels
# ---------------------------------------------------------------------------

def phi_direct(d: DirichletDatum, s: complex, tol: float = 1e-11) -> SeriesValue:
    """Truncated sum a_m lambda_m^{-s} with a certified power tail."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"phi_direct requires a finite s, got s = {s}")
    c_a, p_a = d.a_bound
    c_l, q_l = d.lam_low
    decay = s.real * q_l - p_a
    if decay <= 1.0:
        raise DomainError("phi_direct: Re s below the certified convergence range")

    def tail(m: int) -> float:
        m1 = m + 1
        return c_a * c_l ** (-s.real) * (m1 ** -decay + m1 ** (1 - decay) / (decay - 1))

    terms = (d.a(m) * complex(d.lam(m)) ** (-s) for m in itertools.count(1))
    return _certified_sum(terms, tail, tol, 600_000, "phi_direct", 0j)


def _kernel_sum(coef, seq, low, bound, beta: float, tol: float) -> SeriesValue:
    if not beta > 0:  # NaN too; beta = +inf leaves the zero modes alone
        raise DomainError(f"heat kernels require beta > 0, got beta = {beta}")
    c_b, p_b = bound
    c_l, q_l = low

    def tail(m: int) -> float:
        m1 = m + 1
        term_bound = c_b * m1 ** p_b * math.exp(-c_l * m1 ** q_l * beta)
        ratio = ((m1 + 1) / m1) ** p_b * math.exp(
            -c_l * beta * ((m1 + 1) ** q_l - m1 ** q_l)
        )
        return term_bound / (1 - ratio) if ratio < 1 else math.inf

    terms = (coef(m) * math.exp(-seq(m) * beta) for m in itertools.count(1))
    return _certified_sum(terms, tail, tol, 200_000, "heat kernel")


def heat_kernel(d: DirichletDatum, beta: float, tol: float = 1e-15) -> SeriesValue:
    """Phi(beta) = sum a_m e^{-lambda_m beta}, the a side's exponential
    kernel, certified to tol; the zero mode ``d.zero_modes[0]`` is not in it."""
    return _kernel_sum(d.a, d.lam, d.lam_low, d.a_bound, beta, tol)


def residual_B(d: DirichletDatum, beta: float) -> complex:
    """B(beta) = sum over the pole list of beta^{-s'} Res chi(s')."""
    if beta <= 0:
        raise DomainError("residual_B requires beta > 0")
    return sum((r * beta ** (-complex(s0)) for (s0, r) in d.residues), 0j)


def modular_relation_gap(d: DirichletDatum, beta: float, tol: float = 1e-14) -> float:
    """|Phi(beta) - beta^{-delta} Psi(1/beta) - B(beta)| with the bare
    exponential kernels (zero modes enter through the pole list)."""
    if not d.supports_modular:
        raise DomainError(f"datum {d.name} carries no functional equation")
    phi_v = heat_kernel(d, beta, tol).value.real
    psi_v = _kernel_sum(d.b, d.mu, d.mu_low, d.b_bound, 1.0 / beta, tol).value.real
    gap = phi_v - beta ** (-d.delta) * psi_v - complex(residual_B(d, beta)).real
    return abs(gap)


# ---------------------------------------------------------------------------
# Berndt's massive representation
# ---------------------------------------------------------------------------

def berndt_R(d: DirichletDatum, s: float, w: float) -> float:
    """R(s, w) = sum Gamma(s - s') w^{2s' - 2s} Res chi(s')."""
    total = 0.0
    for (s0, r) in d.residues:
        total += float(gamma_numeric(s - s0).real) * w ** (2 * s0 - 2 * s) * r
    return total


def berndt_phi(d: DirichletDatum, s: float, w: float, tol: float = 1e-12) -> SeriesValue:
    """phi(s, w) = sum a_m (lambda_m + w^2)^{-s} via the Bessel form.

    Real s only (the K-Bessel kernel is evaluated at real order); the
    representation continues phi(s, w) beyond the convergence abscissa.
    The truncation uses the incomplete-gamma integral comparison of the
    Bessel bound, certified by the datum's coefficient/sequence bounds.
    ``tail_bound`` is that bound plus a rounding allowance,
    ``_ROUNDING (|R| + sum |term|) / |Gamma(s)|``: an estimate sized from
    ``bessel_k``'s measured accuracy, not a proof.  It dominates at small
    w, where R ~ -w^{-2s} Gamma(s) and the series cancel.
    """
    if not d.supports_modular:
        raise DomainError(f"datum {d.name} carries no functional equation")
    if not (w > 0 and math.isfinite(s)):  # NaN fails both tests
        raise DomainError(f"berndt_phi requires a finite s and w > 0, got s = {s}, w = {w}")
    nu = s - d.delta
    for (s0, _) in d.residues:
        if abs((s - s0) - round(s - s0)) < 1e-9 and round(s - s0) <= 0:
            raise SingularityError(f"berndt_phi: Gamma(s - s') pole at s = {s}, s' = {s0}")
    if w * w == 0:  # every (mu / w^2) power would divide by it
        raise ConvergenceError(
            f"berndt_phi: datum {d.name} at s = {s}: w^2 underflows at w = {w}", suggestion=f"w > {w:g}"
        )
    c_b, p_b = d.b_bound
    c_lo, q = d.mu_low
    kappa = 2.0 * w * math.sqrt(c_lo)
    pe = p_b + abs(nu) * q / 2.0
    alpha = 2.0 * (pe + 1.0) / q
    try:
        gam_s = float(gamma_numeric(s).real)
        gam_alpha = float(gamma_numeric(alpha).real)
    except SingularityError:
        big = max(s, alpha)
        if big <= 171.0:  # Gamma(x <= 171) is finite away from its poles: s is at one
            raise
        raise ConvergenceError(
            f"berndt_phi: datum {d.name} at s = {s}, w = {w}: Gamma({big:g}) leaves the float range",
            suggestion="smaller |s|",
        ) from None

    bessel_k = _lazy("modzeta.epstein").bessel_k
    mag = 0.0  # sum of |term| over the terms summed

    def terms():
        nonlocal mag
        b_of, mu_of = d.b, d.mu  # a record field read costs more than a local's
        for n in itertools.count(1):
            b = b_of(n)
            if b == 0:  # r_p(n) = 0 for most n at p <= 2
                yield 0.0
                continue
            mu = mu_of(n)
            term = 2.0 * b * (mu / w2) ** half_nu * bessel_k(nu, two_w * math.sqrt(mu))
            mag += abs(term)
            yield term

    def tail(n: int) -> float:
        n1 = n + 1
        x1 = kappa * n1 ** half_q
        two_x1 = 2 * x1
        head = head0 * math.sqrt(math.pi / two_x1) * math.exp(nu2 / two_x1)
        first = head * n1 ** pe * math.exp(-x1)
        if first / abs_gam_s > tol:  # rest >= 0 cannot bring the tail under tol
            return first / abs_gam_s
        scale = head * (2.0 / q) * kappa ** (-alpha)
        if alpha >= 2.0:
            # Gamma(a, x) >= x^(a-1) e^-x (1 + (a-1)/x) for a >= 2 (by parts).  A
            # tail above tol only keeps the sum going, so where this lower bound
            # is already above tol, Q(a, x) is not needed; the factor 0.999999
            # covers both forms' rounding, so the stop index keeps its bits
            low = scale * math.exp((alpha - 1.0) * math.log(x1) - x1) * (1.0 + (alpha - 1.0) / x1)
            bound = (first + 0.999999 * low) / abs_gam_s
            if bound > tol:
                return bound
        q_alpha = _lazy("modzeta._special").gammaincc(alpha, x1)
        return (first + scale * q_alpha * gam_alpha) / abs_gam_s

    try:
        r = berndt_R(d, s, w)
        # the loops' constants, each rounded as the loops would round it
        w2, half_nu, two_w, half_q, nu2 = w * w, nu / 2.0, 2 * w, q / 2.0, nu * nu
        head0 = 2.0 * c_b * (c_lo / w2) ** (abs(nu) / 2.0)
        abs_gam_s = abs(gam_s)
        series = _certified_sum(terms(), tail, tol, 100_000, "berndt_phi")
    except OverflowError:
        # w^{-2s}, the terms' powers or the Bessel bound's exp(nu^2 / 2x)
        # leave the float range: at large order, or at small w
        raise ConvergenceError(
            f"berndt_phi: datum {d.name} at s = {s}, w = {w} leaves the float range "
            f"(Bessel order {nu:g})",
            suggestion=f"w > {w:g}",
        ) from None
    val = (r + series.value) / gam_s
    # the terms' rounding scales with |R| + sum |term|, not with the value
    rounding = _ROUNDING * (abs(r) + mag) / abs(gam_s)
    return SeriesValue(val, series.terms, series.tail_bound + rounding)


# ---------------------------------------------------------------------------
# pole residue extraction
# ---------------------------------------------------------------------------

class PoleResidueResult(_Record, namedtuple("PoleResidueResult", "location residue residue_bochner closed_form spread")):
    """``residue`` in the Koshliakov normalization (series in n^{-s}),
    ``residue_bochner`` in that of the datum's lambda sequence;
    ``closed_form`` is None where the datum has none."""



def koshliakov_residue_closed_form(d: DirichletDatum) -> float:
    """b_0 b^nu / Gamma(nu), nu = delta, with b_0 = Res chi(delta) and b
    the classical scale ``d.kosh``."""
    if d.kosh is None:
        raise DomainError("datum carries no classical (a, b) normalization")
    nu = d.delta
    return d.zero_modes[1] * d.kosh ** nu / float(gamma_numeric(nu).real)


# the Richardson cross-check's steps, each half the last (its two steps
# assume halving), and the relative spread it accepts
_RESIDUE_HS = (0.1, 0.05, 0.025)
_RESIDUE_STABILITY_TOL = 5e-4

# the last index G' may sum before it gives up
_KERNEL_LAST_M = 150_001


def _kernel_majorant(c_a: float, k: float, c_l: float, q_l: float, nu: float, beta: float, m: int) -> float:
    # bounds the G' terms past m, from a_m <= c_a m^p and lambda_m >= c_l m^q_l
    # (k = p + q_l).  _first_true may search on it: for the built-in data
    # (q_l = 1 or 2, c_a >= 1) it rises, then falls, by a relative 1e-4 or
    # more per step where it crosses 1e-18 at m <= _KERNEL_LAST_M (about
    # 30/m), far above rounding
    return c_a * (m + 1) ** k * (1 + nu + c_l * (m + 1) ** q_l * beta) * math.exp(-c_l * (m + 1) ** q_l * beta)


def _kernel_derivative(d: DirichletDatum, beta: float, pairs) -> float:
    """G'(beta) = beta^{nu-1} sum_m a_m (nu - lambda_m beta) e^{-lambda_m beta}
    for G = beta^nu Phi(beta), nu = delta, summed with fsum: the terms
    cancel massively at small beta.

    The sum stops at the first m > 4 where the majorant falls below 1e-18,
    found by ``_first_true``; past ``_KERNEL_LAST_M`` it raises
    ``ConvergenceError``.  ``pairs`` holds (a_m, lambda_m) interleaved from
    m = 1 (the pair at 0 unused), grown through ``exactnum._grow`` a run of
    whole pairs at a time as far as beta needs; ``pole_residue`` keeps it in
    ``d._g_prime``, so one table serves every beta of every call on the datum.
    """
    nu = d.delta
    c_a, p_a = d.a_bound
    c_l, q_l = d.lam_low
    k = p_a + q_l
    count = _first_true(lambda m: _kernel_majorant(c_a, k, c_l, q_l, nu, beta, m) < 1e-18, 5, _KERNEL_LAST_M)
    if count is None:
        raise ConvergenceError("g_prime kernel did not converge")

    def extend(table, n: int) -> None:
        grow = range(len(table) // 2, n // 2 + 1)
        table.extend(array("d", itertools.chain.from_iterable((d.a(m), d.lam(m)) for m in grow)))

    _grow(pairs, 2 * count + 1, extend)
    run = iter(pairs[2 : 2 * count + 2])  # a_1, lambda_1, a_2, ...: zip(run, run) pairs them
    terms = [a * (nu - lam * beta) * math.exp(-lam * beta) for a, lam in zip(run, run)]
    return beta ** (nu - 1) * math.fsum(terms)


def pole_residue(d: DirichletDatum) -> PoleResidueResult:
    """Extract Res_{s=nu} phi(s), nu = delta, from the kernel integrals.

    Writes h phi_B(nu+h) = [A(h) + h I1(nu+h)] / Gamma(nu+h) with
    A(h) = G(1) - int_0^1 beta^h G'(beta) dbeta, G = beta^nu Phi(beta)
    (integration by parts removes the beta^{h-1} endpoint); the h -> 0 limit
    is evaluated directly and cross-checked against Richardson
    extrapolation of the h > 0 values.  Only the kernel sums enter, so the
    extraction is independent of both the residue list and the closed form.
    """
    if not d.supports_modular:
        raise DomainError(f"datum {d.name} carries no functional equation")
    nu = d.delta

    # QAGS (_quad) bisects one fixed nested grid, so the four r_of_h integrals
    # meet the same betas: both kernels are memoised by beta for this call,
    # and G''s table of (a_m, lambda_m) stays on the datum for every call
    phi_memo, g_memo = {}, {}

    def phi_kernel(beta: float) -> float:
        if beta not in phi_memo:
            phi_memo[beta] = heat_kernel(d, beta, 1e-16).value.real
        return phi_memo[beta]

    def g_at(beta: float) -> float:
        return beta ** nu * phi_kernel(beta)

    def g_prime(beta: float) -> float:
        if beta not in g_memo:
            g_memo[beta] = _kernel_derivative(d, beta, d._g_prime)
        return g_memo[beta]

    big_x = 1.0 + 52.0 / d.lam(1)

    def i1(s: float) -> float:
        val, _ = _quad(lambda beta: beta ** (s - 1) * phi_kernel(beta), 1.0, big_x)
        return val

    g1 = g_at(1.0)

    def r_of_h(h: float) -> float:
        a_int, _ = _quad(lambda beta: beta ** h * g_prime(beta), 0.0, 1.0, epsabs=1e-12)
        a_h = g1 - a_int
        # at h = 0 the I1 term is 0 * I1(nu): not integrated
        return (a_h + h * i1(nu + h) if h else a_h) / float(gamma_numeric(nu + h).real)

    r0 = r_of_h(0.0)
    vals = [r_of_h(h) for h in _RESIDUE_HS]
    # two Richardson steps assuming halving steps
    r01 = vals[1] + (vals[1] - vals[0])
    r12 = vals[2] + (vals[2] - vals[1])
    extr = r12 + (r12 - r01) / 3.0
    spread = abs(extr - r0)
    scale = max(abs(r0), abs(g1) / float(gamma_numeric(nu).real), 1e-12)
    if spread > _RESIDUE_STABILITY_TOL * scale:
        raise ConvergenceError(
            f"pole_residue extrapolation unstable: direct {r0:.6e}, extrapolated {extr:.6e}"
        )
    if d.kosh is not None:
        res_kosh = d.kosh ** nu * r0
        closed = koshliakov_residue_closed_form(d)
    else:
        res_kosh = r0
        closed = None
    return PoleResidueResult(nu, res_kosh, r0, closed, spread)

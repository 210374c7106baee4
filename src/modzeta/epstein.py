"""Epstein zeta functions of binary forms and diagonal lattices.

Three evaluation routes are implemented and cross-checked:

* brute-force lattice sums with certified integral-comparison tail bounds
  (the oracle, valid in the convergence region only); ``z2_direct`` and
  ``zp_brute`` share one streamed kernel that sums half the cube (x and -x
  give the same term) in O(R^(p-1)) memory, and one point budget,
  ``_MAX_POINTS``, checked before anything is allocated.  Their
  ``tail="integral"`` mode adds the integral of (Q + m^2)^(-s) outside the
  summed square: in polar coordinates Q = r^2 Q(theta), the radial integral
  from the square's edge is closed, and one angular quadrature remains;
* the K-Bessel (Fourier) expansion of the binary Epstein function, which
  converges exponentially for *every* argument and is the analytic
  continuation used by the functional-equation checks;
* the "massive" diagonal sums shifted by w^2 (``zp_massive``): Berndt's
  K-Bessel representation, summed with its certified tail by
  ``dirichlet.berndt_phi`` on the diagonal datum.

The K-Bessel itself is computed from the finite closed form at
half-integer order and by ``_special.kv`` (pure Python: power series,
Temme's series, the trapezoidal rule or Hankel's expansion) otherwise; all
series truncations use the rigorous bound
``K_nu(x) <= sqrt(pi/2x) exp(-x + nu^2/(2x))``.

numpy is imported on first use, through ``exactnum._lazy``: the lattice
sums load it, and the Bessel routes do not.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError, SingularityError
from .exactnum import _Record, _coefficients, _lazy, gamma_numeric, zeta_numeric, zeta_odd_numeric
from .qseries import SeriesValue, _certified_sum, _divisor_series, _first_true, _quad

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BinaryForm",
    "bessel_k",
    "bessel_k_bound",
    "z2_direct",
    "z2_kober",
    "z2_quartic",
    "zp_massive",
    "zp_brute",
    "guinand_gap",
    "guinand_lhs_bessel",
    "guinand_lhs_derivative",
    "xi_completed",
]

_MAX_POINTS = (2 * 8192 + 1) ** 2 - 1  # the largest sum z2_direct admitted: radius 8192
_BLOCK = 1 << 20  # lattice points per streamed block
_BUFFERS: list = []  # block buffers between lattice sums, one per concurrent caller

class BinaryForm(_Record, namedtuple("BinaryForm", "a b c")):
    """Positive-definite a m^2 + 2b mn + c n^2; u = sqrt(det)/a, v = b/a."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a NaN entry or det fails the comparisons
        if not (self.a > 0 and self.det > 0 and all(map(math.isfinite, self))):
            raise DomainError("BinaryForm must be finite and positive definite (a > 0, ac - b^2 > 0)")
        return self

    @property
    def det(self) -> float:
        return self.a * self.c - self.b * self.b

    @property
    def u(self) -> float:
        return math.sqrt(self.det) / self.a

    @property
    def v(self) -> float:
        return self.b / self.a

    @property
    def min_eigenvalue(self) -> float:
        # det / lam_max rather than h - hypot(...), which cancels (even to
        # <= 0) once the form is anisotropic
        return self.det / (0.5 * (self.a + self.c) + math.hypot(0.5 * (self.a - self.c), self.b))

    def inverse(self) -> "BinaryForm":
        d = self.det
        return BinaryForm(self.c / d, -self.b / d, self.a / d)


def _as_form(form) -> BinaryForm:
    if isinstance(form, BinaryForm):
        return form
    a, b, c = form
    return BinaryForm(float(a), float(b), float(c))


# ---------------------------------------------------------------------------
# K-Bessel
# ---------------------------------------------------------------------------

def bessel_k_bound(nu: float, x: float) -> float:
    """Rigorous upper bound sqrt(pi/2x) exp(-x + nu^2/(2x)) for K_nu(x)
    (from cosh u >= 1 + u^2/2 in the integral representation)."""
    return math.sqrt(math.pi / (2 * x)) * math.exp(-x + nu * nu / (2 * x))


def _bessel_k_half_integer(m: int, x: float) -> float:
    # K_{m+1/2}(x) = sqrt(pi/2x) e^-x sum_{j<=m} (m+j)!/(j!(m-j)!) (2x)^-j
    acc = 0.0
    for j in range(m + 1):
        acc += (
            math.factorial(m + j)
            / (math.factorial(j) * math.factorial(m - j))
            * (2.0 * x) ** (-j)
        )
    return math.sqrt(math.pi / (2 * x)) * math.exp(-x) * acc


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel K_nu(x) for x > 0, real order.

    Half-integer orders up to 134.5 use the finite closed form (its
    largest integer ratio, (2m)!/m!, leaves the floats from m = 135); every
    other order goes to ``_special.kv`` (power series, Temme's series, the
    trapezoidal rule or Hankel's expansion, by argument and order).
    """
    if not (x > 0 and math.isfinite(nu)):  # NaN fails both tests
        raise DomainError(f"bessel_k requires a finite order and x > 0, got order {nu}, x = {x}")
    nu = abs(float(nu))  # K is even in its order
    half = nu - 0.5
    if abs(half - round(half)) < 1e-14 and -0.25 <= half < 134.5:
        return _bessel_k_half_integer(int(round(half)), x)
    return _lazy("modzeta._special").kv(nu, x)


# ---------------------------------------------------------------------------
# direct lattice sums
# ---------------------------------------------------------------------------

def _ext_integral(form: BinaryForm, s: float, cut: float, m2: float) -> float:
    """integral of (Q + m2)^{-s} over {max(|x|, |y|) > cut}.  In polar
    coordinates Q = r^2 q(theta), so the radial integral from the square's
    edge rho = cut / max(|cos|, |sin|) out is closed:
    (rho^2 q + m2)^{1-s} / (2 (s-1) q).  One angular quadrature remains,
    over [0, pi] (theta and theta + pi agree), split at the corners."""
    a, b, c = form.a, form.b, form.c

    def radial(theta: float) -> float:
        co, si = math.cos(theta), math.sin(theta)
        q = a * co * co + 2 * b * co * si + c * si * si
        rho = cut / max(abs(co), abs(si))
        return (rho * rho * q + m2) ** (1 - s) / (2 * (s - 1) * q)

    corners = (0.0, math.pi / 4, 3 * math.pi / 4, math.pi)  # where max(|cos|, |sin|) switches
    # relative tolerance: the integral runs from about 1e-12 (large s) to about 10 (s near 1)
    return 2 * sum(
        _quad(radial, lo, hi, epsabs=0.0, epsrel=1e-13)[0] for lo, hi in zip(corners, corners[1:])
    )


def _ext_laplacian(form: BinaryForm, s: float, cut: float, m2: float) -> float:
    """integral of Laplacian((Q + m2)^{-s}) over the exterior region, by the
    divergence theorem on the square boundary (two 1D quadratures)."""
    a, b, c = form.a, form.b, form.c

    def q(x, y):
        return a * x * x + 2 * b * x * y + c * y * y + m2

    def fx(y: float) -> float:  # d/dx on the face x = cut
        return -2 * s * q(cut, y) ** (-s - 1) * (a * cut + b * y)

    def fy(x: float) -> float:  # d/dy on the face y = cut
        return -2 * s * q(x, cut) ** (-s - 1) * (b * x + c * cut)

    ix, _ = _quad(fx, -cut, cut, epsabs=1e-15)
    iy, _ = _quad(fy, -cut, cut, epsabs=1e-15)
    return -2 * (ix + iy)


def _lattice_sum(gram: np.ndarray, s: float, m2: float, radius: int) -> float:
    """Sum over nonzero x in [-R, R]^p of (x^T G x + m2)^{-s}.  The terms at x
    and -x agree, so the rows x_0 = 1..R count twice and the slab x_0 = 0 is
    the same sum one dimension down.  Rows stream in blocks of about
    ``_BLOCK`` points, each evaluated in place in one buffer, so memory
    grows like R^(p-1).  The buffer is taken from ``_BUFFERS`` and put back,
    not freed: a fresh 8 MB buffer per sum costs its page faults each time,
    and freeing one raises glibc's dynamic mmap threshold, after which the
    process's peak memory depends on whatever else was allocated meanwhile."""
    np = _lazy("numpy")
    p = len(gram)
    side = 2 * radius + 1
    rest = np.indices((side,) * (p - 1)).reshape(p - 1, side ** (p - 1)) - radius
    inner = np.einsum("ij,ik,jk->k", gram[1:, 1:], rest, rest) + m2
    cross = 2.0 * (gram[0, 1:] @ rest)
    step = max(1, _BLOCK // side ** (p - 1))
    shape = (min(step, radius), side ** (p - 1))
    block = _BUFFERS.pop() if _BUFFERS else np.empty(0)
    if block.size < shape[0] * shape[1]:
        block = np.empty(max(_BLOCK, shape[0] * shape[1]))
    buf = block[: shape[0] * shape[1]].reshape(shape)
    rows = 0.0
    for lo in range(1, radius + 1, step):
        x0 = np.arange(lo, min(lo + step, radius + 1), dtype=float)[:, None]
        # (g00 x0 x0 + x0 cross + inner) ** (-s) in place; + commutes exactly, so
        # starting from x0 cross leaves every bit as in that expression
        q = np.multiply(x0, cross, out=buf[: len(x0)])
        q += gram[0, 0] * x0 * x0
        q += inner
        rows += float(np.power(q, -s, out=q).sum())
    _BUFFERS.append(block)
    slab = _lattice_sum(gram[1:, 1:], s, m2, radius) if p > 1 else 0.0
    return slab + 2.0 * rows


def _direct(
    gram: np.ndarray, s: float, m2: float, const, tol: float, radius, tail: str, log_const: float | None = None
) -> SeriesValue:
    """Direct sum of (x^T G x + m2)^{-s} over nonzero x in Z^p, 2s > p, for
    z2_direct and zp_brute: one radius search against the shell bound
    const * (r^(p-1-2s) + r^(p-2s)/(2s-p)), r = R + 1, which finds the least
    radius from 8 (or from the caller's radius) that meets tol, and one
    point budget checked before any allocation; a refusal suggests that
    radius.  Where the constant alone passes the floats, the caller gives
    its logarithm instead (const None): the bound is then taken in logs,
    log_const + (p-1-2s) log r + log(1 + r/(2s-p)), and never reported below
    the smallest positive double."""
    if not tol > 0:  # NaN too
        raise DomainError(f"direct sum: tol must be > 0, got tol = {tol}")
    p = len(gram)
    if tail not in ("bound", "integral") or (tail == "integral" and p > 2):
        raise DomainError("tail must be 'bound', or 'integral' for p <= 2")

    def bound(r: int) -> float:
        r1 = r + 1
        if const is None:
            log_bound = log_const + (p - 1 - 2 * s) * math.log(r1) + math.log1p(r1 / (2 * s - p))
            # capped below the largest double: a bound that large only means "not yet"
            return max(math.exp(min(log_bound, 709.0)), math.ulp(0.0))
        return const * (r1 ** (p - 1 - 2 * s) + r1 ** (p - 2 * s) / (2 * s - p))

    if tail == "bound":
        # bound(r) falls as r grows, so the search finds the least radius; past
        # 2^60 it stops, short of float overflow
        need = _first_true(lambda r: bound(r) <= tol, radius or 8, 1 << 60)
        if need is None:
            raise ConvergenceError(
                f"direct sum: no radius up to 2^60 certifies {tol:.2e} at s = {s}",
                suggestion="tail='integral'" if p <= 2 else None,
            )
        if radius is not None and need > radius:
            raise ConvergenceError(f"direct sum needs radius {need} to certify {tol:.2e}", suggestion=need)
        radius = need
    points = (2 * radius + 1) ** p - 1
    if points > _MAX_POINTS:
        raise ConvergenceError(f"direct sum needs radius {radius}: {points} points, over budget", suggestion=radius)
    total = _lattice_sum(gram, s, m2, radius)
    if tail == "bound":
        return SeriesValue(total, points, bound(radius))
    # midpoint cells undercount a convex decaying integrand:
    # sum f(centers) = integral - (1/24) integral of Laplacian + O(cut^{-2s-2})
    cut = radius + 0.5
    if p == 1:
        # G = (1): sum_{k > R} g(k) = int_a g - (1/24) int_a g'' + ... = int_a g + g'(a)/24
        def g(x):
            return (x * x + m2) ** (-s)

        base, _ = _quad(lambda tau: g(cut / (tau * tau)) * 2.0 * cut / tau ** 3, 0.0, 1.0, epsabs=1e-16)
        corr = (-2 * s * cut * (cut * cut + m2) ** (-s - 1)) / 24.0
        add = 2.0 * (base + corr)
        est = 6.0 * abs(corr) * (s * s + 1.0) / (cut * cut)
    else:
        # Python floats, so the exterior terms raise where they leave the float range
        (a, b), (_, c) = gram.tolist()
        form = BinaryForm(a, b, c)
        base = _ext_integral(form, s, cut, m2)
        corr = -_ext_laplacian(form, s, cut, m2) / 24.0
        add = base + corr
        est = 3.0 * abs(corr) * (s * s + 1.0) / (cut * cut)
    return SeriesValue(total + add, points, est + 1e-15 * abs(total))


def z2_direct(
    form,
    s: float,
    tol: float = 1e-12,
    radius: int | None = None,
    tail: str = "bound",
) -> SeriesValue:
    """Z_2(form; s) = sum over (m,n) != 0 of Q(m,n)^{-s}, s > 1.

    ``tail="bound"`` (the default) certifies ``tol`` with the rigorous
    shell bound, growing the radius as needed; when no workable radius
    exists a ConvergenceError carries the radius that would suffice.
    ``tail="integral"`` adds the exterior integral of Q^{-s} plus its
    first Euler-Maclaurin (Laplacian) correction for the dropped lattice
    cells; the reported tail is then the observed size of the correction
    step, an estimate of order radius^{-2s-2} rather than a bound.
    """
    form = _as_form(form)
    if not s > 1:  # NaN too
        raise DomainError("z2_direct needs s > 1 for absolute convergence")
    if radius is not None and radius < 1:
        raise DomainError("z2_direct radius must be >= 1")
    if tail == "integral" and radius is None:
        radius = 600
    # a + c >= lam_max: past a ratio of 2^52, terms along the soft direction
    # can lose every digit, and lam_min^{-s} may leave the float range
    if not form.a + form.c <= 2.0 ** 52 * form.min_eigenvalue:
        raise ConvergenceError(
            f"z2_direct: form ({form.a}, {form.b}, {form.c}) has an eigenvalue ratio over 2^52, "
            "beyond a floating-point lattice sum"
        )
    where = f"z2_direct: form ({form.a}, {form.b}, {form.c}) at s = {s}"
    const = log_const = None
    if tail == "bound":
        # shells |.|_inf = k have 8k points with Q >= lam_min k^2
        try:
            const = 8 * form.min_eigenvalue ** (-s)
        except OverflowError:  # large s on a form with lam_min < 1: the shell factor is tiny
            log_const = math.log(8) - s * math.log(form.min_eigenvalue)
    np = _lazy("numpy")
    try:
        with np.errstate(over="raise"):
            sv = _direct(np.array([[form.a, form.b], [form.b, form.c]]), s, 0.0, const, tol, radius, tail, log_const)
    except ConvergenceError:
        if log_const is None:
            raise
        # the bound in logs certifies no workable radius either
        raise ConvergenceError(
            f"{where}: the shell bound 8 lam_min^(-s) leaves the float range; try tail='integral'",
            suggestion="tail='integral'",
        ) from None
    except (OverflowError, ZeroDivisionError, FloatingPointError):
        sv = None
    if sv is None or not (math.isfinite(sv.value) and math.isfinite(sv.tail_bound)):
        raise ConvergenceError(
            f"{where}: the lattice sum or its exterior terms leave the float range; "
            "rescale the form, Z_2(c Q; s) = c^(-s) Z_2(Q; s)",
            suggestion="Z_2(c Q; s) = c^(-s) Z_2(Q; s)",
        )
    return sv


# ---------------------------------------------------------------------------
# Kober / Bessel expansion of the binary Epstein function
# ---------------------------------------------------------------------------

def _bessel_series(w: float, u: float, v: float, target: float) -> SeriesValue:
    """sum_n sigma_{2w}(n) n^{-w} cos(2 pi v n) K_w(2 pi u n) with a
    certified truncation (sigma_{2w}(n) n^{-w} <= 2 n^{1/2+|w|})."""
    k = 2 * w
    if abs(k - round(k)) < 1e-12 and round(k) >= 0:
        k = int(round(k))
    sigma = _coefficients("sigma", k)
    # the loops' constants, each rounded as the loops would round it
    neg_w, two_pi_u, two_pi_v, power = -w, 2 * math.pi * u, 2 * math.pi * v, 0.5 + abs(w)
    decay = math.exp(-2 * math.pi * u)
    terms = (
        float(sigma(n)) * n ** neg_w * math.cos(two_pi_v * n) * bessel_k(w, two_pi_u * n)
        for n in itertools.count(1)
    )

    def tail(n: int) -> float:
        nxt = n + 1
        bound = 2 * nxt ** power * bessel_k_bound(w, two_pi_u * nxt)
        # geometric majorant for the rest of the tail
        ratio = decay * ((nxt + 1) / nxt) ** power
        return bound / (1 - ratio) if ratio < 1 else math.inf

    return _certified_sum(terms, tail, target, 4000, "Bessel series")


def z2_kober(form, w: float, target_tol: float = 1e-12) -> SeriesValue:
    """Binary Epstein value Z_2(form; w + 1/2) from the Bessel expansion.

    Exponentially convergent for any real w away from the explicit
    zeta/gamma poles (w = 0, 1/2); this is the analytic continuation in
    the exponent, so no convergence restriction on w + 1/2 applies.
    """
    form = _as_form(form)
    if not math.isfinite(w):
        raise DomainError(f"z2_kober requires a finite w, got w = {w}")
    if abs(w) < 1e-9 or abs(w - 0.5) < 1e-9:
        raise SingularityError("z2_kober: w = 0 and w = 1/2 hit explicit poles")
    u, v = form.u, form.v
    delta = form.det
    gam_half = float(gamma_numeric(w + 0.5).real)
    if gam_half == 0.0:
        raise ConvergenceError(
            f"z2_kober: Gamma(w + 1/2) underflows to 0 at w = {w}, so the Bessel form's scale is not a float"
        )
    try:
        scale = 8.0 * math.pi ** (w + 0.5) * math.sqrt(u) / (
            gam_half * delta ** ((2 * w + 1) / 4.0)
        )
        bess = _bessel_series(w, u, v, target_tol / abs(scale))
        rhs = (
            0.25 * u ** (-w) * float(gamma_numeric(w).real) * math.pi ** (-w) * float(zeta_numeric(2 * w).real)
            + 0.25
            * u ** w
            * gam_half
            * math.pi ** (-w - 0.5)
            * float(zeta_numeric(2 * w + 1).real)
            + bess.value
        )
        if not math.isfinite(scale * rhs):  # a float product past the range does not raise
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        # at large |w| or u the Bessel bound, sigma_{2w}(n) n^{-w}, the scale or their product leave the floats
        raise ConvergenceError(
            f"z2_kober: form ({form.a}, {form.b}, {form.c}) at w = {w} leaves the float range"
        ) from None
    return SeriesValue(scale * rhs, bess.terms, abs(scale) * bess.tail_bound)


def z2_quartic(xi: float, tol: float = 1e-11) -> SeriesValue:
    """Z_2(4, A^{-1}) for A = diag(1, xi^-2): both classical q-series forms.

    Evaluates the high-temperature form (series in q' = e^{-pi xi})

        pi^4/45 + pi zeta(3)/xi^3 + 2 pi chi(q')/xi^3 + 4 pi^2 T(q')/xi^2

    with chi(q) = sum sigma_3(n) n^-3 q^{2n} (= S_2) and T(q) = sum
    sigma_3(n) n^-2 q^{2n}, the sigma_3 series that ``thermal.f3_epstein``
    also sums, and the low-temperature form obtained from it by the exact
    scaling Z(xi) = xi^-4 Z(1/xi) (series in q = e^{-pi/xi}).  The two must
    agree to ``tol``; the low-temperature value is returned.
    """
    if not 0 < xi < math.inf:
        raise DomainError(f"z2_quartic requires a finite xi > 0, got xi = {xi}")
    z3 = zeta_odd_numeric(3)

    def high_t(x: float) -> float:
        q2 = math.exp(-2.0 * math.pi * x)
        chi, tq = (_divisor_series(3, weight, q2).value for weight in (3.0, 2.0))
        return (
            math.pi ** 4 / 45
            + math.pi * z3 / x ** 3
            + 2 * math.pi * chi / x ** 3
            + 4 * math.pi ** 2 * tq / x ** 2
        )

    try:
        val_a = high_t(xi)
    except OverflowError:  # x^3 from xi = 5.6e102 on; below 1/5.6e102 the q-series refuses first
        raise ConvergenceError(
            f"z2_quartic at xi = {xi:g}: xi^3 leaves the float range", suggestion="xi nearer 1"
        ) from None
    val_b = high_t(1.0 / xi) * xi ** (-4)
    if abs(val_a - val_b) > tol * max(1.0, abs(val_b)):
        raise ConvergenceError(
            f"z2_quartic inversion identity violated by {abs(val_a - val_b):.2e}"
        )
    return SeriesValue(val_b, 0, abs(val_a - val_b) + 1e-14)


# ---------------------------------------------------------------------------
# diagonal lattices: the brute-force and massive representations
# ---------------------------------------------------------------------------

def zp_brute(p: int, s: float, w: float, tol: float = 1e-11, tail: str = "bound") -> SeriesValue:
    """Brute-force sum over Z^p of (m.m + w^2)^{-s} (m != 0), the oracle.

    ``tail="integral"`` (p <= 2 only) adds the Euler-Maclaurin-corrected
    exterior integral instead of requiring the rigorous shell bound to
    meet ``tol``, enabling oracle duty at exponents where certified radii
    are out of reach.
    """
    if not (isinstance(p, int) and 1 <= p <= 4):
        raise DomainError("zp_brute supports integer 1 <= p <= 4")
    if not 2 * s > p:  # NaN too; at s = +inf the limit is the points with m.m = 1
        raise DomainError("zp_brute needs 2s > p for convergence")
    if math.isnan(w):  # w = +-inf is the limit 0
        raise DomainError("zp_brute requires w to be a number, got NaN")
    radius = (1200 if p == 1 else 500) if tail == "integral" else None
    return _direct(_lazy("numpy").eye(p), s, w * w, 2 * p * 3 ** (p - 1), tol, radius, tail)


def zp_massive(p: int, s: float, w: float, target_tol: float = 1e-11) -> SeriesValue:
    """Massive diagonal Epstein sum via Berndt's Bessel representation:

        -w^{-2s} + pi^{p/2} Gamma(s - p/2) w^{p-2s} / Gamma(s)
        + (2 pi^s / Gamma(s)) sum_n r_p(n) (sqrt n / w)^{s-p/2}
          K_{s-p/2}(2 pi w sqrt n)

    valid by continuation for any s away from the Gamma(s - p/2) poles;
    the residue coefficient pi^{p/2} is pinned by the brute-force oracle.
    The series is ``dirichlet.berndt_phi`` on the diagonal datum, which
    certifies its truncation against ``target_tol``.
    """
    dirichlet = _lazy("modzeta.dirichlet")
    return dirichlet.berndt_phi(dirichlet.diagonal_epstein_datum(p), s, w, tol=target_tol)


# ---------------------------------------------------------------------------
# Guinand's relation
# ---------------------------------------------------------------------------

def xi_completed(z: float) -> float:
    """xi(z) = (1/2) pi^{-z/2} Gamma(z/2) zeta(z) (completed zeta;
    xi(z) = xi(1-z))."""
    if not math.isfinite(z):
        raise DomainError(f"xi_completed requires a finite z, got z = {z}")
    return 0.5 * math.pi ** (-z / 2.0) * float(gamma_numeric(z / 2.0).real) * float(
        zeta_numeric(z).real
    )


def guinand_lhs_bessel(w: float, u: float, tol: float = 1e-13) -> float:
    """S(u) - (1/u) S(1/u) with S(u) = sum sigma_{2w}(n) n^{-w} K_w(2 pi n u)."""
    if not (math.isfinite(w) and 0 < u < math.inf):  # NaN fails both
        raise DomainError(f"the Guinand relation requires a finite w and a finite u > 0, got w = {w}, u = {u}")
    inv = 1.0 / u
    s = {}
    # S(u) and S(1/u) read one sigma_{2w} table.  The series at the smaller
    # argument is the longer one: run first, it builds the whole table and
    # the other series only reads it
    for arg in sorted((u, inv)):
        s[arg] = _bessel_series(w, arg, 0.0, tol).value
    return s[u] - s[inv] / u


def guinand_gap(w: float, u: float) -> float:
    """Residual of the u <-> 1/u Bessel-sum relation (should vanish):

        LHS(u) - [ (1/2) xi(2w) (u^{w-1} - u^{-w})
                 + (1/2) xi(-2w) (u^{-w-1} - u^{w}) ].

    xi(-2w) is evaluated as xi(1 + 2w): at integer w the direct form meets a
    gamma pole times a trivial zero of zeta, whose limit is finite.
    """
    lhs = guinand_lhs_bessel(w, u)
    rhs = 0.5 * xi_completed(2 * w) * (u ** (w - 1) - u ** (-w)) + 0.5 * xi_completed(
        1 + 2 * w
    ) * (u ** (-w - 1) - u ** w)
    return lhs - rhs


def _derivative_bessel_sum(t: int, u: float) -> float:
    """A(u) = sum sigma_{2t-1}(n) n^{-(t-1/2)} K_{t-1/2}(2 pi n u) computed
    without Bessel calls, through the termwise closed form

        A(u) = sqrt(pi/2) (-1)^{t-1} (2 pi)^{1/2-t} u^{t-1/2}
               ((1/u) d/du)^{t-1} [ S_t(iu) / u ],

    the derivative applied exactly to each exponential term (this is the
    half-integer Bessel reduction in derivative form).
    """
    pref = math.sqrt(math.pi / 2) * (-1) ** (t - 1) * (2 * math.pi) ** (0.5 - t) * u ** (
        t - 0.5
    )

    sigma = _coefficients("sigma", 2 * t - 1)

    def terms():
        # ((1/u) d/du)^{t-1} of u^{-1} e^{-cu}: maintain Laurent coefficients
        for n in itertools.count(1):
            c = 2 * math.pi * n
            coeffs = {-1: 1.0}  # u^{-1}
            for _ in range(t - 1):
                new: dict[int, float] = {}
                for j, a in coeffs.items():
                    new[j - 2] = new.get(j - 2, 0.0) + j * a
                    new[j - 1] = new.get(j - 1, 0.0) - c * a
                coeffs = new
            term = sum(a * u ** j for j, a in coeffs.items()) * math.exp(-c * u)
            yield sigma(n) * n ** (1 - 2 * t) * term

    def tail(n: int) -> float:
        if n <= 3:
            return math.inf
        return abs(pref) * 2 * (n + 1) ** (0.5 + t) * math.exp(-2 * math.pi * u * (n + 1)) * (
            1 + 2 * math.pi * n
        ) ** t

    return pref * _certified_sum(terms(), tail, 1e-13, 2000, "derivative Bessel sum").value


def guinand_lhs_derivative(t: int, u: float) -> float:
    """LHS of the Guinand relation for w = t - 1/2 via the derivative form."""
    if not 0 < u < math.inf:
        raise DomainError(f"the Guinand relation requires a finite u > 0, got u = {u}")
    return _derivative_bessel_sum(t, u) - _derivative_bessel_sum(t, 1.0 / u) / u

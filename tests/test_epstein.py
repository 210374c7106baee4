"""Lattice zeta functions: direct sums vs Bessel-accelerated expansions."""
import itertools
import math
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import kv

from modzeta import _special, dirichlet, epstein, exactnum
from modzeta.cli import main
from modzeta.dirichlet import berndt_phi, diagonal_epstein_datum, eisenstein_datum, theta_datum
from modzeta.errors import ConvergenceError, DomainError, SingularityError
from modzeta.exactnum import _sieve, gamma_numeric, zeta_numeric
from modzeta.epstein import (
    BinaryForm,
    _bessel_series,
    _lattice_sum,
    bessel_k,
    bessel_k_bound,
    guinand_gap,
    guinand_lhs_bessel,
    guinand_lhs_derivative,
    xi_completed,
    z2_direct,
    z2_kober,
    z2_quartic,
    zp_brute,
    zp_massive,
)
from modzeta.qseries import _quad


# ------------------------------------------------------------------ Bessel
def test_bessel_half_integer_closed_form():
    # K_{1/2}(x) = sqrt(pi/2x) e^{-x}
    x = 2.0
    assert abs(bessel_k(0.5, x) - math.sqrt(math.pi / (2 * x)) * math.exp(-x)) < 1e-16
    # K_{3/2}(x) = sqrt(pi/2x) e^{-x} (1 + 1/x)
    x = 1.7
    expect = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1 + 1 / x)
    assert abs(bessel_k(1.5, x) - expect) < 1e-15


def test_bessel_even_in_order():
    assert abs(bessel_k(0.7, 1.3) - bessel_k(-0.7, 1.3)) < 1e-16


def test_bessel_against_library_oracle():
    rng = random.Random(777)
    for _ in range(25):
        nu = rng.uniform(-4.0, 4.0)
        x = rng.uniform(0.06, 20.0)
        me = bessel_k(nu, x)
        ref = float(kv(nu, x))
        assert abs(me - ref) < 1e-11 * abs(ref)
    # tiny-argument fallbacks
    for nu, x in ((0.3, 0.02), (2.0, 0.01)):
        assert abs(bessel_k(nu, x) - float(kv(nu, x))) < 1e-10 * float(kv(nu, x))


def test_bessel_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = random.Random(2024)
    # the quadrature route this replaced was 2.2e-9 off at (6.4, 44)
    cases = [(6.4, 44.0), (5.9, 44.0), (0.0, 1e-3), (1.0, 0.3), (2.0, 650.0), (-3.7, 0.02), (2.0, 700.0)]
    cases += [(rng.uniform(-8.0, 8.0), 10 ** rng.uniform(-3.0, 2.3)) for _ in range(200)]
    for nu, x in cases:
        want = float(mpmath.besselk(nu, x))
        assert abs(bessel_k(nu, x) - want) <= 1e-12 * want, (nu, x)


# past half-integer order 134.5 the closed form's (2m)!/m! leaves the floats,
# and past 2^52 every order reads as a half-integer: these go to kv
_LARGE_ORDERS = [(134.5, 50.0), (135.5, 50.0), (135.5, 300.0), (170.5, 20.0), (200.5, 30.0), (300.5, 400.0)]


@pytest.mark.parametrize("nu,x", _LARGE_ORDERS)
def test_bessel_at_large_orders_against_mpmath(nu, x):
    mpmath = pytest.importorskip("mpmath")
    want = []
    for dps in (30, 45):
        with mpmath.workdps(dps):
            want.append(float(mpmath.besselk(nu, x)))
    assert want[0] == want[1]
    assert abs(bessel_k(nu, x) - want[1]) <= 1e-14 * want[1]
    if nu <= 134.5:  # the closed form, bit for bit
        assert bessel_k(nu, x) == epstein._bessel_k_half_integer(round(nu - 0.5), x)


@pytest.mark.parametrize("nu,x", [(1e30, 7.25), (1e8, 0.05), (400.5, 2.0)])
def test_bessel_past_the_floats_is_inf_at_once(nu, x):
    # K grows with the order: once the upward recurrence reaches inf it
    # stops, where it took 1e8 steps at (1e8, 0.05)
    mpmath = pytest.importorskip("mpmath")
    for dps in (30, 45):
        with mpmath.workdps(dps):
            assert mpmath.besselk(nu, x) > mpmath.mpf("1e309")
    start = time.perf_counter()
    assert bessel_k(nu, x) == math.inf
    assert time.perf_counter() - start < 1.0


def test_bessel_heaviside_integral():
    # int_0^inf y^{s-1} K_w(2 pi y) dy = (1/4) pi^{-s} G((s+w)/2) G((s-w)/2)
    s, w = 3.0, 1.0
    val, _ = _quad(lambda y: y ** (s - 1) * bessel_k(w, 2 * math.pi * y), 1e-9, 6.0)
    expect = (
        0.25
        * math.pi ** (-s)
        * gamma_numeric((s + w) / 2).real
        * gamma_numeric((s - w) / 2).real
    )
    assert abs(val - expect) < 1e-9


def test_bessel_bound_is_a_bound():
    rng = random.Random(12)
    for _ in range(40):
        nu = rng.uniform(0, 3)
        x = rng.uniform(0.3, 30)
        assert bessel_k(nu, x) <= bessel_k_bound(nu, x) * (1 + 1e-12)


def test_bessel_domain():
    with pytest.raises(DomainError):
        bessel_k(1.0, -2.0)


@pytest.mark.parametrize(
    "nu,x", [(math.nan, 1.0), (1.0, math.nan), (0.5, math.nan), (math.inf, 1.0), (-math.inf, 1.0)]
)
def test_bessel_rejects_nan_and_inf(nu, x):
    # a NaN order left round() as a raw ValueError, and a NaN x came back as the value
    with pytest.raises(DomainError):
        bessel_k(nu, x)


# ------------------------------------------------------------- direct sums
def test_z2_direct_symmetry_and_scaling():
    xi, s, radius = 2.0, 2.0, 60
    # m <-> n swap of the same finite grid: exact
    lhs = z2_direct((1, 0, 1 / xi ** 2), s, radius=radius, tail="integral")
    rhs = z2_direct((1 / xi ** 2, 0, 1), s, radius=radius, tail="integral")
    assert abs(lhs.value - rhs.value) < 1e-13
    # homogeneous scaling: sum (m^2 + n^2/xi^2)^{-s} = xi^{2s} sum (xi^2 m^2 + n^2)^{-s}
    scaled = z2_direct((xi ** 2, 0, 1), s, radius=radius, tail="integral")
    assert abs(lhs.value - xi ** (2 * s) * scaled.value) < 1e-11


def test_z2_direct_certified_mode_errors():
    with pytest.raises(ConvergenceError) as exc:
        z2_direct((1, 0, 1), 1.5, tol=1e-11)  # needs an enormous radius
    assert exc.value.suggestion is not None
    with pytest.raises(DomainError):
        z2_direct((1, 0, 1), 0.9)
    with pytest.raises(DomainError):
        z2_direct((1, 0, 1), 3.0, radius=0)  # doubling 0 would never end
    with pytest.raises(DomainError):
        zp_brute(2, 3.0, 0.8, tail="foo")
    with pytest.raises(DomainError):
        BinaryForm(1.0, 2.0, 1.0)  # indefinite
    with pytest.raises(DomainError):
        BinaryForm(1e200, 1e200, 1e200)  # degenerate; ac - b^2 is inf - inf
    with pytest.raises(DomainError):
        BinaryForm(1.0, 0.0, 1.0)._replace(b=2.0)  # _replace checks as the constructor does


@pytest.mark.parametrize(
    "call",
    [
        lambda: z2_kober((1, 0, 1), -400),  # Gamma(w + 1/2) underflows to 0
        lambda: z2_direct((1e300, 0, 1), 3),
        lambda: z2_direct((1e-300, 0, 1), 3),  # lam_min^{-s} = 1e900
        lambda: z2_direct((1.1200780474834209e19, 50542178673.062004, 780.6562215508059), 2.5),
        lambda: z2_kober((1, 0, 1), 150.3),  # the Bessel bound's exp(nu^2 / 2x) overflows
        lambda: z2_kober((1, 0, 1), -150.3),
        lambda: z2_kober((1, 0, 100), 140.0),  # the scale's denominator overflows
    ],
)
def test_routes_refuse_what_floats_cannot_hold(call):
    with pytest.raises(ConvergenceError) as exc:
        call()
    assert str(exc.value).startswith(("z2_kober:", "z2_direct:"))


def test_min_eigenvalue_of_anisotropic_forms():
    # h - hypot(...) cancels to 0 for the first form and to a negative
    # number for the second
    assert BinaryForm(1e16, 0.0, 1.0).min_eigenvalue == 1.0
    lam = BinaryForm(1.1200780474834209e19, 50542178673.062004, 780.6562215508059).min_eigenvalue
    assert lam == pytest.approx(552.5907014061, rel=1e-12)


def _loop_sum(gram, s, m2, radius):
    # the reference: a plain loop over the whole cube
    total = 0.0
    for x in itertools.product(range(-radius, radius + 1), repeat=len(gram)):
        if any(x):
            q = sum(gram[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))
            total += (q + m2) ** (-s)
    return total


@pytest.mark.parametrize(
    "gram,s,m2,radius",
    [(((2.0, 1.0), (1.0, 3.0)), 1.75, 0.0, 6), (np.eye(3), 4.0, 0.8 * 0.8, 4), (np.eye(1), 2.0, 0.8 * 0.8, 50)],
)
def test_lattice_kernel_matches_a_plain_loop(gram, s, m2, radius):
    want = _loop_sum(gram, s, m2, radius)
    assert abs(_lattice_sum(np.asarray(gram), s, m2, radius) - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "call,gram,s,m2,radius",
    [
        (lambda: z2_direct((2, 1, 3), 1.75, tol=1.0, radius=6), ((2, 1), (1, 3)), 1.75, 0.0, 6),
        (lambda: zp_brute(3, 4.0, 0.8, tol=1e-3), np.eye(3), 4.0, 0.8 * 0.8, 8),
        (lambda: zp_brute(1, 2.0, 0.8, tol=1e-2), np.eye(1), 2.0, 0.8 * 0.8, 8),
    ],
)
def test_direct_sums_match_a_plain_loop(call, gram, s, m2, radius):
    got = call()
    want = _loop_sum(gram, s, m2, radius)
    assert got.terms == (2 * radius + 1) ** len(gram) - 1
    assert abs(got.value - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "call,pinned",
    [
        (lambda: z2_direct((1, 0.3, 2), 2.5, tol=1e-10), (2.8634994224870036, 41280624, 9.996114958760337e-11)),
        (lambda: zp_brute(1, 2.3, 0.5), (1.2864786766598664, 1932, 9.972544917387685e-12)),
        (lambda: zp_brute(1, 1.0, 0.5, tol=1e-2), (2.8407792788496606, 400, 0.009999752481374222)),
        (lambda: zp_brute(2, 2.1, 0.3, tail="integral"), (4.995839296261979, 1002000, 5.219543957156569e-15)),
        (lambda: zp_brute(3, 3.5, 0.5, tol=1e-6), (3.7819435322949966, 1860866, 9.72566388713378e-07)),
        (lambda: zp_brute(4, 3.0, 1.0, tol=2.0), (4.1765905699049855, 83520, 1.6296296296296295)),
    ],
)
def test_lattice_sums_are_pinned(call, pinned):
    # value, terms and tail_bound with ==: rewriting the block arithmetic must not move a bit
    got = call()
    assert (got.value, got.terms, got.tail_bound) == pinned


def test_zp_brute_memory_grows_with_a_face_not_the_cube(monkeypatch):
    # radius 102 in p = 3: one float64 array over the whole cube would be 69 MB.
    # An empty pool, so that the block buffer is allocated under tracemalloc
    monkeypatch.setattr(epstein, "_BUFFERS", [])
    tracemalloc.start()
    try:
        zb = zp_brute(3, 4.0, 1.3, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zb.terms == 205 ** 3 - 1
    assert peak < 64e6


def test_lattice_sums_reuse_one_pooled_buffer(monkeypatch):
    # a pooled buffer too small for the block is replaced, and the sums of
    # one caller, nested slabs included, share a single buffer
    monkeypatch.setattr(epstein, "_BUFFERS", [np.empty(4)])
    for _ in range(2):
        got = zp_brute(4, 3.0, 1.0, tol=2.0)
        assert (got.value, got.terms, got.tail_bound) == (4.1765905699049855, 83520, 1.6296296296296295)
    assert [b.size for b in epstein._BUFFERS] == [epstein._BLOCK]


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan])
@pytest.mark.parametrize(
    "call",
    [lambda tol: z2_direct((1, 0, 1), 3.0, tol=tol), lambda tol: zp_brute(2, 3.0, 0.8, tol=tol)],
    ids=["z2_direct", "zp_brute"],
)
def test_direct_sums_refuse_a_tol_that_is_not_positive(call, tol):
    # no radius certifies it: a search to 2^60 would end in a ConvergenceError
    with pytest.raises(DomainError):
        call(tol)


@pytest.mark.parametrize(
    "call,radius",
    [
        (lambda: zp_brute(3, 4.0, 1.3, tol=1e-12), 405),  # 5.3e8 points
        (lambda: z2_direct((1, 0, 1), 3.0, radius=20000, tail="integral"), 20000),
    ],
)
def test_point_budget_refuses_before_allocating(call, radius):
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError) as exc:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.suggestion == radius
    assert peak < 1e6


def _shell(p: int, s: float, const: float):
    """The shell bound at radius R, written out here apart from _direct."""

    def bound(radius: int) -> float:
        r1 = radius + 1
        return const * (r1 ** (p - 1 - 2 * s) + r1 ** (p - 2 * s) / (2 * s - p))

    return bound


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([1, 2, 3]),
    excess=st.floats(0.1, 4.0),
    w=st.floats(0.0, 2.0),
    target=st.integers(1, 60),
    between=st.floats(0.0, 0.5),
)
def test_zp_brute_sums_to_the_least_certified_radius(p, excess, w, target, between):
    # tol lies between the bounds at target and target - 1, so the least
    # radius from 8 is known and every sum is quick
    s = (p + excess) / 2
    shell = _shell(p, s, 2 * p * 3 ** (p - 1))
    tol = shell(target) + between * (shell(target - 1) - shell(target))
    got = zp_brute(p, s, w, tol=tol)
    side = round((got.terms + 1) ** (1 / p))
    assert side ** p == got.terms + 1
    radius = (side - 1) // 2
    assert got.tail_bound == shell(radius) <= tol
    assert radius == 8 or shell(radius - 1) > tol
    assert radius == max(target, 8)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([1, 2, 3]),
    excess=st.floats(0.1, 4.0),
    target=st.integers(1, 10 ** 9),
    factor=st.floats(0.5, 1.0),
)
def test_over_budget_refusal_suggests_the_least_radius(p, excess, target, factor):
    # past the budget the refusal sums nothing, so any size is cheap to ask for
    assume((2 * target + 1) ** p - 1 > epstein._MAX_POINTS)
    s = (p + excess) / 2
    shell = _shell(p, s, 2 * p * 3 ** (p - 1))
    tol = factor * shell(target)
    with pytest.raises(ConvergenceError) as exc:
        zp_brute(p, s, 1.0, tol=tol)
    need = exc.value.suggestion
    assert shell(need) <= tol < shell(need - 1)


@settings(max_examples=60, deadline=None)
@given(
    form=st.sampled_from([(1, 0, 1), (1, 0.3, 2), (2, 1, 3), (5, -2, 1)]),
    excess=st.floats(0.05, 3.0),
    radius=st.integers(1, 150),
    target=st.integers(1, 150),
    between=st.floats(0.0, 0.5),
)
def test_a_caller_radius_is_used_or_refused_with_the_least_radius(form, excess, radius, target, between):
    s = 1 + excess / 2
    shell = _shell(2, s, 8 * BinaryForm(*form).min_eigenvalue ** (-s))
    tol = shell(target) + between * (shell(target - 1) - shell(target))
    try:
        got = z2_direct(form, s, tol=tol, radius=radius)
    except ConvergenceError as exc:
        need = exc.suggestion
        assert need == target > radius and shell(need) <= tol < shell(need - 1)
        again = z2_direct(form, s, tol=tol, radius=need)
        assert again.terms == (2 * need + 1) ** 2 - 1 and again.tail_bound <= tol
    else:
        assert radius >= target
        assert got.terms == (2 * radius + 1) ** 2 - 1 and got.tail_bound <= tol


def test_z2_direct_shell_grouping_matches_r2():
    # sum over n <= 50 of r_2(n) n^{-s} equals the shell-grouped partial sum
    counts = _sieve("rp", 2, 50)
    s = 2.3
    by_shell = sum(counts[n] * n ** (-s) for n in range(1, 51))
    direct = 0.0
    for m in range(-8, 9):
        for n in range(-8, 9):
            q = m * m + n * n
            if 0 < q <= 50:
                direct += q ** (-s)
    assert abs(by_shell - direct) < 1e-14


# ------------------------------------------------------------- Kober route
def test_kober_matches_direct_low_exponent():
    # w = 1 <-> exponent 3/2; the direct side uses the integral-corrected tail
    d = z2_direct((1, 0, 1), 1.5, tail="integral")
    k = z2_kober((1, 0, 1), 1.0)
    assert abs(d.value - k.value) < 1e-10


def test_kober_matches_direct_skew_form():
    d = z2_direct((2, 1, 3), 1.75, tail="integral")
    k = z2_kober((2, 1, 3), 1.25)
    assert abs(d.value - k.value) < 1e-9


@pytest.mark.parametrize("s", [1.1, 1.2, 1.5])
def test_integral_tail_within_its_estimate_near_s_one(s):
    # the polar exterior integral must be accurate where the integral tail
    # is largest (s near 1): the two routes agree within their error figures
    forms = [(1, 0, 1), (2, 1, 3), (1, 0.3, 2), (1, -0.4, 0.7), (3, 1, 1), (1, 0, 4), (5, 2, 1)]
    for form in forms:
        d = z2_direct(form, s, tail="integral")
        k = z2_kober(form, s - 0.5)
        assert abs(d.value - k.value) <= d.tail_bound + k.tail_bound, form


@pytest.mark.parametrize("s,w", [(1.1, 1.0), (1.2, 2.0)])
def test_massive_integral_tail_within_its_estimate(s, w):
    zb = zp_brute(2, s, w, tail="integral")
    zm = zp_massive(2, s, w)
    assert abs(zb.value - zm.value) <= zb.tail_bound + zm.tail_bound


@pytest.mark.parametrize("s,w", [(1.0, 1.0), (0.75, 0.5), (2.3, 2.0)])
def test_massive_integral_tail_in_one_dimension(s, w):
    # p = 1 has its own exterior integral; sum_{m != 0} (m^2 + 1)^-1 = pi coth pi - 1.
    # mpmath's default nsum acceleration misses the slow series by 0.027 at
    # (0.75, 0.5), so the oracle sums by Euler-Maclaurin
    got = zp_brute(1, s, w, tail="integral")
    if (s, w) == (1.0, 1.0):
        want = math.pi / math.tanh(math.pi) - 1
    else:
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = float(2 * mpmath.nsum(lambda m: (m * m + w * w) ** -s, [1, mpmath.inf], method="euler-maclaurin"))
    assert abs(got.value - want) <= got.tail_bound


def test_kober_matches_certified_direct_high_exponent():
    for form, w in (((1, 0, 1), 2.5), ((2, 1, 3), 2.25), ((1, 0.3, 2), 2.0)):
        d = z2_direct(form, w + 0.5, tol=1e-10)
        k = z2_kober(form, w)
        assert abs(d.value - k.value) < 1e-9


def test_kober_acceleration_term_counts():
    # the Bessel series needs a handful of terms where the direct sum needs
    # thousands of lattice points for the same accuracy
    k = z2_kober((1, 0, 1), 1.0, target_tol=1e-10)
    assert k.terms <= 12
    with pytest.raises(ConvergenceError) as exc:
        z2_direct((1, 0, 1), 1.5, tol=1e-10)
    assert exc.value.suggestion >= 1000


def test_kober_pole_guard():
    with pytest.raises(SingularityError):
        z2_kober((1, 0, 1), 0.5)


def test_functional_equation_freln():
    for a, b, c in ((1, 0, 1), (2, 1, 3), (1, 0.3, 2)):
        f = BinaryForm(a, b, c)
        fi = f.inverse()
        for s in (0.75, 1.6):
            lhs = z2_kober(f, s - 0.5).value
            rhs = (
                math.pi ** (2 * s - 1)
                * f.det ** -0.5
                * gamma_numeric(1 - s).real
                / gamma_numeric(s).real
                * z2_kober(fi, 0.5 - s).value
            )
            assert abs(lhs - rhs) < 1e-9


def test_diagonal_functional_equation_epfunc():
    # Gamma(s) Z_p(s) = pi^{2s-p/2} Gamma(p/2-s) Z_p(p/2-s) for p = 1, 2
    for s in (0.8, 1.7):
        lhs = gamma_numeric(s).real * 2 * zeta_numeric(2 * s).real  # Z_1 = 2 zeta(2s)
        rhs = (
            math.pi ** (2 * s - 0.5)
            * gamma_numeric(0.5 - s).real
            * 2
            * zeta_numeric(1 - 2 * s).real
        )
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
    for s in (0.75, 1.6):
        lhs = gamma_numeric(s).real * z2_kober((1, 0, 1), s - 0.5).value
        rhs = (
            math.pi ** (2 * s - 1)
            * gamma_numeric(1 - s).real
            * z2_kober((1, 0, 1), 0.5 - s).value
        )
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_completed_zeta_symmetry():
    rng = random.Random(515)
    for _ in range(8):
        s = rng.uniform(0.1, 3.0)
        if abs(s - 1) < 0.05 or s < 0.05:
            continue
        assert abs(xi_completed(s) - xi_completed(1 - s)) < 1e-11 * abs(xi_completed(s))


# ----------------------------------------------------------------- quartic
def test_z2_quartic_square_point():
    q = z2_quartic(1.0)
    d = z2_direct((1, 0, 1), 2.0, tail="integral")
    assert abs(q.value - d.value) < 1e-10


def test_z2_quartic_scaling_consistency():
    # Z(4, A^{-1}) = xi^{-4} Z(4, A) with A = diag(1, xi^{-2})
    xi = 2.0
    q = z2_quartic(xi)
    za = z2_direct((1, 0, 1 / xi ** 2), 2.0, tail="integral")
    assert abs(q.value - za.value / xi ** 4) < 1e-11


def test_z2_quartic_high_temperature_limit():
    # as xi -> infinity the zeta(3)/xi^3 and exponential terms die off
    xi = 200.0
    v = z2_quartic(xi)
    assert abs(v.value - math.pi ** 4 / 45) < 2 * math.pi * 1.21 / xi ** 3


def _quartic_oracle(mpmath, xi: float):
    # Z(xi) = sum' (m^2 + xi^2 n^2)^-2: the sum over m in closed form, and
    # coth - 1 and csch^2 decay exponentially in n; Z(xi) = xi^-4 Z(1/xi)
    if xi < 0.1:
        return _quartic_oracle(mpmath, 1 / xi) / mpmath.mpf(xi) ** 4
    x, pi = mpmath.mpf(xi), mpmath.pi
    rest = mpmath.nsum(
        lambda n: pi * (mpmath.coth(pi * x * n) - 1) / (x * n) ** 3 + (pi * mpmath.csch(pi * x * n) / (x * n)) ** 2,
        [1, mpmath.inf],
    )
    return 2 * mpmath.zeta(4) + pi * mpmath.zeta(3) / x ** 3 + rest


@pytest.mark.parametrize("xi", [0.3, 0.5, 0.8, 1.0, 1.3, 1.7, 3.0, 0.0005, 2000.0])
def test_z2_quartic_against_mpmath(xi):
    # the sigma_3 series of f3_epstein and the correctly rounded zeta(3): at
    # most 4.3e-16 relative on the seven-point grid (up to 2.2e-15 before);
    # xi = 2000 returns the series at 1/xi = 0.0005, summed in ~1.2e4 terms
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = float(_quartic_oracle(mpmath, xi))
    got = z2_quartic(xi)
    assert abs(got.value - want) <= (5e-16 if 0.1 < xi < 10 else 1e-13) * want
    assert got.tail_bound <= 1e-13 * want


# ----------------------------------------------------------------- massive
def test_zp_massive_closed_form_p1():
    got = zp_massive(1, 1.0, 1.0)
    assert abs(got.value - (math.pi / math.tanh(math.pi) - 1.0)) < 1e-11


@pytest.mark.parametrize(
    "p,s,w",
    [(1, 3.0, 1.0), (2, 3.0, 0.8), (3, 4.0, 1.3)],
)
def test_zp_massive_vs_certified_brute(p, s, w):
    zb = zp_brute(p, s, w, tol=1e-9)
    zm = zp_massive(p, s, w)
    assert abs(zb.value - zm.value) < 1e-9


def test_zp_massive_vs_integral_brute_p2():
    zb = zp_brute(2, 2.0, 0.8, tail="integral")
    zm = zp_massive(2, 2.0, 0.8)
    assert abs(zb.value - zm.value) < 1e-9


def test_zp_massive_past_the_float_range_is_a_convergence_error():
    # order nu = 159 at w = 1: the Bessel bound's exp(nu^2 / 2x) overflows at small n
    with pytest.raises(ConvergenceError) as exc:
        zp_massive(2, 160.0, 1.0)
    assert exc.value.suggestion == "w > 1"


@pytest.mark.parametrize("s,big", [(171.0, "174"), (170.5, "173.5")])
def test_zp_massive_gamma_overflow_names_the_route(s, big):
    # Gamma(s) or the tail's Gamma(alpha) passes the largest double
    with pytest.raises(ConvergenceError, match=rf"berndt_phi: .* s = {s}, w = 1.0: Gamma\({big}\)") as exc:
        zp_massive(2, s, 1.0)
    assert exc.value.suggestion is not None


def test_zp_massive_continuation_below_convergence():
    # s = 0.75 < p/2 = 1: the direct sum diverges but the Bessel form is
    # finite, and (s - 1) Z approaches the pole residue pi^{p/2} w^{p-2s} /
    # Gamma(p/2) = pi as s -> 1 (w = 1)
    v = zp_massive(2, 0.75, 1.0)
    assert math.isfinite(v.value)
    h = 0.01
    r1 = h * zp_massive(2, 1 + h, 1.0).value
    r2 = (h / 2) * zp_massive(2, 1 + h / 2, 1.0).value
    r4 = (h / 4) * zp_massive(2, 1 + h / 4, 1.0).value
    rich = r2 + (r2 - r1)
    rich2 = r4 + (r4 - r2)
    extr = rich2 + (rich2 - rich) / 3
    assert abs(extr - math.pi) < 1e-6


def test_zp_massive_pole_guard():
    with pytest.raises(SingularityError):
        zp_massive(2, 1.0, 1.0)  # s - p/2 = 0
    with pytest.raises(DomainError):
        zp_massive(2, 2.0, -1.0)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_zp_massive_refuses_a_non_finite_s(s):
    # berndt_phi's finiteness test comes before any pole test
    with pytest.raises(DomainError):
        zp_massive(2, s, 1.0)


def test_zp_massive_refuses_a_mass_whose_square_underflows():
    with pytest.raises(ConvergenceError, match="underflows"):
        zp_massive(1, 0.1, 3.6e-181)


@pytest.mark.parametrize("p,s,w", [(1, 1.0, 1.0), (2, 0.75, 1.0), (2, 3.0, 0.8), (3, 2.6, 0.5), (4, 3.0, 1.3)])
def test_zp_massive_is_berndt_phi_on_the_diagonal_datum(p, s, w):
    got = zp_massive(p, s, w, target_tol=1e-10)
    want = berndt_phi(diagonal_epstein_datum(p), s, w, tol=1e-10)
    assert (got.value, got.terms, got.tail_bound) == (want.value, want.terms, want.tail_bound)


def test_zp_massive_refuses_a_tiny_mass_without_a_huge_table(capsys):
    # the certified sum stops at its term cap while the r_2 table is ~1e5
    # entries; a cutoff chosen from w alone would need r_2 up to n ~ 6e7
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["eval", "zp_massive", "--p", "2", "--s", "2", "--w", "1e-3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err
    assert elapsed < 5.0
    assert peak < 16e6


@pytest.mark.parametrize("p,s,w", [(1, 5.0, 0.3), (1, 6.5, 0.5), (3, 5.0, 0.5)])
def test_zp_massive_certifies_small_masses(p, s, w):
    # w <= 0.5, where the sum needs more terms than a cutoff chosen from w
    # alone, (50 / 2 pi w)^2 + 8, supplies
    zm = zp_massive(p, s, w)
    zb = zp_brute(p, s, w, tol=1e-10)
    assert abs(zm.value - zb.value) < 1e-9


# (datum, s, w) -> (value, terms, truncation bound) at tol 1e-12: the tail
# shortcut and the zero-coefficient skip must not move a bit of them
BERNDT_PINS = [
    (("diagonal", 1), 1.0, 1.0, (2.1533480949371615, 26, 9.071243541655688e-13)),
    (("diagonal", 1), 2.6, 0.2, (1.8679484588182251, 1542, 9.945042199891015e-13)),
    (("diagonal", 2), 2.1, 0.3, (4.995839296261903, 590, 9.751879823683034e-13)),
    (("diagonal", 2), 0.75, 1.0, (-13.551348750100932, 31, 6.954583315532445e-13)),
    (("diagonal", 3), 2.6, 0.5, (6.462939390302423, 222, 9.424936945314664e-13)),
    (("diagonal", 4), 3.0, 1.3, (2.7409313562766817, 27, 6.54356436352956e-13)),
    (("eisenstein", 2), 5.0, 1.0, (0.00010577516289325625, 66, 9.349605592908026e-13)),
    (("eisenstein", 3), 6.5, 0.8, (1.2798921899045269e-05, 158, 9.38028407535687e-13)),
    (("theta",), 1.7, 0.5, (0.28939715003780847, 18, 5.697387684568675e-13)),
    (("theta",), 0.3, 1.0, (-2.9231182522523462, 7, 3.3175502767711734e-13)),
]


@pytest.mark.parametrize("datum,s,w,want", BERNDT_PINS)
def test_berndt_phi_keeps_its_bits(datum, s, w, want, monkeypatch):
    make = {
        "diagonal": diagonal_epstein_datum,
        "eisenstein": eisenstein_datum,
        "theta": theta_datum,
    }
    d = make[datum[0]](*datum[1:])
    sv = berndt_phi(d, s, w)
    assert (sv.value, sv.terms) == want[:2]
    assert sv.tail_bound > want[2]  # plus the rounding allowance
    monkeypatch.setattr(dirichlet, "_ROUNDING", 0.0)
    sv = berndt_phi(d, s, w)
    assert (sv.value, sv.terms, sv.tail_bound) == want


def test_berndt_phi_asks_q_only_where_its_lower_bound_cannot_decide(monkeypatch):
    # a tail the closed-form lower bound on Gamma(a, x) keeps above tol needs no
    # Q(a, x): on this point only the stop index asks for it (26 calls without)
    real, calls = _special.gammaincc, []
    monkeypatch.setattr(_special, "gammaincc", lambda a, x: calls.append(x) or real(a, x))
    sv = berndt_phi(diagonal_epstein_datum(3), 2.6, 0.5)
    assert (sv.value, sv.terms) == (6.462939390302423, 222)
    assert len(calls) == 1


def _massive_oracle(mpmath, p, s, w):
    # sum over m != 0 of (m.m + w^2)^{-s} = (1/Gamma(s)) int_0^inf t^{s-1}
    # e^{-w^2 t} (theta(t)^p - 1) dt, theta(t) = sum_k e^{-t k^2}; below t = 1
    # theta = sqrt(pi/t) (1 + 2 sum e^{-pi^2 k^2/t}), and its leading
    # (pi/t)^{p/2} - 1 integrates in closed form (lower incomplete gammas)
    mp = mpmath.mp
    with mpmath.workdps(20):
        s, w2 = mpmath.mpf(s), mpmath.mpf(w) ** 2
        half_p = mpmath.mpf(p) / 2

        def jacobi(x):  # 1 + 2 sum_{k >= 1} e^{-x k^2}
            return 1 + 2 * mpmath.nsum(lambda k: mpmath.exp(-x * k * k), [1, mpmath.inf])

        def kernel(t):
            return t ** (s - 1) * mpmath.exp(-w2 * t)

        low = mpmath.quad(lambda t: kernel(t) * (mp.pi / t) ** half_p * (jacobi(mp.pi ** 2 / t) ** p - 1), [0, 0.25, 1])
        high = mpmath.quad(lambda t: kernel(t) * (jacobi(t) ** p - 1), [1, 4, 16, 64, 256])
        closed = (
            mp.pi ** half_p * w2 ** (half_p - s) * mpmath.gammainc(s - half_p, 0, w2)
            - w2 ** (-s) * mpmath.gammainc(s, 0, w2)
        )
        return float((low + high + closed) / mpmath.gamma(s))


@pytest.mark.parametrize(
    "p,s,w,value", [(2, 2.1, 0.05, 5.741004591157525), (1, 2.0, 0.05, 2.15451056496852), (1, 2.8, 0.1, 1.991495821892386)]
)
def test_zp_massive_tail_bound_covers_rounding_at_small_mass(p, s, w, value):
    # R(s, w)/Gamma(s) ~ -w^{-2s} and the Bessel series cancel here, so the
    # terms' rounding, not the truncation, sets the error
    mpmath = pytest.importorskip("mpmath")
    oracle = _massive_oracle(mpmath, p, s, w)
    assert abs(oracle - value) < 1e-14 * value
    zm = zp_massive(p, s, w)
    assert abs(zm.value - oracle) <= zm.tail_bound


def test_epstein_imports_alone_for_zp_massive():
    # zp_massive imports dirichlet, which imports epstein, inside the call
    code = "import modzeta.epstein as e; e.zp_massive(1, 1.0, 1.0)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_rp_table_matches_lattice_count(p, monkeypatch):
    monkeypatch.setattr(exactnum, "_SIEVES", {})
    axis = np.arange(-14, 15)  # 15^2 > 200 reaches every vector with m.m <= 200
    norms = sum(g * g for g in np.meshgrid(*[axis] * p, indexing="ij")).ravel()
    brute = np.bincount(norms[norms <= 200], minlength=201)
    counts = _sieve("rp", p, 200)
    assert all(type(c) is int for c in counts)
    assert counts == brute.tolist()


def test_rp_table_small_values(monkeypatch):
    monkeypatch.setattr(exactnum, "_SIEVES", {})
    assert _sieve("rp", 2, 10)[:6] == [1, 4, 4, 0, 4, 8]
    r1 = _sieve("rp", 1, 9)
    assert r1[9] == 2 and r1[8] == 0
    r3 = _sieve("rp", 3, 6)
    assert r3[1] == 6 and r3[2] == 12 and r3[3] == 8


# ----------------------------------------------------------------- Guinand
def test_guinand_vanishes_at_symmetric_point():
    # both sides vanish identically at u = 1
    assert guinand_gap(1.5, 1.0) == pytest.approx(0.0, abs=1e-14)
    lhs = guinand_lhs_bessel(1.5, 1.0)
    assert abs(lhs) < 1e-15


@pytest.mark.parametrize(
    "w,u",
    [(1.5, 2.0), (0.8, 1.3), (2.5, 0.6), (1.2, 1.9), (3.5, 1.7)],
)
def test_guinand_relation(w, u):
    assert abs(guinand_gap(w, u)) < 1e-10


@pytest.mark.parametrize("w", [1.0, 2.0])
@pytest.mark.parametrize("u", [0.6, 1.3, 2.0])
def test_guinand_relation_at_integer_order(w, u):
    # xi(-2w) meets a gamma pole at integer w; the relation's limit is finite
    gap = guinand_gap(w, u)
    assert abs(gap) < 1e-10
    for near in (w - 1e-6, w + 1e-6):
        assert abs(guinand_gap(near, u) - gap) < 1e-10


@pytest.mark.parametrize("w,u", [(0.8, 1.3), (0.8, 0.6), (1.2, 2.0), (3.7, 1.0)])
def test_guinand_builds_its_sigma_table_once(monkeypatch, w, u):
    # S(u) and S(1/u) share one sigma_{2w} table: the pair builds exactly what
    # the longer series (argument min(u, 1/u)) builds alone
    built = []
    real = exactnum.sigma_range

    def recording(k, n_max):
        built.append((k, n_max))
        return real(k, n_max)

    monkeypatch.setattr(exactnum, "sigma_range", recording)
    exactnum._LAST_NON_INTEGER.clear()
    guinand_lhs_bessel(w, u)
    pair = list(built)
    built.clear()
    exactnum._LAST_NON_INTEGER.clear()
    _bessel_series(w, min(u, 1.0 / u), 0.0, 1e-13)
    assert pair == built and pair
    assert all(k == 2 * w for k, _ in pair)
    sizes = [n for _, n in pair]
    assert sizes == sorted(set(sizes))  # no size built twice
    assert ("sigma", 2 * w) not in exactnum._SIEVES
    assert list(exactnum._LAST_NON_INTEGER) == [("sigma", 2 * w)]  # one non-integer table kept


def test_guinand_derivative_form_matches_bessel_form():
    # the half-integer Bessel reduction in derivative form agrees with the
    # straight Bessel sums, settling the reduction question numerically
    for t, u in ((2, 1.5), (3, 0.8), (2, 2.2)):
        lhs = guinand_lhs_derivative(t, u)
        rhs = guinand_lhs_bessel(t - 0.5, u)
        assert abs(lhs - rhs) < 1e-9


def test_guinand_derivative_form_raises_at_its_term_cap():
    # at u = 0.002 the 2000-term cap falls short of the tolerance; the old
    # loop returned that truncated sum, 2.5e-5 away from the Bessel route
    with pytest.raises(ConvergenceError) as exc:
        guinand_lhs_derivative(2, 0.002)
    assert exc.value.suggestion is not None

"""q-series values, inversion/translation laws, oracles and transforms."""
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from modzeta.errors import ConvergenceError, DomainError
from modzeta.exactnum import _coefficients, bernoulli, zeta_even_exact, zeta_odd_numeric
from modzeta.qseries import (
    _certified_sum,
    _divisor_series,
    _first_true,
    _mellin_kernel,
    casimir_constant,
    eps,
    eps_sub,
    lambert_S,
    mellin_eps_sub,
    moment,
    phi_bar,
    phi_bar_from_weyl,
    psi_bar,
    weyl_integral,
)

Z3 = zeta_odd_numeric(3)


# ---------------------------------------------------------- certified sums
def test_certified_sum_stops_at_first_certified_term():
    pulled = []

    def terms():
        n = 0
        while True:
            n += 1
            pulled.append(n)
            yield 0.5 ** n

    tails = []

    def tail(n):
        tails.append(n)
        return 0.5 ** n  # exact remainder of the geometric series

    sv = _certified_sum(terms(), tail, 0.5 ** 10, 100, "geometric")
    assert (sv.value, sv.terms, sv.tail_bound) == (1 - 0.5 ** 10, 10, 0.5 ** 10)
    assert pulled == tails == list(range(1, 11))
    # the start value is added first, in the caller's type
    sv = _certified_sum(iter([1.0, 2.0]), lambda n: 0.0 if n == 2 else 1.0, 0.0, 5, "pair", 0j)
    assert sv.value == 3 + 0j and isinstance(sv.value, complex)


def test_certified_sum_raises_past_max_terms():
    pulled = []

    def terms():
        while True:
            pulled.append(1)
            yield 1.0

    with pytest.raises(ConvergenceError) as exc:
        _certified_sum(terms(), lambda n: math.inf, 1e-12, 25, "divergent")
    assert len(pulled) == 25
    assert exc.value.suggestion == 50


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lo=st.integers(0, 1 << 62), span=st.integers(0, 1 << 62), offset=st.integers(-(1 << 62), 1 << 63))
@example(lo=5, span=0, offset=0)
@example(lo=5, span=0, offset=1)
@example(lo=5, span=10, offset=10)
@example(lo=5, span=10, offset=11)
@example(lo=5, span=10, offset=-3)
def test_first_true_finds_the_least_index_in_log_calls(lo, span, offset):
    # the search behind the least lattice radius and G''s stop index
    hi, threshold = lo + span, lo + offset
    calls = []

    def pred(m):
        calls.append(m)
        return m >= threshold

    want = max(lo, threshold)
    assert _first_true(pred, lo, hi) == (want if want <= hi else None)
    assert all(lo <= m <= hi for m in calls)
    assert len(calls) <= 2 * math.log2(hi - lo + 1) + 3


# --------------------------------------------------------------------- eps
def test_eps_zero_temperature_constant():
    # b -> infinity leaves the Casimir constant -B_4/8 = 1/240
    v = eps(2, 60.0)
    assert abs(v.value - 1.0 / 240.0) < 1e-15
    assert casimir_constant(2) == Fraction(1, 240)


def test_casimir_constant_checks_t_before_its_cache():
    assert casimir_constant(2) is casimir_constant(2)
    for bad in (2.0, 0, "2"):
        with pytest.raises(DomainError):
            casimir_constant(bad)


def test_casimir_constant_past_the_bernoulli_budget_refuses_at_once():
    # B_800 would take seconds to build; a fresh process has no table yet
    code = (
        "import time\n"
        "from modzeta.errors import ConvergenceError\n"
        "from modzeta.qseries import casimir_constant\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    casimir_constant(400)\n"
        "except ConvergenceError as e:\n"
        "    print(e, time.perf_counter() - start)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    message, seconds = proc.stdout.rsplit(" ", 1)
    assert message == "bernoulli: B_800 is past B_620, the largest Bernoulli number built"
    assert float(seconds) < 1.0


def test_eps_odd_weight_vanishes_at_fixed_point():
    # inversion law at b = 1 with t odd forces eps_3(1) = 0
    assert abs(eps(3, 1.0).value) < 1e-12


def test_eps_inversion_law_random_grid():
    rng = random.Random(4711)
    for t in range(2, 7):
        for _ in range(20):
            b = rng.uniform(0.2, 5.0)
            # tolerance scales with the size of the large side, per the
            # binary64 error model (the subtraction in eps_sub cancels
            # against a term of that size)
            scale = max(1.0, abs(eps(t, b).value) * b ** (2 * t))
            lhs = eps(t, 1.0 / b).value
            rhs = (-1) ** t * b ** (2 * t) * eps(t, b).value
            assert abs(lhs - rhs) < 1e-10 * scale
            lhs = eps_sub(t, 1.0 / b).value
            rhs = (-1) ** t * b ** (2 * t) * eps_sub(t, b).value
            assert abs(lhs - rhs) < 1e-10 * scale


def test_eps_sub_is_eps_minus_both_subtractions():
    # at b = 10: eps_sub = eps - (1/240)(1 + 10^-4)
    e = eps(2, 10.0).value
    s = eps_sub(2, 10.0).value
    assert abs(s - (e - (1.0 / 240.0) * (1.0 + 1e-4))) < 1e-16


def test_eps_sub_translation_gap():
    # eps_sub(b - i) - eps_sub(b) = (-1)^{t+1} (1/2) zeta(1-2t)
    #                               ((b-i)^{-2t} - b^{-2t})
    rng = random.Random(90125)
    for t in (2, 3, 4):
        c = float(casimir_constant(t))
        for _ in range(10):
            b = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
            gap = eps_sub(t, b - 1j).value - eps_sub(t, b).value
            pred = (-1) ** (t + 1) * c * ((b - 1j) ** (-2 * t) - b ** (-2 * t))
            assert abs(gap - pred) < 1e-10


def test_eps_convergence_error_when_budget_too_small(monkeypatch):
    from modzeta import qseries

    monkeypatch.setattr(qseries, "_MAX_TERMS", 3)
    with pytest.raises(ConvergenceError, match="did not certify .* in 3 terms"):
        eps(2, 0.05)


@pytest.mark.parametrize("t,b", [(20, 4.0), (20, 2.5), (30, 3.0)])
def test_eps_sub_meets_the_oracle_where_the_constant_dwarfs_it(t, b):
    # eps_sub reads the q-part of eps_t directly: adding -B_2t/(4t) and
    # subtracting it again erased the q-part where the constant dwarfs it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q2 = mpmath.exp(-2 * mpmath.pi * b)
        q_part = mpmath.fsum(n ** (2 * t - 1) * q2 ** n / (1 - q2 ** n) for n in range(1, 400))
        want = complex(q_part + mpmath.bernoulli(2 * t) / (4 * t) * mpmath.mpc(0, b) ** (-2 * t))
    got = eps_sub(t, b)
    assert abs(got.value - want) <= got.tail_bound + 1e-12 * abs(want)


@pytest.mark.parametrize(
    "call",
    [
        lambda: eps(2, 1e-300 + 1j),  # |q^2| rounds to 1
        lambda: lambert_S(2, 1e-300 + 1j),
        lambda: eps(100000, 1.0),  # n^(2t-1) leaves the float range
    ],
)
def test_float_range_failures_are_convergence_errors(call):
    with pytest.raises(ConvergenceError, match=r"b = \(1"):
        call()


# ------------------------------------------------------------ Mellin oracle
@pytest.mark.parametrize("t", [2, 3, 4])
def test_mellin_oracle_agrees_with_q_series(t):
    for b in (0.4, 0.7, 1.0, 1.6, 2.5):
        m = mellin_eps_sub(t, b)
        e = eps_sub(t, b)
        assert abs(m.value - e.value) < 1e-8


def test_mellin_decay_along_real_axis():
    assert abs(mellin_eps_sub(2, 4.0).value) < abs(eps_sub(2, 2.0).value)


# mellin_eps_sub(t, b) at verify's 15 points: value, terms, tail_bound
_MELLIN_PINS = {
    (2, 0.4): (-0.004160779872450377, 1.6657719096186754e-15),
    (2, 0.7): (-0.003639577982816394, 1.9122201083913974e-13),
    (2, 1.0): (-0.002267654615547045, 8.001924320583953e-16),
    (2, 1.6): (-0.0005927139623372466, 2.5474315635425714e-16),
    (2, 2.5): (-0.00010651596473472836, 2.1623233327896576e-13),
    (3, 0.4): (0.0019473343872023498, 1.2885480744217807e-13),
    (3, 0.7): (0.0009051723138364989, 7.870228807624412e-15),
    (3, 1.0): (-6.815967334950571e-19, 6.832542586752533e-14),
    (3, 1.6): (-7.514976770022766e-05, 2.7130082416549213e-13),
    (3, 2.5): (-7.976281649980927e-06, 1.8561585818879266e-14),
    (4, 0.4): (-0.0018533762757359318, 1.6321623247416868e-14),
    (4, 0.7): (0.00014529351032582615, 1.6255017949121957e-13),
    (4, 1.0): (0.0002484283302219943, 3.360208974847649e-17),
    (4, 1.6): (-5.214877052163479e-06, 1.1110594655764452e-13),
    (4, 2.5): (-1.2146286760664595e-06, 3.146931748319425e-15),
}


@pytest.mark.parametrize("order", [1, -1], ids=["b-ascending", "b-descending"])
def test_mellin_values_are_pinned_through_the_kernel_cache(order):
    # a fresh interpreter starts with an empty kernel cache, so the first b
    # of each t misses it and the later ones hit it; both orders give the same bits
    code = (
        "from modzeta.qseries import mellin_eps_sub\n"
        "for t in (2, 3, 4):\n"
        f"    for b in (0.4, 0.7, 1.0, 1.6, 2.5)[::{order}]:\n"
        "        m = mellin_eps_sub(t, b)\n"
        "        print(t, b, repr(m.value), m.terms, repr(m.tail_bound))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = {}
    for line in proc.stdout.splitlines():
        t, b, value, terms, tail = line.split()
        got[int(t), float(b)] = (complex(value), int(terms), float(tail))
    assert got == {key: (complex(v, 0.0), 0, tail) for key, (v, tail) in _MELLIN_PINS.items()}


def test_mellin_kernel_cache_is_bounded():
    info = _mellin_kernel.cache_info()
    assert info.maxsize is not None
    rng = random.Random(2024)
    for _ in range(300):
        mellin_eps_sub(rng.randint(2, 6), rng.uniform(0.3, 3.0))
    info = _mellin_kernel.cache_info()
    assert 0 < info.currsize <= info.maxsize


# ----------------------------------------------------------------- Lambert
def test_lambert_lerch_value_weight4():
    # S_2 at the self-dual point b = 1 (tau = i)
    z2 = zeta_even_exact(2).numeric()
    z4 = zeta_even_exact(4).numeric()
    expect = z4 / (2 * math.pi) - Z3 / 2 + z2 ** 2 / (2 * math.pi)
    assert abs(lambert_S(2, 1.0).value - expect) < 1e-11


def test_lambert_vanishes_at_zero_temperature():
    assert abs(lambert_S(3, 40.0).value) < 1e-60


_LAMBERT_DIVISOR = "Lambert form = divisor form of S_t (t=1,2,3,28)"


def _lambert_divisor_check():
    from modzeta.verify import suite_inversion

    return next(r for r in suite_inversion() if r.name == _LAMBERT_DIVISOR)


def test_lambert_divisor_form_cross_check_runs():
    # the divisor/Lambert agreement is a verify check, not part of each call
    assert lambert_S(3, 0.6).tail_bound < 1e-14
    check = _lambert_divisor_check()
    assert check.passed and check.tol <= 1e-12


def test_lambert_divisor_form_cross_check_fires(monkeypatch):
    from modzeta import qseries

    exact = qseries._divisor_series

    def perturbed(*args):
        s = exact(*args)
        return s._replace(value=s.value * (1 + 1e-6))

    monkeypatch.setattr(qseries, "_divisor_series", perturbed)
    assert not _lambert_divisor_check().passed
    lambert_S(2, 1.0)  # the route itself no longer reads the divisor form


def test_lambert_S_sums_one_route(monkeypatch):
    from modzeta import qseries

    def divisor_route(*args):
        raise AssertionError("lambert_S ran the divisor form")

    monkeypatch.setattr(qseries, "_divisor_series", divisor_route)
    for t in (1, 3, 28):
        lambert_S(t, 0.7)
        psi_bar(t, 0.7 + 0.2j)
        phi_bar(t, 1.3)


def _psi_phi_oracle(t, b):
    """psi_bar and phi_bar at dps 30, the Lambert sum run until q^{2m} < 1e-25."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        b = mpmath.mpc(b)
        q2 = mpmath.exp(-2 * mpmath.pi * b)
        s, qm = mpmath.mpf(0), mpmath.mpf(1)
        for m in range(1, int(25 * math.log(10) / (2 * math.pi * b.real)) + 2):
            qm *= q2
            s += mpmath.mpf(m) ** (1 - 2 * t) * qm / (1 - qm)
        return complex(4 * mpmath.pi * s), complex(4 * mpmath.pi * s - 2 * mpmath.zeta(2 * t) / b)


@pytest.mark.parametrize("t,b", [(3, 0.001), (2, 0.0003), (1, 0.0001)])
def test_psi_bar_at_small_b_keeps_12_digits(t, b):
    # values of size 2e3 to 3e4 summed in 7e3 to 8e4 terms
    psi, _ = _psi_phi_oracle(t, b)
    assert abs(psi_bar(t, b).value - psi) <= 1e-12 * abs(psi)


@pytest.mark.parametrize("t,b", [(2, 0.0003), (1, 0.0001), (3, 0.001), (2, 0.003), (28, 0.002), (1, 0.001 + 0.001j)])
def test_phi_bar_refuses_where_its_cancellation_costs_12_digits(t, b):
    # psi_bar and 2 zeta(2t)/b agree to 2 to 3 digits here, and psi_bar's
    # rounding (1e-13 of it and less) could leave phi_bar under 12 digits
    with pytest.raises(ConvergenceError, match="cancel"):
        phi_bar(t, b)


@pytest.mark.parametrize(
    "t,b", [(1, 0.002), (1, 0.003), (2, 0.01), (28, 0.01), (2, 0.0003 - 1j), (5, 0.001 + 0.5j), (3, 0.003 - 0.01j)]
)
def test_phi_bar_values_next_to_its_refusals_keep_12_digits(t, b):
    _, phi = _psi_phi_oracle(t, b)
    assert abs(phi_bar(t, b).value - phi) <= 1e-12 * abs(phi)


def test_psi_bar_lemniscate_value():
    expect = 7 * math.pi ** 4 / 90 - 2 * math.pi * Z3
    assert abs(psi_bar(2, 1.0).value - expect) < 1e-11


def test_psi_bar_periodicity():
    for t in (2, 3):
        for b in (0.8 + 0.2j, 1.5, 2.0 - 0.7j):
            gap = psi_bar(t, b - 1j).value - psi_bar(t, b).value
            assert abs(gap) < 1e-12


@pytest.mark.parametrize(
    "t,b,value,terms,tail,psi",
    [
        (2, 1.0, 0.0018713727593660278 + 0j, 5, 4.2570358786951315e-17, 0.02351636365180949 + 0j),
        (3, 0.8 + 0.3j, -0.0020632786379163057 - 0.006214020020356412j, 6, 5.305212612700038e-16,
         -0.025927924044746482 - 0.07808767858084639j),
        (6, 0.3, 0.17902853275553354 + 0j, 18, 3.882841773381539e-16, 2.249738893150975 + 0j),
        (40, 1.5, 8.070603050803164e-05 + 0j, 3, 4.241835783594197e-17, 0.0010141818901777038 + 0j),
        (150, 1.0, 0.0018709365986606446 + 0j, 5, 4.2570358786951315e-17, 0.023510882694738226 + 0j),
    ],
)
def test_lambert_S_and_psi_bar_bits_are_pinned(t, b, value, terms, tail, psi):
    # where n^(2t-1) still converts to a float, every bit stays as it was
    got = lambert_S(t, b)
    assert (got.value, got.terms, got.tail_bound) == (value, terms, tail)
    assert psi_bar(t, b).value == psi


@pytest.mark.parametrize("t,b", [(600, 1.0), (600, 0.05), (600, 2 + 1j), (100000, 1.0)])
def test_lambert_S_past_the_float_range_of_n_to_the_k(t, b):
    # S_t = sum_m m^(1-2t) q^(2m) / (1 - q^(2m)) is an ordinary double here
    # even though 2^(2t-1) is not
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        q2 = mpmath.exp(-2 * mpmath.pi * mpmath.mpc(b))
        want = complex(mpmath.nsum(lambda m: m ** (1 - 2 * t) * q2 ** m / (1 - q2 ** m), [1, mpmath.inf]))
    got = lambert_S(t, b)
    assert abs(got.value - want) <= got.tail_bound + 1e-15 * abs(want)
    assert psi_bar(t, b).value == 4 * math.pi * got.value


def test_phi_bar_translation_gap_value():
    # phi_bar(x-i) - phi_bar(x) = -2i zeta(2t) / (x (x-i)); the psi_bar
    # periodicity pins this sign (the series is computed independently)
    t, x = 2, 1.3
    gap = phi_bar(t, x - 1j).value - phi_bar(t, x).value
    pred = -2j * zeta_even_exact(2 * t).numeric() / (x * (x - 1j))
    assert abs(gap - pred) < 1e-11


def test_phi_bar_matches_psi_bar_minus_pole_term():
    z4 = zeta_even_exact(4).numeric()
    got = phi_bar(2, 1.0).value
    expect = psi_bar(2, 1.0).value - 2 * z4
    assert abs(got - expect) < 1e-14
    # numeric rendering of the two lemniscate values combined
    expect2 = (7 * math.pi ** 4 / 90 - 2 * math.pi * Z3) - math.pi ** 4 / 45
    assert abs(got - expect2) < 1e-11


# ------------------------------------------------- divisor series and D
def test_divisor_series_refuses_where_q2_rounds_to_one_at_once():
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match=r"q\^2 = 1: 200000 terms cannot certify") as exc:
        _divisor_series(3, 1, 1.0)
    assert exc.value.suggestion is not None
    assert time.perf_counter() - start < 0.1


def test_log_deriv_resums_double_sum():
    # D^{2t-2} S_t = 2^{2t-2} sum_{m,n} (n^{2t-2}/m) q^{2mn}, exact termwise
    # with D = q d/dq, D(q^{2m}) = 2m q^{2m}: 2^{2t-2} times the divisor
    # series of weight 1, the free-energy series
    t, b = 2, 0.9
    lhs = 2 ** (2 * t - 2) * _divisor_series(2 * t - 1, 1, math.exp(-2 * math.pi * b)).value
    direct = sum(
        (n ** (2 * t - 2) / m) * math.exp(-2 * math.pi * b * m * n)
        for m in range(1, 120)
        for n in range(1, 120)
    )
    assert abs(lhs - 2 ** (2 * t - 2) * direct) < 1e-13


@pytest.mark.parametrize("t", range(1, 7))
def test_expansion_majorants_hold(t):
    # _divisor_series certifies its truncation on sigma_k(m) m^-w <= 1.3 m^max(k-w+1, 0)
    # at every (k, w) the library passes: (2t-1, 1) in the free energy and
    # entropy, (2t-1, 2t-1) for S_t in verify, (2t-1, 0) for D^(2t-1) S_t in
    # diff_relation_constant, and (3, 3), (3, 2), (3, 1) in f3_epstein and z2_quartic
    k = 2 * t - 1
    sigma = _coefficients("sigma", k)
    for w in {0, 1, k} | ({2} if k == 3 else set()):
        worst = max(sigma(m) * m ** -w / (1.3 * m ** max(k - w + 1, 0)) for m in range(1, 10_001))
        assert worst <= 1.0, (k, w, worst)


# ------------------------------------------------------------ Weyl integral
def test_weyl_reproduces_phi_bar():
    for (t, x) in ((2, 1.0), (2, 0.7), (3, 1.2)):
        w = phi_bar_from_weyl(t, x)
        p = phi_bar(t, x)
        assert abs(w.value - p.value) < 1e-8


def test_weyl_semigroup_iterated_integration():
    # one more integration of W_2 equals W_3, with the closed-form tail of
    # the outer integral beyond the cutoff added
    t, x, h1, big = 2, 0.8, 2, 9.0
    w3 = weyl_integral(t, x, h1 + 1).value
    outer, _ = quad(
        lambda y: weyl_integral(t, y, h1).value, x, big, epsabs=1e-10, epsrel=1e-9, limit=200
    )
    eps0 = float(casimir_constant(t))
    beta = math.gamma(h1) * math.gamma(2 * t - h1) / math.gamma(2 * t)
    tail = -((-1) ** t) * eps0 * (beta / math.gamma(h1)) * big ** (h1 + 1 - 2 * t) / (
        2 * t - h1 - 1
    )
    assert abs(w3 - (outer + tail)) < 1e-7


def test_weyl_vanishes_at_infinity():
    # the boundary condition at x = infinity; the decay is the power law
    # of the subtracted series, O(1/x) for h = 2t-1
    w5 = abs(weyl_integral(2, 5.0, 3).value)
    w30 = abs(weyl_integral(2, 30.0, 3).value)
    assert w30 < w5 / 5
    assert abs(weyl_integral(2, 1.0e4, 3).value) < 1e-7


def test_weyl_domain_checks():
    with pytest.raises(DomainError):
        weyl_integral(2, -1.0, 3)
    with pytest.raises(DomainError):
        weyl_integral(2, 1.0, 4)  # h > 2t-1


# ----------------------------------------------------------------- moments
def test_moment_zeta3_reconstruction():
    got = moment(2, 2).value
    assert abs(got + Z3 / (2 * math.pi) ** 3) < 1e-10


def test_moment_example_t5_j2():
    assert abs(moment(5, 3).value + 1.0 / 60480.0) < 1e-10


@pytest.mark.parametrize("t", [4, 5, 6])
def test_moment_closed_forms_all_interior_j(t):
    for j in range(1, t):
        got = moment(t, 2 * j - 1).value
        exact = float(
            Fraction((-1) ** j) * bernoulli(2 * j) * bernoulli(2 * t - 2 * j) / (8 * j * (t - j))
        )
        assert abs(got - exact) < 1e-9


def test_moment_even_interior_vanish():
    # even moments strictly between the endpoints vanish (t=4 exercises a
    # case that is not killed structurally by the inversion folding)
    assert abs(moment(4, 2).value) < 1e-11
    assert abs(moment(4, 4).value) < 1e-11


def test_moment_endpoint_inversion_symmetry():
    for t in (2, 3, 4):
        assert abs(moment(t, 2 * t - 2).value - (-1) ** t * moment(t, 0).value) < 1e-11


def test_moment_domain():
    with pytest.raises(DomainError):
        moment(2, 5)


# ------------------------------------------------ termwise-solution identity
def test_phi_bar_weyl_route_matches_lambert_route_on_grid():
    # the normalized (2t-1)-fold Weyl integral of eps_sub equals
    # 4 pi S_t - 2 zeta(2t)/x: quadrature route vs q-series route
    z4 = zeta_even_exact(4).numeric()
    for x in (0.6, 0.9, 1.3, 2.0):
        w = phi_bar_from_weyl(2, x).value
        s = 4 * math.pi * lambert_S(2, x).value - 2 * z4 / x
        assert abs(w - s) < 1e-9

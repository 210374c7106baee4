"""Thermal layer: free energies, entropy, and the two F3 routes."""
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modzeta import thermal
from modzeta.errors import ConvergenceError, DomainError
from modzeta.thermal import (
    S3_SPEC,
    SINGLE_MODE,
    SpectrumSpec,
    entropy_partial,
    f3_epstein,
    f3_modesum,
    free_energy_partial,
    mode_sum_free_energy,
    thermal_zeta_free_energy,
)


# ----------------------------------------------------------- partial quantities
def test_free_energy_zero_temperature_limit():
    assert abs(free_energy_partial(2, 0.01).value.real - 1.0 / 240.0) < 1e-14


def test_entropy_is_xi_derivative_of_free_energy():
    for t in (2, 3):
        for xi in (0.7, 1.4):
            h = 1e-4
            fd = (
                free_energy_partial(t, xi + h).value.real
                - free_energy_partial(t, xi - h).value.real
            ) / (2 * h)
            assert abs(fd - entropy_partial(t, xi).value.real) < 1e-7


@pytest.mark.parametrize("t,xi", [(20, 0.5), (2, 0.05), (10, 0.25), (2, 1.5), (3, 0.9)])
def test_entropy_meets_the_oracle(t, xi):
    # s_t = -(1/2pi) sum_n n^{2t-2} (-log(1 - q^{2n})) - (1/xi) sum_n n^{2t-1} q^{2n}/(1 - q^{2n}):
    # the q-part of eps_t is read directly, not as eps_t less its constant -B_2t/(4t)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(xi)
        q2 = mpmath.exp(-2 * mpmath.pi / x)
        g = mpmath.fsum(n ** (2 * t - 2) * -mpmath.log1p(-q2 ** n) for n in range(1, 400))
        e = mpmath.fsum(n ** (2 * t - 1) * q2 ** n / (1 - q2 ** n) for n in range(1, 400))
        want = float(-g / (2 * mpmath.pi) - e / x)
    got = entropy_partial(t, xi)
    assert abs(got.value - want) <= got.tail_bound + 1e-12 * abs(want)


def test_entropy_third_law():
    assert abs(entropy_partial(2, 0.01).value.real) < 1e-30


def test_internal_energy_thermodynamic_identity():
    # eps_t = f_t - xi s_t (the free energy integrates the q-series back)
    from modzeta.qseries import eps

    for (t, xi) in ((2, 0.8), (3, 1.3)):
        f = free_energy_partial(t, xi).value.real
        s = entropy_partial(t, xi).value.real
        e = eps(t, 1.0 / xi).value.real
        assert abs((f - xi * s) - e) < 1e-13


# ------------------------------------------------------------------- F3 routes
def test_f3_route_equality_on_grid():
    for xi in (0.3, 0.5, 0.8, 1.0, 1.7, 3.0, 5.0):
        a = f3_epstein(xi).value.real
        b = f3_modesum(xi).value.real
        assert abs(a - b) < 1e-10


def test_f3_zero_temperature_limits():
    assert abs(f3_modesum(0.01).value.real - 1.0 / 240.0) < 1e-10
    assert abs(f3_epstein(0.02).value.real - 1.0 / 240.0) < 1e-10


def test_f3_high_temperature_asymptote():
    from modzeta.exactnum import zeta_odd_numeric

    xi = 50.0
    got = f3_epstein(xi).value.real
    pred = -(xi ** 4) / 720.0 + xi * zeta_odd_numeric(3) / (8 * math.pi ** 3)
    assert abs(got - pred) < 0.01 * abs(got)


# ------------------------------------------------------------------ mode sums
def test_single_oscillator_closed_form():
    beta = 3.0
    exact = 0.5 + math.log1p(-math.exp(-beta)) / beta
    assert abs(mode_sum_free_energy(SINGLE_MODE, beta).value.real - exact) < 1e-12


def test_s3_spectrum_casimir_term():
    # zeta_M(-1/2) = zeta(-3) = 1/120, so F(beta -> inf) -> 1/240
    from fractions import Fraction

    assert S3_SPEC.zeta_m_minus_half() == Fraction(1, 120)
    assert abs(mode_sum_free_energy(S3_SPEC, 60.0).value.real - 1.0 / 240.0) < 1e-14


def test_matched_variable_identity():
    # mode_sum(S3, beta = 2 pi / xi) = f3_modesum(xi)
    for xi in (0.5, 1.0, 2.0, 4.0):
        ms = mode_sum_free_energy(S3_SPEC, 2 * math.pi / xi).value.real
        assert abs(ms - f3_modesum(xi).value.real) < 1e-10


def test_table_spectrum_sums_only_its_entries():
    # one mode at n = 1e9: a table is summed over its entries, not over every n up to it
    far = SpectrumSpec("far", table=((10 ** 9, 1),))
    for route in (mode_sum_free_energy, thermal_zeta_free_energy):
        got = route(far, 1.0)
        assert got.value == 5e8
        assert got.terms == 10 ** 9


def test_thermal_zeta_route():
    beta = 3.0
    a = thermal_zeta_free_energy(SINGLE_MODE, beta).value.real
    b = mode_sum_free_energy(SINGLE_MODE, beta).value.real
    assert abs(a - b) < 1e-8
    a = thermal_zeta_free_energy(S3_SPEC, 2 * math.pi).value.real
    b = mode_sum_free_energy(S3_SPEC, 2 * math.pi).value.real
    assert abs(a - b) < 1e-8


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
    st.floats(min_value=0.5, max_value=6.0),
)
def test_mode_sum_negative_and_increasing_in_beta(coeffs, beta):
    # the log part is negative and increases toward 0 with beta
    if not any(coeffs):
        return
    spec = SpectrumSpec("random", tuple(coeffs))
    casimir = 0.5 * float(spec.zeta_m_minus_half())
    f1 = mode_sum_free_energy(spec, beta).value.real - casimir
    f2 = mode_sum_free_energy(spec, beta + 0.5).value.real - casimir
    assert f1 < 0
    assert f2 > f1


def test_spectrum_spec_validation_and_json():
    with pytest.raises(DomainError):
        SpectrumSpec("bad", (0, -1.0))  # negative degeneracies
    with pytest.raises(DomainError):
        SpectrumSpec("bad", (1,), table=((1, 1.0),))
    back = SpectrumSpec.from_json({"label": "s3-conformal-scalar", "omega": "n", "degeneracy_coeffs": [0, 0, 1]})
    assert back == S3_SPEC and back.degeneracy(7) == 49.0
    tab = SpectrumSpec.from_json({"label": "single-mode", "omega": "n", "table": [[1, 1.0]]})
    assert tab == SINGLE_MODE and tab.degeneracy(1) == 1.0 and tab.degeneracy(2) == 0.0


def test_spectrum_spec_replace_checks_and_rebuilds_its_table():
    with pytest.raises(DomainError):
        S3_SPEC._replace(degeneracy_coeffs=(0, -1.0))
    with pytest.raises(DomainError):
        SINGLE_MODE._replace(degeneracy_coeffs=(1,))  # coefficients and a table
    two = SINGLE_MODE._replace(table=((2, 3.0),))
    assert two.degeneracy(2) == 3.0 and two.degeneracy(1) == 0.0
    assert two._degeneracies == {2: 3.0} and SINGLE_MODE._degeneracies == {1: 1.0}
    # a cache, not data: out of equality, the hash and the repr
    assert two == ("single-mode", (), ((2, 3.0),)) and hash(two) == hash(tuple(two))
    assert repr(two) == "SpectrumSpec(label='single-mode', degeneracy_coeffs=(), table=((2, 3.0),))"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"table": ((1000, -1.0),)},  # past any sampled n
        {"degeneracy_coeffs": (0, 0, 1, 0, 0, 0, -1e-15)},  # negative only for n >= 5624
        {"degeneracy_coeffs": (100, -30, 1)},  # negative for 4 <= n <= 26
        {"degeneracy_coeffs": (0, float("nan"))},
        # (n - 1000.5)^2 - 3/10: negative on (999.95, 1001.05), at n = 1000 and 1001
        {"degeneracy_coeffs": (Fraction(2001, 2) ** 2 - Fraction(3, 10), -2001, 1)},
        # the same at n = 2^60 and 2^60 + 1
        {"degeneracy_coeffs": (Fraction(2 ** 61 + 1, 2) ** 2 - Fraction(3, 10), -(2 ** 61 + 1), 1)},
    ],
)
def test_spectrum_spec_refuses_negative_degeneracies_anywhere(kwargs):
    with pytest.raises(DomainError):
        SpectrumSpec("bad", **kwargs)


def test_spectrum_spec_accepts_polynomials_nonnegative_on_the_integers():
    # (n - 3)(n - 4), (n - 2)(n - 3), (n - 7/2)^2, (n - 3)^2 and
    # (n - 1000.5)^2 - 1/5 and (n - 2^60 - 1/2)^2 - 1/5 touch or dip below 0
    # only between integers
    near = (Fraction(2001, 2) ** 2 - Fraction(1, 5), -2001, 1)
    far = (Fraction(2 ** 61 + 1, 2) ** 2 - Fraction(1, 5), -(2 ** 61 + 1), 1)
    for coeffs in ((12, -7, 1), (6, -5, 1), (12.25, -7, 1), (9, -6, 1), near, far, (0, 0, 1)):
        SpectrumSpec("ok", coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [
        # a root near 1e608 keeps Fujiwara's bound, like Cauchy's, near 2^2021; the
        # search splits in bit length, lower half first, and meets n = 2 early
        (1e308, -1e308, 1e308, -1e308, 1e308, -1e308, 1e-300),
        # Cauchy's bound 1e300 against Fujiwara's 2 (1e300)^(1/3)
        (0, 0, 1, -1e300, 0, 0, 1),
    ],
)
def test_sign_test_on_coefficients_that_span_the_floats_is_fast(coeffs):
    # both are negative at n = 2; with Cauchy's bound and bisection in value
    # the sign test took 2.1 s and 0.12 s on a 2-vCPU VM
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        assert thermal._negative_somewhere(coeffs)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1
    with pytest.raises(DomainError):
        SpectrumSpec("bad", coeffs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=7))
def test_negative_somewhere_matches_a_search_of_every_integer_below_the_root_bound(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return
    # Cauchy: every root lies below 1 + max |c_k / c_d|, past which the sign is c_d's
    bound = 1 + max(abs(c) for c in coeffs) // abs(coeffs[-1]) + 1
    brute = any(sum(c * n ** k for k, c in enumerate(coeffs)) < 0 for n in range(1, bound + 1))
    assert thermal._negative_somewhere(coeffs) == brute


def test_large_table_spectrum_builds_fast():
    table = tuple((n, 1.0) for n in range(1, 20_001))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        spec = SpectrumSpec("big", table=table)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05
    assert spec.degeneracy(20_000) == 1.0 and spec.degeneracy(20_001) == 0.0


# ------------------------------------------------------------- certificates
@pytest.mark.parametrize(
    "fn,args,value",
    [
        (free_energy_partial, (2, 1.0), 0.0038669465907372105),
        (entropy_partial, (2, 2.0), -0.03962372000005982),
        (f3_modesum, (1.0,), 0.0038669465907372105),
        (f3_epstein, (1.0,), 0.0038669465907372087),
    ],
)
def test_partial_quantities_report_their_series_certificates(fn, args, value):
    sv = fn(*args)
    assert sv.value == value
    assert sv.terms > 0
    assert 0.0 < sv.tail_bound <= 1e-15


@pytest.mark.parametrize(
    "call",
    [
        lambda: free_energy_partial(2, 1e5),
        lambda: f3_epstein(1e-5),
        lambda: mode_sum_free_energy(S3_SPEC, 1e-9),
        lambda: mode_sum_free_energy(S3_SPEC, 1e-300),  # would start at mode 1e300
        lambda: thermal_zeta_free_energy(S3_SPEC, 5e-324),
        lambda: mode_sum_free_energy(SINGLE_MODE, 5e-324),  # log(beta) / beta overflows
    ],
)
def test_thermal_non_convergence_is_a_convergence_error(call):
    with pytest.raises(ConvergenceError) as exc:
        call()
    assert exc.value.suggestion is not None


def test_table_mode_sum_where_exp_rounds_to_one():
    # e^{-beta} = 1.0 in floats: F = 1/2 + log(1 - e^{-beta}) / beta ~ log(beta) / beta
    beta = 1e-300
    assert mode_sum_free_energy(SINGLE_MODE, beta).value == pytest.approx(math.log(beta) / beta, rel=1e-15)


@pytest.mark.parametrize("tol", [1e-15, 1e-12])
@pytest.mark.parametrize(
    "fn,args",
    [
        (free_energy_partial, (2, 15.0)),
        (free_energy_partial, (3, 9.0)),
        (free_energy_partial, (2, 0.4)),
        (entropy_partial, (3, 0.6)),
        (entropy_partial, (2, 0.3)),
        (entropy_partial, (2, 8.0)),
        (f3_epstein, (3.0,)),
        (f3_epstein, (0.7,)),
        (f3_modesum, (10.0,)),
        (f3_modesum, (0.5,)),
    ],
)
def test_partial_tails_stay_within_tol(fn, args, tol):
    # the inner series' tolerances account for the prefactors in front of them
    sv = fn(*args, tol=tol)
    assert sv.tail_bound <= tol


@pytest.mark.parametrize(
    "spec,beta,mode_sum,thermal_zeta",
    [
        (S3_SPEC, 1.0, (-2.1341980103638787, 40), (-2.134198010363547, 36)),
        (S3_SPEC, 3.0, (-0.01657126615560636, 12), (-0.01657126615549535, 11)),
        (S3_SPEC, 2 * math.pi, (0.0038669465907374533, 5), (0.003866946590738217, 5)),
        (S3_SPEC, 8.0, (0.0041246704930709465, 4), (0.0041246704930998366, 3)),
        (SINGLE_MODE, 3.0, (0.48297693968576616, 1), (0.48297693968583905, 1)),
    ],
)
def test_mode_sum_values_and_terms_are_pinned(spec, beta, mode_sum, thermal_zeta):
    # at beta >= 1 the sum's target min(tol, tol beta) is tol: the same stop, the same bits
    for route, (value, terms) in ((mode_sum_free_energy, mode_sum), (thermal_zeta_free_energy, thermal_zeta)):
        got = route(spec, beta)
        assert (got.value, got.terms) == (value, terms)


POLYNOMIAL_SPECTRA = [S3_SPEC, SpectrumSpec("linear", (0, 1)), SpectrumSpec("sextic", (0, 0, 0, 0, 0, 0, 1))]


@pytest.mark.parametrize("beta", [1.0, 2.5, 7.0])
@pytest.mark.parametrize("spec", POLYNOMIAL_SPECTRA, ids=lambda spec: spec.label)
def test_mode_sum_tails_are_their_own(spec, beta):
    # the certificate is the majorant at the stop, not the requested tol echoed back;
    # thermal-zeta's also carries its per-mode series' tails
    for tol in (1e-14, 1e-8):
        assert 0.0 < mode_sum_free_energy(spec, beta, tol).tail_bound <= tol
        assert 0.0 < thermal_zeta_free_energy(spec, beta, tol).tail_bound <= tol
    assert mode_sum_free_energy(SINGLE_MODE, beta).tail_bound == 0.0


@pytest.mark.parametrize("beta", [1.0, 2.5, 7.0])
@pytest.mark.parametrize("spec", [*POLYNOMIAL_SPECTRA, SINGLE_MODE], ids=lambda spec: spec.label)
@pytest.mark.parametrize("route", [mode_sum_free_energy, thermal_zeta_free_energy])
def test_mode_sum_tails_bound_a_tighter_run(route, spec, beta):
    # a real bound on the truncation error also bounds the gap to a far tighter run
    loose = route(spec, beta, 1e-6)
    assert abs(loose.value - route(spec, beta, 1e-14).value) <= loose.tail_bound


@pytest.mark.parametrize("beta", [1.01e-6, 4e-5, 6e-5])
@pytest.mark.parametrize("spec", POLYNOMIAL_SPECTRA[:2], ids=lambda spec: spec.label)
def test_mode_sum_refuses_past_its_budget_before_summing(spec, beta):
    # the tail majorant at the millionth mode decides: no term is evaluated
    def term(n, d):
        raise AssertionError(f"mode {n} summed")

    with pytest.raises(ConvergenceError, match="1000000-mode budget"):
        thermal._mode_sum(spec, beta, 1e-14, term, "mode sum")


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
@pytest.mark.parametrize(
    "spec,beta", [(SINGLE_MODE, 3.0), (S3_SPEC, 2 * math.pi), (S3_SPEC, 1.0), (S3_SPEC, 0.3)]
)
def test_thermal_zeta_free_energy_meets_its_tol(spec, beta, tol):
    # each mode's series gets a 6 / (pi n)^2 share of tol / 2, the mode sum the other half
    got = thermal_zeta_free_energy(spec, beta, tol)
    assert got.tail_bound <= tol
    assert abs(got.value - mode_sum_free_energy(spec, beta).value) <= tol


@pytest.mark.parametrize("doc", [{"label": "x"}, {"omega": "n"}, [1, 2], "nope"])
def test_spectrum_from_json_rejects_non_spectra(doc):
    with pytest.raises(DomainError):
        SpectrumSpec.from_json(doc)

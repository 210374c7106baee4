"""Exact scalars, Bernoulli numbers and the numeric zeta/gamma kernels."""
import cmath
import importlib
import math
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modzeta
from modzeta import exactnum
from modzeta.errors import ConvergenceError, DomainError, SingularityError
from modzeta.exactnum import (
    SymScalar,
    _coefficients,
    _sieve,
    alternating_zeta,
    bernoulli,
    divisor_sigma,
    gamma_numeric,
    sigma_range,
    zeta_even_exact,
    zeta_negative_exact,
    zeta_numeric,
    zeta_odd_numeric,
)


# ---------------------------------------------------------------- bernoulli
def test_bernoulli_base_and_recurrence_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(3) == 0
    # oracle: the binomial recurrence, evaluated independently here
    def recurrence(n):
        b = [Fraction(1)]
        for m in range(1, n + 1):
            s = sum(Fraction(math.comb(m + 1, k)) * b[k] for k in range(m))
            b.append(-s / (m + 1))
        return b[n]

    assert bernoulli(4) == recurrence(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)
    for n in range(0, 20):
        assert bernoulli(n) == recurrence(n)


def test_bernoulli_refuses_past_its_budget_before_building():
    # B_620 is the most the CLI needs (exact period polynomials up to t = 310)
    from modzeta import periodpoly

    assert exactnum._BERNOULLI_N_MAX == 2 * periodpoly._T_MAX
    size = len(exactnum._BERNOULLI)
    for n in (621, 1600, 10**9):
        with pytest.raises(ConvergenceError, match=f"B_{n} is past B_620") as err:
            bernoulli(n)
        assert err.value.suggestion == "n <= 620"
    assert len(exactnum._BERNOULLI) == size
    # the last one built (about 2 s from an empty table); von Staudt-Clausen
    # gives its denominator 2 * 3 * 5 * 11 * 311, the primes p with (p - 1) | 620
    b620 = bernoulli(620)
    primes = [p for p in range(2, 622) if 620 % (p - 1) == 0 and all(p % d for d in range(2, p))]
    assert b620 < 0 and b620.denominator == math.prod(primes)


def test_bernoulli_table_grows_once_and_meets_von_staudt_clausen():
    top = bernoulli(240)
    size = len(exactnum._BERNOULLI)
    assert size >= 241
    for k in range(1, 121):
        b = bernoulli(2 * k)
        assert (b > 0) == (k % 2 == 1)
        # von Staudt-Clausen: the denominator of B_2k is the product of the
        # primes p with (p - 1) | 2k
        primes = [p for p in range(2, 2 * k + 2) if (2 * k) % (p - 1) == 0 and all(p % d for d in range(2, p))]
        assert b.denominator == math.prod(primes)
    # one table, extended on demand: smaller requests build nothing
    assert bernoulli(240) == top and len(exactnum._BERNOULLI) == size


def test_bernoulli_rejects_negative():
    with pytest.raises(DomainError):
        bernoulli(-1)


@pytest.mark.parametrize(
    "fn,arg",
    [(bernoulli, 4.0), (bernoulli, math.nan), (bernoulli, 700.5), (zeta_even_exact, 4.0), (zeta_negative_exact, -3.0)],
)
def test_exact_functions_refuse_a_non_integer_argument(fn, arg):
    size = len(exactnum._BERNOULLI)
    with pytest.raises(DomainError, match="integer"):
        fn(arg)
    assert len(exactnum._BERNOULLI) == size


def _in_a_fresh_process(code: str) -> str:
    # the shared tables are process-wide: a race needs them empty
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_threads_growing_the_bernoulli_table_agree():
    code = (
        "import threading\n"
        "from modzeta import exactnum\n"
        "got = []\n"
        "threads = [threading.Thread(target=lambda: got.append(exactnum.bernoulli(400))) for _ in range(4)]\n"
        "for th in threads:\n"
        "    th.start()\n"
        "for th in threads:\n"
        "    th.join(timeout=60)\n"
        "assert not any(th.is_alive() for th in threads)\n"
        "print(len(exactnum._BERNOULLI), *got)\n"
    )
    size, *got = _in_a_fresh_process(code).split()
    assert size == "401" and got == [str(bernoulli(400))] * 4


# ------------------------------------------------------------- exact zetas
def test_zeta_even_exact_small_values():
    assert zeta_even_exact(2).terms == ((2, 0, 0, Fraction(1, 6)),)
    assert zeta_even_exact(4).terms == ((4, 0, 0, Fraction(1, 90)),)
    assert zeta_even_exact(6).terms == ((6, 0, 0, Fraction(1, 945)),)
    with pytest.raises(DomainError):
        zeta_even_exact(3)
    with pytest.raises(DomainError):
        zeta_even_exact(0)


def test_zeta_negative_exact_values():
    # -B_4/4 with B_4 = -1/30
    assert zeta_negative_exact(-3) == Fraction(1, 120)
    assert zeta_negative_exact(0) == Fraction(-1, 2)
    # -B_6/6 with B_6 = 1/42
    assert zeta_negative_exact(-5) == Fraction(-1, 252)
    assert zeta_negative_exact(-1) == Fraction(-1, 12)
    for bad in (-2, -4, 1, 3):
        with pytest.raises(DomainError):
            zeta_negative_exact(bad)


# ------------------------------------------------------------ numeric zeta
def test_zeta_numeric_matches_exact_evens_up_to_40():
    for k in range(2, 42, 2):
        exact = zeta_even_exact(k).numeric()
        got = zeta_numeric(k)
        assert abs(got - exact) <= 1e-12 * abs(exact)
        assert abs(got.imag) < 1e-13 * abs(exact)


def test_zeta_numeric_matches_exact_negatives():
    for n in (-3, -5, -7, -9, 0):
        exact = float(zeta_negative_exact(n))
        assert abs(zeta_numeric(n) - exact) <= 1e-13 * max(1.0, abs(exact))


def test_zeta3_against_alternating_series_oracle():
    # independent oracle: eta(3)/(1 - 2^{-2}) via the accelerated
    # alternating series (zeta_numeric itself is Euler-Maclaurin)
    oracle = alternating_zeta(3.0) / (1.0 - 2.0 ** -2)
    assert abs(zeta_numeric(3).real - oracle) < 1e-12
    assert abs(zeta_odd_numeric(3) - oracle) < 1e-15


def test_zeta_pole_raises():
    with pytest.raises(SingularityError):
        zeta_numeric(1.0)


def test_zeta_functional_equation_in_critical_strip():
    rng = random.Random(20240817)
    for _ in range(25):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-30, 30))
        lhs = zeta_numeric(s)
        rhs = (
            2.0 ** s
            * cmath.pi ** (s - 1)
            * cmath.sin(cmath.pi * s / 2)
            * gamma_numeric(1 - s)
            * zeta_numeric(1 - s)
        )
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_zeta_numeric_far_field_of_strip():
    # spot checks at the corners of the documented strip
    for s in (30.0, -10 + 0.3j, 2 + 50j, 0.5 - 50j):
        val = zeta_numeric(s)
        assert math.isfinite(abs(val))
    # direct Dirichlet sum oracle at large Re s
    direct = sum(n ** -12.5 for n in range(1, 200))
    assert abs(zeta_numeric(12.5).real - direct) < 1e-13


# ----------------------------------------------------------- numeric gamma
def test_gamma_basic_values():
    assert abs(gamma_numeric(5) - 24.0) < 24 * 1e-13
    # reflection oracle for Gamma(1/2): Gamma(1/2)^2 = pi / sin(pi/2)
    g_half = gamma_numeric(0.5)
    assert abs(g_half * g_half - math.pi) < 1e-12
    with pytest.raises(SingularityError):
        gamma_numeric(0)
    with pytest.raises(SingularityError):
        gamma_numeric(-3.0)


def test_gamma_recurrence_and_reflection_random_points():
    rng = random.Random(99173)
    for _ in range(100):
        s = complex(rng.uniform(-8, 8), rng.uniform(-20, 20))
        if abs(s.imag) < 0.1:
            s += 0.5j
        g = gamma_numeric(s)
        assert abs(gamma_numeric(s + 1) - s * g) < 1e-11 * abs(s * g)
        refl = gamma_numeric(s) * gamma_numeric(1 - s) * cmath.sin(cmath.pi * s)
        assert abs(refl - cmath.pi) < 1e-11 * max(1.0, abs(refl))


# ------------------------------------------------------------ divisor sums
def test_divisor_sigma_values():
    assert divisor_sigma(3, 6) == 252  # 1 + 8 + 27 + 216
    assert divisor_sigma(0, 12) == 6
    assert divisor_sigma(1, 97) == 98
    assert divisor_sigma(5, 1) == 1
    with pytest.raises(DomainError):
        divisor_sigma(3, 0)


def test_sigma_range_matches_pointwise():
    r = sigma_range(3, 200)
    for n in (1, 2, 17, 36, 128, 200):
        assert r[n] == divisor_sigma(3, n)


@pytest.mark.parametrize("k", [0, 1, 3, 5, 7])
def test_sieve_cache_matches_divisor_sigma_out_of_order(k):
    rng = random.Random(k)
    requests = [rng.randint(1, 3000) for _ in range(40)] + [3000, 1, 1500]
    sigma = _coefficients("sigma", k)
    for n in requests:
        assert _sieve("sigma", k, n)[n] == divisor_sigma(k, n)
        assert sigma(n) == divisor_sigma(k, n)
    table = _sieve("sigma", k, 3000)
    assert all(table[n] == divisor_sigma(k, n) for n in range(1, 3001))


def test_sieve_first_build_covers_request_then_doubles(monkeypatch):
    built = []
    real = exactnum._sigma_extend

    def recording(table, k, n_max):
        built.append((len(table) - 1, n_max))
        return real(table, k, n_max)

    monkeypatch.setattr(exactnum, "_sigma_extend", recording)
    monkeypatch.setattr(exactnum, "_SIEVES", {})
    for n in (10, 5, 11, 100, 30, 201):
        assert _sieve("sigma", 2, n)[n] == divisor_sigma(2, n)
    # each doubling extends the table from its old end, never from index 1
    assert built == [(0, 10), (10, 20), (20, 100), (100, 201)]


@pytest.mark.parametrize("k", [0, 3, 5, 2.6, -1.4])
def test_extended_sigma_table_is_a_one_shot_build(k, monkeypatch):
    # the same entries, bit for bit: a non-integer k must still add each
    # entry's divisor powers in increasing order
    table = [0]
    for n_max in (1, 7, 20, 64, 65, 1000):
        assert exactnum._sigma_extend(table, k, n_max) is table
    assert table == sigma_range(k, 1000)
    monkeypatch.setattr(exactnum, "_SIEVES", {})
    monkeypatch.setattr(exactnum, "_LAST_NON_INTEGER", {})
    for n in (3, 10, 150, 700):
        grown = _sieve("sigma", k, n)
    assert grown == sigma_range(k, len(grown) - 1)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_rp_table_grown_by_doublings_is_a_one_shot_build(p, monkeypatch):
    n_max = 20_000
    monkeypatch.setattr(exactnum, "_SIEVES", {})
    for n in (1, 2, 3, 5, 100, 101, 150, 4097, n_max):  # grown to 2, 4, 8, 100, 200, 4097, n_max
        grown = _sieve("rp", p, n)
    one_shot = exactnum._rp_extend([1], p, n_max)
    # oracle: one coordinate at a time, each square j^2 adding a shifted slice
    counts = np.zeros(n_max + 1, dtype=np.int64)
    counts[0] = 1
    for _ in range(p):
        new = counts.copy()
        for j in range(1, math.isqrt(n_max) + 1):
            new[j * j :] += 2 * counts[: n_max + 1 - j * j]
        counts = new
    assert grown[: n_max + 1] == one_shot == counts.tolist()


def test_a_sigma_entry_is_final_once_a_reader_sees_it():
    # one thread grows sigma_5 from 200,000 to 400,000 while another waits,
    # with no lock, for index 300,000 to appear and reads it at once
    code = (
        "import threading\n"
        "from modzeta import exactnum\n"
        "table = exactnum._sieve('sigma', 5, 200_000)\n"
        "grower = threading.Thread(target=exactnum._sieve, args=('sigma', 5, 400_000))\n"
        "grower.start()\n"
        "while len(table) <= 300_000 and grower.is_alive():\n"
        "    pass\n"
        "print(table[300_000])\n"
        "grower.join(timeout=60)\n"
        "assert not grower.is_alive()\n"
    )
    want = 2_519_515_920_168_077_442_005_299_752
    assert int(_in_a_fresh_process(code)) == want == divisor_sigma(5, 300_000)


def test_concurrent_rp_growers_build_the_one_shot_table():
    code = (
        "import threading\n"
        "from modzeta import exactnum\n"
        "table = exactnum._sieve('rp', 3, 20_000)\n"
        "sizes = (50_000, 60_000, 70_000, 80_000)\n"
        "threads = [threading.Thread(target=exactnum._sieve, args=('rp', 3, n)) for n in sizes]\n"
        "for th in threads:\n"
        "    th.start()\n"
        "for th in threads:\n"
        "    th.join(timeout=60)\n"
        "assert not any(th.is_alive() for th in threads)\n"
        "assert exactnum._SIEVES[('rp', 3)] is table and len(table) > 80_000\n"
        "assert table == exactnum._rp_extend([1], 3, len(table) - 1)\n"
    )
    _in_a_fresh_process(code)


@pytest.mark.parametrize("k", [2.6, -1.4, 0.37, 5.0000001])
def test_non_integer_sigma_table_is_the_direct_divisor_sum(k):
    sigma = _coefficients("sigma", k)
    for n in range(1, 301):
        assert sigma(n) == sum(d ** k for d in range(1, n + 1) if n % d == 0)
    # only the last non-integer order is kept, and never in the integer cache
    assert list(exactnum._LAST_NON_INTEGER) == [("sigma", k)]
    assert all(isinstance(order, int) for _, order in exactnum._SIEVES)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=9999),
    st.integers(min_value=1, max_value=9999),
    st.integers(min_value=0, max_value=4),
)
def test_sigma_multiplicative_on_coprime_pairs(m, n, k):
    if math.gcd(m, n) != 1:
        return
    assert divisor_sigma(k, m * n) == divisor_sigma(k, m) * divisor_sigma(k, n)


# --------------------------------------------------------------- SymScalar
def test_symscalar_algebra_and_trimming():
    a = SymScalar.pi_term(Fraction(1, 6), 2)            # zeta(2)
    b = SymScalar.pi_term(2, 1, 3)                      # 2 pi zeta(3)
    c = a + b - a
    assert c == b
    assert (a - a).is_zero()
    assert (a * 3).terms == ((2, 0, 0, Fraction(1, 2)),)
    prod = a * a
    assert prod.terms == ((4, 0, 0, Fraction(1, 36)),)


def test_symscalar_rejects_zeta_zeta_product():
    z3 = SymScalar.pi_term(1, 0, 3)
    with pytest.raises(DomainError):
        z3 * z3


def test_symscalar_numeric_and_str():
    val = SymScalar.pi_term(Fraction(7, 90), 4) - SymScalar.pi_term(2, 1, 3)
    expect = 7 * math.pi ** 4 / 90 - 2 * math.pi * zeta_odd_numeric(3)
    assert abs(val.numeric() - expect) < 1e-14 * abs(expect)
    assert "pi^4" in str(val) and "zeta(3)" in str(val)
    assert str(SymScalar()) == "0"


def test_symscalar_gaussian_algebra():
    i = SymScalar({(0, 0, 1): 1})
    z3 = SymScalar.pi_term(1, 0, 3)
    assert i * i == -1
    assert (i * z3) * i == -z3
    assert (i * z3).terms == ((0, 3, 1, Fraction(1)),)
    # division by a nonzero Gaussian rational inverts multiplication
    g = 3 + 4 * i
    x = SymScalar.pi_term(Fraction(2, 5), 4) + i * z3
    assert (x * g) / g == x == x / g * g
    assert x / Fraction(1, 2) == 2 * x
    with pytest.raises(ZeroDivisionError):
        x / (i - i)
    with pytest.raises(DomainError):
        x / (1 + i * z3)
    # the one basis rule rejects zeta(odd)^2 with or without an i factor
    with pytest.raises(DomainError, match="two zeta"):
        (i * z3) * z3
    with pytest.raises(DomainError):
        SymScalar({(0, 0, 2): 1})


def test_symscalar_numeric_is_float_without_i_and_complex_with_it():
    i = SymScalar({(0, 0, 1): 1})
    real = SymScalar.pi_term(Fraction(7, 90), 4) - SymScalar.pi_term(2, 1, 3)
    v = real.numeric()
    assert type(v) is float
    w = (real + i * SymScalar.pi_term(1, 1)).numeric()
    assert type(w) is complex and w == complex(v, math.pi)
    assert (i * real).numeric() == complex(0.0, v)
    assert str(real) == "(-2)*pi*zeta(3) + (7/90)*pi^4"
    assert str(i * real) == "(-2)*i*pi*zeta(3) + (7/90)*i*pi^4"
    assert (str(i), str(-i), str(SymScalar.rational(1))) == ("i", "(-1)*i", "1")


def test_symscalar_numeric_overflow_is_a_convergence_error():
    assert SymScalar.pi_term(1, 600).numeric() == math.pi ** 600
    with pytest.raises(ConvergenceError, match="overflows") as exc:
        SymScalar.pi_term(1, 700).numeric()
    assert exc.value.suggestion == "pi power < 700"


def test_zeta_odd_numeric_past_the_float_range_of_n_to_the_m():
    # 50^m overflows from m = 183 on; there zeta(m) = 1 + 2^-m + ... rounds to 1
    assert zeta_odd_numeric(181) == 1.0
    assert zeta_odd_numeric(183) == zeta_odd_numeric(639) == 1.0


def test_symscalar_rational_roundtrip():
    # a rational is the one (0, 0, 0) term; only Gaussian rationals divide
    q = SymScalar.rational(Fraction(-5, 7))
    assert q.terms == ((0, 0, 0, Fraction(-5, 7)),)
    assert zeta_even_exact(2).terms[0][:3] != (0, 0, 0)
    assert zeta_even_exact(2) / q == SymScalar.pi_term(Fraction(-7, 30), 2)
    with pytest.raises(DomainError):
        q / zeta_even_exact(2)


# ------------------------------------------------------------------ records
def _records() -> list:
    """One instance of each of the library's records."""
    from modzeta import cli, dirichlet, epstein, periodpoly, qseries, thermal, verify

    return [
        qseries.SeriesValue(1.0, 2, 0.1),
        cli.QUANTITIES["eps"],
        epstein.BinaryForm(1, 0, 1),
        dirichlet.eisenstein_datum(2),
        dirichlet.PoleResidueResult(4.0, 0.5, 0.5, None, 0.0),
        thermal.SINGLE_MODE,
        periodpoly.T,
        periodpoly.ESResult(True, False),
        periodpoly.pbar(2),
        verify.CheckResult("suite", "name", 0.0, 1e-12),
    ]


def test_every_namedtuple_of_the_library_is_a_listed_record():
    found = set()
    for info in pkgutil.iter_modules(modzeta.__path__):
        module = importlib.import_module(f"modzeta.{info.name}")
        found |= {
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
        }
    assert found == {type(r) for r in _records()}


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_refuse_tuple_arithmetic_and_replace_through_the_constructor(record):
    # a tuple would concatenate or repeat; a record is not a number to add
    for op in (lambda r: r + r, lambda r: r + (1,), lambda r: 2 * r, lambda r: r * 2):
        with pytest.raises(TypeError):
            op(record)
    seen = []

    class Probe(type(record)):
        def __new__(cls, *args, **kwargs):
            seen.append(args)
            return super().__new__(cls, *args, **kwargs)

    probe = Probe(*record)
    replaced = probe._replace()
    assert type(replaced) is Probe and replaced == record
    assert seen == [tuple(record)] * 2  # the checks and fresh caches of __new__ run again

"""Paired Dirichlet series: modular relation, massive representation, residues."""
import ast
import math
import subprocess
import sys
import threading
from array import array

import pytest

import modzeta.dirichlet as dmod
from modzeta import exactnum
from modzeta.errors import ConvergenceError, DomainError, SingularityError
from modzeta.exactnum import gamma_numeric, zeta_numeric
from modzeta.dirichlet import (
    berndt_R,
    berndt_phi,
    diagonal_epstein_datum,
    eisenstein_datum,
    heat_kernel,
    koshliakov_residue_closed_form,
    modular_relation_gap,
    phi_direct,
    pole_residue,
    residual_B,
    theta_datum,
)


# -------------------------------------------------- Hurwitz-zeta test oracle
def _hurwitz(s: float, a: float) -> float:
    # Euler-Maclaurin for zeta(s, a), s > 1, a > 0 (test-local oracle)
    from modzeta.exactnum import bernoulli

    n_terms, m_corr = 30, 12
    acc = sum((a + n) ** -s for n in range(n_terms))
    base = a + n_terms
    acc += base ** (1 - s) / (s - 1) + 0.5 * base ** -s
    rising = s
    bpow = base ** (-s - 1)
    for k in range(1, m_corr + 1):
        acc += float(bernoulli(2 * k) / math.factorial(2 * k)) * rising * bpow
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        bpow /= base * base
    return acc


def _sigma_shifted_sum(k: int, s: float, c: float, cut: int = 48, j_max: int = 26) -> float:
    """sum_n sigma_k(n) (n + c)^{-s} by the divisor decomposition
    sum_d d^{k-s} zeta_H(s, 1 + c/d), with the d > cut part expanded
    binomially in (c/d) against Riemann zeta values."""
    total = sum(d ** (k - s) * _hurwitz(s, 1.0 + c / d) for d in range(1, cut + 1))
    binom = 1.0
    for j in range(j_max):
        if j > 0:
            binom *= -(s + j - 1) / j
        zs = zeta_numeric(s + j).real
        rest = zeta_numeric(s + j - k).real - sum(
            d ** (k - s - j) for d in range(1, cut + 1)
        )
        total += binom * c ** j * zs * rest
    return total


# ----------------------------------------------------------------- direct sums
def _sigma_series(k: int, z: float, tol: float) -> float:
    """sum sigma_k(n) n^{-z} over n <= N, with N where the tail is below tol:
    sigma_k(n) <= c n^p with (c, p) = (zeta(2) < 1.65, k) for k >= 2, and
    (2, 3/2) for k = 1 (sigma_1(n) <= n (1 + ln n) <= 2 n^{3/2}), so the
    terms past N sum to at most c N^{1+p-z} / (z - p - 1)."""
    c, p = (1.65, k) if k >= 2 else (2.0, 1.5)
    e = z - p - 1
    cut = math.ceil((c / (e * tol)) ** (1 / e))
    sigma = exactnum._coefficients("sigma", k)
    return math.fsum(sigma(n) * n ** -z for n in range(1, cut + 1))


def test_phi_direct_eisenstein_series_identity():
    # sum sigma_3(n) n^{-6} = zeta(6) zeta(3), summed directly, and through
    # phi_direct on the weight-4 datum, whose lambda_n = 2 pi n scales it by
    # (2 pi)^{-6}
    expect = zeta_numeric(6).real * zeta_numeric(3).real
    assert abs(_sigma_series(3, 6.0, 1e-11) - expect) < 1e-11
    scale = (2 * math.pi) ** -6
    got = phi_direct(eisenstein_datum(2), 6.0, tol=1e-11 * scale)
    assert got.tail_bound < 1e-11 * scale
    assert abs(got.value.real / scale - expect) < 1e-11


def test_sigma2_identity_by_direct_sum():
    # (sig) with w = 1, s = 3: sum sigma_2(n) n^{-4} = zeta(4) zeta(2).
    # The tail of the raw sum decays like 1/N here, so the analytic limit
    # is checked at the feasible tolerance while the divisor-rearrangement
    # content is checked exactly below.
    got = _sigma_series(2, 4.0, 1e-5)
    assert abs(got - zeta_numeric(4).real * zeta_numeric(2).real) < 1e-5


def test_sigma_rearrangement_exact():
    # sum_{n<=N} sigma_k(n) n^{-z} = sum_{d e <= N} d^k (d e)^{-z}: the
    # rearrangement behind the sigma identities, as finite exact sums
    from modzeta.exactnum import divisor_sigma

    n_cut, k, z = 240, 2, 4.0
    lhs = sum(divisor_sigma(k, n) * n ** -z for n in range(1, n_cut + 1))
    rhs = 0.0
    for d in range(1, n_cut + 1):
        for e in range(1, n_cut // d + 1):
            rhs += d ** k * (d * e) ** -z
    assert abs(lhs - rhs) < 1e-14


@pytest.mark.parametrize("k,z", [(1, 4.5), (2, 5.6), (3, 6.4), (4, 7.5), (5, 8.2)])
def test_sig_identity_random_points(k, z):
    # sum sigma_k(n) n^{-z} = zeta(z) zeta(z - k)
    got = _sigma_series(k, z, 1e-11)
    expect = zeta_numeric(z).real * zeta_numeric(z - k).real
    assert abs(got - expect) < 1e-10


# ------------------------------------------------------------------ residual B
def test_residual_B_cases():
    empty = theta_datum()._replace(residues=())
    assert residual_B(empty, 1.7) == 0
    single = theta_datum()._replace(residues=((1.0, 2.0),))
    assert complex(residual_B(single, 2.0)).real == pytest.approx(1.0, abs=1e-15)


def test_supports_modular_is_having_residues():
    # derived, not stored: no factory or swap can set it apart from residues
    data = [eisenstein_datum(2), theta_datum(), diagonal_epstein_datum(2),
            theta_datum()._replace(residues=()),
            theta_datum()._replace(residues=((1.0, 2.0),))]
    for d in data + [d.swapped() for d in data]:
        assert d.supports_modular == bool(d.residues)
    assert [d.supports_modular for d in data] == [True, True, True, False, True]
    assert "supports_modular" not in data[0]._fields


# ------------------------------------------------------------ modular relation
@pytest.mark.parametrize("t", [2, 3])
def test_modular_relation_eisenstein(t):
    d = eisenstein_datum(t)
    for beta in (1.0, 0.7, 1.9):
        assert modular_relation_gap(d, beta) < 1e-10


def test_modular_relation_theta():
    assert modular_relation_gap(theta_datum(), 0.7) < 1e-10
    assert modular_relation_gap(theta_datum(), 1.6) < 1e-10


@pytest.mark.parametrize("p", [1, 2])
def test_modular_relation_diagonal(p):
    assert modular_relation_gap(diagonal_epstein_datum(p), 1.3) < 1e-10


def test_weight6_vanishing_at_self_dual_point():
    # a = (-1)^3 = -1 forces the zero-mode-completed kernel to vanish at
    # beta = 1; equivalently sum sigma_5(n) e^{-2 pi n} = 1/504
    d = eisenstein_datum(3)
    series = heat_kernel(d, 1.0).value.real
    assert abs(d.zero_modes[0] + series) < 1e-10
    assert abs(series - 1.0 / 504.0) < 1e-12


def test_swap_invariance():
    d = eisenstein_datum(2)
    ds = d.swapped()
    for beta in (0.6, 1.0, 1.7):
        assert modular_relation_gap(d, beta) < 1e-10
        assert modular_relation_gap(ds, 1.0 / beta) < 1e-10


def test_poleless_datum_rejects_modular_ops():
    with pytest.raises(DomainError):
        modular_relation_gap(theta_datum()._replace(residues=()), 1.0)


# --------------------------------------------------------------------- Berndt
def test_berndt_reproduces_massive_p1():
    d = diagonal_epstein_datum(1)
    got = berndt_phi(d, 1.0, 1.0)
    assert abs(got.value.real - (math.pi / math.tanh(math.pi) - 1.0)) < 1e-10


def test_berndt_brute_force_oracles():
    # three data x three (s, w) points against direct summation
    d1 = diagonal_epstein_datum(1)
    for (s, w) in ((3.0, 0.9), (2.5, 1.2), (4.0, 0.6)):
        brute = sum(2.0 * (k * k + w * w) ** -s for k in range(1, 300_000))
        got = berndt_phi(d1, s, w).value.real
        assert abs(got - brute) < 1e-9 * abs(brute)
    th = theta_datum()
    for (s, w) in ((1.5, 0.8), (2.2, 1.1), (3.0, 0.5)):
        brute = sum(2.0 * (math.pi * k * k + w * w) ** -s for k in range(1, 200_000))
        got = berndt_phi(th, s, w).value.real
        assert abs(got - brute) < 1e-9 * max(1.0, abs(brute))
    de = eisenstein_datum(2)
    for (s, w) in ((5.0, 0.5), (4.6, 1.0), (6.0, 0.8)):
        # lambda_n = 2 pi n; scale to the unit sequence and compare with
        # the Hurwitz-decomposition oracle for sum sigma_3(n) (n+c)^{-s}
        got = (2 * math.pi) ** s * berndt_phi(
            de, s, math.sqrt(2 * math.pi) * w, tol=1e-16
        ).value.real
        oracle = _sigma_shifted_sum(3, s, w * w)
        assert abs(got - oracle) < 1e-9 * abs(oracle)


def test_berndt_large_w_reduces_to_residue_part():
    d = eisenstein_datum(2)
    s, w = 3.3, 20.0
    got = berndt_phi(d, s, w)
    r_only = berndt_R(d, s, w) / gamma_numeric(s).real
    assert got.tail_bound < 1e-12
    assert abs(got.value.real - r_only) < 1e-10 * abs(r_only)


def test_berndt_continuation_pole_residue_p2():
    # (s - 1) phi(s, w) -> pi^{p/2} w^{p-2s} / Gamma(p/2) = pi as s -> 1
    d = diagonal_epstein_datum(2)
    h = 0.02
    r1 = h * berndt_phi(d, 1 + h, 1.0).value.real
    r2 = (h / 2) * berndt_phi(d, 1 + h / 2, 1.0).value.real
    r4 = (h / 4) * berndt_phi(d, 1 + h / 4, 1.0).value.real
    first = 2 * r2 - r1
    second = 2 * r4 - r2
    extr = second + (second - first) / 3
    assert abs(extr - math.pi) < 1e-6


@pytest.mark.parametrize("s,w", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1.5, math.nan), (1.5, 0.0)])
def test_berndt_rejects_nan_and_inf(s, w):
    with pytest.raises(DomainError):
        berndt_phi(diagonal_epstein_datum(2), s, w)


def test_berndt_gamma_pole_guard():
    with pytest.raises(SingularityError):
        berndt_phi(eisenstein_datum(2), 3.0, 1.0)  # s - 4 = -1


# --------------------------------------------------------------- pole residue
def test_pole_residue_t2_consistency_value():
    res = pole_residue(eisenstein_datum(2))
    assert res.closed_form == pytest.approx(math.pi ** 4 / 90, rel=1e-13)
    assert abs(res.residue - res.closed_form) < 1e-8
    assert abs(res.residue - math.pi ** 4 / 90) < 1e-8  # = zeta(4)


def test_pole_residue_t3_sign_resolution():
    res = pole_residue(eisenstein_datum(3))
    # numeric extraction pins the sign chain: the residue is +zeta(6)
    assert abs(res.residue - math.pi ** 6 / 945) < 1e-8
    assert abs(res.residue - res.closed_form) < 1e-8


# theta with alternating signs: phi(s) = sum_m (-1)^m 2 (pi m^2)^{-s}
# = -2 pi^{-s} eta(2s), which has no pole at delta = 1/2
_POLELESS_DATUM = 'theta_datum()._replace(name="alternating theta", a=lambda m: -2.0 if m % 2 else 2.0)'


def test_pole_residue_zero_for_poleless_datum():
    res = pole_residue(eval(_POLELESS_DATUM))
    assert abs(res.residue_bochner) < 1e-12


_PINNED_RESIDUES = [
    (2, (4.0, 1.0823232337111308, 0.0006944444444444399, 1.082323233711138, 2.4438085279910628e-08)),
    (3, (6.0, 1.017343061984447, 1.65343915343915e-05, 1.017343061984449, 4.370254523663932e-10)),
]


@pytest.mark.parametrize("t,fields", _PINNED_RESIDUES)
def test_pole_residue_bits_are_pinned(t, fields):
    res = pole_residue(eisenstein_datum(t))
    assert (res.location, res.residue, res.residue_bochner, res.closed_form, res.spread) == fields


def test_pinned_residue_bits_hold_on_every_call_of_a_process():
    # the cached datum keeps its G' tables: a first call, a second one, and
    # calls after the other t, in a process where nothing ran before
    code = (
        "from modzeta.dirichlet import eisenstein_datum, pole_residue\n"
        "for t in (2, 2, 3, 3, 2):\n"
        "    r = pole_residue(eisenstein_datum(t))\n"
        "    print(repr((t, (r.location, r.residue, r.residue_bochner, r.closed_form, r.spread))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    pinned = dict(_PINNED_RESIDUES)
    got = [ast.literal_eval(line) for line in proc.stdout.splitlines()]
    assert got == [(t, pinned[t]) for t in (2, 2, 3, 3, 2)]


def test_builtin_factories_return_one_datum_per_argument():
    assert eisenstein_datum(2) is eisenstein_datum(2)
    assert diagonal_epstein_datum(1) is diagonal_epstein_datum(1)
    assert theta_datum() is theta_datum()
    # the cache is typed: 1.0 finds no entry of an equal int, not even the
    # one cached under True (True == 1 == 1.0)
    diagonal_epstein_datum(True)
    with pytest.raises(DomainError):
        diagonal_epstein_datum(1.0)


@pytest.mark.parametrize("t", [2.0, float("nan"), 2.5, 1, "2"])
def test_eisenstein_datum_refuses_a_non_integer_t(t):
    with pytest.raises(DomainError, match="requires an integer t >= 2"):
        eisenstein_datum(t)


def test_swapped_and_replaced_data_start_with_empty_tables():
    d = eisenstein_datum(2)
    pole_residue(d)
    assert len(d._g_prime) > 2
    assert list(d.swapped()._g_prime) == [0.0, 0.0] == list(d._replace()._g_prime)
    assert d._replace() == d and hash(d._replace()) == hash(d)


def test_a_second_pole_residue_reads_the_tables_of_the_first():
    base = eisenstein_datum(2)
    calls = [0]

    def counting_a(n):
        calls[0] += 1
        return base.a(n)

    d = base._replace(a=counting_a)
    first = repr(pole_residue(d))
    first_calls, calls[0] = calls[0], 0
    assert repr(pole_residue(d)) == first == repr(pole_residue(base))
    a_tab, lam_tab = d._g_prime[::2], d._g_prime[1::2]
    # the heat kernel's calls repeat; the table's entries are not asked again
    assert first_calls - calls[0] == len(a_tab) - 1 > 1000
    assert list(a_tab) == [0.0] + [base.a(m) for m in range(1, len(a_tab))]
    assert list(lam_tab) == [0.0] + [base.lam(m) for m in range(1, len(lam_tab))]


def test_a_failing_coefficient_leaves_the_tables_aligned():
    base = eisenstein_datum(2)
    failing = [True]

    def flaky_a(n):
        if failing[0] and n > 100:
            raise KeyError(n)
        return base.a(n)

    d = base._replace(a=flaky_a)
    with pytest.raises(KeyError):
        pole_residue(d)
    # whole pairs only, each a_m with its lambda_m: the failing run published nothing
    assert len(d._g_prime) % 2 == 0
    a_tab, lam_tab = d._g_prime[::2], d._g_prime[1::2]
    assert len(a_tab) == len(lam_tab) <= 101
    assert list(a_tab) == [0.0] + [base.a(m) for m in range(1, len(a_tab))]
    assert list(lam_tab) == [0.0] + [base.lam(m) for m in range(1, len(lam_tab))]
    failing[0] = False
    assert repr(pole_residue(d)) == repr(pole_residue(base))


def test_threads_sharing_one_datum_grow_its_tables_once(monkeypatch):
    want = repr(pole_residue(eisenstein_datum(3)))
    # a fresh datum on an empty sieve cache: the threads grow sigma_5 too
    monkeypatch.setattr(exactnum, "_SIEVES", {})
    d = eisenstein_datum.__wrapped__(3)
    got = []
    threads = [threading.Thread(target=lambda: got.append(repr(pole_residue(d)))) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [want] * 4
    a_tab, lam_tab = d._g_prime[::2], d._g_prime[1::2]
    assert list(a_tab) == [0.0] + [d.a(m) for m in range(1, len(a_tab))]
    assert list(lam_tab) == [0.0] + [d.lam(m) for m in range(1, len(lam_tab))]


def test_pole_residue_memo_does_not_leak_between_calls():
    # each call memoises its kernel at quad's nodes; a later datum, evaluated
    # at the same nodes, must still get its own values, as in a new interpreter
    data = ["eisenstein_datum(3)", _POLELESS_DATUM, "eisenstein_datum(2)"]
    here = [repr(pole_residue(eval(expr))) for expr in data]
    for expr, got in zip(data, here):
        code = (
            "from modzeta.dirichlet import eisenstein_datum, pole_residue, theta_datum\n"
            f"print(repr(pole_residue({expr})))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == got


def _g_prime_reference(d, beta):
    # the per-term loop that _kernel_derivative replaced, kept verbatim as the
    # reference: it evaluates the majorant at every m
    nu = d.delta
    c_l, q_l = d.lam_low
    terms = []
    m = 0
    while True:
        m += 1
        lam = d.lam(m)
        e = math.exp(-lam * beta)
        terms.append(d.a(m) * (nu - lam * beta) * e)
        if m > 4 and d.a_bound[0] * (m + 1) ** (d.a_bound[1] + q_l) * (
            1 + nu + c_l * (m + 1) ** q_l * beta
        ) * math.exp(-c_l * (m + 1) ** q_l * beta) < 1e-18:
            break
        if m > 150_000:
            raise ConvergenceError("g_prime kernel did not converge")
    return beta ** (nu - 1) * math.fsum(terms), m


@pytest.mark.parametrize(
    "expr",
    ["eisenstein_datum(2)", "eisenstein_datum(3)", "eisenstein_datum(4)", "theta_datum()",
     pytest.param(_POLELESS_DATUM, id="alternating_theta")],
)
def test_kernel_derivative_is_the_per_term_loop_bit_for_bit(expr, monkeypatch):
    # every beta that pole_residue's QAGS visits, with the tables the call shares
    # across its betas; and O(log m) majorant evaluations per beta, not m
    seen = []
    majorants = [0]
    real_kernel, real_majorant = dmod._kernel_derivative, dmod._kernel_majorant

    def counting_majorant(*args):
        majorants[0] += 1
        return real_majorant(*args)

    def recording_kernel(d, beta, pairs):
        majorants[0] = 0
        value = real_kernel(d, beta, pairs)
        seen.append((beta, value, majorants[0]))
        return value

    monkeypatch.setattr(dmod, "_kernel_majorant", counting_majorant)
    monkeypatch.setattr(dmod, "_kernel_derivative", recording_kernel)
    d = eval(expr)
    pole_residue(d)
    assert len(seen) > 20
    for beta, value, calls in seen:
        want, terms = _g_prime_reference(d, beta)
        assert value.hex() == want.hex(), beta
        assert calls <= 2 * math.log2(terms) + 3, (beta, terms)


def test_kernel_derivative_refuses_before_tabulating(monkeypatch):
    # theta's lambda_m = pi m^2 needs m ~ 1e5 at beta = 1e-9, found in a few
    # dozen majorant evaluations, and more than the 150,001 terms the loop
    # allows at beta = 1e-11
    d = theta_datum()
    calls = []
    real_majorant = dmod._kernel_majorant
    monkeypatch.setattr(dmod, "_kernel_majorant", lambda *args: calls.append(args[-1]) or real_majorant(*args))
    pairs = array("d", [0.0, 0.0])
    want, terms = _g_prime_reference(d, 1e-9)
    assert 50_000 < terms < 150_000
    assert dmod._kernel_derivative(d, 1e-9, pairs).hex() == want.hex()
    assert len(calls) <= 2 * math.log2(terms) + 3 and len(pairs) == 2 * (terms + 1)
    with pytest.raises(ConvergenceError, match="did not converge"):
        _g_prime_reference(d, 1e-11)
    pairs = array("d", [0.0, 0.0])
    with pytest.raises(ConvergenceError, match="did not converge"):
        dmod._kernel_derivative(d, 1e-11, pairs)
    assert list(pairs) == [0.0, 0.0]


# (datum, zero modes, Koshliakov closed form) as float.hex(), as the data
# stored them when the zero modes were a field and kosh the pair (a, b)
_PINNED_ZERO_MODES = [
    ("eisenstein_datum(2)", ("0x1.1111111111111p-8", "0x1.1111111111111p-8"), "0x1.151322ac7d847p+0"),
    ("eisenstein_datum(2).swapped()", ("0x1.1111111111111p-8", "0x1.1111111111111p-8"), None),
    ("eisenstein_datum(3)", ("-0x1.0410410410410p-9", "0x1.0410410410410p-9"), "0x1.0470984c09244p+0"),
    ("eisenstein_datum(3).swapped()", ("0x1.0410410410410p-9", "-0x1.0410410410410p-9"), None),
    ("theta_datum()", ("0x1.0000000000000p+0", "0x1.0000000000000p+0"), None),
    ("theta_datum().swapped()", ("0x1.0000000000000p+0", "0x1.0000000000000p+0"), None),
    ("diagonal_epstein_datum(1)", ("0x1.0000000000000p+0", "0x1.c5bf891b4ef6ap+0"), None),
    ("diagonal_epstein_datum(1).swapped()", ("0x1.c5bf891b4ef6ap+0", "0x1.0000000000000p+0"), None),
    ("diagonal_epstein_datum(4)", ("0x1.0000000000000p+0", "0x1.3bd3cc9be45dep+3"), None),
    ("diagonal_epstein_datum(4).swapped()", ("0x1.3bd3cc9be45dep+3", "0x1.0000000000000p+0"), None),
]


@pytest.mark.parametrize("expr,zero_modes,closed", _PINNED_ZERO_MODES)
def test_zero_modes_and_closed_form_read_from_the_pole_list_keep_their_bits(expr, zero_modes, closed):
    d = eval(expr)
    assert "zero_modes" not in d._fields and len(d._fields) == 12
    assert tuple(z.hex() for z in d.zero_modes) == zero_modes
    if closed is None:
        with pytest.raises(DomainError, match="no classical"):
            koshliakov_residue_closed_form(d)
    else:
        assert koshliakov_residue_closed_form(d).hex() == closed


def test_koshliakov_closed_form_values():
    # b_0 b^nu / Gamma(nu) = -psi(0) b^nu / Gamma(nu) for t = 2, 3
    assert koshliakov_residue_closed_form(eisenstein_datum(2)) == pytest.approx(
        math.pi ** 4 / 90, rel=1e-13
    )
    assert koshliakov_residue_closed_form(eisenstein_datum(3)) == pytest.approx(
        math.pi ** 6 / 945, rel=1e-13
    )


def test_heat_kernel_certified_tail():
    sv = heat_kernel(eisenstein_datum(2), 0.05)
    assert sv.tail_bound < 1e-14
    assert sv.terms > 50  # small beta needs many terms

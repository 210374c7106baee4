"""The pure-Python special functions against mpmath at raised precision."""
import cmath
import math
import random
import subprocess
import sys

import pytest

from modzeta import _special
from modzeta.exactnum import bernoulli

mpmath = pytest.importorskip("mpmath")


def _besselk(nu: float, x: float, dps: int):
    with mpmath.workdps(dps):
        return mpmath.besselk(nu, x)


def _kv_cases() -> list:
    rng = random.Random(1604)
    cases = [(2.0, 700.0), (0.0, 1e-3), (150.0, 700.0), (0.3, 2.0), (1.2, 20.0), (4.5 - 1e-9, 53.4), (7.0, 0.5)]
    for _ in range(80):
        nu = rng.choice([rng.uniform(0.0, 1.5), rng.uniform(0.0, 4.5), rng.uniform(0.0, 150.0), float(rng.randint(0, 12))])
        cases.append((nu, 10 ** rng.uniform(-3.0, math.log10(700.0))))
    return cases


@pytest.mark.parametrize("nu,x", _kv_cases())
def test_kv_against_mpmath_at_two_precisions(nu, x):
    # at large orders mpmath's own value moves with its precision (dps 30 is
    # 1.7e-10 off at (143.2, 88.8)), so the oracle must agree with itself first
    want = _besselk(nu, x, 40)
    if float(want) == math.inf:
        assert _special.kv(nu, x) == math.inf
        return
    assert abs(want - _besselk(nu, x, 60)) <= 1e-25 * want
    tol = 3e-15 if nu <= 8 else 5e-14  # the upward recurrence adds an ulp or two per step
    assert abs(_special.kv(nu, x) - want) <= tol * want


def test_kv_below_the_old_underflow_edge():
    # scipy's kv flushed K_2(700) = 4.7e-306 to 0; e^-x is applied last here
    assert _special.kv(2.0, 700.0) == pytest.approx(4.7e-306, rel=1e-2)
    assert _special.kv(2.0, 800.0) == 0.0


def test_kv_regions_meet_at_their_seams():
    # each method's region ends where the next one's begins: both sides of
    # each seam are as close to K as the interior is
    for nu in (0.0, 0.37, 1.0, 2.5 + 1e-6, 3.9):
        for seam in (_special._TEMME_BELOW, _special._INTEGER_SERIES_BELOW, _special._HANKEL_FROM):
            for x in (math.nextafter(seam, 0.0), seam):
                want = _besselk(nu, x, 40)
                assert abs(_special.kv(nu, x) - want) <= 3e-15 * want, (nu, x)


def test_trapezoid_tables_stay_whole_while_threads_grow_them():
    # six threads grow the same fresh orders' tables node by node (x falls
    # from 19.5 to 0.5), switching every microsecond; each table must come
    # out as two columns of one length, every node's cosh(mu t_j) once.  A
    # child process starts with no tables and keeps its switch interval
    code = (
        "import math, random, sys, threading\n"
        "from modzeta import _special\n"
        "rng = random.Random(2901)\n"
        "orders = [rng.uniform(0.01, 0.49) for _ in range(200)]\n"
        "start = threading.Barrier(6)\n"
        "def grow():\n"
        "    for mu in orders:\n"
        "        start.wait(30)\n"
        "        for k in range(39):\n"
        "            _special.kv(mu, 19.5 - 0.5 * k)\n"
        "sys.setswitchinterval(1e-6)\n"
        "threads = [threading.Thread(target=grow) for _ in range(6)]\n"
        "for th in threads:\n"
        "    th.start()\n"
        "for th in threads:\n"
        "    th.join(60)\n"
        "assert not any(th.is_alive() for th in threads)\n"
        "nodes = _special._trapezoid_grid()[0]\n"
        "for mu in orders:\n"
        "    a, b = _special._TRAPEZOID[mu]\n"
        "    assert len(a) == len(b), (mu, len(a), len(b))\n"
        "    for nu, column in ((mu, a), (mu + 1.0, b)):\n"
        "        assert list(column) == [0.5] + [math.cosh(nu * t) for t in nodes[1:len(column)]], (mu, len(column))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_hankel_reaches_every_order_up_to_three_halves_at_its_edge():
    # kv's reduction to orders mu and mu + 1 relies on it
    for i in range(301):
        assert _special._hankel(1.5 * i / 300, _special._HANKEL_FROM) is not None


def test_stirling_coefficients_are_bernoulli_quotients():
    want = [bernoulli(2 * k) / (2 * k * (2 * k - 1)) for k in range(1, 12)]
    assert list(_special._STIRLING) == [float(q) for q in want[:10]]
    assert _special._STIRLING_NEXT == float(abs(want[10]))


def _gamma_cases() -> list:
    rng = random.Random(1605)
    cases = [complex(rng.uniform(0.1, 30.0), rng.uniform(-60.0, 60.0)) for _ in range(150)]
    cases += [complex(2 * t - 0.5, rng.uniform(0.0, 40.0)) for t in range(2, 7) for _ in range(8)]  # the Mellin line
    cases += [complex(rng.uniform(-20.0, 0.5), rng.uniform(-60.0, 60.0)) for _ in range(60)]  # reflection
    return cases


def test_gamma_against_mpmath():
    mpmath.mp.dps = 40
    for z in _gamma_cases():
        want = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
        assert abs(_special.gamma(z) - want) <= 2e-13 * abs(want), z


def test_gamma_remainder_bound():
    # with Re z >= 1/2 every series argument has |w| >= 10 and |arg w| <= pi / 2
    for z in _gamma_cases():
        if z.real >= 0.5:
            assert _special.log_gamma(z)[1] <= 3e-17
    # the bound is the first omitted term over cos^22(arg / 2)
    w = complex(0.5, 10.0)
    assert _special.log_gamma(w)[1] == pytest.approx(
        _special._STIRLING_NEXT / abs(w) ** 21 / math.cos(cmath.phase(w) / 2) ** 22, rel=1e-12
    )


def test_gamma_real_axis_is_math_gamma():
    for x in (0.5, 2.5, 5.0, 30.25, -1.5, -0.25):
        assert _special.gamma(x) == complex(math.gamma(x))
    with pytest.raises(OverflowError):
        _special.gamma(172.0)


@pytest.mark.parametrize("a_range,x_range", [((3.3, 9.5), (29.0, 54.0)), ((0.05, 60.0), (1e-3, 300.0))])
def test_gammaincc_against_mpmath(a_range, x_range):
    mpmath.mp.dps = 30
    rng = random.Random(1606)
    for _ in range(200):
        a, x = rng.uniform(*a_range), rng.uniform(*x_range)
        want = mpmath.gammainc(a, x, regularized=True)
        if want < 1e-290:
            continue
        assert abs(_special.gammaincc(a, x) - want) <= 1e-13 * want, (a, x)
    assert _special.gammaincc(2.0, 0.0) == 1.0
    assert _special.gammaincc(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_gammaincc_far_out_returns_at_once():
    # where x^a e^-x / Gamma(a) underflows, Q(a, x) is 0.0 before the continued
    # fraction, whose step can stay at 1 - 2^-53 for good past x ~ 1e16; run in
    # a child, so that a loop that never stops fails this test, not the run
    code = (
        "import random\n"
        "from modzeta._special import gammaincc\n"
        "assert gammaincc(5.0, 8.885765876316733e300) == 0.0\n"
        "rng = random.Random(2601)\n"
        "for _ in range(2000):\n"
        "    a, x = rng.uniform(0.05, 60.0), 10.0 ** rng.uniform(1.0, 300.0)\n"
        "    assert 0.0 <= gammaincc(a, x) <= 1.0, (a, x)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr


def test_gammaincc_past_its_a_cap_is_nan_at_once():
    # near x = a the power series takes about sqrt(a) steps, 1e8 at a = 1e16;
    # run in a child, so that a loop that runs on fails this test, not the run
    code = (
        "import math, time\n"
        "from modzeta._special import gammaincc\n"
        "start = time.perf_counter()\n"
        "assert math.isnan(gammaincc(1e16, 1e16 - 1e8))\n"
        "assert 0.0 < gammaincc(1e6, 1e6) < 1.0\n"
        "print(time.perf_counter() - start)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0


def test_upper_incomplete_gamma_lower_bound_by_parts():
    # berndt_phi's tail takes Gamma(a, x) >= x^(a-1) e^-x (1 + (a-1)/x), a >= 2,
    # scaled by 0.999999, as deciding nothing Q(a, x) Gamma(a) would not
    for i in range(57):
        a = 2.0 + 3.0 * i
        for j in range(60):
            x = 1e-3 * (7e5) ** (j / 59)
            low = math.exp((a - 1.0) * math.log(x) - x) * (1.0 + (a - 1.0) / x)
            assert 0.999999 * low <= _special.gammaincc(a, x) * math.gamma(a), (a, x)

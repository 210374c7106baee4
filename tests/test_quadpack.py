"""The Python QAGS port against scipy.integrate.quad, its test-only oracle.

Each case must give the same value, error estimate, evaluation count and
error flag, bit for bit: the port keeps QUADPACK's order of floating-point
operations, so any difference is a porting fault.
"""
import math

import pytest
from scipy.integrate import quad

from modzeta import dirichlet, epstein, qseries
from modzeta._quadpack import _qags
from modzeta.epstein import z2_direct
from modzeta.qseries import _quad

# scipy reports QUADPACK's error flag as a message; ier 0 has none
_IER = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def _scipy(f, a, b, epsabs, epsrel, limit):
    out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = 0 if len(out) == 3 else next(v for k, v in _IER.items() if out[3].startswith(k))
    return out[0], out[1], out[2]["neval"], ier


def _same(got, expect) -> bool:
    # bit equality, NaN included
    return all(x == y or (x != x and y != y) for x, y in zip(got, expect))


def _pole(c: float, p: float):
    return lambda x: abs(x - c) ** p if x != c else 0.0


# (f, a, b, epsabs, epsrel, limit, the ier the case is there to reach)
CASES = {
    "first-rule return": (lambda x: x * x, 0.0, 1.0, 1.49e-8, 1.49e-8, 50, 0),
    "converged": (math.sqrt, 0.0, 1.0, 1e-12, 1e-12, 400, 0),
    "extrapolation win": (_pole(0.0, -0.5), 0.0, 1.0, 1e-12, 1e-12, 400, 0),
    "extrapolation win, log": (lambda x: math.log(x) if x else 0.0, 0.0, 1.0, 1e-12, 1e-12, 400, 0),
    "limit": (lambda x: math.sin(1 / x) if x else 0.0, 0.0, 1.0, 1e-12, 1e-12, 5, 1),
    "limit 1": (lambda x: math.sin(30 * x), 0.0, 1.0, 1e-14, 1e-14, 1, 1),
    "roundoff": (lambda x: x + 1e-10 * math.sin(1e7 * x), 0.0, 1.0, 0.0, 2e-14, 400, 2),
    "bad integrand behaviour": (_pole(math.pi / 4, -0.5), 0.0, 1.0, 1e-10, 1e-10, 1000, 3),
    "extrapolation roundoff": (_pole(0.0, -0.99), 0.0, 1.0, 1e-14, 1e-14, 400, 4),
    "divergent": (_pole(0.0, -2.0), 0.0, 1.0, 1e-10, 1e-10, 400, 5),
    "NaN integrand": (lambda x: math.nan if x > 0.7 else x, 0.0, 1.0, 1e-12, 1e-12, 400, 2),
    # NaN in the first rule only: errsum stays NaN and every extrapolation is taken
    "NaN in the first rule": (
        lambda x: math.nan if abs(x - 0.648624210286765) < 1e-3 else x,
        0.0818183325361761, 2.081818332536176, 1e-10, 1e-6, 1000, 2,
    ),
    "infinite integrand": (lambda x: math.inf if x < 0.5 else 1.0, 0.0, 1.0, 1e-12, 1e-12, 400, 0),
    "all zero": (lambda x: 0.0, 0.0, 1.0, 1e-12, 1e-12, 400, 0),
    "epsabs=0": (lambda x: math.exp(-x) * math.cos(20 * x), 0.0, 3.0, 0.0, 1e-13, 400, 2),
}


@pytest.mark.parametrize("name", CASES)
def test_qags_is_scipy_quad_bit_for_bit(name):
    f, a, b, epsabs, epsrel, limit, ier = CASES[name]
    expect = _scipy(f, a, b, epsabs, epsrel, limit)
    assert expect[3] == ier  # the case still reaches the exit it is named for
    got = _qags(f, a, b, epsabs, epsrel, limit)
    assert _same(got, expect), (got, expect)


def test_an_exception_raised_by_the_integrand_propagates():
    def f(x):
        if x > 0.9:
            raise RuntimeError("integrand refused")
        return x

    for integrate in (lambda: quad(f, 0.0, 1.0), lambda: _qags(f, 0.0, 1.0, 1e-12, 1e-12, 400)):
        with pytest.raises(RuntimeError, match="integrand refused"):
            integrate()


def test_qags_refuses_an_unreachable_tolerance():
    with pytest.raises(ValueError):
        _qags(math.exp, 0.0, 1.0, 0.0, 1e-20, 400)


def _recorded(monkeypatch, module, run) -> list:
    """The (f, a, b, options) of every _quad call ``run`` makes through ``module``."""
    calls = []

    def recording(f, a, b, **kw):
        calls.append((f, a, b, {"epsabs": 1e-12, "epsrel": 1e-12, "limit": 400, **kw}))
        return _quad(f, a, b, **kw)

    monkeypatch.setattr(module, "_quad", recording)
    run()
    assert calls
    return calls


@pytest.mark.parametrize(
    "module,run",
    [
        # QAGS spends 903 nodes here
        (qseries, lambda: qseries.mellin_eps_sub(6, 0.465459)),
        (dirichlet, lambda: dirichlet.pole_residue(dirichlet.eisenstein_datum(2))),
        # _ext_integral runs at epsabs=0, _ext_laplacian at epsabs=1e-15
        (epstein, lambda: z2_direct((1.0, 0.3, 2.0), 1.1, radius=20, tail="integral")),
    ],
    ids=["mellin_eps_sub", "pole_residue", "z2_direct-integral"],
)
def test_library_integrals_match_scipy(monkeypatch, module, run):
    for f, a, b, opts in _recorded(monkeypatch, module, run):
        expect = _scipy(f, a, b, opts["epsabs"], opts["epsrel"], opts["limit"])
        assert _same(_qags(f, a, b, opts["epsabs"], opts["epsrel"], opts["limit"]), expect), (a, b, opts)

"""Non-finite and ill-typed arguments at the public routes: each route
refuses them at its entry with a DomainError, or returns the real limit
that the value stands for (q = 0 at b = +inf, zero temperature at
beta = +inf, no lattice point left at w = +-inf)."""
import math

import pytest

from modzeta import dirichlet as dmod
from modzeta import epstein as emod
from modzeta import qseries as qmod
from modzeta import thermal as tmod
from modzeta.errors import ConvergenceError, DomainError

NAN, INF = math.nan, math.inf


def _weight4_kernel(beta):
    """The weight-4 datum's kernel with its zero mode a_0 = 1/240."""
    d = dmod.eisenstein_datum(2)
    return d.zero_modes[0] + dmod.heat_kernel(d, beta).value.real


# route: (call at the value, the argument it varies, {value: the limit returned,
# or the error other than DomainError that the route raises})
_ROUTES = {
    "eps": (lambda v: qmod.eps(2, v), "b", {INF: 1 / 240}),
    "eps_sub": (lambda v: qmod.eps_sub(2, v), "b", {INF: 0.0}),
    "eps_sub, complex b": (lambda v: qmod.eps_sub(2, complex(1.0, v)), "Im b", {}),
    "lambert_S": (lambda v: qmod.lambert_S(2, v), "b", {INF: 0.0}),
    "psi_bar": (lambda v: qmod.psi_bar(2, v), "b", {INF: 0.0}),
    "phi_bar": (lambda v: qmod.phi_bar(2, v), "b", {INF: 0.0}),
    "mellin_eps_sub": (lambda v: qmod.mellin_eps_sub(2, v), "b", {}),
    "weyl_integral": (lambda v: qmod.weyl_integral(2, v, 1), "x", {}),
    "z2_direct, form": (lambda v: emod.z2_direct((v, 0.0, 1.0), 2.0), "a", {}),
    "z2_direct": (lambda v: emod.z2_direct((1, 0, 1), v), "s", {INF: 4.0}),  # the four points with Q = 1
    "z2_kober, form": (lambda v: emod.z2_kober((1.0, 0.0, v), 1.0), "c", {}),
    "z2_kober": (lambda v: emod.z2_kober((1, 0, 1), v), "w", {}),
    "z2_quartic": (emod.z2_quartic, "xi", {}),
    "zp_massive, s": (lambda v: emod.zp_massive(2, v, 1.0), "s", {}),
    "zp_massive, w": (lambda v: emod.zp_massive(2, 3.0, v), "w", {INF: 0.0}),
    "zp_brute, s": (lambda v: emod.zp_brute(2, v, 1.0), "s", {INF: 0.0}),
    "zp_brute, w": (lambda v: emod.zp_brute(2, 3.0, v), "w", {INF: 0.0, -INF: 0.0}),
    "bessel_k, order": (lambda v: emod.bessel_k(v, 1.0), "nu", {}),
    "bessel_k, x": (lambda v: emod.bessel_k(1.0, v), "x", {INF: 0.0}),
    "guinand_gap, w": (lambda v: emod.guinand_gap(v, 1.5), "w", {}),
    "guinand_gap, u": (lambda v: emod.guinand_gap(1.5, v), "u", {}),
    "guinand_lhs_derivative": (lambda v: emod.guinand_lhs_derivative(2, v), "u", {}),
    "xi_completed": (emod.xi_completed, "z", {}),
    "free_energy_partial": (lambda v: tmod.free_energy_partial(2, v), "xi", {}),
    "entropy_partial": (lambda v: tmod.entropy_partial(2, v), "xi", {}),
    "f3_epstein": (tmod.f3_epstein, "xi", {}),
    "f3_modesum": (tmod.f3_modesum, "xi", {}),
    "mode_sum_free_energy": (lambda v: tmod.mode_sum_free_energy(tmod.S3_SPEC, v), "beta", {INF: 1 / 240}),
    # per mode, sqrt(w / m) K_1/2(2 pi m w) is inf * 0 at beta = inf
    "thermal_zeta_free_energy": (
        lambda v: tmod.thermal_zeta_free_energy(tmod.SINGLE_MODE, v), "beta", {INF: ConvergenceError}
    ),
    "phi_direct": (lambda v: dmod.phi_direct(dmod.eisenstein_datum(2), v), "s", {}),
    "berndt_phi": (lambda v: dmod.berndt_phi(dmod.diagonal_epstein_datum(1), 1.5, v), "w", {INF: 0.0}),
    "heat kernel": (_weight4_kernel, "beta", {INF: 1 / 240}),
}


@pytest.mark.parametrize(
    "route,value",
    [pytest.param(name, v, id=f"{name}-{_ROUTES[name][1]}={v}") for name in _ROUTES for v in (NAN, INF, -INF)],
)
def test_non_finite_arguments_give_a_limit_or_a_domain_error(route, value):
    call, _, limits = _ROUTES[route]
    expect = limits.get(value, DomainError)
    if isinstance(expect, type):
        with pytest.raises(expect):
            call(value)
    else:
        result = call(value)
        assert complex(getattr(result, "value", result)) == expect


@pytest.mark.parametrize(
    "call",
    [
        lambda: dmod.diagonal_epstein_datum(2.5),
        lambda: emod.zp_massive(2.5, 3.0, 1.0),
        lambda: emod.zp_brute(2.5, 3.0, 1.0),
    ],
    ids=["diagonal_epstein_datum", "zp_massive", "zp_brute"],
)
def test_a_fractional_dimension_is_a_domain_error(call):
    # r_p counts exist for integer p only
    with pytest.raises(DomainError):
        call()

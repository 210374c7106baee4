"""Paired-route checks: each request computes one quantity by two
independent routes of the public modzeta API and returns (residual, tol).
A request passes when residual <= tol.
"""
from __future__ import annotations

import json
import math

from modzeta import dirichlet as dmod
from modzeta import epstein as emod
from modzeta import qseries as qmod
from modzeta import thermal as tmod
from modzeta import exactnum as xmod

from inputs import POINT_BUDGET, lattice_points

_SPECTRA = {"s3": tmod.S3_SPEC, "single-mode": tmod.SINGLE_MODE}


def _datum(name: str):
    if name.startswith("eisenstein"):
        return dmod.eisenstein_datum(int(name[-1]))
    if name.startswith("diagonal"):
        return dmod.diagonal_epstein_datum(int(name[-1]))
    return dmod.theta_datum()


def _scale(*vals) -> float:
    return max([1.0] + [abs(v) for v in vals])


def eps_inversion(t, b):
    b = complex(*b)
    e = qmod.eps_sub(t, b).value
    scale = _scale(e * abs(b) ** (2 * t))
    gap = qmod.eps_sub(t, 1 / b).value - (-1) ** t * b ** (2 * t) * e
    return abs(gap) / scale, 1e-10


def mellin_oracle(t, b):
    e = qmod.eps_sub(t, b).value
    return abs(qmod.mellin_eps_sub(t, b).value - e), 1e-8 * _scale(e)


def weyl_phi_bar(t, x):
    ph = qmod.phi_bar(t, x).value
    return abs(qmod.phi_bar_from_weyl(t, x).value - ph), 1e-8 * _scale(ph)


def kober_direct(form, w):
    k = emod.z2_kober(form, w).value.real
    d = emod.z2_direct(form, w + 0.5, tail="integral").value.real
    return abs(k - d), 1e-9 * _scale(k)


def kober_feq(form, s):
    f = emod.BinaryForm(*form)
    lhs = emod.z2_kober(f, s - 0.5).value.real
    rhs = (
        math.pi ** (2 * s - 1)
        * f.det ** -0.5
        * xmod.gamma_numeric(1 - s).real
        / xmod.gamma_numeric(s).real
        * emod.z2_kober(f.inverse(), 0.5 - s).value.real
    )
    return abs(lhs - rhs), 1e-9 * _scale(lhs)


def massive_brute(p, s, w, tail, tol):
    req = dict(family="massive_brute", p=p, s=s, tail=tail, tol=tol)
    if lattice_points(req) > POINT_BUDGET:  # never hand the program an oversized sum
        raise ValueError(f"zp_brute request over the point budget: {req}")
    zb = emod.zp_brute(p, s, w, tol=tol, tail=tail).value.real
    zm = emod.zp_massive(p, s, w).value.real
    return abs(zb - zm), tol * _scale(zm)


def massive_berndt(p, s, w):
    zm = emod.zp_massive(p, s, w).value.real
    bp = dmod.berndt_phi(dmod.diagonal_epstein_datum(p), s, w).value.real
    return abs(zm - bp), 1e-10 * _scale(zm)


def guinand_gap(w, u):
    return abs(emod.guinand_gap(w, u)), 1e-10


def guinand_derivative(t, u):
    lhs = emod.guinand_lhs_derivative(t, u)
    return abs(lhs - emod.guinand_lhs_bessel(t - 0.5, u)), 1e-9 * _scale(lhs)


def modular_relation(datum, beta):
    return dmod.modular_relation_gap(_datum(datum), beta), 1e-10


def pole_residue(t):
    res = dmod.pole_residue(dmod.eisenstein_datum(t))
    return abs(res.residue - res.closed_form), 1e-8


def f3_routes(xi):
    a = tmod.f3_epstein(xi).value.real
    return abs(a - tmod.f3_modesum(xi).value.real), 1e-10


def thermal_zeta(spectrum, beta):
    spec = _SPECTRA[spectrum]
    m = tmod.mode_sum_free_energy(spec, beta).value.real
    return abs(tmod.thermal_zeta_free_energy(spec, beta).value.real - m), 1e-8


def entropy_fd(t, xi):
    h = 1e-4
    fd = (tmod.free_energy_partial(t, xi + h).value.real - tmod.free_energy_partial(t, xi - h).value.real) / (2 * h)
    return abs(fd - tmod.entropy_partial(t, xi).value.real), 1e-7


ROUTES = {f.__name__: f for f in (
    eps_inversion, mellin_oracle, weyl_phi_bar, kober_direct, kober_feq, massive_brute,
    massive_berndt, guinand_gap, guinand_derivative, modular_relation, pole_residue,
    f3_routes, thermal_zeta, entropy_fd,
)}


def run_request(req: dict) -> tuple[float, float]:
    params = {k: v for k, v in req.items() if k != "family"}
    return ROUTES[req["family"]](**params)


# ---------------------------------------------------------------------------
# cli-oneshot: the value a `modzeta eval` process printed, and its pair
# ---------------------------------------------------------------------------

def parse_value(argv: list[str], stdout: str) -> complex:
    """The value an `eval` invocation printed, in any of its formats."""
    fmt = argv[argv.index("--format") + 1]
    if fmt == "json":
        v = json.loads(stdout)["value"]
        return complex(float(v["re"]), float(v["im"]))
    if fmt == "csv":
        row = stdout.splitlines()[1].split(",")
        return complex(float(row[1]), float(row[2]))
    for line in stdout.splitlines():
        if line.strip().startswith("value = "):
            re_s, im_s = line.split("=", 1)[1].strip().removesuffix(" i").split(" + ")
            return complex(float(re_s), float(im_s))
    raise ValueError("no value line in eval output")


def _opt(argv, name):
    return argv[argv.index(name) + 1]


def cli_pair(argv: list[str], value: complex) -> tuple[float, float]:
    """(residual, tol) of the printed value against an independent route."""
    q = argv[1]
    if q in ("eps", "psi_bar", "mellin_eps_sub", "pbar"):
        t = int(_opt(argv, "--t"))
    if q == "eps":
        b = complex(*map(float, _opt(argv, "--b").split(",")))
        gap = qmod.eps(t, 1 / b).value - (-1) ** t * b ** (2 * t) * value
        return abs(gap) / _scale(value * abs(b) ** (2 * t)), 1e-10
    if q == "psi_bar":
        b = complex(*map(float, _opt(argv, "--b").split(",")))
        return abs(qmod.psi_bar(t, b - 1j).value - value), 1e-11 * _scale(value)
    if q == "mellin_eps_sub":
        b = float(_opt(argv, "--b"))
        return abs(qmod.eps_sub(t, b).value - value), 1e-8 * _scale(value)
    if q == "pbar":
        x = float(_opt(argv, "--x"))
        gap = qmod.phi_bar(t, x).value - (-1) ** (t - 1) * x ** (2 * t - 2) * qmod.phi_bar(t, 1 / x).value
        return abs(gap - value), 1e-10 * _scale(value)
    if q == "z2_kober":
        form = tuple(map(float, _opt(argv, "--form").split(",")))
        w = float(_opt(argv, "--w"))
        return abs(emod.z2_direct(form, w + 0.5, tail="integral").value.real - value), 1e-9 * _scale(value)
    if q == "zp_massive":
        p, s, w = int(_opt(argv, "--p")), float(_opt(argv, "--s")), float(_opt(argv, "--w"))
        bp = dmod.berndt_phi(dmod.diagonal_epstein_datum(p), s, w).value.real
        return abs(bp - value), 1e-10 * _scale(value)
    if q == "f3":
        xi = float(_opt(argv, "--xi"))
        return abs(tmod.f3_epstein(xi).value.real - value), 1e-10
    if q == "mode_sum_F":
        spec = _SPECTRA[_opt(argv, "--spectrum")]
        beta = float(_opt(argv, "--beta"))
        return abs(tmod.thermal_zeta_free_energy(spec, beta).value.real - value), 1e-8
    raise KeyError(q)

"""Named verification suites: every identity the library rests on, with
its residual and tolerance, runnable one suite at a time or all together.

Each check returns the measured residual and the tolerance it must meet;
exact (rational-arithmetic) checks report residual 0.0 on success and 1.0
on failure with tolerance 0.
"""
from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from . import dirichlet as dmod
from . import epstein as emod
from . import periodpoly as pmod
from . import qseries as qmod
from . import thermal as tmod
from .errors import DomainError
from .exactnum import _Record, bernoulli, gamma_numeric, zeta_even_exact, zeta_odd_numeric

__all__ = ["CheckResult", "SUITES", "run_suites", "suite_names"]


class CheckResult(_Record, namedtuple("CheckResult", "suite name residual tol")):
    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _c(suite, name, residual, tol) -> CheckResult:
    return CheckResult(suite, name, abs(residual), tol)


def _exact(suite, name, ok: bool) -> CheckResult:
    return CheckResult(suite, name, 0.0 if ok else 1.0, 0.0)


# ---------------------------------------------------------------------------

def suite_inversion() -> list[CheckResult]:
    out = []
    rng = random.Random(1804)
    for t in range(2, 7):
        worst = 0.0
        for _ in range(20):
            b = rng.uniform(0.2, 5.0)
            e_b = qmod.eps(t, b).value
            scale = max(1.0, abs(e_b) * b ** (2 * t))
            r1 = abs(qmod.eps(t, 1 / b).value - (-1) ** t * b ** (2 * t) * e_b)
            r2 = abs(
                qmod.eps_sub(t, 1 / b).value
                - (-1) ** t * b ** (2 * t) * qmod.eps_sub(t, b).value
            )
            worst = max(worst, r1 / scale, r2 / scale)
        out.append(_c("inversion", f"eps/eps_sub inversion law t={t}", worst, 1e-10))
    for t in (2, 3, 4):
        worst = 0.0
        for _ in range(10):
            b = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
            c = float(qmod.casimir_constant(t))
            gap = qmod.eps_sub(t, b - 1j).value - qmod.eps_sub(t, b).value
            pred = (-1) ** (t + 1) * c * ((b - 1j) ** (-2 * t) - b ** (-2 * t))
            worst = max(worst, abs(gap - pred))
        out.append(_c("inversion", f"eps_sub translation gap t={t}", worst, 1e-10))
        worst = max(
            abs(qmod.psi_bar(t, b - 1j).value - qmod.psi_bar(t, b).value)
            for b in (0.8 + 0.2j, 1.5 + 0j, 2.0 - 0.7j)
        )
        out.append(_c("inversion", f"psi_bar periodicity t={t}", worst, 1e-12))
    t, x = 2, 1.3
    gap = qmod.phi_bar(t, x - 1j).value - qmod.phi_bar(t, x).value
    pred = -2j * zeta_even_exact(2 * t).numeric() / (x * (x - 1j))
    out.append(_c("inversion", "phi_bar translation value", abs(gap - pred), 1e-11))
    for (t, x) in ((2, 0.9), (3, 1.4), (4, 0.7)):
        gphi = (
            qmod.phi_bar(t, x).value
            - (-1) ** (t - 1) * x ** (2 * t - 2) * qmod.phi_bar(t, 1 / x).value
        )
        out.append(
            _c(
                "inversion",
                f"phi_bar cocycle gap = obstruction polynomial (t={t}, x={x})",
                abs(gphi - pmod.pbar(t).eval_numeric(x)),
                1e-10,
            )
        )
        gpsi = (
            qmod.psi_bar(t, x).value
            - (-1) ** (t - 1) * x ** (2 * t - 2) * qmod.psi_bar(t, 1 / x).value
        )
        out.append(
            _c(
                "inversion",
                f"psi_bar cocycle gap = extended polynomial (t={t}, x={x})",
                abs(gpsi - pmod.rbar(t).eval_numeric(x)),
                1e-10,
            )
        )
    # Mellin-contour oracle: two independent computations of eps_sub
    for t in (2, 3, 4):
        worst = max(
            abs(qmod.mellin_eps_sub(t, b).value - qmod.eps_sub(t, b).value)
            for b in (0.4, 0.7, 1.0, 1.6, 2.5)
        )
        out.append(_c("inversion", f"Mellin contour oracle t={t} (5 points)", worst, 1e-8))
    # S_t summed in its Lambert form and in its divisor form, the sigma_{2t-1}
    # series of weight 2t - 1 that the free energy sums at weight 1; at t = 28
    # it builds a sigma_55 table
    worst = 0.0
    for t in (1, 2, 3, 28):
        for b in (0.3, 0.7, 1.0, 1.7):
            lam = qmod.lambert_S(t, b).value
            divisor_form = qmod._divisor_series(2 * t - 1, 2 * t - 1, math.exp(-2 * math.pi * b))
            worst = max(worst, abs(divisor_form.value - lam) / abs(lam))
    out.append(_c("inversion", "Lambert form = divisor form of S_t (t=1,2,3,28)", worst, 1e-12))
    # quadrature route reproduces the q-series route
    for (t, x) in ((2, 0.7), (2, 1.3), (3, 1.0)):
        w = qmod.phi_bar_from_weyl(t, x).value
        out.append(
            _c(
                "inversion",
                f"Weyl integral = phi_bar (t={t}, x={x})",
                abs(w - qmod.phi_bar(t, x).value),
                1e-8,
            )
        )
    return out


def suite_cocycle() -> list[CheckResult]:
    out = []
    for t in range(2, 7):
        pc = pmod.pbar_cocycle(t)
        out.append(
            _exact("cocycle", f"P|(1+S) = 0 exactly, t={t}", (pc + pmod.stroke(pc, pmod.S)).is_zero())
        )
        rc = pmod.rbar_cocycle(t)
        out.append(
            _exact("cocycle", f"R|(1+S) = 0 exactly, t={t}", (rc + pmod.stroke(rc, pmod.S)).is_zero())
        )
    rng = random.Random(6174)
    letters = [pmod.S, pmod.T, pmod.T_INV]
    for t in range(2, 7):
        gens = {"S": pmod.pbar_cocycle(t), "T": pmod.p_T(t)}
        ok = True
        for _ in range(10):
            w1 = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
            w2 = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
            g2 = w2[0]
            for g in w2[1:]:
                g2 = g2 * g
            lhs = pmod.cocycle_compose(gens, w1 + w2)
            rhs = pmod.stroke(pmod.cocycle_compose(gens, w1), g2) + pmod.cocycle_compose(gens, w2)
            ok = ok and lhs.equals(rhs)
        out.append(_exact("cocycle", f"cocycle law on 10 random words, t={t}", ok))
    for t in (2, 3):
        gens = {"S": pmod.pbar_cocycle(t), "T": pmod.p_T(t)}
        z2t = zeta_even_exact(2 * t)
        disp = pmod.RationalPeriodFunction(
            pmod.Poly.monomial(2 * z2t, 2 * t), pmod.Poly([1, -1]), 2 * t - 2
        ) + pmod.pbar_cocycle(t)
        out.append(
            _exact("cocycle", f"P(TS) display exact, t={t}", pmod.cocycle_compose(gens, [pmod.T, pmod.S]).equals(disp))
        )
        disp2 = pmod.RationalPeriodFunction(
            pmod.Poly([2 * z2t]), pmod.Poly([0, 1, 1]), 2 * t - 2
        ) + pmod.stroke(pmod.pbar_cocycle(t), pmod.T)
        out.append(
            _exact("cocycle", f"P(ST) display exact, t={t}", pmod.cocycle_compose(gens, [pmod.S, pmod.T]).equals(disp2))
        )
    t = 2
    tau0 = 0.3 + 1.1j
    gap = qmod.phi_bar(t, -1j * tau0 - 1j).value - qmod.phi_bar(t, -1j * tau0).value
    out.append(
        _c(
            "cocycle",
            "P(T) matches phi_bar translation gap (variable change)",
            abs(-1j * gap - pmod.p_T(t).eval_numeric(tau0)),
            1e-10,
        )
    )
    for t in (2, 3):
        c = pmod.diff_relation_constant(t)
        out.append(
            _c(
                "cocycle",
                f"differential-relation constant c({t}) = 2^(2t+1) pi",
                abs(c - 2 ** (2 * t + 1) * math.pi) / c,
                1e-8,
            )
        )
    return out


def suite_eichler_shimura() -> list[CheckResult]:
    out = []
    for t in (2, 3, 4):
        res = pmod.eichler_shimura_check(pmod.pbar_cocycle(t))
        out.append(_exact("eichler-shimura", f"first relation holds, t={t}", res.first))
        out.append(
            _exact(
                "eichler-shimura",
                f"second (cusp-only) relation correctly violated, t={t}",
                not res.second,
            )
        )
    zero = pmod.RationalPeriodFunction.from_poly(pmod.Poly(), 4)
    res = pmod.eichler_shimura_check(zero)
    out.append(_exact("eichler-shimura", "zero cocycle satisfies both", res.first and res.second))
    return out


def suite_bol() -> list[CheckResult]:
    out = []
    ts = pmod.T * pmod.S
    for r in (0, 1, 2, 4, 6):
        ok = True
        for g in (pmod.S, pmod.T, ts):
            for k in range(0, r + 5):
                ok = ok and pmod.bol_check(pmod.Poly.monomial(1, k), g, r)
        out.append(_exact("bol", f"monomials up to degree r+4, r={r}", ok))
    return out


def suite_moments() -> list[CheckResult]:
    out = []
    z3 = zeta_odd_numeric(3)
    got = -((2 * math.pi) ** 3) * qmod.moment(2, 2).value.real
    out.append(_c("moments", "zeta(3) reconstruction from the quadrature", got - z3, 1e-9))
    for t in (4, 5, 6):
        worst = 0.0
        for j in range(1, t):
            exact = float(
                Fraction((-1) ** j) * bernoulli(2 * j) * bernoulli(2 * t - 2 * j) / (8 * j * (t - j))
            )
            worst = max(worst, abs(qmod.moment(t, 2 * j - 1).value.real - exact))
        out.append(_c("moments", f"odd-moment closed forms, all j, t={t}", worst, 1e-9))
    out.append(
        _c(
            "moments",
            "interior even moments vanish (t=4)",
            max(abs(qmod.moment(4, 2).value.real), abs(qmod.moment(4, 4).value.real)),
            1e-10,
        )
    )
    worst = max(
        abs(qmod.moment(t, 2 * t - 2).value.real - (-1) ** t * qmod.moment(t, 0).value.real)
        for t in (2, 3, 4)
    )
    out.append(_c("moments", "endpoint symmetry by inversion", worst, 1e-10))
    # self-dual-point values (weight 4 and the general even-weight formula)
    expect = 7 * math.pi ** 4 / 90 - 2 * math.pi * z3
    out.append(
        _c("moments", "lemniscate value psi_bar_4(1)", qmod.psi_bar(2, 1.0).value.real - expect, 1e-11)
    )
    for t in (2, 4):
        z2t = zeta_even_exact(2 * t).numeric()
        z2t1 = zeta_odd_numeric(2 * t - 1)
        lerch = z2t / (2 * math.pi) - z2t1 / 2 + sum(
            (-1) ** (j + 1)
            * zeta_even_exact(2 * t - 2 * j).numeric()
            * zeta_even_exact(2 * j).numeric()
            for j in range(1, t)
        ) / (2 * math.pi)
        out.append(
            _c(
                "moments",
                f"self-dual S_t(i) closed form, t={t}",
                qmod.lambert_S(t, 1.0).value.real - lerch,
                1e-10,
            )
        )
    return out


def suite_kober() -> list[CheckResult]:
    out = []
    cases = [((1, 0, 1), 1.0, "integral"), ((2, 1, 3), 1.25, "integral"), ((1, 0.3, 2), 2.0, "bound")]
    for form, w, mode in cases:
        if mode == "bound":
            d = emod.z2_direct(form, w + 0.5, tol=1e-10)
        else:
            d = emod.z2_direct(form, w + 0.5, tail="integral")
        k = emod.z2_kober(form, w)
        out.append(_c("kober", f"Bessel route = direct sum, form {form}, w={w}", d.value.real - k.value.real, 1e-9))
    for a, b, c in ((1, 0, 1), (2, 1, 3), (1, 0.3, 2)):
        f = emod.BinaryForm(a, b, c)
        fi = f.inverse()
        worst = 0.0
        for s in (0.75, 1.6):
            lhs = emod.z2_kober(f, s - 0.5).value.real
            rhs = (
                math.pi ** (2 * s - 1)
                * f.det ** -0.5
                * gamma_numeric(1 - s).real
                / gamma_numeric(s).real
                * emod.z2_kober(fi, 0.5 - s).value.real
            )
            worst = max(worst, abs(lhs - rhs))
        out.append(_c("kober", f"functional equation, form ({a},{b},{c})", worst, 1e-9))
    q = emod.z2_quartic(1.0)
    d = emod.z2_direct((1, 0, 1), 2.0, tail="integral")
    out.append(_c("kober", "quartic value at the square point", q.value.real - d.value.real, 1e-10))
    out.append(_c("kober", "quartic inversion identity residual", q.tail_bound, 1e-11))
    k = emod.z2_kober((1, 0, 1), 1.0, target_tol=1e-10)
    out.append(
        _exact("kober", f"acceleration: {k.terms} Bessel terms vs >= 10^3 direct radius", k.terms <= 20)
    )
    return out


def suite_massive() -> list[CheckResult]:
    out = []
    got = emod.zp_massive(1, 1.0, 1.0).value.real
    out.append(_c("massive", "p=1, s=1, w=1 equals pi coth pi - 1", got - (math.pi / math.tanh(math.pi) - 1), 1e-11))
    # p = 1 and 2 ask the sum for 1e-10, so the least radius's tail stays well inside the check's 1e-9
    for (p, s, w, tol) in ((1, 3.0, 1.0, 1e-10), (2, 3.0, 0.8, 1e-10), (3, 4.0, 1.3, 1e-9)):
        zb = emod.zp_brute(p, s, w, tol=tol)
        zm = emod.zp_massive(p, s, w)
        out.append(_c("massive", f"Bessel = brute force, p={p}", zb.value.real - zm.value.real, 1e-9))
    h = 0.02
    r1 = h * emod.zp_massive(2, 1 + h, 1.0).value.real
    r2 = (h / 2) * emod.zp_massive(2, 1 + h / 2, 1.0).value.real
    r4 = (h / 4) * emod.zp_massive(2, 1 + h / 4, 1.0).value.real
    extr = (2 * r4 - r2) + ((2 * r4 - r2) - (2 * r2 - r1)) / 3
    out.append(_c("massive", "continuation pole residue at s = p/2 (p=2)", extr - math.pi, 1e-6))
    return out


def suite_guinand() -> list[CheckResult]:
    out = []
    for (w, u) in ((1.5, 2.0), (0.8, 1.3), (2.5, 0.6), (1.2, 1.9), (3.5, 1.7)):
        out.append(_c("guinand", f"relation residual at (w={w}, u={u})", emod.guinand_gap(w, u), 1e-10))
    for (t, u) in ((2, 1.5), (3, 0.8)):
        lhs = emod.guinand_lhs_derivative(t, u)
        rhs = emod.guinand_lhs_bessel(t - 0.5, u)
        out.append(_c("guinand", f"derivative form = Bessel form (t={t}, u={u})", lhs - rhs, 1e-9))
    return out


def suite_dirichlet() -> list[CheckResult]:
    out = []
    for t in (2, 3):
        d = dmod.eisenstein_datum(t)
        worst = max(dmod.modular_relation_gap(d, b) for b in (1.0, 0.7, 1.9))
        out.append(_c("dirichlet", f"modular relation, weight-2t datum t={t}", worst, 1e-10))
    out.append(_c("dirichlet", "modular relation, theta datum", dmod.modular_relation_gap(dmod.theta_datum(), 0.7), 1e-10))
    d = dmod.eisenstein_datum(3)
    kernel = d.zero_modes[0] + dmod.heat_kernel(d, 1.0).value.real
    out.append(_c("dirichlet", "weight-6 kernel vanishes at the self-dual point", kernel, 1e-10))
    d = dmod.eisenstein_datum(2)
    ds = d.swapped()
    worst = max(
        max(dmod.modular_relation_gap(d, b), dmod.modular_relation_gap(ds, 1 / b)) for b in (0.6, 1.7)
    )
    out.append(_c("dirichlet", "swap/reciprocal invariance", worst, 1e-10))
    got = dmod.berndt_phi(dmod.diagonal_epstein_datum(1), 1.0, 1.0).value.real
    out.append(_c("dirichlet", "massive representation p=1 value", got - (math.pi / math.tanh(math.pi) - 1), 1e-10))
    res = {t: dmod.pole_residue(dmod.eisenstein_datum(t)) for t in (2, 3)}
    for t in (2, 3):
        out.append(
            _c("dirichlet", f"pole residue matches closed form, t={t}", res[t].residue - res[t].closed_form, 1e-8)
        )
    out.append(_c("dirichlet", "t=2 consistency value pi^4/90 = zeta(4)", res[2].residue - math.pi ** 4 / 90, 1e-8))
    return out


def suite_thermal() -> list[CheckResult]:
    out = []
    worst = max(
        abs(tmod.f3_epstein(xi).value.real - tmod.f3_modesum(xi).value.real)
        for xi in (0.3, 0.5, 0.8, 1.0, 1.7, 3.0, 5.0)
    )
    out.append(_c("thermal", "F3 route equality on the 7-point grid", worst, 1e-10))
    out.append(_c("thermal", "F3 zero-temperature limit 1/240", tmod.f3_epstein(0.02).value.real - 1 / 240, 1e-10))
    worst = max(
        abs(tmod.mode_sum_free_energy(tmod.S3_SPEC, 2 * math.pi / xi).value.real - tmod.f3_modesum(xi).value.real)
        for xi in (0.5, 1.0, 2.0)
    )
    out.append(_c("thermal", "matched-variable identity (3-sphere)", worst, 1e-10))
    beta = 3.0
    exact = 0.5 + math.log1p(-math.exp(-beta)) / beta
    out.append(
        _c("thermal", "single-oscillator closed form", tmod.mode_sum_free_energy(tmod.SINGLE_MODE, beta).value.real - exact, 1e-12)
    )
    for spec, b in ((tmod.SINGLE_MODE, 3.0), (tmod.S3_SPEC, 2 * math.pi)):
        gap = tmod.thermal_zeta_free_energy(spec, b).value.real - tmod.mode_sum_free_energy(spec, b).value.real
        out.append(_c("thermal", f"thermal-zeta route = mode sum ({spec.label})", gap, 1e-8))
    worst = 0.0
    for t in (2, 3):
        for xi in (0.7, 1.4):
            h = 1e-4
            fd = (
                tmod.free_energy_partial(t, xi + h).value.real
                - tmod.free_energy_partial(t, xi - h).value.real
            ) / (2 * h)
            worst = max(worst, abs(fd - tmod.entropy_partial(t, xi).value.real))
    out.append(_c("thermal", "entropy = d(free energy)/d(xi)", worst, 1e-7))
    return out


SUITES = {
    "inversion": suite_inversion,
    "cocycle": suite_cocycle,
    "eichler-shimura": suite_eichler_shimura,
    "bol": suite_bol,
    "moments": suite_moments,
    "kober": suite_kober,
    "massive": suite_massive,
    "guinand": suite_guinand,
    "dirichlet": suite_dirichlet,
    "thermal": suite_thermal,
}


def suite_names() -> list[str]:
    return list(SUITES) + ["all"]


def run_suites(names) -> list[CheckResult]:
    if isinstance(names, str):
        names = [names]
    for name in names:
        if name not in suite_names():
            raise DomainError(f"unknown suite {name!r}; choose from {', '.join(suite_names())}")
    todo = list(SUITES) if "all" in names else names
    return [result for name in todo for result in SUITES[name]()]

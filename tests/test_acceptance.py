"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""
import csv
import math
import os
import random
from fractions import Fraction

from modzeta import dirichlet as dmod
from modzeta import epstein as emod
from modzeta import periodpoly as pmod
from modzeta import qseries as qmod
from modzeta import thermal as tmod
from modzeta.exactnum import (
    alternating_zeta,
    bernoulli,
    gamma_numeric,
    zeta_even_exact,
    zeta_odd_numeric,
)

_BENCH_ARTIFACT = os.path.join(os.path.dirname(__file__), "..", "bench", "kober_vs_direct.csv")


def _report(n: int, label: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{mark}] criterion {n}: {label}{suffix}")
    assert ok, f"criterion {n} failed: {label} {suffix}"


def test_criterion_01_zeta3_reconstruction():
    # quadrature route -(2 pi)^3 int b^2 eps_2_sub db vs the accelerated
    # alternating series for zeta(3)
    quad_route = -((2 * math.pi) ** 3) * qmod.moment(2, 2).value.real
    series_route = alternating_zeta(3.0) / (1.0 - 0.25)
    diff = abs(quad_route - series_route)
    _report(1, "zeta(3) reconstruction from the moment quadrature", diff < 1e-9, f"|diff| = {diff:.2e}")


def test_criterion_02_moment_identities():
    worst = 0.0
    for t in (4, 5, 6):
        for j in range(1, t):
            exact = float(
                Fraction((-1) ** j) * bernoulli(2 * j) * bernoulli(2 * t - 2 * j) / (8 * j * (t - j))
            )
            worst = max(worst, abs(qmod.moment(t, 2 * j - 1).value.real - exact))
    _report(2, "moment identities for t in {4,5,6}, all interior j", worst < 1e-9, f"worst = {worst:.2e}")


def test_criterion_03_lemniscate_and_lerch_values():
    expect = 7 * math.pi ** 4 / 90 - 2 * math.pi * zeta_odd_numeric(3)
    d1 = abs(qmod.psi_bar(2, 1.0).value.real - expect)
    worst = 0.0
    for t in (2, 4):
        lerch = (
            zeta_even_exact(2 * t).numeric() / (2 * math.pi)
            - zeta_odd_numeric(2 * t - 1) / 2
            + sum(
                (-1) ** (j + 1)
                * zeta_even_exact(2 * t - 2 * j).numeric()
                * zeta_even_exact(2 * j).numeric()
                for j in range(1, t)
            )
            / (2 * math.pi)
        )
        worst = max(worst, abs(qmod.lambert_S(t, 1.0).value.real - lerch))
    _report(
        3,
        "lemniscate value to 1e-11 and the self-dual closed form for t in {2,4}",
        d1 < 1e-11 and worst < 1e-10,
        f"psi_bar gap {d1:.2e}, S_t gap {worst:.2e}",
    )


def test_criterion_04_exact_cocycle_algebra():
    ok = True
    for t in range(2, 7):
        pc = pmod.pbar_cocycle(t)
        ok = ok and (pc + pmod.stroke(pc, pmod.S)).is_zero()
    rng = random.Random(8128)
    letters = [pmod.S, pmod.T, pmod.T_INV]
    words_checked = 0
    for t in range(2, 7):
        gens = {"S": pmod.pbar_cocycle(t), "T": pmod.p_T(t)}
        for _ in range(10):
            w1 = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
            w2 = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
            g2 = w2[0]
            for g in w2[1:]:
                g2 = g2 * g
            lhs = pmod.cocycle_compose(gens, w1 + w2)
            rhs = pmod.stroke(pmod.cocycle_compose(gens, w1), g2) + pmod.cocycle_compose(gens, w2)
            ok = ok and lhs.equals(rhs)
            words_checked += 1
    for t in (2, 3):
        gens = {"S": pmod.pbar_cocycle(t), "T": pmod.p_T(t)}
        z2t = zeta_even_exact(2 * t)
        disp = pmod.RationalPeriodFunction(
            pmod.Poly.monomial(2 * z2t, 2 * t), pmod.Poly([1, -1]), 2 * t - 2
        ) + pmod.pbar_cocycle(t)
        ok = ok and pmod.cocycle_compose(gens, [pmod.T, pmod.S]).equals(disp)
        disp2 = pmod.RationalPeriodFunction(
            pmod.Poly([2 * z2t]), pmod.Poly([0, 1, 1]), 2 * t - 2
        ) + pmod.stroke(pmod.pbar_cocycle(t), pmod.T)
        ok = ok and pmod.cocycle_compose(gens, [pmod.S, pmod.T]).equals(disp2)
    _report(
        4,
        "exact cocycle algebra (antisymmetry, 50 random words, TS/ST displays)",
        ok,
        f"{words_checked} words, zero tolerance",
    )


def test_criterion_05_bol_identity():
    ok = True
    ts = pmod.T * pmod.S
    for r in (0, 1, 2, 4, 6):
        for g in (pmod.S, pmod.T, ts):
            for k in range(0, r + 5):
                ok = ok and pmod.bol_check(pmod.Poly.monomial(1, k), g, r)
    _report(5, "Bol identity, exact, monomials to r+4 for r in {0,1,2,4,6}", ok)


def test_criterion_06_inversion_translation_suite():
    rng = random.Random(1861)
    worst = 0.0
    for t in range(2, 7):
        for _ in range(20):
            b = rng.uniform(0.2, 5.0)
            scale = max(1.0, abs(qmod.eps(t, b).value) * b ** (2 * t))
            worst = max(
                worst,
                abs(qmod.eps(t, 1 / b).value - (-1) ** t * b ** (2 * t) * qmod.eps(t, b).value) / scale,
                abs(qmod.eps_sub(t, 1 / b).value - (-1) ** t * b ** (2 * t) * qmod.eps_sub(t, b).value) / scale,
            )
    for t in (2, 3, 4):
        x = 1.3
        gap = qmod.phi_bar(t, x - 1j).value - qmod.phi_bar(t, x).value
        pred = -2j * zeta_even_exact(2 * t).numeric() / (x * (x - 1j))
        worst = max(worst, abs(gap - pred))
        worst = max(worst, abs(qmod.psi_bar(t, (1.1 + 0.4j) - 1j).value - qmod.psi_bar(t, 1.1 + 0.4j).value))
    for (t, x) in ((2, 0.9), (3, 1.4), (4, 0.7), (2, 1.6)):
        gphi = (
            qmod.phi_bar(t, x).value
            - (-1) ** (t - 1) * x ** (2 * t - 2) * qmod.phi_bar(t, 1 / x).value
        )
        worst = max(worst, abs(gphi - pmod.pbar(t).eval_numeric(x)))
        gpsi = (
            qmod.psi_bar(t, x).value
            - (-1) ** (t - 1) * x ** (2 * t - 2) * qmod.psi_bar(t, 1 / x).value
        )
        worst = max(worst, abs(gpsi - pmod.rbar(t).eval_numeric(x)))
    _report(6, "inversion/translation/periodicity and both cocycle-gap identities", worst < 1e-10, f"worst = {worst:.2e}")


def test_criterion_07_mellin_oracle_15_points():
    worst = 0.0
    points = 0
    for t in (2, 3, 4):
        for b in (0.4, 0.7, 1.0, 1.6, 2.5):
            worst = max(worst, abs(qmod.mellin_eps_sub(t, b).value - qmod.eps_sub(t, b).value))
            points += 1
    _report(7, f"Mellin-contour oracle vs q-series on {points} (t,b) points", worst < 1e-8, f"worst = {worst:.2e}")


def test_criterion_08_epstein_suite():
    d1 = abs(
        emod.z2_direct((1, 0, 1), 1.5, tail="integral").value
        - emod.z2_kober((1, 0, 1), 1.0).value
    )
    d2 = abs(
        emod.z2_direct((2, 1, 3), 1.75, tail="integral").value
        - emod.z2_kober((2, 1, 3), 1.25).value
    )
    d3 = abs(
        emod.z2_direct((1, 0.3, 2), 2.5, tol=1e-10).value
        - emod.z2_kober((1, 0.3, 2), 2.0).value
    )
    kober_ok = max(d1, d2, d3) < 1e-9
    fe_worst = 0.0
    for a, b, c in ((1, 0, 1), (2, 1, 3), (1, 0.3, 2)):
        f = emod.BinaryForm(a, b, c)
        for s in (0.75, 1.6):
            lhs = emod.z2_kober(f, s - 0.5).value.real
            rhs = (
                math.pi ** (2 * s - 1)
                * f.det ** -0.5
                * gamma_numeric(1 - s).real
                / gamma_numeric(s).real
                * emod.z2_kober(f.inverse(), 0.5 - s).value.real
            )
            fe_worst = max(fe_worst, abs(lhs - rhs))
    quartic = emod.z2_quartic(1.3)  # asserts the inversion identity at 1e-11
    grid_worst = max(
        abs(tmod.f3_epstein(xi).value.real - tmod.f3_modesum(xi).value.real)
        for xi in (0.3, 0.5, 0.8, 1.0, 1.7, 3.0, 5.0)
    )
    limit = abs(tmod.f3_epstein(0.02).value.real - 1.0 / 240.0)
    ok = kober_ok and fe_worst < 1e-9 and quartic.tail_bound < 1e-11 and grid_worst < 1e-10 and limit < 1e-10
    _report(
        8,
        "Epstein: Bessel=direct (3 forms), functional equation, quartic identity, F3 routes, 1/240 limit",
        ok,
        f"kober {max(d1, d2, d3):.1e}, freln {fe_worst:.1e}, F3 grid {grid_worst:.1e}, limit {limit:.1e}",
    )


def test_criterion_09_massive_epstein():
    worst = 0.0
    for (p, s, w) in ((1, 3.0, 1.0), (2, 3.0, 0.8), (3, 4.0, 1.3)):
        zb = emod.zp_brute(p, s, w, tol=1e-9)
        worst = max(worst, abs(zb.value.real - emod.zp_massive(p, s, w).value.real))
    closed = abs(emod.zp_massive(1, 1.0, 1.0).value.real - (math.pi / math.tanh(math.pi) - 1))
    _report(
        9,
        "massive Epstein: Bessel = brute force (p=1,2,3) and the p=1 closed form",
        worst < 1e-9 and closed < 1e-11,
        f"brute worst {worst:.1e}, closed form {closed:.1e}",
    )


def test_criterion_10_guinand():
    worst = max(
        abs(emod.guinand_gap(w, u))
        for (w, u) in ((1.5, 2.0), (0.8, 1.3), (2.5, 0.6), (1.2, 1.9), (3.5, 1.7))
    )
    deriv_worst = max(
        abs(emod.guinand_lhs_derivative(t, u) - emod.guinand_lhs_bessel(t - 0.5, u))
        for (t, u) in ((2, 1.5), (3, 0.8))
    )
    _report(
        10,
        "Guinand relation at 5 points and the derivative-form equivalence",
        worst < 1e-10 and deriv_worst < 1e-9,
        f"relation {worst:.1e}, derivative form {deriv_worst:.1e}",
    )


def test_criterion_11_dirichlet_framework():
    worst = 0.0
    for t in (2, 3):
        d = dmod.eisenstein_datum(t)
        worst = max(worst, max(dmod.modular_relation_gap(d, b) for b in (0.7, 1.0, 1.9)))
    worst = max(worst, dmod.modular_relation_gap(dmod.theta_datum(), 0.7))
    d = dmod.eisenstein_datum(3)
    self_dual = abs(d.zero_modes[0] + dmod.heat_kernel(d, 1.0).value.real)
    res_worst = 0.0
    for t in (2, 3):
        res = dmod.pole_residue(dmod.eisenstein_datum(t))
        res_worst = max(res_worst, abs(res.residue - res.closed_form))
    consistency = abs(dmod.pole_residue(dmod.eisenstein_datum(2)).residue - math.pi ** 4 / 90)
    _report(
        11,
        "Dirichlet framework: modular relation, weight-6 vanishing, pole residues",
        worst < 1e-10 and self_dual < 1e-10 and res_worst < 1e-8 and consistency < 1e-8,
        f"gaps {worst:.1e}, self-dual {self_dual:.1e}, residues {res_worst:.1e}",
    )


def test_criterion_12_thermal():
    matched = max(
        abs(
            tmod.mode_sum_free_energy(tmod.S3_SPEC, 2 * math.pi / xi).value.real
            - tmod.f3_modesum(xi).value.real
        )
        for xi in (0.5, 1.0, 2.0)
    )
    tz = max(
        abs(
            tmod.thermal_zeta_free_energy(spec, b).value.real
            - tmod.mode_sum_free_energy(spec, b).value.real
        )
        for (spec, b) in ((tmod.SINGLE_MODE, 3.0), (tmod.S3_SPEC, 2 * math.pi))
    )
    beta = 3.0
    single = abs(
        tmod.mode_sum_free_energy(tmod.SINGLE_MODE, beta).value.real
        - (0.5 + math.log1p(-math.exp(-beta)) / beta)
    )
    _report(
        12,
        "thermal: matched-variable identity, thermal-zeta route, single oscillator",
        matched < 1e-10 and tz < 1e-8 and single < 1e-12,
        f"matched {matched:.1e}, zeta-route {tz:.1e}, oscillator {single:.1e}",
    )


def test_criterion_13_acceleration_and_artifact():
    k = emod.z2_kober((1, 0, 1), 2.5, target_tol=1e-8)  # u = 1
    d = emod.z2_direct((1, 0, 1), 3.0, tol=1e-8)
    direct_points = d.terms
    ratio = direct_points / max(k.terms, 1)
    # both sides carry certified tails at the 1e-8 level
    agree = abs(k.value.real - d.value.real) <= k.tail_bound + d.tail_bound
    artifact_ok = os.path.exists(_BENCH_ARTIFACT)
    if artifact_ok:
        with open(_BENCH_ARTIFACT, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        by_method = {}
        for row in rows:
            if abs(float(row["tolerance"]) - 1e-8) < 1e-12:
                by_method[row["method"]] = float(row["points"])
        artifact_ok = bool(by_method) and by_method["direct"] >= 100 * by_method["kober"]
    _report(
        13,
        "Bessel acceleration >= 100x fewer terms at 1e-8 (u >= 1), bench artifact present",
        ratio >= 100 and agree and artifact_ok,
        f"{k.terms} Bessel terms vs {direct_points} lattice points (x{ratio:.0f})",
    )

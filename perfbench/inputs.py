"""Seeded inputs for the route-sweep and cli-oneshot workloads.

Pure Python: nothing here imports modzeta, so the inputs (and their
lattice-point budgets) can be generated and checked without running the
program.  The same seed always gives the same list.
"""
from __future__ import annotations

import math
import random

# Direct lattice sums must stay under this many points.  z2_direct with
# tail="integral" uses radius 600, i.e. 1201^2 - 1 = 1,442,400 points.
POINT_BUDGET = 1_500_000
Z2_INTEGRAL_RADIUS = 600
ZP_BRUTE_MAX_RADIUS = 4000
ZP_BRUTE_INTEGRAL_RADIUS = {1: 1200, 2: 500}

# route-sweep request families.  Every block of BLOCK requests holds one
# request of each family, in seeded order.  Equal shares are an assumption:
# nothing in the repo says how often a user calls each route, so no family
# is weighted above another.  Only the parameters and the order vary with
# the seed, so the mix of cheap and expensive routes is the same for every
# seed.
FAMILIES = (
    "eps_inversion",
    "mellin_oracle",
    "weyl_phi_bar",
    "kober_direct",
    "kober_feq",
    "massive_brute",
    "massive_berndt",
    "guinand_gap",
    "guinand_derivative",
    "modular_relation",
    "pole_residue",
    "f3_routes",
    "thermal_zeta",
    "entropy_fd",
)
BLOCK = len(FAMILIES)

DATA = ("eisenstein2", "eisenstein3", "theta", "diagonal1", "diagonal2", "diagonal3")
SPECTRA = ("s3", "single-mode")

CLI_QUANTITIES = ("eps", "psi_bar", "mellin_eps_sub", "pbar", "z2_kober", "zp_massive", "f3", "mode_sum_F")
CLI_FORMATS = ("text", "json", "csv")


def _r(x: float) -> float:
    """Round to 6 significant digits, so a value prints and parses exactly."""
    return float(f"{x:.6g}")


class Draws:
    """Balanced seeded draws.  Every discrete choice, and every quarter of
    every continuous range, is dealt from its own shuffled deck, so each
    comes up equally often over every pass through the deck.  Only the
    order and the point inside a quarter are random, which keeps the cost
    of a run nearly the same from seed to seed."""

    STRATA = 4

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict[str, list] = {}

    def choice(self, key: str, items):
        deck = self.decks.get(key)
        if not deck:
            deck = self.decks[key] = list(items)
            self.rng.shuffle(deck)
        return deck.pop()

    def int(self, key: str, lo: int, hi: int) -> int:
        return self.choice(key, range(lo, hi + 1))

    def uniform(self, key: str, lo: float, hi: float) -> float:
        k = self.choice(key, range(self.STRATA))
        return _r(lo + (hi - lo) * (k + self.rng.random()) / self.STRATA)


def _form(d: Draws, key: str) -> tuple[float, float, float]:
    a = d.uniform(key + ".a", 0.8, 2.5)
    c = d.uniform(key + ".c", 0.8, 3.0)
    b = _r(d.uniform(key + ".b", -0.45, 0.45) * math.sqrt(a * c))
    return (a, b, c)


def _feq_order(d: Draws) -> float:
    """A Bessel order w = s - 1/2 at least 0.05 away from every multiple of
    1/2, so z2_kober takes its non-half-integer (quadrature K_nu) path."""
    while True:
        w = d.uniform("kober_feq.w", 0.05, 1.45)
        if abs(2 * w - round(2 * w)) >= 0.1:
            return w


def _guinand_order(d: Draws) -> float:
    """A w for guinand_gap that is not an integer.  At integer w the
    program's xi_completed(-2w) meets the gamma pole at -w and raises
    SingularityError; the completed xi has a finite limit there that it
    does not take.  Near-integer w is kept: it stays within tolerance."""
    while True:
        w = d.uniform("guinand_gap.w", 0.8, 3.5)
        if w != round(w):
            return w


def zp_brute_radius(p: int, s: float, tol: float) -> int:
    """The radius zp_brute(p, s, w, tol) picks with its shell bound,
    recomputed from the parameters alone.  zp_brute refuses radii past
    ZP_BRUTE_MAX_RADIUS; such a radius is returned as is."""
    const = 2 * p * 3 ** (p - 1)

    def bound(r):
        r1 = r + 1
        return const * (r1 ** (p - 1 - 2 * s) + r1 ** (p - 2 * s) / (2 * s - p))

    radius = 8
    while bound(radius) > tol and radius <= ZP_BRUTE_MAX_RADIUS:
        radius *= 2
    return radius


def lattice_points(req: dict) -> int:
    """Points a request's direct lattice sum visits (0 if it has none)."""
    fam = req["family"]
    if fam == "kober_direct" or (fam == "cli" and req["argv"][1] == "z2_kober"):
        return (2 * Z2_INTEGRAL_RADIUS + 1) ** 2 - 1
    if fam == "massive_brute":
        p = req["p"]
        if req["tail"] == "integral":
            r = ZP_BRUTE_INTEGRAL_RADIUS[p]
        else:
            r = zp_brute_radius(p, req["s"], req["tol"])
        return (2 * r + 1) ** p - 1
    return 0


def _request(fam: str, d: Draws) -> dict:
    def u(name, lo, hi):
        return d.uniform(f"{fam}.{name}", lo, hi)

    def i(name, lo, hi):
        return d.int(f"{fam}.{name}", lo, hi)

    if fam == "eps_inversion":
        return dict(t=i("t", 2, 6), b=(u("re", 0.4, 2.5), u("im", -0.5, 0.5)))
    if fam == "mellin_oracle":
        return dict(t=i("t", 2, 6), b=u("b", 0.4, 2.5))
    if fam == "weyl_phi_bar":
        return dict(t=i("t", 2, 3), x=u("x", 0.6, 1.5))
    if fam == "kober_direct":
        return dict(form=_form(d, fam), w=u("w", 0.9, 1.6))
    if fam == "kober_feq":
        return dict(form=_form(d, fam), s=_r(0.5 + _feq_order(d)))
    if fam == "massive_brute":
        # p <= 2: the integral tail (fixed radius); p = 3: the certified
        # shell bound, with s >= 5 so the radius stays <= 32, and w >= 0.8
        # where zp_massive still certifies 1e-11 at s <= 6
        p = i("p", 1, 3)
        if p < 3:
            return dict(p=p, s=_r(p / 2 + u("s", 1.2, 4.0)), w=u("w", 0.5, 1.5), tail="integral", tol=1e-9)
        return dict(p=p, s=u("s3", 5.0, 6.0), w=u("w3", 0.8, 1.5), tail="bound", tol=1e-9)
    if fam == "massive_berndt":
        # zp_massive certifies its default 1e-11 at w >= 0.2 only up to
        # s - p/2 = 2.3, 1.5, 1.1 for p = 1, 2, 3
        p = i("p", 1, 3)
        return dict(p=p, s=_r(p / 2 + u(f"s{p}", 0.3, (2.3, 1.5, 1.1)[p - 1])), w=u("w", 0.2, 0.3))
    if fam == "guinand_gap":
        return dict(w=_guinand_order(d), u=u("u", 0.6, 2.0))
    if fam == "guinand_derivative":
        return dict(t=i("t", 2, 3), u=u("u", 0.6, 2.0))
    if fam == "modular_relation":
        return dict(datum=d.choice(f"{fam}.datum", DATA), beta=u("beta", 0.6, 1.9))
    if fam == "pole_residue":
        return dict(t=i("t", 2, 3))
    if fam == "f3_routes":
        return dict(xi=u("xi", 0.3, 5.0))
    if fam == "thermal_zeta":
        return dict(spectrum=d.choice(f"{fam}.spectrum", SPECTRA), beta=u("beta", 1.0, 8.0))
    if fam == "entropy_fd":
        return dict(t=i("t", 2, 3), xi=u("xi", 0.6, 1.6))
    raise KeyError(fam)


def iter_route_blocks(seed: int):
    """Endless stream of route-sweep blocks: each a list of BLOCK
    paired-route requests, one of each family, in seeded order."""
    rng = random.Random(f"route-sweep/{seed}")
    draws = Draws(rng)
    while True:
        fams = list(FAMILIES)
        rng.shuffle(fams)
        block = []
        for fam in fams:
            req = _request(fam, draws)
            req["family"] = fam
            block.append(req)
        yield block


def route_requests(seed: int, blocks: int) -> list[dict]:
    """The first `blocks` blocks of the route-sweep stream, flattened."""
    stream = iter_route_blocks(seed)
    return [req for _ in range(blocks) for req in next(stream)]


def warmup_requests(seed: int) -> list[dict]:
    """One request of each family, drawn apart from the measured stream."""
    draws = Draws(random.Random(f"route-sweep-warmup/{seed}"))
    out = []
    for fam in FAMILIES:
        req = _request(fam, draws)
        req["family"] = fam
        out.append(req)
    return out


def _cli_argv(q: str, d: Draws) -> list[str]:
    def u(name, lo, hi):
        return repr(d.uniform(f"cli.{q}.{name}", lo, hi))

    def i(name, lo, hi):
        return str(d.int(f"cli.{q}.{name}", lo, hi))

    if q == "eps":
        args = ["--t", i("t", 2, 6), "--b", f"{u('re', 0.4, 2.5)},{u('im', -0.5, 0.5)}"]
    elif q == "psi_bar":
        args = ["--t", i("t", 2, 4), "--b", f"{u('re', 0.6, 2.5)},{u('im', -0.5, 0.5)}"]
    elif q == "mellin_eps_sub":
        args = ["--t", i("t", 2, 5), "--b", u("b", 0.4, 2.5)]
    elif q == "pbar":
        args = ["--t", i("t", 2, 6), "--x", u("x", 0.5, 1.8)]
    elif q == "z2_kober":
        args = ["--form", ",".join(repr(v) for v in _form(d, "cli.z2_kober")), "--w", u("w", 0.9, 1.6)]
    elif q == "zp_massive":
        p = d.int("cli.zp_massive.p", 1, 3)
        args = ["--p", str(p), "--s", repr(_r(p / 2 + d.uniform("cli.zp_massive.s", 0.3, 1.8))),
                "--w", u("w", 0.3, 1.5)]
    elif q == "f3":
        args = ["--xi", u("xi", 0.3, 5.0)]
    elif q == "mode_sum_F":
        args = ["--spectrum", d.choice("cli.mode_sum_F.spectrum", SPECTRA), "--beta", u("beta", 1.0, 8.0)]
    else:
        raise KeyError(q)
    return ["eval", q, *args, "--format", d.choice(f"cli.{q}.format", CLI_FORMATS)]


def iter_cli_rounds(seed: int):
    """Endless stream of cli-oneshot rounds: each one `modzeta eval`
    command per quantity, in seeded order."""
    rng = random.Random(f"cli-oneshot/{seed}")
    draws = Draws(rng)
    while True:
        qs = list(CLI_QUANTITIES)
        rng.shuffle(qs)
        yield [{"family": "cli", "argv": _cli_argv(q, draws)} for q in qs]


def cli_commands(seed: int, rounds: int) -> list[dict]:
    """The first `rounds` rounds of the cli-oneshot stream, flattened."""
    stream = iter_cli_rounds(seed)
    return [cmd for _ in range(rounds) for cmd in next(stream)]

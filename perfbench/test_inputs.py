"""Self-test of the benchmark's inputs and statistics; runs without modzeta.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import inputs
import pytest
import run

SEEDS = (0, 1, 7, 2024, 99991)


@pytest.mark.parametrize("seed", SEEDS)
def test_route_requests_are_seeded(seed):
    assert inputs.route_requests(seed, 3) == inputs.route_requests(seed, 3)
    assert inputs.route_requests(seed, 3) != inputs.route_requests(seed + 1, 3)
    # a shorter run replays a prefix of a longer one (the traced run relies on it)
    assert inputs.route_requests(seed, 5)[: 3 * inputs.BLOCK] == inputs.route_requests(seed, 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_commands_are_seeded(seed):
    assert inputs.cli_commands(seed, 4) == inputs.cli_commands(seed, 4)
    assert inputs.cli_commands(seed, 4) != inputs.cli_commands(seed + 1, 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_family_in_every_block(seed):
    reqs = inputs.route_requests(seed, 4)
    for b in range(4):
        block = reqs[b * inputs.BLOCK:(b + 1) * inputs.BLOCK]
        assert sorted(r["family"] for r in block) == sorted(inputs.FAMILIES)
    assert {r["family"] for r in inputs.warmup_requests(seed)} == set(inputs.FAMILIES)
    for rnd in range(3):
        argvs = [c["argv"] for c in inputs.cli_commands(seed, 3)[rnd * 8:(rnd + 1) * 8]]
        assert sorted(a[1] for a in argvs) == sorted(inputs.CLI_QUANTITIES)
        assert all(a[0] == "eval" and a[-2] == "--format" for a in argvs)


@pytest.mark.parametrize("seed", SEEDS)
def test_direct_lattice_sums_stay_under_budget(seed):
    sums = [r for r in inputs.route_requests(seed, 20) if r["family"] in ("kober_direct", "massive_brute")]
    sums += inputs.cli_commands(seed, 20)
    assert any(r["family"] == "massive_brute" and r["p"] == 3 for r in sums)
    for req in sums:
        assert inputs.lattice_points(req) <= inputs.POINT_BUDGET, req
        if req["family"] == "massive_brute" and req["tail"] == "bound":
            assert inputs.zp_brute_radius(req["p"], req["s"], req["tol"]) <= inputs.ZP_BRUTE_MAX_RADIUS


@pytest.mark.parametrize("seed", SEEDS + (3005,))
def test_guinand_gap_avoids_integer_orders(seed):
    # seed 3005 once drew w = 1.0, where guinand_gap raises SingularityError
    ws = [r["w"] for r in inputs.route_requests(seed, 120) if r["family"] == "guinand_gap"]
    assert len(ws) == 120 and all(w != round(w) for w in ws)


def test_budget_rejects_the_oversized_p3_sum():
    # verify's own p=3 case would need radius 128 (2.1e7 points) and a slow
    # exponent radius 2048 or more (6.9e10 points): both are over budget
    big = dict(family="massive_brute", p=3, s=4.0, tail="bound", tol=1e-9)
    assert inputs.zp_brute_radius(3, 4.0, 1e-9) == 128
    assert inputs.lattice_points(big) > inputs.POINT_BUDGET
    slow = dict(big, s=1.8)
    assert inputs.zp_brute_radius(3, 1.8, 1e-9) > inputs.ZP_BRUTE_MAX_RADIUS
    assert inputs.lattice_points(slow) > 6.9e10


def test_cli_arguments_round_trip():
    for cmd in inputs.cli_commands(5, 10):
        for tok in cmd["argv"]:
            for part in tok.split(","):
                try:
                    x = float(part)
                except ValueError:
                    continue
                assert repr(x) == part or str(int(x)) == part


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = [float(i) for i in range(1, 101)]
    value, pct, n = run.tail(xs)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(x > value for x in xs) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_importtime_scipy_counts_top_level_scipy_only():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     numpy.x",
        "import time:       400 |        750 |   scipy.special",
        "import time:        10 |       1060 | modzeta.qseries",
        "import time:        20 |         20 | scipy.integrate",
    ])
    assert run._importtime_scipy(stderr) == pytest.approx((300 + 750 + 20) * 1e-6)

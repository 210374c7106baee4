"""CLI surface: output formats, exit codes, determinism."""
import ast
import contextlib
import csv
import importlib
import io
import json
import math
import pkgutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modzeta
from modzeta.cli import QUANTITIES, main
from modzeta.errors import DomainError


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def test_eval_psi_bar_json(capsys):
    code = main(["eval", "psi_bar", "--t", "2", "--b", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    expect = 7 * math.pi ** 4 / 90 - 2 * math.pi * 1.2020569031595943
    assert abs(float(doc["value"]["re"]) - expect) < 1e-11
    assert float(doc["est_error"]) <= 1e-11
    assert doc["truncation"]["terms"] > 0


def test_eval_eps_inversion_fixed_point(capsys):
    code = main(["eval", "eps", "--t", "3", "--b", "1"])
    out = capsys.readouterr().out
    assert code == 0
    value_line = [ln for ln in out.splitlines() if "value" in ln][0]
    val = float(value_line.split("=")[1].split("+")[0])
    err_line = [ln for ln in out.splitlines() if "est_error" in ln][0]
    err = float(err_line.split("=")[1])
    assert abs(val) <= max(err, 1e-15)


def test_eval_massive_value(capsys):
    code = main(["eval", "zp_massive", "--p", "1", "--s", "1", "--w", "1", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(float(doc["value"]["re"]) - (math.pi / math.tanh(math.pi) - 1)) < 1e-11


def test_eval_exact_polynomial(capsys):
    code = main(["eval", "pbar", "--t", "2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["exact"]["0"] == "(-2)*pi*zeta(3)"
    assert doc["exact"]["1"] == "(1/9)*pi^4"


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv,name",
    [
        ("table period-polynomials", "table-period-polynomials.csv"),
        ("table period-polynomials --format json", "table-period-polynomials.json"),
        ("table lerch-values", "table-lerch-values.csv"),
        ("table lerch-values --format json", "table-lerch-values.json"),
        ("eval pbar --t 3 --x 0.9", "eval-pbar-t3-x0.9.txt"),
        ("eval pbar --t 3 --x 0.9 --format json", "eval-pbar-t3-x0.9.json"),
        ("eval rbar --t 2 --x 0.7", "eval-rbar-t2-x0.7.txt"),
        ("eval rbar --t 2 --x 0.7 --format json", "eval-rbar-t2-x0.7.json"),
        ("eval rbar --t 5 --format csv", "eval-rbar-t5.csv"),
        # q-series and thermal routes that never add and subtract the Casimir constant
        ("eval eps --t 3 --b 0.8,0.2", "eval-eps-t3-b0.8_0.2.txt"),
        ("eval S --t 2 --b 0.6 --format json", "eval-S-t2-b0.6.json"),
        ("eval psi_bar --t 600 --b 1", "eval-psi_bar-t600-b1.txt"),
        ("eval phi_bar --t 2 --b 0.6 --format csv", "eval-phi_bar-t2-b0.6.csv"),
        ("eval free_energy --t 100 --xi 1 --format json", "eval-free_energy-t100-xi1.json"),
        ("eval f3 --xi 1.7", "eval-f3-xi1.7.txt"),
        ("eval z2_quartic --xi 0.8", "eval-z2_quartic-xi0.8.txt"),
        ("table f3-grid", "table-f3-grid.csv"),
        # pure Python too: the pole-residue and modular-relation residuals
        ("verify dirichlet --format csv", "verify-dirichlet.csv"),
        # and every other suite that loads no numpy (kober and massive sum lattices with it)
        ("verify inversion --format csv", "verify-inversion.csv"),
        ("verify cocycle --format csv", "verify-cocycle.csv"),
        ("verify eichler-shimura --format csv", "verify-eichler-shimura.csv"),
        ("verify bol --format csv", "verify-bol.csv"),
        ("verify moments --format csv", "verify-moments.csv"),
        ("verify guinand --format csv", "verify-guinand.csv"),
        ("verify thermal --format csv", "verify-thermal.csv"),
    ],
)
def test_exact_algebra_outputs_are_byte_identical(argv, name, capsys):
    # the full stdout, byte for byte: the period-polynomial commands, the
    # pure-Python q-series routes and the numpy-free verify suites
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def test_eval_complex_b(capsys):
    code = main(["eval", "eps_sub", "--t", "2", "--b", "1.1,-0.3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["params"]["b"] == [1.1, -0.3]


def test_unknown_quantity_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "not-a-thing"])
    assert exc.value.code == 2


def test_missing_parameter_exits_2(capsys):
    assert main(["eval", "eps"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "eps", "--t", "2", "--b", "abc"],
        ["eval", "eps", "--t", "2", "--b", "1,zz"],
        ["eval", "mellin_eps_sub", "--t", "2", "--b", "q"],
        ["eval", "z2_kober", "--form", "1,a,2", "--w", "1"],
        ["eval", "eps", "--t", "two", "--b", "1"],
        ["eval", "zp_massive", "--p", "1", "--s", "x", "--w", "1"],
    ],
)
def test_unparsable_number_exits_2(argv, capsys):
    # typed flags fail inside argparse (SystemExit), the rest in main
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "error" in err


def test_convergence_failure_exits_3(capsys):
    # certified direct mode cannot reach 1e-12 at s = 1.5
    assert main(["eval", "z2", "--form", "1,0,1", "--s", "1.2", "--tol", "1e-14"]) in (2, 3)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "free_energy", "--t", "2", "--xi", "1e5"],
        ["eval", "f3", "--xi", "1e-5"],
        ["eval", "mode_sum_F", "--beta", "1e-9"],
        ["eval", "z2", "--form", "1,0,1", "--s", "1.0000001"],
    ],
)
def test_non_convergence_exits_3_without_traceback(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and err.startswith("error:")


def test_verify_exit_zero_and_report(capsys):
    code = main(["verify", "bol"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "0 failed" in out


def test_verify_json_format(capsys):
    code = main(["verify", "eichler-shimura", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(item["passed"] for item in doc)


def test_table_lerch(capsys):
    code = main(["table", "lerch-values"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(-2)*pi*zeta(3) + (7/90)*pi^4" in out


def test_table_moments_exact_column(capsys):
    code = main(["table", "moments"])
    out = capsys.readouterr().out
    assert code == 0
    # row (t=5, k=3) carries the exact rational -1/60480
    assert any(ln.startswith("5,3,") and "-1/60480" in ln for ln in out.splitlines())


def test_table_period_polynomials(capsys):
    code = main(["table", "period-polynomials"])
    out = capsys.readouterr().out
    assert code == 0
    assert any(ln.startswith("2,0,") and "(-2)*pi*zeta(3)" in ln for ln in out.splitlines())


def test_table_f3_grid_columns_agree(capsys):
    code = main(["table", "f3-grid"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    for ln in out[1:]:
        parts = ln.split(",")
        assert abs(float(parts[3])) < 1e-10


def test_eval_determinism(capsys):
    main(["eval", "phi_bar", "--t", "2", "--b", "0.8", "--format", "json"])
    first = capsys.readouterr().out
    main(["eval", "phi_bar", "--t", "2", "--b", "0.8", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_bench_csv_shape(capsys):
    code = main(["bench", "qseries-vs-mellin"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "tolerance,method,terms_or_radius,points,wall_time_s,value"
    assert len(out) == 11  # header + 5 tolerances x 2 methods


@pytest.mark.parametrize("target", ["kober-vs-direct", "massive-vs-direct", "qseries-vs-mellin"])
def test_committed_bench_csv_is_what_bench_writes(target, capsys):
    # every column but the single-shot timing, to the bit
    assert main(["bench", target]) == 0
    fresh = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    committed_path = Path(__file__).resolve().parents[1] / "bench" / f"{target.replace('-', '_')}.csv"
    committed = list(csv.reader(io.StringIO(committed_path.read_text(encoding="utf-8"))))
    timing = fresh[0].index("wall_time_s")
    assert [row[:timing] + row[timing + 1:] for row in fresh] == [
        row[:timing] + row[timing + 1:] for row in committed
    ]


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "modzeta.cli", "eval", "f3", "--xi", "1.0", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(float(doc["value"]["re"])) < 1.0


# one cheap argv per registry entry; a new quantity needs one here
SMOKE = {
    "eps": "--t 2 --b 1",
    "eps_sub": "--t 2 --b 1.1,-0.3",
    "mellin_eps_sub": "--t 2 --b 1",
    "S": "--t 3 --b 0.9,0.2",
    "psi_bar": "--t 2 --x 1.3",
    "phi_bar": "--t 2 --xi 1.25",
    "pbar": "--t 3 --x 0.9",
    "rbar": "--t 2",
    "z2": "--form 2,1,3 --s 4",
    "z2_kober": "--form 1,0.3,2 --w 1.2",
    "z2_quartic": "--xi 0.7",
    "zp_massive": "--p 2 --s 3 --w 0.8",
    "f3": "--xi 1.0",
    "f3_epstein": "--xi 3.0",
    "f3_modesum": "--xi 0.5",
    "free_energy": "--t 2 --xi 1.0",
    "entropy": "--t 3 --xi 0.6",
    "mode_sum_F": "--spectrum single-mode --beta 2",
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("quantity", list(QUANTITIES))
def test_every_registered_quantity_renders(quantity, fmt, capsys):
    code = main(["eval", quantity, *SMOKE[quantity].split(), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    if fmt == "json":
        doc = json.loads(out)
        assert {"quantity", "params", "est_error", "truncation"} <= set(doc)
        assert doc["quantity"] == quantity
    elif fmt == "csv":
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "quantity,value_re,value_im,est_error"
        assert lines[1].startswith(quantity + ",")
    else:
        assert out.splitlines()[-1].startswith("  est_error = ")


def test_readme_lists_exactly_the_registered_quantities():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = [ln.split("`")[1] for ln in section.splitlines() if ln.startswith("| `")]
    assert sorted(listed) == sorted(QUANTITIES)


SPECTRUM_FILES = {
    "not_json.json": "nope",
    "json_string.json": '"nope"',
    "json_list.json": "[1, 2]",
    "label_only.json": '{"label": "x"}',
}


@pytest.mark.parametrize(
    "argv,code",
    [
        ("eval eps --t 2 --xi 0", 2),
        ("eval eps --t 2 --xi -1", 2),
        ("eval eps --t 2 --b 1e-300,1", 3),
        ("eval eps --t 100000 --b 1", 3),
        ("eval eps --t 140 --b 20", 3),  # the q-part is fine, -B_280/560 is past the floats
        ("eval eps_sub --t 200 --b 20", 3),
        ("eval free_energy --t 300 --xi 1", 3),
        ("eval entropy --t 200 --xi 0.5", 3),
        ("eval pbar --t 320 --x 0.5", 3),
        ("eval rbar --t 2 --x 0", 3),  # the pole of the end term 2 zeta(2t) / x
        ("eval rbar --t 2 --x 1e-320", 3),  # was exit 0 with inf
        ("eval mode_sum_F --spectrum {dir}/missing.json --beta 1", 2),
        ("eval mode_sum_F --spectrum {dir}/not_json.json --beta 1", 2),
        ("eval mode_sum_F --spectrum {dir}/json_string.json --beta 1", 2),
        ("eval mode_sum_F --spectrum {dir}/json_list.json --beta 1", 2),
        ("eval mode_sum_F --spectrum {dir}/label_only.json --beta 1", 2),
        ("eval mode_sum_F --beta nan", 2),
        ("eval mode_sum_F --beta 1e-300", 3),
        ("eval mode_sum_F --spectrum single-mode --beta 5e-324", 3),
        ("eval zp_massive --p 2 --s 3 --w nan", 2),
        ("eval zp_massive --p 2 --s 160 --w 1", 3),
        ("eval z2_kober --form 1,0,1 --w -400", 3),
        ("eval z2_kober --form 1,0,1 --w -150.3", 3),
        ("eval z2_kober --form 1,-inf,1 --w 1", 2),
        ("eval z2 --form 1e300,0,1 --s 3", 3),
        ("eval z2 --form 1e-300,0,1 --s 3", 3),
        ("eval z2 --form 1,0,1 --s nan", 2),
        ("eval mellin_eps_sub --t 2 --b nan", 2),
        ("eval eps --t 2 --b inf,0", 2),
        ("eval pbar --t 2 --x nan", 2),
        ("eval eps --t 2 --b 1 --tol 0", 2),
        ("eval z2 --form 1,0,1 --s 3 --tol=-0.001", 2),
        ("eval eps --t 2 --b 1 --out {dir}/no-such-dir/out.txt", 2),
        ("eval eps --t 2 --b -1e300", 2),
    ],
)
def test_error_contract(argv, code, tmp_path, capsys):
    # bad input is a usage error (2); an overflow inside a route is exit 3
    for name, text in SPECTRUM_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(argv.format(dir=tmp_path).split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "OverflowError" not in captured.err  # the route names the failure, not Python
    assert captured.err.startswith("usage error:" if code == 2 else "error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        ("eval eps_sub --t 600 --b 200", "the Casimir constant -B_1200/(4t) at t = 600 leaves the float range"),
        ("eval eps --t 131 --b 20", "the Casimir constant -B_262/(4t) at t = 131 leaves the float range"),
        ("eval free_energy --t 600 --xi 0.002", "free energy f_600(0.002) leaves the float range"),
        ("eval phi_bar --t 600 --b 2", "pi^1200 overflows a float"),
        ("eval rbar --t 600 --x 1", "pi^1200 overflows a float"),
        ("eval rbar --t 600 --x 0", "rbar: x = 0 is the pole of its end term 2 zeta(1200) / x"),
        ("eval pbar --t 800 --x 1", "pi^1600 overflows a float"),
        ("eval pbar --t 100000", "period polynomials: exact coefficients are built up to t = 310, got t = 100000"),
        ("eval rbar --t 311", "period polynomials: exact coefficients are built up to t = 310, got t = 311"),
    ],
)
def test_refusals_come_before_the_bernoulli_numbers(argv, message, capsys):
    # B_1200 alone takes about 18 s on a 2-vCPU VM: each of these is refused before B_2t is built
    from modzeta import exactnum

    t = int(argv.split()[3])
    start = time.perf_counter()
    assert main(argv.split()) == 3
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == f"error: {message}\n"
    assert len(exactnum._BERNOULLI) <= 2 * t


def test_massive_sum_at_a_huge_mass_exits_0_promptly():
    # the tail bound's Q(a, x), at x past 1e16, once never returned; the sum is
    # the lattice's integral pi w^(2-2s) / (s - 1) to double precision
    argv = ["eval", "zp_massive", "--p", "2", "--s", "2.3", "--w", "1e16", "--format", "json"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "modzeta.cli", *argv], capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 5.0
    value = float(json.loads(proc.stdout)["value"]["re"])
    assert value == pytest.approx(math.pi * 1e16 ** (2 - 2 * 2.3) / 1.3, rel=1e-14)


def test_errors_define_only_the_contract_classes():
    # DomainError exits 2; ConvergenceError and SingularityError exit 3
    from modzeta import errors

    defined = {name for name, v in vars(errors).items() if isinstance(v, type) and v.__module__ == errors.__name__}
    assert defined == {"ModzetaError", "DomainError", "SingularityError", "ConvergenceError"}


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(modzeta.__path__)))
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"modzeta.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize(
    "argv",
    ["eval z2_kober --form 1,0,1 --w -1e-3", "eval eps --t 2 --b -1e300", "eval z2 --form 1,0,1 --s -inf"],
)
def test_a_negative_number_after_its_flag_is_its_value(argv, capsys):
    # argparse alone takes -1e-3 or -inf for an option and reports "expected one argument"
    *head, flag, value = argv.split()
    spaced = main([*head, flag, value]), *capsys.readouterr()
    glued = main([*head, f"{flag}={value}"]), *capsys.readouterr()
    assert spaced == glued


@pytest.mark.parametrize(
    "argv,message",
    [
        ("eval z2 --form 1,0,1 --s -inf", "usage error: --s expects finite numbers; got '-inf'\n"),
        (
            "verify nope",
            "usage error: unknown suite 'nope'; choose from inversion, cocycle, eichler-shimura, bol, "
            "moments, kober, massive, guinand, dirichlet, thermal, all\n",
        ),
    ],
)
def test_usage_errors_name_the_accepted_input(argv, message, capsys):
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("names", [["bol", "nope"], ["all", "nope"]])
def test_run_suites_refuses_an_unknown_suite_before_running_any(names, monkeypatch):
    from modzeta import verify

    for suite in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, suite, lambda: pytest.fail("a suite ran"))
    with pytest.raises(DomainError, match="unknown suite 'nope'"):
        verify.run_suites(names)


@pytest.mark.parametrize(
    "argv",
    [
        "eval z2 --form 1e-100,0,1e-100 --s 3 --tail integral",  # was exit 0 with -inf
        "eval z2 --form 1e-60,0,1e-60 --s 6 --tail integral",  # was exit 0 with nan
        "eval z2 --form 1e-60,0,1e-60 --s 6",
        "eval mellin_eps_sub --t 3 --b 1e-300",  # (2 pi b)^(-s)
        "eval mellin_eps_sub --t 6 --b 1e-30",
        "eval mellin_eps_sub --t 30 --b 1e-8",
        "eval mellin_eps_sub --t 100 --b 1",  # Gamma(2t - 1/2 + iy)
        "eval mellin_eps_sub --t 60 --b 0.01",  # their product; was exit 0 with nan
    ],
)
def test_float_range_failures_are_named_by_the_route(argv, capsys):
    # a warning would raise here, so numpy's RuntimeWarnings cannot pass unseen
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    route = "z2_direct" if argv.split()[1] == "z2" else "mellin_eps_sub"
    assert captured.err.startswith(f"error: {route}: ")
    assert "the float range" in captured.err
    assert "OverflowError" not in captured.err and "non-finite value" not in captured.err


def test_z2_shell_bound_in_logs_certifies_large_s(capsys):
    # 8 lam_min^(-s) alone passes the floats (lam_min = 0.8), but the bound
    # with its shell factor is far below tol; only (+-1, 0), (0, +-1) count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main("eval z2 --form 1,0.2,1 --s 1e5 --format json".split()) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == {"re": "4", "im": "0"}
    assert 0.0 < float(doc["est_error"]) <= 1e-12


@pytest.mark.parametrize(
    "argv", ["eval S --t 100000 --b 1", "eval psi_bar --t 600 --b 1", "eval psi_bar --t 1000000 --b 0.05"]
)
def test_large_weight_lambert_exits_0(argv, capsys):
    # n^(2t-1) leaves the floats, but S_t(b) is q^2 / (1 - q^2) to double
    # precision once 2^(1-2t) is below its last bit; the cost does not grow with t
    start = time.perf_counter()
    assert main([*argv.split(), "--format", "json"]) == 0
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().out)
    q2 = math.exp(-2 * math.pi * float(argv.split()[-1]))
    scale = 4 * math.pi if "psi_bar" in argv else 1.0
    assert float(doc["value"]["re"]) == pytest.approx(scale * q2 / (1 - q2), rel=1e-15)
    assert float(doc["value"]["im"]) == 0.0


def _fresh_process(code: str) -> str:
    """stdout of ``code`` run by a new interpreter (these test modules import scipy themselves)."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _scipy_numpy_loaded_after(code: str) -> str:
    out = _fresh_process(f"import sys; {code}; print(sorted({{'scipy', 'numpy'}} & set(sys.modules)))")
    return out.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        "eval eps --t 2 --b 1",
        "eval psi_bar --t 2 --b 1",
        "eval pbar --t 3 --x 0.7",
        "eval f3 --xi 1.3",
        "eval mode_sum_F --beta 2",
        "eval mode_sum_F --spectrum single-mode --beta 2",
        "eval zp_massive --p 3 --s 2.6 --w 0.5",  # r_p tables in Python integers
    ],
)
def test_closed_form_routes_import_neither_scipy_nor_numpy(argv):
    assert _scipy_numpy_loaded_after(f"import modzeta.cli; modzeta.cli.main({argv.split()!r})") == "[]"


@pytest.mark.parametrize(
    "code,loaded",
    [
        # the sign test of a degeneracy polynomial is exact, in fractions
        ("from modzeta.thermal import SpectrumSpec; SpectrumSpec('x', (6, -5, 1))", "[]"),
        ("import modzeta.cli; modzeta.cli.main('eval z2 --form 1,0.3,2 --s 2.5'.split())", "['numpy']"),
    ],
)
def test_only_the_lattice_sums_load_numpy(code, loaded):
    assert _scipy_numpy_loaded_after(code) == loaded


CLI_MODULES = {"modzeta", "modzeta.cli", "modzeta.errors", "modzeta.exactnum"}
# the library modules each quantity's SMOKE argv loads beyond CLI_MODULES
ROUTE_MODULES = {
    "eps": {"qseries"},
    "eps_sub": {"qseries"},
    "mellin_eps_sub": {"qseries", "_quadpack", "_special"},
    "S": {"qseries"},
    "psi_bar": {"qseries"},
    "phi_bar": {"qseries"},
    "pbar": {"periodpoly"},
    "rbar": {"periodpoly"},
    "z2": {"epstein", "qseries"},
    "z2_kober": {"epstein", "qseries", "_special"},
    "z2_quartic": {"epstein", "qseries"},
    "zp_massive": {"epstein", "qseries", "dirichlet", "_special"},
    "f3": {"thermal", "qseries"},
    "f3_epstein": {"thermal", "qseries"},
    "f3_modesum": {"thermal", "qseries"},
    "free_energy": {"thermal", "qseries"},
    "entropy": {"thermal", "qseries"},
    "mode_sum_F": {"thermal", "qseries"},
}


# standard-library modules the library does without: dataclasses, and the
# inspect it imports, at every import; csv unless the output is CSV
SPARED = {"dataclasses", "inspect", "csv"}


def _modzeta_loaded_after(code: str) -> set:
    """The modzeta modules, and those of SPARED, that ``code`` leaves loaded."""
    out = _fresh_process(
        f"import sys; {code}; "
        f"print(sorted(n for n in sys.modules if n.split('.')[0] == 'modzeta' or n in {sorted(SPARED)!r}))"
    )
    return set(ast.literal_eval(out.splitlines()[-1]))


def test_importing_the_cli_loads_no_route_module():
    # no process compiles a route module, verify or the QAGS port before a command calls it
    assert _modzeta_loaded_after("import modzeta.cli") == CLI_MODULES


@pytest.mark.parametrize("quantity", list(QUANTITIES))
def test_eval_loads_only_the_modules_its_route_needs(quantity):
    argv = ["eval", quantity, *SMOKE[quantity].split()]
    loaded = _modzeta_loaded_after(f"import modzeta.cli; modzeta.cli.main({argv!r})")
    # numpy, which only z2's lattice sum loads, imports inspect itself
    numpy_loads = {"inspect"} if quantity == "z2" else set()
    assert loaded == CLI_MODULES | {f"modzeta.{name}" for name in ROUTE_MODULES[quantity]} | numpy_loads


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_only_csv_output_loads_csv(fmt):
    argv = ["eval", "zp_massive", "--p", "2", "--s", "2.1", "--w", "0.8", "--format", fmt]
    loaded = _modzeta_loaded_after(f"import modzeta.cli; modzeta.cli.main({argv!r})")
    assert SPARED & loaded == ({"csv"} if fmt == "csv" else set())


def test_importing_verify_loads_neither_scipy_nor_numpy():
    assert _scipy_numpy_loaded_after("import modzeta.verify") == "[]"
    assert not SPARED & _modzeta_loaded_after("import modzeta.verify")


@pytest.mark.parametrize(
    "module,call",
    [
        ("exactnum", "gamma_numeric(2.5 + 1j)"),
        ("qseries", "mellin_eps_sub(2, 1.0)"),
        ("epstein", "bessel_k(1.3, 2.0)"),
        # every certified berndt_phi ends on a tail that calls gammaincc
        ("dirichlet", "berndt_phi(diagonal_epstein_datum(2), 3.0, 1.0)"),
    ],
)
def test_deferred_imports_bind_in_a_fresh_process(module, call):
    # the first call imports what it needs; the value is the one this process computes
    expect = repr(eval(call, {**vars(importlib.import_module(f"modzeta.{module}")), "sys": sys}))
    got = _fresh_process(f"import sys, modzeta.{module} as m; print(repr(eval({call!r}, {{**vars(m), 'sys': sys}})))")
    assert got == expect + "\n"


def test_no_function_imports_a_module_itself():
    # a deferred import goes through exactnum._lazy, so the module headers
    # show every import that loading a module makes
    offenders = []
    for path in sorted(Path(modzeta.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert offenders == []


def _type_checking_only(tree: ast.Module) -> set:
    """ids of the nodes under ``if TYPE_CHECKING:``, which never run."""
    return {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
        for stmt in block.body
        for node in ast.walk(stmt)
    }


def test_only_exactnum_imports_scipy_or_numpy():
    # every other module asks exactnum._lazy, the one place that imports
    # numpy; scipy is named by no module (test_no_module_names_scipy)
    offenders = []
    for path in sorted(Path(modzeta.__file__).parent.glob("*.py")):
        if path.stem == "exactnum":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = _type_checking_only(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if id(node) not in skip and any(name.split(".")[0] == "numpy" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_names_scipy():
    # the library integrates with its own QAGS port (modzeta._quadpack) and
    # takes Gamma, K_nu and Q(a, x) from modzeta._special; scipy is a test oracle only
    offenders = []
    for path in sorted(Path(modzeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]  # a module name handed to _lazy
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_the_library_never_loads_scipy():
    code = (
        "import sys; from modzeta.verify import run_suites; from modzeta.cli import main; "
        "run_suites('all'); "
        "main(['eval', 'mellin_eps_sub', '--t', '2', '--b', '1']); "
        "main(['eval', 'z2_kober', '--form', '1,0.3,2', '--w', '1.2']); "
        "main(['eval', 'zp_massive', '--p', '3', '--s', '2.6', '--w', '0.5']); "
        "main(['eval', 'z2', '--form', '1,0,1', '--s', '2', '--tail', 'integral']); "
        "print(sorted(name for name in sys.modules if name == 'scipy' or name.startswith('scipy.')))"
    )
    assert _fresh_process(code).splitlines()[-1] == "[]"


def test_free_energy_past_the_float_range_of_sigma_exits_0(capsys):
    # sigma_199(36) and 35^199 leave the floats, but every term stays below 5.1e210
    mpmath = pytest.importorskip("mpmath")
    assert main(["eval", "free_energy", "--t", "100", "--xi", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    with mpmath.workdps(50):
        q2 = mpmath.exp(-2 * mpmath.pi)
        series = mpmath.fsum(
            sum(d ** 199 for d in range(1, m + 1) if m % d == 0) * q2 ** m / m for m in range(1, 400)
        )
        expect = float(-mpmath.bernoulli(200) / 400 - series / (2 * mpmath.pi))
    assert abs(float(doc["value"]["re"]) - expect) <= float(doc["est_error"]) + 1e-12 * abs(expect)


def test_far_table_spectrum_evaluates(tmp_path, capsys):
    spec = tmp_path / "far.json"
    spec.write_text('{"label": "far", "omega": "n", "table": [[1000000000, 1]]}', encoding="utf-8")
    assert main(["eval", "mode_sum_F", "--spectrum", str(spec), "--beta", "1", "--format", "json"]) == 0
    assert float(json.loads(capsys.readouterr().out)["value"]["re"]) == 5e8


@pytest.mark.parametrize(
    "argv",
    [
        "eval eps --t 2 --b 0.05",
        "eval z2_kober --form 1,0,1 --w 1.3",
        "eval free_energy --t 2 --xi 3.0",
        "eval mode_sum_F --beta 1",
        "eval psi_bar --t 2 --b 0.6",
        "eval phi_bar --t 2 --b 0.6",
    ],
)
def test_tol_reaches_the_route(argv, capsys):
    main([*argv.split(), "--format", "json"])
    default = json.loads(capsys.readouterr().out)
    assert main([*argv.split(), "--tol", "1e-6", "--format", "json"]) == 0
    loose = json.loads(capsys.readouterr().out)
    assert loose["truncation"]["terms"] < default["truncation"]["terms"]
    assert float(loose["est_error"]) <= 1e-6


# the q-series and thermal routes, and which of them certify a series to --tol
_B_ROUTES = ("eps", "eps_sub", "S", "psi_bar", "phi_bar")
_XI_ROUTES = ("f3", "f3_epstein", "f3_modesum", "z2_quartic")
_CERTIFIED = {*_B_ROUTES, "free_energy", "entropy"}
_LOG_UNIFORM = st.floats(-3.0, 3.0).map(lambda e: f"{10.0 ** e:.6g}")


@st.composite
def _q_series_argv(draw) -> list:
    quantity = draw(st.sampled_from([*_B_ROUTES, "free_energy", "entropy", *_XI_ROUTES]))
    argv = ["eval", quantity]
    if quantity not in _XI_ROUTES:
        argv += ["--t", str(draw(st.integers(1, 400) | st.sampled_from([131, 140, 194, 200])))]
    if quantity in _B_ROUTES:
        b, im = draw(_LOG_UNIFORM), draw(st.none() | st.floats(-3.0, 3.0))
        argv += ["--b", b if im is None else f"{b},{im:.6g}"]
    else:
        argv += ["--xi", draw(_LOG_UNIFORM)]
    tol = draw(st.none() | st.floats(-15.0, -3.0))
    return argv + ([] if tol is None else ["--tol", f"{10.0 ** tol:.3g}"])


def _run_in_contract(argv, certified) -> tuple[int, str]:
    """main(argv) as JSON: exit 0, 2 or 3 with the matching stderr prefix, no
    raw OverflowError or ZeroDivisionError, and, where ``certified`` names
    the quantity and --tol is given, an est_error within it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("usage error:" if code == 2 else "error:")
        assert "Traceback" not in err.getvalue()
        assert "OverflowError" not in err.getvalue() and "ZeroDivisionError" not in err.getvalue()
    elif "--tol" in argv and argv[1] in certified:
        assert float(json.loads(out.getvalue())["est_error"]) <= float(argv[argv.index("--tol") + 1])
    return code, out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_q_series_argv())
@example(argv="eval eps --t 140 --b 20".split())
@example(argv="eval eps_sub --t 194 --b 285.3".split())
@example(argv="eval entropy --t 140 --xi 0.05".split())
@example(argv="eval rbar --t 2 --x 0".split())
# small b: values of size 1e3 to 1e13 summed in 7e3 to 2.5e4 terms; phi_bar
# refuses (exit 3) where its cancellation would leave it under 12 digits
@example(argv="eval psi_bar --t 3 --b 0.001".split())
@example(argv="eval phi_bar --t 2 --b 0.0003".split())
@example(argv="eval z2_quartic --xi 0.0005".split())
# past the sampled xi: xi^4 in f3_epstein and xi^3 in z2_quartic leave the floats
@example(argv="eval f3_epstein --xi 1e78".split())
@example(argv="eval z2_quartic --xi 1e103".split())
def test_q_series_routes_stay_in_the_error_contract(argv):
    # wherever a value, its constant or a term leaves the floats, or a pole
    # is met, the route names it (exit 3): no raw OverflowError or
    # ZeroDivisionError, and no value past its tol
    _run_in_contract(argv, _CERTIFIED)


# the lattice, Mellin, mode-sum and exact routes; zp_massive's est_error adds a
# rounding allowance that may pass --tol, and z2's integral tail is an
# estimate, so neither is held to it
_OTHER_ROUTES = ("z2", "z2_kober", "zp_massive", "mellin_eps_sub", "mode_sum_F", "pbar", "rbar")
_OTHER_CERTIFIED = {"z2_kober", "mellin_eps_sub", "mode_sum_F"}
# per example, under tracemalloc (which slows pure-Python loops about five-fold):
# the slowest example seen, the zp_massive @example, took 7 s and 13 MB
_RUN_BUDGET_S, _PEAK_BUDGET_BYTES = 30.0, 64e6
_GOOD_FORMS = st.sampled_from(["1,0,1", "2,1,3", "1,0.3,2", "1,0.999,1", "1,0,1e6"])
# singular, indefinite, malformed and past-the-floats forms, a third of the draws
_FORMS = _GOOD_FORMS | _GOOD_FORMS | st.sampled_from(
    ["1,0,0", "1,2,1", "-1,0,1", "0,0,0", "1,0", "1,0,1,1", "1e300,0,1e300", "1e-300,0,1", "1,x,1", "1,,1"]
)
_SPECTRA = {
    "bad-json.json": "{",
    "not-an-object.json": "[1, 2]",
    "negative.json": '{"degeneracy_coeffs": [1, -3, 1]}',
    "degree-7.json": '{"degeneracy_coeffs": [0, 0, 0, 0, 0, 0, 0, 1]}',
    "nan.json": '{"degeneracy_coeffs": [NaN]}',
    "strings.json": '{"table": [["a", 1]]}',
    "omega.json": '{"omega": "n^2", "table": [[1, 1]]}',
    "huge.json": '{"table": [[1, 1e300], [2, 1e300]]}',
    "far.json": '{"table": [[1000000000, 1]]}',
    "below-one.json": '{"table": [[0, 2], [-3, 1]]}',
    "degree-6.json": '{"degeneracy_coeffs": [0, 0, 0, 0, 0, 0, 1]}',
}
# log-uniform and signed numbers, and in a quarter of the draws 0, +-huge,
# past the floats, or not numbers at all
_NUMBER = st.one_of(
    _LOG_UNIFORM,
    _LOG_UNIFORM,
    st.floats(-30.0, 30.0).map(lambda x: f"{x:.6g}"),
    st.sampled_from(["0", "-0", "1e300", "-1e300", "1e-300", "1e308", "1e309", "nan", "-inf", "x"]),
)


def _near(poles):
    """Values at a pole and just off it."""
    offsets = st.sampled_from([0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-3])
    return st.tuples(st.sampled_from(poles), offsets).map(lambda pd: f"{pd[0] + pd[1]:.17g}")


@pytest.fixture(scope="module")
def spectra_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("spectra")
    for name, text in _SPECTRA.items():
        (path / name).write_text(text, encoding="utf-8")
    return path


@st.composite
def _other_argv(draw) -> list:
    """An eval argv, each value joined to its flag by '=' (argparse reads a
    separate '-1e300' as a flag); a spectrum file is named by its key in
    _SPECTRA, and the test puts it in its directory."""
    quantity = draw(st.sampled_from(_OTHER_ROUTES))
    argv = ["eval", quantity]
    if quantity == "z2":
        argv += [f"--form={draw(_FORMS)}", f"--s={draw(_NUMBER | _near([1.0, 1.5, 2.0]))}"]
        argv += draw(st.sampled_from([[], ["--tail=integral"]]))
    elif quantity == "z2_kober":
        argv += [f"--form={draw(_FORMS)}", f"--w={draw(_NUMBER | _near([0.0, 0.5, -0.5]))}"]
    elif quantity == "zp_massive":
        p = draw(st.integers(-1, 6))
        s = draw(_NUMBER | _near([p / 2 - k for k in range(3)] + [0.0, -1.0]))
        argv += [f"--p={p}", f"--s={s}", f"--w={draw(_NUMBER)}"]
    elif quantity == "mellin_eps_sub":
        argv += [f"--t={draw(st.integers(-1, 100))}", f"--b={draw(_NUMBER | _near([0.0]))}"]
    elif quantity == "mode_sum_F":
        argv += ["--spectrum", draw(st.sampled_from(["s3", "single-mode", "missing.json", *_SPECTRA]))]
        argv += [f"--beta={draw(_NUMBER | _near([1e-6, 0.0]))}"]
    else:  # pbar, rbar: exact coefficients, and the value at --x when given
        argv += [f"--t={draw(st.integers(-2, 40))}"]
        x = draw(st.none() | _NUMBER | _near([0.0]))
        argv += [] if x is None else [f"--x={x}"]
    if quantity not in ("pbar", "rbar"):
        tol = draw(st.none() | st.floats(-15.0, -3.0))
        argv += [] if tol is None else ["--tol", f"{10.0 ** tol:.3g}"]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_other_argv())
# an exit-0 value whose est_error (81.9, in 80k terms) is far past its tol
@example(argv="eval zp_massive --p 3 --s 5.5 --w 0.05".split())
# u = sqrt(det)/a = 1e150: the value passes the floats without an OverflowError
@example(argv=["eval", "z2_kober", "--form=1e-300,0,1", "--w=1"])
def test_lattice_mellin_mode_sum_and_exact_routes_stay_in_the_error_contract(argv, spectra_dir):
    # the q-series contract for the other eval quantities, and each example
    # within a time and a traced-memory budget: nothing runs unbounded or
    # allocates gigabytes
    if "--spectrum" in argv and argv[argv.index("--spectrum") + 1] in _SPECTRA:
        i = argv.index("--spectrum") + 1
        argv = [*argv[:i], str(spectra_dir / argv[i]), *argv[i + 1:]]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out = _run_in_contract(argv, _OTHER_CERTIFIED | ({"z2"} if "--tail=integral" not in argv else set()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < _RUN_BUDGET_S, argv
    assert peak < _PEAK_BUDGET_BYTES, argv
    if code == 0 and "value" in json.loads(out):
        value = json.loads(out)["value"]
        assert math.isfinite(float(value["re"])) and math.isfinite(float(value["im"]))


# every float flag of a quantity's SMOKE argv, one at a time, and --tol, take
# each value of this grid; --b also as each part of 're,im', --form as each of
# a, b, c; the integer flags take 0 and -1
_EXTREMES = ("0", "5e-324", "-5e-324", "1e-300", "1e300", "-1e300", "0.7", "2.5")
# what main's ArithmeticError fallback would print as the exception's name
_FALLBACK_NAMES = ("ArithmeticError", "FloatingPointError", "OverflowError", "ZeroDivisionError")


def _extreme_argvs(quantity: str):
    words = SMOKE[quantity].split()
    flags = dict(zip(words[::2], words[1::2]))
    for flag in [*flags, "--tol"]:
        if flag in ("--t", "--p"):
            values = ["0", "-1"]
        elif flag == "--form":
            values = [",".join(v if i == j else part for j, part in enumerate(flags[flag].split(",")))
                      for v in _EXTREMES for i in range(3)]
        elif flag == "--b":
            values = [form for v in _EXTREMES for form in (v, f"1,{v}", f"{v},1")]
        elif flag == "--spectrum":
            continue
        else:
            values = _EXTREMES
        rest = [word for other, value in flags.items() if other != flag for word in (other, value)]
        for value in values:
            yield ["eval", quantity, *rest, f"{flag}={value}"]


@pytest.mark.parametrize("quantity", list(QUANTITIES))
def test_eval_extreme_value_sweep_stays_in_the_error_contract(quantity):
    # 0, subnormals, 1e-300 and +-1e300 reach the routes as finite floats: each
    # is a value (exit 0), a usage error (2) or a named failure (3), never a
    # raw arithmetic exception caught by main's fallback
    bad = []
    for argv in _extreme_argvs(quantity):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        if code not in (0, 2, 3) or any(name in err.getvalue() for name in ("Traceback", *_FALLBACK_NAMES)):
            bad.append((argv, code, err.getvalue()))
    assert not bad, bad

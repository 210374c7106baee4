"""Command-line front end: evaluate quantities, run verification suites,
benchmark the series acceleration, emit tables.

Every command is table-driven: ``QUANTITIES`` (eval), ``BENCH_PAIRS``
(bench) and ``TABLES`` (table) are its registries, and ``COMMANDS`` maps
each command to the function that runs it and the one that renders it.
The registries name each route by module and attribute; the module is
imported, through ``exactnum._lazy``, when a command calls the route, so a
one-shot process compiles only the route module it runs.

Every float flag, and each number inside ``--b`` and ``--form``, must be a
finite number; ``--tol``, when given, goes to the route's own tolerance
argument (absent, the route keeps its default).

Exit codes: 0 success, 1 verification failure, 2 usage error (bad or
missing input), 3 convergence/singularity failure or an overflow inside a
route.  Numeric output is rendered with 17 significant digits and fixed
summation orders, so identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
from collections import namedtuple
from fractions import Fraction

from .errors import ConvergenceError, DomainError, ModzetaError, SingularityError
from .exactnum import _Record, _lazy, _pi_power, bernoulli, require_finite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _radius(points: int) -> int:
    """R of a square lattice sum over the (2R+1)^2 - 1 nonzero points."""
    return (math.isqrt(points + 1) - 1) // 2


def _number(text: str, flag: str) -> float:
    """The one parser of float input: a finite float, else DomainError."""
    try:
        x = float(text)
    except ValueError:
        raise DomainError(f"{flag} expects numbers; got {text!r}") from None
    if not math.isfinite(x):
        raise DomainError(f"{flag} expects finite numbers; got {text!r}")
    return x


def _route(module: str, name: str):
    """The function ``modzeta.<module>.<name>``, looked up when called."""
    return lambda *args, **kwargs: getattr(_lazy(f"modzeta.{module}"), name)(*args, **kwargs)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _need(args, name):
    val = getattr(args, name)
    if val is None:
        raise DomainError(f"quantity {args.quantity!r} requires --{name}")
    return val


def _flag(name: str):
    return name, lambda args: _need(args, name)


def _float_flag(name: str):
    return name, lambda args: _number(_need(args, name), f"--{name}")


def _point(args) -> complex:
    """--b as 're' or 're,im', else --x (a real-axis point), else 1/--xi."""
    if args.b is not None:
        if "," in args.b:
            re_s, im_s = args.b.split(",", 1)
            return complex(_number(re_s, "--b"), _number(im_s, "--b"))
        return complex(_number(args.b, "--b"), 0.0)
    if args.x is not None:
        return complex(_number(args.x, "--x"))
    xi = _number(_need(args, "xi"), "--xi")
    if xi <= 0:
        raise DomainError("--xi must be > 0")
    return complex(1.0 / xi)


def _form(args) -> list:
    parts = [_number(p, "--form") for p in _need(args, "form").split(",")]
    if len(parts) != 3:
        raise DomainError("--form expects a,b,c")
    return parts


def _spectrum(args):
    tmod = _lazy("modzeta.thermal")
    arg = args.spectrum or "s3"
    if arg == "s3":
        return tmod.S3_SPEC
    if arg == "single-mode":
        return tmod.SINGLE_MODE
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return tmod.SpectrumSpec.from_json(json.load(fh))
    # unreadable file, bad JSON (ValueError), or entries of the wrong type
    except (OSError, ValueError, TypeError) as exc:
        raise DomainError(f"--spectrum {arg}: {exc}") from None


def _tol(args) -> float:
    tol = _number(args.tol, "--tol")
    if tol <= 0:
        raise DomainError("--tol must be > 0")
    return tol


def _tol_as(keyword: str):
    """Route keywords: --tol, when given, as ``keyword``; absent, the route
    keeps its own default."""
    return lambda args: {} if args.tol is None else {keyword: _tol(args)}


_T, _XI = _flag("t"), _float_flag("xi")
_X = ("x", lambda args: None if args.x is None else _number(args.x, "--x"))
_B, _FORM = ("b", _point), ("form", _form)


def _fields(value, error: float, tail: float, **cost) -> dict:
    """Output fields: the value (if any), its error figure, and the
    truncation (what the evaluation cost, and its tail)."""
    out = {"est_error": _fmt(error), "truncation": {**cost, "tail_bound": _fmt(tail)}}
    if value is not None:
        z = complex(value)
        out["value"] = {"re": _fmt(z.real), "im": _fmt(z.imag)}
    return out


def _series(sv, params) -> dict:
    return _fields(sv.value, sv.tail_bound, sv.tail_bound, terms=sv.terms)


def _lattice(sv, params) -> dict:
    return _fields(sv.value, sv.tail_bound, sv.tail_bound, radius=_radius(sv.terms))


def _gap(pair, params) -> dict:
    """The first route's value; the gap to the second is its error figure."""
    gap = abs(pair[0] - pair[1])
    return _fields(pair[0], max(gap, 1e-15), gap, terms=0)


def _exact(pair, params) -> dict:
    """Exact coefficients, and the numeric value at --x when given."""
    return {"exact": pair[0], **_fields(pair[1], 0.0, 0.0, terms=2 * params["t"] - 1)}


def _f3_pair(first, second):
    return lambda xi, **tol: (first(xi, **tol).value.real, second(xi, **tol).value.real)


def _pbar(t, x):
    if x is not None:
        _pi_power(2 * t)  # the value at x needs pi^(2t) as a float: refused before B_2t is built
    poly = _lazy("modzeta.periodpoly").pbar(t)
    coeffs = {str(k): str(c) for k, c in enumerate(poly.coeffs) if not c.is_zero()}
    if x is None:
        return coeffs, None
    try:
        return coeffs, require_finite(poly.eval_numeric(x))
    except OverflowError:  # x^k is past the floats
        raise ConvergenceError(f"pbar: x^k at x = {x} leaves the float range") from None


def _rbar(t, x):
    # the pole at x = 0 and a pi^(2t) past the floats are refused before B_2t is
    # built; t < 2 is left to periodpoly's DomainError
    if x is not None and t >= 2:
        if x == 0:
            raise SingularityError(f"rbar: x = 0 is the pole of its end term 2 zeta({2 * t}) / x")
        _pi_power(2 * t)
    rp = _lazy("modzeta.periodpoly").rbar(t)
    # numerator coefficient k multiplies x^{k-1}: the extended form starts at 1/x
    coeffs = {str(k - 1): str(c) for k, c in enumerate(rp.num.coeffs) if not c.is_zero()}
    if x is None:
        return coeffs, None
    return coeffs, require_finite(rp.eval_numeric(complex(x)))


class Quantity(_Record, namedtuple("Quantity", "params route render options", defaults=(_series, _tol_as("tol")))):
    """An ``eval`` quantity: the flags it reads, as (name, reader) pairs in
    route-argument order; the route; how its result is shown; and the
    route keywords taken from the remaining flags."""



_F3E, _F3M = _route("thermal", "f3_epstein"), _route("thermal", "f3_modesum")

QUANTITIES = {
    "eps": Quantity((_T, _B), _route("qseries", "eps")),
    "eps_sub": Quantity((_T, _B), _route("qseries", "eps_sub")),
    "mellin_eps_sub": Quantity((_T, _float_flag("b")), _route("qseries", "mellin_eps_sub")),
    "S": Quantity((_T, _B), _route("qseries", "lambert_S")),
    "psi_bar": Quantity((_T, _B), _route("qseries", "psi_bar")),
    "phi_bar": Quantity((_T, _B), _route("qseries", "phi_bar")),
    "pbar": Quantity((_T, _X), _pbar, _exact, lambda args: {}),
    "rbar": Quantity((_T, _X), _rbar, _exact, lambda args: {}),
    "z2": Quantity(
        (_FORM, _float_flag("s")), _route("epstein", "z2_direct"), _lattice,
        # without --tol the CLI asks 1e-10 of direct sums (the route's default is 1e-12)
        lambda args: {"tol": 1e-10 if args.tol is None else _tol(args), "tail": args.tail},
    ),
    "z2_kober": Quantity((_FORM, _float_flag("w")), _route("epstein", "z2_kober"), options=_tol_as("target_tol")),
    "z2_quartic": Quantity((_XI,), _route("epstein", "z2_quartic")),
    "zp_massive": Quantity(
        (_flag("p"), _float_flag("s"), _float_flag("w")), _route("epstein", "zp_massive"),
        options=_tol_as("target_tol"),
    ),
    "f3": Quantity((_XI,), _f3_pair(_F3M, _F3E), _gap),
    "f3_epstein": Quantity((_XI,), _f3_pair(_F3E, _F3M), _gap),
    "f3_modesum": Quantity((_XI,), _f3_pair(_F3M, _F3E), _gap),
    "free_energy": Quantity((_T, _XI), _route("thermal", "free_energy_partial")),
    "entropy": Quantity((_T, _XI), _route("thermal", "entropy_partial")),
    "mode_sum_F": Quantity(
        (("spectrum", _spectrum), _float_flag("beta")), _route("thermal", "mode_sum_free_energy")
    ),
}
EVAL_QUANTITIES = list(QUANTITIES)


def _eval(args) -> dict:
    q = QUANTITIES[args.quantity]
    params = {name: read(args) for name, read in q.params}
    doc = q.render(q.route(*params.values(), **q.options(args)), params)
    # params as shown: a complex b as [re, im], a spectrum by its label
    shown = {
        k: [v.real, v.imag] if isinstance(v, complex) else getattr(v, "label", v)
        for k, v in params.items() if v is not None
    }
    return {"quantity": args.quantity, "params": shown, **doc}


def _render_eval(doc: dict, args) -> tuple[str, int]:
    if args.format == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n", EXIT_OK
    val = doc.get("value", {})
    if args.format == "csv":
        header = ["quantity", "value_re", "value_im", "est_error"]
        row = [doc["quantity"], val.get("re", ""), val.get("im", ""), doc["est_error"]]
        return _rows_text(header, [row], "csv"), EXIT_OK
    lines = [f"{doc['quantity']}  params={json.dumps(doc['params'], sort_keys=True)}"]
    for k in sorted(doc.get("exact", {}), key=int):
        lines.append(f"  x^{k}: {doc['exact'][k]}")
    if val:
        lines.append(f"  value = {val['re']} + {val['im']} i")
    lines.append(f"  est_error = {doc['est_error']}")
    return "\n".join(lines) + "\n", EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

# target -> its two routes as (method, route(tol), size is a lattice radius)
BENCH_PAIRS = {
    "kober-vs-direct": (  # exponent s = w + 1/2 = 3, u = 1
        ("kober", lambda tol: _lazy("modzeta.epstein").z2_kober((1, 0, 1), 2.5, target_tol=tol), False),
        ("direct", lambda tol: _lazy("modzeta.epstein").z2_direct((1, 0, 1), 3.0, tol=tol), True),
    ),
    "massive-vs-direct": (
        ("massive", lambda tol: _lazy("modzeta.epstein").zp_massive(2, 3.0, 0.8, target_tol=tol), False),
        ("direct", lambda tol: _lazy("modzeta.epstein").zp_brute(2, 3.0, 0.8, tol=tol), True),
    ),
    "qseries-vs-mellin": (
        ("qseries", lambda tol: _lazy("modzeta.qseries").eps_sub(2, 1.0, tol=tol), False),
        ("mellin", lambda tol: _lazy("modzeta.qseries").mellin_eps_sub(2, 1.0, tol=max(tol, 1e-9)), False),
    ),
}
BENCH_TARGETS = list(BENCH_PAIRS)


def _bench(args) -> tuple[list, list]:
    rows = []
    for tol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        for method, route, lattice in BENCH_PAIRS[args.target]:
            t0 = time.perf_counter()
            sv = route(tol)
            dt = time.perf_counter() - t0
            size = _radius(sv.terms) if lattice else sv.terms
            rows.append([tol, method, size, sv.terms, dt, sv.value.real])
    return ["tolerance", "method", "terms_or_radius", "points", "wall_time_s", "value"], rows


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _period_polynomial_rows():
    pmod = _lazy("modzeta.periodpoly")
    for t in range(2, 9):
        for k, c in enumerate(pmod.pbar(t).coeffs):
            if not c.is_zero():
                yield [t, k, str(c), _fmt(c.numeric())]


def _moment_rows():
    qmod = _lazy("modzeta.qseries")
    for t in range(2, 7):
        for k in range(0, 2 * t - 1):
            quad_val = qmod.moment(t, k).value.real
            if k % 2 == 1:
                j = (k + 1) // 2
                exact = Fraction((-1) ** j) * bernoulli(2 * j) * bernoulli(
                    2 * t - 2 * j
                ) / (8 * j * (t - j))
                exact_s = str(exact)
            elif 0 < k < 2 * t - 2:
                exact_s = "0"
            else:
                exact_s = ""
            yield [t, k, exact_s, _fmt(quad_val)]


def _lerch_rows():
    pmod = _lazy("modzeta.periodpoly")
    for t in (2, 4, 6, 8):
        exact = pmod.rbar(t).eval_exact(1)
        # at the self-dual point psi_bar(1) = R(1)/2 for even t
        half = exact * Fraction(1, 2)
        val = half.numeric() / (4 * math.pi)
        yield [t, str(half), _fmt(val)]


def _f3_grid_rows():
    for xi in (0.3, 0.5, 0.8, 1.0, 1.7, 3.0, 5.0):
        a = _F3E(xi).value.real
        b = _F3M(xi).value.real
        yield [_fmt(xi), _fmt(a), _fmt(b), _fmt(a - b)]


# name -> (header, row generator)
TABLES = {
    "period-polynomials": (["t", "x_power", "coefficient_exact", "coefficient_numeric"], _period_polynomial_rows),
    "moments": (["t", "k", "exact", "quadrature"], _moment_rows),
    "lerch-values": (["t", "psi_bar_at_1_exact", "S_t_at_i_numeric"], _lerch_rows),
    "f3-grid": (["xi", "f3_epstein", "f3_modesum", "difference"], _f3_grid_rows),
}
TABLE_NAMES = list(TABLES)


def _table(args) -> tuple[list, list]:
    header, rows = TABLES[args.name]
    return header, list(rows())  # built here, inside main's error handling


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_text(header, rows, fmt: str) -> str:
    """Rows as CSV under a header line, or as a JSON list of objects."""
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    buf = io.StringIO()
    _lazy("csv").writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _render_verify(results, args) -> tuple[str, int]:
    code = EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL
    if args.format != "text":
        header = ["suite", "name", "residual", "tol", "passed"]
        rows = [[r.suite, r.name, _fmt(r.residual), _fmt(r.tol), r.passed] for r in results]
        return _rows_text(header, rows, args.format), code
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.suite}: {r.name}  (residual {_fmt(r.residual)}, tol {_fmt(r.tol)})")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results)} checks, {n_fail} failed")
    return "\n".join(lines) + "\n", code


def _render_rows(table, args) -> tuple[str, int]:
    return _rows_text(*table, args.format), EXIT_OK


# command -> (run(args) -> result, render(result, args) -> (text, exit code))
COMMANDS = {
    "eval": (_eval, _render_eval),
    "verify": (lambda args: _lazy("modzeta.verify").run_suites(args.suite), _render_verify),
    "bench": (_bench, _render_rows),
    "table": (_table, _render_rows),
}


# the eval flags whose values go to _number
_NUMBER_FLAGS = ("--b", "--x", "--xi", "--s", "--w", "--form", "--beta", "--tol")


def _glue_number_values(argv: list[str]) -> list[str]:
    """``--w -1e-3`` as ``--w=-1e-3``.  argparse takes a word that starts
    with '-' and is not a plain decimal (``-1e-3``, ``-inf``) for an
    option, so such a value would never reach ``_number``."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] in _NUMBER_FLAGS and word.startswith("-") and not word.startswith("--"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="modzeta", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a registered quantity")
    ev.add_argument("quantity", choices=EVAL_QUANTITIES)
    ev.add_argument("--t", type=int)
    ev.add_argument("--b", help="half-plane point, 're' or 're,im'")
    ev.add_argument("--x")
    ev.add_argument("--xi")
    ev.add_argument("--s")
    ev.add_argument("--w")
    ev.add_argument("--p", type=int)
    ev.add_argument("--form", help="binary form a,b,c")
    ev.add_argument("--beta")
    ev.add_argument("--spectrum", help="s3 | single-mode | path to JSON")
    ev.add_argument("--tol", help="tolerance passed to the route (default: the route's own)")
    ev.add_argument("--tail", choices=["bound", "integral"], default="bound",
                    help="tail handling for direct lattice sums")
    ev.add_argument("--format", choices=["json", "csv", "text"], default="text")
    ev.add_argument("--out")

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("suite", help="a suite name, or all")
    vf.add_argument("--format", choices=["json", "csv", "text"], default="text")
    vf.add_argument("--out")

    bn = sub.add_parser("bench", help="benchmark acceleration vs direct summation")
    bn.add_argument("target", choices=BENCH_TARGETS)
    bn.add_argument("--out")
    bn.set_defaults(format="csv")

    tb = sub.add_parser("table", help="emit a table artifact")
    tb.add_argument("name", choices=TABLE_NAMES)
    tb.add_argument("--format", choices=["json", "csv"], default="csv")
    tb.add_argument("--out")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(_glue_number_values(sys.argv[1:] if argv is None else argv))
    run, render = COMMANDS[args.command]
    try:
        result = run(args)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModzetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ArithmeticError as exc:  # an overflow or a zero division inside a route
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    text, code = render(result, args)
    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"usage error: --out: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())

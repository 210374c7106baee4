"""Command-line front end: evaluate quantities, run verification suites,
benchmark the series acceleration, emit tables.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3
convergence/singularity failure.  Numeric output is rendered with 17
significant digits and fixed summation orders, so identical invocations
produce byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from . import epstein as emod
from . import periodpoly as pmod
from . import qseries as qmod
from . import thermal as tmod
from .errors import ConvergenceError, DomainError, ModzetaError, SingularityError
from .verify import run_suites, suite_names

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_float(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"{flag} expects numbers; got {text!r}") from None


def _parse_complex(text: str) -> complex:
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(_parse_float(re_s, "--b"), _parse_float(im_s, "--b"))
    return complex(_parse_float(text, "--b"), 0.0)


def _parse_form(text: str):
    parts = [_parse_float(p, "--form") for p in text.split(",")]
    if len(parts) != 3:
        raise DomainError("--form expects a,b,c")
    return tuple(parts)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _spectrum_from_arg(arg: str) -> tmod.SpectrumSpec:
    if arg == "s3":
        return tmod.S3_SPEC
    if arg == "single-mode":
        return tmod.SINGLE_MODE
    with open(arg, "r", encoding="utf-8") as fh:
        return tmod.SpectrumSpec.from_json(json.load(fh))


def _need(args, name):
    val = getattr(args, name, None)
    if val is None:
        raise DomainError(f"quantity {args.quantity!r} requires --{name}")
    return val


def _eval_quantity(args) -> dict:
    q = args.quantity
    out: dict = {"quantity": q, "params": {}}

    def record(**kw):
        out["params"].update({k: v for k, v in kw.items() if v is not None})

    if q in ("eps", "eps_sub", "S", "psi_bar", "phi_bar"):
        t = int(_need(args, "t"))
        if args.b is not None:
            b = _parse_complex(args.b)
        elif args.x is not None:  # real-axis point, x = b
            b = complex(float(args.x))
        else:
            b = complex(1.0 / float(_need(args, "xi")))
        record(t=t, b=[b.real, b.imag])
        fn = {
            "eps": qmod.eps,
            "eps_sub": qmod.eps_sub,
            "S": qmod.lambert_S,
            "psi_bar": qmod.psi_bar,
            "phi_bar": qmod.phi_bar,
        }[q]
        sv = fn(t, b)
        out["value"] = {"re": _fmt(sv.value.real), "im": _fmt(sv.value.imag)}
        out["est_error"] = _fmt(sv.tail_bound)
        out["truncation"] = {"terms": sv.terms, "tail_bound": _fmt(sv.tail_bound)}
        return out
    if q == "mellin_eps_sub":
        t = int(_need(args, "t"))
        b = _parse_float(_need(args, "b"), "--b")
        record(t=t, b=b)
        sv = qmod.mellin_eps_sub(t, b)
        out["value"] = {"re": _fmt(sv.value.real), "im": _fmt(sv.value.imag)}
        out["est_error"] = _fmt(sv.tail_bound)
        out["truncation"] = {"terms": 0, "tail_bound": _fmt(sv.tail_bound)}
        return out
    if q in ("pbar", "rbar"):
        t = int(_need(args, "t"))
        record(t=t)
        if q == "pbar":
            poly = pmod.pbar(t)
            out["exact"] = {
                str(k): str(c) for k, c in enumerate(poly.coeffs) if not c.is_zero()
            }
            if args.x is not None:
                v = poly.eval_numeric(float(args.x))
                record(x=float(args.x))
                out["value"] = {"re": _fmt(v), "im": _fmt(0.0)}
        else:
            rp = pmod.rbar(t)
            out["exact"] = {
                str(k - 1): str(c.re) for k, c in enumerate(rp.num.coeffs) if not c.is_zero()
            }
            if args.x is not None:
                v = rp.eval_numeric(complex(float(args.x)))
                record(x=float(args.x))
                out["value"] = {"re": _fmt(v.real), "im": _fmt(v.imag)}
        out["est_error"] = _fmt(0.0)
        out["truncation"] = {"terms": 2 * t - 1, "tail_bound": _fmt(0.0)}
        return out
    if q == "z2":
        form = _parse_form(_need(args, "form"))
        s = float(_need(args, "s"))
        record(form=list(form), s=s)
        sv = emod.z2_direct(form, s, tol=args.tol or 1e-10, tail=args.tail)
        out["value"] = {"re": _fmt(sv.value.real), "im": _fmt(0.0)}
        out["est_error"] = _fmt(sv.tail_bound)
        out["truncation"] = {"radius": int(math.isqrt(sv.terms + 1) // 2), "tail_bound": _fmt(sv.tail_bound)}
        return out
    if q == "z2_kober":
        form = _parse_form(_need(args, "form"))
        w = float(_need(args, "w"))
        record(form=list(form), w=w)
        sv = emod.z2_kober(form, w, target_tol=args.tol or 1e-12)
        out["value"] = {"re": _fmt(sv.value.real), "im": _fmt(0.0)}
        out["est_error"] = _fmt(sv.tail_bound)
        out["truncation"] = {"terms": sv.terms, "tail_bound": _fmt(sv.tail_bound)}
        return out
    if q == "z2_quartic":
        xi = float(_need(args, "xi"))
        record(xi=xi)
        sv = emod.z2_quartic(xi)
        out["value"] = {"re": _fmt(sv.value.real), "im": _fmt(0.0)}
        out["est_error"] = _fmt(sv.tail_bound)
        out["truncation"] = {"terms": 0, "tail_bound": _fmt(sv.tail_bound)}
        return out
    if q == "zp_massive":
        p = int(_need(args, "p"))
        s = float(_need(args, "s"))
        w = float(_need(args, "w"))
        record(p=p, s=s, w=w)
        sv = emod.zp_massive(p, s, w, target_tol=args.tol or 1e-11)
        out["value"] = {"re": _fmt(sv.value.real), "im": _fmt(0.0)}
        out["est_error"] = _fmt(sv.tail_bound)
        out["truncation"] = {"terms": sv.terms, "tail_bound": _fmt(sv.tail_bound)}
        return out
    if q in ("f3", "f3_epstein", "f3_modesum"):
        xi = float(_need(args, "xi"))
        record(xi=xi)
        a = tmod.f3_epstein(xi).value.real
        b = tmod.f3_modesum(xi).value.real
        val = b if q != "f3_epstein" else a
        out["value"] = {"re": _fmt(val), "im": _fmt(0.0)}
        out["est_error"] = _fmt(max(abs(a - b), 1e-15))
        out["truncation"] = {"terms": 0, "tail_bound": _fmt(abs(a - b))}
        return out
    if q == "free_energy":
        t = int(_need(args, "t"))
        xi = float(_need(args, "xi"))
        record(t=t, xi=xi)
        sv = tmod.free_energy_partial(t, xi)
        out["value"] = {"re": _fmt(sv.value.real), "im": _fmt(0.0)}
        out["est_error"] = _fmt(sv.tail_bound)
        out["truncation"] = {"terms": sv.terms, "tail_bound": _fmt(sv.tail_bound)}
        return out
    if q == "entropy":
        t = int(_need(args, "t"))
        xi = float(_need(args, "xi"))
        record(t=t, xi=xi)
        sv = tmod.entropy_partial(t, xi)
        out["value"] = {"re": _fmt(sv.value.real), "im": _fmt(0.0)}
        out["est_error"] = _fmt(sv.tail_bound)
        out["truncation"] = {"terms": sv.terms, "tail_bound": _fmt(sv.tail_bound)}
        return out
    if q == "mode_sum_F":
        spec = _spectrum_from_arg(args.spectrum or "s3")
        beta = float(_need(args, "beta"))
        record(spectrum=spec.label, beta=beta)
        sv = tmod.mode_sum_free_energy(spec, beta)
        out["value"] = {"re": _fmt(sv.value.real), "im": _fmt(0.0)}
        out["est_error"] = _fmt(sv.tail_bound)
        out["truncation"] = {"terms": sv.terms, "tail_bound": _fmt(sv.tail_bound)}
        return out
    raise KeyError(q)


EVAL_QUANTITIES = (
    "eps eps_sub mellin_eps_sub S psi_bar phi_bar pbar rbar z2 z2_kober "
    "z2_quartic zp_massive f3 f3_epstein f3_modesum free_energy entropy mode_sum_F"
).split()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_rows(target: str) -> list[dict]:
    rows = []
    tols = [1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
    if target == "kober-vs-direct":
        form, w = (1, 0, 1), 2.5  # exponent s = 3, u = 1
        for tol in tols:
            t0 = time.perf_counter()
            k = emod.z2_kober(form, w, target_tol=tol)
            dt_k = time.perf_counter() - t0
            t0 = time.perf_counter()
            d = emod.z2_direct(form, w + 0.5, tol=tol)
            dt_d = time.perf_counter() - t0
            radius = int((math.isqrt(d.terms + 1) - 1) // 2)
            rows.append({"tolerance": tol, "method": "kober", "terms_or_radius": k.terms, "points": k.terms, "wall_time_s": dt_k, "value": k.value.real})
            rows.append({"tolerance": tol, "method": "direct", "terms_or_radius": radius, "points": d.terms, "wall_time_s": dt_d, "value": d.value.real})
        return rows
    if target == "massive-vs-direct":
        p, s, w = 2, 3.0, 0.8
        for tol in tols:
            t0 = time.perf_counter()
            zm = emod.zp_massive(p, s, w, target_tol=tol)
            dt_m = time.perf_counter() - t0
            t0 = time.perf_counter()
            zb = emod.zp_brute(p, s, w, tol=tol)
            dt_b = time.perf_counter() - t0
            radius = int((math.isqrt(zb.terms + 1) - 1) // 2)
            rows.append({"tolerance": tol, "method": "massive", "terms_or_radius": zm.terms, "points": zm.terms, "wall_time_s": dt_m, "value": zm.value.real})
            rows.append({"tolerance": tol, "method": "direct", "terms_or_radius": radius, "points": zb.terms, "wall_time_s": dt_b, "value": zb.value.real})
        return rows
    if target == "qseries-vs-mellin":
        t_, b = 2, 1.0
        for tol in tols:
            t0 = time.perf_counter()
            e = qmod.eps_sub(t_, b, tol=tol)
            dt_q = time.perf_counter() - t0
            t0 = time.perf_counter()
            m = qmod.mellin_eps_sub(t_, b, tol=max(tol, 1e-9))
            dt_m = time.perf_counter() - t0
            rows.append({"tolerance": tol, "method": "qseries", "terms_or_radius": e.terms, "points": e.terms, "wall_time_s": dt_q, "value": e.value.real})
            rows.append({"tolerance": tol, "method": "mellin", "terms_or_radius": 0, "points": 0, "wall_time_s": dt_m, "value": m.value.real})
        return rows
    raise KeyError(target)


BENCH_TARGETS = ["kober-vs-direct", "massive-vs-direct", "qseries-vs-mellin"]


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _table_rows(name: str) -> tuple[list[str], list[list]]:
    if name == "period-polynomials":
        header = ["t", "x_power", "coefficient_exact", "coefficient_numeric"]
        rows = []
        for t in range(2, 9):
            for k, c in enumerate(pmod.pbar(t).coeffs):
                if not c.is_zero():
                    rows.append([t, k, str(c), _fmt(c.numeric())])
        return header, rows
    if name == "moments":
        header = ["t", "k", "exact", "quadrature"]
        rows = []
        for t in range(2, 7):
            for k in range(0, 2 * t - 1):
                quad_val = qmod.moment(t, k).value.real
                if k % 2 == 1:
                    j = (k + 1) // 2
                    from fractions import Fraction

                    from .exactnum import bernoulli

                    exact = Fraction((-1) ** j) * bernoulli(2 * j) * bernoulli(
                        2 * t - 2 * j
                    ) / (8 * j * (t - j))
                    exact_s = str(exact)
                elif 0 < k < 2 * t - 2:
                    exact_s = "0"
                else:
                    exact_s = ""
                rows.append([t, k, exact_s, _fmt(quad_val)])
        return header, rows
    if name == "lerch-values":
        header = ["t", "psi_bar_at_1_exact", "S_t_at_i_numeric"]
        rows = []
        for t in (2, 4, 6, 8):
            exact = pmod.rbar(t).eval_exact(1)
            # at the self-dual point psi_bar(1) = R(1)/2 for even t
            half = exact * pmod.SymComplex(__import__("fractions").Fraction(1, 2))
            val = half.numeric().real / (4 * math.pi)
            rows.append([t, str(half.re), _fmt(val)])
        return header, rows
    if name == "f3-grid":
        header = ["xi", "f3_epstein", "f3_modesum", "difference"]
        rows = []
        for xi in (0.3, 0.5, 0.8, 1.0, 1.7, 3.0, 5.0):
            a = tmod.f3_epstein(xi).value.real
            b = tmod.f3_modesum(xi).value.real
            rows.append([_fmt(xi), _fmt(a), _fmt(b), _fmt(a - b)])
        return header, rows
    raise KeyError(name)


TABLE_NAMES = ["period-polynomials", "moments", "lerch-values", "f3-grid"]


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="modzeta", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a registered quantity")
    ev.add_argument("quantity", choices=EVAL_QUANTITIES)
    ev.add_argument("--t", type=int)
    ev.add_argument("--b", help="half-plane point, 're' or 're,im'")
    ev.add_argument("--x", type=float)
    ev.add_argument("--xi", type=float)
    ev.add_argument("--s", type=float)
    ev.add_argument("--w", type=float)
    ev.add_argument("--p", type=int)
    ev.add_argument("--form", help="binary form a,b,c")
    ev.add_argument("--beta", type=float)
    ev.add_argument("--spectrum", help="s3 | single-mode | path to JSON")
    ev.add_argument("--tol", type=float)
    ev.add_argument("--tail", choices=["bound", "integral"], default="bound",
                    help="tail handling for direct lattice sums")
    ev.add_argument("--format", choices=["json", "csv", "text"], default="text")
    ev.add_argument("--out")

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("suite", choices=suite_names())
    vf.add_argument("--format", choices=["json", "csv", "text"], default="text")
    vf.add_argument("--out")

    bn = sub.add_parser("bench", help="benchmark acceleration vs direct summation")
    bn.add_argument("target", choices=BENCH_TARGETS)
    bn.add_argument("--out")

    tb = sub.add_parser("table", help="emit a table artifact")
    tb.add_argument("name", choices=TABLE_NAMES)
    tb.add_argument("--format", choices=["json", "csv"], default="csv")
    tb.add_argument("--out")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "eval":
            doc = _eval_quantity(args)
            if args.format == "json":
                _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
            elif args.format == "csv":
                header = ["quantity", "value_re", "value_im", "est_error"]
                val = doc.get("value", {})
                rows = [[doc["quantity"], val.get("re", ""), val.get("im", ""), doc.get("est_error", "")]]
                _emit(_rows_to_csv(header, rows), args.out)
            else:
                lines = [f"{doc['quantity']}  params={json.dumps(doc['params'], sort_keys=True)}"]
                if "exact" in doc:
                    for k in sorted(doc["exact"], key=lambda v: int(v)):
                        lines.append(f"  x^{k}: {doc['exact'][k]}")
                if "value" in doc:
                    lines.append(f"  value = {doc['value']['re']} + {doc['value']['im']} i")
                lines.append(f"  est_error = {doc.get('est_error', '0')}")
                _emit("\n".join(lines) + "\n", args.out)
            return EXIT_OK

        if args.command == "verify":
            results = run_suites(args.suite)
            ok = all(r.passed for r in results)
            if args.format == "json":
                doc = [
                    {
                        "suite": r.suite,
                        "name": r.name,
                        "residual": _fmt(r.residual),
                        "tol": _fmt(r.tol),
                        "passed": r.passed,
                    }
                    for r in results
                ]
                _emit(json.dumps(doc, indent=2) + "\n", args.out)
            elif args.format == "csv":
                header = ["suite", "name", "residual", "tol", "passed"]
                rows = [[r.suite, r.name, _fmt(r.residual), _fmt(r.tol), r.passed] for r in results]
                _emit(_rows_to_csv(header, rows), args.out)
            else:
                lines = []
                for r in results:
                    mark = "PASS" if r.passed else "FAIL"
                    lines.append(f"[{mark}] {r.suite}: {r.name}  (residual {_fmt(r.residual)}, tol {_fmt(r.tol)})")
                n_fail = sum(1 for r in results if not r.passed)
                lines.append(f"{len(results)} checks, {n_fail} failed")
                _emit("\n".join(lines) + "\n", args.out)
            return EXIT_OK if ok else EXIT_VERIFY_FAIL

        if args.command == "bench":
            rows = _bench_rows(args.target)
            header = ["tolerance", "method", "terms_or_radius", "points", "wall_time_s", "value"]
            text = _rows_to_csv(header, [[r[h] for h in header] for r in rows])
            _emit(text, args.out)
            return EXIT_OK

        if args.command == "table":
            header, rows = _table_rows(args.name)
            if args.format == "json":
                doc = [dict(zip(header, row)) for row in rows]
                _emit(json.dumps(doc, indent=2) + "\n", args.out)
            else:
                _emit(_rows_to_csv(header, rows), args.out)
            return EXIT_OK
    except (ConvergenceError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (DomainError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModzetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

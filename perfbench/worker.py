"""Child processes of the benchmark; each runs in a fresh interpreter with
the checkout's ``src`` on PYTHONPATH.  run.py starts them:

    worker.py verify [--calibrate-every S] [--trace SEED --spans PATH]
        one verify-all pass: import modzeta.verify, run_suites("all"); with
        --calibrate-every it takes a calibration sample every S seconds of
        the pass and leaves their time out of run_s
    worker.py sweep --seed N (--seconds S | --count N) [--pause-every B]
                    [--trace --spans PATH]
        the route-sweep loop, after a warm-up round of every family; with
        --pause-every it prints "pause" before every B-th block and waits
        for a line on stdin, while run.py takes a calibration sample; the
        line is the speed factor so far, and --seconds then bounds the
        request time at the reference speed
    worker.py cli --seed N --out PATH [--spans PATH] -- ARGV...
        one traced `modzeta eval` (cli-oneshot's traced run)

verify and sweep print one JSON object as the last line of stdout; cli
leaves stdout to modzeta and writes its JSON to --out.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from time import perf_counter


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(seed):
    from tracer import Tracer

    tr = Tracer(seed)
    tr.install()
    return tr


def _finish(out: dict, tr, spans_path):
    if tr is not None:
        out["trace"] = tr.aggregates()
        if spans_path:
            tr.dump(spans_path)
    out["maxrss_mb"] = _maxrss_mb()


def verify(args) -> dict:
    t0 = perf_counter()
    import modzeta.verify as vmod

    out = {"import_s": perf_counter() - t0}
    from calib import Speed, sampling_every  # after the timed import: it loads numpy
    tr = _tracer(args.trace) if args.trace is not None else None
    speed = Speed()
    with sampling_every(speed, args.calibrate_every) as sampling_s:
        t0 = perf_counter()
        results = vmod.run_suites("all")
        out["sampling_s"] = sampling_s()
        out["run_s"] = perf_counter() - t0 - out["sampling_s"]
    out["calib"] = speed.samples()
    out["checks"] = len(results)
    out["failed"] = [f"{r.suite}: {r.name}" for r in results if not r.passed]
    out["worst_margin"], out["worst_check"] = max(
        (r.residual / r.tol, f"{r.suite}: {r.name}") for r in results if r.tol > 0
    )
    _finish(out, tr, args.spans)
    return out


def sweep(args) -> dict:
    import inputs
    import routes

    tr = _tracer(args.seed) if args.trace else None
    warm, warm_fail = inputs.warmup_requests(args.seed), []
    for req in warm:
        try:
            r, tol = routes.run_request(req)
        except Exception as exc:  # counted like a measured failure, not fatal
            r, tol = math.inf, 1.0
            print(f"warm-up {req}: {exc!r}", file=sys.stderr)
        if not r <= tol:
            warm_fail.append(req["family"])
    if tr is not None:
        tr.reset()
    limit = args.count if args.count is not None else math.inf
    lat, fams, margins, errors, blocks = [], [], [], [], []
    paused_s = 0.0  # time run.py spent calibrating, left out of the measured time
    factor = 1.0  # run.py's speed factor so far, sent back at each pause
    scaled_s = 0.0  # request time at the reference speed, which --seconds bounds
    start = perf_counter()
    for block in inputs.iter_route_blocks(args.seed):
        if args.pause_every and len(blocks) % args.pause_every == 0:
            t0 = perf_counter()
            print("pause", flush=True)
            factor = float(sys.stdin.readline())
            paused_s += perf_counter() - t0
        block_s = 0.0
        for req in block:
            if len(lat) >= limit or (args.count is None and scaled_s >= args.seconds):
                break
            if tr is not None:
                tr.request = len(lat)
            t0 = perf_counter()
            try:
                r, tol = routes.run_request(req)
                margin = r / tol
            except Exception as exc:  # a failed request is counted, not fatal
                margin = math.inf
                if len(errors) < 20:  # messages only; run.py counts failures from the margins
                    errors.append(f"{req}: {exc!r}")
            dt = perf_counter() - t0
            block_s += dt
            scaled_s += dt / factor
            lat.append(dt)
            fams.append(req["family"])
            margins.append(margin if margin == margin else math.inf)
        else:
            blocks.append(block_s)
            continue
        break
    out = {
        "elapsed_s": perf_counter() - start - paused_s,
        "latencies": lat,
        "families": fams,
        "margins": margins,
        "blocks": blocks,
        "errors": errors,
        "warmup_n": len(warm),
        "warmup_failed": warm_fail,
    }
    _finish(out, tr, args.spans)
    return out


def cli(args) -> int:
    t0 = perf_counter()
    import modzeta.cli as cmod

    out = {"import_s": perf_counter() - t0}
    tr = _tracer(args.seed)
    t0 = perf_counter()
    code = cmod.main(args.argv)
    out["main_s"] = perf_counter() - t0
    sys.stdout.flush()
    _finish(out, tr, args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="worker.py")
    sub = ap.add_subparsers(dest="mode", required=True)
    v = sub.add_parser("verify")
    v.add_argument("--calibrate-every", type=float)
    v.add_argument("--trace", type=int)
    v.add_argument("--spans")
    s = sub.add_parser("sweep")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--seconds", type=float)
    s.add_argument("--count", type=int)
    s.add_argument("--pause-every", type=int, default=0)
    s.add_argument("--trace", action="store_true")
    s.add_argument("--spans")
    c = sub.add_parser("cli")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--spans")
    c.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return cli(args)
    out = verify(args) if args.mode == "verify" else sweep(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

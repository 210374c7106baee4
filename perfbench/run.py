"""modzeta benchmark: one closed loop, one client, one workload per run.

    python3 perfbench/run.py --workload {verify-all,route-sweep,cli-oneshot,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are a readable summary.  Exit code 0 when every output checked out, 1 when
a check failed, 2 when the checkout holds no modzeta sources.  --workload
all runs the three workloads one after the other, each in its own process.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import calib
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = str(HERE / "worker.py")
PY = sys.executable
DEADLINE_S = 170.0  # every run ends well inside 180 s
SETUP_MODULES = {
    "verify-all": ["modzeta.verify"],
    "route-sweep": ["modzeta.qseries", "modzeta.epstein", "modzeta.dirichlet", "modzeta.thermal"],
    "cli-oneshot": ["modzeta.cli"],
}
WORKLOADS = tuple(SETUP_MODULES)
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class Run:
    """One benchmark run: the clock, the child environment, the checks."""

    def __init__(self, args):
        self.args = args
        self.start = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
        self.attempted = 0
        self.failures: list[str] = []
        self.margins: list[float] = []
        self.notes: dict = {}
        self.setup_times: list[float] = []
        self.speed = calib.Speed()
        self.tail: dict | None = None

    def remaining(self) -> float:
        return DEADLINE_S - (perf_counter() - self.start)

    def child(self, argv) -> tuple[subprocess.CompletedProcess, float]:
        """Run a child process to completion; return it and its wall time."""
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=self.env, cwd=ROOT,
                              timeout=max(self.remaining(), 1.0))
        return proc, perf_counter() - t0

    def worker(self, *argv) -> tuple[dict, float]:
        proc, dt = self.child([PY, WORKER, *argv])
        if proc.returncode != 0:
            raise RuntimeError(f"worker {argv[0]} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
        return json.loads(proc.stdout.decode().splitlines()[-1]), dt

    def paused_worker(self, *argv) -> dict:
        """Run a worker that prints "pause" between blocks; take a
        calibration sample at each pause, here and not in the measured
        process, then send it the speed factor so far."""
        with subprocess.Popen([PY, WORKER, *argv], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=self.env, cwd=ROOT, text=True) as proc:
            watchdog = threading.Timer(max(self.remaining(), 1.0), proc.kill)  # the run's deadline
            watchdog.start()
            try:
                lines = []
                for line in proc.stdout:
                    if line == "pause\n":
                        self.speed.sample()
                        proc.stdin.write(f"{self.speed.factor()!r}\n")
                        proc.stdin.flush()
                    else:
                        lines.append(line)
                err = proc.stderr.read()
                code = proc.wait(timeout=max(self.remaining(), 1.0))
            except BaseException:
                proc.kill()
                raise
            finally:
                watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"worker {argv[0]} exited {code}: {err[-2000:]}")
        return json.loads(lines[-1])

    def probe_setup(self, k: int):
        """Time `k` fresh interpreters importing the modules the workload
        calls, each followed by two calibration samples.  Probes are spread
        over the run; the first probe of a run is untimed and fills the
        bytecode cache."""
        code = "import " + ", ".join(SETUP_MODULES[self.args.workload])
        if not self.setup_times:
            self.child([PY, "-c", code])
        for _ in range(k):
            self.setup_times.append(self.child([PY, "-c", code])[1])
            self.speed.sample(2)

    def setup_s(self) -> float:
        return statistics.median(self.setup_times)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  With ten samples or fewer there is
    no such percentile and the maximum is reported as p100."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def latency_metrics(run: Run, lat_s: list[float]) -> dict:
    value, pct, n = tail(lat_s)
    run.tail = {"percentile": round(pct, 3), "samples": n}
    return {"latency_p50_ms": 1e3 * statistics.median(lat_s), "latency_tail_ms": 1e3 * value}


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def _check_pass(run: Run, res: dict):
    run.attempted += 1
    run.margins.append(res["worst_margin"])
    run.notes.setdefault("checks", set()).add(res["checks"])
    run.notes["worst_check"] = res["worst_check"]
    if res["failed"]:
        run.failures.append(f"verify pass failed {len(res['failed'])} checks: {res['failed'][:3]}")


def verify_all(run: Run, seconds: float) -> dict:
    run.probe_setup(3)
    passes, rss = [], []
    busy = 0.0
    while not passes or busy / run.speed.factor() < seconds:
        res, dt = run.worker("verify", "--calibrate-every", "0.5")
        dt -= res["sampling_s"]  # the pass's own time, without its calibration samples
        run.speed.add(res["calib"])
        _check_pass(run, res)
        passes.append(dt)
        busy += dt
        rss.append(res["maxrss_mb"])
        run.probe_setup(1)
    ok = run.attempted - len(run.failures)
    m = {"setup_s": run.setup_s(), "ops_per_s": ok / busy, "pass_s": statistics.median(passes), "peak_rss_mb": max(rss)}
    m.update(latency_metrics(run, passes))
    return m


def spans_file(workload: str) -> str:
    """A fresh file for the spans of this traced run."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}.jsonl"
    path.unlink(missing_ok=True)
    return str(path)


def verify_all_traced(run: Run, seconds: float) -> dict:
    plain, _ = run.worker("verify")
    _check_pass(run, plain)
    traced, _ = run.worker("verify", "--trace", str(run.args.seed), "--spans", spans_file("verify-all"))
    _check_pass(run, traced)
    agg = traced["trace"]
    return layer_metrics(agg, 1, traced["run_s"] / plain["run_s"], run.args.seed)


# ---------------------------------------------------------------------------
# route-sweep
# ---------------------------------------------------------------------------

def _check_sweep(run: Run, res: dict):
    run.attempted += len(res["latencies"]) + res["warmup_n"]
    run.margins.extend(res["margins"])
    for fam, margin in zip(res["families"], res["margins"]):
        if not margin <= 1.0:
            run.failures.append(f"{fam}: residual/tol {margin}")
    for err in res["errors"]:  # the text of requests that raised, already counted above
        print(f"  raised {err}", file=sys.stderr)
    for fam in res["warmup_failed"]:
        run.failures.append(f"warm-up {fam} request failed")
    fam_stats = {}
    for fam in inputs.FAMILIES:
        lat = [x for f, x in zip(res["families"], res["latencies"]) if f == fam]
        mg = [x for f, x in zip(res["families"], res["margins"]) if f == fam]
        if lat:
            fam_stats[fam] = {"n": len(lat), "median_ms": 1e3 * statistics.median(lat),
                              "max_ms": 1e3 * max(lat), "worst_margin": max(mg)}
    run.notes["families"] = fam_stats


def route_sweep(run: Run, seconds: float) -> dict:
    run.probe_setup(3)
    res = run.paused_worker("sweep", "--seed", str(run.args.seed), "--seconds", str(seconds), "--pause-every", "1")
    run.probe_setup(3)
    _check_sweep(run, res)
    ok = sum(margin <= 1.0 for margin in res["margins"])
    m = {"setup_s": run.setup_s(), "pass_s": statistics.median(res["blocks"]), "ops_per_s": ok / res["elapsed_s"],
         "peak_rss_mb": res["maxrss_mb"]}
    m.update(latency_metrics(run, res["latencies"]))
    return m


def route_sweep_traced(run: Run, seconds: float) -> dict:
    seed = str(run.args.seed)
    plain = run.paused_worker("sweep", "--seed", seed, "--seconds", str(seconds / 2), "--pause-every", "1")
    plain_s, run.speed = plain["elapsed_s"] / run.speed.factor(), calib.Speed()
    n = len(plain["latencies"])
    traced = run.paused_worker("sweep", "--seed", seed, "--count", str(n), "--pause-every", "1", "--trace",
                               "--spans", spans_file("route-sweep"))
    _check_sweep(run, plain)
    _check_sweep(run, traced)
    overhead = traced["elapsed_s"] / run.speed.factor() / plain_s  # each half at the reference speed
    return layer_metrics(traced["trace"], n, overhead, run.args.seed)


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

def _run_cli(run: Run, seconds: float, between_rounds=None) -> list[dict]:
    """Whole rounds of `python -m modzeta.cli eval ...`, one process at a
    time, until the processes have taken `seconds` together at the
    reference speed."""
    done = []
    busy = 0.0
    for rnd in inputs.iter_cli_rounds(run.args.seed):
        if busy >= seconds * run.speed.factor():
            break
        for cmd in rnd:
            proc, dt = run.child([PY, "-m", "modzeta.cli", *cmd["argv"]])
            run.speed.sample()
            busy += dt
            done.append({"argv": cmd["argv"], "s": dt, "code": proc.returncode, "stdout": proc.stdout,
                         "stderr": proc.stderr})
        if between_rounds is not None:
            between_rounds()
    return done


def _check_cli(run: Run, done: list[dict]):
    """Exit code, byte-identical stdout against main(argv) in this process,
    and the printed value against an independent route."""
    sys.path.insert(0, str(SRC))
    import modzeta.cli as cmod
    import routes

    for rec in done:
        run.attempted += 1
        argv = rec["argv"]
        if rec["code"] != 0:
            run.failures.append(f"{argv}: exit {rec['code']}: {rec['stderr'].decode()[-500:]}")
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cmod.main(list(argv))
        if rec["stdout"] != buf.getvalue().encode("utf-8"):
            run.failures.append(f"{argv}: stdout differs from main(argv) in process")
            continue
        try:
            r, tol = routes.cli_pair(argv, routes.parse_value(argv, rec["stdout"].decode("utf-8")))
        except Exception as exc:  # a failed pairing is a failed check
            run.failures.append(f"{argv}: paired route raised {exc!r}")
            continue
        run.margins.append(r / tol)
        if not r <= tol:
            run.failures.append(f"{argv}: residual {r:.3e} > tol {tol:.3e}")


def _rounds(done: list[dict]) -> list[float]:
    k = len(inputs.CLI_QUANTITIES)
    return [sum(r["s"] for r in done[i:i + k]) for i in range(0, len(done) - k + 1, k)]


def cli_oneshot(run: Run, seconds: float) -> dict:
    run.probe_setup(2)
    done = _run_cli(run, seconds, between_rounds=lambda: run.probe_setup(1))
    _check_cli(run, done)
    ok = run.attempted - len(run.failures)
    m = {"setup_s": run.setup_s(), "pass_s": statistics.median(_rounds(done)),
         "ops_per_s": ok / sum(r["s"] for r in done),
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    m.update(latency_metrics(run, [r["s"] for r in done]))
    return m


def _importtime_scipy(stderr: str) -> float:
    """Seconds of `-X importtime` spent under top-level scipy imports (the
    cumulative time of each scipy entry with no scipy ancestor)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cum), name.strip()))
    total, stack = 0, []
    for depth, cum, name in reversed(rows):  # post-order reversed: parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(s for _, s in stack):
            total += cum
        stack.append((depth, is_scipy))
    return total * 1e-6


def cli_oneshot_traced(run: Run, seconds: float) -> dict:
    plain = _run_cli(run, seconds / 2)
    plain_s, run.speed = sum(r["s"] for r in plain) / run.speed.factor(), calib.Speed()
    spans = spans_file("cli-oneshot")
    out = OUT / "cli-trace.json"
    aggs, imports, mains, scipy_s, traced_s = [], [], [], [], []
    traced = []
    for rec in plain:
        proc, dt = run.child([PY, "-X", "importtime", WORKER, "cli", "--seed", str(run.args.seed),
                              "--out", str(out), "--spans", spans, "--", *rec["argv"]])
        run.speed.sample()
        traced.append({"argv": rec["argv"], "s": dt, "code": proc.returncode, "stdout": proc.stdout,
                       "stderr": b""})
        if proc.returncode != 0:
            continue
        res = json.loads(out.read_text(encoding="utf-8"))
        aggs.append(res["trace"])
        imports.append(res["import_s"])
        mains.append(res["main_s"])
        scipy_s.append(_importtime_scipy(proc.stderr.decode()))
        traced_s.append(dt)
    _check_cli(run, plain)
    _check_cli(run, traced)
    overhead = sum(traced_s) / run.speed.factor() / plain_s  # each half at the reference speed
    m = layer_metrics(tracer.merge(aggs), len(plain), overhead, run.args.seed)
    m.update({
        "cli.import_s": statistics.median(imports),
        "cli.import.scipy_s": statistics.median(scipy_s),
        "cli.main_s": statistics.median(mains),
        "cli.process_s": statistics.median(r["s"] for r in plain),
    })
    return m


# ---------------------------------------------------------------------------
# per-layer metrics and output
# ---------------------------------------------------------------------------

def pin_to_one_cpu():
    """Run this process and every child on one CPU, the highest allowed.
    The loop is sequential, so this costs it nothing; it keeps the
    calibration samples and the operations they scale on the same CPU,
    which on a shared machine can be slower or faster than its sibling."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


SCALED = ("setup_s", "pass_s", "latency_p50_ms", "latency_tail_ms")


def at_reference_speed(measured: dict, factor: float) -> dict:
    """The end-to-end metrics with every time scaled to the reference speed
    of calib.py: times divided by the run's speed factor, rates multiplied."""
    m = dict(measured)
    for name in SCALED:
        m[name] = measured[name] / factor
    m["ops_per_s"] = measured["ops_per_s"] * factor
    return m


def layer_metrics(agg: dict, ops: int, overhead: float, seed: int) -> dict:
    m = tracer.per_layer(agg, ops, tracer.accuracy(agg["samples"], seed))
    m.update({"cli.import_s": 0.0, "cli.import.scipy_s": 0.0, "cli.main_s": 0.0, "cli.process_s": 0.0})
    m["trace.ops"] = ops
    m["trace.overhead_ratio"] = overhead
    return m


def environment(args, run: Run) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.decode().strip()
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": run.attempted,
    }


UNITS = {"self_s": "s/op", "calls": "count/op", "inits": "count/op", "entries": "count/op", "terms": "count/op",
         "failed": "count/op", "lattice_points": "count/op", "bessel_terms": "count/op", "spans": "count/op",
         "rebuild_ratio": "ratio", "max_rel_err": "ratio", "overhead_ratio": "ratio", "ops": "count",
         "s": "s/op", "worst_margin": "ratio", "failed_ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.startswith("cli."):
        return "s"
    return UNITS[name.rsplit(".", 1)[1]]


def run_all(args) -> int:
    """Every workload, one after the other, each in its own run.py process
    with the same arguments; the exit code is the worst of theirs."""
    worst = 0
    for workload in WORKLOADS:
        argv = [PY, __file__, "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "modzeta" / "__init__.py").is_file():
        print(f"perfbench: no modzeta sources under {SRC}; run from the root of a modzeta checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()
    run = Run(args)
    body = {
        (0, "verify-all"): verify_all, (1, "verify-all"): verify_all_traced,
        (0, "route-sweep"): route_sweep, (1, "route-sweep"): route_sweep_traced,
        (0, "cli-oneshot"): cli_oneshot, (1, "cli-oneshot"): cli_oneshot_traced,
    }[(args.trace, args.workload)]
    try:
        metrics = body(run, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    worst = max(run.margins) if run.margins else float("nan")
    failed = len(run.failures)
    correct = failed == 0 and run.attempted > 0
    measured, factor = metrics, None
    if args.trace:
        metrics["check.worst_margin"] = worst
        metrics["check.failed_ratio"] = failed / max(run.attempted, 1)
    else:
        factor = run.speed.factor()
        metrics = at_reference_speed(measured, factor)
    env = environment(args, run)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        extra = ""
        if name in SCALED or name == "ops_per_s":
            extra = f"  (measured {measured[name]:.6g})"
        if name == "latency_tail_ms":
            extra += f"  (p{run.tail['percentile']:g} of {run.tail['samples']} samples)"
        print(f"  {name:40s} {value:14.6g} {unit_of(name)}{extra}")
    if factor is not None:
        print(f"  {'speed_factor':40s} {factor:14.6g} ratio  (calibration time over reference time, "
              f"{len(run.speed.python)} samples; see calib.py)")
    print(f"  {'failed_ratio':40s} {failed / max(run.attempted, 1):14.6g} ratio  ({failed}/{run.attempted})")
    print(f"  {'worst_margin':40s} {worst:14.6g} ratio  (largest residual/tol)")
    for key, val in run.notes.items():
        print(f"  note {key}: {sorted(val) if isinstance(val, set) else json.dumps(val)}")
    for what in run.failures[:20]:
        print(f"  FAILED {what}")

    record = {"env": env, "metrics": metrics, "measured": measured, "speed_factor": factor,
              "calibration": run.speed.samples(), "tail": run.tail, "failed_ratio": failed / max(run.attempted, 1),
              "worst_margin": worst, "failures": run.failures[:50],
              "notes": {k: sorted(v) if isinstance(v, set) else v for k, v in run.notes.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

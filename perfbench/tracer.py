"""Span tracer for the traced run.

`Tracer.install()` wraps every public function of every loaded
``modzeta.*`` module, at each place it is bound: the defining module, every
module that imported it by name, and module-level dicts that hold it
(``verify.SUITES``).  It also wraps two class entry points:
``SymScalar.__init__`` (a counter, no span) and
``RationalPeriodFunction.equals`` (a span).

Each span records its name, start, end, parent span and request id.  Spans
are kept in memory and written out by `dump`.  A span's self time is its
duration minus the durations of its child spans.  Counters are collected at
the same boundaries:

* ``<layer>.terms``: SeriesValue.terms returned by calls that enter the
  layer from outside it (the parent span is in another module);
* ``epstein.lattice_points`` / ``epstein.bessel_terms``: terms returned by
  the direct lattice sums / by the Bessel expansions;
* sieve builds (``sigma_range``, ``rp_counts``): calls, entries built, and
  the share of builds an earlier build of the same order already covered;
* a seeded reservoir sample of ``bessel_k`` and ``zeta_numeric`` arguments
  and results, checked against mpmath by `accuracy` after all timing.
"""
from __future__ import annotations

import importlib
import json
import random
import sys
import types
from collections import defaultdict
from time import perf_counter

SUITES = (
    "inversion", "cocycle", "eichler-shimura", "bol", "moments",
    "kober", "massive", "guinand", "dirichlet", "thermal",
)
SIEVES = {"exactnum.sigma_range", "epstein.rp_counts"}
LATTICE_SUMS = {"epstein.z2_direct", "epstein.zp_brute"}
BESSEL_SUMS = {"epstein.z2_kober", "epstein.zp_massive"}
SAMPLED = {"epstein.bessel_k", "exactnum.zeta_numeric"}
SAMPLE_CAP = 200


class Tracer:
    def __init__(self, seed: int):
        self.rng = random.Random(f"trace-sample/{seed}")
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, name, layer, child seconds]
        self.next_id = 0
        self.request = 0
        self.sieve_built: dict[tuple, int] = {}  # (sieve, order) -> largest n built
        self.reset()

    def reset(self):
        """Zero every aggregate and sample; the sieve build history stays."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.counts = defaultdict(float)
        self.seen = {name: 0 for name in SAMPLED}
        self.samples = {name: [] for name in SAMPLED}
        self.spans.clear()

    # ------------------------------------------------------------------ spans
    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        tr = self

        def traced(*args, **kwargs):
            parent = tr.stack[-1] if tr.stack else None
            sid = tr.next_id
            tr.next_id += 1
            frame = [sid, name, layer, 0.0]
            tr.stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                tr.stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[3] += dur
                tr.calls[name] += 1
                tr.total_s[name] += dur
                tr.self_s[name] += dur - frame[3]
                if not ok:
                    tr.failed[layer] += 1
                tr.spans.append((sid, name, t0, t1, parent[0] if parent else -1, tr.request, ok))
            tr._count(name, layer, parent, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _count(self, name, layer, parent, args, result):
        terms = getattr(result, "terms", None)
        if isinstance(terms, int):
            if parent is None or parent[2] != layer:
                self.counts[f"{layer}.terms"] += terms
            if name in LATTICE_SUMS:
                self.counts["epstein.lattice_points"] += terms
            elif name in BESSEL_SUMS:
                self.counts["epstein.bessel_terms"] += terms
        if name in SIEVES:
            order, n_max = args[0], args[1]
            key = (name, order)
            if self.sieve_built.get(key, -1) >= n_max:
                self.counts[f"{name}.rebuilds"] += 1
            self.sieve_built[key] = max(self.sieve_built.get(key, -1), n_max)
            self.counts[f"{name}.entries"] += n_max
        elif name in SAMPLED:
            # reservoir sample of [argument..., result] as JSON-safe floats
            self.seen[name] += 1
            sample = self.samples[name]
            if name == "epstein.bessel_k":
                item = [float(args[0]), float(args[1]), float(result)]
            else:
                s, z = complex(args[0]), complex(result)
                item = [s.real, s.imag, z.real, z.imag]
            if len(sample) < SAMPLE_CAP:
                sample.append(item)
            else:
                j = self.rng.randrange(self.seen[name])
                if j < SAMPLE_CAP:
                    sample[j] = item

    # --------------------------------------------------------------- install
    def install(self):
        """Wrap public functions of every loaded modzeta module, everywhere
        they are bound, plus the named class entry points."""
        mods = [m for n, m in list(sys.modules.items()) if n.startswith("modzeta.") and m is not None]
        wrapped = {}
        for m in mods:
            short = m.__name__.split(".", 1)[1]
            for attr, obj in vars(m).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == m.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for m in mods:
            for attr, obj in list(vars(m).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(m, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if isinstance(v, types.FunctionType) and v in wrapped:
                            obj[k] = wrapped[v]
        exactnum = sys.modules.get("modzeta.exactnum")
        if exactnum is not None:
            init = exactnum.SymScalar.__init__
            tr = self

            def counted_init(obj, *args, **kwargs):
                tr.counts["exactnum.SymScalar.inits"] += 1
                init(obj, *args, **kwargs)

            exactnum.SymScalar.__init__ = counted_init
        periodpoly = sys.modules.get("modzeta.periodpoly")
        if periodpoly is not None:
            rpf = periodpoly.RationalPeriodFunction
            rpf.equals = self._wrap("periodpoly.equals", rpf.equals)

    # ---------------------------------------------------------------- output
    def aggregates(self) -> dict:
        """Totals over the traced interval, summable across processes."""
        layer_self = defaultdict(float)
        for name, v in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += v
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "layer_self_s": dict(layer_self),
            "failed": dict(self.failed),
            "counts": dict(self.counts),
            "spans": len(self.spans),
            "samples": self.samples,
        }

    def dump(self, path):
        """Append the spans to `path`, one JSON array per line."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge(aggs: list[dict]) -> dict:
    """Sum the aggregates of several traced processes."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float), "total_s": defaultdict(float),
           "layer_self_s": defaultdict(float), "failed": defaultdict(int), "counts": defaultdict(float),
           "spans": 0, "samples": defaultdict(list)}
    for agg in aggs:
        for key in ("calls", "self_s", "total_s", "layer_self_s", "failed", "counts"):
            for k, v in agg[key].items():
                out[key][k] += v
        out["spans"] += agg["spans"]
        for k, v in agg["samples"].items():
            out["samples"][k].extend(v)
    return out


def accuracy(samples: dict, seed: int) -> dict:
    """Largest relative error of the sampled bessel_k and zeta_numeric
    values against mpmath.  zeta's error is taken relative to
    max(|zeta(s)|, 1), so zeros of zeta on the critical line do not blow
    it up.  Imports mpmath, so call it only after every timed window."""
    mpmath = importlib.import_module("mpmath")
    mpmath.mp.dps = 30
    rng = random.Random(f"accuracy/{seed}")
    out = {}
    for name, ref, floor in (
        ("epstein.bessel_k", lambda nu, x, got: (got, mpmath.besselk(nu, x)), 0.0),
        ("exactnum.zeta_numeric", lambda sr, si, zr, zi: (complex(zr, zi), mpmath.zeta(mpmath.mpc(sr, si))), 1.0),
    ):
        pool = samples.get(name, [])
        picked = rng.sample(pool, min(len(pool), SAMPLE_CAP))
        worst = 0.0
        for item in picked:
            got, want = ref(*item)
            want = complex(want)
            worst = max(worst, abs(got - want) / max(abs(want), floor, 1e-300))
        out[f"{name}.max_rel_err"] = worst
    return out


def per_layer(agg: dict, ops: int, acc: dict) -> dict:
    """The per-layer metrics, per operation (pass, request or process)."""
    calls, self_s, counts = agg["calls"], agg["self_s"], agg["counts"]
    layer_self, failed = agg["layer_self_s"], agg["failed"]

    def per(v):
        return v / ops

    def ratio(sieve):
        n = calls.get(sieve, 0)
        return counts.get(f"{sieve}.rebuilds", 0) / n if n else 0.0

    m = {}
    for layer in ("periodpoly", "exactnum", "epstein", "qseries", "dirichlet", "thermal"):
        m[f"{layer}.self_s"] = per(layer_self.get(layer, 0.0))
    for layer in ("epstein", "qseries", "dirichlet", "thermal"):
        m[f"{layer}.failed"] = per(failed.get(layer, 0))
    for layer in ("qseries", "dirichlet", "thermal"):
        m[f"{layer}.terms"] = per(counts.get(f"{layer}.terms", 0))
    for fn in ("periodpoly.stroke", "periodpoly.equals", "exactnum.zeta_numeric", "exactnum.gamma_numeric",
               "exactnum.sigma_range", "epstein.bessel_k", "epstein.rp_counts", "qseries.mellin_eps_sub"):
        m[f"{fn}.calls"] = per(calls.get(fn, 0))
    for fn in ("periodpoly.stroke", "periodpoly.cocycle_compose", "periodpoly.equals", "periodpoly.bol_check",
               "exactnum.zeta_numeric", "epstein.bessel_k", "epstein.z2_direct", "epstein.zp_brute",
               "qseries.mellin_eps_sub", "dirichlet.pole_residue"):
        m[f"{fn}.self_s"] = per(self_s.get(fn, 0.0))
    m["exactnum.SymScalar.inits"] = per(counts.get("exactnum.SymScalar.inits", 0))
    for sieve in ("exactnum.sigma_range", "epstein.rp_counts"):
        m[f"{sieve}.entries"] = per(counts.get(f"{sieve}.entries", 0))
        m[f"{sieve}.rebuild_ratio"] = ratio(sieve)
    m["epstein.lattice_points"] = per(counts.get("epstein.lattice_points", 0))
    m["epstein.bessel_terms"] = per(counts.get("epstein.bessel_terms", 0))
    for suite in SUITES:
        fn = "verify.suite_" + suite.replace("-", "_")
        m[f"verify.{suite}.s"] = per(agg["total_s"].get(fn, 0.0))
    m.update(acc)
    m["trace.spans"] = per(agg["spans"])
    return m

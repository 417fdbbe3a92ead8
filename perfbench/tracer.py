"""Outside-in tracing of the program's layers for the traced benchmark run.

Tracer.install() replaces public names of the program's modules with timing
wrappers that pass *args and **kwargs through unchanged.  Each call records a
span (id, name, start, end, parent span, command id) in memory; a wrapped
call on a worker thread with no open span of its own takes the innermost
open span of the thread that started the command as its parent.

layer_metrics() turns the spans of one traced run into the per-layer metrics.
"""

import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager

# (module, attribute, span name).  Functions are wrapped where their callers
# look them up, so calls between modules of the program are seen too.
TARGETS = [
    *[(mod, "primes_up_to", "primes.primes_up_to")
      for mod in ("yoshida.hecke", "yoshida.curves", "yoshida.lift", "yoshida.signs")],
    *[(mod, "is_prime", "primes.is_prime") for mod in ("yoshida.hecke", "yoshida.curves")],
    ("yoshida.curves", "NewformCoeffs", "hecke.NewformCoeffs"),
    *[("yoshida.curves", fn, f"curves.{fn}") for fn in ("ap_table", "load_coeffs", "write_coeffs")],
    *[("yoshida.lift", fn, f"lift.{fn}") for fn in ("validate_pair", "lift_sequence")],
    *[("yoshida.signs", fn, f"signs.{fn}")
      for fn in ("bound_report", "weighted_sum", "first_negative", "lower_bound_witness",
                 "abs_sum_ratio", "v_density", "corollary_check", "bad_factor_bound")],
    *[("yoshida.majorant", fn, f"majorant.{fn}")
      for fn in ("optimize_delta", "linprog", "feasible_numeric", "feasible_sufficient")],
    # a lazy `from scipy.optimize import linprog` would find this one instead
    ("scipy.optimize", "linprog", "majorant.linprog"),
]

STATS = ("signs.abs_sum_ratio", "signs.v_density", "signs.corollary_check", "signs.bad_factor_bound")

# name -> unit of every per-layer metric, in print order
UNITS = {
    "import.yoshida_s": "s",
    "import.scipy_optimize_s": "s",
    "primes.primes_up_to.calls": "count",
    "primes.primes_up_to.s": "s",
    "primes.is_prime.calls": "count",
    "primes.is_prime.s": "s",
    "hecke.NewformCoeffs.calls": "count",
    "hecke.NewformCoeffs.s": "s",
    "curves.ap_table.calls": "count",
    "curves.ap_table.s": "s",
    "curves.ap_table.primes": "count",
    "curves.ap_table.primes_per_s": "1/s",
    "curves.pool_gain": "ratio",
    "curves.load_coeffs.s": "s",
    "curves.load_coeffs.rows": "count",
    "curves.write_coeffs.s": "s",
    "curves.write_coeffs.bytes": "bytes",
    "lift.validate_pair.s": "s",
    "lift.lift_sequence.report_s": "s",
    "lift.lift_sequence.lift_s": "s",
    "lift.lift_sequence.n": "count",
    "lift.lift_sequence.n_per_s": "1/s",
    "signs.bound_report.s": "s",
    "signs.weighted_sum.calls": "count",
    "signs.weighted_sum.s": "s",
    "signs.first_negative.s": "s",
    "signs.lower_bound_witness.s": "s",
    "signs.v_density.calls": "count",
    "signs.stats.s": "s",
    "majorant.optimize_delta.s": "s",
    "majorant.linprog.calls": "count",
    "majorant.linprog.s": "s",
    "majorant.feasible_numeric.s": "s",
    "majorant.feasible_sufficient.s": "s",
    "cli.ap.self_s": "s",
    "cli.lift.self_s": "s",
    "cli.report.self_s": "s",
    "cli.majorant.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or None, command id)
        self.cmd = None
        self._ids = itertools.count()
        self._main_ident = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    def _close(self, opened, name, start):
        end = time.perf_counter()
        stack, parent, sid = opened
        stack.pop()
        self.spans.append((sid, name, start, end, parent, self.cmd))

    @contextmanager
    def span(self, name: str):
        opened = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(opened, name, start)

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            opened = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(opened, name, start)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for modname, attr, name in TARGETS:
            # scipy is wrapped only if the program has imported it already
            mod = sys.modules.get(modname) if modname.startswith("scipy") else \
                importlib.import_module(modname)
            if mod is not None and hasattr(mod, attr):
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (cur_e - cur_s if cur_e is not None else 0.0)


def layer_metrics(spans, counts: dict) -> dict:
    """Per-layer metrics of one traced run.

    counts holds what the benchmark took from inputs and outputs:
    ap_primes, ap_bytes, load_rows, lift_n and out_bytes."""
    calls, secs, by_name, children = {}, {}, {}, {}
    for sid, name, s, e, parent, cmd in spans:
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (e - s)
        by_name.setdefault(name, []).append((s, e, cmd))
        children.setdefault(parent, []).append((s, e))
    kind_of = {sid: name.split(".", 1)[1] for sid, name, *_ in spans if name.startswith("cli.")}

    m = {}
    for key in UNITS:
        name, _, stat = key.rpartition(".")
        m[key] = calls.get(name, 0) if stat == "calls" else secs.get(name, 0.0) if stat == "s" else 0.0
    m["signs.stats.s"] = _union([(s, e) for n in STATS for s, e, _ in by_name.get(n, [])])

    cmd_kind = {}
    for sid, name, s, e, parent, cmd in spans:
        if sid in kind_of:
            cmd_kind[cmd] = kind_of[sid]
            key = f"cli.{kind_of[sid]}.self_s"
            if key in m:
                m[key] += (e - s) - _union(children.get(sid, []))
    for s, e, cmd in by_name.get("lift.lift_sequence", []):
        key = f"lift.lift_sequence.{cmd_kind.get(cmd)}_s"
        if key in m:
            m[key] += e - s

    m["curves.ap_table.primes"] = counts["ap_primes"]
    if m["curves.ap_table.s"] > 0:
        m["curves.ap_table.primes_per_s"] = counts["ap_primes"] / m["curves.ap_table.s"]
    m["curves.load_coeffs.rows"] = counts["load_rows"]
    m["curves.write_coeffs.bytes"] = counts["ap_bytes"]
    lift_calls = len(by_name.get("lift.lift_sequence", []))
    lift_s = secs.get("lift.lift_sequence", 0.0)
    m["lift.lift_sequence.n"] = counts["lift_n"]
    if lift_s > 0:
        m["lift.lift_sequence.n_per_s"] = counts["lift_n"] * lift_calls / lift_s
    m["cli.out_bytes"] = counts["out_bytes"]
    return m

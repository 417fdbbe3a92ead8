"""Benchmark of the `yoshida` CLI over three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from src/ next to this directory.
One closed-loop client runs the workload's commands in order, one CLI process
at a time, each in a fresh interpreter with the CLI's default thread pool,
and repeats the sequence until S seconds have passed.  Every output is
checked against the benchmark's own oracles and its SHA-256 compared with the
first sequence's, outside the timed region.

--trace 0 reports the end-to-end metrics (medians over the sequence runs).
--trace 1 instead calls yoshida.cli.run() in-process, alternating untraced
and traced runs of the same commands, and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when every invocation passed, 1 when one failed
and 2 when the benchmark cannot run (no program source, bad set-up).
"""

import argparse
import hashlib
import importlib
import importlib.metadata
import inspect
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
IMPORT_REPS = 3
CLI_MAIN = "from yoshida.cli import main; main()"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-command groups each workload prints beside the gated metrics
GROUP_UNITS = {"ap_s": "s", "report_s": "s", "lift_csv_s": "s", "majorant_s": "s", "fail_frac": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def program(module: str):
    """Import yoshida.<module> from SRC into this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mod = importlib.import_module(f"yoshida.{module}")
    if not Path(mod.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"yoshida imported from {mod.__file__}, not from {SRC}")
    return mod


def _check_environment() -> None:
    if not (SRC / "yoshida" / "cli.py").is_file():
        raise BenchError(f"program source not found at {SRC / 'yoshida'}")
    cpus, usable = os.cpu_count() or 1, len(os.sched_getaffinity(0))
    if cpus > usable:
        # the CLI's default pool is os.cpu_count() threads; keep the load within nproc
        raise BenchError(f"os.cpu_count() = {cpus} exceeds the {usable} usable CPUs")


def _spawn(argv: list, stdout_path: Path, stderr_path: Path) -> tuple[int, float, float]:
    """(exit code, seconds, peak RSS in MB) of one child, from its own rusage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, dt, usage.ru_maxrss / 1024.0


def _warm_import(work: Path) -> None:
    code = "import yoshida, sys; sys.stdout.write(yoshida.__file__)"
    rc, _, _ = _spawn([sys.executable, "-c", code], work / "warm.out", work / "warm.err")
    where = (work / "warm.out").read_text()
    if rc != 0 or not Path(where).resolve().is_relative_to(SRC):
        raise BenchError(f"`import yoshida` failed or came from elsewhere: {where!r}")


def import_times(work: Path) -> tuple[float, float]:
    """Median cumulative import time (s) of yoshida and scipy.optimize in a
    fresh interpreter, from -X importtime (0 when not imported)."""
    ys, ss = [], []
    for _ in range(IMPORT_REPS):
        rc, _, _ = _spawn([sys.executable, "-X", "importtime", "-c", "import yoshida"],
                          work / "import.out", work / "import.err")
        if rc != 0:
            raise BenchError("`import yoshida` failed")
        cum = {}
        for line in (work / "import.err").read_text().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cum.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        ys.append(cum.get("yoshida", 0.0))
        ss.append(cum.get("scipy.optimize", 0.0))
    return statistics.median(ys), statistics.median(ss)


class Run:
    """Counts and digests of the invocations made in one benchmark run."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.digests = None
        self.errors = []

    def collect(self, results) -> None:
        """Check the invocations of one sequence, (cmd, exit code, stdout) each.

        An invocation fails if it exits non-zero, fails an output check, or
        writes an output whose SHA-256 differs from the first sequence's."""
        digests, failed = {}, set()
        for cmd, rc, stdout in results:
            self.attempted += 1
            errs = []
            if rc != 0:
                errs.append(f"exit code {rc}")
            else:
                try:
                    files = {name: (self.wl.work / name).read_bytes() for name in cmd.outs}
                    if cmd.stdout:
                        files[cmd.stdout] = stdout
                    digests.update({f"{cmd.label}:{name}": hashlib.sha256(data).hexdigest()
                                    for name, data in files.items()})
                    errs += self.wl.check(cmd, files)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    errs.append(f"unreadable output: {exc!r}")
            if errs:
                failed.add(cmd.label)
                self.errors.append(f"{cmd.label}: " + "; ".join(errs[:3]))
        if self.digests is None:
            self.digests = digests
        for cmd, _, _ in results:
            if cmd.label not in failed and any(self.digests.get(k) != v for k, v in digests.items()
                                               if k.startswith(f"{cmd.label}:")):
                failed.add(cmd.label)
                self.errors.append(f"{cmd.label}: output differs from the first sequence")
        self.failed += len(failed)


def run_subprocess(wl, run: Run, cmds) -> dict:
    """One sequence in fresh interpreters: seconds per label, peak RSS."""
    times, rss, results = {}, 0.0, []
    for cmd in cmds:
        out = wl.work / (cmd.stdout or f"{cmd.label}.stdout")
        rc, dt, mb = _spawn([sys.executable, "-c", CLI_MAIN, *cmd.argv], out,
                            wl.work / f"{cmd.label}.stderr")
        times[cmd.label] = dt
        rss = max(rss, mb)
        results.append((cmd, rc, out.read_bytes()))
    run.collect(results)  # checks stay outside the timed region
    return {"times": times, "rss": rss}


def run_inprocess(wl, run: Run, cmds, trace) -> dict:
    """One sequence through yoshida.cli.run() in this process."""
    cli = program("cli")
    times, results = {}, []
    for i, cmd in enumerate(cmds):
        out, err = io.StringIO(), io.StringIO()
        if trace is not None:
            trace.cmd = i
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if trace is None:
                    rc = cli.run(cmd.argv)
                else:
                    with trace.span(f"cli.{cmd.kind}"):
                        rc = cli.run(cmd.argv)
            except Exception as exc:  # a crash is a failed invocation, not a benchmark error
                rc = repr(exc)
        times[cmd.label] = time.perf_counter() - t0
        results.append((cmd, rc, out.getvalue().encode()))
    run.collect(results)
    return {"times": times, "stdout_bytes": sum(len(s) for _, _, s in results)}


def _table_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith(b"#"))


def _counts(wl, cmds, stdout_bytes: int) -> dict:
    """Work counts taken from the inputs and outputs of one sequence."""
    ap_outs = [wl.work / c.outs[0] for c in cmds if c.kind == "ap"]
    loads = [c.argv[c.argv.index(flag) + 1] for c in cmds if c.kind in ("lift", "report")
             for flag in ("--f", "--g")]
    return {
        "ap_primes": sum(_table_rows(str(p)) for p in ap_outs),
        "ap_bytes": sum(p.stat().st_size for p in ap_outs),
        "load_rows": sum(_table_rows(p) for p in loads),
        "lift_n": workloads.lift_count(wl),
        "out_bytes": stdout_bytes + sum((wl.work / n).stat().st_size for c in cmds for n in c.outs),
    }


def _pool_gain(wl, cmds, spans) -> float:
    """serial / pooled ap_table seconds for the first curve; 0 when not measurable."""
    curves = program("curves")
    ap = next((c for c in cmds if c.kind == "ap"), None)
    if ap is None or "threads" not in inspect.signature(curves.ap_table).parameters:
        return 0.0
    pooled = [e - s for _, name, s, e, _, cmd in spans
              if name == "curves.ap_table" and cmd == cmds.index(ap)]
    ai = [int(a) for a in ap.argv[ap.argv.index("--curve") + 1].split(",")]
    level = int(ap.argv[ap.argv.index("--level") + 1])
    pmax = int(ap.argv[ap.argv.index("--pmax") + 1])
    curve = curves.WeierstrassCurve.from_list(ai, declared_level=level)
    serial = tracer.Tracer()
    serial.install()
    try:
        with serial.span("serial"):
            curves.ap_table(curve, pmax, threads=1)
    finally:
        serial.uninstall()
    serial_s = next(e - s for _, name, s, e, *_ in serial.spans if name == "curves.ap_table")
    return serial_s / pooled[0] if pooled else 0.0


def measure_e2e(wl, run: Run, seconds: float) -> dict:
    cmds = wl.commands()
    seqs = []
    start = time.perf_counter()
    while not seqs or time.perf_counter() - start < seconds:
        seqs.append(run_subprocess(wl, run, cmds))
    metrics = {
        "wall_s": statistics.median(sum(s["times"].values()) for s in seqs),
        "peak_rss_mb": max(s["rss"] for s in seqs),
    }
    extra = {g: statistics.median(sum(s["times"][lbl] for lbl in labels) for s in seqs)
             for g, labels in wl.groups().items()}
    return {"metrics": metrics, "extra": extra, "sequences": len(seqs),
            "times": [s["times"] for s in seqs]}


def measure_layers(wl, run: Run, seconds: float) -> dict:
    cmds = wl.commands()
    yoshida_s, scipy_s = import_times(wl.work)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    spans = []
    # at least one pair in each order, so a first-run effect cannot pose as overhead
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                res = run_inprocess(wl, run, cmds, None)
                plain.append(sum(res["times"].values()))
                continue
            tr = tracer.Tracer()
            tr.install()
            try:
                res = run_inprocess(wl, run, cmds, tr)
            finally:
                tr.uninstall()
            traced.append(sum(res["times"].values()))
            layers.append(tracer.layer_metrics(tr.spans, _counts(wl, cmds, res["stdout_bytes"])))
            spans = tr.spans
    metrics = {k: statistics.median(m[k] for m in layers) for k in tracer.UNITS}
    metrics["import.yoshida_s"] = yoshida_s
    metrics["import.scipy_optimize_s"] = scipy_s
    metrics["curves.pool_gain"] = _pool_gain(wl, cmds, spans)
    metrics["trace.untraced_s"] = statistics.median(plain)
    metrics["trace.traced_s"] = statistics.median(traced)
    metrics["trace.overhead_frac"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"] - 1.0
    return {"metrics": metrics, "extra": {}, "sequences": len(traced) + len(plain),
            "times": {"untraced": plain, "traced": traced}}


def _versions() -> dict:
    out = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def bench(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> tuple[dict, int]:
    """Set up, measure and check one workload; returns (result, exit code)."""
    _check_environment()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[name](work, seed, small)
        program("cli")  # the harness's own in-process import stays out of setup_s
        setup = []
        for _ in range(1 if trace else SETUP_REPS):
            t0 = time.perf_counter()
            try:
                wl.setup(program)
            except Exception as exc:  # invalid generated inputs: nothing to measure
                raise BenchError(f"set-up failed: {exc!r}") from exc
            _warm_import(work)
            setup.append(time.perf_counter() - t0)
        wl.prepare_checks()
        run = Run(wl)
        out = (measure_layers if trace else measure_e2e)(wl, run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = tracer.UNITS if trace else E2E_UNITS
    values = dict(out["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setup)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(f"# {name} seed={seed} trace={int(trace)}: {out['sequences']} sequences, "
          f"{run.attempted} invocations, {run.failed} failed")
    extra = dict(out["extra"], fail_frac=run.failed / run.attempted) if not trace else {}
    for k, v in [*values.items(), *extra.items()]:
        print(f"{k:34s} {v!r:>24} {units.get(k) or GROUP_UNITS[k]}")
    for err in run.errors[:20]:
        print(f"FAILED {err}")
    detail = {"workload": name, "seed": seed, "trace": int(trace), "versions": _versions(),
              "extra": extra, "digests": run.digests, "setup_runs_s": setup,
              "sequence_s": out["times"]}
    print(json.dumps(detail, sort_keys=True))
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, (0 if run.failed == 0 else 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running CLI child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, code = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

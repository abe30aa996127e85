#!/usr/bin/env python3
"""qig benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload quantities-small --seed 17 --seconds 20 --trace 0

Runs whole passes over the workload's fixed operations for ``--seconds``
after a warm-up pass, checks every output, and prints a report followed by
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run alternates untraced and traced passes and reports per-layer calls and
self time.  Without ``--workload`` every workload runs in turn, each in its
own process.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

# BLAS threads are pinned before numpy is first imported, here and in every
# child process: with two threads, eigvalsh at n=64 swung between two modes
# about 16x apart.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-acceptance", "quantities-small", "quantities-large", "cli-compute")
SETUP_PROBES = 7
CAL_PROBES = 9
CAL_EVERY = 0.05  # seconds of operations between two calibrations
CALIBRATION = {
    "verify-acceptance": "interpreter",
    "quantities-small": "interpreter",
    "quantities-large": "lapack",
    "cli-compute": "interpreter",
}
IMPORT_PROBES = 5
DEFAULT_SEED = 17


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Finished:
    """A child process that ran to its end, with its output and resource use."""

    def __init__(self, code: int, stdout: str, stderr: str, seconds: float, maxrss_kb: int):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.seconds, self.maxrss_kb = seconds, maxrss_kb


def spawn(argv: list, workdir: str) -> Finished:
    """Run argv from the checkout root to its end; wall time and peak RSS from wait4."""
    out = os.path.join(workdir, "child.out")
    err = os.path.join(workdir, "child.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    start = time.perf_counter()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
    finally:
        os.chdir(cwd)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    with open(out, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Finished(os.waitstatus_to_exitcode(status), stdout, stderr, seconds, usage.ru_maxrss)


def environment() -> dict:
    import platform

    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "cpu": cpu,
    }


def probe_setup(workload: str, seed: int, workdir: str) -> dict:
    """Import qig and make the workload's first call; input making is not counted.

    The process then runs the calibration task a few times, so the set-up
    time can be scaled to the reference machine speed like every other time.
    """
    t0 = time.perf_counter()
    import qig  # noqa: F401
    import qig.cli  # noqa: F401

    imported = time.perf_counter() - t0
    import calibration
    import workloads

    wl = workloads.build(workload, seed, workdir, first_only=True)
    t1 = time.perf_counter()
    wl.first_call()
    raw = imported + time.perf_counter() - t1
    cal = calibration.Calibration("interpreter")
    speed = statistics.median(cal() for _ in range(CAL_PROBES)) / cal.nominal_s
    return {"raw_s": raw, "setup_s": raw / speed}


def median_setup(workload: str, seed: int, workdir: str) -> tuple[float, float]:
    """Median scaled and raw set-up time over fresh processes."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        child = spawn([sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--probe-setup", workdir], workdir)
        if child.code != 0:
            raise RuntimeError(f"setup probe failed ({child.code}): {child.stderr.strip()}")
        probe = json.loads(child.stdout.strip().splitlines()[-1])
        scaled.append(probe["setup_s"])
        raw.append(probe["raw_s"])
    return statistics.median(scaled), statistics.median(raw)


class Pass:
    """One pass over every operation: results and per-operation seconds.

    With a calibration, the task runs at the start, after every
    ``CAL_EVERY`` seconds of operations and at the end; each operation's
    time divided by the mean of the two calibrations around it is its
    ``ratio``, its cost in units of the calibration task.
    """

    def __init__(self, ops: list, cal=None):
        import workloads

        self.results, self.seconds, self.ratio = {}, {}, {}
        clock = time.perf_counter
        cals = [cal()] if cal else []
        segment, since = {}, 0.0
        for op in ops:
            t0 = clock()
            try:
                result = op.call()
            except Exception as exc:  # a raising call is a failed operation; the run goes on
                result = workloads.Raised(exc)
            dt = clock() - t0
            self.results[op.name] = result
            self.seconds[op.name] = dt
            segment[op.name] = len(cals) - 1
            since += dt
            if cal and since >= CAL_EVERY:
                cals.append(cal())
                since = 0.0
        if cal:
            cals.append(cal())
            for name, k in segment.items():
                self.ratio[name] = self.seconds[name] / ((cals[k] + cals[k + 1]) / 2)
        self.cal_s = cals
        self.wall = sum(self.seconds.values())
        self.child_maxrss_kb = max(
            (r.maxrss_kb for r in self.results.values() if isinstance(r, Finished)), default=0
        )
        failures = {op.name: op.failures(self.results[op.name], self.results) for op in ops}
        self.failed = sum(failures.values())
        self.unexpected = sum(failures[op.name] for op in ops if not op.known_fault)
        self.failed_ops = {name: repr(self.results[name]) for name, count in failures.items() if count}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Record:
    """What the metrics need from a run's passes, kept compact.

    Keeping each pass's dictionaries would grow the process by tens of
    kilobytes a pass and make ``peak_rss_mb`` depend on the run length.
    """

    def __init__(self, ops: list):
        self.seconds = {op.name: array("d") for op in ops}
        self.ratio = {op.name: array("d") for op in ops}
        self.walls, self.cal_s, self.ratio_walls = array("d"), array("d"), array("d")
        self.passes = self.failed = self.unexpected = self.child_maxrss_kb = 0
        self.failed_ops: dict = {}

    def add(self, p: Pass) -> None:
        for name, dt in p.seconds.items():
            self.seconds[name].append(dt)
        for name, r in p.ratio.items():
            self.ratio[name].append(r)
        self.walls.append(p.wall)
        self.ratio_walls.append(sum(p.ratio.values()))
        self.cal_s.extend(p.cal_s)
        self.passes += 1
        self.failed += p.failed
        self.unexpected += p.unexpected
        self.failed_ops.update(p.failed_ops)
        self.child_maxrss_kb = max(self.child_maxrss_kb, p.child_maxrss_kb)


def run_passes(wl, ops, seconds: float, tracer=None, cal=None):
    """Warm-up pass, then whole passes until ``seconds`` have gone by.

    With a tracer, every untraced pass is followed by a traced one.
    """
    warm = Pass(ops)
    untraced, traced = Record(ops), Record(ops)
    layer_stats, problems = [], []
    start = time.perf_counter()
    while not untraced.passes or time.perf_counter() - start < seconds:
        p = Pass(ops, cal)
        problems += wl.consistent(warm.results, p.results)
        untraced.add(p)
        if tracer:
            with tracer.installed():
                q = Pass(ops, cal)
            layer_stats.append(tracer.collect())
            problems += wl.consistent(warm.results, q.results)
            traced.add(q)
    return untraced, traced, layer_stats, problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, cal, setup: tuple, rec: Record, out) -> dict:
    """The gated metrics, in seconds at the calibration's nominal speed."""
    import resource

    cost = {op.name: cal.nominal_s * statistics.median(rec.ratio[op.name]) for op in wl.ops}
    pass_s = sum(cost.values())
    rates = {}
    for group in wl.groups:
        members = [op for op in wl.ops if op.group == group]
        rates[group] = sum(op.count for op in members) / sum(cost[op.name] for op in members)
    if wl.name == "cli-compute":
        peak_kb = rec.child_maxrss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = rec.passes
    q1, med, q3 = quartiles(rec.walls)
    c1, cm, c3 = quartiles(rec.cal_s)
    speed = cm / cal.nominal_s
    print(f"  calibration ({cal.kind})  {cm * 1e3:.3f} ms median (q1 {c1 * 1e3:.3f}, q3 {c3 * 1e3:.3f}); "
          f"nominal {cal.nominal_s * 1e3:.3f} ms, so this machine ran at {1 / speed:.2f}x nominal", file=out)
    print(f"  raw pass time          {med:.4f} s   (median of {n} passes; q1 {q1:.4f}, q3 {q3:.4f})", file=out)
    print(f"  pass_s                 {pass_s:.4f} s   (per-operation median over {n} passes, at nominal speed)",
          file=out)
    if wl.name == "verify-acceptance":
        print(f"  verify_pass_s          {pass_s:.4f} s", file=out)
    for group, label in wl.groups.items():
        print(f"  {label:26s} {rates[group]:.2f} /s", file=out)
    if wl.name == "cli-compute":
        raw = statistics.median(dt for op in wl.ops for dt in rec.seconds[op.name])
        print(f"  cli_compute_s          {statistics.median(cost.values()):.4f} s   (median over invocations; "
              f"raw median of {n * len(wl.ops)} processes {raw:.4f} s)", file=out)
    print(f"  setup_s                {setup[0]:.4f} s   (median of {SETUP_PROBES} fresh processes; raw {setup[1]:.4f} s)",
          file=out)
    print(f"  peak_rss_mb            {peak_kb / 1024:.1f} MB", file=out)
    return {
        "setup_s": metric(setup[0], "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        "pass_s": metric(pass_s, "s"),
        "pairing_ops_per_s": metric(rates["a"], "ops/s"),
        "other_ops_per_s": metric(rates["b"], "ops/s"),
    }


def cli_layer(seed: int, workdir: str) -> tuple[float, float]:
    """Median cold ``import qig`` process and median in-process ``cli.main`` call."""
    import workloads

    imports = []
    for _ in range(IMPORT_PROBES):
        child = spawn([sys.executable, "-c", "import qig"], workdir)
        if child.code != 0:
            raise RuntimeError(f"import probe failed: {child.stderr.strip()}")
        imports.append(child.seconds)
    calls = []
    for inv in workloads.cli_invocations(seed, workdir):
        t0 = time.perf_counter()
        workloads.call_main(inv.argv)
        calls.append(time.perf_counter() - t0)
    return statistics.median(imports), statistics.median(calls)


def per_layer(wl, untraced: Record, traced: Record, layer_stats: list, seed: int, workdir: str, out) -> tuple:
    import tracing
    import workloads

    problems = []
    metrics = {}
    first = layer_stats[0]
    if any(s[label][0] != first[label][0] for s in layer_stats for label in first):
        problems.append("call counts differ between traced passes")
    print(f"  {'layer function':44s} {'calls/pass':>10s} {'self_s/pass':>12s}", file=out)
    for label in tracing.LABELS:
        calls = first[label][0]
        self_s = statistics.median(s[label][1] for s in layer_stats)
        metrics[f"{label}.calls"] = metric(calls, "count")
        if label in tracing.SELF_TIMED:
            metrics[f"{label}.self_s"] = metric(self_s, "s")
        if calls:
            print(f"  {label:44s} {calls:10d} {self_s:12.6f}", file=out)
    if wl.name == "verify-acceptance":  # printed, not a metric: other workloads run no suite
        for name, _, _ in workloads.ACCEPTANCE:
            print(f"  verify.suite.{name:31s} {'':10s} {statistics.median(untraced.seconds[name]):12.6f}", file=out)
    import_s, main_s = cli_layer(seed, workdir)
    metrics["cli.import_s"] = metric(import_s, "s")
    metrics["cli.main_s"] = metric(main_s, "s")
    plain = statistics.median(untraced.walls)
    with_trace = statistics.median(traced.walls)
    # compared in calibration units, so a change in machine speed between passes cancels
    overhead = 100.0 * (statistics.median(traced.ratio_walls) / statistics.median(untraced.ratio_walls) - 1.0)
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    print(f"  cli.import_s {import_s:.4f} s, cli.main_s {main_s:.4f} s", file=out)
    print(f"  tracing overhead {overhead:.1f} % in calibration units (raw: traced pass {with_trace:.4f} s "
          f"against untraced {plain:.4f} s, {traced.passes} of each)", file=out)
    return metrics, problems


def run_one(args) -> int:
    out = sys.stdout
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        import calibration
        import tracing
        import workloads

        env = environment()
        print(f"env {json.dumps(env, sort_keys=True)}", file=out)
        print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}", file=out)
        setup = median_setup(args.workload, args.seed, workdir) if not args.trace else None
        wl = workloads.build(args.workload, args.seed, workdir, lambda argv: spawn(argv, workdir))
        cal = calibration.Calibration(CALIBRATION[wl.name])
        if args.trace:
            ops = wl.traced_ops or wl.ops
            untraced, traced, layer_stats, problems = run_passes(wl, ops, args.seconds, tracer=tracing.Tracer(), cal=cal)
            records = (untraced, traced)
            metrics, more = per_layer(wl, untraced, traced, layer_stats, args.seed, workdir, out)
            problems += more
        else:
            ops = wl.ops
            rec, _, _, problems = run_passes(wl, ops, args.seconds, cal=cal)
            records = (rec,)
            metrics = end_to_end(wl, cal, setup, rec, out)
        attempted = sum(r.passes for r in records) * sum(op.count for op in ops)
        failed = sum(r.failed for r in records)
        unexpected = sum(r.unexpected for r in records)
        for r in records:
            for name, result in sorted(r.failed_ops.items()):
                print(f"  FAILED {name}: {result}", file=out)
        for problem in sorted(set(problems)):
            print(f"  INCONSISTENT {problem}", file=out)
        print(f"  attempted {attempted}, failed {failed} ({failed - unexpected} of them the known fault)", file=out)
        # a wrong, raising or nonzero-exit operation makes the run incorrect;
        # only the known fault's failures are counted without doing so
        correct = not problems and unexpected == 0
        result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        print(json.dumps(result), file=out)
        return 0
    finally:
        shutil.rmtree(workdir)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as scratch:
            child = spawn([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)], scratch)
        lines = child.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if child.code != 0 or not lines:
            sys.stderr.write(child.stderr)
            return child.code or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qig" / "__init__.py").is_file():
        print(f"error: no qig sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(json.dumps(probe_setup(args.workload, args.seed, args.probe_setup)))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

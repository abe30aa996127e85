#!/usr/bin/env python3
"""Self-test: every workload's checks pass on real outputs and catch perturbed ones.

    python3 bench/selftest.py [--seed 17]

For each workload this runs one pass, requires that no operation fails
apart from the known fault (which must fail), then feeds every check a copy of its result moved by one part in a million
(a bad value), a raised exception, and for the CLI a nonzero exit; each must
count as a failure.  For verify-acceptance it also changes a report field
and a trial count and requires the consistency check to object.  Exits 0
when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import shutil
import sys
import tempfile

import run  # pins BLAS threads before numpy is imported

PERTURB = 1e-6


def perturbed(result):
    """The same result moved by one part in a million (or off zero)."""
    if hasattr(result, "stdout"):  # a finished CLI process
        moved = copy.copy(result)
        value = complex(result.stdout.strip())
        moved.stdout = f"{perturbed(value).real:.12g}\n"
        return moved
    if isinstance(result, tuple):  # (exit code, stdout) of an in-process cli.main
        return (result[0], f"{perturbed(complex(result[1].strip())).real:.12g}\n")
    if dataclasses.is_dataclass(result) and hasattr(result, "value"):
        return dataclasses.replace(result, value=perturbed(result.value))
    if not isinstance(result, (int, float, complex)):  # a matrix
        return result * (1.0 + PERTURB)
    return result * (1.0 + PERTURB) if result != 0 else 1e-9


def check_ops(ops, results, workloads) -> list:
    problems = []
    for op in ops:
        result = results[op.name]
        if bool(op.failures(result, results)) != op.known_fault:
            state = "passes" if op.known_fault else "fails"
            problems.append(f"{op.name}: {state} on the real output {result!r}")
        if not op.failures(workloads.Raised(RuntimeError("injected")), results):
            problems.append(f"{op.name}: a raised exception is not counted")
        if hasattr(result, "suite"):  # suite reports are judged by check_verify
            continue
        if not op.failures(perturbed(result), results):
            problems.append(f"{op.name}: a result off by {PERTURB:g} passes its check")
        if hasattr(result, "code"):
            failed_exit = copy.copy(result)
            failed_exit.code = 1
        elif isinstance(result, tuple):
            failed_exit = (1, result[1])
        else:
            continue
        if not op.failures(failed_exit, results):
            problems.append(f"{op.name}: a nonzero exit passes")
    return problems


def check_verify(wl, results) -> list:
    problems = []
    if wl.consistent(results, results):
        problems.append("verify-acceptance: a pass is inconsistent with itself")
    name = wl.ops[0].name
    for field, change in (("trials", lambda v: v + 1), ("max_residual", lambda v: v * (1.0 + PERTURB))):
        report = copy.deepcopy(results[name])
        setattr(report, field, change(getattr(report, field)))
        if not wl.consistent(results, {name: report}):
            problems.append(f"verify-acceptance: a changed {field} is not flagged")
    report = copy.deepcopy(results[name])
    report.failures.append({"seed": "0:0", "digest": "x", "value": 1.0})
    if wl.ops[0].failures(report, results) != 1:
        problems.append("verify-acceptance: a failed trial is not counted")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    import workloads

    problems = []
    run.ROOT.joinpath(".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.ROOT / ".bench_work")
    try:
        for name in run.WORKLOADS:
            wl = workloads.build(name, args.seed, workdir, lambda argv: run.spawn(argv, workdir))
            for ops in (wl.ops, wl.traced_ops):
                if not ops:
                    continue
                results = run.Pass(ops).results
                found = check_ops(ops, results, workloads)
                if name == "verify-acceptance":
                    found += check_verify(wl, results)
                print(f"{name}: {len(ops)} operations checked, {len(found)} problems")
                problems += found
    finally:
        shutil.rmtree(workdir)
    for problem in problems:
        print("PROBLEM", problem)
    print("self-test passed" if not problems else f"self-test FAILED: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

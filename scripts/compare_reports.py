#!/usr/bin/env python3
"""Compare two verification reports, ignoring every ``elapsed`` field.

Reads two JSON reports written by ``qig verify ... --report``; every key
counts, so two ``qig verify`` reports must also agree on their top-level
``trials`` and ``dims``.  Exits 0 when they match apart from timing;
otherwise prints the suites that differ and exits 1.

    python3 scripts/compare_reports.py before.json after.json
"""

import argparse
import json
import sys


def _drop_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _drop_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_drop_elapsed(v) for v in obj]
    return obj


def _canonical(obj) -> str:
    # canonical text, so that NaN equals NaN and key order does not matter
    return json.dumps(_drop_elapsed(obj), sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first")
    parser.add_argument("second")
    args = parser.parse_args(argv)
    reports = []
    for path in (args.first, args.second):
        with open(path, "r", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    a, b = reports
    if _canonical(a) == _canonical(b):
        print("reports match apart from elapsed")
        return 0
    suites_a = {s["suite"]: _canonical(s) for s in a.get("suites", [])}
    suites_b = {s["suite"]: _canonical(s) for s in b.get("suites", [])}
    names = [n for n in dict.fromkeys([*suites_a, *suites_b]) if suites_a.get(n) != suites_b.get(n)]
    print("differ: " + (", ".join(names) or "outside the suites"))
    return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: compute quantities, run suites, list the catalog.

Matrices travel as JSON files ``{"n": ..., "data": [[[re, im], ...], ...]}``
with row-major data and complex entries as [re, im] pairs.  Logarithms are
natural throughout.  Exit codes: 0 success, 1 suite failures or a
verification step that could not complete, 2 malformed files or usage
errors, 3 invariant violations, 4 domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, functions, linalg, quantities
from .errors import DomainError, FileFormatError, InvariantViolation, VerificationError

_EXIT_CODES = {VerificationError: 1, FileFormatError: 2, InvariantViolation: 3, DomainError: 4}
#: ``qig compute``: each quantity's function in :mod:`qig.quantities` (looked up on each call) and
#: the flag of each of its parameters, in the order the flags are read (see :func:`_read_flag`)
_COMPUTE = {
    "quasi-entropy": ("quasi_entropy", {"F": "kernel", "D1": "state", "D2": "state2", "A": "obs?"}),
    "umegaki": ("umegaki", {"D1": "state", "D2": "state2"}),
    "renyi": ("renyi", {"alpha": "alpha", "D1": "state", "D2": "state2"}),
    "cov": ("sym_cov", {"D": "state", "A": "obs", "B": "obs2"}),
    "gen-cov": ("gen_cov", {"f": "fn", "D": "state", "A": "obs", "B": "obs2"}),
    "fisher": ("fisher", {"f": "fn", "D": "state", "A": "obs", "B": "obs2"}),
    "skew": ("skew_info", {"f": "fn", "D": "state", "X": "observable"}),
    "wyd": ("wyd_direct", {"p": "p", "D": "state", "X": "observable"}),
}


def read_matrix(path: str, kind: str = "complex") -> np.ndarray | linalg.State:
    """Read a matrix file as complex / hermitian / density (a validated State)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict) or "n" not in raw or "data" not in raw:
        raise FileFormatError(f"{path}: expected an object with fields 'n' and 'data'")
    n = raw["n"]
    data = raw["data"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FileFormatError(f"{path}: 'n' must be a positive integer")
    if not isinstance(data, list) or len(data) != n:
        raise FileFormatError(f"{path}: 'data' must be a list of {n} rows")
    M = np.empty((n, n), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"{path}: row {i} must hold {n} entries")
        for j, entry in enumerate(row):
            # type() rather than isinstance(): JSON true/false arrive as bool, an int subclass
            pair = isinstance(entry, list) and len(entry) == 2
            if not (pair and all(type(x) in (int, float) for x in entry)):
                raise FileFormatError(f"{path}: entry ({i},{j}) must be a [re, im] pair of numbers")
            try:
                M[i, j] = complex(*entry)
            except OverflowError:  # an integer literal beyond the float range
                M[i, j] = np.inf
    if not np.isfinite(M).all():
        raise InvariantViolation("matrix has non-finite entries")
    if kind == "hermitian":
        return linalg.as_hermitian(M)
    if kind == "density":
        return linalg.state(M)
    return M


def write_matrix(path: str, M) -> None:
    """Write a matrix file; plain JSON floats round-trip bit-exactly."""
    M = np.asarray(M, dtype=complex)
    payload = {
        "n": int(M.shape[0]),
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in M],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def format_value(v: complex) -> str:
    """12 significant digits; imaginary part shown only when it matters."""
    v = complex(v)
    if abs(v.imag) <= 1e-9 * (1.0 + abs(v.real)):
        return f"{v.real:.12g}"
    return f"{v.real:.12g}{v.imag:+.12g}j"


def _suite(name: str) -> str:
    """A suite name or ``all``, checked once ``qig verify`` has loaded the harness."""
    from . import verify
    choices = (*verify.SUITE_NAMES, "all")
    if name not in choices:
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {', '.join(map(repr, choices))})")
    return name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qig",
        description=(
            "Quantum information geometry toolkit: relative entropies, generalized "
            "covariances, monotone-metric Fisher information, skew information, and "
            "property suites for their inequalities.  All logarithms are natural."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute a single quantity from matrix files")
    comp.add_argument("quantity", choices=tuple(_COMPUTE))
    comp.add_argument("--state", help="density matrix file (D or D1)")
    comp.add_argument("--state2", help="second density matrix file (D2)")
    comp.add_argument("--obs", help="observable / operand matrix file")
    comp.add_argument("--obs2", help="second observable file (defaults to --obs)")
    comp.add_argument("--fn", help="standard function spec, e.g. sld | wyd:0.5 | hansen:mu.json")
    comp.add_argument("--kernel", help="quasi-entropy kernel spec, e.g. neglog | power:0.5 | sld")
    comp.add_argument("--alpha", type=float, help="order parameter for renyi")
    comp.add_argument("--p", type=float, help="exponent for wyd")

    ver = sub.add_parser("verify", help="run a property suite and emit a report")
    ver.add_argument("suite", type=_suite, help="a suite that qig list names, or all")
    ver.add_argument("--trials", type=int, help="trials per suite (default: each suite's own)")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--dim", help="dimension, or comma list like 2,3,4 (default: each suite's own)")
    ver.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a tolerance (margin=... or residual=...)",
    )
    ver.add_argument("--report", help="write the report to this path instead of stdout")
    ver.add_argument("--format", choices=("json", "markdown"), default="json")

    sub.add_parser("list", help="list function specs, kernels, and suites")
    return parser


def _require(parser: argparse.ArgumentParser, value, flag: str):
    if value is None:
        parser.error(f"the following argument is required here: {flag}")
    return value


def _read_flag(parser: argparse.ArgumentParser, args, flag: str, read: dict):
    """A flag's value: ``obs?`` is None and ``obs2`` the value of ``obs`` when not given; other flags are required."""
    if flag == "obs?":
        return read_matrix(args.obs) if args.obs else None
    if flag == "obs2":
        return read_matrix(args.obs2) if args.obs2 else read["obs"]
    name = "obs" if flag == "observable" else flag  # an observable is the --obs file read as Hermitian
    value = _require(parser, getattr(args, name), f"--{name}")
    if flag in ("fn", "kernel"):
        return functions.parse_function_spec(value, allow_kernels=flag == "kernel")
    kind = {"state": "density", "state2": "density", "obs": "complex", "observable": "hermitian"}.get(flag)
    return value if kind is None else read_matrix(value, kind)  # --alpha and --p as given


def _cmd_compute(args, parser) -> int:
    function, flags = _COMPUTE[args.quantity]
    read = {}
    for flag in flags.values():
        read[flag] = _read_flag(parser, args, flag, read)
    value = getattr(quantities, function)(**{param: read[flag] for param, flag in flags.items()})
    print(format_value(value))
    return 0


def _parse_tolerances(entries) -> dict:
    tol = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep:
            raise DomainError(f"tolerance override must look like margin=1e-8, got {entry!r}")
        try:
            tol[name] = float(value)
        except ValueError as exc:
            raise DomainError(f"invalid tolerance value in {entry!r}") from exc
    return tol


def _parse_dims(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(part) for part in str(text).split(","))
    except ValueError as exc:
        raise DomainError(f"invalid dimension list {text!r}") from exc


def _markdown_report(payload: dict) -> str:
    lines = [
        "# qig verification report",
        "",
        f"- version: {payload['version']}",
        f"- seed: {payload['seed']}",
        f"- trials: {'per suite' if payload['trials'] is None else payload['trials']}",
        f"- dims: {'per suite' if payload['dims'] is None else ', '.join(map(str, payload['dims']))}",
        "",
        "| suite | trials | min margin | max residual | failures | elapsed (s) |",
        "|---|---|---|---|---|---|",
    ]
    for rep in payload["suites"]:
        mm = "n/a" if rep["min_margin"] is None else f"{rep['min_margin']:.3e}"
        mr = "n/a" if rep["max_residual"] is None else f"{rep['max_residual']:.3e}"
        lines.append(
            f"| {rep['suite']} | {rep['trials']} | {mm} | {mr} | "
            f"{len(rep['failures'])} | {rep['elapsed']:.2f} |"
        )
    lines.append("")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    from . import verify
    names = list(verify.SUITE_NAMES) if args.suite == "all" else [args.suite]
    tol = _parse_tolerances(args.tol)
    dims = _parse_dims(args.dim)
    reports = [
        verify.run_suite(name, trials=args.trials, seed=args.seed, dims=dims, tolerances=tol or None)
        for name in names
    ]
    payload = {
        "tool": "qig",
        "version": __version__,
        "seed": args.seed,
        "trials": args.trials,
        "dims": None if dims is None else list(dims),
        "suites": [rep.to_dict() for rep in reports],
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _markdown_report(payload)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failing = [(rep.suite, fail) for rep in reports for fail in rep.failures]
    for suite, fail in failing:
        raised = f": {fail['error']}: {fail['message']}" if "error" in fail else ""
        print(f"FAIL {suite} seed {fail['seed']}{raised}", file=sys.stderr)
    return 1 if failing else 0


def _cmd_list() -> int:
    from . import verify
    for heading, kernels, gap in (("standard functions:", False, " "), ("kernels:", True, "  ")):
        print(heading)
        for name, spec in functions.SPECS.items():
            if spec.kernel_only == kernels:
                label = name if spec.param is None else f"{name}:<{spec.param}>"
                print(f"  {label}{gap}{spec.summary}")
    print("suites:")
    for name in verify.SUITE_NAMES:
        print(f"  {name}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args, parser)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_list()
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())

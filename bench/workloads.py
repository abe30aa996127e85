"""The benchmark's four workloads: inputs, operations and output checks.

Every workload is a fixed list of operations built from the seed before any
timing starts.  An operation calls the program through a module attribute
looked up at call time, so the tracer can swap in wrappers, and carries a
check that judges its result against ``reference`` (numpy only) or against
a property the method must have.  One pass runs every operation once.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as R
from qig import cli, functions, linalg, quantities, verify

# The acceptance profile of scripts/run_full_verification.py at the time the
# benchmark was defined, pinned here so the workload does not move when the
# program's own profile does.
ACCEPTANCE = (
    ("standardness", 200, (2, 3, 4)),
    ("operator-monotone", 100, (2, 3, 4)),
    ("scalar-gibi", 200, (2, 3, 4)),
    ("skew-identity", 200, (2, 3, 4, 5)),
    ("hessian", 100, (2, 3, 4)),
    ("lemma-commuting", 50, (2, 3, 4)),
    ("lemma-cross", 50, (2, 3, 4)),
    ("monotonicity", 500, (2, 3, 4)),
    ("concavity", 500, (2, 3, 4)),
    ("det-uncertainty", 200, (2, 3, 4)),
    ("oracle-equivalence", 100, (2, 3, 4, 5)),
    ("wyd-consistency", 100, (2, 3, 4)),
    ("renyi-limit", 20, (2, 3, 4)),
)
# renyi-limit's monotone-gap probe fails one trial on about 7 % of suite
# seeds (136 of 0..1999), so at the workload's seed its failed count would
# change with the seed.  It runs at a fixed seed where the fault reproduces
# instead: trial 11:16 fails in every pass, whatever ``--seed`` is, and is
# counted as a failed operation without marking the run incorrect.
KNOWN_FAULT_SEEDS = {"renyi-limit": 11}
FD_SUITES = ("hessian", "lemma-commuting", "lemma-cross")

SMALL_DIMS = (2, 4, 8, 16)
LARGE_DIMS = (64, 256)
SMALL_INSTANCES = 8
LARGE_INSTANCES = 2
KRONECKER_MAX_N = 16
CLI_DIMS = (2, 16)

STANDARD_KINDS = ("sld", "harmonic", "kubo-mori", "wyd", "extremal", "hansen", "cov-wyd")
SKEW_KINDS = ("sld", "wyd", "extremal", "hansen")


def tolerance(n: int) -> float:
    """Relative tolerance on a spectral result of dimension n.

    The largest error seen over seeds 0..119 was 6e-15 (n = 2) on these
    scales; this leaves a margin of about 300 at n = 2 and still catches a
    result that is one part in a million off at n = 256.
    """
    return 2e-13 * (n + 8)


class Raised:
    """Result of an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Raised({self.text})"


@dataclass
class Op:
    """One call into the program and how to judge what it returns.

    ``failures(result, results)`` gives the number of failed operations
    among ``count``; ``results`` maps every op name to its result in the same
    pass, for checks that relate two outputs.  A failure makes the run
    incorrect unless ``known_fault`` marks the operation as one that fails
    every time because of a fault the program is known to have.
    """

    name: str
    group: str
    count: int
    call: Callable[[], object]
    failures: Callable[[object, dict], int]
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    groups: dict  # group key -> the group's rate as printed, e.g. {"a": "fd_trials_per_s"}
    ops: list
    first_call: Callable[[], object]
    consistent: Callable[[dict, dict], list] = lambda first, later: []
    traced_ops: list = field(default_factory=list)


def close(value, ref: complex, scale: float, tol: float) -> bool:
    return bool(np.isfinite(value)) and abs(value - ref) <= tol * max(scale, abs(ref))


def _scalar_check(ref: complex, scale: float, tol: float, extra=None):
    def failures(result, results) -> int:
        if isinstance(result, Raised):
            return 1
        value = getattr(result, "value", result)
        ok = close(complex(value), ref, scale, tol)
        if ok and extra is not None:
            ok = extra(value, results)
        return 0 if ok else 1

    return failures


# ---------------------------------------------------------------------------
# inputs


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normalized Ginibre square mixed with ``0.05/n`` times the identity."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    floor = 0.05 / n
    rho = (1.0 - n * floor) * rho + floor * np.eye(n)
    return (rho + rho.conj().T) / 2


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (G + G.conj().T) / 2
    return H / np.linalg.norm(H)


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return G / np.linalg.norm(G)


def _param(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def standard_function(kind: str, rng: np.random.Generator):
    """(qig spec, reference mean, f(0)) for one kind of standard function."""
    if kind == "sld":
        return functions.sld(), R.mean_sld, 0.5
    if kind == "harmonic":
        return functions.harmonic(), R.mean_harmonic, 0.0
    if kind == "kubo-mori":
        return functions.kubo_mori(), R.mean_kubo_mori, 0.0
    if kind == "wyd":
        p = _param(rng, 0.05, 0.95)
        return functions.wyd(p), R.mean_wyd(p), p * (1.0 - p)
    if kind == "extremal":
        lam = _param(rng, 0.0, 1.0)
        return functions.extremal_metric(lam), R.mean_extremal(lam), 2.0 * lam / (1.0 + lam) ** 2
    if kind == "hansen":
        k = int(rng.integers(1, 4))
        atoms = tuple(_param(rng, 0.05, 1.0) for _ in range(k))
        weights = tuple(float(w) for w in rng.dirichlet(np.ones(k)))
        spec = functions.hansen_mixture(functions.DiscreteMeasure(atoms, weights))
        return spec, R.mean_hansen(atoms, weights), R.hansen_f0(atoms, weights)
    p = _param(rng, 0.1, 0.9)  # cov-wyd
    spec = functions.covariance_kernel(functions.wyd(p))
    return spec, R.mean_cov(R.mean_wyd(p), p * (1.0 - p)), 0.0


# ---------------------------------------------------------------------------
# verify-acceptance


def _report_key(report) -> str:
    d = report.to_dict()
    d.pop("elapsed")
    return json.dumps(d, sort_keys=True)


def _verify_workload(seed: int) -> Workload:
    ops = []
    for name, trials, dims in ACCEPTANCE:
        suite_seed = KNOWN_FAULT_SEEDS.get(name, seed)

        def call(name=name, trials=trials, dims=dims, suite_seed=suite_seed):
            return verify.run_suite(name, trials=trials, seed=suite_seed, dims=dims)

        def failures(report, results, trials=trials):
            if isinstance(report, Raised):
                return trials  # run_suite aborts the whole suite on a raising trial
            return len(report.failures)

        group = "a" if name in FD_SUITES else "b"
        ops.append(Op(name, group, trials, call, failures, known_fault=name in KNOWN_FAULT_SEEDS))
    requested = {name: trials for name, trials, _ in ACCEPTANCE}

    def consistent(first: dict, later: dict) -> list:
        """Reports repeat apart from ``elapsed`` and carry the requested trial count."""
        problems = []
        for name, report in later.items():
            if isinstance(report, Raised):
                continue
            if report.trials != requested[name]:
                problems.append(f"{name}: reports {report.trials} trials, {requested[name]} requested")
            ref = first.get(name)
            if not isinstance(ref, Raised) and _report_key(report) != _report_key(ref):
                problems.append(f"{name}: report differs from the first pass")
        return problems

    first_name, _, first_dims = ACCEPTANCE[0]
    return Workload(
        name="verify-acceptance",
        groups={"a": "fd_trials_per_s", "b": "sampling_trials_per_s"},
        ops=ops,
        first_call=lambda: verify.run_suite(first_name, trials=1, seed=seed, dims=first_dims),
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# quantities-small / quantities-large


def _instance_ops(n: int, j: int, rng: np.random.Generator) -> tuple[list, list]:
    """Six pairing calls and four trace-form calls on one drawn instance."""
    tol = tolerance(n)
    D1, D2 = random_density(rng, n), random_density(rng, n)
    X, A = random_hermitian(rng, n), random_complex(rng, n)
    tag = f"n{n}.{j}"
    pairing, trace_form = [], []

    # quasi-entropy: power:a, neglog or identity (= power:1)
    if j % 2 == 0:
        alpha = _param(rng, 0.1, 0.9)
        F, kind = functions.power_kernel(alpha), "power"
    elif j % 4 == 1:
        alpha, F, kind = 0.0, functions.neglog_kernel(), "neglog"
    else:
        alpha, F, kind = 1.0, functions.power_kernel(1.0), "power"
    ref, scale = R.quasi_entropy(kind, alpha, A, D1, D2)
    pairing.append(
        Op(f"{tag}.quasi_entropy.{F.name}", "a", 1,
           lambda F=F: quantities.quasi_entropy(F, A, D1, D2), _scalar_check(ref, scale, tol))
    )

    # relative modular map: identity against a linear solve, or power:a
    if j % 2 == 0:
        alpha, F, kind = 1.0, functions.power_kernel(1.0), "identity"
    else:
        alpha = _param(rng, 0.1, 0.9)
        F, kind = functions.power_kernel(alpha), "power"
    ref_m, scale = R.relmod(kind, alpha, A, D1, D2)

    def relmod_failures(result, results, ref_m=ref_m, scale=scale) -> int:
        if isinstance(result, Raised) or not np.all(np.isfinite(result)):
            return 1
        return 0 if np.linalg.norm(result - ref_m) <= tol * scale else 1

    pairing.append(
        Op(f"{tag}.relmod_apply.{kind}", "a", 1,
           lambda F=F: linalg.relmod_apply(F, D1, D2, A), relmod_failures)
    )

    # generalized covariance; for sld it must also equal sym_cov on the same arguments
    g_kind = STANDARD_KINDS[j % len(STANDARD_KINDS)]
    g, m_g, _ = standard_function(g_kind, rng)
    ref, scale = R.gen_cov(m_g, D1, X, A)
    sym_name = f"{tag}.sym_cov"

    def equals_sym_cov(value, results) -> bool:
        other = results.get(sym_name)
        return not isinstance(other, Raised) and close(complex(value), complex(other), scale, tol)

    pairing.append(
        Op(f"{tag}.gen_cov.{g_kind}", "a", 1,
           lambda g=g: quantities.gen_cov(g, D1, X, A),
           _scalar_check(ref, scale, tol, equals_sym_cov if g_kind == "sld" else None))
    )

    # Fisher pairing; sld is also checked against a Kronecker solve for small n
    f_kind = STANDARD_KINDS[(j + 3) % len(STANDARD_KINDS)]
    f, m_f, _ = standard_function(f_kind, rng)
    ref, scale = R.fisher(m_f, D1, X, A)
    kron = None
    if f_kind == "sld" and n <= KRONECKER_MAX_N:
        ref_k = R.fisher_sld_kronecker(D1, X, A)
        kron = lambda value, results, ref_k=ref_k, scale=scale: close(complex(value), ref_k, scale, tol)
    pairing.append(
        Op(f"{tag}.fisher.{f_kind}", "a", 1,
           lambda f=f: quantities.fisher(f, D1, X, A), _scalar_check(ref, scale, tol, kron))
    )

    # skew information: nonnegative, and for wyd(p) equal to the commutator form
    s_kind = SKEW_KINDS[j % len(SKEW_KINDS)]
    s, m_s, s0 = standard_function(s_kind, rng)
    ref, scale = R.skew_info(m_s, s0, D1, X)
    nonnegative = lambda value, results: value >= 0.0
    pairing.append(
        Op(f"{tag}.skew_info.{s_kind}", "a", 1,
           lambda s=s: quantities.skew_info(s, D1, X), _scalar_check(ref, scale, tol, nonnegative))
    )
    p = _param(rng, 0.05, 0.95)
    w = functions.wyd(p)
    ref, scale = R.skew_info(R.mean_wyd(p), p * (1.0 - p), D1, X)
    wyd_name = f"{tag}.wyd_direct"

    def equals_wyd_direct(value, results) -> bool:
        other = results.get(wyd_name)
        return value >= 0.0 and not isinstance(other, Raised) and close(value, other, scale, tol)

    pairing.append(
        Op(f"{tag}.skew_info.wyd-pair", "a", 1,
           lambda: quantities.skew_info(w, D1, X), _scalar_check(ref, scale, tol, equals_wyd_direct))
    )

    ref, scale = R.umegaki(D1, D2)
    trace_form.append(
        Op(f"{tag}.umegaki", "b", 1, lambda: quantities.umegaki(D1, D2), _scalar_check(ref, scale, tol))
    )
    r_alpha = _param(rng, 0.1, 0.9) * (1.0 if rng.random() < 0.5 else -1.0)
    ref, scale = R.renyi(r_alpha, D1, D2)
    trace_form.append(
        Op(f"{tag}.renyi", "b", 1, lambda: quantities.renyi(r_alpha, D1, D2), _scalar_check(ref, scale, tol))
    )
    ref, scale = R.wyd_direct(p, D1, X)
    trace_form.append(
        Op(wyd_name, "b", 1, lambda: quantities.wyd_direct(p, D1, X), _scalar_check(ref, scale, tol))
    )
    ref, scale = R.sym_cov(D1, X, A)
    trace_form.append(
        Op(sym_name, "b", 1, lambda: quantities.sym_cov(D1, X, A), _scalar_check(ref, scale, tol))
    )
    return pairing, trace_form


def _quantities_workload(name: str, seed: int, dims, instances: int) -> Workload:
    pairing, trace_form = [], []
    for di, n in enumerate(dims):
        for i in range(instances):
            rng = np.random.default_rng(np.random.SeedSequence([seed, n, i]))
            a, b = _instance_ops(n, di * instances + i, rng)
            pairing += a
            trace_form += b
    ops = pairing + trace_form
    return Workload(
        name=name,
        groups={"a": "pairing_calls_per_s", "b": "trace_form_calls_per_s"},
        ops=ops,
        first_call=ops[0].call,
    )


# ---------------------------------------------------------------------------
# cli-compute


def write_matrix(path: str, M) -> None:
    """The qig matrix file format; JSON floats round-trip bit-exactly."""
    M = np.asarray(M, dtype=complex)
    data = [[[float(z.real), float(z.imag)] for z in row] for row in M]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": int(M.shape[0]), "data": data}, fh)


@dataclass
class Invocation:
    """``qig compute`` arguments with the value they must print."""

    name: str
    group: str
    argv: list
    ref: float
    scale: float
    tol: float

    def failures(self, code: int, stdout: str) -> int:
        if code != 0:
            return 1
        try:
            value = complex(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return 1
        # the CLI prints 12 significant digits
        return 0 if close(value, self.ref, self.scale, self.tol + 1e-11) else 1


def cli_invocations(seed: int, workdir: str) -> list:
    """The golden skew value plus skew, quasi-entropy, umegaki and renyi at n = 2 and 16."""

    def path(stem: str) -> str:
        return os.path.join(workdir, stem + ".json")

    write_matrix(path("golden_d"), np.diag([0.75, 0.25]))
    write_matrix(path("golden_x"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = [
        Invocation("golden.skew.wyd-0.5", "a",
                   ["skew", "--fn", "wyd:0.5", "--state", path("golden_d"), "--obs", path("golden_x")],
                   R.GOLDEN_SKEW_WYD_HALF, 1.0, 0.0)
    ]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    for n in CLI_DIMS:
        tol = tolerance(n)
        D1, D2 = random_density(rng, n), random_density(rng, n)
        X, A = random_hermitian(rng, n), random_complex(rng, n)
        for stem, M in (("d1", D1), ("d2", D2), ("x", X), ("a", A)):
            write_matrix(path(f"n{n}_{stem}"), M)
        d1, d2, x, a = (path(f"n{n}_{s}") for s in ("d1", "d2", "x", "a"))
        p = _param(rng, 0.05, 0.95)
        ref, scale = R.skew_info(R.mean_wyd(p), p * (1.0 - p), D1, X)
        out.append(Invocation(f"n{n}.skew.wyd", "a",
                              ["skew", "--fn", f"wyd:{p!r}", "--state", d1, "--obs", x], ref, scale, tol))
        alpha = _param(rng, 0.1, 0.9)
        ref, scale = R.quasi_entropy("power", alpha, A, D1, D2)
        out.append(Invocation(f"n{n}.quasi-entropy", "a",
                              ["quasi-entropy", "--kernel", f"power:{alpha!r}",
                               "--state", d1, "--state2", d2, "--obs", a], ref.real, scale, tol))
        ref, scale = R.umegaki(D1, D2)
        out.append(Invocation(f"n{n}.umegaki", "b", ["umegaki", "--state", d1, "--state2", d2],
                              ref, scale, tol))
        r_alpha = _param(rng, 0.1, 0.9)
        ref, scale = R.renyi(r_alpha, D1, D2)
        out.append(Invocation(f"n{n}.renyi", "b",
                              ["renyi", "--alpha", repr(r_alpha), "--state", d1, "--state2", d2],
                              ref, scale, tol))
    return out


def call_main(argv: list) -> tuple[int, str]:
    """``qig.cli.main`` in this process, with its output captured."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(["compute", *argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def _cli_workload(seed: int, workdir: str, spawn) -> Workload:
    invocations = cli_invocations(seed, workdir)

    def process_op(inv: Invocation) -> Op:
        def call():
            return spawn([sys.executable, "-m", "qig.cli", "compute", *inv.argv])

        def failures(result, results) -> int:
            if isinstance(result, Raised):
                return 1
            return inv.failures(result.code, result.stdout)

        return Op(inv.name, inv.group, 1, call, failures)

    def main_op(inv: Invocation) -> Op:
        def failures(result, results) -> int:
            return 1 if isinstance(result, Raised) else inv.failures(*result)

        return Op(inv.name, inv.group, 1, lambda: call_main(inv.argv), failures)

    ops = [process_op(inv) for inv in invocations]
    return Workload(
        name="cli-compute",
        groups={"a": "pairing_processes_per_s", "b": "trace_form_processes_per_s"},
        ops=ops,
        first_call=lambda: call_main(invocations[0].argv),
        traced_ops=[main_op(inv) for inv in invocations],
    )


def build(name: str, seed: int, workdir: str, spawn=None, first_only: bool = False) -> Workload:
    """The named workload; ``first_only`` makes just enough for its first call."""
    if name == "verify-acceptance":
        return _verify_workload(seed)
    if name in ("quantities-small", "quantities-large"):
        dims, instances = (SMALL_DIMS, SMALL_INSTANCES) if name == "quantities-small" else (LARGE_DIMS, LARGE_INSTANCES)
        if first_only:
            dims, instances = dims[:1], 1
        return _quantities_workload(name, seed, dims, instances)
    if name == "cli-compute":
        return _cli_workload(seed, workdir, spawn)
    raise ValueError(f"unknown workload {name!r}")

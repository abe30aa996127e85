#!/usr/bin/env python3
"""Per-dimension times of the spectral layers, one JSON document on stdout.

For each n in {2, 4, 8, 16, 32, 48, 64, 256} it times, on a seeded random
density and observable:

- validation: ``linalg.as_hermitian``, and ``linalg.as_density`` (which is
  ``linalg.state(D).matrix``) of an array seen for the first time, with
  ``linalg.state``'s memo emptied before each call so that every one
  decomposes it;
- ``np.linalg.eigh`` of the density;
- kernel evaluation on the ratio grid ``w_i / w_j``: one kernel
  (``wyd:0.3``), and a tuple of 8 kernels from mixed families on a stack
  of 8 grids, both grouped (``linalg._kernel_grid``, one call per family)
  and member by member (one ``eval_scalar`` call each); and a tuple of 17
  Hessian kernels of the four bases of ``lemma-commuting``'s pool, on a
  stack of 17 grids, with the 17 specs built afresh in every call, as the
  harness builds its kernels in every trial (``kernel_tuple17_fresh_s``);
- the eigenbasis contraction ``sum_ij W_ij |(U* A U)_ij|^2 w_j``;
- two whole quantities on validated states (``linalg.State``), where only
  per-call work is left: ``quantities.umegaki`` of two states (the
  identity operand) and ``quantities.skew_info`` with ``wyd:0.3``;
- ``quantities.umegaki`` of two arrays, which validates and decomposes
  them as a pair (``linalg.state_pair``; concurrently from
  ``linalg.PAIR_THREAD_DIM`` on), and, as a ratio, its time with the pair
  decomposed concurrently at every n over that of the same call after two
  sequential ``linalg.state`` calls.  The ratio per n is the measurement
  behind ``PAIR_THREAD_DIM``: below 1 the thread wins.  These calls start
  with ``linalg.state``'s memo emptied, so that every one decomposes both
  arrays;
- ``linalg.state``, ``linalg.as_density`` and ``quantities.fisher``
  (``wyd:0.3``) of a remembered array, which is found by one bytes compare
  and neither validated nor decomposed again (nor, for ``fisher``, is its
  operand rotated again: ``linalg.relmod_grid`` remembers the rotation);
- the miss path of both memos, ``gen_cov_cold_s``: ``quantities.gen_cov``
  (``sld``) of an array and two distinct operands, with the memos emptied
  before each call, so that every call decomposes the array, rotates both
  operands and keeps the State and both rotations.

A ``memo`` section times the memos of ``linalg.state`` and
``linalg.relmod_grid`` at n in {64, 128, 256}: ``state_once_seen_s``,
``linalg.state`` over three arrays in rotation, so that every call misses
the two-entry memo (n = 64 and 256); ``umegaki_remembered_pair_s``,
``quantities.umegaki`` of two remembered arrays, which
``linalg.state_pair`` answers without starting a thread; and
``fisher_after_gen_cov_s``, ``quantities.fisher`` (``wyd:0.3``) of a
remembered density and two operands that ``quantities.gen_cov`` (``sld``)
rotated before it (n = 64 and 256).

A ``products`` section gives, at n in {48, 64, 96, 128, 256}, the ratios
behind ``linalg.PRODUCT_THREAD_DIM``: the time of a call with its two
independent product chains overlapped on a thread (the crossover set to 1)
over that of the same call with the two in turn, for
``quantities.gen_cov`` (``sld``) rotating two operands it has not seen
(its State is not remembered, so no rotation is kept) and
``quantities.wyd_direct`` (p = 0.3).  Below 1 the thread wins.  Its
``sym_cov_s`` row is the time of one ``quantities.sym_cov`` call on that
State, whose two matmuls always run in turn.

Each row at n >= 128 of the ``memo`` and ``products`` sections runs in a
process of its own (``--row NAME --dim N``), because in one process a row
at that size depends on the heap that the rows before it left.

A ``harness`` section times the per-trial generators of one acceptance
pass's trial count (the sum of ``verify._SUITES`` trials, 2,320): seconds
per trial to build every trial's generator, both as ``verify.run_suite``
does (one ``verify._trial_seed_words`` call, then ``PCG64`` from each row)
and as ``np.random.default_rng(np.random.SeedSequence([seed, i]))``, which
draws the same streams.

An ``import`` section times the per-process layer that every ``qig
compute`` call pays: the wall seconds of fresh processes, as the
benchmark's cli-compute workload runs them (``PYTHONDONTWRITEBYTECODE=1``,
so from a checkout without ``__pycache__`` each process compiles qig from
source), for ``import numpy``, ``import qig``, ``import qig, qig.cli``
and one ``python -m qig.cli compute umegaki`` on two n = 2 density files.
Each is the median over 9 processes, the four commands taking turns.

Each time is the median over 7 timings of one call, where a timing runs
the call enough times to last at least 20 ms; a ratio is the median
over 25 rounds that time the two calls back to back.  BLAS runs on one
thread, as in the benchmark.

    PYTHONPATH=src python3 scripts/layer_times.py --seed 0 > layer_times.json
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning)

from qig import cli, functions, linalg, quantities, verify  # noqa: E402

DIMS = (2, 4, 8, 16, 32, 48, 64, 256)
MEMO_DIMS = (64, 128, 256)
MEMO_ROW_DIMS = {
    "state_once_seen_s": (64, 256),
    "umegaki_remembered_pair_s": MEMO_DIMS,
    "fisher_after_gen_cov_s": (64, 256),
}
PRODUCT_DIMS = (48, 64, 96, 128, 256)
PRODUCT_ROWS = (
    "gen_cov_overlapped_over_in_turn",
    "wyd_direct_overlapped_over_in_turn",
    "sym_cov_s",
)
FRESH_PROCESS_DIMS = (128, 256)
MIN_SECONDS = 0.02
REPEATS = 7
RATIO_ROUNDS = 25
IMPORT_PROCESSES = 9


def _mixed_kernels() -> tuple:
    """8 kernels from 6 families, two families with two members each."""
    return (
        functions.sld(),
        functions.kubo_mori(),
        functions.wyd(0.3),
        functions.wyd(0.7),
        functions.extremal_metric(0.4),
        functions.extremal_metric(0.8),
        functions.hansen_mixture(functions.DiscreteMeasure((0.2, 0.6), (0.3, 0.7))),
        functions.covariance_kernel(functions.wyd(0.4)),
    )


def _fresh_hessian_kernels() -> tuple:
    """17 new Hessian kernels of the bases ``power:2``, ``power:0.5``, ``neglog`` and ``sld`` in turn."""
    bases = (lambda: functions.power_kernel(2.0), lambda: functions.power_kernel(0.5),
             functions.neglog_kernel, functions.sld)
    return tuple(functions.hessian_kernel(bases[i % 4]()) for i in range(17))


def _timing(fn, number: int) -> float:
    """Seconds per call of fn over ``number`` calls in a row."""
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - start) / number


def _number(fn) -> int:
    """Calls of fn (a power of two) that last at least ``MIN_SECONDS``."""
    fn()
    number = 1
    while _timing(fn, number) * number < MIN_SECONDS:
        number *= 2
    return number


def _per_call(fn) -> float:
    """Median seconds of one call of fn over ``REPEATS`` timings."""
    number = _number(fn)
    return statistics.median(_timing(fn, number) for _ in range(REPEATS))


def _cold(fn):
    """fn with ``linalg``'s memos emptied before each call, so that it decomposes every array and rotates every operand."""

    def call():
        linalg._forget_states()
        return fn()

    return call


def _ratio(first, second) -> float:
    """first's time over second's: the median over ``RATIO_ROUNDS`` rounds that time the two back to back.

    Timing them back to back keeps a drift in machine speed out of the ratio.
    """
    number = _number(second)
    return statistics.median(_timing(first, number) / _timing(second, number) for _ in range(RATIO_ROUNDS))


def _threaded_ratio(D1, D2) -> float:
    """``umegaki`` of two arrays decomposed as a threaded pair at any n, over two sequential ``state`` calls."""
    threaded = _cold(lambda: quantities.umegaki(D1, D2))
    sequential = _cold(lambda: quantities.umegaki(linalg.state(D1), linalg.state(D2)))
    crossover, linalg.PAIR_THREAD_DIM = linalg.PAIR_THREAD_DIM, 1
    try:
        return _ratio(threaded, sequential)
    finally:
        linalg.PAIR_THREAD_DIM = crossover


def _at_crossover(fn, crossover: int):
    """fn run with ``linalg.PRODUCT_THREAD_DIM`` set to ``crossover``."""

    def call():
        saved, linalg.PRODUCT_THREAD_DIM = linalg.PRODUCT_THREAD_DIM, crossover
        try:
            return fn()
        finally:
            linalg.PRODUCT_THREAD_DIM = saved

    return call


def layer_times(n: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, n])
    D = np.asarray(verify.random_density(n, 0.5 / n, rng))
    A = verify.random_hermitian(n, rng)
    s1, s2 = linalg.state(D), verify.random_density(n, 0.5 / n, rng)
    D2 = np.asarray(s2)
    B = np.asarray(verify.random_hermitian(n, rng))
    w, U = np.linalg.eigh(D)
    x = w[:, None] / w[None, :]
    kernels = _mixed_kernels()
    x8 = np.stack([x] * len(kernels))
    x17 = np.stack([x] * 17)
    W = linalg.eval_scalar(functions.wyd(0.3), x)
    one = functions.wyd(0.3)

    def contraction():
        M = U.conj().T @ A @ U
        return (W * np.abs(M) ** 2 * w[None, :]).sum()

    return {
        "as_hermitian_s": _per_call(lambda: linalg.as_hermitian(D)),
        "as_density_s": _per_call(_cold(lambda: linalg.as_density(D))),
        "eigh_s": _per_call(lambda: np.linalg.eigh(D)),
        "kernel_one_s": _per_call(lambda: linalg._kernel_grid(one, x)),
        "kernel_tuple8_grouped_s": _per_call(lambda: linalg._kernel_grid(kernels, x8)),
        "kernel_tuple8_per_member_s": _per_call(lambda: [linalg.eval_scalar(f, x) for f in kernels]),
        "kernel_tuple17_fresh_s": _per_call(lambda: linalg._kernel_grid(_fresh_hessian_kernels(), x17)),
        "contraction_s": _per_call(contraction),
        "umegaki_states_s": _per_call(lambda: quantities.umegaki(s1, s2)),
        "skew_info_state_s": _per_call(lambda: quantities.skew_info(one, s1, A)),
        "umegaki_arrays_s": _per_call(_cold(lambda: quantities.umegaki(D, D2))),
        "umegaki_arrays_threaded_over_sequential": _threaded_ratio(D, D2),
        "state_remembered_s": _per_call(lambda: linalg.state(D)),
        "as_density_remembered_s": _per_call(lambda: linalg.as_density(D)),
        "fisher_remembered_s": _per_call(lambda: quantities.fisher(one, D, A, A)),
        "gen_cov_cold_s": _per_call(_cold(lambda: quantities.gen_cov(functions.sld(), D, A, B))),
    }


def memo_row(name: str, n: int, seed: int) -> float:
    """Seconds per call of the memo row ``name`` at dimension n."""
    rng = np.random.default_rng([seed, n])
    D1, D2, D3 = (np.asarray(verify.random_density(n, 0.5 / n, rng)) for _ in range(3))
    if name == "state_once_seen_s":
        rotation = itertools.cycle((D1, D2, D3))
        return _per_call(lambda: linalg.state(next(rotation)))
    linalg.state(D1), linalg.state(D2)
    if name == "umegaki_remembered_pair_s":
        return _per_call(lambda: quantities.umegaki(D1, D2))
    X = np.asarray(verify.random_hermitian(n, rng))
    A = X + 1j * np.asarray(verify.random_hermitian(n, rng))
    quantities.gen_cov(functions.sld(), D1, X, A)
    return _per_call(lambda: quantities.fisher(functions.wyd(0.3), D1, X, A))


def product_row(name: str, n: int, seed: int) -> float:
    """The products row ``name`` at dimension n: overlapped over in turn, or ``sym_cov_s``'s seconds per call."""
    rng = np.random.default_rng([seed, n])
    s = linalg.state(np.asarray(verify.random_density(n, 0.5 / n, rng)))
    linalg._forget_states()  # s is not remembered, so gen_cov rotates both operands on every call
    X = np.asarray(verify.random_hermitian(n, rng))
    A = X + 1j * np.asarray(verify.random_hermitian(n, rng))
    if name == "sym_cov_s":
        return _per_call(lambda: quantities.sym_cov(s, X, A))
    call = {
        "gen_cov_overlapped_over_in_turn": lambda: quantities.gen_cov(functions.sld(), s, X, A),
        "wyd_direct_overlapped_over_in_turn": lambda: quantities.wyd_direct(0.3, s, X),
    }[name]
    return _ratio(_at_crossover(call, 1), _at_crossover(call, n + 1))


def row_here(name: str, n: int, seed: int) -> float:
    """The ``memo`` or ``products`` row ``name`` at dimension n, in this process."""
    return (product_row if name in PRODUCT_ROWS else memo_row)(name, n, seed)


def row(name: str, n: int, seed: int) -> float:
    """:func:`row_here`, in a process of its own at the dimensions ``FRESH_PROCESS_DIMS``."""
    if n not in FRESH_PROCESS_DIMS:
        return row_here(name, n, seed)
    args = ["--seed", str(seed), "--row", name, "--dim", str(n)]
    out = subprocess.run([sys.executable, os.path.abspath(__file__), *args], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def memo_times(n: int, seed: int) -> dict:
    return {name: row(name, n, seed) for name, dims in MEMO_ROW_DIMS.items() if n in dims}


def harness_times(seed: int) -> dict:
    trials = sum(row.trials for row in verify._SUITES.values())

    def seed_words():
        words, seed_words = verify._trial_seed_words(seed, trials), verify._seed_words_type()
        for i in range(trials):
            np.random.Generator(np.random.PCG64(seed_words(words[i])))

    def seed_sequence():
        for i in range(trials):
            np.random.default_rng(np.random.SeedSequence([seed, i]))

    return {
        "trials": trials,
        "trial_generator_seed_words_s": _per_call(seed_words) / trials,
        "trial_generator_seed_sequence_s": _per_call(seed_sequence) / trials,
    }


def import_times(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    src = os.path.dirname(os.path.dirname(os.path.abspath(linalg.__file__)))  # the qig imported here
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": src}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"d{i}.json") for i in (1, 2)]
        for path in paths:
            cli.write_matrix(path, verify.random_density(2, 0.25, rng))
        commands = {
            "import_numpy_s": ["-c", "import numpy"],
            "import_qig_s": ["-c", "import qig"],
            "import_qig_cli_s": ["-c", "import qig, qig.cli"],
            "compute_umegaki_n2_s": ["-m", "qig.cli", "compute", "umegaki", "--state", paths[0],
                                     "--state2", paths[1]],
        }
        seconds = {name: [] for name in commands}
        for _ in range(IMPORT_PROCESSES):
            for name, args in commands.items():
                start = time.perf_counter()
                subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)
                seconds[name].append(time.perf_counter() - start)
    return {name: statistics.median(times) for name, times in seconds.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--row", choices=sorted(MEMO_ROW_DIMS) + sorted(PRODUCT_ROWS),
                        help="print only this memo or products row at --dim, in this process")
    parser.add_argument("--dim", type=int, default=256)
    args = parser.parse_args(argv)
    if args.row:
        print(json.dumps(row_here(args.row, args.dim, args.seed)))
        return 0
    out = {
        "command": "python3 scripts/layer_times.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "blas_threads": 1,
        },
        "unit": "seconds per call, median (umegaki_arrays_threaded_over_sequential and products "
                "other than sym_cov_s: ratios; harness: per trial; import: per process)",
        "dims": {str(n): layer_times(n, args.seed) for n in DIMS},
        "memo": {str(n): memo_times(n, args.seed) for n in MEMO_DIMS},
        "products": {str(n): {name: row(name, n, args.seed) for name in PRODUCT_ROWS} for n in PRODUCT_DIMS},
        "harness": harness_times(args.seed),
        "import": import_times(args.seed),
    }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Per-dimension times of the spectral layers, one JSON document on stdout.

For each n in {2, 4, 8, 16, 32, 48, 64, 256} it times, on a seeded random
density and observable:

- validation: ``linalg.as_hermitian`` and ``linalg.as_density``;
- ``np.linalg.eigh`` of the density;
- kernel evaluation on the ratio grid ``w_i / w_j``: one kernel
  (``wyd:0.3``), and a tuple of 8 kernels from mixed families on a stack
  of 8 grids, both grouped (``linalg._kernel_grid``, one call per family)
  and member by member (one ``eval_scalar`` call each);
- the eigenbasis contraction ``sum_ij W_ij |(U* A U)_ij|^2 w_j``;
- two whole quantities on validated states (``linalg.State``), where only
  per-call work is left: ``quantities.umegaki`` of two states (the
  identity operand) and ``quantities.skew_info`` with ``wyd:0.3``;
- ``quantities.umegaki`` of two arrays, which validates and decomposes
  them as a pair (``linalg.state_pair``; concurrently from
  ``linalg.PAIR_THREAD_DIM`` on), and, as a ratio, its time with the pair
  decomposed concurrently at every n over that of the same call after two
  sequential ``linalg.state`` calls.  The ratio per n is the measurement
  behind ``PAIR_THREAD_DIM``: below 1 the thread wins.

A ``harness`` section times the per-trial generators of one acceptance
pass's trial count (the sum of ``verify._SUITES`` trials, 2,320): seconds
per trial to build every trial's generator, both as ``verify.run_suite``
does (one ``verify._trial_seed_words`` call, then ``PCG64`` from each row)
and as ``np.random.default_rng(np.random.SeedSequence([seed, i]))``, which
draws the same streams.

Each time is the median over 7 timings of one call, where a timing runs
the call enough times to last at least 20 ms; the ratio is the median
over 25 rounds that time the two calls back to back.  BLAS runs on one
thread, as in the benchmark.

    PYTHONPATH=src python3 scripts/layer_times.py --seed 0 > layer_times.json
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning)

from qig import functions, linalg, quantities, verify  # noqa: E402

DIMS = (2, 4, 8, 16, 32, 48, 64, 256)
MIN_SECONDS = 0.02
REPEATS = 7
RATIO_ROUNDS = 25


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


def _threaded_ratio(D1, D2) -> float:
    """``umegaki`` of two arrays decomposed as a threaded pair at any n, over two sequential ``state`` calls.

    The median over ``RATIO_ROUNDS`` rounds that time the two back to back,
    which keeps a drift in machine speed out of the ratio.
    """
    threaded = lambda: quantities.umegaki(D1, D2)
    sequential = lambda: quantities.umegaki(linalg.state(D1), linalg.state(D2))
    crossover, linalg.PAIR_THREAD_DIM = linalg.PAIR_THREAD_DIM, 1
    try:
        number = _number(sequential)
        return statistics.median(
            _timing(threaded, number) / _timing(sequential, number) for _ in range(RATIO_ROUNDS)
        )
    finally:
        linalg.PAIR_THREAD_DIM = crossover


def layer_times(n: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, n])
    D = np.asarray(verify.random_density(n, 0.5 / n, rng))
    A = verify.random_hermitian(n, rng)
    s1, s2 = linalg.state(D), verify.random_density(n, 0.5 / n, rng)
    D2 = np.asarray(s2)
    w, U = np.linalg.eigh(D)
    x = w[:, None] / w[None, :]
    kernels = _mixed_kernels()
    x8 = np.stack([x] * len(kernels))
    W = linalg.eval_scalar(functions.wyd(0.3), x)
    one = functions.wyd(0.3)

    def contraction():
        M = U.conj().T @ A @ U
        return (W * np.abs(M) ** 2 * w[None, :]).sum()

    return {
        "as_hermitian_s": _per_call(lambda: linalg.as_hermitian(D)),
        "as_density_s": _per_call(lambda: linalg.as_density(D)),
        "eigh_s": _per_call(lambda: np.linalg.eigh(D)),
        "kernel_one_s": _per_call(lambda: linalg._kernel_grid(one, x)),
        "kernel_tuple8_grouped_s": _per_call(lambda: linalg._kernel_grid(kernels, x8)),
        "kernel_tuple8_per_member_s": _per_call(lambda: [linalg.eval_scalar(f, x) for f in kernels]),
        "contraction_s": _per_call(contraction),
        "umegaki_states_s": _per_call(lambda: quantities.umegaki(s1, s2)),
        "skew_info_state_s": _per_call(lambda: quantities.skew_info(one, s1, A)),
        "umegaki_arrays_s": _per_call(lambda: quantities.umegaki(D, D2)),
        "umegaki_arrays_threaded_over_sequential": _threaded_ratio(D, D2),
    }


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    out = {
        "command": "python3 scripts/layer_times.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "blas_threads": 1,
        },
        "unit": "seconds per call, median (umegaki_arrays_threaded_over_sequential: a ratio; harness: per trial)",
        "dims": {str(n): layer_times(n, args.seed) for n in DIMS},
        "harness": harness_times(args.seed),
    }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

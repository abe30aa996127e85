"""Fixed calibration work that tracks how fast the machine runs right now.

The benchmark interleaves one of these short tasks with the workload's
operations and divides each operation's time by the calibration time
measured around it.  The tasks use only the interpreter and numpy, never
``qig``, so a change to the program cannot move them; a change in machine
speed moves both sides alike and cancels.

On the 2-core machine the benchmark was built on, CPU speed moved between
regimes up to 1.9x apart, lasting from under a second to longer than a
benchmark run, with no steal time recorded.  Over 10 s windows of one
trace, the median time of a ``qig`` call spread by 15 % from window to
window, while its ratio to an interleaved calibration spread by 2 %.

``NOMINAL_S`` is each task's typical time on that machine; multiplying a
ratio by it gives seconds at that machine's typical speed.
"""

from __future__ import annotations

import time

import numpy as np

# bound at import, so that a tracer wrapping numpy.linalg.eigh never sees the calibration
_eigh = np.linalg.eigh

#: typical seconds of one task on the reference machine (2 cores, Python 3.11.7,
#: numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread)
NOMINAL_S = {"interpreter": 0.0060, "lapack": 0.0065}


def _fixed_hermitian(n: int) -> np.ndarray:
    i, j = np.indices((n, n))
    M = np.cos(1.0 + i * 0.7 + j * 0.3) + 1j * np.sin(0.5 + i * 0.2 - j * 0.9)
    return (M + M.conj().T) / 2 + n * np.eye(n)


class Calibration:
    """One calibration task; calling it runs the task once and returns its seconds.

    ``interpreter``: a Python loop plus small-matrix numpy calls, the mix of
    the small-n workloads and the CLI.  ``lapack``: a 128 x 128 ``eigh`` and
    matrix products, the mix of the large-n workload.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        self._small = _fixed_hermitian(4)
        self._large = _fixed_hermitian(128)

    def _interpreter(self):
        acc = {}
        for i in range(8000):
            acc[i % 17] = acc.get(i % 17, 0) + (i * i) % 7
        M = self._small
        for _ in range(240):
            w, U = _eigh(M)
            M = ((U * w) @ U.conj().T + M.conj().T) / 2
        return acc, M

    def _lapack(self):
        M = self._large
        for _ in range(2):
            w, U = _eigh(M)
            M = ((U * w) @ U.conj().T @ M + M.conj().T) / (2 * M.shape[0])
        return M

    def __call__(self) -> float:
        task = self._interpreter if self.kind == "interpreter" else self._lapack
        start = time.perf_counter()
        task()
        return time.perf_counter() - start
